"""`tools/pair_runs.py report`: the `within bound` column on synthetic runs."""

import importlib.util
from pathlib import Path

TOOL_PATH = Path(__file__).resolve().parent.parent / "tools" / "pair_runs.py"


def load_tool():
    # by path: tools/ is not a package
    spec = importlib.util.spec_from_file_location("pair_runs", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_says_whether_b_is_within_each_bound():
    values = {  # metric -> (A's runs, B's runs)
        "slower_within": ([1.0, 1.01, 0.99, 1.0, 1.02], [1.2, 1.21, 1.19, 1.2, 1.22]),
        "slower_beyond": ([1.0, 1.01, 0.99, 1.0, 1.02], [1.3, 1.31, 1.29, 1.3, 1.32]),
        "fewer_beyond": ([100, 101, 99, 100, 102], [70, 71, 69, 70, 72]),
        "noisy": ([1.0, 2.0, 1.0, 2.0, 1.5], [1.4, 1.6, 1.5, 1.5, 1.5]),
        "noisy_but_b_beats_all": ([1.0, 2.0, 1.0, 2.0, 1.5], [0.5, 0.6, 0.5, 0.5, 0.9]),
        "noisy_and_b_far_worse": ([1.0, 2.0, 1.0, 2.0, 1.5], [4.0, 4.1, 4.2, 4.0, 4.0]),
    }
    metrics = [{"name": name, "better": "higher" if name.startswith("fewer") else "lower",
                "bound": 0.25} for name in values]
    runs = {side: [{"metrics": {name: {"value": pair[k][i]} for name, pair in values.items()}}
                   for i in range(5)]
            for k, side in enumerate("AB")}
    header, *lines = load_tool().report(metrics, runs)
    assert header.split()[-2:] == ["within", "bound"]
    assert {line.split()[0]: line.split()[-1] for line in lines} == {
        "slower_within": "yes",
        "slower_beyond": "NO",
        "fewer_beyond": "NO",
        "noisy": "unresolved",
        "noisy_but_b_beats_all": "yes",
        "noisy_and_b_far_worse": "unresolved",
    }
