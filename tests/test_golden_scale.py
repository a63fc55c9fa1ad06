"""Two 1,000-example runs write the bytes recorded in `golden_scale.json`:
one on a clean corpus, and one (`with_rejects`) whose corpus has an
unlexable snippet on every seventh line, so that `rejects.jsonl` is not
empty and donor assignment runs on a screened corpus.

The 20-example golden runs are too small to reach every copy-rate bucket
or many ties in donor assignment; these runs are large enough and take
about a second each. `tools/scale_run.py` prints the same digests at any
size. Updating the recorded digests is a deliberate change of output.
"""

import importlib.util
import json
from pathlib import Path

from sumprobe.corpus import load_run

TOOL_PATH = Path(__file__).resolve().parent.parent / "tools" / "scale_run.py"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden_scale.json"


def load_tool():
    # by path: tools/ is not a package
    spec = importlib.util.spec_from_file_location("scale_run", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_run(golden: dict, out: Path) -> None:
    stages, digests = load_tool().run(
        golden["examples"], golden["seed"], out, golden.get("unlexable_every", 0)
    )
    assert list(stages) == ["transform", "generate", "score", "analyze"]
    assert digests == golden["digests"]


def test_a_thousand_example_run_is_byte_identical_to_the_golden_digests(tmp_path):
    check_run(json.loads(GOLDEN_PATH.read_text()), tmp_path)


def test_a_run_with_rejects_is_byte_identical_to_the_golden_digests(tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text())["with_rejects"]
    check_run(golden, tmp_path)
    rejects = (tmp_path / "rejects.jsonl").read_text(encoding="utf-8")
    assert rejects.count('"reason": "unlexable"') == golden["examples"] // golden["unlexable_every"]


def test_a_second_echo_model_doubles_the_records_and_scores_100(tmp_path):
    tool = load_tool()
    one, two = tmp_path / "one", tmp_path / "two"
    _, digests_one = tool.run(100, 5, one, unlexable_every=7)
    stages, digests_two = tool.run(100, 5, two, unlexable_every=7, models=2)
    assert list(stages) == ["transform", "generate", "generate echo-2", "score", "analyze"]
    shared = [path for path in digests_one if path.startswith("variants/")]
    shared.append("rejects.jsonl")
    assert [digests_two[path] for path in shared] == [digests_one[path] for path in shared]
    records = load_run(two / "runs.jsonl")
    assert len(records) == 2 * len(load_run(one / "runs.jsonl")) > 0
    assert {rec.model_id for rec in records} == {"echo", "echo-2"}
    assert all(rec.metrics.bleu4 == 100.0 for rec in records)
