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
