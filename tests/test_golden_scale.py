"""A 1,000-example run writes the bytes recorded in `golden_scale.json`.

The 20-example golden runs are too small to reach every copy-rate bucket
or many ties in donor assignment; this run is large enough and takes about
a second. `tools/scale_run.py` prints the same digests at any size.
Updating the recorded digests is a deliberate change of output.
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


def test_a_thousand_example_run_is_byte_identical_to_the_golden_digests(tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text())
    stages, digests = load_tool().run(golden["examples"], golden["seed"], tmp_path)
    assert list(stages) == ["transform", "generate", "score", "analyze"]
    assert digests == golden["digests"]
