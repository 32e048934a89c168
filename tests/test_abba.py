"""tools/abba.py: the paired comparison's statistics, run order and exit
status, on stand-in trees whose benchmark prints fixed metrics."""

import importlib.util
import json
from pathlib import Path

import pytest

ABBA = Path(__file__).resolve().parents[1] / "tools" / "abba.py"

STUB = """import json, sys
from pathlib import Path
seed = int(sys.argv[sys.argv.index("--seed") + 1])
wall, correct = json.loads(Path("values.json").read_text())
with open("../order.log", "a") as log:
    log.write(f"{Path.cwd().name} {seed}\\n")
print(json.dumps({"record": True}))
print(json.dumps({"correct": correct, "attempted": 3, "failed": 0, "metrics": {
    "wall_s": {"value": wall + seed / 1000, "unit": "s"},
    "frames_per_s": {"value": 1 / wall, "unit": "frames/s"}}}))
"""


def _load():
    spec = importlib.util.spec_from_file_location("abba", ABBA)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


abba = _load()


def test_sign_test_is_exact_and_two_sided():
    assert abba.sign_test(10, 0) == abba.sign_test(0, 10) == 2 / 2**10
    assert round(abba.sign_test(10, 0), 5) == 0.00195
    assert abba.sign_test(9, 1) == 2 * 11 / 2**10
    assert abba.sign_test(5, 5) == abba.sign_test(0, 0) == 1.0


def test_compare_counts_wins_in_the_metrics_direction():
    base, head = [1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.0, 2.0, 5.0, 4.0]
    lower = abba.compare(base, head, "lower")
    assert (lower["wins"], lower["losses"]) == (3, 1)  # the tie counts for neither
    assert lower["ratios"] == [0.5, 1.0, 2 / 3, 1.25, 0.8] and lower["median_ratio"] == 0.8
    assert lower["base"] == (2.0, 3.0, 4.0) and lower["head"] == (2.0, 2.0, 4.0)
    assert not lower["beyond_base_iqr"]  # medians 1 apart, base IQR 2
    higher = abba.compare(base, head, "higher")
    assert (higher["wins"], higher["losses"]) == (1, 3)
    assert abba.compare([1.0, 1.1, 0.9], [0.5, 0.4, 0.6], "lower")["beyond_base_iqr"]


@pytest.mark.parametrize("head_correct", [True, False])
def test_runs_alternate_abba_and_an_incorrect_run_fails(tmp_path, capsys, head_correct):
    for side, wall, correct in (("base", 1.0, True), ("head", 0.8, head_correct)):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(STUB)
        (tmp_path / side / "values.json").write_text(json.dumps([wall, correct]))
    metrics = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
               {"name": "frames_per_s", "unit": "frames/s", "better": "higher", "bound": 0.25}]
    (tmp_path / "head" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": metrics}))
    status = abba.main(["--base", str(tmp_path / "base"), "--head", str(tmp_path / "head"),
                        "--workload", "w", "--pairs", "3", "--seconds", "1", "--seed0", "7"])
    assert status == (0 if head_correct else 1)
    order = (tmp_path / "order.log").read_text().split("\n")[:-1]
    assert order == ["base 7", "head 7", "head 8", "base 8", "base 9", "head 9"]
    out = capsys.readouterr().out
    assert "head wins 3 of 3 (losses 0), sign-test p 0.25000" in out
    assert out.count("medians differ beyond base IQR: True") == 2
