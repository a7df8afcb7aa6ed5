"""tools/pairs.py's parsing and summary, on canned benchmark and pytest
output; no benchmark or nested pytest runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

END_TO_END = [
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def run_stdout(p50, ops, host=(7.0, 7.5), failed=0):
    facts = {"workload": "train_sweep", "seed": 1, "host_loop_ms": list(host)}
    result = {
        "correct": failed == 0, "attempted": 12, "failed": failed,
        "metrics": {"op_p50_ms": {"value": p50, "unit": "ms"},
                    "ops_per_s": {"value": ops, "unit": "1/s"}},
    }
    return "facts " + json.dumps(facts) + "\n" + json.dumps(result) + "\n"


def series(parent, change):
    """Pairs from (p50, ops) tuples of each side."""
    return [
        {"parent": pairs.parse_run(run_stdout(*p)), "change": pairs.parse_run(run_stdout(*c))}
        for p, c in zip(parent, change)
    ]


def test_parse_run_reads_the_result_and_host_loop():
    run = pairs.parse_run("setting up\n" + run_stdout(9.5, 100.0, host=(6.9, 9.6)))
    assert run == {
        "correct": True, "attempted": 12, "failed": 0,
        "metrics": {"op_p50_ms": 9.5, "ops_per_s": 100.0},
        "host_loop_ms": [6.9, 9.6],
    }


def test_summary_medians_quartiles_and_wins():
    parent = [(10.0, 100.0), (11.0, 90.0), (12.0, 80.0), (13.0, 70.0), (14.0, 60.0)]
    change = [(9.0, 100.0), (11.5, 95.0), (11.0, 85.0), (12.0, 65.0), (13.0, 70.0)]
    summary = pairs.summarize(series(parent, change), END_TO_END)
    p50 = summary["op_p50_ms"]
    assert (p50["parent_median"], p50["change_median"]) == (12.0, 11.5)
    assert p50["parent_quartiles"] == [11.0, 13.0]
    assert (p50["pairs_won"], p50["pairs"]) == (4, 5)
    assert p50["verdict"] == "within bound"
    ops = summary["ops_per_s"]
    assert ops["pairs_won"] == 3  # 100 vs 100 is a tie, 65 vs 70 a loss
    assert (ops["parent_median"], ops["change_median"]) == (80.0, 85.0)


@pytest.mark.parametrize(
    "change, verdict",
    [
        # every pair won, and the median moved by more than the parent's IQR
        ([(9.0, 110.0)] * 10, "gain"),
        # the median is 30% worse than the parent's: past the 0.25 bound
        ([(13.0, 70.0)] * 10, "regression"),
    ],
)
def test_verdicts(change, verdict):
    parent = [(10.0 + 0.01 * k, 100.0 - 0.01 * k) for k in range(10)]
    summary = pairs.summarize(series(parent, change), END_TO_END)
    assert summary["op_p50_ms"]["verdict"] == verdict
    assert summary["ops_per_s"]["verdict"] == verdict


def test_spread_wider_than_the_bound_is_unresolved():
    parent = [(5.0, 100.0), (10.0, 100.0), (15.0, 100.0), (20.0, 100.0)]
    change = [(6.0, 100.0), (11.0, 100.0), (14.0, 100.0), (21.0, 100.0)]
    summary = pairs.summarize(series(parent, change), END_TO_END)
    assert summary["op_p50_ms"]["verdict"] == "unresolved"
    assert summary["ops_per_s"]["verdict"] == "within bound"


@pytest.mark.parametrize("parent_failed, change_failed", [(0, 1), (2, 3)])
def test_failed_checks_are_never_a_gain(parent_failed, change_failed):
    """A change whose runs fail checks reads `failed` on every metric, even
    when each of its pairs is faster and one failed op in thousands would
    stay inside ok_share's bound."""
    runs = []
    for k in range(10):
        parent = pairs.parse_run(run_stdout(10.0 + 0.01 * k, 100.0, failed=parent_failed if k == 0 else 0))
        change = pairs.parse_run(run_stdout(9.0, 110.0, failed=change_failed if k == 3 else 0))
        runs.append({"parent": parent, "change": change})
    summary = pairs.summarize(runs, END_TO_END)
    assert {entry["verdict"] for entry in summary.values()} == {"failed"}


def test_fewer_failed_ops_than_the_parent_is_judged_on_the_metrics():
    runs = [
        {"parent": pairs.parse_run(run_stdout(10.0 + 0.01 * k, 100.0, failed=1)),
         "change": pairs.parse_run(run_stdout(9.0, 110.0))}
        for k in range(10)
    ]
    assert pairs.summarize(runs, END_TO_END)["op_p50_ms"]["verdict"] == "gain"


@pytest.mark.parametrize(
    "stdout, counts",
    [
        ("...\n585 passed in 17.24s\n", (585, 0, 0)),
        # a FAILED line above the summary names an outcome too; only the last line counts
        ("F.\nFAILED tests/test_a.py::test_b - assert 1 passed\n"
         "2 failed, 583 passed, 1 error in 20.01s\n", (583, 2, 1)),
        ("E\n1 failed, 3 errors in 65.12s (0:01:05)\n", (0, 1, 3)),
        ("========== 4 passed, 1 skipped, 2 warnings in 0.50s ==========\n", (4, 0, 0)),
        ("no tests ran in 0.01s\n", (0, 0, 0)),
    ],
)
def test_pytest_summary_counts(stdout, counts):
    summary = pairs.parse_pytest_summary(stdout)
    assert (summary["passed"], summary["failed"], summary["errors"]) == counts


@pytest.mark.parametrize("stdout", ["", "ImportError while loading conftest\n"])
def test_output_without_a_summary_line(stdout):
    with pytest.raises(ValueError, match="no pytest summary line"):
        pairs.parse_pytest_summary(stdout)
