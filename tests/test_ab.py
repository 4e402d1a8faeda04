"""`tools/ab.py`'s summary and verdict on hand-made run records, and the
BLAS kernel it records; no benchmark process is started."""

import importlib.util
from pathlib import Path

import pytest

AB = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
SPECS = [{"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
         {"name": "throughput_per_s", "better": "higher", "bound": 0.25}]


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", AB)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(parent, change):
    """eval run records of `peak_rss_mb` pairs (parent[i], change[i]) at
    seeds 100 + i."""
    runs = []
    for pair, values in enumerate(zip(parent, change)):
        for side, value in zip(("parent", "change"), values):
            runs.append({"workload": "eval", "pair": pair, "seed": 100 + pair,
                         "side": side, "correct": True, "returncode": 0,
                         "metrics": {"peak_rss_mb": value}})
    return runs


class TestVerdict:
    def test_improved_needs_every_change_run_below_every_parent_run(self, ab):
        assert ab.verdict([63.0, 63.4, 62.5], [56.0, 56.1, 55.9], "lower", 0.05) == "improved"
        # one change run above the lowest parent run: not improved
        assert ab.verdict([63.0, 63.4, 62.5], [56.0, 62.6, 55.9], "lower", 0.05) \
            == "within bound"

    def test_direction_follows_better(self, ab):
        assert ab.verdict([10.0, 11.0], [12.0, 13.0], "higher", 0.25) == "improved"
        assert ab.verdict([10.0, 11.0], [12.0, 13.0], "lower", 0.25) == "within bound"

    def test_regressed_when_the_median_is_worse_than_the_bound(self, ab):
        # parent median 100; +6 is beyond a 5% bound, +4 is not
        assert ab.verdict([99.0, 100.0, 101.0], [106.0, 106.0, 98.0], "lower", 0.05) \
            == "regressed"
        assert ab.verdict([99.0, 100.0, 101.0], [104.0, 104.0, 98.0], "lower", 0.05) \
            == "within bound"
        assert ab.verdict([100.0, 100.0], [70.0, 74.0], "higher", 0.25) == "regressed"


class TestSummary:
    def test_pairs_statistics_and_wins(self, ab):
        runs = _runs([63.0, 62.0, 64.0, 63.5], [56.0, 62.5, 55.0, 56.5])
        s = ab.summarise(runs, SPECS)["eval"]["metrics"]["peak_rss_mb"]
        assert [(r["seed"], r["parent"], r["change"]) for r in s["pairs"]] == [
            (100, 63.0, 56.0), (101, 62.0, 62.5), (102, 64.0, 55.0), (103, 63.5, 56.5)]
        assert s["n"] == 4 and s["wins"] == 3
        assert s["parent"]["median"] == 63.25
        assert (s["parent"]["min"], s["parent"]["max"]) == (62.0, 64.0)
        assert (s["parent"]["q1"], s["parent"]["q3"]) == (62.75, 63.625)
        assert s["parent"]["iqr"] == 63.625 - 62.75
        assert s["verdict"] == "within bound"  # 62.5 is above the parent's 62.0
        assert s["spread_exceeds_bound"]  # the change spans 55.0-62.5, over 5%

    def test_metric_missing_on_one_side_drops_its_pair(self, ab):
        runs = _runs([63.0, 62.0], [56.0, 55.0])
        del runs[3]["metrics"]["peak_rss_mb"]  # pair 1's change run
        s = ab.summarise(runs, SPECS)["eval"]["metrics"]
        assert s["peak_rss_mb"]["n"] == 1 and s["peak_rss_mb"]["verdict"] == "improved"
        assert "throughput_per_s" not in s  # no run reports it

    def test_incorrect_runs_are_kept_and_listed(self, ab):
        runs = _runs([63.0, 62.0], [56.0, 55.0])
        runs[1]["correct"] = False
        summary = ab.summarise(runs, SPECS)["eval"]
        assert summary["metrics"]["peak_rss_mb"]["n"] == 2
        assert summary["incorrect_runs"] == [
            {"pair": 0, "seed": 100, "side": "change", "correct": False, "returncode": 0}]


class TestRunOutput:
    def test_environment_and_result_lines(self, ab):
        stdout = "\n".join([
            '{"environment": {"seed": 3}, "failed_share": 0.0}',
            "setup_s    0.2 s  spawn to first timed unit",
            '{"correct": false, "attempted": 4, "failed": 1, '
            '"metrics": {"setup_s": {"value": 0.2, "unit": "s"}}}'])
        env, result = ab.parse_output(stdout)
        assert env["environment"] == {"seed": 3}
        assert result["correct"] is False and result["metrics"]["setup_s"]["value"] == 0.2
        assert ab.parse_output("error: no program\n") == (None, None)


def test_blas_kernel_names_a_forced_kernel(ab, monkeypatch):
    """The kernel recorded in the output is the one the runs' environment
    gives OpenBLAS."""
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Sandybridge")
    assert ab.blas_kernel() == "Sandybridge"
