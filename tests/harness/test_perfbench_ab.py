"""The same-runner A/B gate's rule (``scripts/perfbench_ab.py``), judged on
synthetic perfbench results so no benchmark runs."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "scripts"))

import perfbench_ab  # noqa: E402
from perfbench_ab import Misconfigured, judge  # noqa: E402

SPEC = json.loads((perfbench_ab.ROOT / "BENCHMARK.json").read_text())
END_TO_END = SPEC["end_to_end"]
PAIRS = 10


def result(failed: int = 0, **values: float) -> dict:
    """One perfbench result line: every end-to-end metric 1.0 unless given."""
    return {
        "correct": failed == 0, "attempted": 100, "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 1.0), "unit": m["unit"]}
                    for m in END_TO_END},
    }


def verdicts(base: list[dict], head: list[dict]) -> dict[str, str]:
    return {r.metric: r.verdict for r in judge(base, head, END_TO_END)}


def jittered(metric: str, scale: float = 1.0) -> list[dict]:
    """Ten runs of ``metric`` spread +-2% around ``scale``."""
    return [result(**{metric: scale * (0.98 + 0.004 * i)}) for i in range(PAIRS)]


def test_identical_runs_pass():
    runs = jittered("compress_gbps")
    rows = judge(runs, runs, END_TO_END)
    assert [r.metric for r in rows] == [m["name"] for m in END_TO_END] + ["failed/attempted"]
    assert all(r.verdict == "pass" and r.won == r.lost == 0 for r in rows)


@pytest.mark.parametrize("metric, scale", [("compress_gbps", 0.7), ("latency_ms_p50", 1.3)])
def test_thirty_percent_worse_fails(metric, scale):
    rows = {r.metric: r for r in judge(jittered(metric), jittered(metric, scale), END_TO_END)}
    assert rows[metric].verdict == "fail"
    assert rows[metric].lost == PAIRS and rows[metric].won == 0
    assert rows[metric].delta == pytest.approx(scale - 1.0)
    assert {r.verdict for m, r in rows.items() if m != metric} == {"pass"}


@pytest.mark.parametrize("metric, scale", [("decompress_gbps", 0.8), ("setup_s", 1.2),
                                           ("decompress_gbps", 1.3)])
def test_twenty_percent_worse_or_any_gain_passes(metric, scale):
    assert verdicts(jittered(metric), jittered(metric, scale))[metric] == "pass"


def test_base_spread_wider_than_bound_is_unresolved_unless_every_head_run_is_worse():
    base = [result(compress_gbps=0.5 + 0.1 * i) for i in range(PAIRS)]  # IQR/median ~0.47
    overlapping = [result(compress_gbps=0.35 + 0.1 * i) for i in range(PAIRS)]
    assert verdicts(base, overlapping)["compress_gbps"] == "unresolved"
    assert verdicts(base, base)["compress_gbps"] == "unresolved"
    below_all = [result(compress_gbps=0.45) for _ in range(PAIRS)]
    assert verdicts(base, below_all)["compress_gbps"] == "fail"


def test_higher_failure_share_fails():
    base = [result() for _ in range(PAIRS)]
    head = [result(failed=1 if i == 3 else 0) for i in range(PAIRS)]
    rows = {r.metric: r for r in judge(base, head, END_TO_END)}
    share = rows["failed/attempted"]
    assert share.verdict == "fail"
    assert (share.base_median, share.head_median) == (0.0, 1 / 1000)
    assert (share.won, share.lost) == (0, 1)
    assert verdicts(head, head)["failed/attempted"] == "pass"


def test_missing_metric_is_misconfigured():
    base = [result() for _ in range(PAIRS)]
    head = [result() for _ in range(PAIRS)]
    del head[4]["metrics"]["ratio"]
    with pytest.raises(Misconfigured, match="ratio"):
        judge(base, head, END_TO_END)


@pytest.fixture
def fake_runs(monkeypatch, tmp_path):
    """Replace the perfbench runs with canned results; record the run order."""
    order: list[str] = []
    canned = {"base": [result() for _ in range(PAIRS)], "head": [result() for _ in range(PAIRS)]}

    def run(root, command, workload, seconds):
        side = "head" if root == perfbench_ab.ROOT else "base"
        order.append(side)
        return canned[side][sum(s == side for s in order) - 1]

    monkeypatch.setattr(perfbench_ab, "_run", run)
    monkeypatch.setattr(perfbench_ab, "_base_tree", lambda base, into: None)
    monkeypatch.setattr(perfbench_ab, "OUT", tmp_path / "ab.json")
    return canned, order


def test_main_alternates_sides_and_records_every_run(fake_runs):
    canned, order = fake_runs
    assert perfbench_ab.main(["HEAD", "bulk-abs-f32"]) == 0
    assert order[:4] == ["base", "head", "head", "base"] and len(order) == 2 * PAIRS
    record = json.loads(perfbench_ab.OUT.read_text())["workloads"]["bulk-abs-f32"]
    assert record["base"] == canned["base"] and len(record["rows"]) == len(END_TO_END) + 1


def test_main_exits_1_on_a_failing_metric(fake_runs):
    canned, _ = fake_runs
    canned["head"] = [result(decompress_gbps=0.6) for _ in range(PAIRS)]
    assert perfbench_ab.main(["HEAD", "bulk-abs-f32"]) == 1


@pytest.mark.parametrize("argv", [["HEAD", "no-such-workload"], [], ["--pairs", "3"]])
def test_main_exits_2_when_misconfigured(fake_runs, argv):
    assert perfbench_ab.main(argv) == 2


def test_main_exits_2_on_a_run_missing_a_metric(fake_runs):
    canned, _ = fake_runs
    del canned["head"][7]["metrics"]["peak_rss_mib"]
    assert perfbench_ab.main(["HEAD", "archive-rel-f32"]) == 2
