"""Tests for the benchmark's own helpers: percentiles, self time, tracing, checks.

    python3 -m pytest -q perfbench/tests
"""

import importlib

import numpy as np
import pytest

from layers import LabelAudit
from stats import fingerprint_diff, nearest_rank, quartile_spread, tail_summary, top_percentile
from tracer import Tracer, self_times


# -- percentile selection ----------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90),
    (199, 90), (200, 95), (1000, 99), (10000, 99.9)])
def test_top_percentile_keeps_ten_samples_beyond(n, expected):
    assert top_percentile(n) == expected
    if expected is not None:
        ordered = list(range(n))
        beyond = sum(1 for v in ordered if v > nearest_rank(ordered, expected))
        assert beyond >= 10


def test_tail_summary_falls_back_to_median_with_few_samples():
    tail = tail_summary([5.0, 1.0, 3.0])
    assert tail == {"p50": 3.0, "ptop": 3.0, "ptop_pct": 50.0, "samples": 3}


def test_tail_summary_reports_p90_of_a_hundred():
    tail = tail_summary(float(v) for v in range(1, 101))
    assert tail["ptop_pct"] == 90 and tail["ptop"] == 90.0 and tail["p50"] == 50.0


def test_quartile_spread_matches_statistics_quantiles():
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)


# -- self time -----------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    #   0 root [0, 10]
    #   1   a  [1, 4]
    #   2     g [2, 3]
    #   3   b  [5, 9]
    own = self_times([0, 1, 2, 5], [10, 4, 3, 9], [-1, 0, 1, 0])
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0]


def test_self_time_clips_children_to_the_parent():
    own = self_times([0, 8], [10, 12], [-1, 0])
    assert own.tolist() == [8.0, 4.0]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_tracer_records_nesting_and_summarizes():
    tracer = Tracer(clock=FakeClock())
    inner = tracer.span(lambda: None, "inner")
    outer = tracer.span(lambda: (inner(), inner()), "outer")
    outer()
    assert list(tracer.parent) == [-1, 0, 0]
    summary = tracer.summary()
    # outer spans ticks 1..6, each inner one tick; outer's own share is 3
    assert summary["inner"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}
    assert summary["outer"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}
    assert tracer.durations("inner") == [1.0, 1.0]


def test_summary_window_treats_earlier_parents_as_roots():
    tracer = Tracer(clock=FakeClock())
    leaf = tracer.span(lambda: None, "leaf")

    def parent():
        leaf()
        mark.append(tracer.mark())
        leaf()
    mark = []
    tracer.span(parent, "parent")()
    window = tracer.summary(since=mark[0])
    assert window == {"leaf": {"calls": 1, "total_s": 1.0, "self_s": 1.0}}


# -- wrapping the program --------------------------------------------------------

def test_patch_reaches_names_bound_at_import_and_restores():
    autodiff = importlib.import_module("mekd.autodiff")
    nets = importlib.import_module("mekd.nets")
    harness = importlib.import_module("mekd.harness")
    distill_module = importlib.import_module("mekd.distill")
    package = importlib.import_module("mekd")
    relu, distill = autodiff.relu, distill_module.distill
    assert nets._HIDDEN["relu"] is relu

    tracer = Tracer()
    tracer.trace_function("mekd.autodiff", "relu", "autodiff.relu")
    tracer.trace_function("mekd.distill", "distill", "distill.train")
    try:
        assert autodiff.relu is not relu and nets._HIDDEN["relu"] is autodiff.relu
        for holder in (distill_module, harness, package):
            assert holder.distill is not distill
        net = nets.build_network(nets.NetworkSpec("classifier", 3, (4,), 2), 2, 0)
        net(np.ones((1, 3)))
        assert tracer.summary()["autodiff.relu"]["calls"] == 1
    finally:
        tracer.restore()
    assert autodiff.relu is relu and nets._HIDDEN["relu"] is relu
    for holder in (distill_module, harness, package):
        assert holder.distill is distill


def test_patch_method_restores_the_class_attribute():
    optim = importlib.import_module("mekd.optim")
    step = optim.SGD.__dict__["step"]
    tracer = Tracer()
    tracer.trace_method(optim.SGD, "step", "optim.step")
    assert optim.SGD.__dict__["step"] is not step
    tracer.restore()
    assert optim.SGD.__dict__["step"] is step


# -- output checks ----------------------------------------------------------------

def test_fingerprint_diff_names_changed_and_missing_keys():
    a = {"sha256:g.ckpt": "aa", "gen_fid": "0.5", "teacher_queries": "4000"}
    assert fingerprint_diff(a, dict(a)) == []
    b = dict(a, gen_fid="0.50000000001")
    del b["teacher_queries"]
    b["extra"] = "1"
    assert fingerprint_diff(a, b) == ["extra", "gen_fid", "teacher_queries"]


class FakeDataset:
    def __init__(self, reads):
        self.label_reads = reads

    def __len__(self):
        return 10


def test_label_audit_allows_one_supervised_read_in_the_teacher_stage():
    audit = LabelAudit()
    audit.stage = "teacher"
    train, test = FakeDataset(1 + 2), FakeDataset(2)
    for ds in (train, test):
        audit.on_dataset(ds)
        audit.on_accuracy(ds)
        audit.on_accuracy(ds)
    assert audit.problems() == []
    train.label_reads += 1
    assert len(audit.problems()) == 1


def test_label_audit_flags_a_read_outside_accuracy():
    audit = LabelAudit()
    audit.stage = "mekd"
    ds = FakeDataset(1)
    audit.on_dataset(ds)
    assert audit.problems() and "1 label reads but 0 accuracy calls" in audit.problems()[0]
    audit.on_accuracy(ds)
    assert audit.problems() == []
    assert audit.label_reads() == 1
