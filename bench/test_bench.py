"""Tests of the benchmark itself: span arithmetic, the tracer, and a
tiny smoke run of every workload that checks every named metric."""

import json
import os
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
from tracer import Tracer, self_times, union_length  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def test_union_length_merges_and_clips():
    assert union_length([], 0.0, 1.0) == 0.0
    assert union_length([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 10.0) == 4.0
    assert union_length([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == 3.0


def test_self_time_subtracts_children_only():
    spans = [
        ("a", 0.0, 10.0, -1, 0),
        ("b", 1.0, 4.0, 0, 0),  # child of a
        ("c", 2.0, 3.0, 1, 0),  # grandchild: counts against b, not a
        ("b", 5.0, 6.0, 0, 0),
        ("a", 20.0, 21.0, -1, 1),
    ]
    got = self_times(spans)
    assert got["a"] == (2, pytest.approx(10.0 - 3.0 - 1.0 + 1.0))
    assert got["b"] == (2, pytest.approx(3.0 - 1.0 + 1.0))
    assert got["c"] == (1, pytest.approx(1.0))


def test_tracer_wraps_every_binding_and_restores():
    import zetaglue
    from zetaglue import cylinder, interface_ops, zreg
    from zetaglue.spectra import Circle

    original = zreg.log_det_shifted
    tracer = Tracer("zetaglue", ["zreg.log_det_shifted", "special.hurwitz_zeta_sderiv"])
    with tracer:
        assert cylinder.log_det_shifted is not original
        assert interface_ops.log_det_shifted is zreg.log_det_shifted
        tracer.check = 7
        zetaglue.log_det_shifted(Circle(6.0), 0.3)
        tracer.check = -1  # between checks: not recorded
        zetaglue.log_det_shifted(Circle(6.0), 0.4)
        bindings = tracer.bindings()
    assert bindings["zreg.log_det_shifted"] == sorted(
        ["zetaglue", "zetaglue.cli", "zetaglue.cylinder", "zetaglue.interface_ops", "zetaglue.zreg"]
    )
    for mod in (zetaglue, cylinder, interface_ops, zreg):
        assert mod.log_det_shifted is original
    names = [s[0] for s in tracer.spans]
    assert names == ["zreg.log_det_shifted", "special.hurwitz_zeta_sderiv"]
    assert tracer.spans[1][3] == 0 and tracer.spans[0][4] == 7


# Seeds whose first timed check is cheap, so that one check stays quick.
SMOKE_SEEDS = {"sweep-warm": 1, "torus-shapes": 7, "mirror-shapes": 1}
NAMED_METRICS = {"checks_per_s", "check_s_p50", "setup_s", "peak_rss_mb", "fail_frac",
                 "residual_digits", "bound_misses"}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_metric(workload, capsys):
    args = SimpleNamespace(workload=workload, seed=SMOKE_SEEDS[workload])
    started = run.clock()
    untraced = run.launch(args, started, ["--count", "1"])
    j, metrics, extra = run.end_to_end(untraced, [untraced["setup_s"]])
    assert j["attempted"] == 1 and j["correct"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert NAMED_METRICS <= set(metrics) | set(extra)
    traced = run.launch(args, started, ["--count", "1", "--trace"])
    layer_metrics, layer_extra = run.per_layer(untraced, traced)
    assert set(layer_metrics) == {m["name"] for m in SPEC["per_layer"]}
    run.print_metrics("metrics:", {**metrics, **extra, **layer_metrics, **layer_extra})
    printed = capsys.readouterr().out
    for name, (_, unit, _) in {**metrics, **layer_metrics}.items():
        assert f"  {name} " in printed and f" {unit} " in printed
