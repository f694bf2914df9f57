"""One workload process of the zetaglue benchmark.

Started by ``bench/run.py`` as a fresh interpreter.  It imports the
library, generates its inputs from the seed, runs one warm-up check per
cross-section kind, then runs a single-threaded closed loop: the next
check starts only after the last one returned, until ``--seconds`` have
passed and a pass of the workload's stream is complete (or, with
``--count``, for exactly that many checks).  After the
loop it evaluates the references, judges every check and prints one JSON
line with the raw measurements.

``--setup-only`` stops before the timed loop and reports the set-up
time only; ``--trace`` wraps the library entry points for the loop and
writes the spans to ``--trace-file``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

# A check fails when it raises, breaks the identity or misses its reference.
GATE = 1e-8
REFUSALS = ("SingularParameterError", "ConvergenceError", "InsufficientSpectrumError")

ENTRY_POINTS = (
    "gluing.glue_robin_check",
    "gluing.glue_neumann_check",
    "cylinder.log_det_cylinder",
    "cylinder.series_sum",
    "interface_ops.log_det_star_RS0",
    "asymptotics.s_alpha",
    "asymptotics.a0_constant",
    "zreg.zeta_point",
    "zreg.zeta_derivative0",
    "zreg.log_det_star",
    "zreg.log_det_shifted",
    "special.hurwitz_zeta_sderiv",
    "spectra.enumerate_spectrum",
    "oracle.relative_log_det",
)


def clock() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--count", type=int, default=0, help="run exactly this many checks")
    p.add_argument("--launched-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--trace-file", default="")
    return p.parse_args(argv)


def outcome(result, ref_value):
    """Judge one returned check: (failure reason or None, fields)."""
    if hasattr(result, "residual"):
        fields = {"residual": result.residual, "truncation": result.truncation}
        value = result.lhs
        if result.residual > GATE:
            return "residual", fields
        if not result.phase_match:
            return "phase", fields
    else:
        fields = {"truncation": result.error_estimate}
        value = result.value
    if ref_value is not None:
        fields["ref_distance"] = abs(value - ref_value)
        if not fields["ref_distance"] <= GATE:
            return "reference", fields
    return None, fields


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    t_import = clock()
    import zetaglue.cli  # noqa: F401  -- the set-up covers the CLI import

    import_s = clock() - t_import
    if not os.path.abspath(zetaglue.__file__).startswith(src + os.sep):
        print(f"error: zetaglue imported from {zetaglue.__file__}, not {src}", file=sys.stderr)
        return 2
    from inputs import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    t_warm = clock()
    for check in workload.warmups:
        check.call()
    warmup_s = clock() - t_warm

    import mpmath
    import numpy
    import scipy

    report = {
        "import_s": import_s,
        "warmup_s": warmup_s,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "mpmath": mpmath.__version__,
        },
    }
    if args.setup_only:
        report["setup_s"] = clock() - args.launched_at
        print(json.dumps(report))
        return 0

    from zetaglue import zreg

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer("zetaglue", ENTRY_POINTS, counters={"spectra.enumerate_spectrum": len})
        tracer.install()
    backends_before = len(zreg._backend_cache)

    checks, durations, results = [], [], []
    report["setup_s"] = clock() - args.launched_at
    loop_start = clock()
    while True:
        if args.count:
            if len(checks) >= args.count:
                break
        elif len(checks) % workload.pass_size == 0 and clock() - loop_start >= args.seconds:
            break
        if tracer is not None:
            tracer.check = -1  # building the next inputs is not traced
        check = next(workload.checks)
        if tracer is not None:
            tracer.check = len(checks)
        t0 = clock()
        try:
            result = check.call()
        except Exception as exc:  # noqa: BLE001 -- every failure is tallied
            result = exc
        durations.append(clock() - t0)
        checks.append(check)
        results.append(result)
    report["loop_s"] = clock() - loop_start
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["backends_built"] = len(zreg._backend_cache) - backends_before
    if tracer is not None:
        tracer.restore()

    report["checks"] = []
    for check, duration, result in zip(checks, durations, results):
        row = {"label": check.label, "s": duration}
        if isinstance(result, Exception):
            name = type(result).__name__
            row["failure"] = "raised"
            row["exception"] = name if name in REFUSALS else "other"
            row["message"] = f"{name}: {result}"
        else:
            ref_value = check.reference() if check.reference is not None else None
            failure, fields = outcome(result, ref_value)
            row.update(fields)
            if failure:
                row["failure"] = failure
        report["checks"].append(row)

    if tracer is not None:
        report["bindings"] = tracer.bindings()
        report["counts"] = dict(tracer.counts)
        from tracer import self_times

        report["layers"] = {
            name: {"calls": calls, "self_s": self_s}
            for name, (calls, self_s) in self_times(tracer.spans).items()
        }
        if args.trace_file:
            with open(args.trace_file, "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "check"], "spans": tracer.spans}, fh)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
