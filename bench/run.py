"""Benchmark of the zetaglue gluing checks.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src``.  Each workload runs in fresh, single-threaded
processes (BLAS pools pinned to one thread) as a closed loop of gluing
checks through the public API; see ``bench/inputs.py`` for the workloads
and ``bench/README.md`` for the metrics.

``--trace 0`` runs the workload once for ``--seconds`` and launches two
more processes that only set up, and reports the end-to-end metrics.
``--trace 1`` runs the workload untraced for half of ``--seconds``, then
runs the same checks again with every library entry point wrapped, and
reports the per-layer metrics.  Either way, the metrics are printed one
per line, by name with unit and sample count, and the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record, with the
environment, is written to ``.bench_results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "bench")
RESULTS = os.path.join(ROOT, ".bench_results")
sys.path.insert(0, HERE)

from workload import ENTRY_POINTS, REFUSALS, clock  # noqa: E402

WORKLOADS = ("sweep-warm", "torus-shapes", "mirror-shapes")
SETUP_LAUNCHES = 3  # setup_s is the median over this many fresh processes
DEADLINE_S = 170.0  # a run must finish within 180 s
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# entry points every workload calls; the others have their time in the
# layer shares and the printed table
TIMED_EVERYWHERE = tuple(
    e for e in ENTRY_POINTS
    if e not in ("gluing.glue_neumann_check", "special.hurwitz_zeta_sderiv",
                 "oracle.relative_log_det")
)
# zreg entry points that look a backend up (log_det_star goes through
# zeta_derivative0)
BACKEND_LOOKUPS = ("zreg.zeta_point", "zreg.zeta_derivative0", "zreg.log_det_shifted")
LAYERS = tuple(dict.fromkeys(e.split(".")[0] for e in ENTRY_POINTS))


class RunError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for name in BLAS_THREADS:
        env[name] = "1"
    return env


def launch(args, started, extra) -> dict:
    """Run one workload process and return its JSON report."""
    cmd = [
        sys.executable, os.path.join(HERE, "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--launched-at", repr(clock()), *extra,
    ]
    remaining = DEADLINE_S - (clock() - started)
    if remaining <= 0:
        raise RunError("out of time before launching a workload process")
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=remaining, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"workload process exceeded {remaining:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RunError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digits(worst: float) -> float:
    return -math.log10(max(worst, 1e-16))


def judge(checks) -> dict:
    """Counts and accuracy figures over one process's judged checks."""
    failed = [c for c in checks if "failure" in c]
    passed = [c for c in checks if "failure" not in c]
    residuals = [c["residual"] for c in passed if "residual" in c]
    refs = [c for c in checks if "ref_distance" in c]
    tally = {name: 0 for name in REFUSALS + ("other",)}
    reasons: dict = {}
    for c in failed:
        reasons[c["failure"]] = reasons.get(c["failure"], 0) + 1
        if "exception" in c:
            tally[c["exception"]] += 1
    return {
        "attempted": len(checks),
        "failed": len(failed),
        "passed": len(passed),
        "residuals": residuals,
        "ref_distances": [c["ref_distance"] for c in refs],
        "bound_misses": sum(1 for c in refs if c["ref_distance"] > c["truncation"]),
        "exceptions": tally,
        "reasons": reasons,
        # the identity itself broke, or something other than a library
        # refusal was raised: the output is wrong, not merely refused or
        # inaccurate against its reference
        "correct": not any(c["failure"] in ("residual", "phase") or c.get("exception") == "other"
                           for c in failed),
    }


def end_to_end(main_report, setups) -> tuple:
    """(judgement, gated metrics, reported-only metrics) of an untraced run.

    Each metric is ``name: (value, unit, sample note)``.
    """
    checks = main_report["checks"]
    j = judge(checks)
    times = [c["s"] for c in checks]
    timed = sum(times)
    n = j["attempted"]
    m = {
        "checks_per_s": (j["passed"] / timed, "1/s", f"{j['passed']} passing of {n} checks in {timed:.3f} s timed"),
        "setup_s": (statistics.median(setups), "s", f"{len(setups)} launches"),
        "peak_rss_mb": (main_report["peak_rss_mb"], "MB", "1 workload process"),
        "residual_digits": (digits(max(j["residuals"], default=0.0)), "digits",
                            f"{len(j['residuals'])} passing gluing checks"),
        "pass_frac": (j["passed"] / n, "ratio", f"{n} checks"),
    }
    extra = {
        "check_s_p50": (statistics.median(times), "s", f"{n} checks"),
        "fail_frac": (j["failed"] / n, "ratio", f"{n} checks; failures {j['reasons']}; "
                      f"exceptions {j['exceptions']}"),
        "bound_misses": (j["bound_misses"], "count", f"{len(j['ref_distances'])} checks with a reference"),
    }
    if n >= 100:
        extra["check_s_p90"] = (statistics.quantiles(times, n=10, method="inclusive")[8], "s",
                                f"{n} checks")
    if j["ref_distances"]:
        extra["ref_digits"] = (digits(max(j["ref_distances"])), "digits",
                               f"{len(j['ref_distances'])} checks with a reference")
    return j, m, extra


def per_layer(untraced, traced) -> tuple:
    """(gated metrics, reported-only metrics) of a traced run.

    ``untraced`` and ``traced`` ran the same checks in two processes.
    """
    n = len(traced["checks"])
    layers = traced["layers"]
    check_s = sum(c["s"] for c in traced["checks"])
    m = {}
    for e in ENTRY_POINTS:
        calls = layers.get(e, {}).get("calls", 0)
        m[f"{e}.calls"] = (calls / n, "count/check", f"{calls} calls over {n} checks")
    for e in TIMED_EVERYWHERE:
        self_s = layers.get(e, {}).get("self_s", 0.0)
        m[f"{e}.self_s"] = (self_s / n, "s/check", f"{self_s:.4f} s over {n} checks")
    modes = traced["counts"]["spectra.enumerate_spectrum"]
    m["spectra.enumerate_spectrum.modes"] = (modes / n, "count/check", f"{modes} entries over {n} checks")
    built = traced["backends_built"]
    lookups = sum(layers.get(e, {}).get("calls", 0) for e in BACKEND_LOOKUPS)
    m["zreg.backends_built"] = (built, "count", f"{n} checks")
    m["zreg.backend_hit_ratio"] = (1.0 - built / lookups if lookups else 1.0, "ratio",
                                   f"{built} built over {lookups} backend lookups")
    for key in ("import_s", "warmup_s"):
        vals = [untraced[key], traced[key]]
        m[f"setup.{key}"] = (statistics.median(vals), "s", f"{len(vals)} launches")
    base = sum(c["s"] for c in untraced["checks"])
    m["trace.overhead_frac"] = (check_s / base - 1.0, "ratio",
                                f"same {n} checks, {check_s:.3f} s traced vs {base:.3f} s untraced")
    shares = {}
    for layer in LAYERS:
        self_s = sum(v["self_s"] for k, v in layers.items() if k.split(".")[0] == layer)
        shares[layer] = self_s / check_s
        m[f"share.{layer}"] = (shares[layer], "ratio", f"self time over {check_s:.3f} s of checks")
    dominant = max(shares, key=shares.get)
    extra = {
        f"{e}.self_s": (layers.get(e, {}).get("self_s", 0.0) / n, "s/check", f"{n} checks")
        for e in ENTRY_POINTS if e not in TIMED_EVERYWHERE
    }
    extra["dominant_layer"] = (shares[dominant], "ratio", f"{dominant}")
    return m, extra


def environment(args, report) -> dict:
    commit = "unknown"  # not a git work tree
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), **report["versions"], "commit": commit,
        "blas_threads": {name: "1" for name in BLAS_THREADS},
    }


def print_metrics(title, metrics):
    print(title)
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit:<12} ({note})")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="zetaglue gluing-check benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = clock()
    if not os.path.isfile(os.path.join(ROOT, "src", "zetaglue", "__init__.py")):
        print(f"error: no zetaglue sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    try:
        if args.trace:
            untraced = launch(args, started, ["--seconds", repr(args.seconds / 2)])
            n = len(untraced["checks"])
            spans = os.path.join(RESULTS, f"spans-{args.workload}-seed{args.seed}.json")
            traced = launch(args, started, ["--count", str(n), "--trace", "--trace-file", spans])
            j = judge(traced["checks"])
            metrics, extra = per_layer(untraced, traced)
            main_report = traced
            record = {"bindings": traced["bindings"], "spans_file": os.path.relpath(spans, ROOT)}
        else:
            main_report = launch(args, started, ["--seconds", repr(args.seconds)])
            setups = [main_report["setup_s"]]
            for _ in range(SETUP_LAUNCHES - 1):
                setups.append(launch(args, started, ["--setup-only"])["setup_s"])
            j, metrics, extra = end_to_end(main_report, setups)
            record = {"setups": setups}
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = environment(args, main_report)
    print(f"zetaglue benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print_metrics("metrics:", metrics)
    print_metrics("reported only:", extra)
    result = {
        "correct": j["correct"],
        "attempted": j["attempted"],
        "failed": j["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    out = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump({"env": env, "result": result, **record,
                   "reported_only": {k: {"value": v, "unit": u, "note": note}
                                     for k, (v, u, note) in extra.items()},
                   "checks": main_report["checks"]}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
