"""How far the current code sits from every torus pin.

For every value in ``tests/torus_pins.json`` this prints its relative
distance from the pin next to the pin's bound, 1e-13 relative, worst
first, and then one summary line per set of pins.  It exits 1 when a
value is past its bound (or a pinned phase differs).  Run it from the
repository root:

    python tests/pin_drift.py

It is a tool for the tests' pins, not a test: pytest does not collect
it, as its name does not start with ``test_``.
"""

import math
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from test_torus_zeta import ALL_S, PINS, seeded_tori
from test_zreg import small_alpha_cases
from zetaglue import zreg

BOUND = 1e-13


def relative(got: float, pin: float) -> float:
    return abs(got - pin) / abs(pin) if pin else (0.0 if got == pin else math.inf)


def drifts() -> list:
    """(set, label, relative distance) for every pin."""
    out = []
    cases = [(i, cs, s) for i, cs in enumerate(seeded_tori()) for s in ALL_S]
    for (i, cs, s), pin in zip(cases, PINS["zeta_points"], strict=True):
        out.append(("zeta_points", f"torus {i} ({cs.ell1:.4g} x {cs.ell2:.4g}) s = {s:g}",
                    relative(zreg.zeta_point(cs, s).value, pin)))
    for (cs, alpha), (log_modulus, phase) in zip(small_alpha_cases(), PINS["small_alpha"], strict=True):
        det = zreg.log_det_shifted(cs, alpha)
        distance = relative(det.log_modulus, log_modulus) if det.phase_multiple == phase else math.inf
        out.append(("small_alpha", f"{cs.ell1:.4g} x {cs.ell2:.4g} alpha = {alpha:+g}", distance))
    return sorted(out, key=lambda row: -row[2])


def main() -> int:
    rows = drifts()
    print(f"{'distance':>10}  {'bound':>7}  pin")
    for name, label, distance in rows:
        print(f"{distance:10.2e}  {BOUND:7.0e}  {name}: {label}")
    for name in PINS:
        values = [d for n, _, d in rows if n == name]
        past = sum(d > BOUND for d in values)
        print(f"{name}: {len(values)} pins, worst {max(values):.2e}, median {statistics.median(values):.2e}, "
              f"{past} past the {BOUND:g} bound")
    return 1 if any(d > BOUND for _, _, d in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
