"""Brute-force verification oracle for the segment determinants.

Eigenvalues of -d^2/du^2 on [0, L] under Dirichlet/Neumann/Robin end
conditions are found as certified bracketed roots of the transcendental
secular equation in the frequency k (mu = k^2).  One per-end rule gives
both the secular function g = A sin F and the Pruefer phase
F(k) = kL + phi_l(k) + phi_r(k), which increases for non-negative Robin
parameters (Birkhoff & Rota, Ordinary Differential Equations): its
half-integer levels bracket the roots with no scan.  Relative
log-determinants are then formed directly from eigenvalue ratios against
a reference problem with the same length: the log-ratio terms decay like
1/k^2, so the partial sums converge with an O(1/n) remainder that is
removed by three-level Richardson extrapolation.  This path never
touches the zeta machinery, which keeps it an independent check of the
closed forms.

Sign convention: Robin(alpha) means (d/dnu + alpha) u = 0 with nu the
outward normal at each end, i.e. -u'(0) + alpha u(0) = 0 and
u'(L) + alpha u(L) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from .cylinder import DIRICHLET, NEUMANN, ROBIN, BoundaryCondition
from .errors import ValidationError

__all__ = [
    "SecularProblem",
    "RelativeLogDet",
    "segment_eigenvalues",
    "relative_log_det",
]

MAX_COUNT = 10**6  # eigenvalues per list: about a second of roots


@dataclass(frozen=True)
class SecularProblem:
    """The 1-D boundary-value problem on [0, L]."""

    length: float
    bc_left: BoundaryCondition
    bc_right: BoundaryCondition

    def __post_init__(self):
        if not 0 < self.length < math.inf:
            raise ValidationError(f"segment length must be finite and > 0, got {self.length}")
        for bc in (self.bc_left, self.bc_right):
            # below 1e-150, g near k = alpha underflows to an exact zero
            if bc.kind == ROBIN and not bc.alpha >= 1e-150:
                raise ValidationError("the oracle supports Robin parameters of 0 or from 1e-150 up only")


@dataclass(frozen=True)
class RelativeLogDet:
    """Extrapolated relative log-determinant with its error estimate."""

    value: float
    error_estimate: float
    zero_modes: Tuple[int, int]  # excluded from (problem, reference)


# Each end as (c, s) = (cos phi, sin phi) of its phase phi up to a positive
# factor, and s' = ds/dk (c is constant in k), from alpha and k; under the
# oracle's sign convention an eigenfunction is sin(kx + phi_l).
_ENDS = {
    DIRICHLET: lambda alpha, k: (1.0, 0.0, 0.0),
    NEUMANN: lambda alpha, k: (0.0, 1.0, 0.0),
    ROBIN: lambda alpha, k: (alpha, k, 1.0),
}


def _secular_function(p: SecularProblem) -> Callable:
    """g(k) = A sin F(k), A > 0, on an array of k; its positive roots are
    the eigenfrequencies (mu = k^2) of a pair with a Robin end.
    ``g(k, True)`` is the pair (g(k), g'(k)), the slope in closed form."""
    L = p.length

    def g(k, with_slope=False):
        (cl, sl, dsl), (cr, sr, dsr) = (_ENDS[bc.kind](bc.alpha, k) for bc in (p.bc_left, p.bc_right))
        u, v = cl * cr - sl * sr, sl * cr + cl * sr  # A cos and A sin of phi_l + phi_r
        s, c = np.sin(k * L), np.cos(k * L)
        if not with_slope:
            return u * s + v * c
        du, dv = -(dsl * sr + sl * dsr), dsl * cr + cl * dsr
        return u * s + v * c, du * s + dv * c + L * (u * c - v * s)

    return g


def _phase_function(p: SecularProblem) -> Callable:
    """The Pruefer phase F(k) = kL + phi_l(k) + phi_r(k) on an array of k:
    the pair (F(k), F'(k))."""
    L = p.length

    def phase(k):
        value, slope = k * L, L
        for bc in (p.bc_left, p.bc_right):
            c, s, ds = _ENDS[bc.kind](bc.alpha, k)
            r = np.hypot(c, s)  # phi' = c s' / r^2, with no r^2 to underflow
            value, slope = value + np.arctan2(s, c), slope + c / r * ds / r
        return value, slope

    return phase


def segment_eigenvalues(p: SecularProblem, count: int) -> List[float]:
    """First ``count`` eigenvalues, ascending; 1 <= count <= MAX_COUNT.

    Pairs without a Robin end are exact: k_n = (n - w/2) pi/L, with w the
    counting weight.  With a Robin end, root n solves F(k) = n pi, and F
    increases and is concave.  Newton steps on F from max(n - 2, 0) pi/L
    climb, with no overshoot, to within pi/4 below F = (n - 1/2) pi for
    n = 1, ..., count + 1.  There |g| >= A/sqrt(2), so rounding cannot
    flip its sign, and F crosses one multiple of pi between neighbours:
    each pair of neighbours brackets one root.  Newton steps on g' refine
    all brackets at once from their secant points; each iterate replaces
    the bracket end of its sign, a step that leaves the bracket falls back
    to its midpoint, and a step below one ulp probes one ulp towards the
    far end.  Each bracket ends as two adjacent floats or an exact zero of
    g; its root is the end with the smaller |g|.
    """
    _check_count(count, 1)
    return _eigenvalues(p, count).tolist()


def _check_count(count: int, least: int) -> None:
    if not least <= count <= MAX_COUNT:  # refused before any array is built
        raise ValidationError(f"count must be in [{least}, {MAX_COUNT}], got {count}")


def _eigenvalues(p: SecularProblem, count: int) -> np.ndarray:
    """``segment_eigenvalues`` as a float64 array."""
    L = p.length
    if ROBIN not in (p.bc_left.kind, p.bc_right.kind):
        return ((np.arange(1, count + 1) - 0.5 * _counting_weight(p)) * math.pi / L) ** 2

    phase = _phase_function(p)
    n = np.arange(1, count + 2)
    target, t = (n - 0.5) * math.pi, np.maximum(n - 2, 0) * (math.pi / L)
    f, slope = phase(t)
    while (target - f > 0.25 * math.pi).any():  # Newton from below on a concave F never overshoots
        t = t + (target - f) / slope
        f, slope = phase(t)

    g = _secular_function(p)
    gt = g(t)
    a, b, ga, gb = t[:-1], t[1:], gt[:-1], gt[1:]
    k, at = np.empty_like(a), np.arange(len(a))
    with np.errstate(all="ignore"):  # a step by g' = 0 leaves the bracket
        m = a - ga * ((b - a) / (gb - ga))  # the secant point of each bracket
        while len(at):
            m = np.where((a < m) & (m < b), m, 0.5 * (a + b))
            gm, slope = g(m, True)
            side = np.sign(gm) * np.sign(ga)  # 1: root above m, -1: below, 0: m is a root
            up, down = side >= 0, side <= 0
            a, ga = np.where(up, m, a), np.where(up, gm, ga)
            b, gb = np.where(down, m, b), np.where(down, gm, gb)
            step = gm / slope  # a Newton step; below one ulp, one ulp towards the far end
            m = np.where(np.abs(step) <= np.spacing(m), np.nextafter(m, np.where(up, b, a)), m - step)
            mid = 0.5 * (a + b)
            live = (a < mid) & (mid < b)
            if not live.all():  # retire the brackets that are down to adjacent floats
                k[at[~live]] = np.where(np.abs(gb) < np.abs(ga), b, a)[~live]
                at, a, b, ga, gb, m = (x[live] for x in (at, a, b, ga, gb, m))
    return k * k


def _counting_weight(p: SecularProblem) -> int:
    """The ends that are not Dirichlet: each adds half an eigenvalue to the
    high-frequency counting function (a Robin end is Neumann-like, its root
    offset decaying like 1/k)."""
    return sum(bc.kind != DIRICHLET for bc in (p.bc_left, p.bc_right))


def relative_log_det(
    p: SecularProblem,
    reference: SecularProblem,
    count: int = 4096,
) -> RelativeLogDet:
    """ln Det(p) - ln Det(reference) from raw eigenvalue ratios.

    Both problems must share the segment length, and their counting
    functions must differ by an integer (an even number of end-class
    changes); the lists are then aligned by that integer offset, which
    makes the paired eigenvalue differences O(1) and the log-ratio terms
    O(1/k^2).  Unpaired leading eigenvalues enter as direct log factors;
    zero modes are excluded and reported for the caller to reconcile.
    """
    if p.length != reference.length:
        raise ValidationError("relative determinants need a common length")
    _check_count(count, 16)  # fewer leave too few terms for the extrapolation

    twice_offset = _counting_weight(p) - _counting_weight(reference)
    if twice_offset % 2 != 0:
        raise ValidationError(
            "sorted-index pairing is invalid: the two problems differ by a "
            "half-integer in their eigenvalue counting"
        )
    offset = twice_offset // 2

    def positive(prob, n):
        vals = _eigenvalues(prob, n)
        zero = vals == 0.0  # only the closed-form pairs have zero modes, and exactly
        return vals[~zero], int(zero.sum())

    ev_p, z_p = positive(p, count + abs(offset) + 2)
    ev_r, z_r = positive(reference, count + abs(offset) + 2)
    shift = offset - (z_p - z_r)  # offset within the positive lists
    head = 0.0
    if shift > 0:
        head = math.fsum(math.log(v) for v in ev_p[:shift])
        ev_p = ev_p[shift:]
    elif shift < 0:
        head = -math.fsum(math.log(v) for v in ev_r[:-shift])
        ev_r = ev_r[-shift:]
    n0 = min(count, len(ev_p), len(ev_r)) // 4
    ratios = np.log(ev_p[: 4 * n0] / ev_r[: 4 * n0]).tolist()

    s1 = math.fsum(ratios[:n0])
    s2 = math.fsum(ratios[: 2 * n0])
    s4 = math.fsum(ratios)
    # remove the O(1/n) remainder, then the O(1/n^2) one
    r12 = 2.0 * s2 - s1
    r24 = 2.0 * s4 - s2
    value = head + (4.0 * r24 - r12) / 3.0
    return RelativeLogDet(
        value=value,
        error_estimate=abs((4.0 * r24 - r12) / 3.0 - r24),
        zero_modes=(z_p, z_r),
    )
