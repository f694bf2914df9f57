"""Brute-force verification oracle for the segment determinants.

Eigenvalues of -d^2/du^2 on [0, L] under Dirichlet/Neumann/Robin end
conditions are found as certified bracketed roots of the transcendental
secular equation in the frequency k (mu = k^2).  Relative
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
            if bc.kind == ROBIN and bc.alpha < 0:
                raise ValidationError(
                    "the oracle supports non-negative Robin parameters only"
                )


@dataclass(frozen=True)
class RelativeLogDet:
    """Extrapolated relative log-determinant with its error estimate."""

    value: float
    error_estimate: float
    zero_modes: Tuple[int, int]  # excluded from (problem, reference)


def _secular_function(p: SecularProblem) -> Callable:
    """g(k) on an array of k whose positive roots are the eigenfrequencies
    (mu = k^2) of a pair with at least one Robin end; ``g(k, True)`` is
    the pair (g(k), g'(k)), the slope in closed form."""
    L = p.length
    kl, kr = p.bc_left, p.bc_right
    if (kl.kind, kr.kind) == (ROBIN, ROBIN):
        al, ar = kl.alpha, kr.alpha
        value = lambda k, s, c: (k * k - al * ar) * s - k * (al + ar) * c
        slope = lambda k, s, c: (2.0 + (al + ar) * L) * k * s + ((k * k - al * ar) * L - al - ar) * c
    else:  # one Robin end; the other end is Dirichlet or Neumann
        a = kl.alpha if kl.kind == ROBIN else kr.alpha
        if DIRICHLET in (kl.kind, kr.kind):
            value = lambda k, s, c: k * c + a * s
            slope = lambda k, s, c: (1.0 + a * L) * c - k * L * s
        else:
            value = lambda k, s, c: a * c - k * s
            slope = lambda k, s, c: -(1.0 + a * L) * s - k * L * c

    def g(k, with_slope=False):
        s, c = np.sin(k * L), np.cos(k * L)
        return (value(k, s, c), slope(k, s, c)) if with_slope else value(k, s, c)

    return g


def _closed_form_roots(p: SecularProblem, count: int) -> np.ndarray:
    """Exact eigenvalues for the purely trigonometric pairs."""
    pair = (p.bc_left.kind, p.bc_right.kind)
    if pair == (DIRICHLET, DIRICHLET):
        j = np.arange(1, count + 1)
    elif pair == (NEUMANN, NEUMANN):
        j = np.arange(count)
    elif pair in ((DIRICHLET, NEUMANN), (NEUMANN, DIRICHLET)):
        j = np.arange(1, count + 1) - 0.5
    else:
        raise ValidationError("no closed form for this pair")
    return (j * math.pi / p.length) ** 2


def segment_eigenvalues(p: SecularProblem, count: int) -> List[float]:
    """First ``count`` eigenvalues, ascending.

    Trigonometric pairs are exact; Robin pairs are certified bracketed
    roots.  Each pi/L cell of the frequency axis is sampled at 25 points,
    all cells at once; every exact zero and every sign change between
    neighbouring samples of a cell is a root.  One root per cell is
    expected for non-negative alpha, but every sign change is taken.
    All brackets are then refined together by Newton steps on the
    closed-form slope g'(k), starting from each bracket's secant point.
    Every iterate replaces the bracket end of its sign, so the sign
    change is kept at every step; a step that leaves the bracket falls
    back to its midpoint, and a step below one ulp probes one ulp towards
    the far end instead.  Each bracket ends as two adjacent floats or an
    exact zero of g; each root is the end of its bracket with the
    smaller |g|.
    """
    return _eigenvalues(p, count).tolist()


def _eigenvalues(p: SecularProblem, count: int) -> np.ndarray:
    """``segment_eigenvalues`` as a float64 array."""
    if count < 1:
        raise ValidationError("count must be >= 1")
    pair = (p.bc_left.kind, p.bc_right.kind)
    if ROBIN not in pair:
        return _closed_form_roots(p, count)

    g = _secular_function(p)
    cell = math.pi / p.length
    n_scan = 24
    max_cells = 10 * count + 100
    steps = np.arange(1, n_scan + 1)
    brackets = []
    found = first = 0
    while found < count:
        if first >= max_cells:
            raise ValidationError("root search exhausted its scan range")
        need = count - found
        j = np.arange(first, min(first + need + 1, max_cells))
        lo, hi = j * cell, (j + 1) * cell
        t = np.empty((len(j), n_scan + 1))
        t[:, 0] = lo
        t[:, 1:] = lo[:, None] + (hi - lo)[:, None] * steps / n_scan
        if first == 0:
            t[0, 0] = 1e-12 * cell  # step off k = 0, a root of g unless an end is Neumann
        v = g(t)
        prev_v, next_v = v[:, :-1], v[:, 1:]
        zero = prev_v == 0.0
        change = ~zero & (next_v != 0.0) & ((prev_v < 0.0) != (next_v < 0.0))
        cells, points = np.nonzero(zero | change)
        if len(cells) >= need:
            # finish the cell that holds the last root needed
            last = np.searchsorted(cells, cells[need - 1], side="right")
            cells, points = cells[:last], points[:last]
        right = points + change[cells, points]  # an exact zero is a bracket of width 0
        brackets.append((t[cells, points], t[cells, right], v[cells, points], v[cells, right]))
        found += len(cells)
        first = int(j[-1]) + 1

    a, b, ga, gb = (np.concatenate(ends) for ends in zip(*brackets))
    k, at = np.empty_like(a), np.arange(len(a))
    with np.errstate(all="ignore"):  # exact zeros have a == b; a step by g' = 0 leaves the bracket
        m = a - ga * ((b - a) / (gb - ga))  # the secant point of each scan bracket
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
    k = k[:count]
    return k * k


def _counting_weight(bc: BoundaryCondition) -> int:
    """High-frequency counting class of one end: Dirichlet 0, else 1.

    Robin ends are asymptotically Neumann-like (the root offset decays
    like 1/k), so each non-Dirichlet end adds half an eigenvalue to the
    counting function.
    """
    return 0 if bc.kind == DIRICHLET else 1


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
    if count < 16:
        raise ValidationError("count is too small for the extrapolation")

    twice_offset = (
        _counting_weight(p.bc_left)
        + _counting_weight(p.bc_right)
        - _counting_weight(reference.bc_left)
        - _counting_weight(reference.bc_right)
    )
    if twice_offset % 2 != 0:
        raise ValidationError(
            "sorted-index pairing is invalid: the two problems differ by a "
            "half-integer in their eigenvalue counting"
        )
    offset = twice_offset // 2

    def positive(prob, n):
        vals = _eigenvalues(prob, n)
        zero = vals <= 1e-24
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
