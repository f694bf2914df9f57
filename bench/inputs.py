"""Seeded inputs for the three benchmark workloads.

Every workload is a function of the seed that returns a ``Workload``:
warm-up checks (inputs outside the timed set) and an endless,
deterministic stream of timed checks.  A check holds a zero-argument
``call`` that makes one public library call, and, where an independent
reference exists, a zero-argument ``reference`` that the benchmark
evaluates only after the timed loop.  Inputs that are costly to build
(explicit mirror spectra) are built while the stream is advanced, which
happens outside each check's timed region.

Library functions are looked up on their modules at call time, so the
tracer's wrappers see the top-level call of every check.

The stream is divided into passes of ``pass_size`` checks and a run
always ends on a pass boundary.  The parameters that set a check's cost
(shapes and spectral cutoffs) follow a fixed design that covers their
whole range in every pass; the seed draws the order within each pass and
the remaining parameters.  The cost of a cold check is a jagged function
of the shape and the cutoff (neighbouring cutoffs can differ 5x in
cost), and with tens of checks per run, seed-drawn shapes and cutoffs
made the medians spread 15-30 % between seeds.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional

from zetaglue import gluing, oracle
from zetaglue.cylinder import BoundaryCondition
from zetaglue.spectra import Circle, FlatTorus, explicit_mirror

__all__ = ["Check", "Workload", "WORKLOADS"]

TWO_PI = 2.0 * math.pi

# sweep-warm: one pass checks the torus once at every grid point, the
# circle CIRCLES_PER_TORUS times as often, and the oracle once per
# ORACLE_EVERY torus checks, in seed-drawn orders.  At the seed this gives
# the circle and the torus about half of the time each and the oracle
# about a tenth.
SWEEP_CIRCLE = TWO_PI
SWEEP_TORUS = (TWO_PI, 3.0)
SWEEP_GRID = [
    (L, f, alpha)
    for alpha in (0.0, 0.3, -0.3, 0.7, -0.7)
    for f in (0.3, 0.5, 0.7)
    for L in (1.5, 2.5)
]
ORACLE_GRID = [(L, alpha) for alpha in (0.25, 0.5, 0.9) for L in (1.0, 1.5, 2.0, 2.5, 3.0)]
CIRCLES_PER_TORUS = 16
ORACLE_EVERY = 2
ORACLE_COUNT = 1024  # Richardson error below 1e-9 for alpha <= 1

# torus-shapes: one pass is one torus of each aspect ratio, square
# included, in an order drawn from the seed
ASPECTS = (1.0, 1.5, 2.0, 2.5, 3.0)
# Areas stay small: the spectrum enumerated per check grows with the
# area, and on large tori it made the cost depend on the drawn size.
SHAPE_AREAS = (3.0, 5.0)

# mirror-shapes: circles and tori alternating, cutoffs log-uniform in 24
# strata; pass p takes the point at fraction 1/2 + p * (golden ratio)
# of every stratum, so each pass mirrors new spectra.  A pass takes 18 s
# to 33 s on 2 cores, so a 15 s run measures one pass: passes differ in
# cost, and runs that ended after a varying number of them spread
# checks_per_s by a further 15 %.
MIRROR_CIRCLE = 1.1 * TWO_PI
MIRROR_TORUS = (TWO_PI, 2.4 * TWO_PI)
CIRCLE_CUTOFFS = (1e2, 4e4)
TORUS_CUTOFFS = (2e2, 2e3)
CUTOFF_STRATA = 24
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Check:
    """One timed library call, with its label and optional reference."""

    label: str
    call: Callable
    reference: Optional[Callable] = None


@dataclass
class Workload:
    warmups: List[Check]
    checks: Iterator[Check]
    pass_size: int


def stratified(lo: float, hi: float, strata: int, n_pass: int) -> List[float]:
    """One point in each of ``strata`` equal parts of [lo, hi] for a pass."""
    u = (0.5 + n_pass * GOLDEN) % 1.0
    width = (hi - lo) / strata
    return [lo + width * (k + u) for k in range(strata)]


def _glue(cs, L, a, alpha) -> Callable:
    cfg_args = (cs, L, a, alpha)
    if alpha == 0.0:
        return lambda: gluing.glue_neumann_check(gluing.GluingConfig(*cfg_args))
    return lambda: gluing.glue_robin_check(gluing.GluingConfig(*cfg_args))


def _oracle_check(L, alpha) -> Check:
    rr = oracle.SecularProblem(L, BoundaryCondition.robin(alpha), BoundaryCondition.robin(alpha))
    dd = oracle.SecularProblem(L, BoundaryCondition.dirichlet(), BoundaryCondition.dirichlet())
    # closed-form segment difference: ln 2 alpha (L alpha + 2) - ln 2 L
    closed = math.log(alpha * (L * alpha + 2.0) / L)
    return Check(
        "oracle",
        lambda: oracle.relative_log_det(rr, dd, count=ORACLE_COUNT),
        lambda: closed,
    )


def _jump_params(rng: random.Random, i: int):
    """(L, a, alpha) for a jump-identity check, alpha's sign alternating."""
    L = rng.uniform(1.5, 3.0)
    a = L * rng.uniform(0.35, 0.65)
    alpha = rng.uniform(0.2, 0.6) * (1.0 if i % 2 == 0 else -1.0)
    return L, a, alpha


def _shuffled(rng: random.Random, items) -> list:
    out = list(items)
    rng.shuffle(out)
    return out


def sweep_warm(seed: int) -> Workload:
    """A (L, a/L, alpha) grid on one circle and one torus, and oracle checks."""
    rng = random.Random(seed)
    circle, torus = Circle(SWEEP_CIRCLE), FlatTorus(*SWEEP_TORUS)
    warmups = [
        Check("circle", _glue(circle, 5.0, 1.7, 0.45)),
        Check("torus", _glue(torus, 5.0, 1.7, 0.45)),
        _oracle_check(5.0, 0.45),
    ]

    def checks():
        while True:
            circles = iter(_shuffled(rng, SWEEP_GRID * CIRCLES_PER_TORUS))
            oracles = iter(_shuffled(rng, ORACLE_GRID))
            for i, (L, f, alpha) in enumerate(_shuffled(rng, SWEEP_GRID)):
                for L_c, f_c, alpha_c in itertools.islice(circles, CIRCLES_PER_TORUS):
                    yield Check("circle", _glue(circle, L_c, f_c * L_c, alpha_c))
                yield Check("torus", _glue(torus, L, f * L, alpha))
                if i % ORACLE_EVERY == ORACLE_EVERY - 1:
                    yield _oracle_check(*next(oracles))

    pass_size = len(SWEEP_GRID) * (CIRCLES_PER_TORUS + 1) + len(ORACLE_GRID)
    return Workload(warmups, checks(), pass_size)


def torus_shapes(seed: int) -> Workload:
    """Jump-identity checks, each on a new flat torus of aspect in [1, 3]."""
    rng = random.Random(seed)
    warmups = [Check("torus", _glue(FlatTorus(1.0, 5.0), 2.0, 0.9, 0.37))]

    def checks():
        i = 0
        while True:
            for rho in _shuffled(rng, ASPECTS):
                side = math.sqrt(rng.uniform(*SHAPE_AREAS) / rho)
                yield Check("torus", _glue(FlatTorus(side, side * rho), *_jump_params(rng, i)))
                i += 1

    return Workload(warmups, checks(), len(ASPECTS))


def _mirror_check(label, cs, cutoff, L, a, alpha) -> Check:
    mirror = explicit_mirror(cs, cutoff)
    return Check(
        label,
        _glue(mirror, L, a, alpha),
        lambda: gluing.glue_robin_check(gluing.GluingConfig(cs, L, a, alpha)).lhs,
    )


def mirror_shapes(seed: int) -> Workload:
    """Jump-identity checks, each on a new explicit mirror of a circle or torus."""
    rng = random.Random(seed)
    circle, torus = Circle(MIRROR_CIRCLE), FlatTorus(*MIRROR_TORUS)
    warmups = [
        Check("circle-mirror", _glue(explicit_mirror(Circle(8.5), 300.0), 2.0, 0.9, 0.37)),
        Check(
            "torus-mirror",
            _glue(explicit_mirror(FlatTorus(TWO_PI, 3.5 * TWO_PI), 300.0), 2.0, 0.9, 0.37),
        ),
    ]

    def checks():
        i = 0
        for n_pass in itertools.count():
            circle_cuts = stratified(*map(math.log, CIRCLE_CUTOFFS), CUTOFF_STRATA, n_pass)
            torus_cuts = stratified(*map(math.log, TORUS_CUTOFFS), CUTOFF_STRATA, n_pass)
            rng.shuffle(circle_cuts)
            rng.shuffle(torus_cuts)
            for log_circle, log_torus in zip(circle_cuts, torus_cuts):
                params = _jump_params(rng, i)
                yield _mirror_check("circle-mirror", circle, math.exp(log_circle), *params)
                yield _mirror_check("torus-mirror", torus, math.exp(log_torus), *params)
                i += 1

    return Workload(warmups, checks(), 2 * CUTOFF_STRATA)


WORKLOADS = {
    "sweep-warm": sweep_warm,
    "torus-shapes": torus_shapes,
    "mirror-shapes": mirror_shapes,
}
