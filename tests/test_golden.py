"""Golden reports of the warm gluing path and the segment oracle.

The values were recorded before the Hurwitz derivative, the torus
degeneracy merge and the oracle's sign scan were rewritten; the rewrites
must reproduce them bit for bit.  The Neumann check on the 2 pi x 3
torus is pinned in ``test_torus_zeta.py``.
"""

import math

import pytest

from zetaglue.cylinder import BoundaryCondition as BC
from zetaglue.gluing import GluingConfig, glue_robin_check
from zetaglue.oracle import SecularProblem, relative_log_det
from zetaglue.spectra import Circle, FlatTorus

TWO_PI = 2.0 * math.pi


def test_circle_robin_report():
    rep = glue_robin_check(GluingConfig(Circle(TWO_PI), 2.5, 1.25, -0.7))
    assert (rep.lhs, rep.rhs, rep.residual) == (
        2.4030617255575604, 2.403061725557372, 1.8829382497642655e-13
    )


# (cross-section, L, a, alpha) -> lhs
GOLDEN_LHS = [
    # alpha = -2.2 has K >= 1 negative interface eigenvalues
    (Circle(TWO_PI), 2.5, 0.75, -2.2, -0.4932174548463846),
    (Circle(TWO_PI), 1.5, 0.45, 0.3, 1.9917156461043257),
    (FlatTorus(TWO_PI, 3.0), 1.5, 1.05, 0.7, 4.250859248408319),
    (FlatTorus(TWO_PI, 3.0), 2.5, 0.75, -0.3, 3.6254125131206933),
]


@pytest.mark.parametrize(
    "cs, L, a, alpha, lhs", GOLDEN_LHS,
    ids=["circle-K1", "circle-short", "torus-short", "torus-negative"],
)
def test_robin_lhs(cs, L, a, alpha, lhs):
    assert glue_robin_check(GluingConfig(cs, L, a, alpha)).lhs == lhs


@pytest.mark.parametrize("L, alpha, value", [
    (1.0, 0.25, -0.5753641450099447),
    (3.0, 0.9, 0.34358970590116555),
])
def test_oracle_relative_log_det(L, alpha, value):
    rr = SecularProblem(L, BC.robin(alpha), BC.robin(alpha))
    dd = SecularProblem(L, BC.dirichlet(), BC.dirichlet())
    assert relative_log_det(rr, dd, count=1024).value == value
