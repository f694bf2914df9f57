"""Golden reports of the warm gluing path and the segment oracle.

The values were recorded before the Hurwitz derivative, the torus
degeneracy merge and the oracle's sign scan were rewritten; the rewrites
must reproduce them bit for bit.  The Neumann check on the 2 pi x 3
torus at L = 2.5 is pinned in ``test_torus_zeta.py``.  The Neumann
reports, cylinder reports, shifted determinants and segment eigenvalues
below were recorded before the spectrum cache, the per-backend shifted
determinant cache and the oracle's own Brent root finder; the caches and
the root finder must reproduce them bit for bit.
"""

import hashlib
import math

import pytest

from zetaglue.cylinder import BoundaryCondition as BC, CylinderSpec, log_det_cylinder
from zetaglue.gluing import GluingConfig, glue_neumann_check, glue_robin_check
from zetaglue.oracle import SecularProblem, relative_log_det, segment_eigenvalues
from zetaglue.spectra import Circle, FlatTorus
from zetaglue.zreg import log_det_shifted

TWO_PI = 2.0 * math.pi
CIRCLE = Circle(TWO_PI)
TORUS = FlatTorus(TWO_PI, 3.0)


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


@pytest.mark.parametrize("cs, lhs, rhs, residual", [
    (CIRCLE, 0.449632225980346, 0.4496322259803418, 4.218847493575595e-15),
    (TORUS, 3.378961239913054, 3.378961239913054, 0.0),
], ids=["circle", "torus"])
def test_neumann_report(cs, lhs, rhs, residual):
    rep = glue_neumann_check(GluingConfig(cs, 1.5, 0.45, 0.0))
    assert (rep.lhs, rep.rhs, rep.residual) == (lhs, rhs, residual)


# (cross-section, alpha) -> (log_det, phase, truncation) of N/R(alpha) and
# R/R(alpha, alpha) cylinders of length 2, and (log_modulus, phase) of
# ln Det(sqrt(Delta_Y) + alpha)
GOLDEN_ALPHA = [
    (CIRCLE, 0.3,
     (0.7738507628770389, 0, 5.09382642325805e-16),
     (1.539128006122106, 0, 5.49074796273271e-16),
     (0.8502538810991302, 0)),
    (CIRCLE, -0.3,
     (0.8177352660754367, 1, 5.09382642325805e-16),
     (0.9867433862815838, 3, 5.49074796273271e-16),
     (0.11216976902007625, 1)),
    (CIRCLE, 0.7,
     (1.0554196349503868, 0, 5.631877076977344e-16),
     (1.5059085888102675, 0, 6.711963091740141e-16),
     (1.6728175172847446, 0)),
    (CIRCLE, -0.7,
     (0.3992540343613954, 1, 5.631877076977344e-16),
     (-2.889239808057669, 3, 6.711963091740141e-16),
     (-0.7103938671655377, 1)),
    (TORUS, 0.3,
     (-1.388671225510071, 0, 1.0802132571601712e-14),
     (-1.1542168438625418, 0, 1.1214952924656554e-14),
     (-1.328241815657006, 0)),
    (TORUS, -0.3,
     (-0.05408378329636828, 1, 1.0802132571601712e-14),
     (0.8747678621251034, 3, 1.1214952924656554e-14),
     (0.056634525446460186, 1)),
    (TORUS, 0.7,
     (-1.3344782298764983, 0, 1.1356554548892309e-14),
     (-1.642339464219135, 0, 1.2395716403039315e-14),
     (-1.8877820422442766, 0)),
    (TORUS, -0.7,
     (0.7304943926842845, 1, 1.1356554548892309e-14),
     (-0.5957673927031768, 3, 1.2395716403039315e-14),
     (0.39218265462111285, 1)),
]
ALPHA_IDS = [f"{type(cs).__name__.lower()}-{alpha}" for cs, alpha, *_ in GOLDEN_ALPHA]


@pytest.mark.parametrize("cs, alpha, nr, rr, shifted", GOLDEN_ALPHA, ids=ALPHA_IDS)
def test_cylinder_reports(cs, alpha, nr, rr, shifted):
    for (bl, br), want in (
        ((BC.neumann(), BC.robin(alpha)), nr),
        ((BC.robin(alpha), BC.robin(alpha)), rr),
    ):
        rep = log_det_cylinder(CylinderSpec(cs, 2.0, bl, br))
        assert (rep.log_det, rep.phase_multiple, rep.truncation) == want


@pytest.mark.parametrize("cs, alpha, nr, rr, shifted", GOLDEN_ALPHA, ids=ALPHA_IDS)
def test_shifted_determinants(cs, alpha, nr, rr, shifted):
    det = log_det_shifted(cs, alpha)
    assert (det.log_modulus, det.phase_multiple) == shifted


def test_robin_segment_eigenvalues():
    ev = segment_eigenvalues(SecularProblem(2.5, BC.robin(0.9), BC.robin(0.9)), 1026)
    hexed = ",".join(float.hex(v) for v in ev)
    assert (len(ev), ev[0].hex(), ev[-1].hex()) == (
        1026, "0x1.07ea299fc4abfp-1", "0x1.950c9f0983655p+20"
    )
    assert hashlib.sha256(hexed.encode()).hexdigest() == (
        "39c6dbabcdccf50297a93a37a9cd88b7a4617cb9828ba79c00e39a855b588cce"
    )
