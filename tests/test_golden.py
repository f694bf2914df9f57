"""Golden reports of the warm gluing path and the segment oracle.

The values were recorded before the Hurwitz derivative, the torus
degeneracy merge and the oracle's sign scan were rewritten; the rewrites
must reproduce them bit for bit.  The Neumann check on the 2 pi x 3
torus at L = 2.5 is pinned in ``test_torus_zeta.py``.  The Neumann
reports, cylinder reports and shifted determinants below were recorded
before the spectrum cache and the per-backend shifted determinant cache,
which must reproduce them bit for bit.  The torus values went through the
torus zeta, which moved from a fixed-point Bessel pass to a float64 Ewald
split: they are held to 1e-13 relative, with phases and truncations exact.

The oracle values were recorded while each root was refined by Brent's
method at xtol = rtol = 1e-15.  The oracle now bisects every bracket down
to adjacent floats, so they are held to stated bounds: the pinned segment
eigenvalues are reproduced by the scipy-brentq reference scan of
``test_oracle.py``, and the oracle's roots lie within Brent's stopping
rule plus one bisection ulp of them.
"""

import hashlib
import math

import pytest

from zetaglue.cylinder import BoundaryCondition as BC, CylinderSpec, log_det_cylinder
from zetaglue.gluing import GluingConfig, glue_neumann_check, glue_robin_check
from zetaglue.oracle import SecularProblem, relative_log_det, segment_eigenvalues
from zetaglue.spectra import (
    Circle,
    FlatTorus,
    Point,
    exp_tail_bound,
    explicit_mirror,
    heat_tail_bound,
    heat_trace,
)
from zetaglue.zreg import log_det_shifted, power_tail_bound

from test_oracle import assert_within_brent_tolerance, scalar_scan_eigenvalues

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
    got = glue_robin_check(GluingConfig(cs, L, a, alpha)).lhs
    if isinstance(cs, FlatTorus):
        assert abs(got - lhs) <= 1e-13 * abs(lhs), (got, lhs)
        return
    assert got == lhs


@pytest.mark.parametrize("L, alpha, value", [
    (1.0, 0.25, -0.5753641450099447),
    (3.0, 0.9, 0.34358970590116555),
])
def test_oracle_relative_log_det(L, alpha, value):
    rr = SecularProblem(L, BC.robin(alpha), BC.robin(alpha))
    dd = SecularProblem(L, BC.dirichlet(), BC.dirichlet())
    assert abs(relative_log_det(rr, dd, count=1024).value - value) <= 1e-12


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
        if isinstance(cs, FlatTorus):
            assert abs(rep.log_det - want[0]) <= 1e-13 * abs(want[0]), (rep.log_det, want)
            assert (rep.phase_multiple, rep.truncation) == want[1:]
            continue
        assert (rep.log_det, rep.phase_multiple, rep.truncation) == want


@pytest.mark.parametrize("cs, alpha, nr, rr, shifted", GOLDEN_ALPHA, ids=ALPHA_IDS)
def test_shifted_determinants(cs, alpha, nr, rr, shifted):
    det = log_det_shifted(cs, alpha)
    if isinstance(cs, FlatTorus):
        assert abs(det.log_modulus - shifted[0]) <= 1e-13 * abs(shifted[0]), (det, shifted)
        assert det.phase_multiple == shifted[1]
        return
    assert (det.log_modulus, det.phase_multiple) == shifted


def test_robin_segment_eigenvalues():
    p = SecularProblem(2.5, BC.robin(0.9), BC.robin(0.9))
    ref = scalar_scan_eigenvalues(p, 1026)
    hexed = ",".join(float.hex(v) for v in ref)
    assert (len(ref), ref[0].hex(), ref[-1].hex()) == (
        1026, "0x1.07ea299fc4abfp-1", "0x1.950c9f0983655p+20"
    )
    assert hashlib.sha256(hexed.encode()).hexdigest() == (
        "39c6dbabcdccf50297a93a37a9cd88b7a4617cb9828ba79c00e39a855b588cce"
    )
    assert_within_brent_tolerance(segment_eigenvalues(p, 1026), ref)


# (base, alpha) -> (lhs, rhs, residual, truncation) of the gluing check on the
# explicit mirror of the base at cutoff 300 with L = 2, a = 0.9; alpha = 0 is
# the Neumann check.  Recorded before the per-type dispatch moved onto the
# cross-section classes, while the numeric backend integrated with adaptive
# quadrature.  Its Gauss-Legendre grid moves lhs, rhs and residual by
# rounding only (at most 3.6e-15), so they are held to within 16 ulp of the
# pinned value or 1e-14, whichever is larger; truncation stays exact.  The
# torus mirror's truncations (1e-12 before) now also bound the stored modes
# its series leave unsummed above the mirror's largest trusted mode.
MIRROR_BASES = {"circle": Circle(8.5), "torus": FlatTorus(TWO_PI, 3.5 * TWO_PI)}
GOLDEN_MIRROR = [
    ("circle", 0.37, (2.8950548731549293, 2.895054873154933, 3.552713678800501e-15, 1e-12)),
    ("circle", -0.37, (4.315580233904127, 4.315580233904128, 8.881784197001252e-16, 1e-12)),
    ("circle", 0.0, (-0.8972378620979877, -0.8972378620979847, 2.9976021664879227e-15, 1e-12)),
    ("torus", 0.37, (9.072241100972887, 9.072241100972155, 7.318590178329032e-13, 1.3408075164632302e-11)),
    ("torus", -0.37, (10.313934783466102, 10.313934783465369, 7.336353746723034e-13, 1.3408075164632302e-11)),
    ("torus", 0.0, (9.451805287745387, 9.451805287744653, 7.336353746723034e-13, 1.2846855759569782e-11)),
]


@pytest.mark.parametrize("base, alpha, want", GOLDEN_MIRROR,
                         ids=[f"{b}-{alpha}" for b, alpha, _ in GOLDEN_MIRROR])
def test_mirror_reports(base, alpha, want):
    cfg = GluingConfig(explicit_mirror(MIRROR_BASES[base], 300.0), 2.0, 0.9, alpha)
    rep = (glue_robin_check if alpha else glue_neumann_check)(cfg)
    assert rep.truncation == want[3]
    for got, pinned in zip((rep.lhs, rep.rhs, rep.residual), want):
        assert abs(got - pinned) <= max(16 * math.ulp(pinned), 1e-14), (got, pinned)


# boundary pair -> (log_det, phase, kernel_dim, truncation) on [0, 1.5] x point
POINT_PAIRS = {
    "dd": (BC.dirichlet(), BC.dirichlet()),
    "nn": (BC.neumann(), BC.neumann()),
    "nd": (BC.neumann(), BC.dirichlet()),
    "rr": (BC.robin(0.37), BC.robin(0.37)),
    "nr": (BC.neumann(), BC.robin(-0.37)),
}
GOLDEN_POINT = {
    "dd": (1.0986122886681098, 0, 0, 0.0),
    "nn": (1.0986122886681098, 0, 1, 0.0),
    "nd": (0.6931471805599453, 0, 0, 0.0),
    "rr": (0.6369471308717463, 0, 0, 0.0),
    "nr": (-0.3011050927839216, 1, 0, 0.0),
}


@pytest.mark.parametrize("pair", sorted(GOLDEN_POINT))
def test_point_cylinder_reports(pair):
    rep = log_det_cylinder(CylinderSpec(Point(), 1.5, *POINT_PAIRS[pair]))
    assert (rep.log_det, rep.phase_multiple, rep.kernel_dim, rep.truncation) == GOLDEN_POINT[pair]


BOUND_SECTIONS = {
    "point": Point(),
    "circle": Circle(8.5),
    "torus": FlatTorus(TWO_PI, 3.5 * TWO_PI),
    "mirror-point": explicit_mirror(Point(), 10.0),
    "mirror-circle": explicit_mirror(Circle(8.5), 300.0),
    "mirror-torus": explicit_mirror(FlatTorus(TWO_PI, 3.5 * TWO_PI), 300.0),
}
# function -> its arguments after the cross-section; the explicit mirrors
# store eigenvalues up to 300, so lam = 400 lies beyond the stored list
BOUND_ARGS = {
    heat_trace: ((0.2,), (1.0,), (3.0,)),
    exp_tail_bound: ((16.0, 2.0), (100.0, 0.5), (400.0, 4.0)),
    heat_tail_bound: ((16.0, 0.2), (100.0, 1.0), (400.0, 0.05)),
    power_tail_bound: ((16.0, 1.5), (100.0, 3.0), (400.0, 8.0)),
}
GOLDEN_BOUNDS = {
    "point": {
        "heat_trace": (1.0, 1.0, 1.0),
        "exp_tail_bound": (0.0, 0.0, 0.0),
        "heat_tail_bound": (0.0, 0.0, 0.0),
        "power_tail_bound": (0.0, 0.0, 0.0),
    },
    "circle": {
        "heat_trace": (5.36165660929284, 2.3978057986899377, 1.391095321985718),
        "exp_tail_bound": (0.0003639633156391422, 0.03663357087305979, 2.3382188505815485e-36),
        "heat_tail_bound": (0.05158341178273326, 6.15636264005442e-47, 1.2631395613237952e-09),
        "power_tail_bound": (0.09169663696198442, 6.1869943917203404e-06, 5.054795712072656e-21),
    },
    "torus": {
        "heat_trace": (54.977871437821385, 10.996711739836865, 3.938326547980727),
        "exp_tail_bound": (0.5175297149988988, 36.79554800913303, 3.0757437746647647e-17),
        "heat_tail_bound": (22.199681620107906, 4.241542469777807e-21, 0.0199679320141441),
        "power_tail_bound": (17.477736431346415, 0.003415672286269283, 1.564650953901266e-17),
    },
    "mirror-point": {
        "heat_trace": (1.0, 1.0, 1.0),
        "exp_tail_bound": (0.0, 0.0, 0.0),
        "heat_tail_bound": (0.0, 0.0, 0.0),
        "power_tail_bound": (0.0, 0.0, 0.0),
    },
    "mirror-circle": {
        "heat_trace": (5.36165660929284, 2.3978057986899377, 1.391095321985718),
        "exp_tail_bound": (0.0003639633156427556, 0.03792454843819254, 2.441633669335856e-35),
        "heat_tail_bound": (0.05073428069263157, 6.156362640054263e-47, 5.446646564754206e-09),
        "power_tail_bound": (0.08606035408208138, 5.851338730588645e-06, 1.1009253062183515e-20),
    },
    "mirror-torus": {
        "heat_trace": (54.977871437821385, 10.996711739836863, 3.938326547980727),
        "exp_tail_bound": (0.017922848592314737, 3.7405255031335605, 4.018688946396219e-33),
        "heat_tail_bound": (2.3984403311053692, 6.340340139978615e-43, 9.065427109442149e-07),
        "power_tail_bound": (6.8229143562454215, 0.000616608376922276, 1.9174759848570517e-18),
    },
}


@pytest.mark.parametrize("name", list(GOLDEN_BOUNDS))
def test_heat_traces_and_tail_bounds(name):
    # the mirrors sum their stored modes in numpy passes, whose exp differs
    # from libm's by up to an ulp per term, and form their Weyl tails from
    # closed-form incomplete gamma functions: within 1e-12 relative of the
    # pinned values; the built-ins stay exact
    cs = BOUND_SECTIONS[name]
    for fn, args in BOUND_ARGS.items():
        got = tuple(fn(cs, *a) for a in args)
        pinned = GOLDEN_BOUNDS[name][fn.__name__]
        if name.startswith("mirror-"):
            assert all(math.isclose(g, p, rel_tol=1e-12, abs_tol=0.0) for g, p in zip(got, pinned)), fn.__name__
        else:
            assert got == pinned, fn.__name__
