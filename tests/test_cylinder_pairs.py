"""Every supported boundary pair through the one per-end assembly.

The pair reports (``goldens.json``) on the circle are exact, their term
order included: closed forms and series summed in a fixed order.  The
torus rows read the torus zeta, a float64 Ewald split that may regroup
its sums by rounding: their values are held to 1e-13 relative, with
phases, kernels, truncations and term order exact.  The mirror rows run
on the numeric backend's Gauss-Legendre rules, which move values by
rounding only (at most 2.2e-16 seen): 16 ulp or 1e-14.  Their
truncations add closed-form Weyl tails to numpy passes over the stored
modes: 1e-12 relative.  A spy holds each backend to the terms that need
it, the segment oracle checks the Robin pairs in both orientations
against the closed forms on the point, and two laws tie reports on
different inputs together without the assembly.
"""

import math

import pytest

from goldens import cases, check, ends, robin_neumann_rate, section
from zetaglue import cylinder
from zetaglue.cylinder import CylinderSpec, log_det_cylinder
from zetaglue.oracle import SecularProblem, relative_log_det
from zetaglue.spectra import Circle, FlatTorus, Point

TWO_PI = 2.0 * math.pi
PAIRS = ("D/D", "N/N", "N/D", "D/N", "R/R", "N/R", "R/N")
GOLDEN_PAIRS = ("pair_reports", "pair_reports_torus", "pair_reports_mirror", "pair_truncations_mirror")


# (section, L, pair, alpha or None for pairs without a Robin end)
@pytest.mark.parametrize("case", cases(*GOLDEN_PAIRS))
def test_pair_reports(case):
    check(*GOLDEN_PAIRS, case=case)


@pytest.mark.parametrize("pair", PAIRS)
def test_each_backend_runs_once_where_its_term_is(pair, monkeypatch):
    # ln Det* Delta_Y has weight -1/4 on D and R ends and +1/4 on N ends,
    # so only D/D, N/N and R/R read it; each Robin pair reads one shifted
    # determinant and one s_alpha, however many Robin ends it has
    calls = []
    for name in ("zeta_point", "log_det_star", "log_det_shifted", "s_alpha"):
        inner = getattr(cylinder, name)

        def spy(*args, _name=name, _inner=inner, **kwargs):
            calls.append(_name)
            return _inner(*args, **kwargs)

        monkeypatch.setattr(cylinder, name, spy)
    log_det_cylinder(CylinderSpec(Circle(TWO_PI), 1.3, *ends(pair, 0.5)))
    star = ["log_det_star"] if pair in ("D/D", "N/N", "R/R") else []
    robin = ["log_det_shifted", "s_alpha"] if "R" in pair else []
    assert calls == ["zeta_point", *star, *robin]


@pytest.mark.parametrize("L", [1.0, 2.5])
@pytest.mark.parametrize("alpha", [0.25, 0.9, 3.0])
@pytest.mark.parametrize("pair", ["R/N", "N/R", "R/R"])
@pytest.mark.parametrize("ref", ["D/D", "N/N"])
def test_robin_pairs_match_the_oracle(pair, ref, alpha, L):
    # the oracle pairs eigenvalue lists only when the two problems have the
    # same parity of Dirichlet ends, so N/D cannot be a reference here
    rel = relative_log_det(
        SecularProblem(L, *ends(pair, alpha)), SecularProblem(L, *ends(ref, alpha)), count=4096
    )
    closed = (
        log_det_cylinder(CylinderSpec(Point(), L, *ends(pair, alpha))).log_det
        - log_det_cylinder(CylinderSpec(Point(), L, *ends(ref, alpha))).log_det
    )
    assert abs(rel.value - closed) <= 1e-9


# The scaling law.  Y -> cY, L -> cL and alpha -> alpha/c multiply every
# eigenvalue of the cylinder Laplacian by c^-2, so ln Det moves by exactly
# -2 zeta_cyl(0) ln c.  zeta_cyl(0) is the t^0 heat invariant less the zero
# modes (Branson-Gilkey, flat interior and flat boundary): on the segment
# +1/4 per Neumann or Robin end and -1/4 per Dirichlet end; on the circle
# S l / 2 pi per Robin end of length l, and on the torus S^2 A / 8 pi per
# Robin end of area A, with S = -alpha, the Robin parameter of
# d_n u + S u = 0 in the library's orientation.  alpha l and alpha^2 A are
# scale-free, so the law shares no code with the assembly.
SCALED = {
    "point": lambda c: Point(),
    "circle": lambda c: Circle(TWO_PI * c),
    "torus": lambda c: FlatTorus(TWO_PI * c, 3.0 * c),
}


def zeta_cyl_zero(section, pair, alpha):
    zero_modes = 1 if pair == "N/N" else 0
    if section == "point":
        return sum(-0.25 if end == "D" else 0.25 for end in pair.split("/")) - zero_modes
    robin = pair.count("R")
    S = -alpha
    if section == "circle":
        return robin * S * TWO_PI / (2.0 * math.pi) - zero_modes
    return robin * S * S * (TWO_PI * 3.0) / (8.0 * math.pi) - zero_modes


@pytest.mark.parametrize("c", [1.7, 0.6])
@pytest.mark.parametrize("pair", ["D/D", "N/N", "N/D", "R/R", "N/R"])
@pytest.mark.parametrize("section", list(SCALED))
def test_scaling_law(section, pair, c):
    L, alpha = 1.3, 0.4
    base = log_det_cylinder(CylinderSpec(SCALED[section](1.0), L, *ends(pair, alpha)))
    scaled = log_det_cylinder(CylinderSpec(SCALED[section](c), c * L, *ends(pair, alpha / c)))
    predicted = -2.0 * zeta_cyl_zero(section, pair, alpha) * math.log(c)
    assert abs(scaled.log_det - base.log_det - predicted) <= 1e-12
    assert scaled.phase_multiple == base.phase_multiple


# The Robin -> Neumann law.  As alpha -> 0 the N/R(alpha) cylinder tends to
# the N/N one, whose kernel of q0 constant modes becomes q0 eigenvalues
# alpha/L + O(alpha^2): D(alpha) = ln Det_{N/R(alpha)} - q0 ln(alpha/L)
# - ln Det*_{N/N} vanishes linearly, its rate D/alpha settling at least 5x
# closer per decade of alpha; the rate at alpha = 1e-5 is pinned.  On the
# point both are closed forms of one length, and D is rounding alone.
LAW_SECTIONS = {"point": ["point"], "circle": ["circle", TWO_PI], "torus": ["torus", TWO_PI, 3.0]}


@pytest.mark.parametrize("name", list(LAW_SECTIONS))
def test_robin_to_neumann_law(name):
    L, alphas = 2.0, (1e-2, 1e-3, 1e-4, 1e-5)
    cs = section(LAW_SECTIONS[name])
    for alpha in alphas:
        assert log_det_cylinder(CylinderSpec(cs, L, *ends("N/R", alpha))).phase_multiple == 0
    assert log_det_cylinder(CylinderSpec(cs, L, *ends("N/N", None))).phase_multiple == 0
    rates = [robin_neumann_rate({"section": LAW_SECTIONS[name], "L": L, "alpha": alpha})["rate"]
             for alpha in alphas]
    if name == "point":
        assert all(abs(rate * alpha) <= 1e-15 for rate, alpha in zip(rates, alphas)), rates
        return
    steps = [abs(b - a) for a, b in zip(rates, rates[1:])]
    assert all(later <= step / 5.0 for step, later in zip(steps, steps[1:])), rates
    check("robin_neumann_rates", case=name)
