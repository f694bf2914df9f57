"""Two-path gluing identity checks: the central property of the library."""

import dataclasses
import hashlib
import math
import pickle
import random
import re
import time
from collections import OrderedDict

import pytest

from zetaglue import cylinder, gluing, spectra
from zetaglue.cylinder import series_sum
from zetaglue.errors import SingularParameterError, ValidationError
from zetaglue.gluing import (
    GluingConfig,
    GluingReport,
    correction_matrices,
    glue_neumann_check,
    glue_robin_check,
)
from zetaglue.spectra import Circle, FlatTorus, explicit_mirror
from zetaglue import zreg
from zetaglue.zreg import zeta_point

TWO_PI = 2.0 * math.pi
CIRCLE = Circle(TWO_PI)
LN2 = math.log(2.0)


class TestCorrectionMatrices:
    def test_whole_overlap(self):
        m = correction_matrices(GluingConfig(CIRCLE, 2.0, 0.7, 0.3))
        assert m.log_det_C == pytest.approx(-math.log(2.0), abs=0)
        assert m.q0 == 1

    def test_piece_overlaps(self):
        m = correction_matrices(GluingConfig(CIRCLE, 2.0, 0.5, 0.0))
        assert m.log_det_S1 == pytest.approx(math.log(2.0), abs=1e-15)
        assert m.log_det_S2 == pytest.approx(-math.log(1.5), abs=1e-15)

    def test_unit_shift_basis_change_vanishes(self):
        # alpha = 1 is admissible on a circle whose wavenumber is not 1
        m = correction_matrices(GluingConfig(Circle(3.0), 2.0, 0.7, 1.0))
        assert m.log_det_AAt == 0.0

    def test_basis_change_follows_alpha(self):
        # Neumann (alpha = 0) has no interface-basis change; the jump
        # interface has -q0 ln alpha^2
        assert correction_matrices(GluingConfig(CIRCLE, 2.0, 0.7, 0.0)).log_det_AAt == 0.0
        m = correction_matrices(GluingConfig(CIRCLE, 2.0, 0.7, -0.3))
        assert m.log_det_AAt == -m.q0 * math.log(0.3 * 0.3)


class TestNeumannGluing:
    def test_reference_config(self):
        rep = glue_neumann_check(GluingConfig(CIRCLE, 2.0, 0.7, 0.0))
        assert rep.residual < 1e-8
        assert rep.phase_match
        assert rep.lhs == math.fsum(rep.lhs_terms.values())
        assert rep.rhs == math.fsum(rep.rhs_terms.values())

    @pytest.mark.parametrize("L", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("frac", [0.2, 0.5, 0.8])
    def test_sweep(self, L, frac):
        rep = glue_neumann_check(GluingConfig(CIRCLE, L, frac * L, 0.0))
        assert rep.residual < 1e-8
        assert rep.phase_match

    def test_constant_block_closed_form(self):
        # a0 - ln det C + ln det S1 + ln det S2
        #   == -ln2 (zeta(0) + q0) + q0 ln(L / (a (L-a)))
        cfg = GluingConfig(CIRCLE, 2.0, 0.7, 0.0)
        mats = correction_matrices(cfg)
        z0 = zeta_point(CIRCLE, 0.0).value
        a0 = -LN2 * (z0 + 1)
        got = a0 - mats.log_det_C + mats.log_det_S1 + mats.log_det_S2
        expect = -LN2 * (z0 + 1) + math.log(2.0 / (0.7 * 1.3))
        assert got == pytest.approx(expect, abs=1e-14)

    def test_circle_a0_vanishes(self):
        # zeta(0) = -1 and q0 = 1: even-dimensional cylinder constant is 0
        assert zeta_point(CIRCLE, 0.0).value == pytest.approx(-1.0, abs=1e-14)
        rep = glue_neumann_check(GluingConfig(CIRCLE, 2.0, 0.7, 0.0))
        assert rep.rhs_terms["a0"] == pytest.approx(0.0, abs=1e-14)

    def test_torus(self):
        rep = glue_neumann_check(GluingConfig(FlatTorus(TWO_PI, TWO_PI), 2.0, 0.7, 0.0))
        assert rep.residual < 1e-8
        assert rep.phase_match

    def test_rejects_robin_config(self):
        with pytest.raises(ValidationError):
            glue_neumann_check(GluingConfig(CIRCLE, 2.0, 0.7, 0.3))


class TestRobinGluing:
    def test_reference_config(self):
        rep = glue_robin_check(GluingConfig(CIRCLE, 2.0, 0.7, 0.3))
        assert rep.residual < 1e-8
        assert rep.phase_match

    @pytest.mark.parametrize("L", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("frac", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.9])
    def test_sweep(self, L, frac, alpha):
        rep = glue_robin_check(GluingConfig(CIRCLE, L, frac * L, alpha))
        assert rep.residual < 1e-8
        assert rep.phase_match

    @pytest.mark.parametrize("a", [0.3, 0.7, 1.5])
    def test_cut_position_sweep(self, a):
        rep = glue_robin_check(GluingConfig(CIRCLE, 2.0, a, 0.3))
        assert rep.residual < 1e-8

    def test_reflection_symmetry(self):
        # relabelling the two pieces maps (a, alpha) -> (L-a, -alpha) and
        # must reproduce the identical report values
        r1 = glue_robin_check(GluingConfig(CIRCLE, 2.0, 0.7, 0.3))
        r2 = glue_robin_check(GluingConfig(CIRCLE, 2.0, 1.3, -0.3))
        assert r1.lhs == pytest.approx(r2.lhs, abs=1e-12)
        assert r1.rhs == pytest.approx(r2.rhs, abs=1e-12)
        assert (r1.lhs_phase - r2.lhs_phase) % 2 == 0

    def test_series_matches_neumann_limit_termwise(self):
        # the alpha -> 0 structural limit of the pair series is its value at
        # exact alpha = 0, the Neumann pair series
        b = series_sum(CIRCLE, 2.0, "robin_pair", alpha=0.0, a=0.7)
        small = series_sum(CIRCLE, 2.0, "robin_pair", alpha=1e-7, a=0.7)
        assert small.value == pytest.approx(b.value, abs=1e-5)

    def test_torus(self):
        rep = glue_robin_check(GluingConfig(FlatTorus(TWO_PI, TWO_PI), 2.0, 0.7, 0.3))
        assert rep.residual < 1e-8
        assert rep.phase_match

    def test_explicit_mirror_cross_section(self):
        mirror = explicit_mirror(CIRCLE, 2500.0)
        rep = glue_robin_check(GluingConfig(mirror, 2.0, 0.7, 0.3))
        assert rep.residual < 1e-7
        assert rep.phase_match

    def test_rejects_neumann_config(self):
        with pytest.raises(SingularParameterError):
            glue_robin_check(GluingConfig(CIRCLE, 2.0, 0.7, 0.0))

    def test_rejects_singular_shift(self):
        with pytest.raises(SingularParameterError):
            GluingConfig(CIRCLE, 2.0, 0.7, 1.0)

    def test_rejects_bad_cut(self):
        with pytest.raises(ValidationError):
            GluingConfig(CIRCLE, 2.0, 2.5, 0.3)


def cap_torus_listings(monkeypatch):
    """Fail any torus listing past the mode budget (Weyl count of the cutoff)."""
    lattice = FlatTorus._lattice

    def capped(cs, cutoff):
        modes = cs.ell1 * cs.ell2 / (4.0 * math.pi) * cutoff
        assert modes <= zreg._MODE_BUDGET, f"listed {modes:.3g} modes"
        return lattice(cs, cutoff)

    monkeypatch.setattr(FlatTorus, "_lattice", capped)


@pytest.mark.parametrize("a, cutoff", [(0.005, "2.56e+06"), (0.001, "1e+06")])
def test_cut_near_an_end_is_refused_by_its_length(a, cutoff, monkeypatch):
    # the left piece's series starts at (8/a)^2 and its admissibility scan
    # runs to (|alpha| + 1/a + 1)^2: the first refuses at a = 0.005 and
    # the second at a = 0.001, each by the length, not alpha
    cap_torus_listings(monkeypatch)
    t0 = time.process_time()
    with pytest.raises(ValidationError, match=re.escape(f"length = {a} needs the spectrum up to {cutoff},")):
        glue_robin_check(GluingConfig(FlatTorus(TWO_PI, 3.0), 1.0, a, 0.3))
    assert time.process_time() - t0 < 1.0


TORUS = FlatTorus(TWO_PI, 3.0)


def _shift_torus_zeta_at_minus_half(monkeypatch):
    real_point = zreg._TorusBackend.point

    def point(self, s):
        p = real_point(self, s)
        return zreg.ZetaPoint(p.location, p.value * (1.0 + 1e-9), p.residue) if s == -0.5 else p

    monkeypatch.setattr(zreg._TorusBackend, "point", point)
    monkeypatch.setattr(zreg, "_backend_cache", type(zreg._backend_cache)())


def _shift_a0(monkeypatch):
    real = gluing.a0_constant
    monkeypatch.setattr(gluing, "a0_constant", lambda *args, **kwargs: real(*args, **kwargs) + 1e-6)


def _scale_s_alpha(monkeypatch):
    real = cylinder.s_alpha
    monkeypatch.setattr(cylinder, "s_alpha", lambda *args, **kwargs: real(*args, **kwargs) * (1.0 + 1e-3))


# (perturbation, whether the gluing residual sees it).  The torus
# zeta(-1/2) enters each cylinder as its length times a constant of the
# cross-section, and the pieces' lengths add up to the whole one, so a
# shift of it cancels between the two sides: a known blind spot.
PERTURBATIONS = [(_shift_a0, True), (_scale_s_alpha, True), (_shift_torus_zeta_at_minus_half, False)]


@pytest.mark.parametrize("perturb, detected", PERTURBATIONS, ids=["a0", "s_alpha", "torus-zeta(-1/2)"])
def test_torus_gluing_check_sees_perturbed_terms(monkeypatch, perturb, detected):
    cfg = GluingConfig(TORUS, 2.5, 1.25, 0.7)
    assert glue_robin_check(cfg).residual < 1e-12
    perturb(monkeypatch)
    residual = glue_robin_check(cfg).residual
    assert residual > 1e-8 if detected else residual < 1e-12


# Two checks of the benchmark's mirror-shapes stream (seed 601) whose series
# ran past their mirror's largest trusted mode and missed the closed form
# by more than 1e-8: (base, cutoff, L, a, alpha, distance from the closed form).
UNSUMMED_GAP = [
    (Circle(1.1 * TWO_PI), 115.87392905533599, 1.5959053506909961, 0.9675505341313473,
     0.5115684579698567, 3.57e-06),
    (FlatTorus(TWO_PI, 2.4 * TWO_PI), 202.27773338971585, 1.8022059817278988, 1.1495924012344172,
     0.3622289130880813, 1.55e-06),
]


@pytest.mark.parametrize("base, cutoff, L, a, alpha, distance", UNSUMMED_GAP, ids=["circle", "torus"])
def test_mirror_truncation_covers_the_unsummed_gap(base, cutoff, L, a, alpha, distance):
    rep = glue_robin_check(GluingConfig(explicit_mirror(base, cutoff), L, a, alpha))
    closed = glue_robin_check(GluingConfig(base, L, a, alpha))
    assert abs(rep.lhs - closed.lhs) == pytest.approx(distance, rel=0.01)
    assert rep.truncation >= abs(rep.lhs - closed.lhs)


def seeded_torus_configs(count=20, seed=20261020):
    """Configs drawn like the benchmark's torus-shapes checks, each on a new
    torus of aspect 1 to 3 and area 3 to 5; every fifth has alpha = 0."""
    rng = random.Random(seed)
    configs = []
    for i in range(count):
        rho = rng.choice((1.0, 1.5, 2.0, 2.5, 3.0))
        side = math.sqrt(rng.uniform(3.0, 5.0) / rho)
        L = rng.uniform(1.5, 3.0)
        a = L * rng.uniform(0.35, 0.65)
        alpha = 0.0 if i % 5 == 4 else rng.uniform(0.2, 0.6) * (1.0 if i % 2 == 0 else -1.0)
        configs.append(GluingConfig(FlatTorus(side, side * rho), L, a, alpha))
    return configs


def _check(cfg, **kwargs):
    return (glue_neumann_check if cfg.alpha == 0.0 else glue_robin_check)(cfg, **kwargs)


# (lhs, rhs, residual, lhs_phase, rhs_phase, truncation) of seeded_torus_configs(),
# and the SHA-256 of the reports' reprs, recorded while each check still
# listed its torus once per larger cutoff; held bit for bit
SEEDED_TORUS_REPORTS = [
    (3.410991773973052, 3.4109917739730524, 4.440892098500626e-16, -1, 1, 1e-12),
    (3.1119848310606777, 3.1119848310606777, 0.0, -1, 1, 1e-12),
    (2.7575322766746573, 2.7575322766746573, 0.0, -1, 1, 1e-12),
    (1.636906138449864, 1.6369061384498638, 2.220446049250313e-16, -1, 1, 1e-12),
    (-0.1105322461299626, -0.11053224612996261, 1.3877787807814457e-17, 0, 0, 1e-12),
    (2.7936482893043904, 2.7936482893043904, 0.0, -1, 1, 1e-12),
    (1.8708042197558963, 1.870804219755896, 2.220446049250313e-16, -1, 1, 1e-12),
    (1.5992156729626605, 1.5992156729626605, 0.0, -1, 1, 1e-12),
    (3.1593299187233854, 3.1593299187233854, 0.0, -1, 1, 1e-12),
    (-0.522133698845725, -0.5221336988457248, 2.220446049250313e-16, 0, 0, 1e-12),
    (2.1656831605032374, 2.1656831605032374, 0.0, -1, 1, 1e-12),
    (3.1928137564239734, 3.1928137564239734, 0.0, -1, 1, 1e-12),
    (2.3056993219588167, 2.3056993219588167, 0.0, -1, 1, 1e-12),
    (3.6651043337385696, 3.665104333738569, 4.440892098500626e-16, -1, 1, 1e-12),
    (0.17152991200734585, 0.17152991200734571, 1.3877787807814457e-16, 0, 0, 1e-12),
    (3.497575153243064, 3.497575153243064, 0.0, -1, 1, 1e-12),
    (2.8180757644565015, 2.8180757644565015, 0.0, -1, 1, 1e-12),
    (2.326140157374248, 2.326140157374248, 0.0, -1, 1, 1e-12),
    (2.154773946494845, 2.1547739464948448, 4.440892098500626e-16, -1, 1, 1e-12),
    (0.29946310091531936, 0.2994631009153194, 5.551115123125783e-17, 0, 0, 1e-12),
]
SEEDED_TORUS_DIGEST = "f799372f7896d1533648ed25c96fb89246d28d0b69ff9fa950e69a09541410a6"


def test_seeded_torus_reports_are_unchanged():
    reports = [_check(cfg) for cfg in seeded_torus_configs()]
    assert [(r.lhs, r.rhs, r.residual, r.lhs_phase, r.rhs_phase, r.truncation)
            for r in reports] == SEEDED_TORUS_REPORTS
    assert hashlib.sha256("".join(map(repr, reports)).encode()).hexdigest() == SEEDED_TORUS_DIGEST


def _lattice_calls(monkeypatch) -> list:
    calls = []
    lattice = FlatTorus._lattice
    monkeypatch.setattr(FlatTorus, "_lattice", lambda cs, cutoff: calls.append(cutoff) or lattice(cs, cutoff))
    return calls


@pytest.mark.parametrize("tol", [1e-12, 1e-14])
@pytest.mark.parametrize("alpha", [0.45, -0.45, 0.0])
def test_one_listing_moves_no_value(tol, alpha, monkeypatch):
    # the config does not list a torus already listed to a small cutoff, so
    # its scans and series list it again as they need it: both give one
    # report; at tol = 1e-14 the series may outgrow the config's listing
    torus, calls = FlatTorus(1.3, 3.1), _lattice_calls(monkeypatch)
    reports = []
    for listed in (None, 1.0):
        monkeypatch.setattr(spectra, "_listing_cache", OrderedDict())
        monkeypatch.setattr(zreg, "_backend_cache", OrderedDict())
        if listed:
            torus._arrays(listed)
        calls.clear()
        reports.append(_check(GluingConfig(torus, 2.2, 0.9, alpha), tol=tol))
        if listed:
            assert len(calls) > 1
        elif tol == 1e-12:
            assert len(calls) == 1
    assert reports[0] == reports[1]
    assert reports[0].residual < 1e-12 and reports[0].phase_match


def test_config_past_the_mode_budget_lists_only_its_scan(monkeypatch):
    # the interface series of a = 0.005 starts at (8/a)^2 = 2.56e6, past the
    # budget, so the config lists only what its admissibility scan reads,
    # and the check still refuses by the length
    calls = _lattice_calls(monkeypatch)
    cfg = GluingConfig(FlatTorus(2.9, 3.3), 1.0, 0.005, 0.3)
    assert calls == [0.3 * 0.3 * (1.0 + 1e-9) + 1.0]
    with pytest.raises(ValidationError, match="length = 0.005 needs the spectrum up to 2.56e"):
        glue_robin_check(cfg)


def test_slotted_report_keeps_its_dataclass_behaviour():
    # a caller may keep every report (the benchmark does): it holds no __dict__
    rep = glue_robin_check(GluingConfig(CIRCLE, 2.0, 0.7, 0.3))
    assert not hasattr(rep, "__dict__")
    assert pickle.loads(pickle.dumps(rep)) == rep
    assert dataclasses.replace(rep) == rep and dataclasses.replace(rep, lhs=1.0).lhs == 1.0
    assert dataclasses.asdict(rep) == {f.name: getattr(rep, f.name) for f in dataclasses.fields(GluingReport)}
    with pytest.raises(TypeError, match="unhashable"):  # its term dicts, as before
        hash(rep)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.lhs = 1.0
