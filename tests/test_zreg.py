"""Zeta continuation and regularized determinants: closed vs numeric routes."""

import math

import pytest

from zetaglue import spectra, zreg
from zetaglue.errors import SingularParameterError, ValidationError
from zetaglue.gluing import GluingConfig, glue_robin_check
from zetaglue.spectra import (
    Circle,
    FlatTorus,
    Point,
    enumerate_spectrum,
    explicit_mirror,
)
from zetaglue.zreg import (
    log_det_shifted,
    log_det_star,
    power_tail_bound,
    zeta_point,
)

TWO_PI = 2.0 * math.pi
CIRCLE = Circle(TWO_PI)
CIRCLE_ODD = Circle(3.7)
TORUS = FlatTorus(TWO_PI, TWO_PI)
TORUS_ASYM = FlatTorus(TWO_PI, 3.0)


class TestZetaPointClosedForms:
    def test_circle_value_at_zero(self):
        zp = zeta_point(CIRCLE, 0.0)
        assert zp.value == pytest.approx(-1.0, abs=1e-14)
        assert zp.residue == 0.0

    @pytest.mark.parametrize("cs", [CIRCLE, CIRCLE_ODD], ids=["2pi", "3.7"])
    def test_circle_finite_part_at_minus_half(self, cs):
        zp = zeta_point(cs, -0.5)
        assert zp.residue == 0.0
        assert zp.value == pytest.approx(-math.pi / (3.0 * cs.circumference), abs=1e-13)

    def test_point_is_empty_sum(self):
        zp = zeta_point(Point(), 0.0)
        assert zp.value == 0.0 and zp.residue == 0.0

    def test_torus_value_at_zero(self):
        assert zeta_point(TORUS, 0.0).value == pytest.approx(-1.0, abs=1e-14)

    def test_torus_residue_at_one(self):
        zp = zeta_point(TORUS_ASYM, 1.0)
        area = TWO_PI * 3.0
        assert zp.residue == pytest.approx(area / (4.0 * math.pi), rel=1e-13)

    def test_include_zero_conventions(self):
        zp = zeta_point(CIRCLE, 0.0, include_zero=True)
        assert zp.value == pytest.approx(0.0, abs=1e-14)  # -1 + q0
        with pytest.raises(ValidationError):
            zeta_point(CIRCLE, 2.0, include_zero=True)


class TestBackendAgreement:
    @pytest.mark.parametrize("s", [0.0, -0.5, 0.5, 1.5, 2.0, -1.5])
    @pytest.mark.parametrize("cs", [CIRCLE, CIRCLE_ODD, TORUS_ASYM],
                             ids=["circle", "circle3.7", "torus"])
    def test_closed_vs_numeric(self, cs, s):
        a = zeta_point(cs, s, backend="closed")
        b = zeta_point(cs, s, backend="numeric")
        assert b.value == pytest.approx(a.value, abs=1e-9)
        assert b.residue == pytest.approx(a.residue, abs=1e-10)

    def test_torus_pole_agreement(self):
        a = zeta_point(TORUS, 1.0, backend="closed")
        b = zeta_point(TORUS, 1.0, backend="numeric")
        assert b.value == pytest.approx(a.value, abs=1e-9)
        assert b.residue == pytest.approx(a.residue, abs=1e-11)

    @pytest.mark.parametrize("split", [0.5, 1.0, 2.0])
    def test_split_point_independence(self, split):
        zp = zeta_point(CIRCLE, -0.5, backend="numeric", split_point=split)
        assert zp.value == pytest.approx(-1.0 / 6.0, abs=1e-9)
        ds = log_det_star(CIRCLE, backend="numeric", split_point=split)
        assert ds.log_modulus == pytest.approx(2.0 * math.log(TWO_PI), abs=1e-9)

    def test_direct_sum_in_convergence_region(self):
        # cutoffs chosen so the dropped tails sit well below 1e-10
        for cs, s, lam in ((CIRCLE, 2.0, 4.0e6), (TORUS, 4.0, 1.0e4)):
            direct = math.fsum(
                e.multiplicity * e.eigenvalue ** (-s)
                for e in enumerate_spectrum(cs, lam)
                if e.eigenvalue > 0
            )
            assert zeta_point(cs, s).value == pytest.approx(direct, abs=1e-10)


class TestLogDetStar:
    def test_point_empty_product(self):
        d = log_det_star(Point())
        assert d.log_modulus == 0.0
        assert d.excluded_zero_modes == 1

    @pytest.mark.parametrize("ell", [TWO_PI, 3.7, 1.0])
    def test_circle_closed_form(self, ell):
        d = log_det_star(Circle(ell))
        assert d.log_modulus == pytest.approx(2.0 * math.log(ell), abs=1e-13)
        assert d.phase_multiple == 0

    def test_numeric_backend_equivalence(self):
        a = log_det_star(CIRCLE).log_modulus
        b = log_det_star(CIRCLE, backend="numeric").log_modulus
        assert abs(a - b) < 1e-8

    def test_explicit_mirror_equivalence(self):
        mirror = explicit_mirror(CIRCLE, 2500.0)
        a = log_det_star(mirror).log_modulus
        assert abs(a - 2.0 * math.log(TWO_PI)) < 1e-8

    def test_torus_closed_vs_numeric(self):
        for cs in (TORUS, TORUS_ASYM):
            a = log_det_star(cs).log_modulus
            b = log_det_star(cs, backend="numeric").log_modulus
            assert abs(a - b) < 1e-9

    def test_torus_axis_symmetry(self):
        a = log_det_star(FlatTorus(TWO_PI, 3.0)).log_modulus
        b = log_det_star(FlatTorus(3.0, TWO_PI)).log_modulus
        assert a == pytest.approx(b, abs=1e-13)


class TestLogDetShifted:
    def test_point_single_eigenvalue(self):
        d = log_det_shifted(Point(), 2.5)
        assert d.log_modulus == pytest.approx(math.log(2.5), abs=1e-15)
        assert d.phase_multiple == 0

    def test_circle_unit_shift(self):
        d = log_det_shifted(CIRCLE, 1.0)
        assert d.log_modulus == pytest.approx(math.log(TWO_PI), abs=1e-13)

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.7, -0.45, -1.3])
    def test_hurwitz_vs_series_routes(self, alpha):
        closed = log_det_shifted(CIRCLE, alpha, method="closed")
        series = log_det_shifted(CIRCLE, alpha, method="series")
        assert series.log_modulus == pytest.approx(closed.log_modulus, abs=1e-10)
        assert series.phase_multiple == closed.phase_multiple

    @pytest.mark.parametrize("cs", [CIRCLE, TORUS], ids=["circle", "torus"])
    def test_numeric_backend_agreement(self, cs):
        a = log_det_shifted(cs, 0.3)
        b = log_det_shifted(cs, 0.3, backend="numeric", method="series")
        assert abs(a.log_modulus - b.log_modulus) < 1e-8
        assert a.phase_multiple == b.phase_multiple

    def test_negative_shift_phases(self):
        # zero mode contributes one pi unit; each crossed circle mode two
        assert log_det_shifted(CIRCLE, -0.45).phase_multiple == 1
        assert log_det_shifted(CIRCLE, -1.3).phase_multiple == 3

    def test_divergence_not_masked(self):
        d = log_det_shifted(Point(), 1e-8)
        assert d.log_modulus == pytest.approx(math.log(1e-8), abs=1e-6)

    def test_singular_shifts_rejected(self):
        with pytest.raises(SingularParameterError):
            log_det_shifted(CIRCLE, 0.0)
        with pytest.raises(SingularParameterError):
            log_det_shifted(CIRCLE, -1.0)  # -alpha hits sqrt(mu) = 1
        with pytest.raises(SingularParameterError):
            log_det_shifted(Point(), 0.0)


class TestPowerTailBound:
    def test_bounds_actual_tail(self):
        lam, p = 100.0, 2.0
        exact = math.fsum(
            e.multiplicity * e.eigenvalue ** (-p)
            for e in enumerate_spectrum(CIRCLE, 1.0e8)
            if e.eigenvalue > lam
        )
        assert power_tail_bound(CIRCLE, lam, p) >= exact
        assert power_tail_bound(CIRCLE, lam, p) < 10.0 * exact


class TestBackendCache:
    def test_fresh_tori_stay_within_the_cap(self):
        for k in range(200):
            zeta_point(FlatTorus(1.0 + k / 256.0, 2.0), 0.0)
        assert len(zreg._backend_cache) <= zreg._BACKEND_CACHE_SIZE

    def test_hit_returns_same_backend_and_refreshes_recency(self):
        first = zreg._get_backend(TORUS_ASYM)
        for k in range(zreg._BACKEND_CACHE_SIZE - 1):
            zreg._get_backend(FlatTorus(3.0 + k / 256.0, 2.0))
        # the oldest entry is now TORUS_ASYM; a hit makes it the newest
        assert zreg._get_backend(TORUS_ASYM) is first
        zreg._get_backend(FlatTorus(7.0, 2.0))
        assert zreg._get_backend(TORUS_ASYM) is first
        assert next(reversed(zreg._backend_cache))[0] == TORUS_ASYM


def forget(cs):
    """Drop every cached spectrum and backend of ``cs``."""
    spectra._spectrum_cache.pop(cs, None)
    for key in [k for k in zreg._backend_cache if k[0] == cs]:
        zreg._backend_cache.pop(key)


def counting(monkeypatch, module, name):
    """Wrap ``module.name`` and return the list its calls are appended to."""
    calls = []
    inner = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


class TestComputedOnce:
    def test_lattice_builds_per_torus_check(self, monkeypatch):
        torus = FlatTorus(TWO_PI, 3.0)
        forget(torus)
        builds = counting(monkeypatch, spectra, "_torus_entries")
        glue_robin_check(GluingConfig(torus, 2.5, 0.75, -0.3))
        assert len(builds) <= 3
        builds.clear()
        glue_robin_check(GluingConfig(torus, 1.5, 1.05, 0.7))
        assert len(builds) <= 1

    def test_lattice_builds_on_out_of_order_torus(self, monkeypatch):
        # distinct eigenvalues a hair apart have their floats in the other
        # order (114.2 here); the spectrum is still cached and bisected
        torus = FlatTorus(math.sqrt(2.0), math.sqrt(28.0))
        forget(torus)
        builds = counting(monkeypatch, spectra, "_torus_entries")
        glue_robin_check(GluingConfig(torus, 2.5, 0.75, -0.3))
        assert len(builds) <= 3
        builds.clear()
        glue_robin_check(GluingConfig(torus, 1.5, 1.05, 0.7))
        assert len(builds) <= 1

    def test_hurwitz_calls_per_circle_check(self, monkeypatch):
        circle = Circle(5.3)
        forget(circle)
        calls = counting(monkeypatch, zreg, "hurwitz_zeta_sderiv")
        glue_robin_check(GluingConfig(circle, 2.5, 0.75, 0.4137))
        assert len(calls) <= 2
        calls.clear()
        glue_robin_check(GluingConfig(circle, 1.5, 0.6, 0.4137))
        assert calls == []

    @pytest.mark.parametrize("cs, alpha", [
        (CIRCLE, -1.0), (CIRCLE, 0.0), (TORUS_ASYM, -1.0), (TORUS_ASYM, 0.0),
    ], ids=["circle-root", "circle-zero", "torus-root", "torus-zero"])
    def test_refusal_is_raised_again(self, monkeypatch, cs, alpha):
        checks = counting(monkeypatch, zreg, "_check_shift_admissible")
        for _ in range(2):
            with pytest.raises(SingularParameterError):
                log_det_shifted(cs, alpha)
        assert len(checks) == 2

    def test_shifted_map_is_bounded(self):
        circle = Circle(4.1)
        forget(circle)
        for k in range(3 * zreg._SHIFTED_CACHE_SIZE):
            log_det_shifted(circle, 0.1 + k / 64.0)
        assert len(zreg._get_backend(circle).shifted) == zreg._SHIFTED_CACHE_SIZE
