"""Zeta continuation and regularized determinants: closed vs numeric routes.

The torus shifted determinants at small alpha (``small_alpha`` in
``goldens.json``) read the torus zeta, a float64 Ewald split that may
regroup by rounding: 1e-13 relative, phases exact.
"""

import math
import random

import numpy as np
import pytest

from goldens import check
from zetaglue import spectra, zreg
from zetaglue.errors import ConvergenceError, SingularParameterError, ValidationError
from zetaglue.gluing import GluingConfig, glue_neumann_check, glue_robin_check
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
        b = zreg._NumericBackend(CIRCLE, split_point=split)
        zp = b.point(-0.5)
        assert zp.value == pytest.approx(-1.0 / 6.0, abs=1e-9)
        assert -b.derivative0() == pytest.approx(2.0 * math.log(TWO_PI), abs=1e-9)

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
        closed = log_det_shifted(CIRCLE, alpha)
        series = zreg._shifted_via_series(CIRCLE, alpha, zreg._get_backend(CIRCLE))
        assert series.log_modulus == pytest.approx(closed.log_modulus, abs=1e-10)
        assert series.phase_multiple == closed.phase_multiple

    @pytest.mark.parametrize("cs", [CIRCLE, TORUS], ids=["circle", "torus"])
    def test_numeric_backend_agreement(self, cs):
        a = log_det_shifted(cs, 0.3)
        b = log_det_shifted(cs, 0.3, backend="numeric")
        assert abs(a.log_modulus - b.log_modulus) < 1e-8
        assert a.phase_multiple == b.phase_multiple

    def test_negative_shift_phases(self):
        # zero mode contributes one pi unit; each crossed circle mode two
        assert log_det_shifted(CIRCLE, -0.45).phase_multiple == 1
        assert log_det_shifted(CIRCLE, -1.3).phase_multiple == 3

    def test_divergence_not_masked(self):
        d = log_det_shifted(Point(), 1e-8)
        assert d.log_modulus == pytest.approx(math.log(1e-8), abs=1e-6)

    @pytest.mark.parametrize("alpha", [50.0, 60.0])
    def test_large_alpha_on_a_torus_is_refused(self, alpha):
        # the binomial series returned +7,311 and -12,925 here, and then
        # refused on cancellation; the split has nothing to cancel, but its
        # log-remainder would list more modes than the budget allows
        with pytest.raises(ValidationError, match="mode budget"):
            log_det_shifted(TORUS_ASYM, alpha)

    def test_small_alpha_on_tori_is_answered_unchanged(self):
        # aspects 1 to 3 at areas 3, 5 and 12, and the 2 pi x 3 torus, at
        # |alpha| <= 1, as the route gave them before it stated an error
        check("small_alpha")

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

    def test_warm_mirror_lookup_hashes_no_entry(self, monkeypatch):
        mirror, twin = (explicit_mirror(FlatTorus(TWO_PI, 3.0), 400.0) for _ in range(2))
        assert mirror == twin and hash(mirror) == hash(twin)
        first = zreg._get_backend(mirror)
        hashes = counting(monkeypatch, spectra.SpectrumEntry, "__hash__")
        assert zreg._get_backend(twin) is first
        assert hashes == []


class TestStoredArrays:
    @pytest.mark.parametrize("base", [Circle(8.5), FlatTorus(TWO_PI, 7.0 * math.pi)], ids=["circle", "torus"])
    def test_truncated_row_stored_tails_match_direct_sums(self, base):
        # splits below the first positive mode, at and between stored modes, and
        # at the largest one (an empty slice)
        cs = explicit_mirror(base, 300.0)
        backend = zreg._get_backend(cs)
        eigs = [e.eigenvalue for e in cs.entries]
        mid = len(eigs) // 2
        for mu0 in (eigs[1] / 2.0, eigs[mid], (eigs[mid] + eigs[mid + 1]) / 2.0, cs.max_eigenvalue):
            zetas = zreg._truncated_row(cs, mu0, backend)[2]
            stored = [k for k in range(1, zreg._KORDER) if k / 2.0 > cs.dim / 2.0 + 1.5]
            assert stored
            for k in stored:
                direct = math.fsum(e.multiplicity * e.eigenvalue ** (-k / 2.0) for e in cs.entries if e.eigenvalue > mu0)
                want = direct + 0.5 * power_tail_bound(cs, cs.max_trusted, k / 2.0)
                assert math.isclose(zetas[k - 1], want, rel_tol=1e-12, abs_tol=0.0), (mu0, k)

    def test_mirrors_hold_no_arrays(self):
        # a caller may keep every mirror it checks (the benchmark does), so the
        # arrays live in one bounded cache that the numeric backend views
        mirrors = [explicit_mirror(Circle(8.5 + k / 64.0), 300.0) for k in range(40)]
        keys = [sorted(vars(m)) for m in mirrors]
        for m in mirrors:
            glue_robin_check(GluingConfig(m, 2.0, 0.9, 0.37))
        assert [sorted(vars(m)) for m in mirrors] == keys
        assert len(spectra._listing_cache) <= spectra._LISTING_CACHE_SIZE == 32
        last = mirrors[-1]
        assert np.shares_memory(zreg._get_backend(last).mu, spectra._listing_cache[last][1])


def forget(cs):
    """Drop every cached spectrum and backend of ``cs``."""
    spectra._listing_cache.pop(cs, None)
    for key in [k for k in zreg._backend_cache if k[0] == cs]:
        zreg._backend_cache.pop(key)


def counting(monkeypatch, module, name):
    """Wrap ``module.name`` and return the list its calls are appended to."""
    calls = []
    inner = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


class TestComputedOnce:
    def test_lattice_builds_per_torus_check(self, monkeypatch):
        torus = FlatTorus(TWO_PI, 3.0)
        forget(torus)
        builds = counting(monkeypatch, spectra.FlatTorus, "_lattice")
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
        builds = counting(monkeypatch, spectra.FlatTorus, "_lattice")
        glue_robin_check(GluingConfig(torus, 2.5, 0.75, -0.3))
        assert len(builds) <= 3
        builds.clear()
        glue_robin_check(GluingConfig(torus, 1.5, 1.05, 0.7))
        assert len(builds) <= 1

    @pytest.mark.parametrize("check, alpha", [(glue_robin_check, -0.3), (glue_neumann_check, 0.0)],
                             ids=["robin", "neumann"])
    def test_cold_check_lists_its_torus_once(self, check, alpha, monkeypatch):
        # the config lists the torus up to the interface series' cutoff,
        # which covers every scan and series of the check
        torus = FlatTorus(1.9, 2.3)
        forget(torus)
        builds = counting(monkeypatch, spectra.FlatTorus, "_lattice")
        check(GluingConfig(torus, 2.5, 0.75, alpha))
        assert len(builds) == 1
        builds.clear()
        check(GluingConfig(torus, 2.5, 1.25, alpha))  # a lower cutoff, answered warm
        assert builds == []

    @pytest.mark.parametrize("cs", [FlatTorus(1.7, 2.9), Circle(5.9)], ids=["torus", "circle"])
    def test_cold_check_builds_no_spectrum_entry(self, cs, monkeypatch):
        # every scan reads the cached float64 listing; entries are built
        # only by the public enumerate_spectrum
        forget(cs)
        built = counting(monkeypatch, spectra.SpectrumEntry, "__post_init__")
        glue_robin_check(GluingConfig(cs, 2.5, 0.75, -0.3))
        assert built == []

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
        checks = counting(monkeypatch, zreg, "_check_admissible")
        for _ in range(2):
            with pytest.raises(SingularParameterError):
                log_det_shifted(cs, alpha)
        assert len(checks) == 2

    @pytest.mark.parametrize("cs", [CIRCLE, TORUS_ASYM], ids=["circle", "torus"])
    def test_kept_shift_is_not_scanned_again(self, monkeypatch, cs):
        forget(cs)
        checks = counting(monkeypatch, zreg, "_check_admissible")
        first = log_det_shifted(cs, -0.35)
        assert log_det_shifted(cs, -0.35) == first
        assert len(checks) == 1

    def test_shifted_map_is_bounded(self):
        circle = Circle(4.1)
        forget(circle)
        for k in range(3 * zreg._SHIFTED_CACHE_SIZE):
            log_det_shifted(circle, 0.1 + k / 64.0)
        assert len(zreg._get_backend(circle).shifted) == zreg._SHIFTED_CACHE_SIZE


# (base, cutoff) -> (IR, G) per s of MELLIN_S, from the adaptive scipy quad
# the numeric backend used before its Gauss-Legendre grid, on the extreme
# mirrors of the benchmark's mirror-shapes workload
MELLIN_S = (-0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5)
MELLIN_BASES = {"circle": Circle(1.1 * TWO_PI), "torus": FlatTorus(TWO_PI, 2.4 * TWO_PI)}
QUAD_INTEGRALS = {
    ("circle", 100.0): [
        (2.125550752655525e-06, 0.4868043379914676),
        (2.0459017455718167e-06, 0.6102375985639406),
        (1.9716816925724102e-06, 0.7941902819345387),
        (1.9023797978907308e-06, 1.081340067400497),
        (1.8375447665235525e-06, 1.5527813982396625),
        (1.7767767024298659e-06, 2.3694576255120885),
        (1.719720251692454e-06, 3.865099082231012),
    ],
    ("circle", 40000.0): [
        (2.1255517887422063e-06, 0.4868043379914676),
        (2.045902387997026e-06, 0.6102375985639406),
        (1.9716821157492635e-06, 0.7941902819345387),
        (1.9023800767994963e-06, 1.081340067400497),
        (1.837544950424396e-06, 1.5527813982396625),
        (1.7767768237293034e-06, 2.3694576255120885),
        (1.7197203317265366e-06, 3.865099082231012),
    ],
    ("torus", 200.0): [
        (8.285290706175997e-05, 3.790737416017196),
        (7.902720726537996e-05, 5.203542651590676),
        (7.5516287090524e-05, 7.905295769114208),
        (7.228494277046878e-05, 13.84926703294477),
        (6.930278641691936e-05, 29.034992762657872),
        (6.654348332412193e-05, 73.84124974762958),
        (6.398412453465889e-05, 224.1001402004559),
    ],
    ("torus", 2000.0): [
        (8.285290689751657e-05, 3.790737416017196),
        (7.90272072312309e-05, 5.203542651590676),
        (7.551628708323781e-05, 7.905295769114208),
        (7.228494276937044e-05, 13.84926703294477),
        (6.930278641645163e-05, 29.034992762657872),
        (6.654348332399533e-05, 73.84124974762958),
        (6.398412453463894e-05, 224.1001402004559),
    ],
}


class TestNumericGrid:
    """The numeric backend's Gauss-Legendre rules for its two Mellin integrals."""

    def test_new_s_builds_no_heat_values(self, monkeypatch):
        calls = counting(monkeypatch, zreg._NumericBackend, "_heat")
        b = zreg._NumericBackend(explicit_mirror(Circle(8.5), 300.0))
        b.point(0.5)
        assert calls
        for s in (-0.5, 0.0, 1.5, 2.5):
            calls.clear()
            b.point(s)
            assert calls == []
        b.derivative0()
        assert calls == []

    @pytest.mark.parametrize("estimate, raises", [(2e-9, True), (1e-10, False)],
                             ids=["above-gate", "below-gate"])
    def test_error_gate(self, monkeypatch, estimate, raises):
        # every level lies ``estimate`` from the next, so the rule doubles to
        # the cap where the estimate exceeds the integral's share of the gate
        levels = []

        def rule_sum(self, rule, level, cell, s):
            levels.append(level)
            return level * estimate

        monkeypatch.setattr(zreg._NumericBackend, "_rule_sum", rule_sum)
        b = zreg._NumericBackend(explicit_mirror(Circle(8.5), 300.0))
        if raises:
            with pytest.raises(ConvergenceError) as exc:
                b.point(0.5)
            assert exc.value.achieved >= 2.0 * estimate
            assert max(levels) == zreg._MAX_DOUBLINGS + 1
        else:
            b.point(0.5)
            assert b._integrals(0.5)[1] >= estimate and b._integrals(0.5)[3] == estimate
            assert max(levels) == 1

    def test_panels_double_until_the_estimate_fits(self, monkeypatch):
        # level 0 lies 1e-6 from level 1, above the share; level 1 lies 1e-13 from level 2
        def rule_sum(self, rule, level, cell, s):
            return {0: 1e-6, 1: 1e-13}.get(level, 0.0)

        monkeypatch.setattr(zreg._NumericBackend, "_rule_sum", rule_sum)
        b = zreg._NumericBackend(explicit_mirror(Circle(8.5), 300.0))
        ir, ir_err, g, g_err = b._integrals(0.5)
        assert (g, g_err) == (1e-13, 1e-13)
        assert ir == g and ir_err >= g_err

    @pytest.mark.parametrize("base, cutoff", sorted(QUAD_INTEGRALS), ids=str)
    def test_extreme_mirrors(self, base, cutoff):
        b = zreg._NumericBackend(explicit_mirror(MELLIN_BASES[base], cutoff))
        for s, (quad_ir, quad_g) in zip(MELLIN_S, QUAD_INTEGRALS[base, cutoff]):
            ir, ir_err, g, g_err = b._integrals(s)
            assert abs(ir - quad_ir) <= 1e-12 and abs(g - quad_g) <= 1e-12, s
            # each error is at least the distance to the rule with twice the panels
            cell = b._small_integration_start(s)[0]
            for rule, value, err, start in (("small", ir, ir_err, cell), ("large", g, g_err, 0)):
                level = max(k for r, k in b._cache if r == rule) - 1
                assert b._rule_sum(rule, level, start, s) == value
                assert err >= abs(value - b._rule_sum(rule, level + 1, start, s))


def log1p_tail_to_1e25(x, kmax):
    """``zreg._log1p_tail`` as it stopped before: at a term below
    1e-25 max(|total|, 1e-30)."""
    term = (-1.0) ** (kmax + 1) * x**kmax
    total = 0.0
    k = kmax
    while True:
        total += term / k
        term *= -x
        k += 1
        if abs(term) < 1e-25 * max(abs(total), 1e-30) or k > kmax + 400:
            return total


def test_log1p_tail_stops_at_half_an_ulp_bit_for_bit():
    rng = random.Random(20261019)
    xs = [rng.uniform(-0.5, 0.5) for _ in range(100_000)]
    xs += [sign * 10.0**-e for e in range(1, 40) for sign in (1.0, -1.0)] + [0.0]
    got = zreg._log1p_tail(np.array(xs), zreg._KORDER)
    for x, tail in zip(xs, got):
        assert float(tail).hex() == log1p_tail_to_1e25(x, zreg._KORDER).hex(), x
