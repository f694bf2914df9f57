"""Cylinder determinants: segment closed forms, assembly relations, series."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaglue import cylinder
from zetaglue.cylinder import (
    BoundaryCondition as BC,
    CylinderSpec,
    log_det_cylinder,
    series_sum,
)
from zetaglue.errors import SingularParameterError, ValidationError
from zetaglue.gluing import GluingConfig
from zetaglue.oracle import SecularProblem
from zetaglue.spectra import Circle, FlatTorus, Point, enumerate_spectrum, explicit_mirror

TWO_PI = 2.0 * math.pi
CIRCLE = Circle(TWO_PI)
POINT = Point()


def det(cs, L, bl, br, **kw):
    return log_det_cylinder(CylinderSpec(cs, L, bl, br), **kw)


class TestBoundaryCondition:
    def test_robin_zero_normalizes_to_neumann(self):
        assert BC.robin(0.0) == BC.neumann()

    def test_parse(self):
        assert BC.parse("d") == BC.dirichlet()
        assert BC.parse("neumann") == BC.neumann()
        assert BC.parse("r:1.5") == BC.robin(1.5)

    def test_rejects_unknown(self):
        with pytest.raises(ValidationError):
            BC.parse("x")

    def test_robin_zero_is_neumann_however_built(self):
        for bc in (BC("robin", 0.0), BC("robin", -0.0), BC.parse("r:0")):
            assert bc == BC.neumann()
        # the determinant is the Neumann one, not a singular Robin one
        for cs in (CIRCLE, POINT):
            neumann = det(cs, 1.0, BC.neumann(), BC.neumann()).log_det
            assert det(cs, 1.0, BC.neumann(), BC("robin", 0.0)).log_det == neumann

    def test_bare_robin_needs_its_parameter(self):
        with pytest.raises(ValidationError, match=r"r:<alpha>"):
            BC.parse("r")

    def test_robin_parameter_must_be_a_number(self):
        with pytest.raises(ValidationError, match=r"r:<alpha>"):
            BC.parse("r:abc")


# class.field -> a constructor taking that field's value; the refusal names the field
NON_FINITE_FIELDS = {
    "BoundaryCondition.alpha": lambda v: BC.robin(v),
    "CylinderSpec.length": lambda v: CylinderSpec(POINT, v, BC.dirichlet(), BC.dirichlet()),
    "GluingConfig.length": lambda v: GluingConfig(CIRCLE, v, 0.7, 0.3),
    "GluingConfig.cut": lambda v: GluingConfig(CIRCLE, 2.0, v, 0.3),
    "GluingConfig.alpha": lambda v: GluingConfig(CIRCLE, 2.0, 0.7, v),
    "Circle.circumference": lambda v: Circle(v),
    "FlatTorus.ell1": lambda v: FlatTorus(v, 1.0),
    "FlatTorus.ell2": lambda v: FlatTorus(1.0, v),
    "SecularProblem.length": lambda v: SecularProblem(v, BC.dirichlet(), BC.dirichlet()),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("field", list(NON_FINITE_FIELDS))
def test_non_finite_inputs_are_refused(field, value):
    with pytest.raises(ValidationError, match=field.split(".")[-1]):
        NON_FINITE_FIELDS[field](value)


class TestSegmentClosedForms:
    @pytest.mark.parametrize("L", [0.5, 1.0, 2.0, math.pi])
    def test_dirichlet_pair(self, L):
        assert det(POINT, L, BC.dirichlet(), BC.dirichlet()).log_det == pytest.approx(
            math.log(2.0 * L), abs=1e-15
        )

    @pytest.mark.parametrize("L,alpha", [(1.0, 1.0), (2.0, 0.5), (0.5, 2.0)])
    def test_robin_pair(self, L, alpha):
        r = det(POINT, L, BC.robin(alpha), BC.robin(alpha))
        assert r.log_det == pytest.approx(
            math.log(2.0 * alpha * (L * alpha + 2.0)), abs=1e-14
        )
        assert r.phase_multiple == 0

    def test_neumann_robin(self):
        r = det(POINT, 1.0, BC.neumann(), BC.robin(1.0))
        assert r.log_det == pytest.approx(math.log(2.0), abs=1e-15)
        mirrored = det(POINT, 1.0, BC.robin(1.0), BC.neumann())
        assert mirrored.log_det == r.log_det

    def test_neumann_dirichlet(self):
        assert det(POINT, 1.0, BC.neumann(), BC.dirichlet()).log_det == pytest.approx(
            math.log(2.0), abs=1e-15
        )

    def test_neumann_pair_is_modified_det(self):
        r = det(POINT, 1.0, BC.neumann(), BC.neumann())
        assert r.log_det == pytest.approx(math.log(2.0), abs=1e-15)
        assert r.kernel_dim == 1

    @given(st.floats(min_value=0.2, max_value=8.0), st.floats(min_value=1.01, max_value=3.0))
    @settings(max_examples=30, deadline=None)
    def test_dirichlet_monotone_in_length(self, L, factor):
        a = det(POINT, L, BC.dirichlet(), BC.dirichlet()).log_det
        b = det(POINT, L * factor, BC.dirichlet(), BC.dirichlet()).log_det
        assert b > a


class TestReportStructure:
    def test_log_det_is_exact_term_sum(self):
        r = det(CIRCLE, 1.3, BC.robin(0.4), BC.robin(0.4))
        assert r.log_det == math.fsum(r.terms.values())

    def test_nn_dd_differ_only_in_half_term(self):
        rn = det(CIRCLE, 1.0, BC.neumann(), BC.neumann())
        rd = det(CIRCLE, 1.0, BC.dirichlet(), BC.dirichlet())
        assert set(rn.terms) == set(rd.terms)
        for key in rn.terms:
            delta = rn.terms[key] - rd.terms[key]
            if key == "cross_det_half":
                assert delta == pytest.approx(2.0 * math.log(TWO_PI), abs=1e-13)
            else:
                assert delta == 0.0

    def test_flat_residue_term_vanishes(self):
        for cs in (CIRCLE, FlatTorus(TWO_PI, 3.0)):
            r = det(cs, 1.0, BC.dirichlet(), BC.dirichlet())
            assert r.terms["residue_term"] == 0.0

    def test_kernel_bookkeeping(self):
        assert det(CIRCLE, 1.0, BC.neumann(), BC.neumann()).kernel_dim == 1
        assert det(CIRCLE, 1.0, BC.dirichlet(), BC.dirichlet()).kernel_dim == 0
        assert det(CIRCLE, 1.0, BC.robin(0.5), BC.robin(0.5)).kernel_dim == 0


class TestAssemblyCrossChecks:
    def test_circle_nn_two_paths(self):
        # independent assembly: N/N = D/D + ln Det* of the cross-section,
        # exercised against a chained N/D route through the interface
        # operator determinant (see test_interface_ops for the chain)
        rn = det(CIRCLE, 1.0, BC.neumann(), BC.neumann())
        rd = det(CIRCLE, 1.0, BC.dirichlet(), BC.dirichlet())
        assert rn.log_det - rd.log_det == pytest.approx(
            2.0 * math.log(TWO_PI), abs=1e-12
        )

    def test_robin_pair_through_numeric_backend(self):
        a = det(CIRCLE, 1.0, BC.robin(0.3), BC.robin(0.3))
        b = det(CIRCLE, 1.0, BC.robin(0.3), BC.robin(0.3), backend="numeric")
        assert b.log_det == pytest.approx(a.log_det, abs=1e-8)

    def test_explicit_mirror_matches_closed(self):
        mirror = explicit_mirror(CIRCLE, 2500.0)
        a = det(CIRCLE, 1.0, BC.neumann(), BC.neumann()).log_det
        b = det(mirror, 1.0, BC.neumann(), BC.neumann()).log_det
        assert b == pytest.approx(a, abs=1e-8)


class TestValidation:
    def test_unsupported_pairs(self):
        with pytest.raises(ValidationError):
            det(CIRCLE, 1.0, BC.dirichlet(), BC.robin(1.0))
        with pytest.raises(ValidationError):
            det(CIRCLE, 1.0, BC.robin(1.0), BC.robin(2.0))

    def test_singular_robin_parameter_named(self):
        with pytest.raises(SingularParameterError) as exc:
            det(CIRCLE, 1.0, BC.robin(-1.0), BC.robin(-1.0))
        assert "eigenvalue" in str(exc.value)

    def test_robin_colliding_with_interface_value(self):
        # alpha = -2/L is an interface eigenvalue at the zero mode
        with pytest.raises(SingularParameterError):
            det(POINT, 1.0, BC.robin(-2.0), BC.robin(-2.0))

    def test_length_positive(self):
        with pytest.raises(ValidationError):
            CylinderSpec(POINT, 0.0, BC.dirichlet(), BC.dirichlet())

    @pytest.mark.parametrize("alpha", [1.0000001e150, -1e200, 1e308, math.inf, math.nan])
    def test_huge_alpha_refused_before_any_cutoff(self, alpha):
        from zetaglue.interface_ops import spec_RS0
        from zetaglue.zreg import log_det_shifted

        for build in (
            lambda: BC.robin(alpha),
            lambda: GluingConfig(CIRCLE, 1.0, 0.4, alpha),
            lambda: series_sum(CIRCLE, 1.0, "robin_end", alpha=alpha),
            lambda: log_det_shifted(CIRCLE, alpha),
            lambda: spec_RS0(CIRCLE, 1.0, 0.4, alpha),
        ):
            with pytest.raises(ValidationError, match=r"alpha must be finite with \|alpha\|"):
                build()

    def test_largest_alpha_is_accepted(self):
        assert math.isfinite(det(POINT, 1.0, BC.neumann(), BC.robin(1e150)).log_det)

    @pytest.mark.parametrize("left", [BC.neumann(), BC.robin(1.0)])
    def test_long_cylinder_scans_do_not_overflow(self, left):
        # the admissibility scans reach modes with L sqrt(mu) far above 710
        assert math.isfinite(det(CIRCLE, 400.0, left, BC.robin(1.0)).log_det)


def old_scan_refuses(cs, length, alpha, geometry):
    """The admissibility scan as it ran to (2|alpha| + 2/length + 1)^2."""
    far, sign = cylinder._INTERFACES[geometry]
    alpha = sign * alpha
    tol = 1e-14 * max(1.0, abs(alpha))
    return any(
        abs(v) < tol
        for e in enumerate_spectrum(cs, (2.0 * abs(alpha) + 2.0 / length + 1.0) ** 2)
        for v in cylinder._interface_values(math.sqrt(e.eigenvalue), length, alpha, far)
    )


def refuses(cs, length, alpha, geometry):
    try:
        cylinder._check_robin_admissible(cs, length, alpha, geometry)
    except SingularParameterError:
        return True
    return False


def collisions(length, geometry, modes):
    """Each alpha at which an interface eigenvalue of the geometry vanishes
    over one of the modes x."""
    far, sign = cylinder._INTERFACES[geometry]
    return [-v / sign for x in modes for v in cylinder._interface_values(x, length, 0.0, far)]


class TestAdmissibilityScan:
    @pytest.mark.parametrize("geometry", sorted(cylinder._INTERFACES))
    def test_collision_below_the_cutoff_is_refused(self, geometry):
        # the mirror ends between the scan's cutoff and the old one, which
        # would have raised InsufficientSpectrumError instead
        for length, x in [(2.0 / 3.0, 3.0), (0.2, 3.0), (5.0, 4.0)]:
            for alpha in collisions(length, geometry, [x]):
                piece = length / 2.0 if cylinder._INTERFACES[geometry][0] is None else length
                cutoff = (abs(alpha) * (1.0 + 1e-14) + 1.0 / piece + 1.0) ** 2
                mirror = explicit_mirror(CIRCLE, math.ceil(math.sqrt(cutoff)) ** 2)
                assert x * x < mirror.max_trusted < (2.0 * abs(alpha) + 2.0 / length + 1.0) ** 2
                with pytest.raises(SingularParameterError):
                    cylinder._check_robin_admissible(mirror, length, alpha, geometry)

    @pytest.mark.parametrize("geometry", sorted(cylinder._INTERFACES))
    def test_refusals_match_the_old_scan_near_collisions(self, geometry):
        outcomes = set()
        for length in (0.1, 0.35, 1.0, 3.0):
            for alpha in collisions(length, geometry, range(8)):
                for rel in (0.0, 3e-15, -3e-15, 3e-14, -3e-14, 1e-9):
                    a = alpha * (1.0 + rel) + rel
                    if a == 0.0:
                        continue
                    want = old_scan_refuses(CIRCLE, length, a, geometry)
                    assert refuses(CIRCLE, length, a, geometry) == want, (length, a)
                    outcomes.add(want)
        assert outcomes == {True, False}


class TestBoseSeries:
    def test_point_is_empty(self):
        assert series_sum(POINT, 1.0, "log1m_exp").value == 0.0

    def test_circle_direct_sum(self):
        direct = 2.0 * math.fsum(
            math.log1p(-math.exp(-2.0 * k)) for k in range(1, 40)
        )
        assert series_sum(CIRCLE, 1.0, "log1m_exp").value == pytest.approx(direct, abs=1e-13)

    def test_decays_with_length(self):
        assert abs(series_sum(CIRCLE, 50.0, "log1m_exp").value) < 1e-40

    def test_term_signs(self):
        for e in enumerate_spectrum(CIRCLE, 30.0):
            if e.eigenvalue <= 0:
                continue
            x = math.sqrt(e.eigenvalue)
            assert math.log1p(-math.exp(-2.0 * x)) < 0.0
            assert math.log1p(math.exp(-2.0 * x)) > 0.0
        assert series_sum(CIRCLE, 1.0, "log1m_exp").value < 0.0
        assert series_sum(CIRCLE, 1.0, "log1p_exp").value > 0.0

    def test_robin_pair_form(self):
        # at alpha = 0 the pair form is the Neumann pair, summed here mode by mode
        L, a = 2.0, 0.7
        r = series_sum(CIRCLE, L, "robin_pair", alpha=0.0, a=a)
        expect = math.fsum(
            e.multiplicity * (
                math.log1p(-math.exp(-2.0 * L * x))
                - math.log1p(-math.exp(-2.0 * a * x))
                - math.log1p(-math.exp(-2.0 * (L - a) * x))
            )
            for e in enumerate_spectrum(CIRCLE, r.cutoff) if e.eigenvalue > 0
            for x in (math.sqrt(e.eigenvalue),)
        )
        assert r.value == pytest.approx(expect, abs=1e-14)

    @pytest.mark.parametrize("form", ["robin_end", "robin_both"])
    def test_robin_forms_at_zero_are_log1m_exp(self, form):
        # r = (x - 0)/(x + 0) is exactly 1
        for L in (0.3, 1.0, 3.7):
            assert series_sum(CIRCLE, L, form, alpha=0.0) == series_sum(CIRCLE, L, "log1m_exp")

    def test_pair_form_needs_interior_cut(self):
        with pytest.raises(ValidationError):
            series_sum(CIRCLE, 2.0, "robin_pair", alpha=0.1, a=2.5)

    def test_singular_series_term(self):
        with pytest.raises(SingularParameterError):
            series_sum(CIRCLE, 1.0, "robin_end", alpha=-1.0)

    def test_phase_counting(self):
        # at alpha just below a crossing the factor goes negative for mu=1
        res = series_sum(CIRCLE, 0.3, "robin_end", alpha=-0.9)
        assert res.phase > 0

    def test_truncation_robustness(self):
        base = series_sum(CIRCLE, 1.0, "robin_both", alpha=0.4)
        boosted = series_sum(CIRCLE, 1.0, "robin_both", alpha=0.4,
                             min_cutoff=4.0 * base.cutoff)
        assert abs(base.value - boosted.value) < 1e-12
