"""Interface operators: the segment matrix, cut spectra, regularized dets."""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from zetaglue.asymptotics import b0_constant
from zetaglue.cylinder import BoundaryCondition as BC, CylinderSpec, log_det_cylinder
from zetaglue.errors import SingularParameterError, ValidationError
from zetaglue.interface_ops import (
    log_det_interface,
    log_det_star_RS0,
    qd0_det_segment,
    qd_det_segment,
    qd_matrix_segment,
    rs0_eigenvalue,
    rs0_eigenvalue_resolvent_form,
    spec_RS0,
    spec_interface,
)
from zetaglue.spectra import (
    Circle,
    FlatTorus,
    Point,
    enumerate_spectrum,
    heat_coefficients,
    kernel_dim,
)
from zetaglue.zreg import log_det_star, log_det_shifted, zeta_point

TWO_PI = 2.0 * math.pi
CIRCLE = Circle(TWO_PI)
POINT = Point()


class TestSegmentMatrix:
    @pytest.mark.parametrize("lam", [0.1, 1.0, 10.0, 100.0])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("L", [0.5, 1.0, 2.0])
    def test_matrix_det_identity(self, lam, alpha, L):
        mat, closed = qd_matrix_segment(lam, alpha, L)
        direct = np.linalg.det(mat)
        assert abs(direct - closed) <= 1e-12 * abs(closed)

    def test_explicit_entry_value(self):
        # lam=1, alpha=1, L=1: det = 2 + 2 + 4/(e^2 - 1)
        _, d = qd_matrix_segment(1.0, 1.0, 1.0)
        assert d.real == pytest.approx(4.0 + 4.0 / (math.e**2 - 1.0), rel=1e-14)

    def test_alpha_zero_collapses_to_lam(self):
        for lam in (0.5, 2.0, 7.0):
            _, d = qd_matrix_segment(lam, 0.0, 1.0)
            assert d.real == pytest.approx(lam, rel=1e-13)

    def test_zero_parameter_limit(self):
        alpha, L = 1.0, 2.0
        assert qd0_det_segment(alpha, L) == pytest.approx(2.0 * alpha / L + alpha**2, abs=0)
        drift = qd_det_segment(1e-20, alpha, L).real - qd0_det_segment(alpha, L)
        assert abs(drift) < 1e-10

    def test_complex_parameter(self):
        lam = 2.0 + 3.0j
        mat, closed = qd_matrix_segment(lam, 0.7, 1.3)
        assert abs(np.linalg.det(mat) - closed) <= 1e-12 * abs(closed)
        root = cmath.sqrt(lam)
        expect = lam + 0.49 + 1.4 * root + 4 * 0.7 * root / (cmath.exp(2 * root * 1.3) - 1)
        assert abs(closed - expect) <= 1e-12 * abs(expect)

    def test_overflow_safe(self):
        _, d = qd_matrix_segment(1.0e6, 1.0, 1.0)
        assert math.isfinite(d.real)
        assert d.real == pytest.approx(1.0e6 + 1.0 + 2.0e3, rel=1e-12)

    def test_rejects_zero(self):
        with pytest.raises(ValidationError):
            qd_matrix_segment(0.0, 1.0, 1.0)

    @pytest.mark.parametrize("length", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("det", [
        lambda L: qd_det_segment(1.0, 0.5, L),
        lambda L: qd_matrix_segment(1.0, 0.5, L),
        lambda L: qd0_det_segment(0.5, L),
    ], ids=["qd_det", "qd_matrix", "qd0_det"])
    def test_rejects_nonpositive_length(self, det, length):
        with pytest.raises(ValidationError, match="segment length must be > 0"):
            det(length)


class TestInterfaceSpectra:
    @pytest.mark.parametrize("geometry, shift", [
        ("both_ends", 0.3), ("left_neumann_cut", 0.0), ("cut_left", 0.3), ("cut_right", -0.3),
    ])
    def test_long_geometries_do_not_overflow(self, geometry, shift):
        # at L sqrt(mu) far above 710 an eigenvalue is sqrt(mu) + shift to the last bit
        sp = spec_interface(CIRCLE, geometry, 400.0, abs(shift))
        assert sp.entries[-1] == (10.0 + shift, 2)

    def test_point_both_ends_neumann(self):
        sp = spec_interface(POINT, "both_ends", 2.0, 0.0)
        assert sp.zero_modes == 1
        assert sp.entries == ((1.0, 1),)  # 2/L with q0 = 1

    def test_point_both_ends_shifted(self):
        sp = spec_interface(POINT, "both_ends", 2.0, 0.25)
        assert sp.zero_modes == 0
        assert [v for v, _ in sp.entries] == pytest.approx([0.25, 1.25])

    def test_point_left_neumann_cut(self):
        sp = spec_interface(POINT, "left_neumann_cut", 2.0)
        assert sp.entries == ((0.5, 1),)
        assert sp.zero_modes == 0

    def test_circle_cut_left_values(self):
        a, alpha = 0.7, 0.3
        sp = spec_interface(CIRCLE, "cut_left", a, alpha, cutoff=9.5)
        expect = []
        for e in enumerate_spectrum(CIRCLE, 9.5):
            x = math.sqrt(e.eigenvalue)
            if x == 0:
                expect.append((alpha, e.multiplicity))
            else:
                expect.append(
                    (x + alpha - 2.0 * x / (math.exp(2 * a * x) + 1.0), e.multiplicity)
                )
        expect.sort()
        assert [v for v, _ in sp.entries] == pytest.approx([v for v, _ in expect])

    def test_cut_right_flips_shift(self):
        a, alpha = 0.9, 0.4
        sp_r = spec_interface(CIRCLE, "cut_right", a, alpha, cutoff=9.5)
        sp_l = spec_interface(CIRCLE, "cut_left", a, -alpha, cutoff=9.5)
        assert sp_r.entries == sp_l.entries

    def test_multiplicities_inherited(self):
        sp = spec_interface(CIRCLE, "both_ends", 1.0, 0.3, cutoff=4.5)
        mults = sorted(m for _, m in sp.entries)
        assert mults == [1, 1, 2, 2, 2, 2]  # q0 pair + two modes per mu

    def test_zero_mode_at_zero_shift_cut(self):
        sp = spec_interface(CIRCLE, "cut_left", 0.7, 0.0, cutoff=4.5)
        assert sp.zero_modes == 1

    def test_spectra_are_real_and_sorted(self):
        sp = spec_interface(CIRCLE, "both_ends", 2.0, -0.6, cutoff=30.0)
        vals = [v for v, _ in sp.entries]
        assert vals == sorted(vals)


class TestInterfaceDeterminants:
    def test_point_both_ends(self):
        alpha, L = 0.25, 2.0
        d = log_det_interface(spec_interface(POINT, "both_ends", L, alpha), POINT)
        assert d.log_modulus == pytest.approx(
            math.log(alpha) + math.log(2.0 / L + alpha), abs=1e-14
        )

    def test_nd_chain_reconstruction(self):
        # ln Det(N/D cylinder) = ln Det(D/D cylinder) + interface det of
        # the Neumann-complement operator: two independent assembly paths
        L = 1.0
        nd = log_det_cylinder(CylinderSpec(CIRCLE, L, BC.neumann(), BC.dirichlet()))
        dd = log_det_cylinder(CylinderSpec(CIRCLE, L, BC.dirichlet(), BC.dirichlet()))
        iface = log_det_interface(
            spec_interface(CIRCLE, "left_neumann_cut", L), CIRCLE
        )
        assert nd.log_det == pytest.approx(dd.log_det + iface.log_modulus, abs=1e-12)

    def test_both_ends_det_star_at_zero_shift(self):
        L = 2.0
        d = log_det_interface(spec_interface(CIRCLE, "both_ends", L, 0.0), CIRCLE)
        expect = math.log(2.0 / L) + log_det_star(CIRCLE).log_modulus
        assert d.log_modulus == pytest.approx(expect, abs=1e-13)
        assert d.excluded_zero_modes == 1

    @pytest.mark.parametrize("geometry", ["interface_jump", "middle"])
    def test_unknown_geometry_is_refused(self, geometry):
        # an interface-jump list, or any other, is not read as cut_right
        sp = dataclasses.replace(spec_RS0(CIRCLE, 2.0, 0.7, 0.3), geometry=geometry)
        with pytest.raises(ValidationError, match=f"unknown interface geometry '{geometry}'"):
            log_det_interface(sp, CIRCLE)

    def test_left_neumann_cut_refuses_a_shift(self):
        # Robin(alpha) at the cut over a Dirichlet far end is the unsupported D/R pair
        msg = "unsupported boundary pair dirichlet/robin"
        with pytest.raises(ValidationError, match=msg):
            spec_interface(CIRCLE, "left_neumann_cut", 1.0, 0.3)
        sp = dataclasses.replace(spec_interface(CIRCLE, "left_neumann_cut", 1.0), alpha=0.3)
        with pytest.raises(ValidationError, match=msg):
            log_det_interface(sp, CIRCLE)

    def test_partial_products_converge_to_assembled_value(self):
        alpha, L = 0.3, 2.0
        assembled = log_det_interface(
            spec_interface(CIRCLE, "both_ends", L, alpha), CIRCLE
        ).log_modulus
        lead_full = 2.0 * log_det_shifted(CIRCLE, alpha).log_modulus + math.log(
            1.0 + 2.0 / (L * alpha)
        )
        deltas = []
        for lam in (25.0, 100.0, 400.0):
            sp = spec_interface(CIRCLE, "both_ends", L, alpha, cutoff=lam)
            raw = math.fsum(m * math.log(v) for v, m in sp.entries)
            lead_partial = math.log(alpha) + math.log(2.0 / L + alpha) + math.fsum(
                e.multiplicity * 2.0 * math.log(math.sqrt(e.eigenvalue) + alpha)
                for e in enumerate_spectrum(CIRCLE, lam)
                if e.eigenvalue > 0
            )
            deltas.append(abs((raw - lead_partial) - (assembled - lead_full)))
        assert deltas[-1] < 1e-12
        assert deltas[0] >= deltas[-1]


class TestInterfaceJump:
    def test_zero_mode_count(self):
        sp = spec_RS0(CIRCLE, 2.0, 0.7, 0.3, cutoff=50.0)
        assert sp.zero_modes == kernel_dim(CIRCLE)
        sp = spec_RS0(POINT, 2.0, 0.7, 0.3)
        assert sp.zero_modes == 1
        assert sp.entries == ()

    def test_all_positive_at_zero_shift(self):
        sp = spec_RS0(CIRCLE, 2.0, 0.7, 0.0, cutoff=100.0)
        assert all(v > 0 for v, _ in sp.entries)

    def test_zero_shift_eigenvalue_closed_form(self):
        mu, L, a = 4.0, 2.0, 0.7
        x = math.sqrt(mu)
        expect = (
            (2.0 / x)
            * (1.0 - math.exp(-2 * L * x))
            / ((1.0 - math.exp(-2 * a * x)) * (1.0 - math.exp(-2 * (L - a) * x)))
        )
        assert rs0_eigenvalue(mu, L, a, 0.0) == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.85])
    def test_two_path_agreement(self, alpha):
        # factorized closed form vs the sum of one-sided resolvents
        for mu in (1.0, 4.0, 9.0, 16.0, 25.0):
            v1 = rs0_eigenvalue(mu, 2.0, 0.7, alpha)
            v2 = rs0_eigenvalue_resolvent_form(mu, 2.0, 0.7, alpha)
            assert abs(v1 - v2) < 1e-12 * max(1.0, abs(v1))

    def test_singular_shift_rejected(self):
        with pytest.raises(SingularParameterError):
            spec_RS0(CIRCLE, 2.0, 0.7, 1.0)

    @pytest.mark.parametrize("a", [0.0, 1.0, 2.0, -0.3, math.nan])
    @pytest.mark.parametrize("jump", [
        lambda L, a: rs0_eigenvalue(1.0, L, a, 0.3),
        lambda L, a: rs0_eigenvalue_resolvent_form(1.0, L, a, 0.3),
        lambda L, a: spec_RS0(CIRCLE, L, a, 0.3),
    ], ids=["rs0", "resolvent", "spec"])
    def test_cut_outside_the_segment_rejected(self, jump, a):
        with pytest.raises(ValidationError, match="the cut must satisfy 0 < a < L"):
            jump(1.0, a)

    def test_neumann_form_assembly(self):
        # zero-shift determinant: ln2 * zeta(0) - (1/2) ln Det* + pair series
        from zetaglue.cylinder import series_sum

        L, a = 2.0, 0.7
        d = log_det_star_RS0(CIRCLE, L, a, 0.0)
        expect = (
            math.log(2.0) * zeta_point(CIRCLE, 0.0).value
            - 0.5 * log_det_star(CIRCLE).log_modulus
            + series_sum(CIRCLE, L, "robin_pair", alpha=0.0, a=a).value
        )
        assert d.log_modulus == pytest.approx(expect, abs=1e-13)
        assert d.excluded_zero_modes == 1

    def test_jump_det_cut_reflection_symmetry(self):
        # the interface-jump operator is invariant under reflecting the
        # cylinder: (a, alpha) -> (L - a, -alpha)
        for cs in (CIRCLE, FlatTorus(TWO_PI, TWO_PI)):
            da = log_det_star_RS0(cs, 2.0, 0.7, 0.5)
            db = log_det_star_RS0(cs, 2.0, 1.3, -0.5)
            assert da.log_modulus == pytest.approx(db.log_modulus, abs=1e-11)
            assert da.phase_multiple == db.phase_multiple


# The paper's identity ln Det(Robin pair) - ln Det(Dirichlet pair) =
# ln Det Q + b0, b0 = -sum of s_alpha over the Robin ends.  Each pairing
# maps alpha to (geometry, alpha of Q, Robin pair, Dirichlet pair, the
# Robin ends' parameters).
PAIRINGS = {
    "RR-DD": lambda al: ("both_ends", al, (BC.robin(al), BC.robin(al)),
                         (BC.dirichlet(), BC.dirichlet()), (al, al)),
    "RN-DN": lambda al: ("cut_left", al, (BC.robin(al), BC.neumann()),
                         (BC.dirichlet(), BC.neumann()), (al,)),
    "NR-ND": lambda al: ("cut_left", al, (BC.neumann(), BC.robin(al)),
                         (BC.neumann(), BC.dirichlet()), (al,)),
    "cut_right": lambda al: ("cut_right", al, (BC.robin(-al), BC.neumann()),
                             (BC.dirichlet(), BC.neumann()), (-al,)),
    "ND-DD": lambda al: ("left_neumann_cut", 0.0, (BC.neumann(), BC.dirichlet()),
                         (BC.dirichlet(), BC.dirichlet()), ()),
}
# cross-section -> -s_alpha of one Robin end in closed form
IDENTITY_SECTIONS = {
    "point": (POINT, lambda al: 0.0),
    "circle": (CIRCLE, lambda al: -(TWO_PI / math.pi) * al * math.log(2.0)),
    "circle-8.5": (Circle(8.5), lambda al: -(8.5 / math.pi) * al * math.log(2.0)),
    "torus": (FlatTorus(TWO_PI, 3.0), lambda al: TWO_PI * 3.0 / (4.0 * math.pi) * al * al),
}


@pytest.mark.parametrize("section", list(IDENTITY_SECTIONS))
@pytest.mark.parametrize("pairing", list(PAIRINGS))
def test_robin_dirichlet_quotient_is_interface_det_plus_b0(section, pairing):
    cs, closed = IDENTITY_SECTIONS[section]
    heat = heat_coefficients(cs, order=cs.dim // 2)
    for L in (0.8, 1.5, 3.7):
        for al in (-0.3, 0.3, 1.3):
            geometry, q_alpha, robin, dirichlet, ends = PAIRINGS[pairing](al)
            rr = log_det_cylinder(CylinderSpec(cs, L, *robin))
            dd = log_det_cylinder(CylinderSpec(cs, L, *dirichlet))
            q = log_det_interface(spec_interface(cs, geometry, L, q_alpha), cs)
            b0 = b0_constant([(heat, e) for e in ends])
            assert rr.log_det - dd.log_det - q.log_modulus == pytest.approx(b0, abs=1e-12)
            assert rr.phase_multiple - dd.phase_multiple == q.phase_multiple, (L, al)
            for e in ends:
                assert b0_constant([(heat, e)]) == pytest.approx(closed(e), abs=1e-15)
