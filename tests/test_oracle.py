"""Root-finding oracle vs the closed-form segment determinants."""

import hashlib
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from zetaglue import cli, oracle
from zetaglue.cylinder import DIRICHLET, NEUMANN, ROBIN, CylinderSpec, log_det_cylinder
from zetaglue.cylinder import BoundaryCondition as BC
from zetaglue.errors import ValidationError
from zetaglue.oracle import SecularProblem, relative_log_det, segment_eigenvalues
from zetaglue.spectra import Point


def closed_log_det(L, bl, br):
    return log_det_cylinder(CylinderSpec(Point(), L, bl, br)).log_det


def scalar_secular_function(p):
    """The oracle's secular function g(k) on one float, through ``math``."""
    L = p.length
    kl, kr = p.bc_left, p.bc_right
    if (kl.kind, kr.kind) == (ROBIN, ROBIN):
        al, ar = kl.alpha, kr.alpha
        return lambda k: (k * k - al * ar) * math.sin(k * L) - k * (al + ar) * math.cos(k * L)
    a = kl.alpha if kl.kind == ROBIN else kr.alpha
    if DIRICHLET in (kl.kind, kr.kind):
        return lambda k: k * math.cos(k * L) + a * math.sin(k * L)
    return lambda k: a * math.cos(k * L) - k * math.sin(k * L)


def scalar_scan_eigenvalues(p, count):
    """Reference: the root search one sample and one cell at a time, each
    bracket refined by scipy's brentq at xtol = rtol = 1e-15."""
    if ROBIN not in (p.bc_left.kind, p.bc_right.kind):
        # k = j pi / L from j = 1 (D/D), 1/2 (N/D and D/N) or 0 (N/N)
        first = 1.0 - 0.5 * [p.bc_left.kind, p.bc_right.kind].count(NEUMANN)
        return [((first + j) * math.pi / p.length) ** 2 for j in range(count)]
    g = scalar_secular_function(p)
    cell = math.pi / p.length
    roots = []
    j = 0
    while len(roots) < count:
        lo, hi = j * cell, (j + 1) * cell
        n_scan = 24
        prev_t = lo + (1e-12 if j == 0 else 0.0) * cell
        prev_v = g(prev_t)
        for i in range(1, n_scan + 1):
            t = lo + (hi - lo) * i / n_scan
            v = g(t)
            if prev_v == 0.0:
                roots.append(prev_t)
            elif v != 0.0 and (prev_v < 0.0) != (v < 0.0):
                assert g(prev_t) * g(t) < 0.0
                roots.append(brentq(g, prev_t, t, xtol=1e-15, rtol=1e-15, maxiter=200))
            prev_t, prev_v = t, v
        j += 1
        assert j <= 10 * count + 100
    return [k * k for k in roots[:count]]


def scan_digest(ref):
    """SHA-256 of a reference scan's eigenvalues, each by float.hex."""
    return hashlib.sha256(",".join(float.hex(v) for v in ref).encode()).hexdigest()


def assert_within_brent_tolerance(got, ref):
    """Each frequency k = sqrt(mu) within brentq's stopping rule plus one
    bisection ulp of the reference: 1e-15 (1 + k_ref) + 2 ulp(k_ref)."""
    assert len(got) == len(ref)
    for mu, mu_ref in zip(got, ref):
        k, k_ref = math.sqrt(mu), math.sqrt(mu_ref)
        assert abs(k - k_ref) <= 1e-15 * (1.0 + k_ref) + 2.0 * math.ulp(k_ref), (mu, mu_ref)


PAIRS = {
    "RR": lambda a: (BC.robin(a), BC.robin(a)),
    "NR": lambda a: (BC.neumann(), BC.robin(a)),
    "RN": lambda a: (BC.robin(a), BC.neumann()),
    "DR": lambda a: (BC.dirichlet(), BC.robin(a)),
    "RD": lambda a: (BC.robin(a), BC.dirichlet()),
    # unequal Robin ends: (0.25, 0.9) at alpha = 0.25, (1e-3, 3) at alpha = 3
    "RRx": lambda a: (BC.robin(a), BC.robin(3.6 * a)),
    "RlR": lambda a: (BC.robin(1e-3), BC.robin(a)),
}


# the oracle checks of the benchmark's sweep: R/R over D/D at count 1024,
# so segment_eigenvalues(p, 1026)
BENCH_ALPHAS = (0.25, 0.5, 0.9)
BENCH_LENGTHS = (1.0, 1.5, 2.0, 2.5, 3.0)
BENCH_COUNT = 1026


def cases(alphas, lengths, pairs=sorted(PAIRS), count=300):
    """(pair, alpha, L, count) over a grid; at count 300 the ids are those
    of stacked pair, alpha and L parametrizations."""
    tag = "" if count == 300 else f"-{count}"
    return [
        pytest.param(pair, alpha, L, count, id=f"{L}-{alpha}-{pair}{tag}")
        for L in lengths
        for alpha in alphas
        for pair in pairs
    ]


def counted_evaluations(monkeypatch, name="_secular_function"):
    """Spy on ``oracle._secular_function`` (or ``_phase_function``): the
    shape of every array that an evaluation of g (with or without its
    slope), or of the phase, receives, in order."""
    shapes = []
    factory = getattr(oracle, name)

    def counting(p):
        f = factory(p)

        def counted(k, *args):
            shapes.append(np.shape(k))
            return f(k, *args)

        return counted

    monkeypatch.setattr(oracle, name, counting)
    return shapes


class TestSegmentEigenvalues:
    @pytest.mark.parametrize(
        "pair,alpha,L,count",
        cases((0.0, 0.25, 0.9, 3.0), (1.0, 2.5)) + cases((0.5,), (1.5,), ["RD"], BENCH_COUNT),
    )
    def test_matches_scalar_scan(self, pair, alpha, L, count):
        p = SecularProblem(L, *PAIRS[pair](alpha))
        assert_within_brent_tolerance(segment_eigenvalues(p, count), scalar_scan_eigenvalues(p, count))

    @pytest.mark.parametrize(
        "pair,alpha,L,count",
        cases((0.25, 0.9, 3.0), (1.0, 2.5)) + cases((0.9,), (3.0,), count=BENCH_COUNT),
    )
    def test_each_root_is_certified_by_a_sign_change(self, pair, alpha, L, count):
        # each k is an exact zero of g, or g changes sign between k and a
        # neighbouring float whose |g| is no smaller; sqrt recovers k from
        # mu = k * k exactly
        p = SecularProblem(L, *PAIRS[pair](alpha))
        g = oracle._secular_function(p)
        for mu in segment_eigenvalues(p, count):
            k = math.sqrt(mu)
            assert k * k == mu
            below, at, above = g(np.array([math.nextafter(k, 0.0), k, math.nextafter(k, math.inf)]))
            across = [v for v in (below, above) if (v < 0.0) != (at < 0.0)]
            assert at == 0.0 or any(abs(at) <= abs(v) for v in across), k

    @pytest.mark.parametrize("pair,alpha,L,count", cases(BENCH_ALPHAS, BENCH_LENGTHS, ["NR", "RD", "RR"], BENCH_COUNT))
    def test_roots_take_at_most_12_evaluations(self, pair, alpha, L, count, monkeypatch):
        # at most 4 evaluations of the phase place the count + 1 bracket
        # ends, g is evaluated once there, then the Newton phase: 7 to 11
        # evaluations of g in all (measured), where bisection took about 49
        shapes = counted_evaluations(monkeypatch)
        phases = counted_evaluations(monkeypatch, "_phase_function")
        segment_eigenvalues(SecularProblem(L, *PAIRS[pair](alpha)), count)
        assert shapes[0] == (count + 1,)
        assert len(shapes) <= 12, shapes
        assert len(phases) <= 4, phases

    @pytest.mark.parametrize("pair,alpha,L,count", cases((1e-3,), (0.1, 1.0), ["NR", "RD", "RR"], BENCH_COUNT))
    def test_small_alpha_roots_take_at_most_20_evaluations(self, pair, alpha, L, count, monkeypatch):
        # the first root sits near k = sqrt(2 alpha / L), where g is nearly
        # cubic in k; 8 to 19 evaluations of g measured
        shapes = counted_evaluations(monkeypatch)
        segment_eigenvalues(SecularProblem(L, *PAIRS[pair](alpha)), count)
        assert len(shapes) <= 20, shapes

    def test_half_decade_alpha_sweep_keeps_every_root_in_its_cell(self):
        # tiny alpha puts each root within rounding of its cell's lower end,
        # where brackets taken from the cells lose or repeat roots; each
        # list must ascend strictly, root n must lie in the n-th pi/L cell
        # (a rounded product, so up to one ulp of k below it) and each root
        # must keep its sign change, as in the certificate test
        n = np.arange(1, BENCH_COUNT + 1)
        for alpha in 10.0 ** (np.arange(-40, 21) / 2):
            for L in (0.3, 1.0, 2.5):
                for pair in ("RR", "NR", "RD"):
                    p = SecularProblem(L, *PAIRS[pair](alpha))
                    k = np.sqrt(oracle._eigenvalues(p, BENCH_COUNT))
                    where = (pair, L, alpha)
                    assert np.all(np.diff(k) > 0.0), where
                    assert np.all((n - 1) * math.pi / L <= np.nextafter(k, math.inf)), where
                    assert np.all(k <= n * math.pi / L), where
                    below, at, above = oracle._secular_function(p)(
                        np.stack([np.nextafter(k, 0.0), k, np.nextafter(k, math.inf)])
                    )
                    across = [((v < 0.0) != (at < 0.0)) & (np.abs(at) <= np.abs(v)) for v in (below, above)]
                    assert np.all((at == 0.0) | across[0] | across[1]), where

    def test_dirichlet_pair(self):
        got = segment_eigenvalues(SecularProblem(1.0, BC.dirichlet(), BC.dirichlet()), 3)
        assert got == pytest.approx(
            [math.pi**2, 4 * math.pi**2, 9 * math.pi**2], rel=1e-14
        )

    def test_neumann_pair_includes_zero(self):
        got = segment_eigenvalues(SecularProblem(1.0, BC.neumann(), BC.neumann()), 3)
        assert got == pytest.approx([0.0, math.pi**2, 4 * math.pi**2], rel=1e-14)

    def test_mixed_pair(self):
        got = segment_eigenvalues(SecularProblem(2.0, BC.neumann(), BC.dirichlet()), 2)
        assert got == pytest.approx(
            [(0.5 * math.pi / 2.0) ** 2, (1.5 * math.pi / 2.0) ** 2], rel=1e-14
        )

    def test_robin_roots_satisfy_secular_equation(self):
        L, alpha = 1.0, 1.0
        ev = segment_eigenvalues(SecularProblem(L, BC.robin(alpha), BC.robin(alpha)), 12)
        for mu in ev:
            k = math.sqrt(mu)
            g = (k * k - alpha * alpha) * math.sin(k * L) - 2 * alpha * k * math.cos(k * L)
            assert abs(g) < 1e-9 * max(1.0, k * k)

    def test_robin_interlaces_and_gap_decays(self):
        L, alpha = 1.0, 1.0
        n = 64
        ev = segment_eigenvalues(SecularProblem(L, BC.robin(alpha), BC.robin(alpha)), n)
        ks = [math.sqrt(v) for v in ev]
        # root j sits in ((j-1) pi / L, j pi / L) and approaches the left
        # endpoint like 1/k: the scaled gap stabilises
        gaps = []
        for j, k in enumerate(ks, start=1):
            assert (j - 1) * math.pi / L < k < j * math.pi / L
            gaps.append((k - (j - 1) * math.pi / L) * k)
        assert abs(gaps[-1] - 2.0 * alpha) < 0.05  # gap ~ 2 alpha / k

    def test_weyl_count(self):
        lam = (40.0 * math.pi) ** 2
        ev = segment_eigenvalues(SecularProblem(1.0, BC.robin(1.0), BC.robin(1.0)), 50)
        below = sum(1 for v in ev if v <= lam)
        weyl = math.sqrt(lam) / math.pi
        assert abs(below - weyl) <= 2

    def test_rejects_negative_robin(self):
        with pytest.raises(ValidationError):
            SecularProblem(1.0, BC.robin(-1.0), BC.robin(-1.0))

    def test_rejects_robin_below_1e_150(self):
        # below it g underflows to an exact zero at a bracket end
        SecularProblem(1.0, BC.neumann(), BC.robin(1e-150))
        with pytest.raises(ValidationError):
            SecularProblem(1.0, BC.neumann(), BC.robin(1e-151))

    def test_rejects_a_count_above_a_million(self):
        # refused before any array is built, so this allocates nothing
        p = SecularProblem(1.0, BC.robin(1.0), BC.robin(1.0))
        ref = SecularProblem(1.0, BC.dirichlet(), BC.dirichlet())
        for call in (lambda: segment_eigenvalues(p, 10**12), lambda: relative_log_det(p, ref, 10**12)):
            with pytest.raises(ValidationError, match="count"):
                call()
        code, rep = cli.run({"command": "oracle-compare", "length": 1.0, "alpha": 1.0, "count": 10**12})
        assert code == cli.EXIT_VALIDATION, rep


class TestRelativeLogDet:
    def test_self_relative_is_zero(self):
        p = SecularProblem(1.0, BC.dirichlet(), BC.dirichlet())
        assert relative_log_det(p, p, count=512).value == 0.0

    @pytest.mark.parametrize("L,alpha", [(1.0, 1.0), (2.0, 0.5), (0.5, 2.0)])
    def test_robin_vs_dirichlet_closed_forms(self, L, alpha):
        p = SecularProblem(L, BC.robin(alpha), BC.robin(alpha))
        ref = SecularProblem(L, BC.dirichlet(), BC.dirichlet())
        rel = relative_log_det(p, ref, count=4096)
        expect = closed_log_det(L, BC.robin(alpha), BC.robin(alpha)) - closed_log_det(
            L, BC.dirichlet(), BC.dirichlet()
        )
        assert abs(rel.value - expect) < 1e-6

    def test_neumann_zero_mode_reconciliation(self):
        p = SecularProblem(1.0, BC.neumann(), BC.neumann())
        ref = SecularProblem(1.0, BC.dirichlet(), BC.dirichlet())
        rel = relative_log_det(p, ref, count=1024)
        assert rel.zero_modes == (1, 0)
        # modified determinant of N/N equals the D/D determinant here
        assert rel.value == pytest.approx(0.0, abs=1e-9)

    def test_neumann_robin_vs_dirichlet(self):
        p = SecularProblem(1.0, BC.neumann(), BC.robin(1.0))
        ref = SecularProblem(1.0, BC.dirichlet(), BC.dirichlet())
        rel = relative_log_det(p, ref, count=4096)
        expect = closed_log_det(1.0, BC.neumann(), BC.robin(1.0)) - closed_log_det(
            1.0, BC.dirichlet(), BC.dirichlet()
        )
        assert abs(rel.value - expect) < 1e-6

    def test_half_counting_mismatch_rejected(self):
        p = SecularProblem(1.0, BC.neumann(), BC.dirichlet())
        ref = SecularProblem(1.0, BC.dirichlet(), BC.dirichlet())
        with pytest.raises(ValidationError):
            relative_log_det(p, ref, count=512)

    def test_lengths_must_match(self):
        p = SecularProblem(1.0, BC.dirichlet(), BC.dirichlet())
        ref = SecularProblem(2.0, BC.dirichlet(), BC.dirichlet())
        with pytest.raises(ValidationError):
            relative_log_det(p, ref, count=512)

    def test_pairing_ratio_decay(self):
        # |ln ratio_k| <= C / k^2 empirically once the lists are aligned
        L, alpha = 1.0, 1.0
        n = 2000
        ev_p = segment_eigenvalues(SecularProblem(L, BC.robin(alpha), BC.robin(alpha)), n + 1)
        ev_r = segment_eigenvalues(SecularProblem(L, BC.dirichlet(), BC.dirichlet()), n)
        ratios = [math.log(a / b) for a, b in zip(ev_p[1:], ev_r)]
        fitted_c = max(abs(r) * (k + 1) ** 2 for k, r in enumerate(ratios))
        assert fitted_c < 5.0
        assert abs(ratios[-1]) < 5.0 / n**2

    @pytest.mark.parametrize("count", [256, 1024, 4096])
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.9, 3.0])
    @pytest.mark.parametrize("L", [1.0, 1.5, 2.0, 2.5, 3.0])
    def test_error_estimate_bounds_the_distance_from_the_closed_form(self, L, alpha, count):
        # R/R over D/D against ln(alpha (L alpha + 2) / L), and N/R over D/D
        # against the closed-form cylinders on the point; the worst
        # distance is 0.045 of the estimate (L = 3, alpha = 3, count 256)
        dd = SecularProblem(L, BC.dirichlet(), BC.dirichlet())
        rr = relative_log_det(SecularProblem(L, BC.robin(alpha), BC.robin(alpha)), dd, count)
        assert abs(rr.value - math.log(alpha * (L * alpha + 2.0) / L)) <= rr.error_estimate
        nr = relative_log_det(SecularProblem(L, BC.neumann(), BC.robin(alpha)), dd, count)
        expect = closed_log_det(L, BC.neumann(), BC.robin(alpha)) - closed_log_det(L, BC.dirichlet(), BC.dirichlet())
        assert abs(nr.value - expect) <= nr.error_estimate

    @pytest.mark.parametrize("L", [1.0, 2.5])
    @pytest.mark.parametrize("alpha", [1e-26, 1e-30, 1e-100])
    def test_tiny_robin_parameters_keep_their_first_root(self, L, alpha):
        # the first root k ~ sqrt(2 alpha / L) lies far below pi / L, and
        # its eigenvalue 2 alpha / L is positive, not a zero mode
        dd = SecularProblem(L, BC.dirichlet(), BC.dirichlet())
        rel = relative_log_det(SecularProblem(L, BC.robin(alpha), BC.robin(alpha)), dd, 1024)
        assert rel.zero_modes == (0, 0)
        assert abs(rel.value - math.log(alpha * (L * alpha + 2.0) / L)) <= 1e-12

    def test_extrapolated_values_cauchy_beyond_1e3(self):
        # the extrapolated relative determinants stabilise to 1e-8 once
        # more than ~10^3 eigenvalues enter the partial sums
        p = SecularProblem(1.0, BC.robin(1.0), BC.robin(1.0))
        ref = SecularProblem(1.0, BC.dirichlet(), BC.dirichlet())
        v1 = relative_log_det(p, ref, count=2048).value
        v2 = relative_log_det(p, ref, count=8192).value
        assert abs(v1 - v2) < 1e-8
