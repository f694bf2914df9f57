"""Torus lattice zeta from the float64 Ewald split.

The torus goldens (``goldens.json``) are gluing reports and zeta values
of a 103-bit fixed-point Chowla-Selberg (Bessel) pass, which reproduced
the ungrouped (k, n) double sum with mpmath's ``besselk``.  The Ewald
split reaches them in doubles, whose sums regroup by rounding, so each is
held to a bound stated in advance: 1e-13 relative on values, and 1e-13
absolute on residuals, which are differences of the two sides and have
no scale of their own.
"""

import math
import time
from collections import OrderedDict
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest

from goldens import cases, check
from zetaglue import spectra, zreg
from zetaglue.gluing import GluingConfig, glue_robin_check
from zetaglue.spectra import FlatTorus, enumerate_spectrum

TWO_PI = 2.0 * math.pi


# (check, torus, L, a, alpha): the square, aspects 1.5 and 3 and the
# 2 pi x 3 torus, with its Neumann check
@pytest.mark.parametrize("case", cases("torus_reports"))
def test_gluing_reports_bit_identical(case):
    check("torus_reports", "torus_residuals", case=case)


# Tori drawn like the benchmark's torus-shapes stream: aspects 1 to 3,
# areas 3 and 5 with a Robin check at each sign of alpha, and a Neumann
# check at area 4.
@pytest.mark.parametrize("case", cases("wide_torus_reports"))
def test_torus_shapes_reports_bit_identical(case):
    check("wide_torus_reports", "wide_torus_residuals", case=case)


def test_zeta_points_bit_identical():
    # 40 seeded tori of aspect 1 to 8 and area 2 to 6, at every s the
    # library evaluates and five generic ones
    check("zeta_points")


# aspect 8 (shell 1 at e^(-2 pi 8)) and a near-square torus
@pytest.mark.parametrize("case", cases("aspect_torus_reports"))
def test_aspect_robin_reports_bit_identical(case):
    check("aspect_torus_reports", "aspect_torus_residuals", case=case)


# thin tori: aspect 120, 300 and 10^6, whose Poisson sums reach arguments
# of 5e-6 and whose Bessel block was below e^-750
THIN = [(1.0, 120.0), (1.0, 300.0), (1e-3, 1e3)]


def _bessel_free(c1: float, c2: float, s: float) -> float:
    """2 c1^(-2s) zeta(2s) + (2 sqrt(pi)/c1) Gamma(s - 1/2) zeta(2s - 1)/Gamma(s) c2^(1-2s),
    the torus zeta less its Bessel block, at 60 digits and rounded once."""
    with mp.workdps(60):
        s, c1, c2 = mp.mpf(s), mp.mpf(c1), mp.mpf(c2)
        u = s - mp.mpf(0.5)
        # Gamma(u) zeta(2u) is -2 zeta'(-2) at its removable point u = -1
        gz = -2 * mp.zeta(-2, derivative=1) if u == -1 else mp.gamma(u) * mp.zeta(2 * u)
        first = 2 * c1 ** (-2 * s) * mp.zeta(2 * s)
        return float(first + 2 * mp.sqrt(mp.pi) / c1 * gz / mp.gamma(s) * c2 ** (1 - 2 * s))


@pytest.mark.parametrize("ell1, ell2", THIN, ids=[f"{a:g}x{b:g}" for a, b in THIN])
def test_thin_torus_is_its_bessel_free_form(ell1, ell2):
    # the Bessel block is below e^-750 of the total, so every standard value
    # but the pole pair at 1/2 and the pole at 1 is the form, within 1e-13
    cs = FlatTorus(ell1, ell2)
    c1, c2 = 2.0 * math.pi / max(ell1, ell2), 2.0 * math.pi / min(ell1, ell2)
    for s in zreg._STANDARD_S:
        if s not in (0.5, 1.0):
            want = _bessel_free(c1, c2, s)
            assert abs(zreg.zeta_point(cs, s).value - want) <= 1e-13 * abs(want), s


class DoubleSumTorus:
    """Z(s) of a flat torus in mp floats at the working precision, from the
    library's doubles c1 <= c2 and r = c2/c1: the terms of the Chowla-Selberg
    form, with the Bessel block B(s) as the ungrouped (k, n) double sum
    with mp.besselk, summed until a term falls below 10^-digits of the
    total.  Shares no code with the library."""

    digits = 32
    besselk = staticmethod(mp.besselk)

    def __init__(self, cs):
        la, lb = max(cs.ell1, cs.ell2), min(cs.ell1, cs.ell2)
        self.c1, self.c2 = TWO_PI / la, TWO_PI / lb
        self.ratio = self.c2 / self.c1

    def bessel_sum(self, s):
        r, x, tol = mp.mpf(self.ratio), mp.mpf(s) - mp.mpf(0.5), mp.mpf(10) ** -self.digits
        besselk = lru_cache(maxsize=None)(lambda m: self.besselk(x, 2 * mp.pi * r * m))
        total, k = mp.mpf(0), 1
        while True:
            inner, n = mp.mpf(0), 1
            while True:
                term = mp.power(r * k, -x) * mp.power(n, x) * besselk(n * k)
                inner += term
                if abs(term) < tol * abs(total + inner):
                    break
                n += 1
            total += inner
            if abs(inner) < tol * abs(total):
                return total
            k += 1

    def terms(self, s):
        """(terms, residue): the finite part is the sum of the terms, each one
        constant times powers and at most one logarithm or B(s), B last."""
        c1, c2, ss = mp.mpf(self.c1), mp.mpf(self.c2), mp.mpf(s)
        if s == 1.0:
            # pole of zeta_R(2s - 1); residue pi/(c1 c2) = area/(4 pi)
            d1 = 2 * mp.pi / (c1 * c2)
            psi = mp.digamma(mp.mpf(0.5)) - mp.digamma(1)
            return [2 * c1**-2 * mp.zeta(2), d1 * (mp.euler + psi / 2), -d1 * mp.log(c2),
                    8 * mp.pi * c1**-2 * self.bessel_sum(s)], mp.pi / (c1 * c2)
        if s == 0.5:
            # the prefactor pole of Gamma(s - 1/2) cancels the zeta_R(2s) pole
            offset = mp.euler / 2 - mp.log(2 * mp.pi) + mp.digamma(mp.mpf(0.5)) / 2
            return [2 / c1 * mp.euler, -2 / c1 * mp.log(c1), 2 / c1 * offset, 2 / c1 * mp.log(c2),
                    8 / c1 * self.bessel_sum(s)], mp.mpf(0)
        n = 0.5 - s
        if n == round(n) and n >= 1:
            # Gamma(s - 1/2) zeta_R(2s - 1) at a pole of Gamma and a trivial zero
            n = int(round(n))
            gz = 2 * (-1) ** n * mp.zeta(-2 * mp.mpf(n), derivative=1) / mp.factorial(n)
        else:
            gz = mp.gamma(ss - mp.mpf(0.5)) * mp.zeta(2 * ss - 1)
        return [2 * c1 ** (-2 * ss) * mp.zeta(2 * ss),
                2 * mp.sqrt(mp.pi) / c1 * mp.rgamma(ss) * c2 ** (1 - 2 * ss) * gz,
                8 * mp.pi**ss * mp.rgamma(ss) * c1 ** (-2 * ss) * self.bessel_sum(s)], mp.mpf(0)


@lru_cache(maxsize=None)
def trapezoid_besselk(nu, z):
    """K_nu(z) at the working precision from a trapezoid sum in mp floats
    of K_nu(z) = int_0^inf exp(-z cosh t) cosh(nu t) dt.

    On the strip |Im t| <= 1 the trapezoid error of step h is at most
    4 sec(1)^max(nu, 1/2) exp(z (1 - cos 1) - 2 pi / h) relative (Trefethen
    & Weideman, SIAM Rev. 56 (2014), Thm 5.1, with DLMF 10.32.8): below
    1e-44 for the step 1/32, nu <= 7 and z <= 200.  The sum stops once
    z sinh t >= nu + 32 and a summand is below mp.eps of the sum.
    """
    nu, h = abs(nu), mp.mpf(1) / 32
    total, j = mp.mpf(0.5), 1  # with e^-z taken out
    while True:
        t = j * h
        term = mp.exp(-z * (mp.cosh(t) - 1)) * mp.cosh(nu * t)
        total += term
        if z * mp.sinh(t) >= nu + 32 and term < mp.eps * total:
            return h * mp.exp(-z) * total
        j += 1


class TrapezoidDoubleSum(DoubleSumTorus):
    """The double sum with K_nu from ``trapezoid_besselk``.

    mp.besselk takes 0.1 to 0.3 s per integer order at 60 digits for z
    between about 12 and 95, which puts a 60-digit double sum at 10 to 20 s
    per torus.
    """

    besselk = staticmethod(trapezoid_besselk)


@pytest.mark.parametrize("aspect", [1.0, 1.5, 2.5, 3.0, 8.0, 12.0, 40.0])
def test_point_within_stated_bound_of_double_sum(aspect):
    # every standard s and three generic ones within 1e-14 relative of the
    # Chowla-Selberg double sum, and the residue at s = 1 within 1e-15; at
    # aspects 12 and 40 the smallest Poisson argument, 5 / aspect, is below
    # the 1/2 where E1 leaves its continued fraction for its series
    cs = FlatTorus(1.1, 1.1 * aspect)
    reference = TrapezoidDoubleSum(cs)
    reference.digits = 20
    with mp.workdps(25):
        for s in zreg._STANDARD_S + (0.3, 2.7, -1.3):
            terms, residue = reference.terms(s)
            got = zreg.zeta_point(cs, s)
            assert abs(got.value - mp.fsum(terms)) <= 1e-14 * abs(mp.fsum(terms)), s
            assert abs(got.residue - residue) <= 1e-15 * residue, s


def test_trapezoid_reference_matches_besselk():
    # where mp.besselk is fast: half-integer orders, and z past its slow range
    with mp.workdps(60):
        for nu, z in [(0.5, TWO_PI), (3.5, TWO_PI), (0, 40 * TWO_PI / 2), (1, 20 * TWO_PI),
                      (2.2, 20 * TWO_PI), (7, 20 * TWO_PI), (0.2, 32 * TWO_PI)]:
            nu, z = mp.mpf(nu), mp.mpf(z)
            ref = mp.besselk(nu, z)
            assert abs(trapezoid_besselk(nu, z) - ref) <= 1e-44 * ref, (nu, z)


def count_calls(monkeypatch, name):
    """Record the arguments of every call of zreg.<name>."""
    calls = []
    real = getattr(zreg, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(zreg, name, spy)
    return calls


def test_standard_set_is_one_pass_without_besselk(monkeypatch):
    # the first standard s fills all 16: one ladder pass over both sides,
    # E1 once per Poisson point, no general fraction and no Bessel function
    ladders = count_calls(monkeypatch, "_standard_gammas")
    fractions = count_calls(monkeypatch, "_scaled_gamma")
    e1 = count_calls(monkeypatch, "_e1")
    monkeypatch.setattr(mp, "besselk", None)
    backend = zreg._TorusBackend(FlatTorus(2.0, 2.0 * 1.7))
    for s in zreg._STANDARD_S:
        backend.point(s)
    assert len(ladders) == 1 and fractions == []
    assert len(e1) == ladders[0][1].size


class _NoMpmath:
    def __getattr__(self, name):
        raise AssertionError(f"mp.{name} on a torus table or row")


def test_cold_standard_table_does_no_mpf_arithmetic(monkeypatch):
    # the torus table and its truncated rows, on the table's split (mu0 = 1)
    # and on splits of their own (alpha = 3.05 and 10), call no mpmath
    # function and read no global precision
    cs, splits = FlatTorus(TWO_PI, 3.0), (1.0, 37.21, 400.0)
    monkeypatch.setattr(zreg, "mp", _NoMpmath())
    backend = zreg._TorusBackend(cs)
    points = [backend.point(s) for s in zreg._STANDARD_S]
    rows = [zreg._truncated_row(cs, mu0, backend)[2] for mu0 in splits]
    monkeypatch.undo()
    with mp.workdps(15):
        again = zreg._TorusBackend(cs)
        assert [again.point(s) for s in zreg._STANDARD_S] == points
        assert [zreg._truncated_row(cs, mu0, again)[2] for mu0 in splits] == rows


def test_cold_robin_check_is_one_pass_and_one_row(monkeypatch):
    passes = count_calls(monkeypatch, "_standard_gammas")
    rows = []
    real_row = zreg._truncated_row

    def truncated_row(cs, mu0, backend):
        rows.append(mu0)
        return real_row(cs, mu0, backend)

    monkeypatch.setattr(zreg, "_truncated_row", truncated_row)
    monkeypatch.setattr(zreg, "_backend_cache", OrderedDict())  # every backend cold
    cs = FlatTorus(2.0, 3.4)
    rep = glue_robin_check(GluingConfig(cs, 2.2, 1.1, -0.4))
    assert rep.residual < 1e-12
    # alpha and -alpha (the interface determinant) share the row at mu0 = 1,
    # which sums the table's own terms above mu0
    assert sorted(zreg._get_backend(cs).shifted) == [-0.4, 0.4]
    assert len(passes) == 1 and rows == [1.0]


def ewald_row(cs, mu0, tau, cut=45):
    """zeta_{>mu0}(k/2) + 2 H_(k-1) res for k = 1..15 from the Ewald split
    at tau, in mp floats at the working precision, with both sums cut at
    argument ``cut``: the upper gammas by the ladders from erfc and exp, the
    low modes' gamma(s, x) by its series, the Poisson side by mp.gammainc.
    Shares no code with the library."""
    res = mp.mpf(cs.ell1) * cs.ell2 / (4 * mp.pi)
    tau = mp.mpf(tau)
    ss = [mp.mpf(k) / 2 for k in range(1, 16)]
    f = [mp.mpf(0)] * 15
    for e in enumerate_spectrum(cs, float(cut / tau)):
        if e.eigenvalue == 0:
            continue
        mu = mp.mpf(e.eigenvalue)
        x = tau * mu
        ex, rmu = mp.exp(-x), 1 / mp.sqrt(mu)
        if e.eigenvalue > mu0:
            g = [mp.sqrt(mp.pi) * mp.erfc(mp.sqrt(x)), ex]
            power = [mp.sqrt(x) * ex, x * ex]  # x^a e^-x at a = 1/2, 1
            for k in range(3, 16):
                g.append(ss[k - 3] * g[k - 3] + power[k - 3])
                power.append(power[k - 3] * x)
        else:
            # minus gamma(s, x) = x^s e^-x sum_n x^n / (s (s + 1) ... (s + n))
            g = []
            for s in ss:
                term = total = 1 / s
                n = 1
                while term > mp.eps * total:
                    term *= x / (s + n)
                    total += term
                    n += 1
                g.append(-(x**s) * ex * total)
        weight = e.multiplicity
        for i in range(15):
            weight *= rmu
            f[i] += weight * g[i]
    l1, l2 = mp.mpf(cs.ell1), mp.mpf(cs.ell2)
    reach = math.sqrt(4 * cut * float(tau))
    for m in range(-int(reach / cs.ell1) - 1, int(reach / cs.ell1) + 2):
        for n in range(-int(reach / cs.ell2) - 1, int(reach / cs.ell2) + 2):
            r2 = (m * l1) ** 2 + (n * l2) ** 2
            if r2 and r2 / (4 * tau) <= cut:
                for i, s in enumerate(ss):
                    f[i] += res * (r2 / 4) ** (s - 1) * mp.gammainc(1 - s, r2 / (4 * tau))
    out = []
    for i, s in enumerate(ss):
        if s == 1:
            out.append(f[i] + res * mp.log(tau) - tau + (mp.euler + 2) * res)
        else:
            out.append((f[i] + res * tau ** (s - 1) / (s - 1) - tau**s / s) / mp.gamma(s))
    return out


# where the fixed-point row refused (|alpha| >= 3.05 on the 2 pi x 3 torus);
# -5 and -10 lie in the sqrt-spectrum (eigenvalues 25 and 100), so the
# negative shifts are -5.5 and -10.5
LARGE_ALPHAS = [3.05, -3.05, 5.0, -5.5, 10.0, -10.5, 20.0, 30.0]


@pytest.mark.parametrize("alpha", LARGE_ALPHAS)
def test_large_alpha_on_a_torus_is_answered_cold(monkeypatch, alpha):
    monkeypatch.setattr(zreg, "_backend_cache", OrderedDict())
    monkeypatch.setattr(spectra, "_listing_cache", OrderedDict())
    cs = FlatTorus(TWO_PI, 3.0)
    start = time.perf_counter()
    det = zreg.log_det_shifted(cs, alpha)
    assert time.perf_counter() - start < 0.5
    assert math.isfinite(det.log_modulus)


@pytest.mark.parametrize("alpha", [0.3, 3.05, 5.0, 10.0])
def test_truncated_row_matches_30_digit_split(alpha):
    # each value within 1e-14 relative of the same split at 30 digits: the
    # rows alpha and -alpha share, on the table's split (0.3) and on 1/mu0
    cs = FlatTorus(TWO_PI, 3.0)
    mu0 = max(4.0 * alpha * alpha, 1.0)
    backend = zreg._TorusBackend(cs)
    low, _, zetas = zreg._truncated_row(cs, mu0, backend)
    with mp.workdps(30):
        want = ewald_row(cs, mu0, min(backend.tau, 1.0 / mu0))
    for k, (got, ref) in enumerate(zip(zetas, want), 1):
        assert abs(got - ref) <= 1e-14 * abs(ref), k


def test_large_alpha_row_matches_direct_sums():
    # k >= 10 at alpha = 20 (mu0 = 1600): the modes up to X = 10^6 summed
    # directly, plus the Weyl tail A X^(1-s) / (4 pi (s - 1)) beyond X, which
    # is below 1e-10 of the row and within 1e-4 of its own value there
    cs = FlatTorus(TWO_PI, 3.0)
    mu0, top = 1600.0, 1e6
    _, _, zetas = zreg._truncated_row(cs, mu0, zreg._TorusBackend(cs))
    c1, c2 = 1.0, TWO_PI / 3.0
    j, k = np.arange(int(math.sqrt(top) / c1) + 1), np.arange(int(math.sqrt(top) / c2) + 1)
    mu = (c1 * j[:, None]) ** 2 + (c2 * k) ** 2
    weight = np.where(j > 0, 2.0, 1.0)[:, None] * np.where(k > 0, 2.0, 1.0)
    keep = (mu > mu0) & (mu <= top)
    mu, weight = mu[keep], weight[keep]
    area = TWO_PI * 3.0
    for k in range(10, zreg._KORDER):
        s = k / 2.0
        want = math.fsum(weight * mu**-s) + area * top ** (1.0 - s) / (4.0 * math.pi * (s - 1.0))
        assert abs(zetas[k - 1] - want) <= 1e-14 * want, k
