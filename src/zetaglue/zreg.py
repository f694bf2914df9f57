"""Zeta-regularization engine.

Computes values, residues and finite parts of spectral zeta functions of
the cross-section Laplacian, together with the two regularized
determinants the cylinder formulas consume:

* ``log_det_star(cs)``      -- ln Det* of the Laplacian (zero modes excluded),
* ``log_det_shifted(cs, a)`` -- ln Det of (sqrt(Laplacian) + a), zero modes
  included (they contribute factors of ``a``).

Two interchangeable backends are provided.  The closed-form backend
reduces the point, circle and flat-torus cases to Riemann-zeta and
lattice (Bessel-sum) evaluations.  The numeric backend performs a Mellin
split of the zeta integral at ``t = T``: the small-t integrand is the
heat-expansion model (whose power terms continue in closed form) plus a
numerically integrated exponentially small correction, and the large-t
side is the truncated spectral sum with a certified tail bound.
Branch bookkeeping: logarithms of negative factors contribute
``ln|x| + i*pi``; the integer pi-multiples are stored separately so
identities can be compared modulo 2*pi*i exactly.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath as mp
import numpy as np
from mpmath.libmp import to_fixed
from mpmath.libmp.libelefun import exp_fixed, ln2_fixed

from .errors import (
    ConvergenceError,
    InsufficientSpectrumError,
    SingularParameterError,
    ValidationError,
)
from .special import EULER_GAMMA, harmonic, hurwitz_zeta_sderiv
from .spectra import (
    Circle,
    CrossSection,
    ExplicitSpectrum,
    FlatTorus,
    Point,
    enumerate_spectrum,
    heat_coefficients,
    heat_tail_bound,
    kernel_dim,
)

__all__ = [
    "ZetaPoint",
    "RegularizedDet",
    "zeta_point",
    "zeta_derivative0",
    "log_det_star",
    "log_det_shifted",
    "signed_log",
    "power_tail_bound",
]

_DPS = 30


@dataclass(frozen=True)
class ZetaPoint:
    """Finite part (and residue, when at a pole) of a spectral zeta function."""

    location: float
    value: float
    residue: float = 0.0


@dataclass(frozen=True)
class RegularizedDet:
    """A log-determinant with separate branch bookkeeping.

    ``log_modulus`` is the real part; ``phase_multiple`` counts the exact
    integer multiples of pi contributed by logarithms of negative factors.
    When every regularized eigenvalue is a positive real, the phase is 0.
    """

    log_modulus: float
    phase_multiple: int = 0
    excluded_zero_modes: int = 0


def signed_log(x: float):
    """(ln|x|, phase) with phase = 1 for negative x; rejects x = 0."""
    if x == 0.0:
        raise SingularParameterError("logarithm of a zero factor")
    return math.log(abs(x)), (1 if x < 0.0 else 0)


# ----------------------------------------------------------------------------
# power-law tail bounds (used by the shifted-determinant series route)
# ----------------------------------------------------------------------------


def power_tail_bound(cs: CrossSection, lam: float, p: float) -> float:
    """Upper bound on sum_{mu > lam} m_j mu_j^{-p} for p > cross_dim/2.

    Integral bounds on the eigenvalue counting function with a factor-2
    safety margin on the Weyl term.
    """
    if isinstance(cs, Point):
        return 0.0
    if p <= cs.dim / 2.0:
        raise ValidationError("power tail bound requires p > cross_dim/2")
    if isinstance(cs, Circle):
        c = cs.wavenumber
        k0 = int(math.floor(math.sqrt(max(lam, 0.0)) / c)) + 1
        return 2.0 * c ** (-2.0 * p) * (
            k0 ** (-2.0 * p) + k0 ** (1.0 - 2.0 * p) / (2.0 * p - 1.0)
        )
    if isinstance(cs, FlatTorus):
        c1 = 2.0 * math.pi / cs.ell1
        c2 = 2.0 * math.pi / cs.ell2
        area = 2.0 * math.pi / (c1 * c2)  # 2x safety on the Weyl slope
        perim = 2.0 * (1.0 / c1 + 1.0 / c2)
        const = 9.0
        lam = max(lam, 1e-12)
        return (
            area * p / (p - 1.0) * lam ** (1.0 - p)
            + perim * p / (p - 0.5) * lam ** (0.5 - p)
            + const * lam ** (-p)
        )
    if isinstance(cs, ExplicitSpectrum):
        stored = math.fsum(
            e.multiplicity * e.eigenvalue ** (-p)
            for e in cs.entries
            if e.eigenvalue > lam
        )
        from .spectra import _weyl_density_scale

        pref, d = _weyl_density_scale(cs)
        start = max(lam, cs.max_eigenvalue, 1e-12)
        model = pref * start ** (d / 2.0 - p) / (p - d / 2.0) if pref else 0.0
        return stored + model
    raise ValidationError(f"unknown cross-section type {type(cs).__name__}")


# ----------------------------------------------------------------------------
# closed-form backends
# ----------------------------------------------------------------------------


class _PointBackend:
    """Zero-excluded zeta of the Laplacian on a point: the empty sum."""

    achieved = 0.0

    def point_mp(self, s: float):
        return mp.mpf(0), mp.mpf(0)

    def point(self, s: float) -> ZetaPoint:
        return ZetaPoint(s, 0.0, 0.0)

    def derivative0(self) -> float:
        return 0.0


class _CircleBackend:
    """zeta(s) = 2 (2*pi/ell)^(-2s) zeta_R(2s) over the nonzero circle modes."""

    achieved = 1e-15

    def __init__(self, cs: Circle):
        self.c = cs.wavenumber
        self.ell = cs.circumference
        self._points: dict = {}

    def point_mp(self, s: float):
        """(finite part, residue) as mpmath values at the working precision."""
        c = mp.mpf(self.c)
        if s == 0.5:
            # zeta_R(2s) has its pole here: residue 1/c, finite part from
            # the gamma-free Laurent expansion of the prefactor
            return 2 / c * (mp.euler - mp.log(c)), 1 / c
        ss = mp.mpf(s)
        return 2 * mp.power(c, -2 * ss) * mp.zeta(2 * ss), mp.mpf(0)

    def point(self, s: float) -> ZetaPoint:
        hit = self._points.get(s)
        if hit is None:
            with mp.workdps(_DPS):
                val, res = self.point_mp(s)
                hit = self._points[s] = ZetaPoint(s, float(val), float(res))
        return hit

    def derivative0(self) -> float:
        return -2.0 * math.log(self.ell)


# Every s at which the library evaluates a torus zeta: -1/2 for the
# cylinder heat constant and k/2, k = 1..15, for the binomial series of
# log_det_shifted.  Their Bessel orders |s - 1/2| are 0, 1/2, 1, ..., 7.
_STANDARD_S = (-0.5,) + tuple(k / 2.0 for k in range(1, 16))


class _BesselK:
    """K_nu(z) at a fixed set of real orders from two trapezoid sums per class.

    For z > 0 and real nu, K_nu(z) = int_0^inf exp(-z cosh t) cosh(nu t) dt.
    The integrand f is even in t, so on the nodes t_j = j h the trapezoid
    rule reads h (f(0)/2 + sum_{j>=1} f(t_j)).

    Orders.  The orders are grouped by their residue mod 1.  In each class
    only the lowest order nu0 and nu0 + 1 are integrated; the others follow
    from K_{nu+1} = K_{nu-1} + (2 nu / z) K_nu (DLMF 10.29.1), whose terms
    are all positive.  The relative error of a sum of positive terms is at
    most the largest relative error of its terms, so K_{nu0+n} is within
    the error of the two integrated orders plus the roundings of n steps.
    Below, nu* is the largest integrated order.

    Step.  On the strip |Im t| <= a < pi/2,
    |f(x + ib)| <= exp(-z cos(a) cosh x) cosh(nu x), so the line integral
    of |f| is at most 2 K_nu(z cos a), and the trapezoid error is at most
    2 K_nu(z cos a) / (exp(2 pi a / h) - 1) (Trefethen & Weideman, SIAM
    Rev. 56 (2014), Thm 5.1).  From the integral of DLMF 10.32.8,
    K_nu(y) <= (z/y)^max(|nu|, 1/2) e^(z-y) K_nu(z) for 0 < y <= z, so the
    relative error is at most

        4 sec(a)^max(nu*, 1/2) exp(z (1 - cos a) - 2 pi a / h).

    A grid takes the largest step h = 2^(-k/2) for which some a makes this
    at most eps = 2^-(p + 8) at its largest z, p the precision in bits; the
    bound grows with z, so the step serves every smaller z too.

    Truncation.  d/dt ln f <= nu* - z sinh t, so beyond the first node
    with z sinh t_j >= nu* + 1/h the summands fall by a factor e at least
    per node and the rest of the sum is below 0.6 f(t_j).  With the common
    factor e^-z taken out, every sum is at least f(0)/2 = 1/2, so stopping
    at the first such node with exp(-z (cosh t_j - 1)) cosh(nu* t_j) <=
    eps/2 bounds the truncation of every integrated order by 0.6 eps
    relative.  The node count n is found in floating point, with a margin
    that covers its rounding, before any sum is formed.

    Rounding.  ``shell`` works on integers scaled by 2^P: weights within
    rho units relative plus A units, table entries within one unit, and a
    recurrence step rounding once.  With C the largest table entry and L
    steps, every value is within R = rho + 4 n A (C + 1) + 3 L + 2 units
    relative at the fixed-point z (the sums are at least 2^(2P) / 2).
    ``exp_fixed`` weights have rho = 3 (z + 1) cosh t_(n-1) + 8 and A = 1.
    ``_guard`` makes P - p = 10 plus the bit length of 2 R and the pass's
    other roundings, rounded up to a multiple of 16 so that grids share
    tables: the rounding stays below eps/4.

    Every value therefore lies within (1 + 0.6 + 0.25) eps plus a few
    roundings at p + 40 bits, below 2 eps, relative of K_nu(z).
    """

    def __init__(self, orders, p=None):
        self.orders = orders = tuple(nu if isinstance(nu, Fraction) else _exact(abs(mp.mpf(nu))) for nu in orders)
        self.p = mp.mp.prec if p is None else p
        self.prec = self.p + 40
        self.log_eps = -(self.p + 8) * math.log(2.0)
        top = {}  # lowest order of each residue class -> its highest order
        for nu in sorted(set(orders)):
            lo = next((lo for lo in top if (nu - lo).denominator == 1), nu)
            top[lo] = nu
        # every order of every class, lowest first; the first one or two of
        # each class are integrated, the others recur:
        # K[dst] = K[dst - 2] + (2 nu / z) K[dst - 1], nu = ladder[dst - 1],
        # kept as 2 nu = num / 2^t
        ladder, integrated, recur = [], [], []
        for lo, hi in top.items():
            for i in range(int(hi - lo) + 1):
                if i < 2:
                    integrated.append(len(ladder))
                else:
                    two_nu = 2 * ladder[-1]
                    recur.append((len(ladder), two_nu.numerator, two_nu.denominator.bit_length() - 1))
                ladder.append(lo + i)
        self.integrated = tuple(ladder[i] for i in integrated)
        self._integrated_at = integrated
        self._recur = recur
        self.out = [ladder.index(nu) for nu in orders]
        self._size = len(ladder)
        self.numax = float(max(self.integrated))

    def _step(self, z: float) -> float:
        nu = max(self.numax, 0.5)
        budget = math.log(4.0) - self.log_eps
        hmax = max(
            2.0 * math.pi * a / (budget + z * (1.0 - math.cos(a)) - nu * math.log(math.cos(a)))
            for a in (i * math.pi / 64.0 for i in range(1, 32))
        )
        return 2.0 ** (-math.ceil(-2.0 * math.log2(hmax)) / 2.0)

    def _nodes(self, z: float, h: float, least: int = 2) -> int:
        """Node count at z, at least ``least`` (say the count at a larger z)."""
        nu = self.numax
        limit = self.log_eps - math.log(2.0) - 1e-9
        j = least - 1
        while True:
            t = j * h
            if (
                z * math.sinh(t) >= nu + 1.0 / h
                and math.log(math.cosh(nu * t)) - 2.0 * z * math.sinh(t / 2.0) ** 2 <= limit
            ):
                return j + 1
            j += 1

    def _guard(self, z1: float, h: float, counts) -> int:
        """P - p for the shells z = m z1 with counts[m - 1] nodes: shell m's
        weights are m-th powers (rho = m (3 (z1 + 1) C1 + 8), A = 2m - 1), and
        a pass rounds its terms and z (the last two sums of ``bound``)."""
        t = (counts[0] - 1) * h
        c1, top, nu, shells = math.cosh(t), math.cosh(self.numax * t), float(max(self.orders)), len(counts)
        bound = 2 * max(
            m * (3 * (z1 + 1) * c1 + 8) + 4 * n * (2 * m - 1) * (top + 1) + 3 * len(self._recur) + 2
            for m, n in enumerate(counts, 1)
        ) + sum(2 * m ** (nu + 2) + 3 for m in range(1, shells + 1)) + 2 * shells + nu + 2
        return -(-(10 + math.ceil(bound).bit_length()) // 16) * 16

    def shell(self, table, weights, zfix: int) -> list:
        """2^P e^z K_nu(z) / h per ladder order at z = zfix / 2^P, P = table.bits."""
        bits = table.bits
        k = [0] * self._size
        for i, col in zip(self._integrated_at, table.columns[1:]):
            k[i] = sum(map(operator.mul, weights, col)) >> bits
        inv = (1 << 3 * bits) // zfix
        for dst, two_nu, t in self._recur:
            k[dst] = k[dst - 2] + ((two_nu * inv * k[dst - 1]) >> (2 * bits + t))
        return k

    def __call__(self, z):
        """[K_nu(z) for nu in orders]."""
        with mp.workprec(self.prec):
            z = mp.mpf(z)
            zf = float(z)
            h = self._step(zf)
            n = self._nodes(zf, h)
            table = _cosh_table(self.integrated, h, self.p + self._guard(zf, h, [n]))
            zfix = to_fixed(z._mpf_, table.bits)
            k = self.shell(table, table.weights(zfix, n), zfix)
            # the common factor e^-z of the weights comes out of the sums
            scale = mp.ldexp(h * mp.exp(-z), -table.bits)
            return [scale * k[i] for i in self.out]


def _exact(x) -> Fraction:
    """The exact value of an mpf as a Fraction."""
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


class _CoshTable:
    """Fixed-point rows [cosh t_j, cosh(nu t_j) for each order] on t_j = j h.

    Entries are round(2^bits cosh(.)), each within one unit: they are
    evaluated at bits + 64 + 3/2 nu t_j bits, where the argument nu t_j is
    exact (nu has at most p + 8 significant bits, t_j at most 64, and
    bits >= p + 16) and 2^(3/2 nu t_j) exceeds cosh(nu t_j).  Rows are
    appended on demand under a lock, so every torus and thread asking for
    the same (orders, step, bits) shares one table.
    """

    def __init__(self, orders, h: float, bits: int):
        self.orders = orders
        self.h = h
        self.bits = bits
        self.columns = [[] for _ in range(len(orders) + 1)]
        self._lock = threading.Lock()

    def _grow(self, n: int):
        nus = [Fraction(1)] + list(self.orders)
        with self._lock:
            while len(self.columns[-1]) < n:
                j = len(self.columns[-1])
                with mp.workprec(self.bits + 64 + int(1.5 * float(max(nus)) * j * self.h)):
                    t = j * mp.mpf(self.h)
                    for col, nu in zip(self.columns, nus):
                        c = mp.cosh(mp.mpf(nu.numerator) / nu.denominator * t)
                        col.append(int(mp.nint(mp.ldexp(c, self.bits))))

    def weights(self, zfix: int, n: int) -> list:
        """[2^bits exp(-z (cosh t_j - 1)) for j < n] from ``exp_fixed``, the
        first halved (the trapezoid weight 1/2), z = zfix / 2^bits."""
        if len(self.columns[-1]) < n:
            self._grow(n)
        bits = self.bits
        one = 1 << bits
        ln2 = ln2_fixed(bits)
        return [one >> 1] + [
            exp_fixed(-((zfix * (c - one)) >> bits), bits, ln2)
            for c in self.columns[0][1:n]
        ]


@functools.lru_cache(maxsize=64)
def _cosh_table(orders, h: float, bits: int) -> _CoshTable:
    return _CoshTable(orders, h, bits)


_bessel_plan = functools.lru_cache(maxsize=64)(_BesselK)


@functools.lru_cache(maxsize=1024)
def _divisor_weights(plan: _BesselK, m: int, bits: int) -> tuple:
    """[2^bits m^-nu sigma_2nu(m) for nu in plan.orders] within 2 units, for
    integer 2 nu = k as isqrt(2^(2 bits) sigma_k(m)^2 // m^k), sigma exact."""
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    out = []
    for nu in plan.orders:
        if (2 * nu).denominator == 1:
            sigma = sum(d ** int(2 * nu) for d in divisors)
            out.append(math.isqrt((sigma * sigma << 2 * bits) // m ** int(2 * nu)))
        else:
            with mp.workprec(bits + 16):
                x = mp.mpf(nu.numerator) / nu.denominator
                out.append(to_fixed((mp.fsum(d ** (2 * x) for d in divisors) / m**x)._mpf_, bits))
    return tuple(out)


def _settle_shifts(p: int, nu: float, z1: float) -> list:
    """Shift k_m for the shells m = 1, ..., M of a pass at orders up to nu.

    A term t_n = n^-nu sigma_2nu(n) K_nu(n z1) is at most n^(nu + 1)
    e^(-(n - m) z1) / m^nu times t_m (cosh t >= 1), so the terms after shell
    m add at most t_m C_m, C_m <= (m + 1) q / (1 - q)^2, q = exp(nu/m - z1).
    A pass stops after shell m once every term has 2^k_m t_m <= its total,
    k_m = p + 8 + log2 C_m rounded up (None where q >= 1): the rest is below
    eps = 2^-(p + 8) relative.  A total is at least t_1, so this holds at M,
    where m^(nu + 1) e^(-(m - 1) z1) C_m <= eps/2, and the pass ends there.
    """
    shifts, m, ln2 = [], 1, math.log(2.0)
    while True:
        q = math.exp(nu / m - z1)
        log_c = math.log((m + 1) * q) - 2.0 * math.log1p(-q) if q < 1.0 else math.inf
        shifts.append(max(0, p + 8 + math.ceil(log_c / ln2)) if q < 1.0 else None)
        if (nu + 1.0) * math.log(m) - (m - 1) * z1 + log_c <= -(p + 9) * ln2:
            return shifts
        m += 1


@functools.lru_cache(maxsize=64)
def _torus_constants(s: float, prec: int) -> tuple:
    """The torus-independent factors of ``_TorusBackend`` at s, at prec bits.

    s = 1: (2 sqrt(pi), Gamma(1/2), psi(1/2) - psi(1), zeta_R(2), 8 pi);
    s = 1/2: (gamma/2 - ln 2 pi + psi(1/2)/2,);
    otherwise: (zeta_R(2s), 2 sqrt(pi), 1/Gamma(s), G(s), 8 pi^s / Gamma(s))
    with G(s) = Gamma(s - 1/2) zeta_R(2s - 1), or its limit
    (-1)^n 2 zeta_R'(-2n) / n! at s = 1/2 - n, n >= 1, where the pole of
    Gamma meets a trivial zero of zeta_R.
    """
    with mp.workprec(prec):
        if s == 0.5:
            return (mp.euler / 2 - mp.log(2 * mp.pi) + mp.digamma(mp.mpf(0.5)) / 2,)
        two_sqrt_pi = 2 * mp.sqrt(mp.pi)
        if s == 1.0:
            psi_diff = mp.digamma(mp.mpf(0.5)) - mp.digamma(1)
            return two_sqrt_pi, mp.gamma(mp.mpf(0.5)), psi_diff, mp.zeta(2), 8 * mp.pi
        ss = mp.mpf(s)
        n = 0.5 - s
        if n == round(n) and n >= 1:
            n = int(round(n))
            gz = mp.mpf(2) * (-1) ** n * mp.zeta(-2 * mp.mpf(n), derivative=1) / mp.factorial(n)
        else:
            gz = mp.gamma(ss - mp.mpf(0.5)) * mp.zeta(2 * ss - 1)
        rgamma_s = mp.rgamma(ss)
        return mp.zeta(2 * ss), two_sqrt_pi, rgamma_s, gz, 8 * mp.power(mp.pi, ss) * rgamma_s


class _TorusBackend:
    """Rectangular-lattice zeta via one Poisson resummation.

    With c1 <= c2 (axes relabelled so the Bessel sums converge fastest)
    and r = c2/c1 >= 1:

        Z(s) = 2 c1^(-2s) zeta_R(2s)
             + (2 sqrt(pi)/c1) (Gamma(s-1/2)/Gamma(s)) c2^(1-2s) zeta_R(2s-1)
             + (8 pi^s / Gamma(s)) c1^(-2s) B(s),

        B(s) = sum_{k,n>=1} (r k)^(1/2-s) n^(s-1/2) K_{s-1/2}(2 pi r n k)
             = sum_{m>=1} (r m)^(1/2-s) sigma_{2s-1}(m) K_{|s-1/2|}(2 pi r m),

    grouped by the lattice shell m = nk, sigma_p(m) = sum_{d|m} d^p (the
    Chowla-Selberg form of the Epstein zeta).  Simple poles at s = 1
    (spectral) and a removable pole pair at s = 1/2.

    Each shell is visited once per fixed-point pass (``_bessel_pass``).
    ``_BesselK`` gives every order there from two trapezoid sums of
    K_nu(z) = int_0^inf exp(-z cosh t) cosh(nu t) dt per residue class of
    the orders mod 1 and the upward recurrence.  With nu = |s - 1/2|,
    (r m)^(1/2-s) sigma_{2s-1}(m) = r^(1/2-s) m^-nu sigma_{2nu}(m), an
    exact integer divisor sum for the standard s.  Each B(s) lies within
    2^-(p + 6) relative at precision p; with the values of
    ``_torus_constants`` within a unit each, ``point_mp`` is within
    2^-(p + 6) |t_B| + 2^-(p - 4) sum |t_i| of Z(s), t_i the ``terms`` and
    t_B the last.  The first request for an s of ``_STANDARD_S`` sums B
    for the whole set in one pass; only the per-s sums are kept.
    """

    achieved = 1e-14

    def __init__(self, cs: FlatTorus):
        la, lb = max(cs.ell1, cs.ell2), min(cs.ell1, cs.ell2)
        self.c1 = 2.0 * math.pi / la  # smaller wavenumber
        self.c2 = 2.0 * math.pi / lb
        self.ell_big = la
        self.ratio = self.c2 / self.c1  # = la/lb >= 1
        self._mp_cache: dict = {}
        self._bessel_cache: dict = {}  # (s, prec) -> B(s) not yet handed out

    def _bessel_sum(self, s: float):
        # point_mp caches each value, so a sum is handed out once and dropped
        prec = mp.mp.prec
        total = self._bessel_cache.pop((s, prec), None)
        if total is None:
            batch = _STANDARD_S if s in _STANDARD_S else (s,)
            sums = dict(zip(batch, self._bessel_pass(batch)))
            total = sums.pop(s)
            self._bessel_cache.update(((t, prec), b) for t, b in sums.items())
        return total

    def _bessel_pass(self, svals):
        """B(s) for every s of svals in one fixed-point pass over the shells.

        B(s) = r^(1/2-s) h e^(-z1) A_nu, nu = |s - 1/2|, z_m = m z1 = 2 pi r m,
        A_nu = sum_m m^-nu sigma_2nu(m) e^(-(m-1) z1) e^(z_m) K_nu(z_m) / h
        >= 1/2 at any aspect ratio.  One node grid (the step of the last
        shell) serves all; shell m's weights are m-th powers of shell 1's.
        B(s) is within 3 eps = 3 * 2^-(p + 8) < 2^-(p + 6) relative: step
        and node truncation 1.6 eps per K_nu(z_m), kept by positive terms;
        later shells eps (``_settle_shifts``); the powers (m roundings in
        shell m), recurrence, accumulation and z (z_m within m units) below
        eps/4 (``_BesselK._guard``); the final products a few units more.
        """
        orders = sorted({abs(Fraction(s) - Fraction(1, 2)) for s in svals})
        besselk = _bessel_plan(tuple(orders), mp.mp.prec)
        z1f = 2.0 * math.pi * self.ratio
        shifts = _settle_shifts(besselk.p, float(orders[-1]), z1f)
        h = besselk._step(len(shifts) * z1f)
        counts = [besselk._nodes(len(shifts) * z1f, h)]
        for m in range(len(shifts) - 1, 0, -1):
            counts.insert(0, besselk._nodes(m * z1f, h, counts[0]))
        table = _cosh_table(besselk.integrated, h, besselk.p + besselk._guard(z1f, h, counts))
        bits = table.bits
        with mp.workprec(bits + 16):
            z1 = 2 * mp.pi * mp.mpf(self.ratio)
        zfix = to_fixed(z1._mpf_, bits)
        weights = table.weights(zfix, counts[0])
        powers = [1 << bits] + weights[1:]  # b_0 = 1 keeps w_0 halved
        e1, decay = exp_fixed(-zfix, bits, ln2_fixed(bits)), 1 << bits
        totals = [0] * len(besselk.orders)
        for m, (n, shift) in enumerate(zip(counts, shifts), 1):
            if m > 1:
                weights = [(w * b) >> bits for w, b in zip(weights, powers[:n])]
                decay = (decay * e1) >> bits
            k = besselk.shell(table, weights, m * zfix)
            settled = shift is not None
            for i, (j, w) in enumerate(zip(besselk.out, _divisor_weights(besselk, m, bits))):
                term = (k[j] * w * decay) >> (2 * bits)
                totals[i] += term
                settled = settled and term << shift <= totals[i]
            if settled:
                break
        with mp.workprec(besselk.prec):
            u = 1 / mp.sqrt(mp.mpf(self.ratio))  # r^(1/2 - s) = u^(2s - 1)
            scale = mp.ldexp(h * mp.exp(-z1), -bits)
            return [
                scale * totals[orders.index(abs(Fraction(s) - Fraction(1, 2)))]
                * (u ** int(2 * s - 1) if 2 * s == int(2 * s) else mp.power(u, 2 * s - 1))
                for s in svals
            ]

    def point_mp(self, s: float):
        """(finite part, residue) as mpmath values; cached per location."""
        key = (s, mp.mp.prec)
        hit = self._mp_cache.get(key)
        if hit is not None:
            return hit
        terms, res = self.terms(s)
        out = self._mp_cache[key] = sum(terms), res
        return out

    def terms(self, s: float):
        """(terms, residue): the finite part is sum(terms), added in order."""
        c1 = mp.mpf(self.c1)
        c2 = mp.mpf(self.c2)
        if s == 0.0:
            return [mp.mpf(-1)], mp.mpf(0)
        const = _torus_constants(s, mp.mp.prec)
        if s == 1.0:
            # pole of zeta_R(2s-1); residue pi/(c1 c2) = area/(4 pi)
            two_sqrt_pi, gamma_half, psi_diff, zeta2, eight_pi = const
            d1 = two_sqrt_pi / c1 * gamma_half / c2
            dlog = psi_diff - 2 * mp.log(c2)
            c1_pow = c1**-2
            return [2 * c1_pow * zeta2, d1 * mp.euler, d1 * dlog / 2,
                    eight_pi * c1_pow * self._bessel_sum(1.0)], mp.pi / (c1 * c2)
        if s == 0.5:
            # the prefactor pole of Gamma(s-1/2) cancels the zeta_R(2s) pole
            (offset,) = const
            return [2 / c1 * (mp.euler - mp.log(c1)), 2 / c1 * (offset + mp.log(c2)),
                    8 / c1 * self._bessel_sum(0.5)], mp.mpf(0)
        zeta_2s, two_sqrt_pi, rgamma_s, gz, eight_pi_s_rgamma = const
        k = int(2 * s) if 2 * s == int(2 * s) else 2 * mp.mpf(s)  # an integer exponent when 2s is one
        c1_pow = c1**-k
        return [2 * c1_pow * zeta_2s, two_sqrt_pi / c1 * rgamma_s * c2 ** (1 - k) * gz,
                eight_pi_s_rgamma * c1_pow * self._bessel_sum(s)], mp.mpf(0)

    def point(self, s: float) -> ZetaPoint:
        with mp.workdps(_DPS):
            val, res = self.point_mp(s)
            return ZetaPoint(s, float(val), float(res))

    def derivative0(self) -> float:
        # d/ds at 0: the Bessel block collapses to a dilogarithm-free
        # product-log sum because K_{-1/2} is elementary
        q = math.exp(-2.0 * math.pi * self.ratio)
        series = 0.0
        k = 1
        while True:
            term = math.log1p(-q**k)
            series += term
            if abs(term) < 1e-18 * max(1.0, abs(series)):
                break
            k += 1
        return (
            -2.0 * math.log(self.ell_big)
            + math.pi / 3.0 * self.ratio
            - 4.0 * series
        )


# ----------------------------------------------------------------------------
# numeric Mellin-split backend
# ----------------------------------------------------------------------------


class _NumericBackend:
    """Mellin-split continuation of a zero-excluded spectral zeta function.

    zeta(s) * Gamma(s) = F(s) with

        F(s) = sum_j a_j T^(s-b_j)/(s-b_j) - q0 T^s/s
             + int_tmin^T t^(s-1) R(t) dt + int_T^inf t^(s-1) h(t) dt,

    b_j = d/2 - j, h(t) the truncated positive-mode heat sum, and R(t) the
    exponentially small difference between h(t) and the heat model.  All
    power terms continue in closed form; the two integrals are entire in s.
    """

    def __init__(self, cs: CrossSection, split_point: float = 1.0, target: float = 1e-11):
        if split_point <= 0:
            raise ValidationError("the Mellin split point must be > 0")
        self.cs = cs
        self.T = float(split_point)
        self.target = target
        self.d = cs.dim
        self.q0 = kernel_dim(cs)
        heat = heat_coefficients(cs, order=0 if _is_flat(cs) else _explicit_heat_order(cs))
        self.heat = heat
        self.coeffs = [(j, heat.coeff(j)) for j in range(heat.order + 1)]
        self.betas = [(j, self.d / 2.0 - j, a) for j, a in self.coeffs if a != 0.0]

        lam, tmin, tail_err = self._choose_truncation()
        if lam > 0:
            entries = [e for e in enumerate_spectrum(cs, lam) if e.eigenvalue > 0]
        else:
            entries = []
        self.mu = np.array([e.eigenvalue for e in entries])
        self.mult = np.array([float(e.multiplicity) for e in entries])
        self.tmin = tmin
        self.lam = lam
        self._cache: dict = {}
        # error ledger: spectral-tail leakage plus the unmodelled part of
        # R(t) below tmin (exponentially small for exact heat data)
        self.err_tail = tail_err
        self.err_model = abs(self._R(tmin)) * tmin if tmin > 0 else 0.0

    # -- setup ---------------------------------------------------------------
    def _choose_truncation(self):
        cs, T = self.cs, self.T
        if isinstance(cs, ExplicitSpectrum):
            lam = cs.max_eigenvalue
            if lam <= 0:
                return 0.0, T, 0.0
            tmin = min(T / 2.0, 45.0 / lam)
            bound = heat_tail_bound(cs, lam, tmin)
            while bound > 1e-16 and tmin < T:
                tmin *= 1.5
                bound = heat_tail_bound(cs, lam, tmin)
            if tmin >= T:
                raise InsufficientSpectrumError(
                    "explicit spectrum too short for the Mellin-split continuation",
                    max_trusted=lam,
                )
            return lam, tmin, bound
        tmin = min(0.02, T / 4.0)
        lam = 100.0
        while heat_tail_bound(cs, lam, tmin) > 1e-16:
            lam *= 2.0
        return lam, tmin, heat_tail_bound(cs, lam, tmin)

    def _is_pole(self, s: float) -> float:
        """Residue of F at s (0 when F is regular there)."""
        res = 0.0
        for _, b, a in self.betas:
            if s == b:
                res += a
        if s == 0.0:
            res -= self.q0
        return res

    def _h(self, t):
        if self.mu.size == 0:
            return 0.0 if np.isscalar(t) else np.zeros_like(t)
        t = np.asarray(t, dtype=float)
        return np.exp(-np.outer(t, self.mu)).dot(self.mult).reshape(t.shape)

    def _model(self, t):
        out = -float(self.q0) * np.ones_like(np.asarray(t, dtype=float))
        for _, b, a in self.betas:
            out = out + a * np.asarray(t, dtype=float) ** (-b)
        return out

    def _R(self, t):
        return self._h(np.asarray(t, dtype=float)) - self._model(t)

    # -- the entire-in-s pieces ----------------------------------------------
    def _integrals(self, s: float):
        """(IR, IR_err, G, G_err) and the ln t weighted pair at this s."""
        key = ("int", s)
        if key in self._cache:
            return self._cache[key]
        # deferred: only explicit spectra need scipy, and its import costs more
        # than the rest of the library's
        from scipy.integrate import quad

        # R(t) falls off superexponentially towards small t; skip the part
        # below double-precision relevance and book a bound for it
        t_lo, skip_err = self._small_integration_start(s)
        # modes with mu*t > 55 contribute below 1e-20 on each range
        small_n = int(np.searchsorted(self.mu, 55.0 / t_lo)) if self.mu.size else 0
        large_n = int(np.searchsorted(self.mu, 55.0 / self.T)) if self.mu.size else 0
        mu_s, m_s = self.mu[:small_n], self.mult[:small_n]
        mu_l, m_l = self.mu[:large_n], self.mult[:large_n]

        def h_small(t):
            return float(np.exp(-t * mu_s).dot(m_s)) if small_n else 0.0

        def small(t):
            r = h_small(t) - float(self._model(np.array([t]))[0])
            return r * t ** (s - 1.0)

        def small_log(t):
            r = h_small(t) - float(self._model(np.array([t]))[0])
            return r * t ** (s - 1.0) * math.log(t)

        def large(t):
            return float(np.exp(-t * mu_l).dot(m_l)) * t ** (s - 1.0) if large_n else 0.0

        def large_log(t):
            return large(t) * math.log(t)

        def _q(f, a, b):
            y = quad(f, a, b, epsabs=1e-15, epsrel=1e-13, limit=400, full_output=1)
            return y[0], y[1]

        ir, ir_err = _q(small, t_lo, self.T)
        irl, irl_err = _q(small_log, t_lo, self.T)
        ir_err += skip_err
        if self.mu.size:
            upper = self.T + 60.0 / self.mu[0]
            g, g_err = _q(large, self.T, upper)
            gl, gl_err = _q(large_log, self.T, upper)
        else:
            g = gl = g_err = gl_err = 0.0
        out = (ir, ir_err + irl_err, g, g_err + gl_err, irl, gl)
        self._cache[key] = out
        return out

    def _small_integration_start(self, s: float):
        grid = np.geomspace(self.tmin, self.T, 48)
        vals = np.abs(self._R(grid))
        weight = grid ** (min(s, 1.0) - 1.0) * np.maximum(1.0, np.abs(np.log(grid)))
        mask = vals * weight * self.T > 1e-22
        idx = int(np.argmax(mask)) if mask.any() else len(grid) - 1
        t_lo = grid[max(idx - 1, 0)]
        skipped = float(vals[max(idx - 1, 0)] * weight[max(idx - 1, 0)]) * self.T
        return t_lo, min(skipped, 1e-22)

    def _F_regular(self, s: float):
        """Regular part of F at s, the pole (if any) removed; plus error."""
        res = self._is_pole(s)
        total = 0.0
        for _, b, a in self.betas:
            if s == b:
                total += a * math.log(self.T)
            else:
                total += a * self.T ** (s - b) / (s - b)
        if self.q0:
            if s == 0.0:
                total += -self.q0 * math.log(self.T)
            else:
                total += -self.q0 * self.T**s / s
        ir, ir_err, g, g_err, _, _ = self._integrals(s)
        err = ir_err + g_err + self.err_tail + self.err_model
        return total + ir + g, res, err

    def _F_regular_deriv(self, s: float) -> float:
        """d/ds of the regular part of F at s (pole term's lnT part included)."""
        total = 0.0
        for _, b, a in self.betas:
            if s == b:
                total += 0.5 * a * math.log(self.T) ** 2
            else:
                w = self.T ** (s - b)
                total += a * (math.log(self.T) * w / (s - b) - w / (s - b) ** 2)
        if self.q0:
            if s == 0.0:
                total += -0.5 * self.q0 * math.log(self.T) ** 2
            else:
                w = self.T**s
                total += -self.q0 * (math.log(self.T) * w / s - w / s**2)
        _, _, _, _, irl, gl = self._integrals(s)
        return total + irl + gl

    # -- public surface --------------------------------------------------
    @property
    def achieved(self) -> float:
        return max(self.err_tail + self.err_model, 1e-15)

    def point(self, s: float) -> ZetaPoint:
        freg, res, err = self._F_regular(s)
        if err > max(self.target, 1e-9):
            raise ConvergenceError(
                "numeric zeta continuation did not reach the requested tolerance",
                achieved=err,
            )
        if res == 0.0:
            if s <= 0.0 and s == int(s):
                # 1/Gamma vanishes at the non-positive integers
                return ZetaPoint(s, 0.0, 0.0)
            with mp.workdps(_DPS):
                val = float(freg * mp.rgamma(mp.mpf(s)))
            return ZetaPoint(s, val, 0.0)
        if s == 0.0:
            return ZetaPoint(s, res, 0.0)
        if s < 0.0 and s == int(s):
            n = int(-s)
            return ZetaPoint(s, res * (-1.0) ** n * math.factorial(n), 0.0)
        with mp.workdps(_DPS):
            gam = float(mp.gamma(mp.mpf(s)))
            psi = float(mp.digamma(mp.mpf(s)))
        return ZetaPoint(s, (freg - res * psi) / gam, res / gam)

    def derivative0(self) -> float:
        freg, res, err = self._F_regular(0.0)
        if err > max(self.target, 1e-9):
            raise ConvergenceError(
                "numeric zeta continuation did not reach the requested tolerance",
                achieved=err,
            )
        return freg + EULER_GAMMA * res


def _is_flat(cs: CrossSection) -> bool:
    return isinstance(cs, (Point, Circle, FlatTorus))


def _explicit_heat_order(cs: CrossSection) -> int:
    if isinstance(cs, ExplicitSpectrum):
        if cs.heat is None:
            from .errors import HeatDataRequiredError

            raise HeatDataRequiredError(
                "numeric zeta backend needs heat coefficients; heat data required"
            )
        return cs.heat.order
    return 0


# ----------------------------------------------------------------------------
# backend dispatch
# ----------------------------------------------------------------------------

# the most recently used backends, least recent first; every backend keeps
# its own value caches, so an unbounded map would grow with every new
# cross-section of a sweep
_BACKEND_CACHE_SIZE = 32
_SHIFTED_CACHE_SIZE = 16  # shifted determinants kept per backend
_backend_cache: OrderedDict = OrderedDict()
_backend_lock = threading.Lock()


def _get_backend(cs: CrossSection, backend: str = "auto", split_point: float = 1.0):
    if backend not in ("auto", "closed", "numeric"):
        raise ValidationError(f"unknown backend {backend!r}")
    if backend == "auto":
        backend = "closed" if _is_flat(cs) else "numeric"
    key = (cs, backend, split_point)
    with _backend_lock:
        hit = _backend_cache.get(key)
        if hit is not None:
            _backend_cache.move_to_end(key)
            return hit
    if backend == "closed":
        if isinstance(cs, Point):
            b = _PointBackend()
        elif isinstance(cs, Circle):
            b = _CircleBackend(cs)
        elif isinstance(cs, FlatTorus):
            b = _TorusBackend(cs)
        else:
            raise ValidationError(
                "closed-form backend supports only point, circle and flat torus"
            )
    else:
        b = _NumericBackend(cs, split_point=split_point)
    b.shifted = OrderedDict()
    with _backend_lock:
        b = _backend_cache.setdefault(key, b)
        _backend_cache.move_to_end(key)
        while len(_backend_cache) > _BACKEND_CACHE_SIZE:
            _backend_cache.popitem(last=False)
    return b


def zeta_point(
    cs: CrossSection,
    s: float,
    include_zero: bool = False,
    backend: str = "auto",
    split_point: float = 1.0,
) -> ZetaPoint:
    """Finite part and residue of the spectral zeta function at real s.

    The sum runs over the nonzero spectrum; ``include_zero`` adds the
    zero modes with the convention 0^0 = 1 (that is, it adds q0 at s = 0
    and nothing for s < 0; it is rejected for s > 0 where 0^-s diverges).
    """
    zp = _get_backend(cs, backend, split_point).point(float(s))
    if include_zero:
        q0 = kernel_dim(cs)
        if s > 0 and q0 > 0:
            raise ValidationError("zero modes cannot be included at s > 0")
        if s == 0:
            zp = ZetaPoint(zp.location, zp.value + q0, zp.residue)
    return zp


def zeta_derivative0(cs: CrossSection, backend: str = "auto", split_point: float = 1.0) -> float:
    """d/ds at s = 0 of the zero-excluded spectral zeta function."""
    return _get_backend(cs, backend, split_point).derivative0()


def log_det_star(cs: CrossSection, backend: str = "auto", split_point: float = 1.0) -> RegularizedDet:
    """ln Det* of the cross-section Laplacian (zero modes excluded)."""
    dz = zeta_derivative0(cs, backend, split_point)
    return RegularizedDet(
        log_modulus=-dz, phase_multiple=0, excluded_zero_modes=kernel_dim(cs)
    )


# ----------------------------------------------------------------------------
# shifted first-order determinant ln Det(sqrt(Delta) + alpha)
# ----------------------------------------------------------------------------


def _check_shift_admissible(cs: CrossSection, alpha: float):
    q0 = kernel_dim(cs)
    if alpha == 0.0 and q0 > 0:
        raise SingularParameterError(
            "singular shift: alpha = 0 collides with the zero modes"
        )
    if alpha < 0.0:
        lam = alpha * alpha * (1.0 + 1e-9) + 1.0
        for e in enumerate_spectrum(cs, lam):
            root = math.sqrt(e.eigenvalue)
            if root + alpha == 0.0 or abs(root + alpha) < 1e-14 * max(1.0, -alpha):
                raise SingularParameterError(
                    f"singular shift: -alpha = {-alpha} lies in the sqrt-spectrum "
                    f"(eigenvalue {e.eigenvalue})"
                )


def _shifted_circle_closed(cs: Circle, alpha: float) -> RegularizedDet:
    """Hurwitz-zeta closed form on the circle.

    zeta(s) = alpha^-s + 2 sum_{k>=1} (c k + alpha)^-s; the finitely many
    negative factors are split off exactly and the rest is a shifted
    Hurwitz zeta, differentiated at 0.
    """
    c = cs.wavenumber
    neg = 0
    logmod = 0.0
    lm, ph = signed_log(alpha)
    logmod += lm
    neg += ph
    K = 0
    if alpha < 0.0:
        K = max(0, math.ceil(-alpha / c) - 1)
        for k in range(1, K + 1):
            lmk, phk = signed_log(c * k + alpha)
            logmod += 2.0 * lmk
            neg += 2 * phk
    a = K + 1 + alpha / c
    zh0 = 0.5 - a
    logmod += 2.0 * math.log(c) * zh0 - 2.0 * hurwitz_zeta_sderiv(0.0, a)
    return RegularizedDet(logmod, neg, 0)


def _tail_power_sum_stored(cs: ExplicitSpectrum, mu0: float, p: float) -> float:
    """sum_{mu > mu0} m_j mu_j^{-p} over stored entries plus the model tail."""
    total = math.fsum(
        e.multiplicity * e.eigenvalue ** (-p)
        for e in cs.entries
        if e.eigenvalue > mu0
    )
    return total + 0.5 * power_tail_bound(cs, cs.max_eigenvalue, p)


def _log1p_tail(x: float, kmax: int) -> float:
    """sum_{k>=kmax} (-1)^(k+1) x^k / k, summed directly (no cancellation)."""
    term = (-1.0) ** (kmax + 1) * x**kmax
    total = 0.0
    k = kmax
    while True:
        total += term / k
        term *= -x
        k += 1
        if abs(term) < 1e-25 * max(abs(total), 1e-30) or k > kmax + 400:
            return total


def _shifted_via_series(cs: CrossSection, alpha: float, backend, korder: int = 16) -> RegularizedDet:
    """Binomial reduction of ln Det(sqrt(Delta)+alpha) to zeta data of Delta.

    Low modes are split off exactly; for the rest, (sqrt(mu)+alpha)^-s is
    expanded binomially to ``korder`` terms whose s-derivatives at 0 hit
    zeta values (finite parts and residues at poles, with harmonic-number
    weights) of the cross-section Laplacian; the remainder is an
    absolutely convergent log-tail sum with a certified bound.
    """
    q0 = kernel_dim(cs)
    logmod = 0.0
    phase = 0
    if q0:
        lm, ph = signed_log(alpha)
        logmod += q0 * lm
        phase += q0 * ph

    mu0 = max(4.0 * alpha * alpha, 1.0)
    low = [e for e in enumerate_spectrum(cs, mu0) if e.eigenvalue > 0]
    for e in low:
        lm, ph = signed_log(math.sqrt(e.eigenvalue) + alpha)
        logmod += e.multiplicity * lm
        phase += e.multiplicity * ph

    # k = 0 binomial term: -1/2 * d/ds zeta_{Delta,>mu0}(0), where removing
    # the split-off low modes adds +ln(mu) per mode to the derivative
    deriv0 = backend.derivative0()
    low_logsum = math.fsum(e.multiplicity * math.log(e.eigenvalue) for e in low)
    logmod += -0.5 * (deriv0 + low_logsum)

    # k >= 1 binomial terms against truncated zeta values.  The difference
    # zeta(k/2) - partial cancels catastrophically in doubles for large k,
    # so closed-form backends evaluate it at elevated precision; the
    # numeric backend (explicit data) switches to the directly summed tail
    # once the defining series converges comfortably.
    d = cs.dim
    for k in range(1, korder):
        if hasattr(backend, "point_mp"):
            with mp.workdps(_DPS):
                val, res = backend.point_mp(k / 2.0)
                partial = mp.fsum(
                    e.multiplicity * mp.power(e.eigenvalue, -mp.mpf(k) / 2) for e in low
                )
                zk = float(val - partial) + 2.0 * harmonic(k - 1) * float(res)
        elif k / 2.0 > d / 2.0 + 1.5 and isinstance(cs, ExplicitSpectrum):
            zk = _tail_power_sum_stored(cs, mu0, k / 2.0)
        else:
            zp = backend.point(k / 2.0)
            partial = math.fsum(
                e.multiplicity * e.eigenvalue ** (-k / 2.0) for e in low
            )
            if zp.residue == 0.0:
                zk = zp.value - partial
            else:
                zk = (zp.value - partial) + 2.0 * harmonic(k - 1) * zp.residue
        logmod -= (-alpha) ** k / k * zk

    # convergent log-remainder over the high modes
    lam_hi = max(mu0 * 4.0, 100.0)
    tol = 1e-13
    while True:
        bound = (
            2.0 * abs(alpha) ** korder / korder * power_tail_bound(cs, lam_hi, korder / 2.0)
            if alpha != 0.0
            else 0.0
        )
        if bound < tol or isinstance(cs, ExplicitSpectrum):
            break
        lam_hi *= 2.0
    if isinstance(cs, ExplicitSpectrum):
        lam_hi = min(lam_hi, cs.max_eigenvalue)
        bound = (
            2.0 * abs(alpha) ** korder / korder * power_tail_bound(cs, lam_hi, korder / 2.0)
            if alpha != 0.0
            else 0.0
        )
    rem = 0.0
    if alpha != 0.0:
        for e in enumerate_spectrum(cs, lam_hi):
            if e.eigenvalue <= mu0:
                continue
            x = alpha / math.sqrt(e.eigenvalue)
            rem += e.multiplicity * _log1p_tail(x, korder)
    logmod += rem
    return RegularizedDet(logmod, phase, 0)


def log_det_shifted(
    cs: CrossSection,
    alpha: float,
    backend: str = "auto",
    method: str = "auto",
    split_point: float = 1.0,
) -> RegularizedDet:
    """ln Det(sqrt(Delta_Y) + alpha), zero modes of Delta_Y included.

    ``method='closed'`` forces the Hurwitz route (point and circle only);
    ``method='series'`` forces the binomial reduction against the chosen
    zeta backend.  Finitely many negative shifted eigenvalues contribute
    ln|.| to the modulus and one pi unit each to the phase.
    """
    if method not in ("auto", "closed", "series"):
        raise ValidationError(f"unknown method {method!r}")
    _check_shift_admissible(cs, alpha)
    if isinstance(cs, Point):
        lm, ph = signed_log(alpha)
        return RegularizedDet(lm, ph, 0)
    closed = method == "closed" or (method == "auto" and isinstance(cs, Circle) and backend in ("auto", "closed"))
    if closed and not isinstance(cs, Circle):
        raise ValidationError("closed-form shifted determinant needs a circle")
    # kept on the backend, so evicted with it; refusals raise above each time
    b = _get_backend(cs, "closed" if closed else backend, split_point)
    det = b.shifted.get((alpha, closed))
    if det is None:
        det = _shifted_circle_closed(cs, alpha) if closed else _shifted_via_series(cs, alpha, b)
        with _backend_lock:
            b.shifted[alpha, closed] = det
            while len(b.shifted) > _SHIFTED_CACHE_SIZE:
                b.shifted.popitem(last=False)
    return det
