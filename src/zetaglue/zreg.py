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

import mpmath as mp
import numpy as np
from mpmath.libmp import dps_to_prec, from_float, mpf_log, to_fixed
from mpmath.libmp.libelefun import exp_fixed, ln2_fixed, pi_fixed

from .errors import (
    ConvergenceError,
    HeatDataRequiredError,
    InsufficientSpectrumError,
    SingularParameterError,
    ValidationError,
)
from .special import EULER_GAMMA, harmonic, hurwitz_zeta_sderiv
from .spectra import (
    Circle,
    CrossSection,
    FlatTorus,
    Point,
    enumerate_spectrum,
    heat_coefficients,
    heat_tail_bound,
    heat_trace,
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
    if p <= cs.dim / 2.0:
        raise ValidationError("power tail bound requires p > cross_dim/2")
    return cs.power_tail_bound(lam, p)


# ----------------------------------------------------------------------------
# closed-form backends
# ----------------------------------------------------------------------------


class _PointBackend:
    """Zero-excluded zeta of the Laplacian on a point: the empty sum."""

    def __init__(self, cs: Point):
        pass

    def point(self, s: float) -> ZetaPoint:
        return ZetaPoint(s, 0.0, 0.0)

    def derivative0(self) -> float:
        return 0.0

    def shifted_closed(self, alpha: float) -> RegularizedDet:
        """ln Det(sqrt(Delta) + alpha) = ln alpha: the single zero mode."""
        lm, ph = signed_log(alpha)
        return RegularizedDet(lm, ph, 0)


class _CircleBackend:
    """zeta(s) = 2 (2*pi/ell)^(-2s) zeta_R(2s) over the nonzero circle modes."""

    def __init__(self, cs: Circle):
        self.c = cs.wavenumber
        self.ell = cs.circumference
        self._points: dict = {}

    def point(self, s: float) -> ZetaPoint:
        hit = self._points.get(s)
        if hit is None:
            with mp.workdps(_DPS):
                c = mp.mpf(self.c)
                if s == 0.5:
                    # zeta_R(2s) has its pole here: residue 1/c, finite part from
                    # the gamma-free Laurent expansion of the prefactor
                    val, res = 2 / c * (mp.euler - mp.log(c)), 1 / c
                else:
                    ss = mp.mpf(s)
                    val, res = 2 * mp.power(c, -2 * ss) * mp.zeta(2 * ss), 0
                hit = self._points[s] = ZetaPoint(s, float(val), float(res))
        return hit

    def derivative0(self) -> float:
        return -2.0 * math.log(self.ell)

    def shifted_closed(self, alpha: float) -> RegularizedDet:
        """Hurwitz-zeta closed form of ln Det(sqrt(Delta) + alpha).

        zeta(s) = alpha^-s + 2 sum_{k>=1} (c k + alpha)^-s; the finitely many
        negative factors are split off exactly and the rest is a shifted
        Hurwitz zeta, differentiated at 0.
        """
        c = self.c
        logmod, neg = signed_log(alpha)
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


# Every s at which the library evaluates a torus zeta: -1/2 for the
# cylinder heat constant and k/2, k = 1..15, for the binomial series of
# log_det_shifted.  Their Bessel orders |s - 1/2| are 0, 1/2, 1, ..., 7.
_STANDARD_S = (-0.5,) + tuple(k / 2.0 for k in range(1, 16))

# The torus backend's precision p, in bits, and the bits F of the
# fixed-point factors it assembles its values from (``_TorusBackend``).
_PREC = dps_to_prec(_DPS)
_FIX = _PREC + 24


def _man_exp(x: float) -> tuple:
    """(m, e) with x = m 2^e exactly, m a 53-bit integer, for a double x > 0."""
    f, e = math.frexp(x)
    return int(f * 2.0**53), e - 53


def _shift(n: int, k: int) -> int:
    """n 2^-k, rounded down."""
    return n >> k if k >= 0 else n << -k


def _to_float(n: int, e: int) -> float:
    """n 2^-e correctly rounded to a double."""
    return n / (1 << e) if e >= 0 else float(n << -e)


def _mul(*factors) -> tuple:
    """The product of values (n, e), each n 2^-e."""
    n, e = 1, 0
    for fn, fe in factors:
        n *= fn
        e += fe
    return n, e


def _fix(v) -> tuple:
    """The mpf tuple v as (n, e), v = n 2^-e, n its leading _FIX bits
    rounded down: within 2^(1 - _FIX) relative."""
    e = _FIX - v[2] - v[3]
    return to_fixed(v, e), e


def _half_power(x: float, j: int, e: int) -> int:
    """2^e x^(j/2) within 2 units, for a double x > 0 and an integer j: for
    even j, formed exactly and rounded down once; for odd j, the integer
    square root of 2^(2e) x^j, so formed."""
    m, ex = _man_exp(x)
    k, scale = (j, 2 * e) if j % 2 else (j // 2, e)  # 2^scale x^k, x = m 2^ex
    shift = scale + ex * k
    if k >= 0:
        n = _shift(m**k, -shift)
    else:
        n = (1 << shift) // m**-k if shift >= 0 else 0
    return math.isqrt(n) if j % 2 else n


def _powers(x: float, ys) -> list:
    """[x^y for y in ys] as (n, e), each within 2^(7 - _FIX) relative, n of
    about _FIX bits, for doubles x > 0 and y.

    Where 2y is an integer, ``_half_power`` gives n within 2 units of
    n >= 2^(_FIX - 1).  Otherwise x^y = 2^k exp(t) with y ln x = k ln 2 + t,
    formed at g = _FIX + 16 + (bits of 2|y| + 4|y ln x|) bits from ln x
    within an ulp at g + 8 bits: y ln x is within 2|y| + |y ln x| + 1 units
    of 2^-g, and t within |k| <= 1.45 |y ln x| + 1 more, below 2^-(_FIX + 15)
    in all, before it is cut to _FIX bits; ``exp_fixed`` on [0, ln 2) is
    within 2^6 units (about ten series roundings at _FIX + r bits, r =
    isqrt(_FIX), and r squarings that double the relative error), and
    n >= 2^_FIX.
    """
    out, log2_x = [], math.log2(x)
    for y in ys:
        if 2.0 * y == math.floor(2.0 * y):
            e = _FIX - math.floor(y * log2_x)
            out.append((_half_power(x, int(2.0 * y), e), e))
            continue
        g = _FIX + 16 + math.ceil(math.log2(2.0 * abs(y) + 4.0 * abs(y * math.log(x)) + 1.0))
        num, den = y.as_integer_ratio()
        ln2 = ln2_fixed(g)
        k, t = divmod(num * to_fixed(mpf_log(from_float(x), g + 8), g) // den, ln2)
        out.append((exp_fixed(t >> (g - _FIX), _FIX, ln2_fixed(_FIX)), _FIX - k))
    return out


# 2 pi a, 1 - cos a and -ln cos a on the strip half-widths a = i pi / 64,
# i = 1..31, that ``_BesselK._step`` tries
_TWO_PI_A, _VERSINE, _LOG_SEC = np.array([
    (2.0 * math.pi * a, 1.0 - math.cos(a), -math.log(math.cos(a)))
    for a in (i * math.pi / 64.0 for i in range(1, 32))
]).T


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

    ``_step`` takes the largest step h = 2^(-k/2) for which some a on a
    grid of 31 makes this at most a budget e <= 1/2 (so exp(2 pi a / h)
    >= 8, as the factor 4 needs) at each z it is given.  The bound grows
    with z and with 1/e, so a step serves every smaller z at the same budget.  A single z takes
    e = eps = 2^-(p + 8), p the precision in bits; ``_bessel_pass`` gives
    each shell its own budget.

    Truncation.  d/dt ln f <= nu* - z sinh t, so beyond the first node
    with z sinh t_j >= nu* + 1/h the summands fall by a factor e at least
    per node and the rest of the sum is below 0.6 f(t_j).  With the common
    factor e^-z taken out, every sum is at least f(0)/2 = 1/2, so stopping
    at the first such node with exp(-z (cosh t_j - 1)) cosh(nu* t_j) <=
    e/2 bounds the truncation of every integrated order by 0.6 e relative;
    past that node the bound only falls, so a later stop keeps it.  The
    node count n is found in floating point, with a margin that covers its
    rounding, before any sum is formed.

    Rounding.  ``shell`` works on integers scaled by 2^P: weights within
    rho units relative plus A units, table entries within one unit, and a
    recurrence step rounding once.  With C the largest table entry and L
    steps, every value is within R = rho + 4 n A (C + 1) + 3 L + 2 units
    relative at the fixed-point z (the sums are at least 2^(2P) / 2).
    ``exp_fixed`` weights have rho = 3 (z + 1) cosh t_(n-1) + 8 and A = 1.
    ``_guard`` makes P - p = 10 plus the bit length of 2 R and the pass's
    other roundings, rounded up to a multiple of 16 so that grids share
    tables: the rounding stays below eps/4.

    A value at a single z therefore lies within (1 + 0.6 + 0.25) eps plus
    a few roundings at p + 40 bits, below 2 eps, relative of K_nu(z); in a
    pass, within 1.6 e + eps/4 at its shell's budget e.
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

    def _step(self, zs, log_eps) -> float:
        """The largest step that serves every z of zs at the budget e =
        exp(log_eps) <= 1/2 of the same index."""
        nu = max(self.numax, 0.5)
        budget = math.log(4.0) - np.asarray(log_eps)
        hmax = (_TWO_PI_A / (budget[:, None] + np.asarray(zs)[:, None] * _VERSINE + nu * _LOG_SEC)).max(axis=1)
        return 2.0 ** (-math.ceil(-2.0 * math.log2(hmax.min())) / 2.0)

    def _log_need(self, z: float, h: float) -> float:
        """ln of the least budget at which ``_step`` lets the step h serve z,
        raised by 1e-9 so that its roundings keep h."""
        nu = max(self.numax, 0.5)
        return float((math.log(4.0) + z * _VERSINE + nu * _LOG_SEC - _TWO_PI_A / h).min()) + 1e-9

    def _nodes(self, z: float, h: float, log_eps: float, least: int = 2) -> int:
        """Node count at z for the budget exp(log_eps), at least ``least``
        (say the count at a larger z)."""
        nu = self.numax
        limit = log_eps - math.log(2.0) - 1e-9
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
            h = self._step([zf], [self.log_eps])
            n = self._nodes(zf, h, self.log_eps)
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


@functools.lru_cache(maxsize=64)
def _pass_plan(svals: tuple) -> tuple:
    """(plan, picks) of a pass over svals: the ``_BesselK`` of the orders
    |s - 1/2|, lowest first, at the torus precision _PREC, and per s the
    index of its order."""
    nus = [abs(Fraction(s) - Fraction(1, 2)) for s in svals]
    orders = sorted(set(nus))
    return _BesselK(tuple(orders), _PREC), tuple(orders.index(nu) for nu in nus)


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
        # ln q, not q, enters ln C_m: on a thin torus q underflows to 0
        log_q = nu / m - z1
        q = math.exp(log_q)
        log_c = math.log(m + 1) + log_q - 2.0 * math.log1p(-q) if q < 1.0 else math.inf
        shifts.append(max(0, p + 8 + math.ceil(log_c / ln2)) if q < 1.0 else None)
        if (nu + 1.0) * math.log(m) - (m - 1) * z1 + log_c <= -(p + 9) * ln2:
            return shifts
        m += 1


def _shell_budgets(plan: _BesselK, z1: float, shells: int) -> list:
    """ln e_m, the step-and-truncation budget of each shell m = 1..M of a
    pass at z1 over M = shells shells (``_bessel_pass``).

    A term t_m = m^-nu sigma_2nu(m) K_nu(z_m) of order nu is at most
    r_m t_1, r_m = max(d(m), m^-nu* sigma_2nu*(m)) e^(-(m - 1) z1) with d(m)
    the number of divisors and nu* the largest order: K_nu(m z1) <=
    e^(-(m - 1) z1) K_nu(z1) as cosh t >= 1, and m^-nu sigma_2nu(m) =
    sum_{d|m} (d^2/m)^nu is convex in nu >= 0, so at most its larger end.

    Shell 1 takes eps = 2^-(p + 8).  The later shells share eps/2 of the
    pass total: shell m takes e_m = min(1/8, max(n_m, theta / r_m)), where
    n_m is the least budget at which shell 1's own step serves z_m and
    theta fills the share, sum_m max(n_m r_m, theta) = eps/2; so
    sum_m e_m r_m <= eps/2.  Where no shell needs more than the even share
    eps / (2 (M - 1)), theta is that share.  Where the needs n_m r_m add up
    to eps/2 or more, or some n_m exceeds 1/8, shell 1's step is out of
    reach: the shells take even shares and the grid the finer step they
    ask for.
    """
    nu = float(plan.orders[-1])
    later = range(2, shells + 1)
    log_ratio = []
    for m in later:
        logs = [2.0 * math.log(d) - math.log(m) for d in range(1, m + 1) if m % d == 0]
        top = math.log(math.fsum(math.exp(nu * x) for x in logs))
        log_ratio.append(max(math.log(len(logs)), top) - (m - 1) * z1)
    h = plan._step([z1], [plan.log_eps])
    log_need = [plan._log_need(m * z1, h) for m in later]
    needs = sorted((math.exp(n + r) for n, r in zip(log_need, log_ratio)), reverse=True)
    theta, spent, half = None, 0.0, math.exp(plan.log_eps) / 2.0
    if needs and max(log_need) <= -math.log(8.0):
        for i, a in enumerate(needs):
            share = (half - spent) / (len(needs) - i)
            if share >= a and share > 0.0:
                theta = share
                break
            spent += a
    if theta is None:
        log_theta, log_need = plan.log_eps - math.log(2.0 * max(shells - 1, 1)), [-math.inf] * len(log_need)
    else:
        log_theta = math.log(theta)
    return [plan.log_eps] + [min(max(n, log_theta - r), -math.log(8.0)) for n, r in zip(log_need, log_ratio)]


@functools.lru_cache(maxsize=64)
def _torus_constants(s: float) -> tuple:
    """(C1, D1, C2, D2, C3, CR): the torus-independent factors of
    ``_TorusBackend`` at s, each as (n, e) from ``_fix``, or None where the
    term is absent.

    s = 1/2: C1 = 2 gamma, D1 = -2, C2 = gamma - 2 ln 2 pi + psi(1/2), D2 = 2,
    C3 = 8; s = 1: C1 = 2 zeta_R(2), C2 = 2 pi (gamma + (psi(1/2) - psi(1))/2),
    D2 = -2 pi, C3 = 8 pi, CR = pi; otherwise C1 = 2 zeta_R(2s),
    C2 = 2 sqrt(pi) G(s) / Gamma(s), C3 = 8 pi^s / Gamma(s), with
    G(s) = Gamma(s - 1/2) zeta_R(2s - 1), or its limit
    (-1)^n 2 zeta_R'(-2n) / n! at s = 1/2 - n, n >= 1, where the pole of
    Gamma meets a trivial zero of zeta_R.
    """
    with mp.workprec(_FIX + 16):
        if s == 0.5:
            c = (2 * mp.euler, -2, mp.euler - 2 * mp.log(2 * mp.pi) + mp.digamma(mp.mpf(0.5)), 2, 8, None)
        elif s == 1.0:
            c = (2 * mp.zeta(2), None, 2 * mp.pi * (mp.euler + (mp.digamma(mp.mpf(0.5)) - mp.digamma(1)) / 2),
                 -2 * mp.pi, 8 * mp.pi, mp.pi)
        else:
            ss = mp.mpf(s)
            n = 0.5 - s
            if n == round(n) and n >= 1:
                n = int(round(n))
                gz = mp.mpf(2) * (-1) ** n * mp.zeta(-2 * mp.mpf(n), derivative=1) / mp.factorial(n)
            else:
                gz = mp.gamma(ss - mp.mpf(0.5)) * mp.zeta(2 * ss - 1)
            rgamma_s = mp.rgamma(ss)
            c = (2 * mp.zeta(2 * ss), None, 2 * mp.sqrt(mp.pi) * rgamma_s * gz, None,
                 8 * mp.power(mp.pi, ss) * rgamma_s, None)
        return tuple(None if x is None else _fix(mp.mpf(x)._mpf_) for x in c)


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
    exact integer divisor sum for the standard s.  A pass sums every shell
    on one node grid, shell 1's own in most passes, and gives
    r^(s-1/2) B(s) within 2^-(p + 6) relative, p = _PREC.

    Assembly.  With the constants of ``_torus_constants``,

        Z(s) = c1^(-2s) (C1 + D1 ln c1) + c1^-1 c2^(1-2s) (C2 + D2 ln c2)
             + C3 c1^(-2s) r^(1/2-s) (r^(s-1/2) B(s)),

    and the residue is CR c1^-1 c2^(1-2s); r is the double c2/c1 that the
    pass's z1 = 2 pi r takes too.  Every factor is an integer n
    with a binary scale e, the value n 2^-e: constants and the logarithms
    (mpmath's ``mpf_log`` of the doubles c1 and c2) within 2^(2 - F)
    relative, F = _FIX = p + 24 (``_fix``), and the powers within
    2^(7 - F) (``_powers``).  A term t_i, the product of one constant, at
    most two powers and at most one logarithm or Bessel block, is then an
    exact integer within 2^(10 - F) relative of its value, apart from the
    2^-(p + 6) of the Bessel term t_B.  The terms are rounded down to the
    scale S at which the largest has F bits, so that a unit 2^-S is at most
    2^(1 - F) max |t_i|, and summed: the finite part N 2^-S is within

        2^-(p + 6) |t_B| + 2^(10 - F) sum |t_i| + 5 units
        <= 2^-(p + 6) |t_B| + 2^-(p + 13) sum |t_i|

    of Z(s), and the residue R 2^-S within 2^(10 - F) of its value and a
    unit; ``fixed`` states one bound for both in units of 2^-S, and
    ``point`` rounds N / 2^S and R / 2^S correctly to doubles.  No value
    depends on mpmath's global precision.

    One table per torus: the first request for an s of ``_STANDARD_S``
    runs one pass for the whole set and assembles all of it; every other
    s is a pass of its own.  ln c1 and ln c2 enter at s = 1/2 and s = 1,
    and every standard power is a half-integer one, so a standard table
    evaluates nothing in mpmath but ln c1 and ln c2 and libmp's fixed-point
    helpers, once the torus-independent plans, tables and constants exist.
    """

    def __init__(self, cs: FlatTorus):
        la, lb = max(cs.ell1, cs.ell2), min(cs.ell1, cs.ell2)
        self.c1 = 2.0 * math.pi / la  # smaller wavenumber
        self.c2 = 2.0 * math.pi / lb
        self.ell_big = la
        self.ratio = self.c2 / self.c1  # = la/lb >= 1
        self._table: dict = {}  # s -> fixed(s)

    def _bessel_pass(self, svals) -> list:
        """r^(s - 1/2) B(s) = h e^(-z1) A_nu for every s of svals, as (n, e),
        from one fixed-point pass over the shells.

        A_nu = sum_m t_m e^(z1) / h, nu = |s - 1/2|, z_m = m z1 = 2 pi r m,
        t_m = m^-nu sigma_2nu(m) K_nu(z_m), and A_nu >= 1/2 at any aspect
        ratio.  Shell m's weights are m-th powers of shell 1's, so one node
        grid serves every shell.

        Budgets.  Every order's t_m <= r_m t_1 (``_shell_budgets``), and t_1
        is at most the total, so a relative error d of shell m's K values is
        at most d r_m of the total.  Shell 1 takes the budget
        e_1 = eps = 2^-(p + 8) of ``_BesselK``; the later shells of the M
        that ``_settle_shifts`` allows take budgets e_m <= 1/8 with
        sum_m e_m r_m <= eps/2 (``_shell_budgets``), so step and truncation,
        1.6 e_m relative of each K_nu(z_m), cost at most 1.6 eps of the
        total in shell 1 and 0.8 eps in all later shells together.  The
        pass stops at a shell by comparing its computed terms, at least
        1 - 1.6 e_m >= 4/5 of the true ones, with the totals, so the shells
        after it add at most eps / (4/5) = 1.25 eps, not the eps of
        ``_settle_shifts``.  The budgets let every later shell take shell
        1's own step wherever their needs fit in eps/2; the grid takes the
        smallest of the shells' steps at their budgets, and each shell the
        nodes its budget needs, at least as many as the next.

        h e^(-z1) A_nu is then within (2.4 + 1.25 + 1/4) eps < 4 eps =
        2^-(p + 6) relative: step and truncation 2.4 eps; the shells after
        the one the pass stops at 1.25 eps; the powers (m roundings in
        shell m), recurrence, accumulation and z (z_m within m units) below
        eps/4 (``_BesselK._guard``); and e^(-z1), which ``exp_fixed`` gives
        within 2^6 units of its leading 2^P (P >= p + 32, as the guard's
        bound exceeds 2^6), below 2^-(p + 25) more.  The step h is a double
        and enters exactly.
        """
        besselk, picks = _pass_plan(tuple(svals))
        z1f = 2.0 * math.pi * self.ratio
        shifts = _settle_shifts(besselk.p, float(besselk.orders[-1]), z1f)
        shells = len(shifts)
        budgets = _shell_budgets(besselk, z1f, shells)
        h = besselk._step([m * z1f for m in range(1, shells + 1)], budgets)
        counts = [besselk._nodes(shells * z1f, h, budgets[-1])]
        for m in range(shells - 1, 0, -1):
            counts.insert(0, besselk._nodes(m * z1f, h, budgets[m - 1], counts[0]))
        table = _cosh_table(besselk.integrated, h, besselk.p + besselk._guard(z1f, h, counts))
        bits = table.bits
        mr, er = _man_exp(self.ratio)
        zfix = _shift(pi_fixed(bits + 16) * mr, 15 - er)  # 2 pi r 2^bits, rounded down
        weights = table.weights(zfix, counts[0])
        powers = [1 << bits] + weights[1:]  # b_0 = 1 keeps w_0 halved
        ln2 = ln2_fixed(bits)
        k, t = divmod(-zfix, ln2)
        e1 = exp_fixed(t, bits, ln2)  # e^-z1 = e1 2^(k - bits)
        decay = 1 << bits
        totals = [0] * len(besselk.orders)
        for m, (n, shift) in enumerate(zip(counts, shifts), 1):
            if m > 1:
                weights = [(w * b) >> bits for w, b in zip(weights, powers[:n])]
                decay = (decay * (e1 >> -k)) >> bits
            kv = besselk.shell(table, weights, m * zfix)
            settled = shift is not None
            for i, (j, w) in enumerate(zip(besselk.out, _divisor_weights(besselk, m, bits))):
                term = (kv[j] * w * decay) >> (2 * bits)
                totals[i] += term
                settled = settled and term << shift <= totals[i]
            if settled:
                break
        mh, eh = _man_exp(h)
        return [(mh * e1 * totals[i], 2 * bits - k - eh) for i in picks]

    def _assemble(self, s: float, block, pa, pb, pr, logs) -> tuple:
        """``fixed(s)`` from the pass's r^(s - 1/2) B(s), the powers
        pa = c1^(-2s), pb = c1^-1 c2^(1-2s) and pr = r^(1/2-s), and at s = 1/2
        and s = 1 (ln c1, ln c2)."""
        c1_term, d1, c2_term, d2, c3, cr = _torus_constants(s)
        terms = [_mul(c3, pa, pr, block), _mul(c1_term, pa), _mul(c2_term, pb)]
        if d1 is not None:
            terms.append(_mul(d1, logs[0], pa))
        if d2 is not None:
            terms.append(_mul(d2, logs[1], pb))
        scale = _FIX - max((n.bit_length() - e for n, e in terms if n), default=0)
        ints = [_shift(n, e - scale) for n, e in terms]
        res = 0
        if cr is not None:
            n, e = _mul(cr, pb)
            res = _shift(n, e - scale)
        err = ((sum(map(abs, ints)) + abs(res)) >> (_FIX - 10)) + (abs(ints[0]) >> (_PREC + 6)) + 8
        return sum(ints), res, scale, err

    def fixed(self, s: float) -> tuple:
        """(N, R, S, E): the finite part N 2^-S and the residue R 2^-S of
        Z(s), both within E units of 2^-S; integers, kept per s."""
        hit = self._table.get(s)
        if hit is None:
            if s == 0.0:
                return -1, 0, 0, 0
            svals = _STANDARD_S if s in _STANDARD_S else (s,)
            # ln c1 and ln c2 enter at s = 1/2 and s = 1, both standard
            logs = [_fix(mpf_log(from_float(c), _FIX + 8)) for c in (self.c1, self.c2)] if len(svals) > 1 else None
            (inv_c1,) = _powers(self.c1, [-1.0])
            columns = zip(svals, self._bessel_pass(svals), _powers(self.c1, [-2.0 * t for t in svals]),
                          _powers(self.c2, [1.0 - 2.0 * t for t in svals]), _powers(self.ratio, [0.5 - t for t in svals]))
            for t, block, pa, pc2, pr in columns:
                self._table[t] = self._assemble(t, block, pa, _mul(inv_c1, pc2), pr, logs)
            hit = self._table[s]
        return hit

    def point(self, s: float) -> ZetaPoint:
        n, r, scale, _ = self.fixed(s)
        return ZetaPoint(s, _to_float(n, scale), _to_float(r, scale))

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

# largest error budget of F(s) the numeric backend answers with; above it
# it raises ConvergenceError
_NUMERIC_GATE = 1e-9
_MAX_DOUBLINGS = 5  # the most times a Mellin rule's panels are halved


@functools.lru_cache(maxsize=1)
def _gauss_legendre() -> tuple:
    """Nodes and weights on [-1, 1] of every panel of the Mellin rules;
    numpy.polynomial loads on the first numeric backend's use."""
    return np.polynomial.legendre.leggauss(16)


class _NumericBackend:
    """Mellin-split continuation of a zero-excluded spectral zeta function.

    zeta(s) * Gamma(s) = F(s) with

        F(s) = sum_j a_j T^(s-b_j)/(s-b_j) - q0 T^s/s
             + int_tmin^T t^(s-1) R(t) dt + int_T^inf t^(s-1) h(t) dt,

    b_j = d/2 - j, h(t) the truncated positive-mode heat sum, and R(t) the
    exponentially small difference between h(t) and the heat model.  All
    power terms continue in closed form; the two integrals are entire in s.

    Both integrals are composite Gauss-Legendre rules in u = ln t, where
    t^(s-1) dt = t^s du: R on the 47 cells between the 48 geometric
    ``grid`` edges from tmin to T, from the cell ``_small_integration_start``
    picks for s, and h on 8 equal cells of [ln T, ln(T + 60/mu_1)].  Each
    cell holds 2^level panels of 16 nodes.  The nodes and weights times
    R or h are kept per rule and level, so a new s costs one power t^s and
    one dot product per rule.  Each integral is the rule at the coarsest
    level whose distance from the next level, its error estimate, is within
    a quarter of _NUMERIC_GATE, or at _MAX_DOUBLINGS.
    """

    def __init__(self, cs: CrossSection, split_point: float = 1.0):
        if split_point <= 0:
            raise ValidationError("the Mellin split point must be > 0")
        self.cs = cs
        self.T = float(split_point)
        self.d = cs.dim
        self.q0 = kernel_dim(cs)
        if cs.heat is None:
            raise HeatDataRequiredError(
                "numeric zeta backend needs heat coefficients; heat data required"
            )
        heat = heat_coefficients(cs, order=cs.heat.order)
        coeffs = [heat.coeff(j) for j in range(heat.order + 1)]
        self.betas = [(self.d / 2.0 - j, a) for j, a in enumerate(coeffs) if a != 0.0]

        lam, tmin, tail_err = self._choose_truncation()
        # the positive modes; on stored data views of the shared arrays
        mu, mult = cs._arrays(lam) if lam > 0 else (np.empty(0), np.empty(0))
        zero = mu.searchsorted(0.0, side="right")
        self.mu, self.mult = mu[zero:], mult[zero:]
        self.tmin = tmin
        self._cache: dict = {}
        self.grid = np.geomspace(tmin, self.T, 48)
        self.grid_R = np.abs(self._R(self.grid))
        # error ledger: spectral-tail leakage plus the unmodelled part of
        # R(t) below tmin (exponentially small for exact heat data)
        self.err_tail = tail_err
        self.err_model = abs(self._R(tmin)) * tmin if tmin > 0 else 0.0

    # -- setup ---------------------------------------------------------------
    def _choose_truncation(self):
        cs, T = self.cs, self.T
        if cs.max_trusted < math.inf:
            lam = cs.max_trusted
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
        for b, a in self.betas:
            if s == b:
                res += a
        if s == 0.0:
            res -= self.q0
        return res

    def _heat(self, t, n=None):
        """sum_j m_j exp(-t mu_j) over the n lowest modes, all by default."""
        t = np.asarray(t, dtype=float)
        return np.exp(-np.outer(t, self.mu[:n])).dot(self.mult[:n]).reshape(t.shape)

    def _model(self, t):
        out = -float(self.q0) * np.ones_like(np.asarray(t, dtype=float))
        for b, a in self.betas:
            out = out + a * np.asarray(t, dtype=float) ** (-b)
        return out

    def _R(self, t):
        return self._heat(t) - self._model(t)

    # -- the entire-in-s pieces ----------------------------------------------
    def _integrals(self, s: float):
        """(IR, IR_err, G, G_err) at this s."""
        key = ("int", s)
        if key in self._cache:
            return self._cache[key]
        # R(t) falls off superexponentially towards small t; skip the part
        # below double-precision relevance and book a bound for it
        cell, skip_err = self._small_integration_start(s)
        ir, ir_err = self._integrate("small", cell, s)
        g, g_err = self._integrate("large", 0, s) if self.mu.size else (0.0, 0.0)
        out = self._cache[key] = (ir, ir_err + skip_err, g, g_err)
        return out

    def _integrate(self, rule: str, cell: int, s: float):
        """(value, error estimate) of the rule's integral over its cells from ``cell`` on."""
        level = 0
        while True:
            coarse, fine = (self._rule_sum(rule, k, cell, s) for k in (level, level + 1))
            if abs(coarse - fine) <= _NUMERIC_GATE / 4.0 or level == _MAX_DOUBLINGS:
                return coarse, abs(coarse - fine)
            level += 1

    def _rule_sum(self, rule: str, level: int, cell: int, s: float) -> float:
        """The rule at s over its cells from ``cell`` on, with 2^level panels
        per cell.  Its nodes t and weights times f(t) are kept per level: f
        sees only the modes mu <= 55 / t_p, t_p the panel's lower end, as the
        rest add below 1e-20."""
        if (rule, level) not in self._cache:
            if rule == "small":
                edges, f = np.log(self.grid), lambda t, n: self._heat(t, n) - self._model(t)
            else:
                edges, f = np.linspace(math.log(self.T), math.log(self.T + 60.0 / self.mu[0]), 9), self._heat
            nodes, weights = _gauss_legendre()
            u = np.linspace(edges[:-1], edges[1:], 2**level + 1, axis=1)
            lo, half = u[:, :-1].ravel(), np.diff(u, axis=1).ravel() / 2.0
            t = np.exp((lo + half)[:, None] + half[:, None] * nodes)
            counts = np.searchsorted(self.mu, 55.0 / np.exp(lo))
            wf = [w * f(row, n) for row, w, n in zip(t, half[:, None] * weights, counts)]
            self._cache[rule, level] = t.ravel(), np.concatenate(wf)
        t, wf = self._cache[rule, level]
        i = cell * 2**level * len(_gauss_legendre()[0])
        return float(np.dot(wf[i:], t[i:] ** s))

    def _small_integration_start(self, s: float):
        """(cell, bound): the grid cell from which the small range is
        integrated at s, and a bound on the part below it."""
        # the max(1, |ln t|) factor only moves t_lo, but t_lo decides every
        # IR the backend returns: changing the weight changes every value
        grid = self.grid
        weight = grid ** (min(s, 1.0) - 1.0) * np.maximum(1.0, np.abs(np.log(grid)))
        mask = self.grid_R * weight * self.T > 1e-22
        idx = int(np.argmax(mask)) if mask.any() else len(grid) - 1
        cell = max(idx - 1, 0)
        return cell, min(float(self.grid_R[cell] * weight[cell]) * self.T, 1e-22)

    def _F_regular(self, s: float):
        """(regular part of F at s with the pole (if any) removed, residue);
        raises when the error budget exceeds _NUMERIC_GATE."""
        res = self._is_pole(s)
        total = 0.0
        for b, a in self.betas:
            if s == b:
                total += a * math.log(self.T)
            else:
                total += a * self.T ** (s - b) / (s - b)
        if self.q0:
            if s == 0.0:
                total += -self.q0 * math.log(self.T)
            else:
                total += -self.q0 * self.T**s / s
        ir, ir_err, g, g_err = self._integrals(s)
        err = ir_err + g_err + self.err_tail + self.err_model
        if err > _NUMERIC_GATE:
            raise ConvergenceError(
                "numeric zeta continuation did not reach the requested tolerance",
                achieved=err,
            )
        return total + ir + g, res

    # -- public surface --------------------------------------------------
    def point(self, s: float) -> ZetaPoint:
        freg, res = self._F_regular(s)
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
        freg, res = self._F_regular(0.0)
        return freg + EULER_GAMMA * res


# ----------------------------------------------------------------------------
# backend dispatch
# ----------------------------------------------------------------------------

# the most recently used backends, least recent first; every backend keeps
# its own value caches, so an unbounded map would grow with every new
# cross-section of a sweep
_BACKEND_CACHE_SIZE = 32
_SHIFTED_CACHE_SIZE = 16  # shifted determinants, and truncated-zeta rows, kept per backend
_backend_cache: OrderedDict = OrderedDict()
_backend_lock = threading.Lock()
# every other cross-section runs on the numeric backend
_CLOSED_BACKENDS = {Point: _PointBackend, Circle: _CircleBackend, FlatTorus: _TorusBackend}


def _get_backend(cs: CrossSection, backend: str = "auto"):
    if backend not in ("auto", "closed", "numeric"):
        raise ValidationError(f"unknown backend {backend!r}")
    closed = _CLOSED_BACKENDS.get(type(cs))
    if backend == "auto":
        backend = "numeric" if closed is None else "closed"
    key = (cs, backend)
    with _backend_lock:
        hit = _backend_cache.get(key)
        if hit is not None:
            _backend_cache.move_to_end(key)
            return hit
    if backend == "closed":
        if closed is None:
            raise ValidationError(
                "closed-form backend supports only point, circle and flat torus"
            )
        b = closed(cs)
    else:
        b = _NumericBackend(cs)
    b.shifted, b.rows = OrderedDict(), OrderedDict()
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
) -> ZetaPoint:
    """Finite part and residue of the spectral zeta function at real s.

    The sum runs over the nonzero spectrum; ``include_zero`` adds the
    zero modes with the convention 0^0 = 1 (that is, it adds q0 at s = 0
    and nothing for s < 0; it is rejected for s > 0 where 0^-s diverges).
    """
    zp = _get_backend(cs, backend).point(float(s))
    if include_zero:
        q0 = kernel_dim(cs)
        if s > 0 and q0 > 0:
            raise ValidationError("zero modes cannot be included at s > 0")
        if s == 0:
            zp = ZetaPoint(zp.location, zp.value + q0, zp.residue)
    return zp


def zeta_derivative0(cs: CrossSection, backend: str = "auto") -> float:
    """d/ds at s = 0 of the zero-excluded spectral zeta function."""
    return _get_backend(cs, backend).derivative0()


def log_det_star(cs: CrossSection, backend: str = "auto") -> RegularizedDet:
    """ln Det* of the cross-section Laplacian (zero modes excluded)."""
    dz = zeta_derivative0(cs, backend)
    return RegularizedDet(
        log_modulus=-dz, phase_multiple=0, excluded_zero_modes=kernel_dim(cs)
    )


# ----------------------------------------------------------------------------
# shifted first-order determinant ln Det(sqrt(Delta) + alpha)
# ----------------------------------------------------------------------------


def _check_alpha(alpha: float) -> None:
    """Refuse a Robin parameter or shift unless |alpha| <= 1e150: the cutoffs of
    the admissibility scans and series, like the split 4 alpha^2, overflow near 6.7e153."""
    if not abs(alpha) <= 1e150:
        raise ValidationError(f"alpha must be finite with |alpha| <= 1e150, got {alpha}")


# modes that a scan or series whose cutoff alpha sets may enumerate; a
# million torus modes take about two seconds to list
_MODE_BUDGET = 10**6


def _check_modes(cs: CrossSection, cutoff: float, value: float, name: str = "alpha") -> None:
    """Refuse ``name`` = value (alpha, or a piece length), before any mode is enumerated,
    when the spectrum of cs up to the cutoff it sets may hold more than _MODE_BUDGET modes.

    On a spectrum known in full the count is at most e^(t cutoff) Theta(t)
    for every t > 0, Theta the heat trace; t = max(dim, 1) / (2 cutoff)
    makes this about e^(dim/2) times the Weyl count.  Stored spectra stop
    at their largest mode.
    """
    if cs.max_trusted < math.inf:
        return
    t = max(cs.dim, 1) / (2.0 * cutoff)
    count = math.exp(t * cutoff) * heat_trace(cs, t)
    if count > _MODE_BUDGET:
        raise ValidationError(
            f"{name} = {value} needs the spectrum up to {cutoff:.3g}, up to {count:.3g} modes: "
            f"more than the mode budget of {_MODE_BUDGET:,}"
        )


def _check_admissible(cs: CrossSection, alpha: float, cutoff: float, values, message, culprit=()):
    """Refuse a parameter alpha at which an operator over cs is singular.

    ``values(x)`` gives the operator's eigenvalues over the cross-section
    mode with sqrt-eigenvalue x, and the caller knows that no mode above
    ``cutoff`` has one that vanishes.  A value within
    1e-14 max(1, |alpha|) of zero at the mode mu raises
    ``SingularParameterError(message(mu))``.  ``culprit``, (value, name),
    is what set the cutoff where alpha did not (``_check_modes``).
    """
    _check_modes(cs, cutoff, *(culprit or (alpha,)))
    tol = 1e-14 * max(1.0, abs(alpha))
    for e in enumerate_spectrum(cs, cutoff):
        if any(abs(v) < tol for v in values(math.sqrt(e.eigenvalue))):
            raise SingularParameterError(message(e.eigenvalue))


def _shift_refusal(alpha: float, mu: float) -> str:
    if alpha == 0.0:
        return "singular shift: alpha = 0 collides with the zero modes"
    return f"singular shift: -alpha = {-alpha} lies in the sqrt-spectrum (eigenvalue {mu})"


def _log1p_tail(x: float, kmax: int) -> float:
    """sum_{k>=kmax} (-1)^(k+1) x^k / k, summed directly (no cancellation),
    for |x| < 1.

    The sum stops once |x|^k falls below 2^-54 of the total: every later
    term is then under half an ulp of it and cannot move it.  The floor
    1e-55 stops a zero or tiny total where the rule that summed on to
    1e-25 max(|total|, 1e-30) stopped it, so the two agree bit for bit.
    """
    term = (-1.0) ** (kmax + 1) * x**kmax
    total = 0.0
    k = kmax
    while True:
        total += term / k
        term *= -x
        k += 1
        if abs(term) < max(2.0**-54 * abs(total), 1e-55) or k > kmax + 400:
            return total


_KORDER = 16  # binomial terms expanded by _shifted_via_series
# largest stated error of the binomial series on a torus that
# _shifted_via_series answers with; above it it raises ConvergenceError
_SERIES_GATE = 1e-8


def _truncated_row(cs: CrossSection, mu0: float, backend) -> tuple:
    """The alpha-free part of ``_shifted_via_series`` at the split mu0.

    (low, c0, zetas, errors): the positive modes up to mu0; the k = 0
    binomial term -1/2 d/ds zeta_{Delta,>mu0}(0), where removing the
    split-off low modes adds +ln(mu) per mode to the derivative; the
    truncated zeta values zeta_{>mu0}(k/2) for k = 1, ..., _KORDER - 1,
    with the harmonic-number weight of a residue at a pole; and per k a
    stated bound on the error of zetas[k - 1], or None where the backend
    states none.

    The difference zeta(k/2) - partial cancels catastrophically in doubles
    for large k.  A torus forms it at the scale of its fixed-point table
    (``_TorusBackend.fixed``), each low mode's power within 2 units, and
    rounds it once.  Its error bound adds the table's, those units, and
    the rounding of the low eigenvalues themselves: ``FlatTorus`` forms
    (c1 j)^2 + (c2 k)^2 from the doubles c1, c2 of the table in four
    roundings, within 4 2^-53 relative of the exact value, so that a
    power -k/2 of it is within 2.02 k 2^-53 relative.  On stored data
    the numeric backend switches to the directly summed tail (its modes
    above mu0 plus half the model tail beyond them) once the defining
    series converges comfortably.
    """
    low = [e for e in enumerate_spectrum(cs, mu0) if e.eigenvalue > 0]
    low_logsum = math.fsum(e.multiplicity * math.log(e.eigenvalue) for e in low)
    c0 = -0.5 * (backend.derivative0() + low_logsum)
    zetas = []
    if isinstance(backend, _TorusBackend):
        errors = []
        modes = sum(e.multiplicity for e in low)
        for k in range(1, _KORDER):
            val, res, scale, err = backend.fixed(k / 2.0)
            partial = sum(e.multiplicity * _half_power(e.eigenvalue, -k, scale) for e in low)
            weight, res = 2.0 * harmonic(k - 1), _to_float(res, scale)
            zk = _to_float(val - partial, scale) + weight * res
            zetas.append(zk)
            errors.append((1.0 + weight) * _to_float(err + 2 * modes, scale)
                          + 2.02 * k * 2.0**-53 * _to_float(partial, scale)
                          + 2.0**-52 * (abs(zk) + weight * abs(res)))
        return low, c0, zetas, errors
    d = cs.dim
    above = None  # on stored data, the modes above mu0
    if cs.max_trusted < math.inf:
        mu, mult = cs._arrays(cs.max_trusted)
        i = mu.searchsorted(mu0, side="right")
        above = mu[i:], mult[i:]
    for k in range(1, _KORDER):
        if k / 2.0 > d / 2.0 + 1.5 and above is not None:
            mu, mult = above
            zk = float(mult @ mu ** (-k / 2.0))
            zk += 0.5 * power_tail_bound(cs, cs.max_trusted, k / 2.0)
        else:
            zp = backend.point(k / 2.0)
            partial = math.fsum(
                e.multiplicity * e.eigenvalue ** (-k / 2.0) for e in low
            )
            if zp.residue == 0.0:
                zk = zp.value - partial
            else:
                zk = (zp.value - partial) + 2.0 * harmonic(k - 1) * zp.residue
        zetas.append(zk)
    return low, c0, zetas, None


def _keep(cache: OrderedDict, key, value) -> None:
    """Store value in one of a backend's maps, which keep their newest
    ``_SHIFTED_CACHE_SIZE`` entries."""
    with _backend_lock:
        cache[key] = value
        while len(cache) > _SHIFTED_CACHE_SIZE:
            cache.popitem(last=False)


def _shifted_via_series(cs: CrossSection, alpha: float, backend) -> RegularizedDet:
    """Binomial reduction of ln Det(sqrt(Delta)+alpha) to zeta data of Delta.

    Low modes are split off exactly; for the rest, (sqrt(mu)+alpha)^-s is
    expanded binomially to ``_KORDER`` terms whose s-derivatives at 0 hit
    zeta values (finite parts and residues at poles, with harmonic-number
    weights) of the cross-section Laplacian; the remainder is an
    absolutely convergent log-tail sum with a certified bound.  The
    alpha-free zeta data (``_truncated_row``) depend on alpha only through
    the split mu0 = max(4 alpha^2, 1), so alpha and -alpha share one row,
    kept on the backend.  Where the row states errors (a torus), their sum
    over the series, sum_k |alpha|^k / k err_k, above _SERIES_GATE raises
    ``ConvergenceError``: the cancellation in the truncated zeta values
    then costs more digits than the result can spare.
    """
    q0 = kernel_dim(cs)
    logmod = 0.0
    phase = 0
    if q0:
        lm, ph = signed_log(alpha)
        logmod += q0 * lm
        phase += q0 * ph

    mu0 = max(4.0 * alpha * alpha, 1.0)
    row = backend.rows.get(mu0)
    if row is None:
        _check_modes(cs, mu0, alpha)
        row = _truncated_row(cs, mu0, backend)
        _keep(backend.rows, mu0, row)
    low, c0, zetas, errors = row
    if errors is not None:
        err = math.fsum(abs(alpha) ** k / k * e for k, e in enumerate(errors, 1))
        if err > _SERIES_GATE:
            raise ConvergenceError(
                f"the binomial series of ln Det(sqrt(Delta) + alpha) at alpha = {alpha} "
                "loses its digits to cancellation against the low torus modes",
                achieved=err,
            )
    for e in low:
        lm, ph = signed_log(math.sqrt(e.eigenvalue) + alpha)
        logmod += e.multiplicity * lm
        phase += e.multiplicity * ph
    logmod += c0
    for k, zk in enumerate(zetas, 1):
        logmod -= (-alpha) ** k / k * zk

    # convergent log-remainder over the high modes, up to where its tail
    # bound falls below 1e-13; stored data stop at max(4 mu0, 100) or at
    # their largest mode, whichever is lower
    lam_hi = max(mu0 * 4.0, 100.0)
    while cs.max_trusted == math.inf and alpha != 0.0 and (
        2.0 * abs(alpha) ** _KORDER / _KORDER * power_tail_bound(cs, lam_hi, _KORDER / 2.0) >= 1e-13
    ):
        lam_hi *= 2.0
    lam_hi = min(lam_hi, cs.max_trusted)
    rem = 0.0
    if alpha != 0.0:
        for e in enumerate_spectrum(cs, lam_hi):
            if e.eigenvalue <= mu0:
                continue
            x = alpha / math.sqrt(e.eigenvalue)
            rem += e.multiplicity * _log1p_tail(x, _KORDER)
    logmod += rem
    return RegularizedDet(logmod, phase, 0)


def log_det_shifted(
    cs: CrossSection,
    alpha: float,
    backend: str = "auto",
) -> RegularizedDet:
    """ln Det(sqrt(Delta_Y) + alpha), zero modes of Delta_Y included.

    The point's and the circle's closed backends have a closed form; every
    other backend takes the binomial reduction against its zeta values.
    Finitely many negative shifted eigenvalues contribute ln|.| to the
    modulus and one pi unit each to the phase.
    """
    _check_alpha(alpha)
    if alpha <= 0.0:
        _check_admissible(cs, alpha, alpha * alpha * (1.0 + 1e-9) + 1.0,
                          lambda x: (x + alpha,), lambda mu: _shift_refusal(alpha, mu))
    # kept on the backend, so evicted with it; refusals raise above each time
    b = _get_backend(cs, backend)
    det = b.shifted.get(alpha)
    if det is None:
        det = b.shifted_closed(alpha) if hasattr(b, "shifted_closed") else _shifted_via_series(cs, alpha, b)
        _keep(b.shifted, alpha, det)
    return det
