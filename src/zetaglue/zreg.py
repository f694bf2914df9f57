"""Zeta-regularization engine.

Computes values, residues and finite parts of spectral zeta functions of
the cross-section Laplacian, together with the two regularized
determinants the cylinder formulas consume:

* ``log_det_star(cs)``      -- ln Det* of the Laplacian (zero modes excluded),
* ``log_det_shifted(cs, a)`` -- ln Det of (sqrt(Laplacian) + a), zero modes
  included (they contribute factors of ``a``).

Two interchangeable backends are provided.  The closed-form backend
reduces the point and circle cases to Riemann-zeta evaluations and the
flat torus to the Ewald split of its heat trace, in float64.  The numeric backend performs a Mellin
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
import threading
from collections import OrderedDict
from dataclasses import dataclass

import mpmath as mp
import numpy as np

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
    _fold,
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

    def truncated(self, mu0: float, low) -> list:
        return [_less_low_modes(self, low, k) for k in range(1, _KORDER)]

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
# log_det_shifted.
_STANDARD_S = (-0.5,) + tuple(k / 2.0 for k in range(1, 16))
_S = np.array(_STANDARD_S)[:, None]

# The torus backend's Ewald split (``_TorusBackend``).  Its table splits
# at tau0 = A / (4 _EWALD_FLOOR), A the area: on the square torus every
# Poisson argument is then at least _EWALD_FLOOR, and on a torus of aspect
# r at least _EWALD_FLOOR / r, while both sums keep O(sqrt(r)) points.
# Both stop where their argument passes _EWALD_CUT, where a term has
# fallen by e^-38 = 3e-17.
_EWALD_FLOOR = 5.0
_EWALD_CUT = 38.0


def _lower_series(a, x):
    """sum_{n>=0} x^n / (a (a + 1) ... (a + n)) for a > 0, so that
    gamma(a, x) = x^a e^-x times it: positive terms, summed until the next
    is below 2^-54 of the total."""
    term = np.ones(np.broadcast(a, x).shape) / a
    total, n = term, 1.0
    while True:
        term = term * x / (a + n)
        total = total + term
        if np.all(term <= 2.0**-54 * total):
            return total
        n += 1.0


def _e1(y: float) -> float:
    """E1(y) = Gamma(0, y) for y > 0.  From y = 1/2 on, the continued
    fraction e^y E1(y) = 1/(y + 1 - 1/(y + 3 - 4/(y + 5 - ...))) (DLMF
    8.9.2 at a = 0), evaluated from its tail, ceil(100 / y) + 10 levels
    deep; below, the series -gamma - ln y - sum_{k>=1} (-y)^k / (k k!)."""
    if y >= 0.5:
        n = math.ceil(100.0 / y) + 10
        f = y + (2 * n + 1)
        for i in range(n, 0, -1):
            f = (y + (2 * i - 1)) - i * i / f
        return math.exp(-y) / f
    term, g, k = -y, -EULER_GAMMA - math.log(y), 1
    while abs(term) > 2.0**-54 * abs(g):
        g -= term / k
        k += 1
        term = -term * y / k
    return g


def _standard_gammas(x, y) -> tuple:
    """(spectral, poisson): Gamma(s, x) at the spectral arguments x and
    y^(s-1) Gamma(1-s, y) at the Poisson ones, a row per s of _STANDARD_S.

    It starts from Gamma(1/2, z) = sqrt(pi) erfc(sqrt z), the rounding of
    sqrt z put back as in ``spectra._upper_gamma``, from Gamma(1, x) = e^-x
    and from E1(y) (``_e1``).  The spectral side climbs by Gamma(a + 1, x) =
    a Gamma(a, x) + x^a e^-x (DLMF 8.8.2), adding positive terms.  The
    Poisson side descends by the same identity for U_a = y^-a Gamma(a, y),
    U_(a-1) = (y U_a - e^-y) / (a - 1), which loses y / |a| relative, but
    only where U_a is about e^-y / y: against mpmath over y in [2e-6, 38],
    each row s >= 3/2 is within 1.2 x 2^-52 of the larger of its value and
    its bracket's 1/(s - 1).  The row s = -1/2 is one step the other way.
    """
    n = x.size
    z = np.concatenate((x, y))
    ez, root = np.exp(-z), np.sqrt(z)
    c = 134217729.0 * root
    hi = c - (c - root)
    lo = root - hi
    out = np.empty((17, z.size))
    ladder = out[1:].reshape(8, 2, z.size)
    ladder[0, 0] = math.sqrt(math.pi) * np.fromiter(map(math.erfc, root), float, z.size)
    ladder[0, 0] *= np.exp((hi * hi - z) + 2.0 * hi * lo + lo * lo)
    ladder[0, 0, n:] /= root[n:]
    ladder[0, 1, :n], ladder[0, 1, n:] = ez[:n], [_e1(v) for v in y]
    # both parities and sides step as (p G + q) / r: p = a, q = x^a e^-x, r = 1
    # at a = 1/2 + j and 1 + j; p = y, q = -e^-y, r = a - 1 at a = 1/2 - j and -j
    a = np.arange(7.0)[:, None, None] + [[0.5], [1.0]]
    p, q, r = np.empty((3, 7, 2, z.size))
    p[..., :n], p[..., n:], q[..., :n], q[..., n:], r[..., :n], r[..., n:] = a, y, x**a * ez[:n], -ez[n:], 1.0, -a
    for j in range(7):
        ladder[j + 1] = (p[j] * ladder[j] + q[j]) / r[j]
    out[0, :n] = 2.0 * (ez[:n] / root[:n] - out[1, :n])
    out[0, n:] = (0.5 * out[1, n:] + ez[n:]) / y
    return out[:16, :n], out[:16, n:]


def _scaled_gamma(a: float, x):
    """x^-a Gamma(a, x) at one real order a and every x > 0, for an s
    outside _STANDARD_S: about 1.1 ms for its two sums on a torus.

    Where x >= a + 1 for a > 1, or x >= 1/2 for a <= 1, the continued
    fraction x^-a e^x Gamma(a, x) = 1/(x + 1 - a - 1 (1 - a)/(x + 3 - a -
    2 (2 - a)/(x + 5 - a - ...))) (DLMF 8.9.2) is evaluated from its tail,
    n = 100 / min x + 10 levels deep, over all those x at once: within a
    few eps, where the forward (Lentz) evaluation gathers about ten times
    that.  Elsewhere, for a > 0, Gamma(a) less the series of gamma(a, x);
    for a <= 0, the same at b = a - floor(a) (E1(x) at b = 0), then the
    steps G_(c-1) = (x G_c - e^-x) / (c - 1) down to a, which subtract the
    smaller term for x < 1/2.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    cf = x >= (a + 1.0 if a > 1.0 else 0.5)
    if cf.any():
        cx = x[cf]
        n = math.ceil(100.0 / cx.min()) + 10
        f = cx + (2 * n + 1) - a
        for i in range(n, 0, -1):
            f = (cx + (2 * i - 1) - a) - i * (i - a) / f
        out[cf] = np.exp(-cx) / f
    y = x[~cf]
    if y.size:
        base = a - math.floor(a) if a <= 0.0 else a
        ey = np.exp(-y)
        g = np.array([_e1(v) for v in y]) if base == 0.0 else y**-base * math.gamma(base) - ey * _lower_series(base, y)
        while base > a:
            g = (y * g - ey) / (base - 1.0)
            base -= 1.0
        out[~cf] = g
    return out


class _TorusBackend:
    """Flat-torus zeta from the Ewald split of its heat trace.

    By Poisson summation the heat trace is theta(u) = sum_mu e^(-u mu) =
    (A / 4 pi u) sum_{v in L} e^(-|v|^2 / 4u), A the area and L the lattice
    of periods.  Splitting the Mellin integral of theta - 1 at u = tau and
    taking the Poisson form below tau gives, at every split mu0 >= 0,

        Gamma(s) zeta_{>mu0}(s) = sum_{mu > mu0} Gamma(s, tau mu) mu^-s
            + (A/4 pi) [tau^(s-1)/(s-1) + sum_{v != 0} (|v|^2/4)^(s-1) Gamma(1-s, |v|^2/4 tau)]
            - sum_{0 < mu <= mu0} gamma(s, tau mu) mu^-s - tau^s / s,

    zeta_{>mu0} the sum over the modes above mu0 (P. P. Ewald, Ann. Phys.
    1921; R. Crandall, "Fast evaluation of Epstein zeta functions", 1998).
    Every sum converges exponentially, and none is a difference of larger
    ones, so doubles suffice.  Both run over ``spectra._fold``, which lists
    the torus spectrum too; the Poisson terms are tau^(s-1) times
    y^(s-1) Gamma(1-s, y) at y = |v|^2 / 4 tau.

    mu0 = 0 gives zeta itself.  The first request for an s of _STANDARD_S
    fills all of them at tau0 = A / (4 _EWALD_FLOOR) in one ladder (0.3 ms
    a torus on 2 vCPUs; a continued fraction per order took 1.3 ms) and
    keeps the table with its per-point terms; every other s is one
    evaluation of its own.  The residue A / 4 pi at s = 1 and the finite
    part there come from the tau^(s-1) / (s-1) term, and 1 / Gamma(s) gives
    zeta(0) = -1 and zeta(-n) = 0.  ``truncated`` gives the row of
    ``_shifted_via_series`` at tau = min(tau0, 1 / mu0), from the table's
    terms when tau = tau0, less the low modes the torus's listing gives.
    """

    def __init__(self, cs: FlatTorus):
        la, lb = max(cs.ell1, cs.ell2), min(cs.ell1, cs.ell2)
        self.ells = cs.ell1, cs.ell2
        (self.c1, _), (self.c2, _) = cs._axes  # the wavenumbers the listing folds
        self.ell_big = la
        self.ratio = la / lb
        self.residue = cs.ell1 * cs.ell2 / (4.0 * math.pi)
        self.tau = la * lb / (4.0 * _EWALD_FLOOR)
        self._points: dict = {}
        self._table = None

    def _spectral(self, tau: float, mu0: float = 0.0) -> tuple:
        """(mu, w): the lattice modes mu0 < mu <= _EWALD_CUT / tau, folded
        as the torus lists them, so the two agree on which lie above a split."""
        mu, w = _fold(self.c1, self.c2, _EWALD_CUT / tau)[:2]
        return mu[mu > mu0], w[mu > mu0]

    def _periods(self, tau: float) -> tuple:
        """(y, v): y = |v|^2 / 4 tau <= _EWALD_CUT over the folded periods v but the first, 0."""
        r2, v = _fold(*self.ells, 4.0 * tau * _EWALD_CUT)[:2]
        return r2[1:] / (4.0 * tau), v[1:]

    def _split(self, tau: float, mu0: float = 0.0) -> tuple:
        """(mu, terms, poisson) of the split at tau over the modes above mu0:
        per point and standard s the spectral term w Gamma(s, tau mu) mu^-s,
        and per s the Poisson bracket times A / 4 pi, its regular part at s = 1."""
        mu, w = self._spectral(tau, mu0)
        y, v = self._periods(tau)
        spectral, poisson = _standard_gammas(tau * mu, y)
        bracket = [math.log(tau) + g if s == 1.0 else tau ** (s - 1.0) * (1.0 / (s - 1.0) + g)
                   for s, g in zip(_STANDARD_S, (poisson @ v).tolist())]
        return mu, mu**-_S * spectral * w, self.residue * np.array(bracket)

    def _standard(self) -> tuple:
        """``_split`` at tau0, built on the first request for it."""
        if self._table is None:
            self._table = self._split(self.tau)
        return self._table

    def _zeta(self, svals, tau: float, split) -> list:
        """ZetaPoints from Gamma(s) zeta_{>mu0}(s) less its pole term, per s."""
        out = []
        for s, f in zip(svals, split - np.array([tau**s / s for s in svals])):
            if s == 1.0:
                out.append(ZetaPoint(s, float(f + EULER_GAMMA * self.residue), self.residue))
            else:
                out.append(ZetaPoint(s, float(f / math.gamma(s)), 0.0))
        return out

    def point(self, s: float) -> ZetaPoint:
        hit = self._points.get(s)
        if hit is None:
            if s <= 0.0 and s == int(s):
                # 1/Gamma vanishes: only the -tau^s/s pole survives at s = 0
                hit = ZetaPoint(s, -1.0 if s == 0.0 else 0.0, 0.0)
            elif s in _STANDARD_S:
                _, terms, poisson = self._standard()
                i = _STANDARD_S.index(s)
                hit = self._points[s] = self._zeta([s], self.tau, terms[i].sum() + poisson[i])[0]
            else:
                mu, w = self._spectral(self.tau)
                y, v = self._periods(self.tau)
                spectral = self.tau**s * (_scaled_gamma(s, self.tau * mu) @ w)
                poisson = self.tau ** (s - 1.0) * (1.0 / (s - 1.0) + _scaled_gamma(1.0 - s, y) @ v)
                hit = self._points[s] = self._zeta([s], self.tau, spectral + self.residue * poisson)[0]
        return hit

    def truncated(self, mu0: float, low) -> list:
        """zeta_{>mu0}(k/2) + 2 H_(k-1) res for k = 1, ..., _KORDER - 1, low
        the positive modes up to mu0: their gamma(s, x) mu^-s =
        tau^s e^-x sum_n x^n / (s (s + 1) ... (s + n)) at x = tau mu <= 1."""
        svals = _STANDARD_S[1:]
        s = _S[1:]
        tau = min(self.tau, 1.0 / mu0)
        if tau == self.tau:
            mu, terms, poisson = self._standard()
            spectral = terms[1:, mu > mu0].sum(axis=1)
        else:
            # whole rows sum pairwise; a masked copy would sum term by term
            _, terms, poisson = self._split(tau, mu0)
            spectral = terms[1:].sum(axis=1)
        x = tau * np.array(low[0])
        lower = tau ** s[:, 0] * ((np.exp(-x) * _lower_series(s, x)) @ low[1])
        row = self._zeta(svals, tau, spectral + poisson[1:] - lower)
        return [p.value + 2.0 * harmonic(k - 1) * p.residue for k, p in enumerate(row, 1)]

    def derivative0(self) -> float:
        # d/ds at 0 by Kronecker's limit formula, a product-log sum: at s = 0
        # the Chowla-Selberg Bessel sum has K_{-1/2}, which is elementary
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

    def truncated(self, mu0: float, low) -> list:
        """zeta_{>mu0}(k/2) + 2 H_(k-1) res for k = 1, ..., _KORDER - 1, low
        the positive modes up to mu0: ``_less_low_modes``, or on stored data, once the defining series converges comfortably, the
        directly summed tail (the modes above mu0 plus half the model tail
        beyond them)."""
        cs, zetas = self.cs, []
        above = None  # on stored data, the modes above mu0
        if cs.max_trusted < math.inf:
            mu, mult = cs._arrays(cs.max_trusted)
            i = mu.searchsorted(mu0, side="right")
            above = mu[i:], mult[i:]
        for k in range(1, _KORDER):
            if k / 2.0 > self.d / 2.0 + 1.5 and above is not None:
                mu, mult = above
                zk = float(mult @ mu ** (-k / 2.0))
                zk += 0.5 * power_tail_bound(cs, cs.max_trusted, k / 2.0)
            else:
                zk = _less_low_modes(self, low, k)
            zetas.append(zk)
        return zetas


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
    for mu in cs._modes(cutoff)[0]:
        if any(abs(v) < tol for v in values(math.sqrt(mu))):
            raise SingularParameterError(message(mu))


def _shift_refusal(alpha: float, mu: float) -> str:
    if alpha == 0.0:
        return "singular shift: alpha = 0 collides with the zero modes"
    return f"singular shift: -alpha = {-alpha} lies in the sqrt-spectrum (eigenvalue {mu})"


def _log1p_tail(x, kmax: int):
    """sum_{k>=kmax} (-1)^(k+1) x^k / k at each |x| < 1 of the array x,
    summed directly (no cancellation).

    Each sum stops once |x|^k falls below 2^-54 of its total: every later
    term is then under half an ulp of it and cannot move it.  The floor
    1e-55 stops a zero or tiny total where the rule that summed on to
    1e-25 max(|total|, 1e-30) stopped it, so the two agree bit for bit.
    The terms and the running totals are formed in the same order as a
    loop over k would, n terms at a time per block of 4096 entries, n
    doubling until every sum has stopped (at most 401 terms).
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    for i in range(0, x.size, 4096):
        xs = x[i:i + 4096, None]
        # x^kmax by libm's pow, as a Python float power forms it
        first = (-1.0) ** (kmax + 1) * np.array([[v**kmax] for v in xs[:, 0].tolist()])
        n = 16
        while True:
            n = min(2 * n, 401)
            terms = np.cumprod(np.hstack([first, np.repeat(-xs, n - 1, axis=1)]), axis=1)
            totals = np.cumsum(np.hstack([np.zeros_like(first), terms / np.arange(kmax, kmax + n)]), axis=1)[:, 1:]
            stop = np.abs(terms[:, 1:]) < np.maximum(2.0**-54 * np.abs(totals[:, :-1]), 1e-55)
            if n == 401 or stop.any(axis=1).all():
                break
        last = np.where(stop.any(axis=1), stop.argmax(axis=1), n - 1)
        out[i:i + 4096] = totals[np.arange(len(xs)), last]
    return out


_KORDER = 16  # binomial terms expanded by _shifted_via_series


def _less_low_modes(backend, low, k: int) -> float:
    """zeta_{>mu0}(k/2) + 2 H_(k-1) res: the backend's value at k/2 less the
    partial sum over low, the positive modes up to mu0."""
    zp = backend.point(k / 2.0)
    partial = math.fsum(m * u ** (-k / 2.0) for u, m in zip(*low))
    if zp.residue == 0.0:
        return zp.value - partial
    return (zp.value - partial) + 2.0 * harmonic(k - 1) * zp.residue


def _truncated_row(cs: CrossSection, mu0: float, backend) -> tuple:
    """The alpha-free part of ``_shifted_via_series`` at the split mu0.

    (low, c0, zetas): the positive modes up to mu0, as lists of eigenvalues
    and multiplicities; the k = 0 binomial term -1/2 d/ds zeta_{Delta,>mu0}(0),
    where removing the split-off low modes adds +ln(mu) per mode to the
    derivative; and the backend's truncated zeta values zeta_{>mu0}(k/2) for
    k = 1, ..., _KORDER - 1, with the harmonic-number weight of a residue at
    a pole.
    """
    mu, mult = cs._arrays(mu0)
    low = mu[mu > 0.0].tolist(), mult[mu > 0.0].tolist()
    low_logsum = math.fsum(m * math.log(u) for u, m in zip(*low))
    c0 = -0.5 * (backend.derivative0() + low_logsum)
    return low, c0, backend.truncated(mu0, low)


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
    kept on the backend.
    """
    q0 = kernel_dim(cs)
    logmod = 0.0
    phase = 0
    if q0:
        lm, ph = signed_log(alpha)
        logmod += q0 * lm
        phase += q0 * ph

    # the log-remainder over the high modes runs up to where its tail bound
    # falls below 1e-13; stored data stop at max(4 mu0, 100) or at their
    # largest mode, whichever is lower
    mu0 = max(4.0 * alpha * alpha, 1.0)
    lam_hi = max(mu0 * 4.0, 100.0)
    while cs.max_trusted == math.inf and alpha != 0.0 and (
        2.0 * abs(alpha) ** _KORDER / _KORDER * power_tail_bound(cs, lam_hi, _KORDER / 2.0) >= 1e-13
    ):
        lam_hi *= 2.0
    lam_hi = min(lam_hi, cs.max_trusted)
    _check_modes(cs, lam_hi, alpha)
    row = backend.rows.get(mu0)
    if row is None:
        row = _truncated_row(cs, mu0, backend)
        _keep(backend.rows, mu0, row)
    low, c0, zetas = row
    for u, m in zip(*low):
        lm, ph = signed_log(math.sqrt(u) + alpha)
        logmod += m * lm
        phase += int(m) * ph
    logmod += c0
    for k, zk in enumerate(zetas, 1):
        logmod -= (-alpha) ** k / k * zk
    if alpha != 0.0:
        mu, mult = cs._arrays(lam_hi)
        high = mu > mu0
        logmod += float(mult[high] @ _log1p_tail(alpha / np.sqrt(mu[high]), _KORDER))
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
    # kept on the backend, so evicted with it; a refusal, never kept, is scanned each time
    b = _get_backend(cs, backend)
    det = b.shifted.get(alpha)
    if det is None:
        if alpha <= 0.0:
            _check_admissible(cs, alpha, alpha * alpha * (1.0 + 1e-9) + 1.0,
                              lambda x: (x + alpha,), lambda mu: _shift_refusal(alpha, mu))
        det = b.shifted_closed(alpha) if hasattr(b, "shifted_closed") else _shifted_via_series(cs, alpha, b)
        _keep(b.shifted, alpha, det)
    return det
