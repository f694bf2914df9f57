"""Cross-section manifolds and their Laplace spectra and heat-trace data.

Supported cross-sections: a single point, a circle of circumference ell,
a flat rectangular torus, and an explicitly supplied truncated spectrum
with heat metadata.  All types are immutable and all operations are pure
functions; multiplicity bookkeeping is exact (integer lattice enumeration
for the torus, exact integer keys for degeneracy merging), never
floating-point deduplication.
"""

from __future__ import annotations

import json
import math
import threading
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional

import numpy as np

from .errors import (
    HeatDataRequiredError,
    InsufficientSpectrumError,
    MissingHeatCoefficientError,
    ValidationError,
)

__all__ = [
    "SpectrumEntry",
    "HeatExpansion",
    "CrossSection",
    "Point",
    "Circle",
    "FlatTorus",
    "ExplicitSpectrum",
    "enumerate_spectrum",
    "heat_coefficients",
    "kernel_dim",
    "heat_trace",
    "explicit_from_json",
    "explicit_mirror",
]


@dataclass(frozen=True)
class SpectrumEntry:
    """One eigenvalue of the cross-section Laplacian with its multiplicity."""

    eigenvalue: float
    multiplicity: int

    def __post_init__(self):
        if not 0 <= self.eigenvalue < math.inf:
            raise ValidationError(
                f"cross-section eigenvalues must be finite and >= 0, got {self.eigenvalue}"
            )
        if self.multiplicity < 1:
            raise ValidationError(
                f"multiplicities must be >= 1, got {self.multiplicity}"
            )


@dataclass(frozen=True)
class HeatExpansion:
    """Small-time heat-trace coefficients of the cross-section Laplacian.

    ``coeffs[j]`` is the coefficient of t^(-cross_dim/2 + j) in the
    expansion of the full heat trace as t -> 0+.  Half-integer-indexed
    coefficients never arise for the product geometries supported here;
    indices beyond the stored order are an error, except that
    :meth:`coeff` treats them as exactly zero for the flat built-ins
    (``exact`` flag), where all higher coefficients vanish.
    """

    cross_dim: int
    coeffs: tuple
    exact: bool = False  # True when coefficients beyond the stored order vanish

    def __post_init__(self):
        if self.cross_dim < 0:
            raise ValidationError("cross_dim must be >= 0")
        for a in self.coeffs:
            if not math.isfinite(a):
                raise ValidationError("heat coefficients must be finite")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, j: int) -> float:
        """a_j, with exact zeros beyond the stored order when known."""
        if j < 0:
            raise ValidationError(f"heat coefficient index must be >= 0, got {j}")
        if j < len(self.coeffs):
            return float(self.coeffs[j])
        if self.exact:
            return 0.0
        raise MissingHeatCoefficientError(j)


class CrossSection:
    """Base class for the closed manifold factor Y of the product cylinder.

    The library sees Y only through its Laplace spectrum, its small-time
    heat expansion and its kernel dimension.  A cross-section class
    provides them as:

    * ``dim`` and ``heat``, the ``HeatExpansion`` (None when unknown);
    * ``max_trusted``, the largest eigenvalue the spectrum is known up
      to: ``math.inf`` when it is known in full;
    * ``enumerate_spectrum(cutoff)``, the entries <= cutoff in a new list
      (``_arrays(cutoff)`` gives them as float64 arrays);
    * ``kernel_dim()`` and ``heat_trace(t)``;
    * ``exp_tail_bound(lam, rate)``, ``heat_tail_bound(lam, t)`` and
      ``power_tail_bound(lam, p)``, upper bounds on the sums of
      m_j exp(-rate sqrt(mu_j)), m_j exp(-t mu_j) and m_j mu_j^-p over
      the eigenvalues mu_j > lam.

    The module functions of the same names check their arguments and call
    these methods, and the rest of the library calls the functions, so a
    wrapper of a function sees every call.  The
    point, the circle and the flat torus have closed-form zeta backends;
    every other cross-section runs on the numeric one.
    """

    dim: int
    heat: Optional[HeatExpansion] = None
    max_trusted = math.inf

    def heat_coefficients(self, order: int) -> HeatExpansion:
        heat = self.heat
        if heat is None:
            raise HeatDataRequiredError(
                "cross-section carries no heat expansion; heat data required"
            )
        if heat.order < order and not heat.exact:
            raise MissingHeatCoefficientError(order)
        coeffs = tuple(heat.coeff(j) for j in range(order + 1))
        return HeatExpansion(self.dim, coeffs, exact=heat.exact)

    def _arrays(self, cutoff: float) -> tuple:
        """(mu, mult): the entries <= cutoff as float64 arrays of their
        eigenvalues and multiplicities, in ``enumerate_spectrum``'s order."""
        entries = self.enumerate_spectrum(cutoff)
        return (np.array([e.eigenvalue for e in entries], dtype=float),
                np.array([float(e.multiplicity) for e in entries]))

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class _FlatSection(CrossSection):
    """The flat built-ins: heat trace a0 t^(-dim/2) + O(t^inf), one zero mode.

    Subclasses give ``a0``; circles and tori give ``_lattice`` and share
    the spectrum cache.
    """

    @property
    def heat(self) -> HeatExpansion:
        return HeatExpansion(self.dim, (self.a0,), exact=True)

    def kernel_dim(self) -> int:
        return 1

    def enumerate_spectrum(self, cutoff: float) -> list:
        return _cached_entries(self, cutoff)


@dataclass(frozen=True, repr=False)
class Point(_FlatSection):
    """Zero-dimensional cross-section: the Laplacian is 0 on a line."""

    dim: int = field(default=0, init=False)
    a0 = 1.0

    def enumerate_spectrum(self, cutoff: float) -> list:
        return [SpectrumEntry(0.0, 1)]

    def heat_trace(self, t: float) -> float:
        return 1.0

    def exp_tail_bound(self, lam: float, rate: float) -> float:
        return 0.0

    heat_tail_bound = power_tail_bound = exp_tail_bound


@dataclass(frozen=True, repr=False)
class Circle(_FlatSection):
    """Circle of circumference ell; eigenvalues (2*pi*k/ell)^2, k in Z."""

    circumference: float
    dim: int = field(default=1, init=False)

    def __post_init__(self):
        if not 0 < self.circumference < math.inf:
            raise ValidationError(f"circumference must be finite and > 0, got {self.circumference}")

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.circumference

    @property
    def a0(self) -> float:
        return self.circumference / (2.0 * math.sqrt(math.pi))

    def __repr__(self):
        return f"Circle(ell={self.circumference!r})"

    def _lattice(self, cutoff: float):
        c = self.wavenumber
        kmax = int(math.floor(math.sqrt(cutoff) / c + 1e-12))
        mus = [mu for mu in [0.0] + [(c * k) ** 2 for k in range(1, kmax + 1)] if mu <= cutoff]
        return [SpectrumEntry(mu, 2 if k else 1) for k, mu in enumerate(mus)], mus, mus

    def _first_mode_above(self, lam: float) -> int:
        return int(math.floor(math.sqrt(max(lam, 0.0)) / self.wavenumber)) + 1

    def heat_trace(self, t: float) -> float:
        return _circle_theta(self.circumference, t)

    def exp_tail_bound(self, lam: float, rate: float) -> float:
        c, k0 = self.wavenumber, self._first_mode_above(lam)
        r = math.exp(-rate * c)
        return 2.0 * math.exp(-rate * c * k0) / (1.0 - r)

    def heat_tail_bound(self, lam: float, t: float) -> float:
        c, k0 = self.wavenumber, self._first_mode_above(lam)
        lead = 2.0 * math.exp(-c * c * k0 * k0 * t)
        ratio = math.exp(-c * c * (2 * k0 + 1) * t)
        return lead / (1.0 - ratio) if ratio < 1.0 else math.inf

    def power_tail_bound(self, lam: float, p: float) -> float:
        c, k0 = self.wavenumber, self._first_mode_above(lam)
        return 2.0 * c ** (-2.0 * p) * (
            k0 ** (-2.0 * p) + k0 ** (1.0 - 2.0 * p) / (2.0 * p - 1.0)
        )


@dataclass(frozen=True, repr=False)
class FlatTorus(_FlatSection):
    """Flat rectangular torus with side lengths ell1, ell2."""

    ell1: float
    ell2: float
    dim: int = field(default=2, init=False)

    def __post_init__(self):
        if not (0 < self.ell1 < math.inf and 0 < self.ell2 < math.inf):
            raise ValidationError(f"ell1, ell2 must be finite and > 0: {self.ell1}, {self.ell2}")

    @property
    def a0(self) -> float:
        return self.ell1 * self.ell2 / (4.0 * math.pi)

    def __repr__(self):
        return f"FlatTorus(ell1={self.ell1!r}, ell2={self.ell2!r})"

    def _lattice(self, cutoff: float):
        # Exact degeneracy merging: with ell_i = n_i/d_i the exact binary
        # fractions of the side lengths, the integer
        # j^2 (n2 d1)^2 + k^2 (n1 d2)^2 = (ell1 ell2 d1 d2 / 2 pi)^2 mu
        # is proportional to mu, so lattice points with equal exact
        # eigenvalues share a key and the keys sort as the eigenvalues do.
        n1, d1 = self.ell1.as_integer_ratio()
        n2, d2 = self.ell2.as_integer_ratio()
        w1 = (n1 * d2) ** 2
        w2 = (n2 * d1) ** 2
        c1 = 2.0 * math.pi / self.ell1
        c2 = 2.0 * math.pi / self.ell2
        jmax = int(math.floor(math.sqrt(cutoff) / c1 + 1e-12))
        # per column k: (c2 k)^2, its part of the key and its multiplicity;
        # ** 2, not x * x, which rounds differently on some doubles
        kmax = int(math.floor(math.sqrt(cutoff) / c2 + 1e-12))
        columns = [((c2 * k) ** 2, k * k * w1, 1 if k == 0 else 2) for k in range(kmax + 1)]
        groups: dict = {}
        for j in range(0, jmax + 1):
            row_mu = (c1 * j) ** 2
            rem = cutoff - row_mu
            if rem < 0:
                break
            row_key, row_mult = j * j * w2, 1 if j == 0 else 2
            kmax = int(math.floor(math.sqrt(max(rem, 0.0)) / c2 + 1e-12))
            for col_mu, col_key, col_mult in columns[:kmax + 1]:
                mu = row_mu + col_mu
                if mu > cutoff:
                    continue
                key = row_key + col_key
                mult = row_mult * col_mult
                group = groups.get(key)
                if group is None:
                    groups[key] = [mu, mult, mu, mu]
                else:
                    group[1] += mult
                    group[2] = min(group[2], mu)
                    group[3] = max(group[3], mu)
        groups = [group for _, group in sorted(groups.items())]
        entries = [SpectrumEntry(mu, mult) for mu, mult, _, _ in groups]
        return entries, [g[2] for g in groups], [g[3] for g in groups]

    def heat_trace(self, t: float) -> float:
        # product spectrum: the trace factorizes into two circle traces
        return _circle_theta(self.ell1, t) * _circle_theta(self.ell2, t)

    def exp_tail_bound(self, lam: float, rate: float) -> float:
        # sqrt(mu) >= (c1|j| + c2|k|)/sqrt(2) and sqrt(mu) > sqrt(lam) outside
        c1 = 2.0 * math.pi / self.ell1
        c2 = 2.0 * math.pi / self.ell2
        tau = rate / (2.0 * math.sqrt(2.0))
        s1 = 2.0 * math.exp(-tau * c1) / (1.0 - math.exp(-tau * c1))
        s2 = 2.0 * math.exp(-tau * c2) / (1.0 - math.exp(-tau * c2))
        return math.exp(-0.5 * rate * math.sqrt(max(lam, 0.0))) * (
            (1.0 + s1) * (1.0 + s2) - 1.0
        )

    def heat_tail_bound(self, lam: float, t: float) -> float:
        return math.exp(-0.5 * t * max(lam, 0.0)) * self.heat_trace(0.5 * t)

    def power_tail_bound(self, lam: float, p: float) -> float:
        c1 = 2.0 * math.pi / self.ell1
        c2 = 2.0 * math.pi / self.ell2
        area = 2.0 * math.pi / (c1 * c2)  # 2x safety on the Weyl slope
        perim = 2.0 * (1.0 / c1 + 1.0 / c2)
        const = 9.0
        lam = max(lam, 1e-12)
        return (
            area * p / (p - 1.0) * lam ** (1.0 - p)
            + perim * p / (p - 0.5) * lam ** (0.5 - p)
            + const * lam ** (-p)
        )


@dataclass(frozen=True, repr=False)
class ExplicitSpectrum(CrossSection):
    """Explicitly supplied truncated spectrum with heat metadata.

    ``entries`` must be sorted ascending and pre-merged (exact equality of
    the supplied eigenvalue representations defines degeneracy).  The zero
    eigenvalue, when present, must appear explicitly; the kernel dimension
    is read off the mu = 0 entry.  Heat coefficients are never inferred
    from the truncated list — they must be supplied.  The tail bounds add
    to the stored modes above lam a Weyl-density bound from a_0, with a
    factor-2 safety margin, for the modes beyond the list.  The hash is
    formed once, as a lookup of a long list would otherwise rehash it.

    Every scan of the stored modes is one numpy pass over the slice above
    its cutoff of the list's float64 arrays (``_stored_arrays``), which are
    kept in a bounded module cache and never on the instance.
    """

    entries: tuple
    dim: int
    heat: Optional[HeatExpansion] = None

    def __hash__(self):
        return self._hash

    def __post_init__(self):
        if self.dim < 0:
            raise ValidationError("dimension must be >= 0")
        prev = None
        for i, e in enumerate(self.entries):
            if not isinstance(e, SpectrumEntry):
                raise ValidationError("entries must be SpectrumEntry instances")
            if prev is not None and not (e.eigenvalue > prev):
                raise ValidationError(
                    f"explicit entries must be strictly ascending and pre-merged: "
                    f"entry {i} ({e.eigenvalue!r}) follows {prev!r}"
                )
            prev = e.eigenvalue
        if self.heat is not None and self.heat.cross_dim != self.dim:
            raise ValidationError("heat expansion dimension disagrees with dim")
        object.__setattr__(self, "_hash", hash((self.entries, self.dim, self.heat)))

    @property
    def max_eigenvalue(self) -> float:
        return self.entries[-1].eigenvalue if self.entries else 0.0

    max_trusted = max_eigenvalue

    def __repr__(self):
        return f"ExplicitSpectrum(n={len(self.entries)}, dim={self.dim})"

    def _arrays(self, cutoff: float) -> tuple:
        if self.max_eigenvalue < cutoff:
            raise InsufficientSpectrumError(
                "explicit spectrum is truncated below the requested cutoff",
                max_trusted=self.max_eigenvalue,
            )
        mu, mult = _stored_arrays(self)
        n = mu.searchsorted(cutoff, side="right")
        return mu[:n], mult[:n]

    def _above(self, lam: float) -> tuple:
        """Views of the stored eigenvalues > lam and of their multiplicities."""
        mu, mult = _stored_arrays(self)
        i = mu.searchsorted(lam, side="right")
        return mu[i:], mult[i:]

    def enumerate_spectrum(self, cutoff: float) -> list:
        return list(self.entries[:len(self._arrays(cutoff)[0])])

    def kernel_dim(self) -> int:
        for e in self.entries:
            if e.eigenvalue == 0.0:
                return e.multiplicity
            if e.eigenvalue > 0.0:
                break
        return 0

    def heat_trace(self, t: float) -> float:
        mu, mult = _stored_arrays(self)
        total = float(mult @ np.exp(-t * mu))
        tail = self.heat_tail_bound(self.max_eigenvalue, t)
        if tail > 1e-12 * max(total, 1e-300):
            raise InsufficientSpectrumError(
                "explicit spectrum too short for the requested heat-trace accuracy",
                max_trusted=self.max_eigenvalue,
            )
        return total

    def exp_tail_bound(self, lam: float, rate: float) -> float:
        mu, mult = self._above(lam)
        stored = float(mult @ np.exp(-rate * np.sqrt(mu)))
        return stored + _weyl_exp_tail(self, max(lam, self.max_eigenvalue), rate)

    def heat_tail_bound(self, lam: float, t: float) -> float:
        mu, mult = self._above(lam)
        stored = float(mult @ np.exp(-t * mu))
        return stored + _weyl_heat_tail(self, max(lam, self.max_eigenvalue), t)

    def power_tail_bound(self, lam: float, p: float) -> float:
        mu, mult = self._above(lam)
        stored = float(mult @ mu ** -p)
        pref, d = _weyl_density_scale(self)
        start = max(lam, self.max_eigenvalue, 1e-12)
        model = pref * start ** (d / 2.0 - p) / (p - d / 2.0) if pref else 0.0
        return stored + model


# ----------------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------------


# recent circles and tori, oldest first: (top cutoff, entries, bounds of their floats)
_SPECTRUM_CACHE_SIZE = 32
_spectrum_cache: OrderedDict = OrderedDict()
_spectrum_lock = threading.Lock()


# recent stored spectra, oldest first: (eigenvalues, multiplicities) as
# read-only float64 arrays, which the numeric backend views too; kept here,
# not on the instance, so that a caller holding many spectra holds no arrays
_ARRAY_CACHE_SIZE = 32
_array_cache: OrderedDict = OrderedDict()
_array_lock = threading.Lock()


def _stored_arrays(cs: ExplicitSpectrum) -> tuple:
    """(mu, mult): every stored eigenvalue and multiplicity of cs, ascending."""
    with _array_lock:
        hit = _array_cache.get(cs)
        if hit is not None:
            _array_cache.move_to_end(cs)
            return hit
    mu = np.array([e.eigenvalue for e in cs.entries], dtype=float)
    mult = np.array([float(e.multiplicity) for e in cs.entries])
    mu.flags.writeable = mult.flags.writeable = False
    with _array_lock:
        hit = _array_cache.setdefault(cs, (mu, mult))
        _array_cache.move_to_end(cs)
        while len(_array_cache) > _ARRAY_CACHE_SIZE:
            _array_cache.popitem(last=False)
    return hit


def enumerate_spectrum(cs: CrossSection, cutoff: float) -> list:
    """All eigenvalues <= cutoff with exact multiplicities, ascending in exact
    value (a torus's floats may tie or fall out of order), in a new list
    (circles and tori bisect a cached spectrum)."""
    if not 0 < cutoff < math.inf:
        raise ValidationError(f"cutoff must be finite and > 0, got {cutoff}")
    return cs.enumerate_spectrum(cutoff)


def _cached_entries(cs: CrossSection, cutoff: float) -> list:
    """``cs._lattice(cutoff)`` gives (entries, lows, highs): the spectrum <=
    cutoff and, per entry, the least and the largest float of the lattice
    points merged into it."""
    with _spectrum_lock:
        hit = _spectrum_cache.get(cs)
        if hit is not None:
            _spectrum_cache.move_to_end(cs)
    if hit is not None and cutoff <= hit[0]:
        _, entries, highs, lows = hit
        # bisecting running maxima of the highs counts the leading entries wholly
        # <= cutoff, and running minima of the lows from the end reach the last
        # entry with a float <= cutoff: they differ inside a split degenerate
        # group or a pair of distinct eigenvalues whose floats are out of order
        n = bisect_right(highs, cutoff)
        return entries[:n] if n == bisect_right(lows, cutoff) else cs._lattice(cutoff)[0]
    entries, lows, highs = cs._lattice(cutoff)
    highs = list(accumulate(highs, max))
    lows = list(accumulate(reversed(lows), min))[::-1]
    with _spectrum_lock:
        if _spectrum_cache.get(cs, (0.0,))[0] < cutoff:
            _spectrum_cache[cs] = (cutoff, entries, highs, lows)
        _spectrum_cache.move_to_end(cs)
        while len(_spectrum_cache) > _SPECTRUM_CACHE_SIZE:
            _spectrum_cache.popitem(last=False)
    return list(entries)


def heat_coefficients(cs: CrossSection, order: int = 0) -> HeatExpansion:
    """Heat-trace coefficients a_0..a_order of the cross-section Laplacian.

    Flat cross-sections have a_j = 0 exactly for every j >= 1.
    """
    if order < 0:
        raise ValidationError(f"order must be >= 0, got {order}")
    return cs.heat_coefficients(order)


def kernel_dim(cs: CrossSection) -> int:
    """Multiplicity of the zero eigenvalue (q0 = dim ker of the Laplacian)."""
    return cs.kernel_dim()


def _theta_sum(x: float) -> float:
    """1 + 2 sum_{k>=1} exp(-x k^2), stopped at a term below 1e-18 of the total."""
    total = 1.0
    k = 1
    while True:
        term = 2.0 * math.exp(-x * k * k)
        total += term
        if term < 1e-18 * total:
            return total
        k += 1


def _circle_theta(ell: float, t: float) -> float:
    """Full heat trace on a circle of circumference ell, relative error <= 1e-14.

    Uses the lattice sum for c^2 t >= 1 and its modular dual for small t.
    """
    c = 2.0 * math.pi / ell
    x = c * c * t
    if x >= 1.0:
        return _theta_sum(x)
    # dual sum: (ell / sqrt(4 pi t)) * sum_n exp(-ell^2 n^2 / (4 t))
    return ell / math.sqrt(4.0 * math.pi * t) * _theta_sum(ell * ell / (4.0 * t))


def heat_trace(cs: CrossSection, t: float) -> float:
    """Full heat trace sum_j m_j exp(-t mu_j), relative error <= 1e-12."""
    if not (t > 0):
        raise ValidationError(f"heat trace requires t > 0, got {t}")
    return cs.heat_trace(t)


# ----------------------------------------------------------------------------
# certified tail bounds used by the regularization engines
# ----------------------------------------------------------------------------


def exp_tail_bound(cs: CrossSection, lam: float, rate: float) -> float:
    """Upper bound on sum_{mu > lam} m_j exp(-rate*sqrt(mu_j)).

    Exact geometric bounds for the built-in flat cross-sections; for
    explicit data beyond the stored list, a Weyl-density bound built from
    a_0 with a factor-2 safety margin.
    """
    if rate <= 0:
        raise ValidationError("tail bound needs rate > 0")
    return cs.exp_tail_bound(lam, rate)


def heat_tail_bound(cs: CrossSection, lam: float, t: float) -> float:
    """Upper bound on sum_{mu > lam} m_j exp(-t*mu_j)."""
    if t <= 0:
        raise ValidationError("tail bound needs t > 0")
    return cs.heat_tail_bound(lam, t)


def _weyl_density_scale(cs: CrossSection):
    """(prefactor, d) of the Weyl eigenvalue density 2*a0*(d/2)u^(d/2-1)/Gamma(d/2+1)."""
    d = cs.dim
    if d == 0:
        return 0.0, 0
    if cs.heat is None:
        raise HeatDataRequiredError(
            "Weyl tail bound for an explicit spectrum needs its heat expansion"
        )
    a0 = cs.heat.coeff(0)
    # factor 2 safety over the asymptotic count N(u) ~ a0 u^{d/2}/Gamma(d/2+1)
    return 2.0 * a0 * (d / 2.0) / math.gamma(d / 2.0 + 1.0), d


def _upper_gamma(two_a, x):
    """Gamma(a, x), the upper incomplete gamma function, at a = two_a / 2
    for an integer two_a >= 1 and x >= 0.  x may be an array, and two_a an
    ascending sequence of orders of one parity, which gives one row each.

    From Gamma(1, x) = e^-x or Gamma(1/2, x) = sqrt(pi) erfc(sqrt(x)), the
    steps Gamma(a + 1, x) = a Gamma(a, x) + x^a e^-x add positive terms, so
    the result is within a few roundings per step.  Past x = 700, where
    e^-x nears underflow, x^a e^-x is formed as exp(a ln x - x).
    """
    tops = np.atleast_1d(two_a)
    x = np.asarray(x, dtype=float)
    far = x > 700.0
    near_x = np.where(far, 0.0, x)
    exp_x, log_x = np.exp(-near_x), np.log(np.where(far, x, 1.0))
    if tops[0] % 2 == 0:
        a, g = 1.0, np.where(far, np.exp(-x), exp_x)
    else:
        y = np.sqrt(x)
        a = 0.5
        g = math.sqrt(math.pi) * np.fromiter(map(math.erfc, y.ravel()), float, y.size).reshape(y.shape)
        # erfc moves by 2y relative per unit of its argument, 1e-13 at
        # x = 700 from the rounding of y; exp(y^2 - x) puts it back, with
        # y^2 - x exact from the halves of y (Veltkamp's split)
        y = np.where(far, 0.0, y)
        c = 134217729.0 * y
        hi = c - (c - y)
        lo = y - hi
        g = np.where(far, g, g * np.exp((hi * hi - near_x) + 2.0 * hi * lo + lo * lo))
    rows = []
    while True:
        if 2.0 * a in tops:
            rows.append(g)
        if 2.0 * a >= tops[-1]:
            break
        g = a * g + np.where(far, np.exp(a * log_x - x), near_x**a * exp_x)
        a += 1.0
    if np.ndim(two_a):
        return np.array(rows)
    return float(rows[0]) if rows[0].ndim == 0 else rows[0]


def _weyl_exp_tail(cs: CrossSection, lam: float, rate: float) -> float:
    pref, d = _weyl_density_scale(cs)
    if pref == 0.0:
        return 0.0
    # integral_lam^inf u^{d/2-1} e^{-rate sqrt(u)} du = (2/rate^d) Gamma(d, x0)
    x0 = rate * math.sqrt(max(lam, 0.0))
    return pref * 2.0 * _upper_gamma(2 * d, x0) / rate**d


def _weyl_heat_tail(cs: CrossSection, lam: float, t: float) -> float:
    pref, d = _weyl_density_scale(cs)
    if pref == 0.0:
        return 0.0
    # integral_lam^inf u^{d/2-1} e^{-t u} du = Gamma(d/2, t*lam) / t^{d/2}
    return pref * _upper_gamma(d, t * max(lam, 0.0)) / t ** (d / 2.0)


# ----------------------------------------------------------------------------
# explicit-spectrum ingestion
# ----------------------------------------------------------------------------


def _json_integer(value, what: str) -> int:
    """An integral JSON number as an int; anything else is refused by name."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _json_float(value, what: str) -> float:
    """A JSON number or decimal string as a float; anything else is refused by name."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            return float(value)
        except ValueError:
            pass
    raise ValidationError(f"{what} must be a number or a decimal string, got {value!r}")


def explicit_from_json(doc) -> ExplicitSpectrum:
    """Build an explicit cross-section from its JSON document.

    Expected shape::

        {"dim": int,
         "entries": [[mu, mult], ...],   # mu as float or decimal string
         "heat": {"coeffs": [a0, a1, ...], "exact": bool}}

    Entries must be sorted ascending and pre-merged, eigenvalues finite
    and >= 0, multiplicities integers >= 1.  Every malformed document
    raises ``ValidationError``, naming the entry at fault.
    """
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except ValueError as exc:
            raise ValidationError(f"explicit spectrum document is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError("explicit spectrum document must be a JSON object")
    for key in ("dim", "entries"):
        if key not in doc:
            raise ValidationError(f"explicit spectrum document has no {key!r}")
    dim = _json_integer(doc["dim"], "dim")
    raw_entries = doc["entries"]
    if not isinstance(raw_entries, (list, tuple)):
        raise ValidationError(f"entries must be a list of [mu, mult] pairs, got {raw_entries!r}")
    entries = []
    for i, item in enumerate(raw_entries):
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise ValidationError(f"entry {i} must be a [mu, mult] pair, got {item!r}")
        try:
            mu = _json_float(item[0], "its eigenvalue")
            entries.append(SpectrumEntry(mu, _json_integer(item[1], "its multiplicity")))
        except ValidationError as exc:
            raise ValidationError(f"entry {i} {item!r}: {exc}") from None
    heat = doc.get("heat")
    if heat is not None:
        if not (isinstance(heat, dict) and isinstance(heat.get("coeffs"), (list, tuple))
                and isinstance(heat.get("exact", False), bool)):
            raise ValidationError(
                f'heat must be {{"coeffs": [a0, ...], "exact": true or false}}, got {heat!r}'
            )
        coeffs = tuple(_json_float(a, f"heat coefficient {j}") for j, a in enumerate(heat["coeffs"]))
        heat = HeatExpansion(dim, coeffs, exact=heat.get("exact", False))
    return ExplicitSpectrum(entries=tuple(entries), dim=dim, heat=heat)


def explicit_mirror(cs: CrossSection, cutoff: float) -> ExplicitSpectrum:
    """Explicit copy of a built-in cross-section truncated at ``cutoff``.

    Useful for exercising the numeric backends against closed forms.  Entries
    are sorted by float and equal floats merged, ``ExplicitSpectrum``'s rule:
    a torus's distinct eigenvalues can round to tied or out-of-order floats.
    """
    entries: list = []
    for e in sorted(enumerate_spectrum(cs, cutoff), key=lambda e: e.eigenvalue):
        if entries and entries[-1].eigenvalue == e.eigenvalue:
            e = SpectrumEntry(e.eigenvalue, entries.pop().multiplicity + e.multiplicity)
        entries.append(e)
    heat = heat_coefficients(cs, order=0)
    return ExplicitSpectrum(entries=tuple(entries), dim=cs.dim, heat=heat)
