"""Cross-section manifolds and their Laplace spectra and heat-trace data.

Supported cross-sections: a single point, a circle of circumference ell,
a flat rectangular torus, and an explicitly supplied truncated spectrum
with heat metadata.  All types are immutable and all operations are pure
functions; multiplicity bookkeeping is exact (integer lattice enumeration
for the torus, exact integer keys for degeneracy merging), never
floating-point deduplication.

Inside the library a spectrum is one cached listing of its eigenvalues and
multiplicities as float64 arrays and as lists (``_listing``), which one
numpy fold of the lattice (``_fold``) fills for the flat built-ins; only
the public ``enumerate_spectrum`` builds ``SpectrumEntry`` lists.
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
      (the library's scans read them, cached, by ``_arrays`` or ``_modes``);
    * ``kernel_dim()`` and ``heat_trace(t)``;
    * ``exp_tail_bound(lam, rate)``, ``heat_tail_bound(lam, t)`` and
      ``power_tail_bound(lam, p)``, upper bounds on the sums of
      m_j exp(-rate sqrt(mu_j)), m_j exp(-t mu_j) and m_j mu_j^-p over
      the eigenvalues mu_j > lam.

    The module functions of the same names check their arguments and call
    these methods, and the rest of the library calls the functions (but
    reads spectra by ``_arrays``), so a wrapper of a function sees every
    call.  The point, the circle and the flat torus have closed-form zeta
    backends; every other cross-section runs on the numeric one.
    """

    __slots__ = ()
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
        """(mu, mult): read-only float64 views of the eigenvalues and the
        multiplicities of the entries <= cutoff, in ``enumerate_spectrum``'s
        order, from the cross-section's cached listing (``_listing``)."""
        listing, n = _listing(self, cutoff)
        return listing[1][:n], listing[2][:n]

    def _modes(self, cutoff: float) -> tuple:
        """(mu, mult): the same entries as lists of floats and ints, which
        the scans that run in Python read."""
        listing, n = _listing(self, cutoff)
        return listing[5][:n], listing[6][:n]

    def _fill(self, cutoff: float) -> tuple:
        return _entry_listing(cutoff, self.enumerate_spectrum(cutoff))

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class _FlatSection(CrossSection):
    """The flat built-ins: heat trace a0 t^(-dim/2) + O(t^inf), one zero mode.

    Subclasses give ``a0`` and ``_axes``: per axis of the lattice its
    wavenumber and its integer weight p or q in the exact key j^2 p + k^2 q
    of the mode (c1 j)^2 + (c2 k)^2, wavenumber inf for an absent axis.
    """

    __slots__ = ()

    @property
    def heat(self) -> HeatExpansion:
        return HeatExpansion(self.dim, (self.a0,), exact=True)

    def kernel_dim(self) -> int:
        return 1

    def enumerate_spectrum(self, cutoff: float) -> list:
        # each entry object is built once per cached listing, so that every
        # list, and every explicit mirror kept, shares it
        listing, n = _listing(self, cutoff)
        entries = listing[7]
        with _listing_lock:
            if len(entries) < n:
                entries += map(SpectrumEntry, listing[5][len(entries):n], listing[6][len(entries):n])
            return entries[:n]

    def _fill(self, cutoff: float) -> tuple:
        mu, mult, highs, lows = self._lattice(cutoff)
        return cutoff, mu, mult, highs.tolist(), lows.tolist(), mu.tolist(), mult.astype(int).tolist()

    def _lattice(self, cutoff: float) -> tuple:
        """(mu, mult, highs, lows): the spectrum <= cutoff ascending in exact
        value (each entry the float of its first point in ``_fold``'s order),
        the running maxima of each entry's largest float and the running
        minima from the end of its least.

        Each float is within a few ulps of its exact value, a multiple of its
        key j^2 p + k^2 q (``_axes``), so points sort against their floats only
        in runs of floats each within 2^-46 relative of the next.  Only those
        re-sort, by key: in int64 where every key fits, else as Python ints.
        """
        (a, p), (b, q) = self._axes
        r2, w, j, k = _fold(a, b, cutoff)
        if (int(j[-1]) ** 2 + 1) * p + (int(k.max()) ** 2 + 1) * q < 2**63:
            keys = j * j * p + k * k * q
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            first = np.concatenate(([True], keys[1:] != keys[:-1]))
        else:
            order = np.argsort(r2, kind="stable")
            s = r2[order]
            linked = np.concatenate(([False], s[1:] - s[:-1] <= s[1:] * 2.0**-46))
            runs = np.flatnonzero(linked | np.concatenate((linked[1:], [False])))
            first = np.ones(r2.size, dtype=bool)
            if runs.size:
                at, run = order[runs].tolist(), np.cumsum(~linked[runs]).tolist()
                keys = [jj * jj * p + kk * kk * q for jj, kk in zip(j[at].tolist(), k[at].tolist())]
                ranked = sorted(range(len(at)), key=lambda i: (run[i], keys[i], at[i]))
                order[runs] = [at[i] for i in ranked]
                first[runs[1:]] = [(run[x], keys[x]) != (run[y], keys[y]) for x, y in zip(ranked, ranked[1:])]
        r2, starts = r2[order], np.flatnonzero(first)
        highs = np.maximum.accumulate(np.maximum.reduceat(r2, starts))
        lows = np.minimum.accumulate(np.minimum.reduceat(r2, starts)[::-1])[::-1]
        return r2[starts], np.add.reduceat(w[order], starts), highs, lows


@dataclass(frozen=True, repr=False, slots=True)
class Point(_FlatSection):
    """Zero-dimensional cross-section: the Laplacian is 0 on a line."""

    dim: int = field(default=0, init=False)
    a0 = 1.0
    _axes = ((math.inf, 1), (math.inf, 1))

    def heat_trace(self, t: float) -> float:
        return 1.0

    def exp_tail_bound(self, lam: float, rate: float) -> float:
        return 0.0

    heat_tail_bound = power_tail_bound = exp_tail_bound


@dataclass(frozen=True, repr=False, slots=True)
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

    _axes = property(lambda self: ((self.wavenumber, 1), (math.inf, 1)))

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


@dataclass(frozen=True, repr=False, slots=True)
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

    @property
    def _axes(self) -> tuple:
        # Exact degeneracy merging: with ell_i = n_i/d_i the exact binary
        # fractions of the sides, j^2 (n2 d1)^2 + k^2 (n1 d2)^2 = (ell1 ell2
        # d1 d2 / 2 pi)^2 mu, and its quotient by g^2, is proportional to mu:
        # points with equal exact eigenvalues share a key; keys sort as they do
        n1, d1 = self.ell1.as_integer_ratio()
        n2, d2 = self.ell2.as_integer_ratio()
        g = math.gcd(n1 * d2, n2 * d1)
        return ((2.0 * math.pi / self.ell1, (n2 * d1 // g) ** 2),
                (2.0 * math.pi / self.ell2, (n1 * d2 // g) ** 2))

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
    its cutoff of the list's float64 arrays, which are kept in the listing
    cache (``_listing``) and never on the instance.
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

    def _fill(self, cutoff: float) -> tuple:
        return _entry_listing(math.inf, self.entries)

    def _above(self, lam: float) -> tuple:
        """Views of the stored eigenvalues > lam and of their multiplicities."""
        mu, mult = self._arrays(self.max_eigenvalue)
        i = mu.searchsorted(lam, side="right")
        return mu[i:], mult[i:]

    def enumerate_spectrum(self, cutoff: float) -> list:
        return list(self.entries[:_listing(self, cutoff)[1]])

    def kernel_dim(self) -> int:
        # the entries ascend from >= 0, so a zero mode comes first
        return self.entries[0].multiplicity if self.entries and self.entries[0].eigenvalue == 0.0 else 0

    def heat_trace(self, t: float) -> float:
        mu, mult = self._arrays(self.max_eigenvalue)
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
        """The stored modes above lam plus the Weyl tail beyond the list.

        The Weyl term bounds the modes beyond the list only while its
        factor-2 margin outweighs the modes just past the list: at
        lam = max_eigenvalue and t < 1, the regime in which the numeric
        backend chooses its truncation.  On the mirror of
        FlatTorus(2 pi, 4.8 pi) to 200 it is there at least 1.20 times the
        true tail (1.203 at t = 0.999) and at least 1.83 times it below
        t = 0.15.  Outside that regime it is not a bound: 0.90 of the true
        tail at lam = 200, t = 2; 0.80 at lam = 300, t = 1; 0.59 at
        lam = 300, t = 2.
        """
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


# the listings of the 32 most recently used cross-sections, oldest first;
# kept here, not on the instance, so that a caller holding many spectra
# holds no arrays
_LISTING_CACHE_SIZE = 32
_listing_cache: OrderedDict = OrderedDict()
_listing_lock = threading.Lock()


def _listing(cs: CrossSection, cutoff: float) -> tuple:
    """(listing, n): the listing of cs and how many of its entries are <= cutoff.

    ``cs._fill`` fills the cached listing when it stops below the cutoff (a
    gluing check's once, by ``GluingConfig``, to the check's widest cutoff),
    as (top, mu, mult, highs, lows, mus, mults, entries): the spectrum <= top
    (a stored one whole, top = inf) as read-only float64 arrays and as lists,
    the running maxima of each entry's largest float and the running minima
    from the end of its least, and the ``SpectrumEntry`` objects built of it.
    Bisecting the highs counts the entries wholly <= cutoff, and bisecting the
    lows reaches the last entry with a float <= cutoff: they differ inside a
    split degenerate group or an out-of-order pair, which is listed afresh.
    """
    if cutoff > cs.max_trusted:
        raise InsufficientSpectrumError(
            "explicit spectrum is truncated below the requested cutoff", max_trusted=cs.max_trusted
        )
    with _listing_lock:
        hit = _listing_cache.get(cs)
        if hit is not None:
            _listing_cache.move_to_end(cs)
    n = -1 if hit is None or hit[0] < cutoff else bisect_right(hit[3], cutoff)
    if n < 0 or n != bisect_right(hit[4], cutoff):
        hit = cs._fill(cutoff) + ([],)
        hit[1].flags.writeable = hit[2].flags.writeable = False
        with _listing_lock:
            if _listing_cache.get(cs, (-math.inf,))[0] < hit[0]:
                _listing_cache[cs] = hit
            _listing_cache.move_to_end(cs)
            while len(_listing_cache) > _LISTING_CACHE_SIZE:
                _listing_cache.popitem(last=False)
        n = bisect_right(hit[3], cutoff)
    return hit, n


def _entry_listing(top: float, entries) -> tuple:
    """The listing up to top of the given entries (``_listing``)."""
    mus, mults = [e.eigenvalue for e in entries], [e.multiplicity for e in entries]
    highs, lows = list(accumulate(mus, max)), list(accumulate(reversed(mus), min))[::-1]
    return top, np.array(mus, dtype=float), np.array(mults, dtype=float), highs, lows, mus, mults


def _squares(c: float, cutoff: float) -> list:
    """(c k)^2 for k = 0, 1, ... up to sqrt(cutoff) / c (1e-12 to spare), by
    ** 2, not x * x, which rounds differently on some doubles; 0 at c = inf."""
    n = int(math.floor(math.sqrt(cutoff) / c + 1e-12))
    return [0.0] + [(c * k) ** 2 for k in range(1, n + 1)]


def _fold(a: float, b: float, cutoff: float) -> tuple:
    """(r2, w, j, k): the points r2 = (a j)^2 + (b k)^2 <= cutoff of the
    lattice folded onto j, k >= 0, j-major, with their multiplicities w;
    row j holds the k up to sqrt(cutoff - (a j)^2) / b (1e-12 to spare).
    The flat built-ins' listings and the torus zeta's Ewald sums read it."""
    rows = [r for r in _squares(a, cutoff) if r <= cutoff]
    cols = _squares(b, cutoff)
    last = [[math.floor(math.sqrt(cutoff - r) / b + 1e-12)] for r in rows]
    r2 = np.add.outer(rows, cols)
    j, k = np.nonzero((r2 <= cutoff) & (np.arange(len(cols)) <= np.array(last)))
    weights = [1.0] + [2.0] * max(len(rows), len(cols))
    return r2[j, k], np.multiply.outer(weights[:len(rows)], weights[:len(cols)])[j, k], j, k


def _check_cutoff(cutoff: float) -> None:
    if not 0 < cutoff < math.inf:
        raise ValidationError(f"cutoff must be finite and > 0, got {cutoff}")


def enumerate_spectrum(cs: CrossSection, cutoff: float) -> list:
    """All eigenvalues <= cutoff with exact multiplicities, ascending in exact
    value (a torus's floats may tie or fall out of order), in a new list; the
    library's own scans read ``cs._arrays`` and build no ``SpectrumEntry``."""
    _check_cutoff(cutoff)
    return cs.enumerate_spectrum(cutoff)


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


def _upper_gamma(two_a: int, x: float) -> float:
    """Gamma(a, x), the upper incomplete gamma function, at a = two_a / 2
    for an integer two_a >= 1 and x >= 0.

    From Gamma(1, x) = e^-x or Gamma(1/2, x) = sqrt(pi) erfc(sqrt(x)), the
    steps Gamma(a + 1, x) = a Gamma(a, x) + x^a e^-x add positive terms, so
    the result is within a few roundings per step.  Past x = 700, where
    e^-x nears underflow, x^a e^-x is formed as exp(a ln x - x).
    """
    x = np.asarray(x, dtype=float)
    far = x > 700.0
    if two_a % 2 == 0:
        a, g = 1.0, np.exp(-x)
    else:
        a, y = 0.5, np.sqrt(x)
        g = math.sqrt(math.pi) * math.erfc(y)
        if not far:
            # erfc moves by 2y relative per unit of its argument, 1e-13 at
            # x = 700 from the rounding of y; exp(y^2 - x) puts it back, with
            # y^2 - x exact from the halves of y (Veltkamp's split)
            c = 134217729.0 * y
            hi = c - (c - y)
            lo = y - hi
            g = g * np.exp((hi * hi - x) + 2.0 * hi * lo + lo * lo)
    while 2.0 * a < two_a:
        g = a * g + (np.exp(a * np.log(x) - x) if far else x**a * np.exp(-x))
        a += 1.0
    return float(g)


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
