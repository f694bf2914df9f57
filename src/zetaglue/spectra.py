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
from typing import Optional, Sequence

import mpmath as mp

from .errors import (
    HeatDataRequiredError,
    InsufficientSpectrumError,
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
        if self.eigenvalue < 0:
            raise ValidationError(
                f"cross-section eigenvalues must be >= 0, got {self.eigenvalue}"
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
        from .errors import MissingHeatCoefficientError

        raise MissingHeatCoefficientError(j)


class CrossSection:
    """Base class for the closed manifold factor of the product cylinder."""

    dim: int

    # subclasses implement: _entries_below, _heat, kernel dimension, trace
    def __repr__(self):  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


@dataclass(frozen=True, repr=False)
class Point(CrossSection):
    """Zero-dimensional cross-section: the Laplacian is 0 on a line."""

    dim: int = field(default=0, init=False)

    def __repr__(self):
        return "Point()"


@dataclass(frozen=True, repr=False)
class Circle(CrossSection):
    """Circle of circumference ell; eigenvalues (2*pi*k/ell)^2, k in Z."""

    circumference: float
    dim: int = field(default=1, init=False)

    def __post_init__(self):
        if not (self.circumference > 0):
            raise ValidationError("circle circumference must be > 0")

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.circumference

    def __repr__(self):
        return f"Circle(ell={self.circumference!r})"


@dataclass(frozen=True, repr=False)
class FlatTorus(CrossSection):
    """Flat rectangular torus with side lengths ell1, ell2."""

    ell1: float
    ell2: float
    dim: int = field(default=2, init=False)

    def __post_init__(self):
        if not (self.ell1 > 0 and self.ell2 > 0):
            raise ValidationError("torus side lengths must be > 0")

    def __repr__(self):
        return f"FlatTorus(ell1={self.ell1!r}, ell2={self.ell2!r})"


@dataclass(frozen=True, repr=False)
class ExplicitSpectrum(CrossSection):
    """Explicitly supplied truncated spectrum with heat metadata.

    ``entries`` must be sorted ascending and pre-merged (exact equality of
    the supplied eigenvalue representations defines degeneracy).  The zero
    eigenvalue, when present, must appear explicitly; the kernel dimension
    is read off the mu = 0 entry.  Heat coefficients are never inferred
    from the truncated list — they must be supplied.
    """

    entries: tuple
    dim: int
    heat: Optional[HeatExpansion] = None

    def __post_init__(self):
        if self.dim < 0:
            raise ValidationError("dimension must be >= 0")
        prev = None
        for e in self.entries:
            if not isinstance(e, SpectrumEntry):
                raise ValidationError("entries must be SpectrumEntry instances")
            if prev is not None and not (e.eigenvalue > prev):
                raise ValidationError(
                    "explicit entries must be strictly ascending and pre-merged"
                )
            prev = e.eigenvalue
        if self.heat is not None and self.heat.cross_dim != self.dim:
            raise ValidationError("heat expansion dimension disagrees with dim")

    @property
    def max_eigenvalue(self) -> float:
        return self.entries[-1].eigenvalue if self.entries else 0.0

    def __repr__(self):
        return f"ExplicitSpectrum(n={len(self.entries)}, dim={self.dim})"


# ----------------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------------


# recent circles and tori, oldest first: (top cutoff, entries, bounds of their floats)
_SPECTRUM_CACHE_SIZE = 32
_spectrum_cache: OrderedDict = OrderedDict()
_spectrum_lock = threading.Lock()


def enumerate_spectrum(cs: CrossSection, cutoff: float) -> list:
    """All eigenvalues <= cutoff with exact multiplicities, sorted ascending,
    in a new list (circles and tori bisect a cached spectrum)."""
    if not (cutoff > 0):
        raise ValidationError(f"cutoff must be > 0, got {cutoff}")
    if isinstance(cs, Point):
        return [SpectrumEntry(0.0, 1)]
    if isinstance(cs, (Circle, FlatTorus)):
        return _cached_entries(cs, cutoff)
    if isinstance(cs, ExplicitSpectrum):
        if cs.max_eigenvalue < cutoff:
            raise InsufficientSpectrumError(
                "explicit spectrum is truncated below the requested cutoff",
                max_trusted=cs.max_eigenvalue,
            )
        return [e for e in cs.entries if e.eigenvalue <= cutoff]
    raise ValidationError(f"unknown cross-section type {type(cs).__name__}")


def _cached_entries(cs: CrossSection, cutoff: float) -> list:
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
        return entries[:n] if n == bisect_right(lows, cutoff) else _entries(cs, cutoff)[0]
    entries, lows, highs = _entries(cs, cutoff)
    highs = list(accumulate(highs, max))
    lows = list(accumulate(reversed(lows), min))[::-1]
    with _spectrum_lock:
        if _spectrum_cache.get(cs, (0.0,))[0] < cutoff:
            _spectrum_cache[cs] = (cutoff, entries, highs, lows)
        _spectrum_cache.move_to_end(cs)
        while len(_spectrum_cache) > _SPECTRUM_CACHE_SIZE:
            _spectrum_cache.popitem(last=False)
    return list(entries)


def _entries(cs: CrossSection, cutoff: float):
    """(entries, lows, highs): the spectrum <= cutoff and, per entry, the
    least and the largest float of the lattice points merged into it."""
    if isinstance(cs, FlatTorus):
        return _torus_entries(cs, cutoff)
    c = cs.wavenumber
    kmax = int(math.floor(math.sqrt(cutoff) / c + 1e-12))
    mus = [mu for mu in [0.0] + [(c * k) ** 2 for k in range(1, kmax + 1)] if mu <= cutoff]
    return [SpectrumEntry(mu, 2 if k else 1) for k, mu in enumerate(mus)], mus, mus


def _torus_entries(cs: FlatTorus, cutoff: float):
    # Exact degeneracy merging: with ell_i = n_i/d_i the exact binary
    # fractions of the side lengths, the integer
    # j^2 (n2 d1)^2 + k^2 (n1 d2)^2 = (ell1 ell2 d1 d2 / 2 pi)^2 mu
    # is proportional to mu, so lattice points with equal exact
    # eigenvalues share a key and the keys sort as the eigenvalues do.
    n1, d1 = cs.ell1.as_integer_ratio()
    n2, d2 = cs.ell2.as_integer_ratio()
    w1 = (n1 * d2) ** 2
    w2 = (n2 * d1) ** 2
    c1 = 2.0 * math.pi / cs.ell1
    c2 = 2.0 * math.pi / cs.ell2
    jmax = int(math.floor(math.sqrt(cutoff) / c1 + 1e-12))
    groups: dict = {}
    for j in range(0, jmax + 1):
        rem = cutoff - (c1 * j) ** 2
        if rem < 0:
            break
        kmax = int(math.floor(math.sqrt(max(rem, 0.0)) / c2 + 1e-12))
        for k in range(0, kmax + 1):
            mu = (c1 * j) ** 2 + (c2 * k) ** 2
            if mu > cutoff:
                continue
            key = j * j * w2 + k * k * w1
            mult = (1 if j == 0 else 2) * (1 if k == 0 else 2)
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


def heat_coefficients(cs: CrossSection, order: int = 0) -> HeatExpansion:
    """Heat-trace coefficients a_0..a_order of the cross-section Laplacian.

    Flat cross-sections have a_j = 0 exactly for every j >= 1.
    """
    if order < 0:
        raise ValidationError(f"order must be >= 0, got {order}")
    if isinstance(cs, Point):
        return HeatExpansion(0, (1.0,) + (0.0,) * order, exact=True)
    if isinstance(cs, Circle):
        a0 = cs.circumference / (2.0 * math.sqrt(math.pi))
        return HeatExpansion(1, (a0,) + (0.0,) * order, exact=True)
    if isinstance(cs, FlatTorus):
        a0 = cs.ell1 * cs.ell2 / (4.0 * math.pi)
        return HeatExpansion(2, (a0,) + (0.0,) * order, exact=True)
    if isinstance(cs, ExplicitSpectrum):
        if cs.heat is None:
            raise HeatDataRequiredError(
                "explicit cross-section carries no heat expansion; heat data required"
            )
        if cs.heat.order < order and not cs.heat.exact:
            from .errors import MissingHeatCoefficientError

            raise MissingHeatCoefficientError(order)
        coeffs = tuple(cs.heat.coeff(j) for j in range(order + 1))
        return HeatExpansion(cs.dim, coeffs, exact=cs.heat.exact)
    raise ValidationError(f"unknown cross-section type {type(cs).__name__}")


def kernel_dim(cs: CrossSection) -> int:
    """Multiplicity of the zero eigenvalue (q0 = dim ker of the Laplacian)."""
    if isinstance(cs, (Point, Circle, FlatTorus)):
        return 1
    if isinstance(cs, ExplicitSpectrum):
        for e in cs.entries:
            if e.eigenvalue == 0.0:
                return e.multiplicity
            if e.eigenvalue > 0.0:
                break
        return 0
    raise ValidationError(f"unknown cross-section type {type(cs).__name__}")


def _circle_theta(ell: float, t: float) -> float:
    """Full heat trace on a circle of circumference ell, relative error <= 1e-14.

    Uses the lattice sum for c^2 t >= 1 and its modular dual for small t.
    """
    c = 2.0 * math.pi / ell
    x = c * c * t
    if x >= 1.0:
        total = 1.0
        k = 1
        while True:
            term = 2.0 * math.exp(-x * k * k)
            total += term
            if term < 1e-18 * total:
                break
            k += 1
        return total
    # dual sum: (ell / sqrt(4 pi t)) * sum_n exp(-ell^2 n^2 / (4 t))
    pref = ell / math.sqrt(4.0 * math.pi * t)
    y = ell * ell / (4.0 * t)
    total = 1.0
    n = 1
    while True:
        term = 2.0 * math.exp(-y * n * n)
        total += term
        if term < 1e-18 * total:
            break
        n += 1
    return pref * total


def heat_trace(cs: CrossSection, t: float) -> float:
    """Full heat trace sum_j m_j exp(-t mu_j), relative error <= 1e-12."""
    if not (t > 0):
        raise ValidationError(f"heat trace requires t > 0, got {t}")
    if isinstance(cs, Point):
        return 1.0
    if isinstance(cs, Circle):
        return _circle_theta(cs.circumference, t)
    if isinstance(cs, FlatTorus):
        # product spectrum: the trace factorizes into two circle traces
        return _circle_theta(cs.ell1, t) * _circle_theta(cs.ell2, t)
    if isinstance(cs, ExplicitSpectrum):
        total = math.fsum(
            e.multiplicity * math.exp(-t * e.eigenvalue) for e in cs.entries
        )
        tail = heat_tail_bound(cs, cs.max_eigenvalue, t)
        if tail > 1e-12 * max(total, 1e-300):
            raise InsufficientSpectrumError(
                "explicit spectrum too short for the requested heat-trace accuracy",
                max_trusted=cs.max_eigenvalue,
            )
        return total
    raise ValidationError(f"unknown cross-section type {type(cs).__name__}")


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
    if isinstance(cs, Point):
        return 0.0
    if isinstance(cs, Circle):
        c = cs.wavenumber
        k0 = int(math.floor(math.sqrt(max(lam, 0.0)) / c)) + 1
        r = math.exp(-rate * c)
        return 2.0 * math.exp(-rate * c * k0) / (1.0 - r)
    if isinstance(cs, FlatTorus):
        # sqrt(mu) >= (c1|j| + c2|k|)/sqrt(2) and sqrt(mu) > sqrt(lam) outside
        c1 = 2.0 * math.pi / cs.ell1
        c2 = 2.0 * math.pi / cs.ell2
        tau = rate / (2.0 * math.sqrt(2.0))
        s1 = 2.0 * math.exp(-tau * c1) / (1.0 - math.exp(-tau * c1))
        s2 = 2.0 * math.exp(-tau * c2) / (1.0 - math.exp(-tau * c2))
        return math.exp(-0.5 * rate * math.sqrt(max(lam, 0.0))) * (
            (1.0 + s1) * (1.0 + s2) - 1.0
        )
    if isinstance(cs, ExplicitSpectrum):
        stored = math.fsum(
            e.multiplicity * math.exp(-rate * math.sqrt(e.eigenvalue))
            for e in cs.entries
            if e.eigenvalue > lam
        )
        model = _weyl_exp_tail(cs, max(lam, cs.max_eigenvalue), rate)
        return stored + model
    raise ValidationError(f"unknown cross-section type {type(cs).__name__}")


def heat_tail_bound(cs: CrossSection, lam: float, t: float) -> float:
    """Upper bound on sum_{mu > lam} m_j exp(-t*mu_j)."""
    if t <= 0:
        raise ValidationError("tail bound needs t > 0")
    if isinstance(cs, Point):
        return 0.0
    if isinstance(cs, Circle):
        c = cs.wavenumber
        k0 = int(math.floor(math.sqrt(max(lam, 0.0)) / c)) + 1
        lead = 2.0 * math.exp(-c * c * k0 * k0 * t)
        ratio = math.exp(-c * c * (2 * k0 + 1) * t)
        return lead / (1.0 - ratio) if ratio < 1.0 else math.inf
    if isinstance(cs, FlatTorus):
        theta = _circle_theta(cs.ell1, 0.5 * t) * _circle_theta(cs.ell2, 0.5 * t)
        return math.exp(-0.5 * t * max(lam, 0.0)) * theta
    if isinstance(cs, ExplicitSpectrum):
        stored = math.fsum(
            e.multiplicity * math.exp(-t * e.eigenvalue)
            for e in cs.entries
            if e.eigenvalue > lam
        )
        model = _weyl_heat_tail(cs, max(lam, cs.max_eigenvalue), t)
        return stored + model
    raise ValidationError(f"unknown cross-section type {type(cs).__name__}")


def _weyl_density_scale(cs: ExplicitSpectrum):
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


def _weyl_exp_tail(cs: ExplicitSpectrum, lam: float, rate: float) -> float:
    pref, d = _weyl_density_scale(cs)
    if pref == 0.0:
        return 0.0
    x0 = rate * math.sqrt(max(lam, 0.0))
    # integral_lam^inf u^{d/2-1} e^{-rate sqrt(u)} du = (2/rate^d) Gamma(d, x0)
    with mp.workdps(25):
        gam = float(mp.gammainc(d, x0))
    return pref * 2.0 * gam / rate**d


def _weyl_heat_tail(cs: ExplicitSpectrum, lam: float, t: float) -> float:
    pref, d = _weyl_density_scale(cs)
    if pref == 0.0:
        return 0.0
    # integral_lam^inf u^{d/2-1} e^{-t u} du = Gamma(d/2, t*lam) / t^{d/2}
    with mp.workdps(25):
        gam = float(mp.gammainc(d / 2.0, t * max(lam, 0.0)))
    return pref * gam / t ** (d / 2.0)


# ----------------------------------------------------------------------------
# explicit-spectrum ingestion
# ----------------------------------------------------------------------------


def explicit_from_json(doc) -> ExplicitSpectrum:
    """Build an explicit cross-section from its JSON document.

    Expected shape::

        {"dim": int,
         "entries": [[mu, mult], ...],   # mu as float or decimal string
         "heat": {"coeffs": [a0, a1, ...]}}

    Entries must be sorted ascending and pre-merged.
    """
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    if not isinstance(doc, dict):
        raise ValidationError("explicit spectrum document must be a JSON object")
    try:
        dim = int(doc["dim"])
        raw_entries = doc["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed explicit spectrum document: {exc}") from exc
    entries = []
    for item in raw_entries:
        if len(item) != 2:
            raise ValidationError("each entry must be a [mu, mult] pair")
        mu, mult = item
        entries.append(SpectrumEntry(float(mu), int(mult)))
    heat = None
    if "heat" in doc and doc["heat"] is not None:
        coeffs = tuple(float(a) for a in doc["heat"]["coeffs"])
        heat = HeatExpansion(dim, coeffs, exact=bool(doc["heat"].get("exact", False)))
    return ExplicitSpectrum(entries=tuple(entries), dim=dim, heat=heat)


def explicit_mirror(cs: CrossSection, cutoff: float, exact_heat: bool = True) -> ExplicitSpectrum:
    """Explicit copy of a built-in cross-section truncated at ``cutoff``.

    Useful for exercising the numeric backends against closed forms.
    """
    entries = tuple(enumerate_spectrum(cs, cutoff))
    heat = heat_coefficients(cs, order=0)
    if not exact_heat:
        heat = HeatExpansion(heat.cross_dim, heat.coeffs, exact=False)
    return ExplicitSpectrum(entries=entries, dim=cs.dim, heat=heat)
