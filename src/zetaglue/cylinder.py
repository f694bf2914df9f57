"""Log-determinants of -d^2/du^2 + Delta_Y on [0, L] x Y.

Each determinant is a closed-form breakdown: zero-mode terms, residue and
finite-part terms of the cross-section zeta at s = -1/2, regularized
cross-section determinants, shifted first-order determinants, expansion
constants, and an absolutely convergent boundary-interaction series with
a certified exponential tail bound.  The line segment (point
cross-section) has an empty series and vanishing zeta terms.

One per-end rule gives every boundary pair.  Over the mode x = sqrt(mu)
the segment determinant factorises as e^(xL) w_l w_r (1 - r_l r_r e^(-2xL)),
and each end has a weight on ln Det* Delta_Y and a reflection r: Dirichlet
-1/4 and -1, Neumann +1/4 and +1, Robin(alpha) -1/4 and (x - alpha)/(x + alpha),
so Neumann is Robin(0) and Dirichlet the alpha -> infinity end.  Each Robin
end adds ln Det(sqrt(Delta_Y) + alpha) and -s_alpha; the zero modes add
q0 ln 2 where r_l r_r = -1 at x = 0, else q0 ln 2(L + sum of 1/alpha over
the Robin ends).  Supported: D/D, N/N, Robin(alpha)/Robin(alpha), and N/D
and N/Robin(alpha) in either order; D/Robin is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .asymptotics import s_alpha
from .errors import InsufficientSpectrumError, SingularParameterError, ValidationError
from .spectra import (
    CrossSection,
    exp_tail_bound,
    heat_coefficients,
    kernel_dim,
)
from .zreg import (
    _check_admissible,
    _check_alpha,
    _check_modes,
    log_det_shifted,
    log_det_star,
    signed_log,
    zeta_point,
)

__all__ = [
    "BoundaryCondition",
    "CylinderSpec",
    "DetReport",
    "SeriesResult",
    "log_det_cylinder",
    "series_sum",
]

_LN2 = math.log(2.0)

DIRICHLET = "dirichlet"
NEUMANN = "neumann"
ROBIN = "robin"


@dataclass(frozen=True)
class BoundaryCondition:
    """One endpoint condition: Dirichlet, Neumann, or Robin(alpha).

    The Robin parameter follows the outward-normal convention
    (d/dnu + alpha) u = 0; Robin(0) is normalized to Neumann at
    construction.  alpha must be finite with |alpha| <= 1e150.
    """

    kind: str
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in (DIRICHLET, NEUMANN, ROBIN):
            raise ValidationError(f"unknown boundary condition {self.kind!r}")
        _check_alpha(self.alpha)
        if self.kind == ROBIN and self.alpha == 0.0:
            object.__setattr__(self, "kind", NEUMANN)
            object.__setattr__(self, "alpha", 0.0)
        elif self.kind != ROBIN and self.alpha != 0.0:
            raise ValidationError("only Robin conditions carry a parameter")

    @staticmethod
    def dirichlet() -> "BoundaryCondition":
        return BoundaryCondition(DIRICHLET)

    @staticmethod
    def neumann() -> "BoundaryCondition":
        return BoundaryCondition(NEUMANN)

    @staticmethod
    def robin(alpha: float) -> "BoundaryCondition":
        return BoundaryCondition(ROBIN, float(alpha))

    @staticmethod
    def parse(token: str) -> "BoundaryCondition":
        t = token.strip().lower()
        if t in ("d", "dirichlet"):
            return BoundaryCondition.dirichlet()
        if t in ("n", "neumann"):
            return BoundaryCondition.neumann()
        if t.startswith("r"):
            try:
                return BoundaryCondition.robin(float(t.partition(":")[2]))
            except ValueError as exc:
                raise ValidationError(f"{token!r} is not r:<alpha> with a number alpha") from exc
        raise ValidationError(f"cannot parse boundary condition {token!r}")


@dataclass(frozen=True)
class CylinderSpec:
    """Product cylinder [0, L] x Y with one condition on each end."""

    cross_section: CrossSection
    length: float
    bc_left: BoundaryCondition
    bc_right: BoundaryCondition

    def __post_init__(self):
        if not 0 < self.length < math.inf:
            raise ValidationError(f"cylinder length must be finite and > 0, got {self.length}")


@dataclass(frozen=True)
class DetReport:
    """A log-determinant with its named closed-form breakdown.

    ``log_det`` is exactly the fsum of ``terms`` in insertion order;
    ``phase_multiple`` counts pi units from negative factors;
    ``truncation`` is the certified bound on all series/backends tails.
    """

    log_det: float
    phase_multiple: int
    kernel_dim: int
    terms: dict
    truncation: float

    @staticmethod
    def assemble(terms: dict, phase: int, kernel: int, truncation: float) -> "DetReport":
        return DetReport(
            log_det=math.fsum(terms.values()),
            phase_multiple=phase,
            kernel_dim=kernel,
            terms=dict(terms),
            truncation=truncation,
        )


# ----------------------------------------------------------------------------
# convergent boundary-interaction series
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesResult:
    value: float
    phase: int
    tail_bound: float
    cutoff: float


def _factor(x: float, length: float, alpha: float, power: int, sigma: float) -> float:
    """1 - c exp(-2*length*x), c = sigma if power == 0 else ((x - alpha)/(x + alpha))**power."""
    e = math.exp(-2.0 * length * x)
    if power == 0:
        return 1.0 - sigma * e
    if x + alpha == 0.0:
        raise SingularParameterError(f"singular series term: sqrt(mu) = {x} collides with -alpha")
    r = (x - alpha) / (x + alpha)
    return 1.0 - (r if power == 1 else r ** 2) * e  # r ** 1 costs a pow call


def _amplitude(lam: float, alpha: float, power: int) -> float:
    """A with |factor - 1| <= A exp(-2*length*sqrt(mu)) for mu > lam."""
    if power == 0:
        return 1.0
    root = math.sqrt(lam)
    if root <= abs(alpha):
        return math.inf
    ratio = (root + abs(alpha)) / (root - abs(alpha))
    return ratio if power == 1 else ratio * ratio


# each row (length, alpha, power, sigma, sign) adds sign * ln|_factor| per mode
_FORMS = {
    # documented public forms
    "log1m_exp": lambda L, alpha, a: ((L, 0.0, 0, 1.0, +1),),
    "log1p_exp": lambda L, alpha, a: ((L, 0.0, 0, -1.0, +1),),
    "robin_pair": lambda L, alpha, a: (
        (L, 0.0, 0, 1.0, +1), (a, alpha, 1, 0.0, -1), (L - a, -alpha, 1, 0.0, -1)),
    # internal forms used by the determinant assemblies
    "robin_end": lambda L, alpha, a: ((L, alpha, 1, 0.0, +1),),
    "robin_both": lambda L, alpha, a: ((L, alpha, 2, 0.0, +1),),
}


def _series_cutoff(cs: CrossSection, rows, alpha: float, tol: float, min_cutoff=None) -> tuple:
    """(lam, bound): the cutoff of a series of the rows, from its tail bounds
    alone, and the bound there.  It starts at the largest of 4(|alpha| + 1)^2,
    (8/l)^2 for the least row length l, 16 and ``min_cutoff``, which must hold
    at most ``zreg._MODE_BUDGET`` modes, and doubles until the bound is <= tol."""
    min_len = min(row[0] for row in rows)
    by_alpha, by_length = (abs(alpha) + 1.0) ** 2 * 4.0, (8.0 / min_len) ** 2
    lam = max(by_alpha, by_length, 16.0, min_cutoff or 0.0)
    _check_modes(cs, lam, *((alpha,) if by_alpha >= by_length else (min_len, "length")))
    while True:
        bound = 0.0
        for plen, palpha, power, _, _ in rows:
            amp = _amplitude(lam, palpha, power)
            y0 = amp * math.exp(-2.0 * plen * math.sqrt(lam))
            if y0 >= 0.5:
                bound = math.inf
                break
            bound += amp / (1.0 - y0) * exp_tail_bound(cs, lam, 2.0 * plen)
        if bound <= tol:
            break
        lam *= 2.0
        if lam > 1e14:
            if cs.max_trusted < math.inf:
                raise InsufficientSpectrumError(
                    "stored spectrum cannot certify the series tail",
                    max_trusted=cs.max_trusted,
                )
            raise ValidationError("series tail bound did not converge")
    return lam, bound


def series_sum(
    cs: CrossSection,
    length: float,
    form: str,
    alpha: float = 0.0,
    a: Optional[float] = None,
    tol: float = 1e-12,
    min_cutoff: Optional[float] = None,
) -> SeriesResult:
    """Sum over the positive cross-section spectrum of one log-factor form.

    A form is rows (length, alpha, power, sigma, sign); at x = sqrt(mu) a
    row adds sign * ln|1 - c exp(-2 length x)|, c = sigma if power == 0
    else ((x - alpha)/(x + alpha))**power.  ``robin_pair`` at alpha = 0 is
    the Neumann pair.

    Deterministic ascending-eigenvalue order with compensated summation;
    the returned tail bound certifies the truncation.  Factors that cross
    zero contribute ln|.| and one pi unit of phase.  ``alpha`` must be
    finite with |alpha| <= 1e150, or the cutoff 4(|alpha| + 1)^2 overflows.
    The cutoff is ``_series_cutoff``'s; the modes are read from the listing.
    """
    if not (length > 0):
        raise ValidationError("series length must be > 0")
    _check_alpha(alpha)
    if form not in _FORMS:
        raise ValidationError(f"unknown series form {form!r}")
    if form == "robin_pair" and (a is None or not (0 < a < length)):
        raise ValidationError("pair forms need a cut 0 < a < L")
    rows = _FORMS[form](length, alpha, a if a is not None else length)
    lam, bound = _series_cutoff(cs, rows, alpha, tol, min_cutoff)

    # entries beyond a stored list are covered by its model tail bound; a
    # list of zero modes alone has nothing to sum
    top = min(lam, cs.max_trusted)
    if top < lam:
        # the stored modes in (top, lam] are not summed: bound them from top
        for plen, palpha, power, _, _ in rows:
            amp = _amplitude(top, palpha, power) if top > 0.0 else math.inf
            y0 = amp * math.exp(-2.0 * plen * math.sqrt(max(top, 0.0)))
            bound += amp / (1.0 - y0) * exp_tail_bound(cs, top, 2.0 * plen) if y0 < 0.5 else math.inf
    terms = []
    phase = 0
    for u, m in zip(*cs._modes(top)):
        if u <= 0.0:
            continue
        x = math.sqrt(u)
        piece = 0.0
        for plen, palpha, power, sigma, sign in rows:
            f = _factor(x, plen, palpha, power, sigma)
            lm, ph = signed_log(f)
            piece += sign * lm
            phase += m * sign * ph
        terms.append(m * piece)
    return SeriesResult(math.fsum(terms), phase, bound, lam)


# ----------------------------------------------------------------------------
# interface operators
# ----------------------------------------------------------------------------


# interface geometry -> (far end of the piece, None for two interface ends; sign of alpha)
_INTERFACES = {"both_ends": (None, 1.0), "left_neumann_cut": (DIRICHLET, 1.0),
               "cut_left": (NEUMANN, 1.0), "cut_right": (NEUMANN, -1.0)}


# exponents stop at 700: 2x e^(-700) moves no x + alpha that does not nearly vanish
def _interface_values(x: float, length: float, alpha: float, far) -> tuple:
    """The interface operator of a piece over the mode sqrt(mu) = x: x tanh(length x)
    + alpha with a Neumann far end, x coth(length x) + alpha with a Dirichlet one;
    two interface ends (far None) are the even and odd halves of half the length."""
    if far is None:
        return (_interface_values(x, length / 2.0, alpha, NEUMANN)
                + _interface_values(x, length / 2.0, alpha, DIRICHLET))
    if x == 0.0:
        return (alpha if far == NEUMANN else 1.0 / length + alpha,)
    t = min(2.0 * length * x, 700.0)
    if far == NEUMANN:
        return (x + alpha - 2.0 * x / (math.exp(t) + 1.0),)
    return (x + alpha + 2.0 * x / math.expm1(t),)


def _check_robin_admissible(cs: CrossSection, length: float, alpha: float, geometry: str):
    """Reject alpha colliding with the spectrum of an interface operator.

    Over the mode x = sqrt(mu), a piece of length l has the eigenvalue
    x tanh(l x) + alpha or x coth(l x) + alpha, and two interface ends are
    those of half the length, l = L/2.  As tanh y >= y/(1 + y) for y >= 0,
    x tanh(l x) >= x - x/(1 + l x) > x - 1/l, and coth >= 1, so every
    eigenvalue exceeds x - 1/l - |alpha|.  Above the scanned cutoff
    x = |alpha| (1 + 1e-14) + 1/l + 1 it thus exceeds 1 + 1e-14 |alpha|,
    the refusal tolerance of ``_check_admissible`` or more, and nothing
    there can be refused.  A Robin end has alpha != 0 (``BoundaryCondition``).
    """
    far, sign = _INTERFACES[geometry]
    alpha = sign * alpha
    piece = length / 2.0 if far is None else length
    _check_admissible(
        cs, alpha, (abs(alpha) * (1.0 + 1e-14) + 1.0 / piece + 1.0) ** 2,
        lambda x: _interface_values(x, length, alpha, far),
        lambda mu: f"singular Robin parameter: interface eigenvalue vanishes at mu = {mu}",
        (alpha,) if abs(alpha) >= 1.0 / piece else (length, "length"),
    )


# ----------------------------------------------------------------------------
# the determinant assembly
# ----------------------------------------------------------------------------


# end kind -> (weight of ln Det* Delta_Y, sign, power): the end reflects the
# mode x = sqrt(mu) with r = sign * ((x - alpha)/(x + alpha))**power
_ENDS = {DIRICHLET: (-0.25, -1, 0), NEUMANN: (0.25, 1, 0), ROBIN: (-0.25, 1, 1)}
# (sign, power) of r_l r_r -> the form summing ln(1 - r_l r_r exp(-2 L x))
_PAIR_SERIES = {
    (1, 0): "log1m_exp", (-1, 0): "log1p_exp", (1, 1): "robin_end", (1, 2): "robin_both",
}


def _pair_series(left: str, right: str) -> tuple:
    """The series form of two end kinds, and r_l r_r at x = 0; D/Robin is refused."""
    (_, s_l, p_l), (_, s_r, p_r) = _ENDS[left], _ENDS[right]
    sign, power = s_l * s_r, p_l + p_r
    if (sign, power) not in _PAIR_SERIES:
        raise ValidationError(f"unsupported boundary pair {left}/{right}; supported: D/D, "
                              "N/N, N/D, D/N, Robin/Robin (equal), N/Robin, Robin/N")
    return _PAIR_SERIES[sign, power], sign * (-1) ** power


def log_det_cylinder(
    spec: CylinderSpec,
    tol: float = 1e-12,
    backend: str = "auto",
) -> DetReport:
    """Zeta-regularized log-determinant of the cylinder Laplacian.

    Returns the full named breakdown; ``log_det`` is the exact sum of the
    breakdown terms.  Unsupported boundary pairs (Dirichlet/Robin, or two
    Robin ends with different parameters) are rejected.
    """
    cs, L, bl, br = spec.cross_section, spec.length, spec.bc_left, spec.bc_right
    robin = [bc.alpha for bc in (bl, br) if bc.kind == ROBIN]
    n_robin = len(robin)
    if n_robin == 2 and robin[0] != robin[1]:
        raise ValidationError("two Robin ends are supported only with equal parameters")
    form, r0 = _pair_series(bl.kind, br.kind)
    alpha = robin[0] if robin else 0.0
    weight = _ENDS[bl.kind][0] + _ENDS[br.kind][0]
    q0 = kernel_dim(cs)

    if robin:
        _check_robin_admissible(cs, L, alpha, "both_ends" if n_robin == 2 else "cut_left")
    zp = zeta_point(cs, -0.5, backend=backend)
    star = log_det_star(cs, backend=backend) if weight else None
    if robin:
        shifted = log_det_shifted(cs, alpha, backend=backend)
        heat = heat_coefficients(cs, order=cs.dim // 2)
    ser = series_sum(cs, L, form, alpha=alpha, tol=tol)
    # a reflection r_l r_r = -1 at x = 0 leaves a factor 2
    zero_length = L + sum(1.0 / a for a in robin)
    lm0, ph0 = (_LN2, 0) if r0 == -1 else signed_log(2.0 * zero_length)

    terms = {"s_alpha_term": -n_robin * s_alpha(heat, alpha)} if robin else {}
    terms["zero_modes"] = q0 * lm0
    terms["residue_term"] = -2.0 * L * (_LN2 - 1.0) * zp.residue
    terms["finite_part_term"] = L * zp.value
    phase = q0 * ph0 + ser.phase
    if robin:
        terms["det_shifted"] = n_robin * shifted.log_modulus
        phase += n_robin * shifted.phase_multiple
    if weight:
        terms["cross_det_half"] = weight * star.log_modulus
    terms["series"] = ser.value
    kernel = q0 if bl.kind == br.kind == NEUMANN else 0
    return DetReport.assemble(terms, phase, kernel, ser.tail_bound)
