"""Interface (Dirichlet-to-Neumann type) operators in the product case.

For the cylinder cut at an interior circle {a} x Y, the relevant
operators act on boundary sections and have explicit eigenvalues over
the cross-section spectrum: the two-ended boundary operator, the single
Neumann-complement operator, the two one-sided cut operators, and the
interface-jump operator R at parameter 0 whose regularized determinant
enters the gluing identities.  The segment version of the two-ended
operator is a 2x2 matrix in closed form, exposed for asymptotic tests.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .asymptotics import s_alpha_pair, w0_w1
from .errors import SingularParameterError, ValidationError
from .spectra import (
    CrossSection,
    _check_cutoff,
    heat_coefficients,
    kernel_dim,
)
from .cylinder import (DIRICHLET, NEUMANN, ROBIN, _INTERFACES, _factor, _interface_values,
                       _pair_series, series_sum)
from .zreg import (
    RegularizedDet,
    _check_admissible,
    _check_alpha,
    log_det_shifted,
    log_det_star,
    signed_log,
    zeta_point,
)

__all__ = [
    "InterfaceSpectrum",
    "qd_matrix_segment",
    "qd_det_segment",
    "qd0_det_segment",
    "spec_interface",
    "log_det_interface",
    "spec_RS0",
    "rs0_eigenvalue",
    "rs0_eigenvalue_resolvent_form",
    "log_det_star_RS0",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class InterfaceSpectrum:
    """Truncated interface-operator spectrum with exact zero-mode count.

    ``entries`` exclude exact zero modes (counted in ``zero_modes``) and
    are sorted ascending.  ``geometry``/``length``/``alpha`` record which
    operator generated it; ``provenance`` is the human-readable tag.
    """

    entries: tuple
    zero_modes: int
    geometry: str
    length: float
    alpha: float
    provenance: str


# ----------------------------------------------------------------------------
# segment boundary operator (2x2)
# ----------------------------------------------------------------------------


def _safe_exp_ratio(z: complex) -> Tuple[complex, complex]:
    """(coth(z), 1/sinh(z)) computed through exp(-z), stable for Re z >= 0."""
    w = cmath.exp(-2.0 * z)
    denom = 1.0 - w
    if denom == 0:
        raise SingularParameterError("interface matrix singular at this parameter")
    return (1.0 + w) / denom, 2.0 * cmath.exp(-z) / denom


def qd_matrix_segment(lam: complex, alpha: float, length: float):
    """Boundary operator of the shifted segment Laplacian and its determinant.

    For Re(lam) >= 0, lam != 0 (principal square root), the operator on
    the two endpoint values is::

        [ sqrt(lam) coth(sqrt(lam) L) + alpha,  -sqrt(lam)/sinh(sqrt(lam) L) ]
        [ -sqrt(lam)/sinh(sqrt(lam) L),  sqrt(lam) coth(sqrt(lam) L) + alpha ]

    Returns ``(matrix, det)`` with the determinant evaluated in the
    overflow-safe closed form
    lam + alpha^2 + 2 alpha sqrt(lam) + 4 alpha sqrt(lam)/(e^(2 sqrt(lam) L) - 1).
    """
    if not (length > 0):
        raise ValidationError("segment length must be > 0")
    lam = complex(lam)
    if lam == 0:
        raise ValidationError(
            "lam = 0 is the degenerate limit; use qd0_det_segment for it"
        )
    if lam.real < 0 and abs(lam.imag) < 1e-300:
        raise ValidationError("the matrix is defined for Re(lam) >= 0")
    root = cmath.sqrt(lam)
    z = root * length
    coth, csch = _safe_exp_ratio(z)
    diag = root * coth + alpha
    off = -root * csch
    mat = np.array([[diag, off], [off, diag]], dtype=complex)
    return mat, qd_det_segment(lam, alpha, length)


def _cexpm1(z: complex) -> complex:
    """exp(z) - 1 without cancellation for small |z| (complex-safe)."""
    if abs(z) < 1e-4:
        # truncated Taylor series; relative error below 1e-20 at |z|=1e-4
        return z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0 * (1.0 + z / 5.0))))
    return cmath.exp(z) - 1.0


def qd_det_segment(lam: complex, alpha: float, length: float) -> complex:
    """Closed-form determinant of the segment boundary operator."""
    if not (length > 0):
        raise ValidationError("segment length must be > 0")
    lam = complex(lam)
    root = cmath.sqrt(lam)
    z = 2.0 * root * length
    if z.real > 700.0:
        corr = 4.0 * alpha * root * cmath.exp(-z)
    else:
        em = _cexpm1(z)
        if em == 0:
            raise SingularParameterError("determinant singular: exp(2 sqrt(lam) L) = 1")
        corr = 4.0 * alpha * root / em
    det = lam + alpha * alpha + 2.0 * alpha * root + corr
    if abs(det.imag) == 0.0:
        return complex(det.real, 0.0)
    return det


def qd0_det_segment(alpha: float, length: float) -> float:
    """lam -> 0 limit of the segment boundary determinant: 2 alpha/L + alpha^2."""
    if not (length > 0):
        raise ValidationError("segment length must be > 0")
    return 2.0 * alpha / length + alpha * alpha


# ----------------------------------------------------------------------------
# interface spectra over a general cross-section
# ----------------------------------------------------------------------------


def _interface(geometry: str, alpha: float) -> tuple:
    """(far end, signed alpha, Robin-pair form, Dirichlet-pair form) of a geometry."""
    if geometry not in _INTERFACES:
        raise ValidationError(f"unknown interface geometry {geometry!r}")
    far, sign = _INTERFACES[geometry]
    alpha = sign * alpha
    end = ROBIN if alpha else NEUMANN
    robin, _ = _pair_series(far or end, end)
    dirichlet, _ = _pair_series(far or DIRICHLET, DIRICHLET)
    return far, alpha, robin, dirichlet


def spec_interface(
    cs: CrossSection,
    geometry: str,
    length: float,
    alpha: float = 0.0,
    cutoff: float = 100.0,
) -> InterfaceSpectrum:
    """Exact truncated spectrum of one interface operator.

    Geometries: ``both_ends`` (boundary operator of [0, L] x Y with the
    shift on both ends), ``left_neumann_cut`` (single-end operator with a
    Dirichlet complement, alpha = 0 only), ``cut_left``/``cut_right``
    (one-sided cut operators of a piece of length ``length``; ``cut_right``
    flips the sign of the shift).  Multiplicities are inherited from the
    cross-section spectrum; exact zero modes are counted separately.
    """
    if not (length > 0):
        raise ValidationError("interface geometry needs a positive length")
    far, signed, _, _ = _interface(geometry, alpha)
    return _spectrum(cs, cutoff, lambda mu: _interface_values(math.sqrt(mu), length, signed, far),
                     geometry, length, alpha, f"{geometry}(L={length:g}, alpha={alpha:g})")


def _spectrum(cs: CrossSection, cutoff: float, values, geometry: str, length: float, alpha: float,
              tag: str) -> InterfaceSpectrum:
    """The operator whose eigenvalues over the cross-section mode mu are
    ``values(mu)``, up to the modes mu <= cutoff; vanishing ones are its
    zero modes, and the rest ascend with the modes' multiplicities."""
    _check_cutoff(cutoff)
    out, zero_modes = [], 0
    for u, m in zip(*cs._modes(cutoff)):
        for v in values(u):
            if v == 0.0:
                zero_modes += m
            else:
                out.append((v, m))
    out.sort(key=lambda t: t[0])
    return InterfaceSpectrum(tuple(out), zero_modes, geometry, length, alpha, tag)


def log_det_interface(
    spectrum: InterfaceSpectrum,
    reference: CrossSection,
    tol: float = 1e-12,
    backend: str = "auto",
) -> RegularizedDet:
    """Regularized log-determinant of an interface operator.

    Q is the Robin-over-Dirichlet quotient of a piece whose interface ends
    carry Robin(alpha), less the local constant: ln Det Q is the sum over
    the interface ends of ln Det(sqrt(Delta_Y) + alpha), 1/2 ln Det* Delta_Y
    at alpha = 0, plus the series of the Robin pair less the Dirichlet
    pair's (equal forms cancel unsummed), plus q0 ln of the x = 0
    eigenvalues, over alpha each where alpha != 0.  The raw list, growing
    like sqrt(mu), is never regularized directly.
    """
    cs, L = reference, spectrum.length
    far, alpha, robin, dirichlet = _interface(spectrum.geometry, spectrum.alpha)
    q0 = kernel_dim(cs)
    # the x = 0 eigenvalues; at alpha = 0 the vanishing ones are the kernel
    values = _interface_values(0.0, L, alpha, far)
    zero = [v / alpha if alpha else v for v in values if v or alpha]
    lm0, ph0 = signed_log(math.prod(zero))
    logmod, phase = q0 * lm0, q0 * ph0
    if alpha:
        shifted = log_det_shifted(cs, alpha, backend=backend)
        logmod += len(values) * shifted.log_modulus
        phase += len(values) * shifted.phase_multiple
    else:
        logmod += len(values) * 0.5 * log_det_star(cs, backend=backend).log_modulus
    if robin != dirichlet:
        ser_r = series_sum(cs, L, robin, alpha=alpha, tol=tol)
        ser_d = series_sum(cs, L, dirichlet, tol=tol)
        logmod = logmod + ser_r.value - ser_d.value
        phase += ser_r.phase - ser_d.phase
    return RegularizedDet(logmod, phase, q0 * (len(values) - len(zero)))


# ----------------------------------------------------------------------------
# the interface-jump operator at parameter 0
# ----------------------------------------------------------------------------


def _check_rs0_admissible(cs: CrossSection, alpha: float):
    _check_alpha(alpha)
    if alpha != 0.0:
        _check_admissible(
            cs, alpha, alpha * alpha * (1.0 + 1e-9) + 1.0, lambda x: (x - abs(alpha),),
            lambda mu: f"singular parameter: alpha = {alpha} collides with the sqrt-spectrum "
            f"(eigenvalue {mu})",
        )


def _check_cut(length: float, a: float):
    if not (0 < a < length):
        raise ValidationError("the cut must satisfy 0 < a < L")


def rs0_eigenvalue(mu: float, length: float, a: float, alpha: float) -> float:
    """Interface-jump eigenvalue over the cross-section mode mu > 0."""
    _check_cut(length, a)
    x = math.sqrt(mu)
    if x == 0.0:
        return 0.0
    if x == abs(alpha):
        raise SingularParameterError("singular parameter at this mode")
    num = (2.0 * x / (mu - alpha * alpha)) * (-math.expm1(-2.0 * length * x))
    return num / (_factor(x, a, alpha, 1, 0.0) * _factor(x, length - a, -alpha, 1, 0.0))


def rs0_eigenvalue_resolvent_form(mu: float, length: float, a: float, alpha: float) -> float:
    """Same eigenvalue through the sum of the two one-sided resolvents.

    Independent evaluation path: 1/q1 + 1/q2 with q1, q2 the one-sided
    cut-operator eigenvalues of the two pieces.
    """
    _check_cut(length, a)
    x = math.sqrt(mu)
    (far1, sign1), (far2, sign2) = _INTERFACES["cut_left"], _INTERFACES["cut_right"]
    (q1,), (q2,) = (_interface_values(x, a, sign1 * alpha, far1),
                    _interface_values(x, length - a, sign2 * alpha, far2))
    if q1 == 0.0 or q2 == 0.0:
        raise SingularParameterError("one-sided operator singular at this mode")
    return 1.0 / q1 + 1.0 / q2


def spec_RS0(
    cs: CrossSection,
    length: float,
    a: float,
    alpha: float = 0.0,
    cutoff: float = 100.0,
) -> InterfaceSpectrum:
    """Truncated spectrum of the interface-jump operator at parameter 0.

    The zero cross-section modes are exact zero modes of the operator
    (the limit value vanishes); they are excluded from the entries and
    counted in ``zero_modes``.
    """
    _check_cut(length, a)
    _check_rs0_admissible(cs, alpha)
    # the eigenvalue over mu = 0 is 0
    return _spectrum(cs, cutoff, lambda mu: (rs0_eigenvalue(mu, length, a, alpha),), "interface_jump",
                     length, alpha, f"interface_jump(L={length:g}, a={a:g}, alpha={alpha:g})")


def log_det_star_RS0(
    cs: CrossSection,
    length: float,
    a: float,
    alpha: float = 0.0,
    tol: float = 1e-12,
    backend: str = "auto",
) -> RegularizedDet:
    """ln Det* of the interface-jump operator at parameter 0.

    Assembled through the factorized form: the regularized determinant of
    2 sqrt(Delta)/(Delta - alpha^2) -- written with a ln2-weighted zeta
    value, the two shifted determinants, exact zero-mode phase
    bookkeeping and a finite heat-coefficient correction -- plus the
    convergent cut series.  The raw eigenvalue list has order -1 growth
    and is never regularized directly.
    """
    _check_cut(length, a)
    _check_rs0_admissible(cs, alpha)
    q0 = kernel_dim(cs)
    star = log_det_star(cs, backend=backend)

    if alpha == 0.0:
        z0 = zeta_point(cs, 0.0, backend=backend).value
        ser = series_sum(cs, length, "robin_pair", alpha=0.0, a=a, tol=tol)
        return RegularizedDet(
            _LN2 * z0 - 0.5 * star.log_modulus + ser.value, ser.phase, q0
        )

    heat = heat_coefficients(cs, order=cs.dim // 2)
    w0, w1 = w0_w1(heat, alpha)
    zeta0 = w0 - q0
    corr = w1 - s_alpha_pair(heat, alpha)

    plus = log_det_shifted(cs, alpha, backend=backend)
    minus = log_det_shifted(cs, -alpha, backend=backend)
    # ln Det* of the factorized operator; -q0 ln(-alpha^2) removes the
    # paired zero-mode factors and contributes q0 pi-units of phase
    fact_logmod = (
        plus.log_modulus
        + minus.log_modulus
        - q0 * math.log(alpha * alpha)
        - 0.5 * star.log_modulus
        + corr
    )
    fact_phase = plus.phase_multiple + minus.phase_multiple - q0

    ser = series_sum(cs, length, "robin_pair", alpha=alpha, a=a, tol=tol)
    return RegularizedDet(
        _LN2 * zeta0 - fact_logmod + ser.value,
        -fact_phase + ser.phase,
        q0,
    )
