"""Special-function primitives: Riemann/Hurwitz zeta, log-gamma, harmonic sums.

Thin wrappers around mpmath evaluated at elevated working precision and
returned as floats, so every downstream routine sees correctly rounded
double-precision values.  Harmonic numbers are accumulated in exact
rational arithmetic because they enter determinant constants as exact
coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

from .errors import SingularParameterError, ValidationError

_DPS = 30


def riemann_zeta(s: float, with_derivative: bool = False):
    """Riemann zeta at real s != 1; optionally also d/ds zeta(s).

    Returns a float, or a (value, derivative) pair when ``with_derivative``
    is set.
    """
    if s == 1.0:
        raise SingularParameterError("riemann zeta has a pole at s = 1")
    with mp.workdps(_DPS):
        val = float(mp.zeta(mp.mpf(s)))
        if not with_derivative:
            return val
        dval = float(mp.zeta(mp.mpf(s), derivative=1))
    return val, dval


def hurwitz_zeta(s: float, a: float, with_derivative_at_0: bool = False):
    """Hurwitz zeta(s, a) for a > 0, s != 1.

    With ``with_derivative_at_0`` set, returns the pair
    ``(zeta_H(s, a), d/ds zeta_H(s, a)|_{s=0})``.
    """
    if a <= 0:
        raise ValidationError(f"hurwitz zeta requires a > 0, got a = {a}")
    if s == 1.0:
        raise SingularParameterError("hurwitz zeta has a pole at s = 1")
    with mp.workdps(_DPS):
        val = float(mp.zeta(mp.mpf(s), mp.mpf(a)))
    if not with_derivative_at_0:
        return val
    return val, hurwitz_zeta_sderiv(0.0, a)


def hurwitz_zeta_sderiv(s: float, a: float) -> float:
    """d/ds zeta_H(s, a) at real s != 1, a > 0.

    At s = 0 Lerch's formula zeta_H'(0, a) = ln Gamma(a) - (1/2) ln 2 pi
    (DLMF 25.11.18) replaces the Hurwitz series; both sides are evaluated
    at the same working precision and rounded once.
    """
    if a <= 0:
        raise ValidationError(f"hurwitz zeta requires a > 0, got a = {a}")
    if s == 1.0:
        raise SingularParameterError("hurwitz zeta has a pole at s = 1")
    with mp.workdps(_DPS):
        if s == 0.0:
            return float(mp.loggamma(mp.mpf(a)) - mp.log(2 * mp.pi) / 2)
        return float(mp.zeta(mp.mpf(s), mp.mpf(a), 1))


def log_gamma(a: float) -> float:
    """ln Gamma(a) for a > 0."""
    if a <= 0:
        raise ValidationError(f"log_gamma requires a > 0, got a = {a}")
    return math.lgamma(a)


@lru_cache(maxsize=None)
def _harmonic_fraction(n: int) -> Fraction:
    if n <= 0:
        return Fraction(0)
    return _harmonic_fraction(n - 1) + Fraction(1, n)


def harmonic(n: int) -> float:
    """H_n = sum_{p=1}^{n} 1/p, exact rational accumulation; H_0 = 0."""
    if n < 0:
        raise ValidationError(f"harmonic number index must be >= 0, got {n}")
    return float(_harmonic_fraction(n))


@lru_cache(maxsize=None)
def _odd_harmonic_fraction(n: int) -> Fraction:
    if n <= 0:
        return Fraction(0)
    return _odd_harmonic_fraction(n - 1) + Fraction(1, 2 * n - 1)


def odd_harmonic(n: int) -> float:
    """sum_{p=1}^{n} 1/(2p-1), exact rational accumulation; empty sum = 0."""
    if n < 0:
        raise ValidationError(f"odd harmonic index must be >= 0, got {n}")
    return float(_odd_harmonic_fraction(n))


EULER_GAMMA = 0.5772156649015329  # float(mpmath.euler) at 53 bits, fixed whatever the caller's precision
