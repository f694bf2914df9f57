"""A cross-section defined outside the library runs the gluing check.

``UnitCircle`` describes the circle of circumference 2 pi from scratch,
through the methods that ``CrossSection`` documents: eigenvalues k^2 with
multiplicity 2 (1 for k = 0), heat trace theta_3 and its own tail bounds.
No library module knows the class, so the check runs on the numeric
backend, and it must agree with the closed form of ``Circle(2 pi)``.
"""

import math

from zetaglue import zreg
from zetaglue.gluing import GluingConfig, glue_robin_check
from zetaglue.spectra import Circle, CrossSection, HeatExpansion, SpectrumEntry, heat_trace


def _first_mode_above(lam):
    """The least k >= 1 with k^2 > lam (k^2 is an integer)."""
    return math.isqrt(int(max(lam, 0.0))) + 1


def _theta(x):
    """1 + 2 sum_{k>=1} exp(-x k^2) for x >= 1, to double precision."""
    return 1.0 + 2.0 * math.fsum(math.exp(-x * k * k) for k in range(1, 8))


class UnitCircle(CrossSection):
    dim = 1
    # a0 = ell / sqrt(4 pi) with ell = 2 pi; every higher coefficient is 0
    heat = HeatExpansion(1, (math.sqrt(math.pi),), exact=True)

    def enumerate_spectrum(self, cutoff):
        kmax = math.isqrt(int(cutoff))
        return [SpectrumEntry(float(k * k), 2 if k else 1) for k in range(kmax + 1)]

    def kernel_dim(self):
        return 1

    def heat_trace(self, t):
        # Jacobi's imaginary transformation for small t
        return _theta(t) if t >= 1.0 else math.sqrt(math.pi / t) * _theta(math.pi**2 / t)

    def exp_tail_bound(self, lam, rate):
        # sum_{k >= k0} 2 exp(-rate k) is geometric
        k0 = _first_mode_above(lam)
        return 2.0 * math.exp(-rate * k0) / -math.expm1(-rate)

    def heat_tail_bound(self, lam, t):
        # k^2 >= k0^2 + 2 k0 (k - k0): a geometric majorant
        k0 = _first_mode_above(lam)
        return 2.0 * math.exp(-t * k0 * k0) / -math.expm1(-2.0 * t * k0)

    def power_tail_bound(self, lam, p):
        # sum_{k >= k0} k^-2p <= k0^-2p + int_k0^inf x^-2p dx
        k0 = _first_mode_above(lam)
        return 2.0 * (k0 ** (-2.0 * p) + k0 ** (1.0 - 2.0 * p) / (2.0 * p - 1.0))


def test_heat_trace_matches_the_circle():
    y = UnitCircle()
    for t in (0.05, 0.7, 1.0, 3.0):
        assert math.isclose(heat_trace(y, t), heat_trace(Circle(2.0 * math.pi), t), rel_tol=1e-13)


def test_new_cross_section_glues_on_the_numeric_backend():
    y = UnitCircle()
    rep = glue_robin_check(GluingConfig(y, 2.0, 0.9, 0.37))
    assert isinstance(zreg._get_backend(y), zreg._NumericBackend)
    assert all(key[1] == "numeric" for key in zreg._backend_cache if key[0] is y)
    closed = glue_robin_check(GluingConfig(Circle(2.0 * math.pi), 2.0, 0.9, 0.37))
    assert rep.residual < 1e-8
    assert abs(rep.lhs - closed.lhs) < 1e-8
    assert rep.phase_match
