"""Torus lattice zeta: divisor-grouped Bessel block and its K quadrature.

The golden values were produced by the ungrouped (k, n) double sum with
mpmath's ``besselk``; the grouped sum must reproduce them bit for bit.
"""

import math
from functools import lru_cache

import mpmath as mp
import pytest

from zetaglue import zreg
from zetaglue.gluing import GluingConfig, glue_neumann_check, glue_robin_check
from zetaglue.spectra import FlatTorus

TWO_PI = 2.0 * math.pi

# (check, torus, L, a, alpha) -> (lhs, rhs, residual)
GOLDEN = [
    (glue_robin_check, FlatTorus(2.0, 2.0), 2.2, 1.1, -0.4,
     (1.6968991884110962, 1.696899188411096, 2.220446049250313e-16)),
    (glue_robin_check, FlatTorus(1.632993161855452, 2.449489742783178), 2.2, 1.1, -0.4,
     (1.7656165116708042, 1.7656165116708042, 0.0)),
    (glue_robin_check, FlatTorus(1.0488088481701514, 3.1464265445104544), 1.7, 0.68, 0.55,
     (1.5558197072524593, 1.555819707252459, 2.220446049250313e-16)),
    (glue_robin_check, FlatTorus(TWO_PI, 3.0), 2.5, 1.25, 0.7,
     (2.358089232225026, 2.358089232225026, 0.0)),
    (glue_neumann_check, FlatTorus(TWO_PI, 3.0), 2.5, 1.25, 0.0,
     (-0.5534113625992434, -0.5534113625992431, 3.3306690738754696e-16)),
]


@pytest.mark.parametrize("check, cs, L, a, alpha, expected", GOLDEN,
                         ids=["square", "aspect1.5", "aspect3", "2pi-x-3", "2pi-x-3-neumann"])
def test_gluing_reports_bit_identical(check, cs, L, a, alpha, expected):
    rep = check(GluingConfig(cs, L, a, alpha))
    assert (rep.lhs, rep.rhs, rep.residual) == expected


class _DoubleSumTorus(zreg._TorusBackend):
    """The Bessel block as the ungrouped (k, n) double sum with mp.besselk."""

    def _bessel_sum(self, s):
        r, x, tol = mp.mpf(self.ratio), mp.mpf(s) - mp.mpf(0.5), mp.mpf(10) ** -32
        besselk = lru_cache(maxsize=None)(lambda m: mp.besselk(x, 2 * mp.pi * r * m))
        total, k = mp.mpf(0), 1
        while True:
            inner, n = mp.mpf(0), 1
            while True:
                term = mp.power(r * k, -x) * mp.power(n, x) * besselk(n * k)
                inner += term
                if abs(term) < tol * (1 + abs(total)):
                    break
                n += 1
            total += inner
            if abs(inner) < tol * (1 + abs(total)):
                return total
            k += 1


@pytest.mark.parametrize("ells", [(2.0, 2.0), (1.3, 1.3 * 2.37)], ids=["square", "aspect2.37"])
def test_grouped_block_matches_double_sum(ells):
    cs = FlatTorus(*ells)
    grouped, reference = zreg._TorusBackend(cs), _DoubleSumTorus(cs)
    with mp.workdps(zreg._DPS):
        for s in zreg._STANDARD_S + (0.3, 2.7, -1.3):
            for got, ref in zip(grouped.point_mp(s), reference.point_mp(s)):
                assert abs(got - ref) <= 1e-25 * abs(ref), s


@pytest.mark.parametrize("z", [TWO_PI, 3 * TWO_PI, 20 * TWO_PI], ids=["2pi", "6pi", "40pi"])
def test_quadrature_matches_besselk(z):
    with mp.workdps(zreg._DPS):
        orders = [mp.mpf(0), mp.mpf("0.3")] + [mp.mpf(k) / 2 for k in range(1, 16)]
        zz = mp.mpf(z)
        for nu, got in zip(orders, zreg._BesselK(orders)(zz)):
            ref = mp.besselk(nu, zz)
            assert abs(got - ref) <= 1e-28 * ref, nu


def test_standard_set_is_one_pass_without_besselk(monkeypatch):
    calls = {"besselk": 0}
    shells = []

    def no_besselk(*args, **kwargs):
        calls["besselk"] += 1
        return real_besselk(*args, **kwargs)

    def counted(self, z):
        shells.append(z)
        return real_call(self, z)

    real_besselk, real_call = mp.besselk, zreg._BesselK.__call__
    monkeypatch.setattr(mp, "besselk", no_besselk)
    monkeypatch.setattr(zreg._BesselK, "__call__", counted)
    backend = zreg._TorusBackend(FlatTorus(2.0, 2.0 * 1.7))
    with mp.workdps(zreg._DPS):
        for s in zreg._STANDARD_S:
            backend.point_mp(s)
    assert calls["besselk"] == 0
    assert shells and len(shells) == len(set(shells))
    step = 2 * mp.pi * mp.mpf(backend.ratio)
    assert [mp.nint(z / step) for z in shells] == list(range(1, len(shells) + 1))
