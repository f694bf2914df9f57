"""Torus lattice zeta: divisor-grouped Bessel block and its K quadrature.

The golden values were produced by the ungrouped (k, n) double sum with
mpmath's ``besselk``; the grouped sum must reproduce them bit for bit.
"""

import hashlib
import math
import random
from collections import OrderedDict
from fractions import Fraction
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


# Tori drawn like the benchmark's torus-shapes stream: aspects 1 to 3, areas
# 3 and 5 with a Robin check at each sign of alpha, and a Neumann check at
# area 4.  (aspect, area, L, a, alpha) -> (lhs, rhs, residual), recorded
# before the Bessel kernel was rewritten in fixed point.
WIDE_GOLDEN = [
    (1.0, 3.0, 2.21, 1.26, 0.32, (2.3195377409225872, 2.319537740922587, 4.440892098500626e-16)),
    (1.0, 3.0, 2.83, 1.34, -0.49, (1.6527054050261263, 1.6527054050261267, 4.440892098500626e-16)),
    (1.0, 5.0, 1.9, 0.8, 0.53, (0.8554953911153147, 0.8554953911153147, 0.0)),
    (1.0, 5.0, 2.25, 1.07, -0.49, (1.1701364491050188, 1.1701364491050188, 0.0)),
    (1.0, 4.0, 2.94, 1.3, 0.0, (-0.5362921196437389, -0.5362921196437387, 2.220446049250313e-16)),
    (1.5, 3.0, 2.56, 1.29, 0.49, (1.6163869159983508, 1.6163869159983513, 4.440892098500626e-16)),
    (1.5, 3.0, 3.0, 1.24, -0.5, (1.7304616774374049, 1.7304616774374053, 4.440892098500626e-16)),
    (1.5, 5.0, 2.2, 1.24, 0.55, (0.989145720642597, 0.989145720642597, 0.0)),
    (1.5, 5.0, 1.72, 0.71, -0.36, (1.775083789911367, 1.775083789911367, 0.0)),
    (1.5, 4.0, 1.59, 0.72, 0.0, (0.21985494487959353, 0.21985494487959342, 1.1102230246251565e-16)),
    (2.0, 3.0, 2.12, 0.82, 0.5, (1.5387639641331126, 1.5387639641331123, 2.220446049250313e-16)),
    (2.0, 3.0, 2.64, 1.23, -0.34, (2.554013018527449, 2.5540130185274497, 4.440892098500626e-16)),
    (2.0, 5.0, 1.8, 0.86, 0.33, (2.093357643885199, 2.093357643885199, 0.0)),
    (2.0, 5.0, 1.82, 1.11, -0.29, (2.3915628632904844, 2.3915628632904844, 0.0)),
    (2.0, 4.0, 1.56, 0.65, 0.0, (0.4543261199147789, 0.4543261199147788, 1.1102230246251565e-16)),
    (2.5, 3.0, 1.53, 0.93, 0.54, (1.4432271681366706, 1.4432271681366706, 0.0)),
    (2.5, 3.0, 1.98, 1.26, -0.52, (1.5908551684622523, 1.5908551684622518, 4.440892098500626e-16)),
    (2.5, 5.0, 2.13, 0.82, 0.54, (1.3843188690757764, 1.3843188690757762, 2.220446049250313e-16)),
    (2.5, 5.0, 2.41, 1.01, -0.6, (1.3097330467160482, 1.3097330467160477, 4.440892098500626e-16)),
    (2.5, 4.0, 2.05, 0.84, 0.0, (0.25809455693324534, 0.25809455693324523, 1.1102230246251565e-16)),
    (3.0, 3.0, 2.24, 1.35, 0.26, (3.3369817873362075, 3.3369817873362075, 0.0)),
    (3.0, 3.0, 2.08, 0.94, -0.58, (1.62694304666863, 1.62694304666863, 0.0)),
    (3.0, 5.0, 3.0, 1.47, 0.27, (3.2663252876861817, 3.266325287686182, 4.440892098500626e-16)),
    (3.0, 5.0, 2.54, 1.55, -0.33, (2.740617397563156, 2.740617397563156, 0.0)),
    (3.0, 4.0, 1.81, 1.01, 0.0, (0.6124742286471215, 0.6124742286471215, 0.0)),
]


@pytest.mark.parametrize("aspect, area, L, a, alpha, expected", WIDE_GOLDEN,
                         ids=[f"{r[0]}x{r[1]}-{r[4]:+}" for r in WIDE_GOLDEN])
def test_torus_shapes_reports_bit_identical(aspect, area, L, a, alpha, expected):
    side = math.sqrt(area / aspect)
    check = glue_robin_check if alpha else glue_neumann_check
    rep = check(GluingConfig(FlatTorus(side, side * aspect), L, a, alpha))
    assert (rep.lhs, rep.rhs, rep.residual) == expected


# Every s the library evaluates and five generic ones; the half-integers
# below -1/2 take the even-exponent route of the divisor sums.
ALL_S = zreg._STANDARD_S + (0.3, 2.7, -1.3, -1.5, -2.5)


def seeded_tori(count=40, seed=20261018):
    """Tori of aspect 1 to 8 (log-uniform) and area 2 to 6."""
    rng = random.Random(seed)
    tori = []
    for _ in range(count):
        aspect = math.exp(rng.uniform(0.0, math.log(8.0)))
        side = math.sqrt(rng.uniform(2.0, 6.0) / aspect)
        tori.append(FlatTorus(side, side * aspect))
    return tori


def test_zeta_points_bit_identical():
    # 40 tori x 21 s, recorded before the Bessel pass moved to fixed point;
    # the joined float.hex strings are pinned by their SHA-256
    hexes = [zreg.zeta_point(cs, s).value.hex() for cs in seeded_tori() for s in ALL_S]
    assert (hexes[0], hexes[-1]) == ("-0x1.c83e23ae01a53p+1", "-0x1.8f75117547e14p+7")
    digest = hashlib.sha256(",".join(hexes).encode()).hexdigest()
    assert digest == "eabd72201d10b3cde69d96d8d25b503099d06062ac2a56f6e784a5306e6bdae8"


# aspect 8 (shell 1 at e^(-2 pi 8)) and a near-square torus; recorded
# before the Bessel pass moved to fixed point
# (ell1, ell2, L, a, alpha) -> (lhs, rhs, residual)
ASPECT_GOLDEN = [
    (1.0, 8.0, 2.0, 0.9, 0.45, (6.831419801941572, 6.831419801941572, 0.0)),
    (1.0, 8.0, 1.6, 0.7, -0.35, (9.091725417267737, 9.091725417267735, 1.7763568394002505e-15)),
    (1.0, 1.05, 2.0, 0.9, 0.45, (2.0534698266014706, 2.05346982660147, 4.440892098500626e-16)),
    (1.0, 1.05, 1.6, 0.7, -0.35, (2.3525070415791087, 2.3525070415791087, 0.0)),
]


@pytest.mark.parametrize("ell1, ell2, L, a, alpha, expected", ASPECT_GOLDEN,
                         ids=[f"{r[0]}x{r[1]}-{r[4]:+}" for r in ASPECT_GOLDEN])
def test_aspect_robin_reports_bit_identical(ell1, ell2, L, a, alpha, expected):
    rep = glue_robin_check(GluingConfig(FlatTorus(ell1, ell2), L, a, alpha))
    assert (rep.lhs, rep.rhs, rep.residual) == expected


# thin tori, where q = e^(nu/m - z1) of the shell shifts underflows to 0
THIN = [(1.0, 120.0), (1.0, 300.0), (1e-3, 1e3)]


def _bessel_free(c1: float, c2: float, s: float) -> float:
    """2 c1^(-2s) zeta(2s) + (2 sqrt(pi)/c1) Gamma(s - 1/2) zeta(2s - 1)/Gamma(s) c2^(1-2s),
    the torus zeta less its Bessel block, at 60 digits and rounded once."""
    with mp.workdps(60):
        s, c1, c2 = mp.mpf(s), mp.mpf(c1), mp.mpf(c2)
        u = s - mp.mpf(0.5)
        # Gamma(u) zeta(2u) is -2 zeta'(-2) at its removable point u = -1
        gz = -2 * mp.zeta(-2, derivative=1) if u == -1 else mp.gamma(u) * mp.zeta(2 * u)
        first = 2 * c1 ** (-2 * s) * mp.zeta(2 * s)
        return float(first + 2 * mp.sqrt(mp.pi) / c1 * gz / mp.gamma(s) * c2 ** (1 - 2 * s))


@pytest.mark.parametrize("ell1, ell2", THIN, ids=[f"{a:g}x{b:g}" for a, b in THIN])
def test_thin_torus_is_its_bessel_free_form(ell1, ell2):
    # the Bessel block is below e^-750 of the total, so every standard value
    # but the pole pair at 1/2 and the pole at 1 is the form rounded once
    cs = FlatTorus(ell1, ell2)
    c1, c2 = 2.0 * math.pi / max(ell1, ell2), 2.0 * math.pi / min(ell1, ell2)
    for s in zreg._STANDARD_S:
        if s not in (0.5, 1.0):
            assert zreg.zeta_point(cs, s).value == _bessel_free(c1, c2, s), s


class DoubleSumTorus:
    """Z(s) of a flat torus in mp floats at the working precision, from the
    library's doubles c1 <= c2 and r = c2/c1: the terms of the Chowla-Selberg
    form, with the Bessel block B(s) as the ungrouped (k, n) double sum
    with mp.besselk, summed until a term falls below 10^-digits of the
    total.  Shares no code with the library."""

    digits = 32
    besselk = staticmethod(mp.besselk)

    def __init__(self, cs):
        la, lb = max(cs.ell1, cs.ell2), min(cs.ell1, cs.ell2)
        self.c1, self.c2 = TWO_PI / la, TWO_PI / lb
        self.ratio = self.c2 / self.c1

    def bessel_sum(self, s):
        r, x, tol = mp.mpf(self.ratio), mp.mpf(s) - mp.mpf(0.5), mp.mpf(10) ** -self.digits
        besselk = lru_cache(maxsize=None)(lambda m: self.besselk(x, 2 * mp.pi * r * m))
        total, k = mp.mpf(0), 1
        while True:
            inner, n = mp.mpf(0), 1
            while True:
                term = mp.power(r * k, -x) * mp.power(n, x) * besselk(n * k)
                inner += term
                if abs(term) < tol * abs(total + inner):
                    break
                n += 1
            total += inner
            if abs(inner) < tol * abs(total):
                return total
            k += 1

    def terms(self, s):
        """(terms, residue): the finite part is the sum of the terms, each one
        constant times powers and at most one logarithm or B(s), B last."""
        c1, c2, ss = mp.mpf(self.c1), mp.mpf(self.c2), mp.mpf(s)
        if s == 1.0:
            # pole of zeta_R(2s - 1); residue pi/(c1 c2) = area/(4 pi)
            d1 = 2 * mp.pi / (c1 * c2)
            psi = mp.digamma(mp.mpf(0.5)) - mp.digamma(1)
            return [2 * c1**-2 * mp.zeta(2), d1 * (mp.euler + psi / 2), -d1 * mp.log(c2),
                    8 * mp.pi * c1**-2 * self.bessel_sum(s)], mp.pi / (c1 * c2)
        if s == 0.5:
            # the prefactor pole of Gamma(s - 1/2) cancels the zeta_R(2s) pole
            offset = mp.euler / 2 - mp.log(2 * mp.pi) + mp.digamma(mp.mpf(0.5)) / 2
            return [2 / c1 * mp.euler, -2 / c1 * mp.log(c1), 2 / c1 * offset, 2 / c1 * mp.log(c2),
                    8 / c1 * self.bessel_sum(s)], mp.mpf(0)
        n = 0.5 - s
        if n == round(n) and n >= 1:
            # Gamma(s - 1/2) zeta_R(2s - 1) at a pole of Gamma and a trivial zero
            n = int(round(n))
            gz = 2 * (-1) ** n * mp.zeta(-2 * mp.mpf(n), derivative=1) / mp.factorial(n)
        else:
            gz = mp.gamma(ss - mp.mpf(0.5)) * mp.zeta(2 * ss - 1)
        return [2 * c1 ** (-2 * ss) * mp.zeta(2 * ss),
                2 * mp.sqrt(mp.pi) / c1 * mp.rgamma(ss) * c2 ** (1 - 2 * ss) * gz,
                8 * mp.pi**ss * mp.rgamma(ss) * c1 ** (-2 * ss) * self.bessel_sum(s)], mp.mpf(0)


def table_value(n, scale):
    """The value n 2^-scale of a fixed-point table entry, exactly."""
    return mp.ldexp(mp.mpf(n), -scale)


@lru_cache(maxsize=None)
def trapezoid_besselk(nu, z):
    """K_nu(z) at the working precision from a trapezoid sum in mp floats.

    The step 1/32 and a = 1 in the bound of ``zreg._BesselK`` give an
    error below 1e-44 relative for nu <= 7 and z <= 200; the sum stops once
    z sinh t >= nu + 32 and a summand is below mp.eps of the sum.
    """
    nu, h = abs(nu), mp.mpf(1) / 32
    total, j = mp.mpf(0.5), 1  # with e^-z taken out
    while True:
        t = j * h
        term = mp.exp(-z * (mp.cosh(t) - 1)) * mp.cosh(nu * t)
        total += term
        if z * mp.sinh(t) >= nu + 32 and term < mp.eps * total:
            return h * mp.exp(-z) * total
        j += 1


class TrapezoidDoubleSum(DoubleSumTorus):
    """The double sum to 45 digits with K_nu from ``trapezoid_besselk``.

    mp.besselk takes 0.1 to 0.3 s per integer order at 60 digits for z
    between about 12 and 95, which puts a 60-digit double sum at 10 to 20 s
    per torus.
    This K shares no code with the library's kernel: mp floats, no
    recurrence, no weight powers and no fixed point.
    """

    digits = 45
    besselk = staticmethod(trapezoid_besselk)


@pytest.mark.parametrize("ells", [(2.0, 2.0), (1.3, 1.3 * 2.37)], ids=["square", "aspect2.37"])
def test_grouped_block_matches_double_sum(ells):
    cs = FlatTorus(*ells)
    grouped, reference = zreg._TorusBackend(cs), DoubleSumTorus(cs)
    with mp.workdps(zreg._DPS):
        for s in zreg._STANDARD_S + (0.3, 2.7, -1.3):
            value, residue, scale, _ = grouped.fixed(s)
            terms, ref_residue = reference.terms(s)
            for got, ref in ((value, mp.fsum(terms)), (residue, ref_residue)):
                assert abs(table_value(got, scale) - ref) <= 1e-25 * abs(ref), s


@pytest.mark.parametrize("aspect", [1.0, 1.5, 3.0, 8.0])
def test_point_within_stated_bound_of_double_sum(aspect, monkeypatch):
    # at aspect 8 the first shell is e^(-2 pi 8) small: the pass keeps its
    # relative precision only with that factor taken out
    blocks = {}
    real_pass = zreg._TorusBackend._bessel_pass

    def bessel_pass(self, svals):
        out = real_pass(self, svals)
        blocks.update(zip(svals, out))
        return out

    monkeypatch.setattr(zreg._TorusBackend, "_bessel_pass", bessel_pass)
    cs = FlatTorus(1.1, 1.1 * aspect)
    got = zreg._TorusBackend(cs)
    table = {s: got.fixed(s) for s in ALL_S}
    reference = TrapezoidDoubleSum(cs)
    p = zreg._PREC
    with mp.workdps(60):
        r = mp.mpf(reference.ratio)
        for s in ALL_S:
            terms, residue = reference.terms(s)
            # the pass's r^(s - 1/2) B(s) within 2^-(p + 6) relative
            block = r ** (mp.mpf(s) - mp.mpf(0.5)) * reference.bessel_sum(s)
            assert abs(table_value(*blocks[s]) - block) <= mp.ldexp(block, -(p + 6)), s
            # the finite part within that share of the Bessel term plus
            # 2^-(p + 13) of the terms, and within the stated bound; the
            # residue within the stated bound
            value, res, scale, err = table[s]
            error = abs(table_value(value, scale) - mp.fsum(terms))
            assert error <= mp.ldexp(abs(terms[-1]), -(p + 6)) + mp.ldexp(mp.fsum(map(abs, terms)), -(p + 13)), s
            assert error <= table_value(err, scale), s
            assert abs(table_value(res, scale) - residue) <= table_value(err, scale), s


def test_trapezoid_reference_matches_besselk():
    # where mp.besselk is fast: half-integer orders, and z past its slow range
    with mp.workdps(60):
        for nu, z in [(0.5, TWO_PI), (3.5, TWO_PI), (0, 40 * TWO_PI / 2), (1, 20 * TWO_PI),
                      (2.2, 20 * TWO_PI), (7, 20 * TWO_PI), (0.2, 32 * TWO_PI)]:
            nu, z = mp.mpf(nu), mp.mpf(z)
            ref = mp.besselk(nu, z)
            assert abs(trapezoid_besselk(nu, z) - ref) <= 1e-44 * ref, (nu, z)


@pytest.mark.parametrize("z", [TWO_PI, 3 * TWO_PI, 20 * TWO_PI], ids=["2pi", "6pi", "40pi"])
def test_quadrature_matches_besselk(z):
    with mp.workdps(zreg._DPS):
        orders = [mp.mpf(0), mp.mpf("0.3")] + [mp.mpf(k) / 2 for k in range(1, 16)]
        zz = mp.mpf(z)
        for nu, got in zip(orders, zreg._BesselK(orders)(zz)):
            ref = mp.besselk(nu, zz)
            assert abs(got - ref) <= 1e-28 * ref, nu


def spy_shells(monkeypatch):
    """Record (plan, table, z, values) of every ``_BesselK.shell`` call."""
    calls = []
    real_shell = zreg._BesselK.shell

    def shell(self, table, weights, zfix):
        k = real_shell(self, table, weights, zfix)
        with mp.workprec(zfix.bit_length()):  # z exactly
            calls.append((self, table, mp.ldexp(zfix, -table.bits), k))
        return k

    monkeypatch.setattr(zreg._BesselK, "shell", shell)
    return calls


def test_standard_set_is_one_pass_without_besselk(monkeypatch):
    calls = {"besselk": 0}

    def no_besselk(*args, **kwargs):
        calls["besselk"] += 1
        return real_besselk(*args, **kwargs)

    real_besselk = mp.besselk
    monkeypatch.setattr(mp, "besselk", no_besselk)
    recorded = spy_shells(monkeypatch)
    backend = zreg._TorusBackend(FlatTorus(2.0, 2.0 * 1.7))
    for s in zreg._STANDARD_S:
        backend.fixed(s)
    shells = [z for _, _, z, _ in recorded]
    assert calls["besselk"] == 0
    assert shells and len(shells) == len(set(shells))
    step = 2 * mp.pi * mp.mpf(backend.ratio)
    assert [mp.nint(z / step) for z in shells] == list(range(1, len(shells) + 1))


def _assert_matches_besselk(orders, z):
    with mp.workdps(zreg._DPS):
        values = zreg._BesselK(orders)(z)
    with mp.workdps(60):
        for nu, got in zip(orders, values):
            ref = mp.besselk(nu, z)
            assert abs(got - ref) <= 1e-28 * ref, (nu, z)


@pytest.mark.parametrize("z", [1.0, TWO_PI, 6 * TWO_PI, 20 * TWO_PI])
def test_generic_class_recurrence_matches_besselk(z):
    # one residue class mod 1: 0.3 and 1.3 are integrated, the rest recur
    with mp.workdps(zreg._DPS):
        orders = [mp.mpf(0.3) + k for k in range(8)]
        nu0 = Fraction(0.3)  # the double 0.3, exactly
        assert zreg._BesselK(orders).integrated == (nu0, nu0 + 1)
    _assert_matches_besselk(orders, mp.mpf(z))


def square_torus_shells(monkeypatch):
    """(plan, budgets, [(m, z_m, {nu: K_nu(z_m)})]) of the square torus's
    standard pass, the values as the pass itself forms them."""
    recorded = spy_shells(monkeypatch)
    zreg._TorusBackend(FlatTorus(2.0, 2.0)).fixed(0.5)
    plan = recorded[0][0]
    shells = len(zreg._settle_shifts(plan.p, float(plan.orders[-1]), TWO_PI))
    budgets = [mp.exp(b) for b in zreg._shell_budgets(plan, TWO_PI, shells)]
    values = []
    with mp.workdps(60):
        for m, (_, table, z, k) in enumerate(recorded, 1):
            assert mp.nint(z / TWO_PI) == m
            scale = mp.mpf(table.h) * mp.exp(-z) / 2**table.bits
            values.append((m, z, {nu: scale * k[plan.out[i]] for i, nu in enumerate(plan.orders)}))
    return plan, budgets, values


def assert_within_budget(plan, budgets, m, got, ref):
    """Shell m's K values within 1.6 e_m + eps/4 relative (``_BesselK``),
    e_m its budget; ``test_later_shells_share_half_of_eps`` checks that
    the budgets hold the shells to their share of the pass total."""
    eps = mp.ldexp(1, -(plan.p + 8))
    assert abs(got - ref) <= (mp.mpf(1.6) * budgets[m - 1] + eps / 4) * ref, m


def test_standard_orders_at_last_shell_of_square_torus(monkeypatch):
    # every order at the last shell, from the m-th powers of the first
    # shell's weights on shell 1's step, against 60-digit mp.besselk
    plan, budgets, values = square_torus_shells(monkeypatch)
    m, z, last = values[-1]
    assert z > 11 * TWO_PI
    with mp.workdps(60):
        for nu, got in last.items():
            assert_within_budget(plan, budgets, m, got, mp.besselk(mp.mpf(nu.numerator) / nu.denominator, z))


def test_half_integer_orders_at_every_shell_of_square_torus(monkeypatch):
    # mp.besselk is elementary at half-integer orders, so every shell is
    # checked there; the other orders share their step and node count
    plan, budgets, values = square_torus_shells(monkeypatch)
    with mp.workdps(60):
        for m, z, shell in values:
            for nu, got in shell.items():
                if nu.denominator == 2:
                    assert_within_budget(plan, budgets, m, got, mp.besselk(mp.mpf(nu.numerator) / nu.denominator, z))


@pytest.mark.parametrize("aspect", [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 5.0, 8.0])
def test_later_shells_share_half_of_eps(aspect):
    # sum_m e_m r_m <= eps/2 over the later shells, r_m = max over the
    # orders of m^-nu sigma_2nu(m), times e^(-(m - 1) z1), and every e_m <= 1/8
    plan, _ = zreg._pass_plan(zreg._STANDARD_S)
    z1 = TWO_PI * aspect
    shells = len(zreg._settle_shifts(plan.p, float(plan.orders[-1]), z1))
    budgets = zreg._shell_budgets(plan, z1, shells)
    assert len(budgets) == shells and budgets[0] == plan.log_eps
    with mp.workdps(40):
        orders = [mp.mpf(nu.numerator) / nu.denominator for nu in plan.orders]
        spent = mp.mpf(0)
        for m, b in enumerate(budgets[1:], 2):
            divisors = [mp.mpf(d) for d in range(1, m + 1) if m % d == 0]
            top = max(mp.fsum(d ** (2 * x) for d in divisors) / mp.mpf(m) ** x for x in orders)
            assert b <= -math.log(8.0)
            spent += mp.exp(b) * top * mp.exp(-(m - 1) * mp.mpf(z1))
        assert spent <= mp.exp(plan.log_eps) / 2 * (1 + mp.mpf(10) ** -12)


def exp_fixed_calls(monkeypatch, aspect):
    """The exp_fixed calls of the standard pass of a torus of this aspect:
    shell 1's weights, one per node after the first, and one for e^-z1."""
    calls = []
    real_exp_fixed = zreg.exp_fixed

    def exp_fixed(*args):
        calls.append(args)
        return real_exp_fixed(*args)

    monkeypatch.setattr(zreg, "exp_fixed", exp_fixed)
    zreg._TorusBackend(FlatTorus(2.0, 2.0 * aspect)).fixed(0.5)
    return len(calls)


def test_square_torus_pass_sums_shell_one_grid(monkeypatch):
    # 39 nodes on shell 1's own step (77 when the step came from the last shell)
    assert 0 < exp_fixed_calls(monkeypatch, 1.0) <= 39


@pytest.mark.parametrize("aspect, most", [(2.5, 30), (3.0, 28)])
def test_wide_torus_pass_sums_shell_one_grid(monkeypatch, aspect, most):
    # shell 1's own step, where a middle shell's even share of the budget
    # asked for a finer one (42 and 39 calls)
    assert 0 < exp_fixed_calls(monkeypatch, aspect) <= most


class _NoMpmath:
    def __getattr__(self, name):
        raise AssertionError(f"mp.{name} on a cold standard table")


def test_cold_standard_table_does_no_mpf_arithmetic(monkeypatch):
    # the torus-independent plan, tables and constants exist after one
    # torus; a second of the same aspect then evaluates ln c1 and ln c2 and
    # nothing else in mpmath but libmp's fixed-point helpers, and reads no
    # global precision, up to the truncated-zeta row
    zreg._TorusBackend(FlatTorus(2.0, 3.4)).fixed(0.5)
    logs = []
    real_log = zreg.mpf_log

    def mpf_log(x, prec):
        logs.append(x)
        return real_log(x, prec)

    monkeypatch.setattr(zreg, "mpf_log", mpf_log)
    monkeypatch.setattr(zreg, "mp", _NoMpmath())
    cs = FlatTorus(1.0, 1.7)
    backend = zreg._TorusBackend(cs)
    points = [backend.point(s) for s in zreg._STANDARD_S]
    _, _, zetas, _ = zreg._truncated_row(cs, 1.0, backend)
    assert logs == [zreg.from_float(backend.c1), zreg.from_float(backend.c2)]
    monkeypatch.undo()
    # the same floats at any global precision
    with mp.workdps(15):
        again = zreg._TorusBackend(cs)
        assert [again.point(s) for s in zreg._STANDARD_S] == points
        assert zreg._truncated_row(cs, 1.0, again)[2] == zetas


def test_cold_robin_check_is_one_pass_and_one_row(monkeypatch):
    passes, rows = [], []
    real_pass, real_row = zreg._TorusBackend._bessel_pass, zreg._truncated_row

    def bessel_pass(self, svals):
        passes.append(tuple(svals))
        return real_pass(self, svals)

    def truncated_row(cs, mu0, backend):
        rows.append(mu0)
        return real_row(cs, mu0, backend)

    monkeypatch.setattr(zreg._TorusBackend, "_bessel_pass", bessel_pass)
    monkeypatch.setattr(zreg, "_truncated_row", truncated_row)
    monkeypatch.setattr(zreg, "_backend_cache", OrderedDict())  # every backend cold
    cs = FlatTorus(2.0, 3.4)
    rep = glue_robin_check(GluingConfig(cs, 2.2, 1.1, -0.4))
    assert rep.residual < 1e-12
    # alpha and -alpha (the interface determinant) share the row at mu0 = 1
    assert sorted(zreg._get_backend(cs).shifted) == [-0.4, 0.4]
    assert passes == [zreg._STANDARD_S] and rows == [1.0]


def test_tables_are_shared_and_two_orders_per_class_are_summed(monkeypatch):
    built = []
    real_init = zreg._CoshTable.__init__

    def init(self, orders, h, bits):
        built.append((orders, h, bits))
        real_init(self, orders, h, bits)

    monkeypatch.setattr(zreg._CoshTable, "__init__", init)
    recorded = spy_shells(monkeypatch)
    zreg._cosh_table.cache_clear()
    zreg._TorusBackend(FlatTorus(2.0, 3.4)).fixed(0.5)
    first = len(built)
    # the same aspect ratio at another size has the same shells and steps
    zreg._TorusBackend(FlatTorus(1.0, 1.7)).fixed(0.5)
    assert first > 0 and len(built) == first
    half = Fraction(1, 2)
    summed = {table.orders for _, table, _, _ in recorded}
    assert summed == {(Fraction(0), Fraction(1), half, 1 + half)}
