"""Special-function primitives against independent identities."""

import math
import os
import random
import subprocess
import sys

import mpmath as mp
import pytest

from zetaglue.errors import SingularParameterError, ValidationError
from zetaglue.special import (
    EULER_GAMMA,
    harmonic,
    hurwitz_zeta,
    hurwitz_zeta_sderiv,
    log_gamma,
    odd_harmonic,
    riemann_zeta,
)


class TestRiemannZeta:
    def test_classical_values(self):
        assert riemann_zeta(0.0) == pytest.approx(-0.5, abs=1e-14)
        assert riemann_zeta(-1.0) == pytest.approx(-1.0 / 12.0, abs=1e-14)
        assert riemann_zeta(2.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-14)

    def test_derivative_at_zero(self):
        val, dval = riemann_zeta(0.0, with_derivative=True)
        assert dval == pytest.approx(-0.5 * math.log(2.0 * math.pi), abs=1e-14)

    def test_pole(self):
        with pytest.raises(SingularParameterError):
            riemann_zeta(1.0)


class TestHurwitzZeta:
    def test_reduces_to_riemann(self):
        assert hurwitz_zeta(2.0, 1.0) == pytest.approx(riemann_zeta(2.0), abs=1e-13)

    def test_value_at_zero(self):
        assert hurwitz_zeta(0.0, 2.5) == pytest.approx(-2.0, abs=1e-13)

    @pytest.mark.parametrize("a", [0.3, 1.0, 2.5])
    def test_lerch_identity_via_independent_loggamma(self, a):
        # d/ds zeta_H(0, a) = ln Gamma(a) - (1/2) ln 2 pi, with the gamma
        # side evaluated through the C library, not mpmath
        _, dval = hurwitz_zeta(0.0, a, with_derivative_at_0=True)
        expect = math.lgamma(a) - 0.5 * math.log(2.0 * math.pi)
        assert abs(dval - expect) < 1e-12

    def test_sderiv_at_zero_equals_hurwitz_series(self):
        # Lerch's formula must round to the same doubles as mpmath's
        # derivative of the Hurwitz series at the library's 30 digits
        rng = random.Random(7)
        grid = [rng.uniform(0.05, 5.0) for _ in range(300)]
        grid += [1e-3, 0.05, 0.3, 1.0, 1.5, 2.0, 2.5, 7.3, 40.0, 1e3]
        with mp.workdps(30):
            expect = [float(mp.zeta(0, mp.mpf(a), 1)) for a in grid]
        assert [hurwitz_zeta_sderiv(0.0, a) for a in grid] == expect
        assert [hurwitz_zeta(0.0, a, with_derivative_at_0=True)[1] for a in grid] == expect

    @pytest.mark.parametrize("s, a", [(-0.5, 0.7), (0.5, 2.5), (2.0, 1.0)])
    def test_sderiv_away_from_zero(self, s, a):
        with mp.workdps(30):
            expect = float(mp.zeta(mp.mpf(s), mp.mpf(a), 1))
        assert hurwitz_zeta_sderiv(s, a) == expect

    def test_sderiv_at_one(self):
        assert hurwitz_zeta_sderiv(0.0, 1.0) == pytest.approx(
            -0.5 * math.log(2.0 * math.pi), abs=1e-14
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            hurwitz_zeta(2.0, -1.0)
        with pytest.raises(SingularParameterError):
            hurwitz_zeta(1.0, 2.0)


class TestLogGamma:
    def test_values(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-14)
        assert log_gamma(4.0) == pytest.approx(math.log(6.0), abs=1e-14)

    def test_domain(self):
        with pytest.raises(ValidationError):
            log_gamma(0.0)


class TestHarmonic:
    def test_exact_values(self):
        assert harmonic(0) == 0.0
        assert harmonic(1) == 1.0
        assert harmonic(3) == pytest.approx(11.0 / 6.0, abs=0)
        assert odd_harmonic(0) == 0.0
        assert odd_harmonic(2) == pytest.approx(1.0 + 1.0 / 3.0, abs=0)


class TestEulerGamma:
    def test_is_the_double_of_mpmath_euler(self):
        with mp.workprec(53):
            assert EULER_GAMMA == float(mp.euler)

    def test_ignores_the_callers_precision_at_import(self):
        # it was float(mp.euler) at import, so a caller that had lowered
        # mpmath's global precision read 0.5772151947 (prec = 20)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import mpmath; mpmath.mp.prec = 20; import zetaglue.special as s; print(repr(s.EULER_GAMMA))"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
        assert done.stdout.strip() == "0.5772156649015329", done.stderr
