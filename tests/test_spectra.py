"""Cross-section spectra, heat data and tail bounds."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaglue import spectra
from zetaglue.errors import (
    HeatDataRequiredError,
    InsufficientSpectrumError,
    ValidationError,
)
from zetaglue.spectra import (
    Circle,
    ExplicitSpectrum,
    FlatTorus,
    HeatExpansion,
    Point,
    SpectrumEntry,
    enumerate_spectrum,
    heat_coefficients,
    heat_trace,
    heat_tail_bound,
    kernel_dim,
    explicit_from_json,
    explicit_mirror,
)

TWO_PI = 2.0 * math.pi


def entries_as_pairs(entries):
    return [(e.eigenvalue, e.multiplicity) for e in entries]


def fraction_keyed_torus_entries(cs, cutoff):
    """Reference torus merge: group lattice points by the exact rational
    j^2 ell2^2 + k^2 ell1^2, which is proportional to mu."""
    w1 = Fraction(cs.ell1) ** 2
    w2 = Fraction(cs.ell2) ** 2
    c1 = 2.0 * math.pi / cs.ell1
    c2 = 2.0 * math.pi / cs.ell2
    jmax = int(math.floor(math.sqrt(cutoff) / c1 + 1e-12))
    groups = {}
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
            if key in groups:
                groups[key][1] += mult
            else:
                groups[key] = [mu, mult]
    return [SpectrumEntry(mu, mult) for _, (mu, mult) in sorted(groups.items())]


class TestEnumerate:
    def test_point(self):
        assert entries_as_pairs(enumerate_spectrum(Point(), 10.0)) == [(0.0, 1)]

    def test_circle_unit_wavenumber(self):
        got = entries_as_pairs(enumerate_spectrum(Circle(TWO_PI), 4.5))
        assert got == [(0.0, 1), (1.0, 2), (4.0, 2)]

    def test_square_torus_low_modes(self):
        got = entries_as_pairs(enumerate_spectrum(FlatTorus(TWO_PI, TWO_PI), 1.5))
        assert got == [(0.0, 1), (1.0, 4)]

    def test_square_torus_lattice_multiplicities(self):
        # 50 = 1+49 = 49+1 = 25+25 and 25 = 0+25 = 25+0 = 9+16 = 16+9
        got = dict(entries_as_pairs(enumerate_spectrum(FlatTorus(TWO_PI, TWO_PI), 50.5)))
        assert got[50.0] == 12
        assert got[25.0] == 12
        assert got[1.0] == 4
        assert got[2.0] == 4

    def test_rational_ratio_merges_exactly(self):
        # ell1 = 2*ell2: mu = c^2 (j^2 + 4 k^2); (j,k)=(2,0) and (0,1) collide
        cs = FlatTorus(2.0, 1.0)
        got = dict(entries_as_pairs(enumerate_spectrum(cs, 50.0)))
        c2 = (2.0 * math.pi / 2.0) ** 2
        assert got[4.0 * c2] == 2 + 2  # exact merge, not float dedup

    def test_cutoff_must_be_positive(self):
        with pytest.raises(ValidationError):
            enumerate_spectrum(Circle(TWO_PI), 0.0)

    def test_explicit_truncation_error_carries_cutoff(self):
        cs = explicit_mirror(Circle(TWO_PI), 25.0)
        with pytest.raises(InsufficientSpectrumError) as exc:
            enumerate_spectrum(cs, 100.0)
        assert exc.value.max_trusted == 25.0

    @pytest.mark.parametrize("ell1, ell2", [
        (2.0, 2.0), (1.0, 2.0), (1.0, 3.0), (TWO_PI, 3.0),
        (1.0488088481701514, 3.1464265445104544),
    ])
    @pytest.mark.parametrize("cutoff", [16.0, 100.0, 1e3, 5e3])
    def test_torus_matches_rational_key_merge(self, ell1, ell2, cutoff):
        cs = FlatTorus(ell1, ell2)
        assert enumerate_spectrum(cs, cutoff) == fraction_keyed_torus_entries(cs, cutoff)

    @given(
        st.floats(min_value=0.5, max_value=20.0),
        st.floats(min_value=1.0, max_value=200.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_doubling_cutoff_gives_superset(self, ell, lam):
        small = entries_as_pairs(enumerate_spectrum(Circle(ell), lam))
        big = entries_as_pairs(enumerate_spectrum(Circle(ell), 2.0 * lam))
        assert big[: len(small)] == small


def direct_circle_entries(cs, cutoff):
    """Reference circle spectrum: every k with (c k)^2 <= cutoff, uncached."""
    c = cs.wavenumber
    out = [SpectrumEntry(0.0, 1)]
    k = 1
    while (c * k) ** 2 <= cutoff:
        out.append(SpectrumEntry((c * k) ** 2, 2))
        k += 1
    return out


def direct_entries(cs, cutoff):
    if isinstance(cs, Circle):
        return direct_circle_entries(cs, cutoff)
    return fraction_keyed_torus_entries(cs, cutoff)


def seeded_cutoffs(cs, seed, top):
    """Cutoffs at every eigenvalue below ``top``, one ulp either side, and
    in between, in small -> large -> small order."""
    rng = random.Random(seed)
    cuts = [rng.uniform(1.0, top) for _ in range(20)]
    for e in direct_entries(cs, top)[1:]:
        cuts += [e.eigenvalue, math.nextafter(e.eigenvalue, 0.0), math.nextafter(e.eigenvalue, math.inf)]
    rng.shuffle(cuts)
    small = [c for c in cuts if c < top / 8]
    large = [c for c in cuts if c >= top / 8]
    return small[: len(small) // 2] + sorted(large) + [top] + small[len(small) // 2 :] + large


class TestSpectrumCache:
    # the square torus of side 3 merges lattice points whose floats differ
    # by an ulp (first at 109.66), so cutoffs at its eigenvalues split
    # degenerate groups; on the sqrt(2) x sqrt(28) torus distinct
    # eigenvalues a hair apart have their floats in the other order
    @pytest.mark.parametrize("seed, cs, top", [
        (1, Circle(TWO_PI), 1e3), (2, Circle(3.7), 1e3), (3, FlatTorus(3.0, 3.0), 1e3),
        (4, FlatTorus(TWO_PI, TWO_PI), 250.0), (5, FlatTorus(1.0, 2.37), 1e3),
        (6, FlatTorus(TWO_PI, 3.0), 300.0), (7, FlatTorus(math.sqrt(2.0), math.sqrt(28.0)), 1e3),
    ], ids=["circle", "circle-3.7", "square", "square-2pi", "1:2.37", "2pi-x-3", "unordered"])
    def test_cached_equals_direct_enumeration(self, seed, cs, top):
        spectra._spectrum_cache.pop(cs, None)
        for cutoff in seeded_cutoffs(cs, seed, top):
            assert enumerate_spectrum(cs, cutoff) == direct_entries(cs, cutoff), cutoff

    def test_out_of_order_torus_is_cached_above_100(self, monkeypatch):
        cs = FlatTorus(math.sqrt(2.0), math.sqrt(28.0))
        spectra._spectrum_cache.pop(cs, None)
        enumerate_spectrum(cs, 1e3)
        builds = []
        inner = spectra._torus_entries

        def spy(*args):
            builds.append(args[1])
            return inner(*args)

        monkeypatch.setattr(spectra, "_torus_entries", spy)
        cutoffs = [c for c in seeded_cutoffs(cs, 8, 1e3) if c > 100.0]
        for cutoff in cutoffs:
            assert enumerate_spectrum(cs, cutoff) == direct_entries(cs, cutoff), cutoff
        assert spectra._spectrum_cache[cs][0] == 1e3
        # only cutoffs between the floats of an out-of-order pair enumerate
        assert 0 < len(builds) < len(cutoffs) / 10

    def test_returned_list_is_a_copy(self):
        cs = FlatTorus(1.5, 2.5)
        first = enumerate_spectrum(cs, 200.0)
        want = list(first)
        first.clear()
        smaller = enumerate_spectrum(cs, 50.0)
        smaller.append(SpectrumEntry(1e9, 1))
        assert enumerate_spectrum(cs, 200.0) == want
        assert enumerate_spectrum(cs, 50.0) == [e for e in want if e.eigenvalue <= 50.0]

    def test_fresh_tori_stay_within_the_cap(self):
        for k in range(200):
            enumerate_spectrum(FlatTorus(1.0 + k / 256.0, 2.0), 50.0)
        assert len(spectra._spectrum_cache) <= 32


class TestHeatData:
    def test_point(self):
        h = heat_coefficients(Point(), 2)
        assert h.cross_dim == 0
        assert h.coeffs[0] == 1.0

    def test_circle(self):
        h = heat_coefficients(Circle(TWO_PI), 3)
        assert h.cross_dim == 1
        assert h.coeffs[0] == pytest.approx(TWO_PI / (2.0 * math.sqrt(math.pi)), rel=1e-15)
        assert all(c == 0.0 for c in h.coeffs[1:])

    def test_torus(self):
        h = heat_coefficients(FlatTorus(3.0, 5.0), 2)
        assert h.coeffs[0] == pytest.approx(15.0 / (4.0 * math.pi), rel=1e-15)
        assert h.coeffs[1] == 0.0

    def test_explicit_requires_heat(self):
        cs = ExplicitSpectrum(
            entries=(SpectrumEntry(0.0, 1), SpectrumEntry(1.0, 2)), dim=1, heat=None
        )
        with pytest.raises(HeatDataRequiredError):
            heat_coefficients(cs, 0)

    def test_kernel_dims(self):
        assert kernel_dim(Point()) == 1
        assert kernel_dim(Circle(TWO_PI)) == 1
        cs = ExplicitSpectrum(
            entries=(SpectrumEntry(0.0, 3), SpectrumEntry(2.0, 5)),
            dim=2,
            heat=HeatExpansion(2, (1.0,)),
        )
        assert kernel_dim(cs) == 3

    def test_kernel_dim_no_zero_entry(self):
        cs = ExplicitSpectrum(
            entries=(SpectrumEntry(2.0, 5),), dim=2, heat=HeatExpansion(2, (1.0,))
        )
        assert kernel_dim(cs) == 0


class TestHeatTrace:
    def test_point_is_one(self):
        assert heat_trace(Point(), 0.01) == 1.0
        assert heat_trace(Point(), 100.0) == 1.0

    def test_circle_direct_sum(self):
        # ell = 2 pi: trace(1) = 1 + 2 sum e^{-k^2}
        direct = 1.0 + 2.0 * math.fsum(math.exp(-k * k) for k in range(1, 20))
        assert heat_trace(Circle(TWO_PI), 1.0) == pytest.approx(direct, rel=1e-13)

    def test_circle_long_time_limit(self):
        assert heat_trace(Circle(TWO_PI), 60.0) == pytest.approx(1.0, abs=1e-15)

    def test_torus_factorizes(self):
        t = 0.37
        got = heat_trace(FlatTorus(TWO_PI, 3.0), t)
        expect = heat_trace(Circle(TWO_PI), t) * heat_trace(Circle(3.0), t)
        assert got == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize(
        "cs",
        [Circle(TWO_PI), Circle(3.7), FlatTorus(TWO_PI, TWO_PI)],
        ids=["circle2pi", "circle3.7", "torus"],
    )
    def test_small_time_model(self, cs):
        # trace(t) - a0 t^{-d/2} -> 0 like exp(-c/t); tiny already at 1e-3
        t = 1e-3
        a0 = heat_coefficients(cs, 0).coeffs[0]
        residual = heat_trace(cs, t) - a0 * t ** (-cs.dim / 2.0)
        assert abs(residual) < 1e-8

    @given(
        st.floats(min_value=0.01, max_value=5.0),
        st.floats(min_value=1.01, max_value=3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_strictly_decreasing(self, t, factor):
        cs = Circle(TWO_PI)
        assert heat_trace(cs, t * factor) < heat_trace(cs, t)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValidationError):
            heat_trace(Circle(TWO_PI), 0.0)

    def test_explicit_tail_certification(self):
        cs = explicit_mirror(Circle(TWO_PI), 400.0)
        direct = heat_trace(Circle(TWO_PI), 0.2)
        assert heat_trace(cs, 0.2) == pytest.approx(direct, rel=1e-12)
        with pytest.raises(InsufficientSpectrumError):
            heat_trace(cs, 1e-4)

    def test_tail_bound_actually_bounds(self):
        cs = Circle(TWO_PI)
        lam, t = 25.0, 0.3
        exact_tail = math.fsum(
            2.0 * math.exp(-t * k * k) for k in range(6, 60)
        )
        assert heat_tail_bound(cs, lam, t) >= exact_tail


class TestExplicitIngestion:
    def test_json_roundtrip_with_decimal_strings(self):
        doc = {
            "dim": 1,
            "entries": [["0", 1], ["1.0", 2], ["4.0", 2]],
            "heat": {"coeffs": [1.7724538509055159], "exact": True},
        }
        cs = explicit_from_json(json.dumps(doc))
        assert cs.dim == 1
        assert kernel_dim(cs) == 1
        assert entries_as_pairs(cs.entries) == [(0.0, 1), (1.0, 2), (4.0, 2)]

    def test_rejects_unsorted(self):
        doc = {"dim": 1, "entries": [[1.0, 2], [0.0, 1]]}
        with pytest.raises(ValidationError):
            explicit_from_json(doc)

    def test_rejects_unmerged_duplicates(self):
        doc = {"dim": 1, "entries": [[1.0, 1], [1.0, 1]]}
        with pytest.raises(ValidationError):
            explicit_from_json(doc)

    def test_rejects_negative_eigenvalue(self):
        doc = {"dim": 1, "entries": [[-1.0, 1]]}
        with pytest.raises(ValidationError):
            explicit_from_json(doc)

    def test_rejects_bad_multiplicity(self):
        with pytest.raises(ValidationError):
            SpectrumEntry(1.0, 0)
