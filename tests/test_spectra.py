"""Cross-section spectra, heat data and tail bounds."""

import dataclasses
import hashlib
import json
import math
import pickle
import random
import sys
import threading
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaglue import spectra, zreg
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
from zetaglue.zreg import power_tail_bound

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


def lattice_entries(cs, cutoff):
    """The entries of ``cs._lattice(cutoff)``, uncached."""
    mu, mult = cs._lattice(cutoff)[:2]
    return [SpectrumEntry(m, int(n)) for m, n in zip(mu.tolist(), mult.tolist())]


def seeded_tori(seed, count):
    """Tori of aspect 1 to 3 and area 3 to 5, as the torus benchmark draws them."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        aspect, area = rng.uniform(1.0, 3.0), rng.uniform(3.0, 5.0)
        side = math.sqrt(area / aspect)
        out.append(FlatTorus(side, side * aspect))
    return out


class TestEnumerate:
    def test_lattice_matches_the_per_point_loop(self):
        # the fold forms each row's and each column's square once and sorts
        # by float or int64 key; the reference forms them at every point
        rng = random.Random(20261019)
        for _ in range(50):
            aspect = math.exp(rng.uniform(0.0, math.log(8.0)))
            side = math.sqrt(rng.uniform(2.0, 30.0) / aspect)
            cs = FlatTorus(side, side * aspect)
            for cutoff in (10.0, 100.0, 400.0, rng.uniform(1.0, 1e3)):
                assert lattice_entries(cs, cutoff) == fraction_keyed_torus_entries(cs, cutoff), (cs, cutoff)

    # int64 keys (square and commensurate sides) and Python-int keys over
    # runs of nearly tied floats (the rest)
    @pytest.mark.parametrize("cs", [
        FlatTorus(3.0, 3.0), FlatTorus(TWO_PI, TWO_PI), FlatTorus(1.0, 2.0), FlatTorus(1.0, 5.0),
        FlatTorus(math.sqrt(2.0), math.sqrt(28.0)), FlatTorus(TWO_PI, 2.4 * TWO_PI),
    ] + seeded_tori(20261020, 20), ids=repr)
    @pytest.mark.parametrize("cutoff", [50.0, 777.0, 3000.0, 2e4])
    def test_lattice_matches_the_per_point_loop_wide(self, cs, cutoff):
        assert lattice_entries(cs, cutoff) == fraction_keyed_torus_entries(cs, cutoff)

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

    @pytest.mark.parametrize("cutoff", [math.inf, -math.inf, math.nan, -1.0])
    @pytest.mark.parametrize("cs", [
        Point(), Circle(TWO_PI), FlatTorus(TWO_PI, 3.0), explicit_mirror(Circle(TWO_PI), 25.0),
    ], ids=["point", "circle", "torus", "explicit"])
    def test_cutoff_must_be_finite(self, cs, cutoff):
        with pytest.raises(ValidationError, match="cutoff must be finite and > 0"):
            enumerate_spectrum(cs, cutoff)

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
        spectra._listing_cache.pop(cs, None)
        for cutoff in seeded_cutoffs(cs, seed, top):
            assert enumerate_spectrum(cs, cutoff) == direct_entries(cs, cutoff), cutoff

    def test_out_of_order_torus_is_cached_above_100(self, monkeypatch):
        cs = FlatTorus(math.sqrt(2.0), math.sqrt(28.0))
        spectra._listing_cache.pop(cs, None)
        enumerate_spectrum(cs, 1e3)
        builds = []
        inner = spectra.FlatTorus._lattice

        def spy(*args):
            builds.append(args[1])
            return inner(*args)

        monkeypatch.setattr(spectra.FlatTorus, "_lattice", spy)
        cutoffs = [c for c in seeded_cutoffs(cs, 8, 1e3) if c > 100.0]
        for cutoff in cutoffs:
            assert enumerate_spectrum(cs, cutoff) == direct_entries(cs, cutoff), cutoff
        assert spectra._listing_cache[cs][0] == 1e3
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
        # circles, tori and stored lists share the one cache
        for k in range(200):
            enumerate_spectrum(FlatTorus(1.0 + k / 256.0, 2.0), 50.0)
            Circle(1.0 + k / 256.0)._arrays(50.0)
            explicit_mirror(Circle(2.0 + k / 256.0), 50.0)._arrays(20.0)
        assert len(spectra._listing_cache) <= spectra._LISTING_CACHE_SIZE == 32

    def test_threads_share_the_listings(self):
        # more threads than cores, switching often, fill, grow, bisect and
        # extend the entries of three fresh tori at once
        tori = [FlatTorus(1.0 + k / 8.0, 2.0) for k in range(3)]
        cutoffs = [50.0, 400.0, 120.0, 800.0, 10.0]
        want = {(cs, c): fraction_keyed_torus_entries(cs, c) for cs in tori for c in cutoffs}
        for cs in tori:
            spectra._listing_cache.pop(cs, None)
        wrong = []

        def work(seed):
            rng = random.Random(seed)
            for _ in range(60):
                cs, c = rng.choice(tori), rng.choice(cutoffs)
                if rng.random() < 0.2:
                    with spectra._listing_lock:
                        spectra._listing_cache.pop(cs, None)
                modes = [SpectrumEntry(m, n) for m, n in zip(*cs._modes(c))]
                if enumerate_spectrum(cs, c) != want[cs, c] or modes != want[cs, c]:
                    wrong.append((cs, c))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    @pytest.mark.parametrize("cs", [
        Circle(TWO_PI), FlatTorus(3.0, 3.0), explicit_mirror(FlatTorus(TWO_PI, 3.0), 400.0),
    ], ids=["circle", "torus", "stored"])
    def test_arrays_refuse_writes(self, cs):
        spectra._listing_cache.pop(cs, None)
        cutoffs = [200.0, 300.0, 50.0]  # a fill, a refill and a bisection
        if isinstance(cs, FlatTorus):
            # a cutoff inside a degenerate group whose floats differ: the
            # bisections disagree, and the lattice is listed afresh
            _, _, highs, lows = cs._lattice(300.0)
            cutoffs.append(float(lows[np.flatnonzero(lows < highs)[0]]))
        for cutoff in cutoffs:
            for array in cs._arrays(cutoff):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1.0


@pytest.mark.parametrize("cs, fields, changed", [
    (Point(), {"dim": 0}, None),
    (Circle(2.5), {"circumference": 2.5, "dim": 1}, {"circumference": 3.0}),
    (FlatTorus(1.5, 2.5), {"ell1": 1.5, "ell2": 2.5, "dim": 2}, {"ell2": 3.0}),
], ids=["point", "circle", "torus"])
def test_slotted_built_ins_keep_their_dataclass_behaviour(cs, fields, changed):
    # a caller may keep many cross-sections: the built-ins hold no __dict__
    assert not hasattr(cs, "__dict__")
    twin = pickle.loads(pickle.dumps(cs))
    assert twin == cs and hash(twin) == hash(cs) and twin is not cs
    assert dataclasses.asdict(cs) == fields and dataclasses.replace(cs) == cs
    if changed:
        assert dataclasses.asdict(dataclasses.replace(cs, **changed)) == {**fields, **changed}
    with pytest.raises(dataclasses.FrozenInstanceError):
        cs.dim = 3
    # an equal cross-section is the same key of the listing and backend caches
    assert spectra._listing(twin, 10.0)[0] is spectra._listing(cs, 10.0)[0]
    assert zreg._get_backend(twin) is zreg._get_backend(cs)


class TestExplicitMirror:
    def test_mirrors_share_the_listings_entries(self):
        # a caller may keep every mirror it builds (the benchmark does): a
        # mirror holds its base listing's entry objects, not copies
        cs = FlatTorus(TWO_PI, 2.4 * TWO_PI)
        spectra._listing_cache.pop(cs, None)
        large, small = explicit_mirror(cs, 2e3), explicit_mirror(cs, 500.0)
        listed = {id(e) for e in large.entries}
        assert sum(id(e) in listed for e in small.entries) >= 0.99 * len(small.entries)

    # SHA-256 of the (eigenvalue, multiplicity) pairs of the mirrors of the
    # benchmark's circle and torus, as the per-point listing built them
    @pytest.mark.parametrize("cs, cutoff, count, digest", [
        (Circle(1.1 * TWO_PI), 100.0, 12, "683217fcd35ef50333710822f311a10dd0ab38eb004bbef4cc42b41022b375f4"),
        (Circle(1.1 * TWO_PI), 4e4, 221, "3fa4f5c0ec6f9f9a57313a1164f5224d56554d049fafd8cce8729c35452f0528"),
        (FlatTorus(TWO_PI, 2.4 * TWO_PI), 200.0, 386,
         "4c910af0b12dde08084cab210d46da279f0bcb7a04fc02b443bee814359f4b27"),
        (FlatTorus(TWO_PI, 2.4 * TWO_PI), 777.0, 1405,
         "ec1f42cb265f65951fa9481a04b00451d1e7c73c417a901df2ea91bbfab94d0a"),
        (FlatTorus(TWO_PI, 2.4 * TWO_PI), 2e3, 3502,
         "3af40ad79cf9d20d93df6e3b0cc406c9261a6f91a9cc22a4f28fd254d4725c1b"),
    ])
    def test_entries_are_unchanged(self, cs, cutoff, count, digest):
        entries = explicit_mirror(cs, cutoff).entries
        pairs = repr([(e.eigenvalue, e.multiplicity) for e in entries]).encode()
        assert len(entries) == count
        assert hashlib.sha256(pairs).hexdigest() == digest


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

    def test_stored_weyl_tail_bounds_in_the_truncation_regime(self):
        # the numeric backend's regime: lam = max_eigenvalue and t < 1, where
        # the Weyl tail beyond the list is at least 1.2 times the true
        # tail of the torus beyond it.  The true tail is heat_trace less
        # the listed sum where that difference resolves (t < 0.05), else a
        # direct sum up to lam + 40 / 0.05, which leaves out e^-40 of it.
        torus = FlatTorus(TWO_PI, 4.8 * math.pi)
        mirror = explicit_mirror(torus, 200.0)
        lam = mirror.max_eigenvalue

        def arrays(cutoff):
            entries = enumerate_spectrum(torus, cutoff)
            return np.array([e.eigenvalue for e in entries]), np.array([e.multiplicity for e in entries])

        listed_mu, listed_mult = arrays(lam)
        mu, mult = arrays(lam + 40.0 / 0.05)
        mu, mult = mu[mu > lam], mult[mu > lam]
        for t in np.geomspace(1e-3, 1.0, 201)[:-1]:
            if t < 0.05:
                tail = heat_trace(torus, t) - float(listed_mult @ np.exp(-t * listed_mu))
            else:
                tail = float(mult @ np.exp(-t * mu))
            assert heat_tail_bound(mirror, lam, t) >= 1.2 * tail, t

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

    def test_mirror_sorts_and_merges_tied_floats(self):
        # distinct exact eigenvalues of this torus round to tied or
        # out-of-order floats (31 neighbouring pairs below 1500)
        cs = FlatTorus(math.sqrt(2.0), math.sqrt(28.0))
        exact = enumerate_spectrum(cs, 1500.0)
        merged = {}
        for e in exact:
            merged[e.eigenvalue] = merged.get(e.eigenvalue, 0) + e.multiplicity
        mirror = explicit_mirror(cs, 1500.0)
        assert entries_as_pairs(mirror.entries) == sorted(merged.items())
        assert len(mirror.entries) < len(exact)

    @pytest.mark.parametrize("cs", [Circle(2.2 * math.pi), FlatTorus(TWO_PI, 4.8 * math.pi)])
    def test_mirror_of_an_ascending_list_is_a_copy(self, cs):
        assert list(explicit_mirror(cs, 2000.0).entries) == enumerate_spectrum(cs, 2000.0)

    def test_stored_scans_start_where_the_full_scan_keeps(self):
        # enumerate_spectrum and the stored part of every tail bound slice
        # the stored arrays at a searchsorted index; the full scans they
        # replaced are the reference
        mirror = explicit_mirror(FlatTorus(TWO_PI, 3.0), 400.0)
        eigs = [e.eigenvalue for e in mirror.entries]
        cuts = [-math.inf, 0.0, 0.5, 1e3] + [f(mu) for mu in eigs[::7] for f in (
            lambda mu: mu, lambda mu: math.nextafter(mu, 0.0), lambda mu: math.nextafter(mu, math.inf))]
        for lam in cuts:
            if lam <= mirror.max_trusted:
                assert mirror.enumerate_spectrum(lam) == [e for e in mirror.entries if e.eigenvalue <= lam]
            kept = [e for e in mirror.entries if e.eigenvalue > lam]
            mu, mult = mirror._above(lam)
            assert mu.tolist() == [e.eigenvalue for e in kept]
            assert mult.tolist() == [e.multiplicity for e in kept]

    def test_rejects_negative_eigenvalue(self):
        doc = {"dim": 1, "entries": [[-1.0, 1]]}
        with pytest.raises(ValidationError):
            explicit_from_json(doc)

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_entry_refuses_non_finite_eigenvalue(self, mu):
        with pytest.raises(ValidationError, match="finite"):
            SpectrumEntry(mu, 1)

    @pytest.mark.parametrize("entry", [["inf", 2], ["nan", 2], ["-inf", 2], ["1e400", 1]])
    def test_rejects_non_finite_eigenvalue(self, entry):
        # an infinite entry would make max_trusted infinite, and the list
        # would pass for a complete spectrum; NaN would pass as unsorted
        doc = {"dim": 1, "entries": [[0.0, 1], entry], "heat": {"coeffs": [1.0]}}
        with pytest.raises(ValidationError, match=r"entry 1 .*finite"):
            explicit_from_json(doc)

    def test_rejects_bad_multiplicity(self):
        with pytest.raises(ValidationError):
            SpectrumEntry(1.0, 0)


# malformed explicit documents -> a fragment the refusal must contain
MALFORMED = {
    "fractional-multiplicity": ({"dim": 1, "entries": [[0.0, 1], [1.0, 2.5]]}, "entry 1"),
    "boolean-multiplicity": ({"dim": 1, "entries": [[0.0, 1], [1.0, True]]}, "entry 1"),
    "string-multiplicity": ({"dim": 1, "entries": [[0.0, "2"]]}, "entry 0"),
    "fractional-dim": ({"dim": 1.7, "entries": [[0.0, 1]]}, "dim"),
    "boolean-dim": ({"dim": True, "entries": [[0.0, 1]]}, "dim"),
    "entry-not-a-pair": ({"dim": 1, "entries": [[0, 1], 5]}, "entry 1"),
    "entry-of-three": ({"dim": 1, "entries": [[0, 1, 2]]}, "entry 0"),
    "entries-not-a-list": ({"dim": 1, "entries": 5}, "entries"),
    "no-entries": ({"dim": 1}, "entries"),
    "no-dim": ({"entries": [[0.0, 1]]}, "dim"),
    "empty-heat": ({"dim": 1, "entries": [[0.0, 1]], "heat": {}}, "heat"),
    "heat-not-an-object": ({"dim": 1, "entries": [[0.0, 1]], "heat": [1.0]}, "heat"),
    "string-exact": ({"dim": 1, "entries": [[0.0, 1]], "heat": {"coeffs": [1.0], "exact": "no"}}, "heat"),
    "word-coefficient": ({"dim": 1, "entries": [[0.0, 1]], "heat": {"coeffs": ["abc"]}}, "heat coefficient 0"),
    "word-eigenvalue": ({"dim": 1, "entries": [["abc", 2]]}, "entry 0"),
    "object-eigenvalue": ({"dim": 1, "entries": [[{}, 2]]}, "entry 0"),
    "unsorted": ({"dim": 1, "entries": [[0.0, 1], [2.0, 1], [1.0, 1]]}, "entry 2"),
}


class TestMalformedExplicitDocuments:
    @pytest.mark.parametrize("name", list(MALFORMED))
    def test_refused_by_name(self, name):
        doc, fragment = MALFORMED[name]
        with pytest.raises(ValidationError, match=fragment):
            explicit_from_json(doc)
        with pytest.raises(ValidationError, match=fragment):
            explicit_from_json(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(ValidationError, match="not JSON"):
            explicit_from_json("{dim: 1")

    def test_integral_numbers_are_accepted(self):
        doc = {"dim": 1.0, "entries": [["0", 1], [1, 2.0]], "heat": {"coeffs": [1], "exact": True}}
        cs = explicit_from_json(doc)
        assert cs.dim == 1 and type(cs.dim) is int
        assert entries_as_pairs(cs.entries) == [(0.0, 1), (1.0, 2)]
        assert all(type(e.multiplicity) is int for e in cs.entries)


# the stored lists of the array tests: mirrors at cutoff 300, and a list of zero modes alone
ARRAY_SECTIONS = {
    "circle": explicit_mirror(Circle(8.5), 300.0),
    "torus": explicit_mirror(FlatTorus(TWO_PI, 7.0 * math.pi), 300.0),
    "zero-modes": ExplicitSpectrum((SpectrumEntry(0.0, 2),), 1, HeatExpansion(1, (0.4,))),
}


def _direct(cs, lam, f):
    """fsum of m_j f(mu_j) over the stored entries with mu_j > lam."""
    return math.fsum(e.multiplicity * f(e.eigenvalue) for e in cs.entries if e.eigenvalue > lam)


def _cuts(cs):
    """Below the first mode, inside the list (at a stored eigenvalue and
    between two), at the largest mode, and above it (an empty slice)."""
    eigs = [e.eigenvalue for e in cs.entries]
    inside = [eigs[len(eigs) // 2], (eigs[len(eigs) // 3] + eigs[len(eigs) // 3 + 1]) / 2.0] if len(eigs) > 3 else []
    return [-1.0, *inside, cs.max_eigenvalue, 2.0 * cs.max_eigenvalue + 400.0]


class TestStoredArrayPasses:
    """Each stored scan is one numpy pass; a direct fsum over the entries
    is the reference, within 1e-12 relative."""

    @pytest.mark.parametrize("name", list(ARRAY_SECTIONS))
    def test_tail_bounds_and_listing(self, name):
        cs = ARRAY_SECTIONS[name]
        close = lambda got, want: math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)  # noqa: E731
        for lam in _cuts(cs):
            top = max(lam, cs.max_eigenvalue)
            for rate in (0.05, 0.5, 4.0):
                want = _direct(cs, lam, lambda mu: math.exp(-rate * math.sqrt(mu)))
                assert close(cs.exp_tail_bound(lam, rate), want + spectra._weyl_exp_tail(cs, top, rate))
            for t in (0.01, 0.2, 3.0):
                want = _direct(cs, lam, lambda mu: math.exp(-t * mu))
                assert close(cs.heat_tail_bound(lam, t), want + spectra._weyl_heat_tail(cs, top, t))
            if lam >= 0.0:
                pref, d = spectra._weyl_density_scale(cs)
                for p in (1.5, 3.0, 7.5):
                    want = _direct(cs, lam, lambda mu: mu ** -p)
                    want += pref * max(top, 1e-12) ** (d / 2.0 - p) / (p - d / 2.0)
                    assert close(power_tail_bound(cs, lam, p), want)
                if lam <= cs.max_eigenvalue:
                    assert cs.enumerate_spectrum(lam) == [e for e in cs.entries if e.eigenvalue <= lam]

    @pytest.mark.parametrize("name", ["circle", "torus"])
    def test_heat_trace(self, name):
        cs = ARRAY_SECTIONS[name]
        for t in (0.2, 1.0, 3.0):
            want = math.fsum(e.multiplicity * math.exp(-t * e.eigenvalue) for e in cs.entries)
            assert math.isclose(heat_trace(cs, t), want, rel_tol=1e-12, abs_tol=0.0)

    def test_zero_modes_alone(self):
        cs = ExplicitSpectrum((SpectrumEntry(0.0, 3),), 0, HeatExpansion(0, (3.0,), exact=True))
        assert heat_trace(cs, 0.7) == 3.0
        assert cs.exp_tail_bound(-1.0, 2.0) == cs.heat_tail_bound(-1.0, 2.0) == 3.0
        assert cs.exp_tail_bound(0.0, 2.0) == cs.heat_tail_bound(0.0, 2.0) == cs.power_tail_bound(0.0, 2.0) == 0.0
        assert cs.enumerate_spectrum(0.0) == [SpectrumEntry(0.0, 3)]


class TestWeylTails:
    def test_closed_form_upper_gamma_matches_mpmath(self):
        xs = [0.0, 1e-300, 1e-9, 0.3, 1.0] + [700.0 * k / 499.0 for k in range(500)] + [699.99]
        worst = 0.0
        with mpmath.workdps(30):
            for two_a in range(1, 13):
                for x in xs:
                    want = mpmath.gammainc(mpmath.mpf(two_a) / 2, x)
                    worst = max(worst, float(abs(spectra._upper_gamma(two_a, x) - want) / want))
        assert worst <= 1e-13

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_weyl_tails_match_mpmath(self, dim):
        cs = ExplicitSpectrum((SpectrumEntry(0.0, 1), SpectrumEntry(50.0, 4)), dim, HeatExpansion(dim, (0.8,)))
        pref = 2.0 * 0.8 * (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)
        with mpmath.workdps(30):
            for lam, rate in ((50.0, 0.3), (400.0, 2.0), (1e4, 0.05)):
                want = pref * 2.0 * float(mpmath.gammainc(dim, rate * math.sqrt(lam))) / rate**dim
                assert math.isclose(spectra._weyl_exp_tail(cs, lam, rate), want, rel_tol=1e-13)
                want = pref * float(mpmath.gammainc(dim / 2.0, rate * lam)) / rate ** (dim / 2.0)
                assert math.isclose(spectra._weyl_heat_tail(cs, lam, rate), want, rel_tol=1e-13)

    def test_upper_gamma_past_the_underflow(self):
        assert spectra._upper_gamma(12, 745.0) == pytest.approx(6.5209811403463e-310, rel=1e-9)
        assert [spectra._upper_gamma(n, x) for n in (1, 2, 7) for x in (800.0, 1e300)] == [0.0] * 6

    def test_spectra_binds_no_mpmath(self):
        bound = [name for name, value in vars(spectra).items()
                 if getattr(value, "__name__", "").startswith("mpmath")
                 or (getattr(value, "__module__", None) or "").startswith("mpmath")]
        assert bound == []
