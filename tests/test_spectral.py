"""Walsh transform, integer spectra, and congruence classification."""

import random
import tracemalloc
import weakref

import numpy as np
import pytest

from cubewalk import spectral
from cubewalk.bitspace import (ConnectionSet, DimensionMismatchError,
                               GroupElement, hypercube)
from cubewalk.spectral import (CASE_SUM_INSIDE, CASE_SUM_OUTSIDE,
                               CASE_SUM_ZERO, CongruenceEntry, Spectrum,
                               character_bits, classify_congruences,
                               _wht_rows, classify_set, spectrum, wht)

from oracles import eigenvalues, random_set


def test_wht_doubles_back_to_scaled_identity():
    rng = random.Random(2)
    for n in range(1, 9):
        x = np.array([rng.randint(-50, 50) for _ in range(1 << n)],
                     dtype=np.int64)
        np.testing.assert_array_equal(wht(wht(x)), (1 << n) * x)


def test_wht_parseval():
    rng = np.random.default_rng(4)
    for n in range(1, 9):
        x = rng.normal(size=1 << n)
        y = wht(x)
        assert np.isclose(np.sum(y * y), (1 << n) * np.sum(x * x))


def test_wht_known_vectors():
    np.testing.assert_array_equal(wht(np.array([1, 0, 0, 0])), [1, 1, 1, 1])
    np.testing.assert_array_equal(wht(np.array([1, 1, 1, 1])), [4, 0, 0, 0])
    # single character: transform of e_w is the row of signs (-1)^{w.v}
    e2 = np.zeros(4, dtype=np.int64)
    e2[2] = 1
    np.testing.assert_array_equal(wht(e2), [1, 1, -1, -1])


def test_wht_dtype_and_shape_rules():
    assert wht(np.array([True, False])).dtype == np.int64
    assert wht(np.array([1.0, 2.0])).dtype == np.float64
    assert wht(np.array([1j, 0])).dtype == np.complex128
    with pytest.raises(ValueError):
        wht(np.arange(3))
    with pytest.raises(ValueError):
        wht(np.arange(4).reshape(2, 2))


def test_wht_leaves_input_untouched():
    x = np.array([3, 1, -2, 7], dtype=np.int64)
    wht(x)
    np.testing.assert_array_equal(x, [3, 1, -2, 7])


def _wht_by_levels(arr):
    """The radix-2 butterfly, one level per pass: the bit-identity oracle."""
    if arr.dtype == bool or np.issubdtype(arr.dtype, np.integer):
        out = arr.astype(np.int64)
    elif np.issubdtype(arr.dtype, np.complexfloating):
        out = arr.astype(np.complex128)
    else:
        out = arr.astype(np.float64)
    shape = out.shape
    h = 1
    while h < shape[-1]:
        out = out.reshape(-1, 2, h)
        top = out[:, 0, :].copy()
        out[:, 0, :] = top + out[:, 1, :]
        out[:, 1, :] = top - out[:, 1, :]
        h <<= 1
    return out.reshape(shape)


def _wht_inputs(rng, shape):
    yield rng.integers(-1000, 1000, size=shape, dtype=np.int64)
    yield rng.random(shape) < 0.5
    yield rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    yield rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for kind in (np.int8, np.int16, np.int32, np.int64):
        yield _block_of_type(rng, shape, kind)


def _block_of_type(rng, shape, kind):
    """Integers whose transform runs in ``kind``: each row of 2ⁿ entries
    has K nonzero entries of magnitude at most c, with K·c ≤ the type's
    maximum, or one entry of 2³¹ and up for int64."""
    size = shape[-1]
    if kind is np.int64:
        block = rng.integers(-(1 << 40), 1 << 40, size=shape)
        block.reshape(-1, size)[-1, -1] = (1 << 31) + 7
    else:
        top = np.iinfo(kind).max
        c = max(1, top // size)
        k = min(size, top // c)
        block = np.zeros(shape, dtype=np.int64)
        for row in block.reshape(-1, size):
            where = rng.choice(size, size=k, replace=False)
            row[where] = rng.integers(1, c, size=k, endpoint=True) \
                * rng.choice([-1, 1], size=k)
    assert spectral._exact_type(block) is kind
    return block


@pytest.mark.parametrize("n", range(17))
def test_radix4_butterfly_keeps_every_bit_of_the_radix2_levels(n):
    # past 64 entries a row runs its six lowest levels on a tiled
    # transposed copy (tiles of 256 runs from n = 14), in every work type
    rng = np.random.default_rng(100 + n)
    for shape in ((1 << n,), (5, 1 << n)):
        for x in _wht_inputs(rng, shape):
            before = x.copy()
            want = _wht_by_levels(x)
            got = _wht_rows(x)
            assert got.dtype == want.dtype and got.shape == shape
            assert got.tobytes() == want.tobytes()
            assert x.tobytes() == before.tobytes()  # input left alone
            if len(shape) == 1:
                assert wht(x).tobytes() == want.tobytes()
            else:  # each row of a block is its own transform
                for row, out in zip(x, got):
                    assert _wht_rows(row).tobytes() == out.tobytes()


def test_radix4_butterfly_on_strided_and_empty_input():
    rng = np.random.default_rng(7)
    block = rng.integers(-9, 9, size=(32, 6))
    assert _wht_rows(block.T).tobytes() == \
        _wht_by_levels(block.T.copy()).tobytes()
    assert _wht_rows(np.asfortranarray(block.T)).tobytes() == \
        _wht_by_levels(block.T.copy()).tobytes()
    assert wht(block[::-1, 0]).tobytes() == \
        _wht_by_levels(block[::-1, 0].copy()).tobytes()
    long = rng.integers(-9, 9, size=(256, 3))  # past the transposed levels
    for x in (long.T, np.asfortranarray(long.T), long[::-1, 0]):
        assert _wht_rows(x).tobytes() == _wht_by_levels(x.copy()).tobytes()
    assert _wht_rows(np.zeros((0, 16), dtype=bool)).shape == (0, 16)


def _record_schedule(monkeypatch):
    """Wrap the two stage helpers; the returned list then gets, per
    transform, ("block", rows, block, bytes) for each group of blocks of
    the first stage and ("column", span, width, bytes) for each column
    chunk of the second."""
    steps, inside = [], []
    block_levels, levels = spectral._block_levels, spectral._levels

    def spy_blocks(piece, buf):
        steps.append(("block", *piece.shape, piece.nbytes))
        inside.append(piece)
        block_levels(piece, buf)
        inside.pop()

    def spy_levels(x, buf, top):
        if not inside:
            steps.append(("column", *x.shape, x.nbytes))
        levels(x, buf, top)

    monkeypatch.setattr(spectral, "_block_levels", spy_blocks)
    monkeypatch.setattr(spectral, "_levels", spy_levels)
    return steps


def _schedule_shapes(steps, size, cache):
    """What one transform's schedule took, after checking that each block
    is the largest power of two up to ``size`` that fits ``cache`` and
    that every piece fits it (a chunk one column wide may not)."""
    shapes = set()
    for kind, rows, cols, nbytes in steps:
        item = nbytes // (rows * cols)
        if kind == "block":
            block, levels = cols, cols.bit_length() - 1
            assert nbytes <= cache
            assert block == size or 2 * block * item > cache
            if block < size:
                shapes.add("blocks per row")
            if rows > 1:
                shapes.add("rows per group")
        else:
            levels = rows.bit_length() - 1
            assert nbytes <= cache or cols == 1
            assert rows * block == size
            if cols < block:
                shapes.add("chunk narrower than a block")
        if levels:
            parity = "odd" if levels % 2 else "even"
            shapes.add(f"{parity} {kind} levels")
    return shapes


def _layouts(x):
    """``x``, then its entries strided and reversed along the transform
    axis, and a block of rows in Fortran order."""
    yield x
    yield np.repeat(x, 2, axis=-1)[..., ::2]
    yield x[..., ::-1]
    if x.ndim == 2:
        yield np.asfortranarray(x)


@pytest.mark.parametrize("cache", [100, 1000, 4096])
def test_two_stage_schedule_keeps_every_bit_on_small_budgets(monkeypatch,
                                                             cache):
    # a budget of a few dozen to a few thousand bytes gives rows of at
    # most 2¹² entries every shape of the schedule that long rows take
    monkeypatch.setattr(spectral, "_CACHE", cache)
    steps = _record_schedule(monkeypatch)
    seen = set()
    rng = np.random.default_rng(cache)
    for n in range(13):
        for shape in ((1 << n,), (5, 1 << n)):
            for x in _wht_inputs(rng, shape):
                for y in _layouts(x):
                    steps.clear()
                    got = _wht_rows(y)
                    assert got.tobytes() == _wht_by_levels(y).tobytes()
                    seen |= _schedule_shapes(steps, 1 << n, cache)
    assert seen == {"blocks per row", "rows per group", "odd block levels",
                    "even block levels", "odd column levels",
                    "even column levels", "chunk narrower than a block"}


@pytest.mark.parametrize("n", [17, 19])
def test_two_stage_schedule_keeps_every_bit_at_the_real_budget(monkeypatch,
                                                               n):
    # complex rows take an odd number of block levels, float rows an odd
    # number of column levels
    steps = _record_schedule(monkeypatch)
    rng = np.random.default_rng(n)
    real = rng.normal(size=1 << n)
    for x, odd in ((real, "odd column levels"),
                   (real + 1j * rng.normal(size=1 << n), "odd block levels")):
        steps.clear()
        assert _wht_rows(x).tobytes() == _wht_by_levels(x).tobytes()
        shapes = _schedule_shapes(steps, 1 << n, spectral._CACHE)
        assert {"blocks per row", odd} <= shapes


def test_transform_scratch_is_one_cache_budget():
    # the output plus one scratch array of at most _CACHE bytes, an eighth
    # of this 4 MB output; a second array of the output's size would pass 2×
    rng = np.random.default_rng(18)
    x = rng.normal(size=1 << 18) + 1j * rng.normal(size=1 << 18)
    tracemalloc.start()
    try:
        got = wht(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * got.nbytes


def _narrowest(arr):
    """The narrowest signed type holding Σ|x| of every row, in Python ints."""
    bound = max((sum(abs(int(v)) for v in row)
                 for row in arr.reshape(-1, arr.shape[-1])), default=0)
    for kind in (np.int8, np.int16, np.int32):
        if bound <= np.iinfo(kind).max:
            return kind
    return np.int64


@pytest.mark.parametrize("bound, kind", [
    (127, np.int8), (128, np.int16), (32767, np.int16), (32768, np.int32),
    ((1 << 31) - 1, np.int32), (1 << 31, np.int64)])
def test_narrow_butterfly_at_the_edge_of_each_type(bound, kind):
    # Σ|x| = bound on one row of a block, with the signs of a character so
    # that the transform reaches ±bound at it; the other rows stay small
    rng = np.random.default_rng(bound % 1009)
    for w in (0, 5, 7):
        signs = 1 - 2 * character_bits(3, w).astype(np.int64)
        parts = np.array([bound // 2, bound // 4, bound // 8])
        row = np.zeros(8, dtype=np.int64)
        row[[1, 4, 6]] = parts
        row[0] = bound - parts.sum()
        for sign in (1, -1):
            block = rng.integers(-3, 4, size=(3, 8))
            block[1] = sign * signs * row
            assert int(np.abs(block[1]).sum()) == bound
            assert spectral._exact_type(block) is kind
            got = _wht_rows(block)
            assert got.dtype == np.int64
            assert got.tobytes() == _wht_by_levels(block).tobytes()
            assert abs(int(got[1, w])) == bound


@pytest.mark.parametrize("dtype", [bool, np.uint8, np.int16, np.int32,
                                   np.int64])
def test_narrow_butterfly_on_every_integer_dtype(dtype):
    rng = np.random.default_rng(np.dtype(dtype).num)
    info = np.iinfo(np.int64 if dtype is bool else dtype)
    # small entries, then the dtype's full range (int64 is kept to ±2⁴⁰)
    for top in (3, 1 << 40):
        lo = max(info.min, -top, 0 if dtype is bool else info.min)
        hi = 1 if dtype is bool else min(info.max, top)
        for n in (0, 1, 2, 3, 6, 9):
            big = rng.integers(lo, hi, size=(6, 2 << n),
                               endpoint=True).astype(dtype)
            block = big[:, ::2]  # strided along the transform axis
            for x in (block, block[::2], block[:, ::-1], block[3],
                      np.asfortranarray(block), np.ascontiguousarray(
                          block.T).T):
                before = x.copy()
                kind = spectral._exact_type(x)
                assert kind is _narrowest(x)
                got = _wht_rows(x)
                assert got.dtype == np.int64 and got.flags.c_contiguous
                assert got.tobytes() == _wht_by_levels(x).tobytes()
                assert x.tobytes() == before.tobytes()
    # |int64 min| does not fit int64 itself; the bound is a Python int
    extreme = np.array([np.iinfo(np.int64).min, 0, 1, 0])
    assert spectral._exact_type(extreme) is np.int64
    assert _wht_rows(extreme).tobytes() == _wht_by_levels(extreme).tobytes()


def test_narrow_butterfly_is_one_integer_transform(integer_transforms):
    # the narrow pass runs inside the one call; it does not go back through
    # the module's _wht_rows, which the fixture counts
    for x in (np.array([1, 0, 1, 1]), np.full(4, 1 << 20),
              np.full(4, 1 << 40), np.zeros((3, 8), dtype=bool)):
        integer_transforms.clear()
        spectral._wht_rows(x)
        assert integer_transforms == [x.shape]


def test_character_bits_are_the_parities_of_w_and_v():
    rng = random.Random(8)
    for n in range(13):
        for w in {0, (1 << n) - 1, rng.randrange(1 << n)}:
            want = [(w & v).bit_count() & 1 for v in range(1 << n)]
            got = character_bits(n, w)
            assert got.dtype == bool and got.tolist() == [bool(b) for b in want]
            point = np.zeros(1 << n, dtype=np.int64)
            point[w] = 1
            assert (wht(point) == np.where(got, -1, 1)).all()


def test_spectrum_matches_character_sums():
    rng = random.Random(6)
    for _ in range(60):
        n = rng.randint(1, 7)
        omega = random_set(rng, n)
        spec = spectrum(omega)
        direct = eigenvalues(omega.elements, n)
        for v in range(1 << n):
            assert spec.values[v] == direct[v]


def test_block_transform_matches_character_sums_row_by_row():
    rng = random.Random(11)
    for n in (1, 3, 5):
        sets = [random_set(rng, n) for _ in range(9)]
        block = np.array([omega.indicator() for omega in sets])
        spectra = _wht_rows(block)
        assert spectra.shape == block.shape and spectra.dtype == np.int64
        for omega, row in zip(sets, spectra):
            assert row.tolist() == eigenvalues(omega.elements, n)


def test_spectrum_invariants():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(1, 8)
        omega = random_set(rng, n)
        spec = spectrum(omega)
        vals = spec.values
        assert vals[0] == omega.d
        assert int(vals.sum()) == 0
        assert int((vals.astype(object) ** 2).sum()) == (1 << n) * omega.d
        assert np.all((vals - omega.d) % 2 == 0)


def test_spectrum_values_are_write_locked():
    spec = spectrum(hypercube(3))
    with pytest.raises(ValueError):
        spec.values[0] = 99


def test_spectrum_is_stored_on_its_set(integer_transforms):
    omega = hypercube(5)
    before = (hash(omega), repr(omega))
    first = spectrum(omega)
    assert spectrum(omega) is first
    assert classify_set(omega).eigenvalues is first.values
    assert integer_transforms == [(32,)]
    with pytest.raises(ValueError):
        first.values[0] = 99
    twin = ConnectionSet(5, omega.elements)
    assert twin == omega and twin is not omega
    assert spectrum(twin) is not first
    assert spectrum(twin).values.tolist() == first.values.tolist()
    assert len(integer_transforms) == 2
    assert (hash(omega), repr(omega)) == before
    assert hash(twin) == hash(omega) and {omega: 1}[twin] == 1


def test_stored_spectrum_lives_as_long_as_its_set():
    omega = hypercube(4)
    kept = weakref.ref(spectrum(omega))
    assert kept() is spectrum(omega)
    dropped = weakref.ref(spectrum(hypercube(4)))
    assert dropped() is None
    del omega
    assert kept() is None


def test_hypercube_spectrum_formula():
    # lambda_v = n - 2*weight(v) for the standard basis set
    for n in range(1, 7):
        vals = spectrum(hypercube(n)).values
        for v in range(1 << n):
            assert vals[v] == n - 2 * bin(v).count("1")


def test_case_labels():
    assert classify_set(ConnectionSet(2, (1, 2, 3))).case == CASE_SUM_ZERO
    assert classify_set(hypercube(3)).case == CASE_SUM_OUTSIDE
    assert classify_set(ConnectionSet(3, (1, 2, 3, 7))).case == CASE_SUM_INSIDE
    assert classify_set(ConnectionSet(3, (3,))).case == CASE_SUM_INSIDE


def test_hypercube_congruence_indices():
    # n=3 basis set: u=111 outside; odd rows need k=(d+2-lam)/4,
    # even rows k=(d-lam)/4, both within 0..floor((d+1)/2)
    report = classify_set(hypercube(3))
    assert report.all_pass
    by_v = {e.v: e for e in report.entries}
    assert by_v[0].k == 0 and by_v[0].congruence_class == "d mod 4"
    assert by_v[1].k == 1 and by_v[1].congruence_class == "d+2 mod 4"
    assert by_v[3].k == 1 and by_v[3].congruence_class == "d mod 4"
    assert by_v[7].k == 2 and by_v[7].congruence_class == "d+2 mod 4"


def test_classifier_passes_exhaustively_small():
    for n in (1, 2, 3):
        for mask in range(1, 1 << ((1 << n) - 1)):
            labels = tuple(j + 1 for j in range(((1 << n) - 1))
                           if mask >> j & 1)
            report = classify_set(ConnectionSet(n, labels))
            assert report.all_pass, (n, labels)


def test_classifier_rejects_tampered_spectrum():
    omega = hypercube(3)
    good = spectrum(omega)
    bad_values = good.values.copy()
    bad_values[1] += 2  # flips the residue class of an odd row
    bad = Spectrum(n=good.n, d=good.d, values=bad_values)
    report = classify_congruences(bad, omega.u, omega.u in omega)
    assert not report.all_pass
    broken = [e for e in report.entries if not e.ok]
    assert [e.v for e in broken] == [1]
    assert broken[0].k is None


def test_classifier_rejects_out_of_range_k():
    omega = hypercube(2)
    good = spectrum(omega)
    bad_values = good.values.copy()
    bad_values[3] -= 8  # residue still fine, index k now too large
    bad = Spectrum(n=good.n, d=good.d, values=bad_values)
    report = classify_congruences(bad, omega.u, omega.u in omega)
    assert not report.all_pass


def test_classify_dimension_mismatch():
    spec = spectrum(hypercube(3))
    with pytest.raises(DimensionMismatchError):
        classify_congruences(spec, GroupElement(1, 2), False)


def _classify_by_loop(spec, u, u_in_set):
    """The per-character loop the vectorized classifier replaced: the oracle.

    Returns (case, entries) with one CongruenceEntry per v.
    """
    d = spec.d
    if u.bits == 0:
        case, bound = CASE_SUM_ZERO, d // 2
    elif not u_in_set:
        case, bound = CASE_SUM_OUTSIDE, (d + 1) // 2
    else:
        case, bound = CASE_SUM_INSIDE, (d - 1) // 2
    entries = []
    for v in range(1 << spec.n):
        lam = int(spec.values[v])
        odd = (u.bits & v).bit_count() & 1
        if not odd:
            base, klass = d, "d mod 4"
        elif case == CASE_SUM_OUTSIDE:
            base, klass = d + 2, "d+2 mod 4"
        else:
            base, klass = d - 2, "d-2 mod 4"
        diff = base - lam
        if diff % 4 == 0:
            k = diff // 4
            ok = 0 <= k <= bound
        else:
            k = None
            ok = False
        entries.append(CongruenceEntry(v=v, eigenvalue=lam, k=k,
                                       congruence_class=klass, ok=ok))
    return case, tuple(entries)


def _assert_matches_loop(spec, u, u_in_set):
    report = classify_congruences(spec, u, u_in_set)
    case, entries = _classify_by_loop(spec, u, u_in_set)
    assert report.case == case
    assert report.entries == entries
    assert all(type(e.eigenvalue) is int and type(e.ok) is bool
               and (e.k is None or type(e.k) is int)
               for e in report.entries)
    assert report.all_pass is all(e.ok for e in entries)
    return report


def test_vectorized_classifier_matches_the_loop_exhaustively_small():
    cases = set()
    for n in (1, 2, 3):
        for mask in range(1, 1 << ((1 << n) - 1)):
            omega = ConnectionSet(n, tuple(j + 1 for j in range((1 << n) - 1)
                                           if mask >> j & 1))
            report = _assert_matches_loop(spectrum(omega), omega.u,
                                          omega.u in omega)
            cases.add(report.case)
    assert cases == {CASE_SUM_ZERO, CASE_SUM_OUTSIDE, CASE_SUM_INSIDE}


def test_vectorized_classifier_matches_the_loop_on_random_sets():
    rng = random.Random(13)
    cases = set()
    for _ in range(500):
        omega = random_set(rng, rng.randint(1, 10))
        report = _assert_matches_loop(spectrum(omega), omega.u,
                                      omega.u in omega)
        cases.add(report.case)
    assert cases == {CASE_SUM_ZERO, CASE_SUM_OUTSIDE, CASE_SUM_INSIDE}


def test_vectorized_classifier_matches_the_loop_on_broken_spectra():
    # the tampered spectra of the rejection tests above, in every case
    for omega in (hypercube(3), hypercube(2), ConnectionSet(2, (1, 2, 3)),
                  ConnectionSet(3, (1, 2, 3, 7))):
        good = spectrum(omega)
        for v, shift in ((1, 2), (3, -8), (0, 1), (2, 12)):
            values = good.values.copy()
            values[v % (1 << good.n)] += shift
            bad = Spectrum(n=good.n, d=good.d, values=values)
            report = _assert_matches_loop(bad, omega.u, omega.u in omega)
            assert not report.all_pass
    broken = classify_congruences(
        Spectrum(n=3, d=3, values=np.array([3, 3, 1, -1, 1, -1, -1, -3])),
        hypercube(3).u, False)
    assert [e.k for e in broken.entries if not e.ok] == [None]


def test_classifier_columns_match_division_on_negative_differences():
    # λ beyond d makes d − λ negative: & 3 and >> 2 must agree with the
    # floor division of % 4 and // 4 there too
    rng = np.random.default_rng(29)
    for n in range(1, 9):
        for _ in range(20):
            d = int(rng.integers(0, 3 * n + 1))
            values = rng.integers(-3 * d - 9, 3 * d + 10, size=1 << n)
            values[0], values[-1] = -3 * d - 9, 3 * d + 9
            u = GroupElement(int(rng.integers(0, 1 << n)), n)
            u_in_set = bool(u.bits) and bool(rng.integers(0, 2))
            report = classify_congruences(
                Spectrum(n=n, d=d, values=values), u, u_in_set)
            shift = 2 if report.case == CASE_SUM_OUTSIDE else -2
            diff = np.where(report.odd, d + shift, d) - values
            assert (diff < 0).any() and (values < 0).any()
            np.testing.assert_array_equal(report.in_class, diff % 4 == 0)
            np.testing.assert_array_equal(report.k, diff // 4)
            _assert_matches_loop(Spectrum(n=n, d=d, values=values), u,
                                 u_in_set)
