"""Set enumeration, survey records, and report determinism."""

import functools
import hashlib
import itertools
import json
import math
import random
import tracemalloc
import types
from collections import Counter

import numpy as np
import pytest

from cubewalk import cli, graphwalk, jsontext, scanner, spectral
from cubewalk.bitspace import ConnectionSet, GroupElement, _mask_labels
from cubewalk.scanner import (EXHAUSTIVE_CAP, FILTERED_CAP, MASK_CAP,
                              EnumerationCapError, antipodality_audit,
                              audit_record, conjecture_scan, enumerate_sets,
                              scan_sets, transfer_record)

from oracles import all_sets, bfs_dist, xor


# ── enumeration ───────────────────────────────────────────────────────────

def test_enumeration_counts_and_order():
    for n in (1, 2, 3):
        got = list(enumerate_sets(n))
        assert len(got) == (1 << ((1 << n) - 1)) - 1
        masks = [sum(1 << (e - 1) for e in s.elements) for s in got]
        assert masks == sorted(masks)  # canonical ascending order
    assert len(list(enumerate_sets(4))) == 32767


def test_enumeration_u_filter():
    # the xor-sum-zero population is 2^(2^n - 1 - n) - 1
    for n, want in ((2, 1), (3, 15), (4, 2047)):
        got = list(enumerate_sets(n, u_zero=True))
        assert len(got) == want
        assert all(s.u.bits == 0 for s in got)


def test_enumeration_degree_filter_matches_brute_force():
    for d_min, d_max in ((2, 2), (1, 3), (4, 7), (3, None)):
        got = {s.elements for s in enumerate_sets(3, d_min=d_min,
                                                  d_max=d_max)}
        hi = d_max if d_max is not None else 7
        want = {s for s in all_sets(3) if d_min <= len(s) <= hi}
        assert got == want


def test_enumeration_combined_filters():
    got = list(enumerate_sets(3, d_min=2, d_max=4, u_zero=True))
    want = [s for s in all_sets(3) if 2 <= len(s) <= 4 and xor(s) == 0]
    assert [g.elements for g in got] == sorted(want, key=lambda s: sum(
        1 << (e - 1) for e in s))


def test_enumeration_caps():
    with pytest.raises(EnumerationCapError):
        list(enumerate_sets(EXHAUSTIVE_CAP + 1))
    with pytest.raises(EnumerationCapError,
                       match="holds 67108863 xor-sum-zero sets"):
        # the cap counts the sets the walk visits: a u filter prunes the
        # walk, but 2^26 - 1 xor-sum-zero sets at n = 5 are still too many
        list(enumerate_sets(EXHAUSTIVE_CAP + 1, u_zero=True))
    with pytest.raises(EnumerationCapError):
        list(enumerate_sets(FILTERED_CAP + 1, d_max=2))
    # the audit takes no window and no sample, so the survey loop itself
    # refuses it past EXHAUSTIVE_CAP, with the message the CLI prints
    for n in (EXHAUSTIVE_CAP + 1, FILTERED_CAP + 1):
        with pytest.raises(EnumerationCapError,
                           match=f"reaches n = {EXHAUSTIVE_CAP}; got n = {n}"):
            scanner._survey("antipodal-audit", n)
    # a degree window lifts the n=5 cap
    got = list(enumerate_sets(5, d_max=2))
    assert len(got) == 31 + math.comb(31, 2)


def test_cap_counts_the_sets_a_u_filter_keeps():
    # d <= 9 at n = 5 holds 31,621,023 sets, over the cap, but only
    # 988,156 of them have xor-sum 0, and the conjecture scan walks those
    with pytest.raises(EnumerationCapError, match="holds 31621023 sets,"):
        scan_sets(5, d_max=9)
    assert sum(scanner._xor_sum_zero_count(5, d)
               for d in range(1, 10)) == 988_156 <= MASK_CAP
    report = conjecture_scan(5, d_max=9)
    assert report.universe == 988_156 and report.violations == 0
    assert report.digest() == (
        "2cadb6feec6f234623186291a9ad6bed58c96cfcf1cbb84de83fd450ad11410c")


def _walked(n, lo, hi, u_zero):
    """The masks of ``_walk``, after checking its blocks: ascending, and
    ``WORD_ROWS`` masks in each but a shorter, nonempty last one."""
    blocks = list(scanner._walk(n, lo, hi, u_zero))
    assert all(b.dtype == np.int64 for b in blocks)
    assert [b.size for b in blocks[:-1]] == [scanner.WORD_ROWS] * (
        len(blocks) - 1)
    masks = np.concatenate(blocks) if blocks else np.zeros(0, np.int64)
    assert not blocks or 0 < blocks[-1].size <= scanner.WORD_ROWS
    assert (np.diff(masks) > 0).all()
    return masks.tolist()


def test_walk_matches_brute_force_up_to_n4():
    # every mask of the space, filtered by popcount and xor-sum
    for n in range(1, 5):
        width = (1 << n) - 1
        space = [(m, m.bit_count(), _xor_of_mask(m))
                 for m in range(1, 1 << width)]
        for lo, hi in {(1, width), (1, 1), (width, width), (2, 3),
                       (max(1, width // 2), width // 2 + 2)}:
            if lo > hi:
                continue
            for u_zero in (False, True):
                want = [m for m, d, u in space
                        if lo <= d <= hi and not (u_zero and u)]
                assert _walked(n, lo, hi, u_zero) == want, (n, lo, hi)


def test_walk_matches_combinations_at_n5():
    # the thin windows at both ends of the n = 5 space, where the walk
    # runs over every high chunk
    for lo, hi in ((1, 3), (2, 2), (28, 31), (30, 31)):
        combos = [c for d in range(lo, hi + 1)
                  for c in itertools.combinations(range(1, 32), d)]
        for u_zero in (False, True):
            want = sorted(sum(1 << (x - 1) for x in c) for c in combos
                          if not (u_zero and xor(c)))
            assert _walked(5, lo, hi, u_zero) == want, (lo, hi, u_zero)


def test_walk_pins_the_n5_xor_sum_zero_slice_below_2_26():
    # labels 1..26 only: the first 1,024 high chunks of the full n = 5
    # xor-sum-zero walk, 2^21 - 1 sets.  1,680 of them transfer, all at
    # pi/4, at d = 11, 12, 15, 16, 19 and 20 only
    scanned, degrees, times = 0, Counter(), set()
    for words in scanner._walk(5, 1, 31, True):
        if not (words := words[words < 1 << 26]).size:
            break
        scanned += words.size
        found = scanner._word_findings(5, words, False)
        if found is not None:
            degrees.update(np.count_nonzero(found.labels, axis=1).tolist())
            times.update(found.q.tolist())
            assert not found.u.any()
    assert scanned == 2_097_151
    assert times == {4}
    assert dict(degrees) == {11: 468, 12: 588, 15: 336, 16: 240, 19: 36,
                             20: 12}


def test_enumeration_bad_arguments():
    with pytest.raises(ValueError):
        list(enumerate_sets(3, d_min=0))
    with pytest.raises(ValueError):
        list(enumerate_sets(3, sample=0))


def test_enumeration_window_checked_before_walking():
    # an empty window is an error on the exhaustive path too
    with pytest.raises(ValueError, match="empty degree window"):
        next(enumerate_sets(3, d_min=5, d_max=2))
    # 2^31 - 1 masks at n = 5: refused on the first next(), before any set
    with pytest.raises(EnumerationCapError):
        next(enumerate_sets(5, d_min=1))
    assert sum(math.comb(31, d) for d in range(1, 9)) <= MASK_CAP
    assert next(enumerate_sets(5, d_max=8)).elements == (1,)
    assert next(enumerate_sets(5, d_min=3, d_max=3)).elements == (1, 2, 3)


def test_sampling_is_deterministic_and_filtered():
    first = [s.elements for s in enumerate_sets(10, sample=20, seed=5)]
    second = [s.elements for s in enumerate_sets(10, sample=20, seed=5)]
    assert first == second
    assert len({tuple(s) for s in first}) == 20
    other = [s.elements for s in enumerate_sets(10, sample=20, seed=6)]
    assert first != other


def test_sampling_honors_u_and_degree_filters():
    zero = list(enumerate_sets(6, u_zero=True, sample=30, seed=1))
    assert len(zero) == 30
    assert all(s.u.bits == 0 for s in zero)
    windowed = list(enumerate_sets(8, d_min=3, d_max=5, sample=25, seed=2))
    assert all(3 <= s.d <= 5 for s in windowed)
    both = list(enumerate_sets(6, d_min=2, d_max=6, u_zero=True,
                               sample=15, seed=3))
    assert all(s.u.bits == 0 and 2 <= s.d <= 6 for s in both)


def test_sampling_impossible_window():
    with pytest.raises(ValueError):
        list(enumerate_sets(4, d_min=9, d_max=2, sample=5))


class _UndrawableRandom:
    def __init__(self, seed):
        pass

    def __getattr__(self, name):
        raise AssertionError(f"drew from the RNG ({name})")


def test_unfillable_sample_refused_before_the_first_draw(monkeypatch):
    monkeypatch.setattr(scanner, "random",
                        types.SimpleNamespace(Random=_UndrawableRandom))
    # no xor-sum-zero set has fewer than 3 labels
    with pytest.raises(ValueError, match="xor-sum-zero"):
        next(enumerate_sets(5, u_zero=True, sample=200, d_max=2))
    # more sets asked for than the window holds: C(7,1) + C(7,2) = 28
    with pytest.raises(ValueError, match="28"):
        next(enumerate_sets(3, sample=29, d_max=2))
    with pytest.raises(ValueError, match="cannot draw"):
        next(enumerate_sets(2, sample=8))
    # a window that holds the sample exactly goes on to draw
    with pytest.raises(AssertionError, match="drew"):
        next(enumerate_sets(3, sample=28, d_max=2))
    monkeypatch.undo()
    assert len(list(enumerate_sets(3, sample=28, d_max=2))) == 28


def test_xor_sum_zero_count_matches_brute_force():
    for n in (1, 2, 3, 4):
        by_degree = [0] * (1 << n)
        for labels in all_sets(n):
            if xor(labels) == 0:
                by_degree[len(labels)] += 1
        assert [scanner._xor_sum_zero_count(n, d)
                for d in range(1, 1 << n)] == by_degree[1:], n
    assert sum(scanner._xor_sum_zero_count(5, d)
               for d in range(1, 32)) == 2 ** 26 - 1


def test_xor_sum_zero_sample_refused_by_its_population(monkeypatch):
    monkeypatch.setattr(scanner, "random",
                        types.SimpleNamespace(Random=_UndrawableRandom))
    for n, sample, window in ((4, 2048, {}), (3, 16, {}),
                              (4, 36, {"d_min": 3, "d_max": 3})):
        with pytest.raises(ValueError, match="xor-sum-zero"):
            next(enumerate_sets(n, u_zero=True, sample=sample, **window))
    # the population itself (2047, 15, 35 sets) goes on to draw
    for n, sample, window in ((4, 2047, {}), (3, 15, {}),
                              (4, 35, {"d_min": 3, "d_max": 3})):
        with pytest.raises(AssertionError, match="drew"):
            next(enumerate_sets(n, u_zero=True, sample=sample, **window))
    monkeypatch.undo()
    assert len(list(enumerate_sets(4, u_zero=True, sample=35, d_min=3,
                                   d_max=3))) == 35


def _xor_of_mask(mask):
    """The xor of a mask's labels, one label at a time."""
    acc = 0
    for label in _mask_labels(mask):
        acc ^= label
    return acc


def _reference_u_zero_draw(n, lo, hi, windowed, sample, seed):
    """The xor-sum-zero sample as drawn with ``_xor_of_mask``: the same
    RNG calls; unwindowed, the toggle of label u; windowed, d − 1 labels
    closed by their xor-sum u, drawn again when u is 0 or already drawn."""
    width = (1 << n) - 1
    rng = random.Random(seed)
    chosen = set()
    while len(chosen) < sample:
        if not windowed:
            mask = rng.randrange(1, 1 << width)
            u = _xor_of_mask(mask)
            if u:
                mask ^= 1 << (u - 1)
        else:
            d = rng.randint(lo, hi)
            mask = sum(1 << (label - 1)
                       for label in rng.sample(range(1, width + 1), d - 1))
            u = _xor_of_mask(mask)
            if not u or mask >> (u - 1) & 1:
                continue
            mask |= 1 << (u - 1)
        if lo <= mask.bit_count() <= hi:
            chosen.add(mask)
    return sorted(chosen)


def test_u_zero_draws_match_the_label_by_label_xor():
    # the xor-sum read off the label lanes, in bulk at n <= 6 and draw by
    # draw above, leaves every sampled mask where it was
    cases = [(5, 1, 31, False, 2000, seed) for seed in range(16)]
    cases += [(5, 3, 9, True, 300, 4), (8, 1, 255, False, 300, 0),
              (8, 1, 255, False, 300, 1), (8, 4, 40, True, 100, 2),
              (12, 1, 4095, False, 30, 0), (12, 1, 4095, False, 30, 5),
              (12, 10, 2000, True, 20, 3), (16, 1, 65535, False, 4, 1),
              (16, 1, 65535, False, 3, 6)]
    for n, lo, hi, windowed, sample, seed in cases:
        got = _masks(n, lo, hi, windowed, True, sample, seed)
        assert got == _reference_u_zero_draw(n, lo, hi, windowed, sample,
                                              seed), (n, seed)
        assert all(_xor_of_mask(mask) == 0 for mask in got)


def _masks(n, lo, hi, windowed, u_zero, sample, seed):
    """``_sampled_masks`` as a list of ints, checking that it comes as an
    int64 array exactly where every mask fits one."""
    got = scanner._sampled_masks(n, lo, hi, windowed, u_zero, sample, seed)
    if n <= scanner.INT64_CAP:
        assert isinstance(got, np.ndarray) and got.dtype == np.int64
        return got.tolist()
    assert isinstance(got, list)
    return got


def _plain_draw(n, sample, seed):
    """The unwindowed sample with no u filter, one randrange a draw."""
    rng = random.Random(seed)
    chosen = set()
    while len(chosen) < sample:
        chosen.add(rng.randrange(1, 1 << ((1 << n) - 1)))
    return sorted(chosen)


def test_bulk_draws_match_the_draw_by_draw_replay(monkeypatch):
    # every unwindowed case at n <= 6, where a draw takes one 32-bit word
    # of the stream up to n = 5 and two at n = 6, u = 0 or any: small
    # samples, samples that draw a mask twice and whole populations.  At
    # n <= 3 a batch almost surely holds the all-ones value that randrange
    # draws again; with 64 draws a batch the samples of 2000 take many
    # batches
    for batch in (scanner.DRAW_BATCH, 64):
        monkeypatch.setattr(scanner, "DRAW_BATCH", batch)
        for n in range(1, scanner.INT64_CAP + 1):
            width = (1 << n) - 1
            for u_zero in (False, True):
                population, _ = scanner._window_count(n, 1, width, u_zero)
                whole = population if population <= 2047 else 1
                for sample in sorted({1, 40, 2000, whole}):
                    if not 0 < sample <= population:
                        continue
                    for seed in (0, 1, 2):
                        want = (_reference_u_zero_draw(
                            n, 1, width, False, sample, seed) if u_zero
                            else _plain_draw(n, sample, seed))
                        assert _masks(n, 1, width, False, u_zero, sample,
                                      seed) == want, (n, u_zero, sample)
    # 2000 draws from the 32767 sets at n = 4 repeat some
    rng = random.Random(0)
    assert len({rng.randrange(1, 1 << 15) for _ in range(2000)}) < 2000


class _AllOnesOnce(random.Random):
    """random.Random whose first getrandbits call comes back with its
    lowest ``bits`` bits set: the first draw of a bulk batch is then the
    all-ones value that randrange draws again."""

    def __init__(self, seed, bits):
        self.calls, self.bits = 0, bits
        super().__init__(seed)

    def getrandbits(self, k):
        self.calls += 1
        got = super().getrandbits(k)
        return got | (1 << self.bits) - 1 if self.calls == 1 else got


def test_bulk_draw_drops_the_redraw_value(monkeypatch):
    # randrange draws again on the all-ones value, so the bulk draw drops
    # it and reads the next draw from the following words of the stream
    for n, words in ((5, 1), (6, 2)):
        width = (1 << n) - 1
        for u_zero in (False, True):
            monkeypatch.setattr(scanner, "random", types.SimpleNamespace(
                Random=lambda seed: _AllOnesOnce(seed, 32 * words)))
            got = _masks(n, 1, width, False, u_zero, 50, 3)
            monkeypatch.setattr(random, "Random", functools.partial(
                _AllOnesOnce, bits=width))
            want = (_reference_u_zero_draw(n, 1, width, False, 50, 3)
                    if u_zero else _plain_draw(n, 50, 3))
            monkeypatch.undo()
            assert got == want, (n, u_zero)
            assert got != (_reference_u_zero_draw(n, 1, width, False, 50, 3)
                           if u_zero else _plain_draw(n, 50, 3)), (n, u_zero)


def test_lanes_hold_the_labels_with_each_bit():
    for n in range(1, 13):
        assert scanner._lanes(n) == [
            sum(1 << (label - 1) for label in range(1, 2 ** n)
                if label >> b & 1)
            for b in range(n)], n


def test_lane_parities_give_the_xor_of_the_labels():
    # past the reach of the label-by-label oracle: a few hundred random
    # labels at n = 20 and 24, each mask's lane parities against the xor
    # of the labels that built it
    rng = random.Random(24)
    for n in (20, 24):
        lanes = scanner._lanes(n)
        for count in (1, 2, 300, 301):
            labels = rng.sample(range(1, 1 << n), count)
            mask = sum(1 << (label - 1) for label in labels)
            u = sum((mask & lane).bit_count() % 2 << b
                    for b, lane in enumerate(lanes))
            assert u == xor(labels), (n, count)


def test_xor_toggle_reaches_each_xor_sum_zero_set_2n_times():
    # the toggle is 2^n-to-one: a nonempty xor-sum-zero set S is reached
    # from S itself and from S with each of the 2^n - 1 labels toggled,
    # and the empty set, which the degree check draws again, from each
    # single label
    counts = Counter(scanner._xor_toggled(
        3, np.arange(1, 128, dtype=np.uint64)).tolist())
    zero = [mask for mask in range(128) if _xor_of_mask(mask) == 0]
    assert len(zero) == 16
    assert counts == {mask: 8 if mask else 7 for mask in zero}


def test_windowed_u_zero_sample_fills_a_one_degree_window():
    # a draw closed by its own xor-sum lands in the window every time; a
    # draw toggled by label u left it unless its xor-sum was already 0,
    # about one draw in 2^n, so at n = 14 it collected none
    for n, seed, sample in ((14, 0, 1), (14, 7, 50), (12, 0, 20)):
        masks = scanner._sampled_masks(n, 5, 5, True, True, sample, seed)
        assert len(set(masks)) == len(masks) == sample
        assert all(m.bit_count() == 5 and _xor_of_mask(m) == 0
                   for m in masks)
    report = conjecture_scan(14, d_min=5, d_max=5, sample=1)
    assert report.summary["sets_scanned"] == 1
    # every set of the window can be drawn: a sample of all of them
    window = sorted(sum(1 << (label - 1) for label in labels)
                    for labels in itertools.combinations(range(1, 32), 4)
                    if xor(labels) == 0)
    assert len(window) == scanner._xor_sum_zero_count(5, 4)
    assert _masks(5, 4, 4, True, True, len(window), 1) == window


# ── per-set records ───────────────────────────────────────────────────────

def test_transfer_record_known_set():
    record = transfer_record(ConnectionSet(3, (2, 1, 7)))
    assert record == {
        "omega": ["001", "010", "111"],
        "d": 3,
        "u": "100",
        "pst": [{"delta": "100", "time": "pi/2"}],
    }


def test_transfer_record_no_transfer():
    record = transfer_record(ConnectionSet(2, (1, 2, 3)))
    assert record["pst"] == []
    assert record["u"] == "00"
    # with no transfer the audit adds no geometry
    audit = audit_record(ConnectionSet(2, (1, 2, 3)))
    assert set(audit) == {"omega", "d", "u", "pst"}
    assert audit["pst"] == []


def test_audit_record_offset_inside_the_set():
    # transfer lands on a generator: one hop, far below the diameter
    record = audit_record(ConnectionSet(3, (1, 2, 3, 4)))
    assert record["u"] == "100"
    assert record["connected"] is True
    assert record["diameter"] == 2
    entry, = record["pst"]
    assert entry["delta"] == "100"
    assert entry["time"] == "pi/2"
    assert entry["distance"] == 1
    assert entry["antipodal"] is False
    assert entry["is_xor_sum"] is True
    assert record["violations"] == []
    # the n = 5 xor-sum-zero set that transfers at pi/4 lands on a
    # generator too, and that offset differs from the xor-sum
    fixture = ConnectionSet.parse("00001,00110,00111,01000,01001,01100,"
                                  "01101,10000,10001,10010,10011", 5)
    assert audit_record(fixture) == {
        "omega": ["00001", "00110", "00111", "01000", "01001", "01100",
                  "01101", "10000", "10001", "10010", "10011"],
        "d": 11,
        "u": "00000",
        "pst": [{"delta": "00001", "time": "pi/4", "distance": 1,
                 "antipodal": False, "is_xor_sum": False}],
        "connected": True,
        "diameter": 2,
        "violations": ["00001"],
    }


def test_audit_record_antipodal_case():
    record = audit_record(ConnectionSet(3, (1, 2, 4)))
    entry, = record["pst"]
    assert entry["delta"] == "111"
    assert entry["distance"] == 3
    assert entry["antipodal"] is True
    assert record["violations"] == []


# ── surveys ───────────────────────────────────────────────────────────────

def test_scan_small_dimensions():
    report = scan_sets(2)
    assert report.kind == "pst-scan"
    assert report.universe == 7
    assert report.summary["sets_with_pst"] == 6
    assert report.violations == 0
    assert len(report.findings) == 6
    # the one set left out is the xor-sum-zero triangle set
    quiet = {tuple(s.elements) for s in enumerate_sets(2)} - {
        tuple(int(x, 2) for x in f["omega"]) for f in report.findings}
    assert quiet == {(1, 2, 3)}


def test_conjecture_scan_is_empty_small():
    for n in (2, 3):
        report = conjecture_scan(n)
        assert report.kind == "conjecture-scan"
        assert report.findings == []
        assert report.violations == 0
        assert report.summary["counterexamples"] == 0
        assert report.filters["u"] == "zero"
        assert "evidence" in report.summary["note"]


def test_audit_summary_matches_independent_recount():
    report = antipodality_audit(3)
    # recompute every number in the summary from scratch
    sets_with = offsets = metric_non = disconnected = 0
    for labels in all_sets(3):
        omega = ConnectionSet(3, labels)
        u = xor(labels)
        found = transfer_record(omega)["pst"]
        if not found:
            continue
        sets_with += 1
        offsets += len(found)
        dist = bfs_dist(omega.elements, 0)
        ecc = max(dist.values())
        for entry in found:
            db = int(entry["delta"], 2)
            if dist[db] != ecc:
                metric_non += 1
        if len(dist) != 8:
            disconnected += 1
    assert report.summary["sets_scanned"] == 127
    assert report.summary["sets_with_pst"] == sets_with
    assert report.summary["offsets_checked"] == offsets
    assert report.summary["metric_non_antipodal"] == metric_non
    assert report.summary["disconnected_with_pst"] == disconnected
    assert report.violations == 0
    assert report.summary["violations"] == 0


def test_survey_records_equal_single_set_records():
    # the block engine and the one-set builders give the same report line
    for report, record_of in ((antipodality_audit(4), audit_record),
                              (scan_sets(5, d_min=3, d_max=3),
                               transfer_record)):
        assert report.findings
        for record in report.findings[::97]:
            omega = ConnectionSet.parse(",".join(record["omega"]), report.n)
            assert record_of(omega) == record


def test_sampled_block_records_equal_single_set_records():
    # every record of a sampled scan against the one-set builder: at n = 5
    # on the word tables, at n = 6 on the indicator path with a text for
    # every label, and at n = 10 with texts for the distinct labels only
    for n, kwargs, path in ((5, {"sample": 3000, "seed": 4}, "word-table"),
                            (6, {"sample": 400, "seed": 6}, "indicator-wht"),
                            (10, {"d_max": 12, "sample": 60, "seed": 10},
                             "indicator-wht")):
        report = scan_sets(n, **kwargs)
        assert report.path == path
        assert len(report.findings) > 50
        for record in report.findings:
            omega = ConnectionSet.parse(",".join(record["omega"]), n)
            assert transfer_record(omega) == record


def test_block_records_share_their_texts():
    # within a block one str per distinct label and one per distinct time:
    # every record that names a label holds the same object, in omega, u,
    # delta and violations alike, while its dicts and lists are its own
    for report in (antipodality_audit(4), conjecture_scan(5, sample=2000,
                                                          seed=3),
                   scan_sets(10, d_max=12, sample=60, seed=10)):
        findings = iter(report.findings)
        for block in report.blocks:
            records = list(itertools.islice(findings, len(block.u)))
            texts = {}
            for record in records:
                (entry,) = record["pst"]
                for text in (*record["omega"], record["u"], entry["delta"],
                             entry["time"], *record.get("violations", ())):
                    assert texts.setdefault(text, text) is text
            for key in ("omega", "pst"):
                assert len({id(r[key]) for r in records}) == len(records)
            assert len({id(r["pst"][0]) for r in records}) == len(records)


def test_audit_findings_fit_their_memory_bound():
    # the 30,720 records of the n = 4 audit, with their texts shared,
    # take about 21 MiB under tracemalloc; one text per record field
    # took 38.1 MiB
    report = antipodality_audit(4)
    tracemalloc.start()
    try:
        findings = report.findings
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(findings) == 30720
    assert size < 28 << 20, size


def test_reports_are_deterministic_and_digestible():
    first = antipodality_audit(3)
    second = antipodality_audit(3)
    assert first.canonical_json() == second.canonical_json()
    assert first.digest() == second.digest()
    want = hashlib.sha256(first.canonical_json().encode()).hexdigest()
    assert first.digest() == want
    assert "wall_time" not in first.canonical_json()


def test_payload_shape():
    report = conjecture_scan(2)
    payload = report.payload()
    assert set(payload) == {"kind", "n", "filters", "universe", "violations",
                            "summary", "findings"}
    # payload survives a JSON round trip unchanged
    assert json.loads(json.dumps(payload)) == payload


def test_sampled_scan_records_seed():
    report = scan_sets(6, sample=12, seed=9)
    assert report.filters["sample"] == 12
    assert report.filters["seed"] == 9
    assert report.summary["sets_scanned"] == 12
    assert report.summary["note"] == "sampled evidence only"
    again = scan_sets(6, sample=12, seed=9)
    assert report.canonical_json() == again.canonical_json()


PINNED_SURVEYS = [
    (antipodality_audit, 3, {},
     "124cd808ff1b7bbae63993c840465d27c4ce96384426b729ef35f8039004d409"),
    (conjecture_scan, 3, {},
     "d67bcb9e3fb7278baae9fd4272fbb2e9eca1b4b725cafa4a050d7f352a84e6b8"),
    (scan_sets, 4, {"d_min": 2, "d_max": 2},
     "310f7dfc85558a3b55d4761acf7b08a406de67ee633a344d58fad5688347e9ec"),
    (conjecture_scan, 5, {"sample": 2000, "seed": 3},
     "f50798dbcf4f203d87ac91bcb9569506ceb86b53b3d3aaf8637eb9962e879bef"),
    # these three span several blocks of the survey engine
    (antipodality_audit, 4, {},
     "6e798e7ab683202e1c906c8e5c5b468ffa73b3d0a0ed6f33ab715c01b2ecac6c"),
    (conjecture_scan, 4, {},
     "e5ed10aa482cfa44a6143d8d536b491a67a6ecedb8e78841aa93a19cd17ee410"),
    (scan_sets, 5, {"d_min": 3, "d_max": 3},
     "c7cf9e849bc5ce5e05d9419b99551c9ace385960154813ab0114a27dbe57d7ad"),
    # a windowed sample: a degree drawn first, then that many labels
    (scan_sets, 9, {"d_min": 3, "d_max": 200, "sample": 40, "seed": 8},
     "77bb01567acfe5ccaaa0b1ade6107e6367a82ceb19081ca5b11dfc50e9d85ff9"),
    # unwindowed xor-sum-zero samples drawn one at a time, past the bulk
    # draw's n <= 6: each mask toggled by its lane parities
    (conjecture_scan, 8, {"sample": 300, "seed": 0},
     "803072f8f2467f9799fdbf29975c56ee54afbaadae0f4276c58922ea65ba313c"),
    (conjecture_scan, 16, {"sample": 4, "seed": 1},
     "9ba0d8448ebb3eabf2c712b97bcc41555be1662396db7b480a98fc87b879fa98"),
]


@pytest.mark.parametrize("survey, n, kwargs, want", PINNED_SURVEYS)
def test_pinned_survey_digests(survey, n, kwargs, want):
    # payload bytes pinned from an earlier release; any drift is a change
    # in survey output, not in wall time
    assert survey(n, **kwargs).digest() == want


def test_word_tables_match_the_indicator_path():
    # the subset tables against the transform path they replace at n <= 5,
    # which stays the engine above it: spectra against _wht_rows of the
    # indicator rows, xor-sums against their xor-reduce, members against
    # the sorted indicator columns, and, where the audit reaches (n <= 4),
    # distances against the one-set BFS; every mask at n <= 4 (every fifth
    # for the distances at n = 4) and 20,000 random masks at n = 5
    rng = np.random.default_rng(16)
    for n in range(1, 6):
        width = (1 << n) - 1
        words = (np.arange(1, 1 << width, dtype=np.int64) if n <= 4 else
                 rng.integers(1, 1 << width, 20_000, dtype=np.int64))
        tables = scanner._word_tables(n)
        ind = scanner._indicators(words.tolist(), n)
        members = ind * np.arange(1 << n)
        degree = int(np.count_nonzero(members, axis=1).max())
        gens = np.sort(members, axis=1)[:, (1 << n) - degree:]
        assert np.array_equal(tables.spectra_of(words),
                              scanner._wht_rows(ind)), n
        assert np.array_equal(tables.xors_of(words),
                              np.bitwise_xor.reduce(members, axis=1)), n
        assert np.array_equal(tables.members_of(words), gens), n
        if n <= EXHAUSTIVE_CAP:
            some = words if n <= 3 else words[::5]
            want = [graphwalk._bfs(_mask_labels(mask), n)
                    for mask in some.tolist()]
            assert np.array_equal(tables.distances_of(some), want), n
    # n = 5 splits the 31 mask bits over two tables of at most 2^16 rows
    assert [len(t) for t in tables.spectra] == [1 << 16, 1 << 15]
    assert all(not t.flags.writeable for t in tables.spectra)


def test_surveys_up_to_n5_never_build_indicator_rows(monkeypatch):
    # at n <= 5 every survey runs on the word tables: no indicator
    # matrix, no WHT and no BFS, and the pinned digests still hold
    def banned(*args):
        raise AssertionError("the indicator path ran")

    for module, name in ((scanner, "_indicators"), (scanner, "_wht_rows"),
                         (spectral, "_wht_rows"), (graphwalk, "_bfs")):
        monkeypatch.setattr(module, name, banned)
    for survey, n, kwargs, want in PINNED_SURVEYS:
        if n <= FILTERED_CAP:
            report = survey(n, **kwargs)
            assert report.path == "word-table"
            assert report.digest() == want
    assert len(list(enumerate_sets(5, d_max=3, u_zero=True))) == 155
    # above n = 5 the same hooks fire: the indicator path is the engine
    with pytest.raises(AssertionError, match="indicator path"):
        scan_sets(6, sample=3, seed=1)


def _larger_surveys():
    # sampled, windowed and u = 0 surveys past the exhaustive caps, where
    # labels outgrow a mask word and blocks shrink to a few sets
    for n in range(6, 11):
        yield scan_sets(n, sample=24, seed=n)
        yield scan_sets(n, d_min=2, d_max=n + 1, sample=24, seed=n)
        yield scan_sets(n, d_min=n + 2, d_max=4 * n, sample=24, seed=n)
        yield conjecture_scan(n, sample=24, seed=n)
    # one set per block: findings with thousands of labels each
    yield scan_sets(14, sample=2, seed=14)
    yield scan_sets(14, d_max=12000, sample=2, seed=14)
    yield conjecture_scan(14, sample=2, seed=14)


def test_survey_digest_renders_from_columns():
    reports = [survey(n, **kwargs) for survey, n, kwargs, _ in PINNED_SURVEYS]
    reports += _larger_surveys()
    empty = conjecture_scan(3)
    for report in reports + [empty]:
        # rendered first, from the columns; the records are read after,
        # from the same columns, as json.loads reads the text
        text, digest = report.canonical_json(), report.digest()
        want = jsontext.canonical_dumps(report.payload())
        assert text == want
        assert report.payload() == json.loads(text)
        assert digest == hashlib.sha256(want.encode()).hexdigest()
    assert sum(len(r.findings) for r in reports[len(PINNED_SURVEYS):]) > 300
    plain, windowed, u_zero = reports[-3:]
    assert min(f["d"] for r in (plain, windowed) for f in r.findings) > 1000
    assert u_zero.universe == 2  # every toggled draw has xor-sum 0
    assert empty.findings == []


def test_audit_columns_render_a_violation():
    # one audit row whose offset is not its xor-sum: the n = 5 set with
    # xor-sum 0 that transfers 0 -> 00001 at pi/4 (tests/test_pst.py),
    # past the audit's reach, with its geometry from bfs_profile
    omega = ConnectionSet.parse("00001,00110,00111,01000,01001,01100,"
                                "01101,10000,10001,10010,10011", 5)
    profile = graphwalk.bfs_profile(omega, GroupElement.zero(5))
    block = scanner._Findings(
        5, np.array([omega.elements]), np.array([0]), np.array([1]),
        np.array([4]), np.array([profile.connected]),
        np.array([profile.diameter]), np.array([profile.dist[1]]))
    records = jsontext.Rows(scanner._skeleton(True), [block.columns]).values()
    assert records == [audit_record(omega)]
    assert records[0]["pst"][0]["distance"] == 1
    assert records[0]["diameter"] == 2
    assert records[0]["violations"] == ["00001"]
    assert records[0]["violations"][0] is records[0]["pst"][0]["delta"]
    rows = jsontext.Rows(scanner._skeleton(True), [block.columns])
    got = b"".join(jsontext.dumps({"findings": rows}))
    assert got.decode() == jsontext.canonical_dumps({"findings": records})


def test_each_block_builds_its_columns_once(monkeypatch, capsys):
    # the CLI renders a survey once, its digest taken as it writes, from
    # one set of token columns per block
    built = []
    build = scanner._Findings.columns.func

    def counting(block):
        built.append(block)
        return build(block)

    columns = functools.cached_property(counting)
    columns.__set_name__(scanner._Findings, "columns")
    monkeypatch.setattr(scanner._Findings, "columns", columns)
    for argv, survey in ((["scan", "--n", "4"], scan_sets),
                         (["audit-antipodal", "--n", "4"],
                          antipodality_audit)):
        built.clear()
        assert cli.main(argv) == 0
        capsys.readouterr()
        blocks = len(survey(4).blocks)
        assert blocks > 1 and len(built) == blocks, argv
        assert len({id(block) for block in built}) == blocks, argv
    # and a report keeps them across renderings
    built.clear()
    report = antipodality_audit(4)
    assert report.canonical_json() and report.digest() == PINNED_SURVEYS[4][3]
    assert len(built) == len(report.blocks)


def test_survey_builds_no_record_until_read(monkeypatch):
    def built(*args, **kwargs):
        raise AssertionError("a record was built before findings was read")

    monkeypatch.setattr(jsontext.Rows, "values", built)
    audit = antipodality_audit(4)
    audit.digest()
    scan = scan_sets(5, d_min=3, d_max=3)
    scan.digest()
    assert audit.summary["sets_with_pst"] == 30720
    assert scan.summary["sets_with_pst"] > 0
    with pytest.raises(AssertionError, match="record was built"):
        scan.findings
    # the CLI writes its document and digest from the columns as well
    monkeypatch.setattr(scanner.ScanReport, "payload", built)
    monkeypatch.setattr(scanner.ScanReport, "digest", built)
    for argv in (["audit-antipodal", "--n", "3"],
                 ["scan", "--n", "3", "--u-zero"]):
        assert cli.main(argv) == 0
