"""Surveys over the space of connection sets at one dimension.

Sets are enumerated as bitmasks over the 2ⁿ−1 nonzero labels: bit j of a
mask means label j+1 is a member, and masks run in ascending numeric
order, so every survey visits sets in one canonical order.  An exhaustive
walk is allowed up to n = 5 when it visits at most ``MASK_CAP`` = 2²⁴
sets.  The walk makes only the sets its filters admit, so the cap counts
those: every window at n ≤ 4 (32767 sets unfiltered), windows such as
d ≤ 8 at n = 5, whose raw space holds 2³¹ − 1 sets, and xor-sum-zero
windows such as d ≤ 9 there (xor-sum-zero sets are counted exactly, by a
character sum).  The sets are counted before anything is walked.  Beyond
that only sampling is offered; a sample larger than the number of sets
its filters admit is refused before the first draw.  The antipodality
audit takes neither a window nor a sample, so it stops at n = 4
(``EXHAUSTIVE_CAP``).

Every argument is checked before anything is allocated.  The masks then
come in blocks, from one walk (``_walk``) or from the sorted sample, and
go through the survey on one of two paths (``ScanReport.path``), each
ending in one transfer decision per row (``pst._decide_rows``):

  * "word-table" serves every survey at n ≤ 5 (``FILTERED_CAP``).
    Read-only subset tables, built once per n by doubling over the labels
    (``_WordTables``), give each mask's spectrum, xor-sum, members and,
    for the audit, distances from 0, in place of the indicator matrix,
    the WHT and the BFS.  The walk and the tables split a mask into a low
    16-bit chunk and one high chunk, so they stop at 31 bits, though a
    mask fits one int64 through n = 6 (``INT64_CAP``).
  * "indicator-wht" serves the sampled surveys at n ≥ 6, past the audit's
    reach: per block the indicator matrix and the Walsh-Hadamard
    butterfly along its rows.

A sample is drawn from ``random.Random(seed)``.  Where its masks fit one
int64 (n ≤ ``INT64_CAP`` = 6) and no degree window is set, the draws are
taken in bulk (``_bulk_draws``): the 32-bit words of ``DRAW_BATCH`` draws
in one ``getrandbits`` call, read as the masks ``randrange`` would make
of them, with the u-toggle, the degree check and the duplicates done by
numpy passes.  The sample is the one drawn mask by mask, and comes as a
sorted int64 array at n ≤ 6 on both paths.  Both draws find a mask's
xor-sum by one rule, the parities of its members in the label lanes
(``_lanes``).

The sets that transfer stay in per-block numpy columns (``_Findings``),
and the summary counters are read off them.  A block's token columns are
built once and index one table of label texts, so the digest and the
CLI's document render the findings as ``jsontext.Rows`` bytes, with no
per-set dict or string.  The layout of a finding is written once, in
``_skeleton`` and ``_Findings.columns``: ``ScanReport.findings`` is read
back from those columns on first read (``jsontext.Rows.values``), and
``transfer_record`` and ``audit_record`` read one set the same way, from
a one-row block.  A cubelike graph transfers from 0 to at most one offset
(Cheung and Godsil, 2011), so a record carries the set's one offset, or
none.

One survey loop serves three report kinds, and the report keeps the sets
that admit PST.  The pst scan is the general survey.  The conjecture scan
walks sets with xor-sum 0 and asks the exact decision procedure for any
transfer offset at all; a hit is a counterexample to the rule that such
sets never admit PST.  The rule holds at n ≤ 4 and fails from n = 5 on:
the xor-sum-zero set
00001,00110,00111,01000,01001,01100,01101,10000,10001,10010,10011 transfers
0 → 00001 at π/4 (a regression fixture in tests/test_pst.py).  The
antipodality audit examines every transfer offset found at a dimension,
in both senses the word "antipodal" gets used for these graphs:

  * the metric sense, distance(0, δ) equal to the diameter.  This reading
    is refuted outright by the data: {001,010,011,100} transfers to its
    xor-sum 100, a generator, at distance 1 in a diameter-2 graph, and
    most sets with a xor-sum inside the set behave the same way.  The
    audit records distance, diameter and the metric flag for every
    offset so the counts stay visible.
  * the structural sense, δ reachable by a walk through all generators,
    i.e. δ = u.  Every transfer offset at n ≤ 4 satisfies it; from n = 5
    on it fails, as the xor-sum-zero fixture above shows.  Offsets with
    δ ≠ u are the audit's violations and drive the nonzero exit code.

Every report carries empirical weight only: an exhaustive pass at small n
proves nothing about larger n.  Reports split into a deterministic payload
(findings, counters read off them, and a sha256 digest over the canonical
JSON) and volatile run metadata, so re-runs compare digest to digest.
"""

from __future__ import annotations

import json
import math
import random
import time as _time
from dataclasses import dataclass, field
from functools import cache, cached_property, partial, reduce
from operator import xor
from typing import Iterator

import numpy as np

from .bitspace import (ConnectionSet, GroupElement, _check_dimension,
                       _mask_labels)
from .dynamics import RationalAngle
from .graphwalk import bfs_profile
from .jsontext import (Members, Rows, Tokens, binary_texts, booleans,
                       digest, dumps, numbers, pick, slots)
from .pst import _decide_rows, pst_offsets
from .spectral import _wht_rows, character_bits

EXHAUSTIVE_CAP = 4  # largest n whose whole space fits under MASK_CAP;
# the antipodality audit, which takes no window, stops there
FILTERED_CAP = 5
MASK_CAP = 1 << 24
INT64_CAP = 6  # largest n whose masks, 2ⁿ − 1 bits, fit one int64
# Draws per batch of the bulk sampler: its words, masks and scratch take
# a few MB at most, however large the sample.  The sample itself is one
# int64 array, merged in place.
DRAW_BATCH = 1 << 16
# Indicator entries per block of the indicator path: 128 sets at n = 6,
# one set from n = 13 on.  Each int64 array of a block then takes 64 KB
# below n = 14; blocks 16 times larger ran no faster and raised peak memory.
BLOCK_CELLS = 1 << 13


class EnumerationCapError(ValueError):
    """The requested enumeration is too large to walk exhaustively."""


# ── enumeration ───────────────────────────────────────────────────────────

def _lanes(n: int) -> list[int]:
    """The n lanes of the masks at n: lane b is the mask of the labels
    with bit b set, and bit b of a mask's xor-sum is the parity of its
    members in lane b.

    Built by doubling: from k to k + 1 bits, label 2ᵏ + l sits 2ᵏ bits
    above label l, and lane k holds the 2ᵏ labels from 2ᵏ on.  At n = 24
    the lanes take 48 MB, so none is kept past the call.
    """
    lanes: list[int] = []
    for k in range(n):
        half = 1 << k
        lanes = [lane | lane << half for lane in lanes]
        lanes.append(((1 << half) - 1) << (half - 1))
    return lanes


def _xor_sum_zero_count(n: int, d: int) -> int:
    """Number of d-label sets with xor-sum 0 among the N = 2ⁿ − 1 labels.

    A character sum gives (C(N, d) + N·[xᵈ](1+x)^(M−1)(1−x)^M) / 2ⁿ with
    M = 2ⁿ⁻¹, and (1+x)^(M−1)(1−x)^M = (1−x)(1−x²)^(M−1).  It is 0 below d = 3.
    """
    width, k = (1 << n) - 1, d // 2
    twisted = (-1) ** (k + d % 2) * math.comb((1 << (n - 1)) - 1, k)
    return (math.comb(width, d) + width * twisted) >> n


def _window_count(n: int, lo: int, hi: int, u_zero: bool,
                  stop: float = math.inf) -> tuple[int, str]:
    """How many sets the degree window [lo, hi] holds, and what they are.

    The count stops at the first degree where it reaches ``stop``: a
    sample at n = 20 needs a few binomials, not the window's 10⁶.
    """
    width, count = (1 << n) - 1, 0
    for d in range(lo, hi + 1):
        count += _xor_sum_zero_count(n, d) if u_zero else math.comb(width, d)
        if count >= stop:
            break
    return count, "xor-sum-zero sets" if u_zero else "sets"


def _sampled_masks(n: int, lo: int, hi: int, windowed: bool, u_zero: bool,
                   sample: int, seed: int) -> np.ndarray | list[int]:
    """Distinct masks matching the filters, ascending, seed-deterministic:
    an int64 array at n ≤ ``INT64_CAP``, where every mask fits one, else a
    list of ints.

    With no degree filter the draw is uniform over the filtered space.
    The xor-sum-zero case toggles label u, the xor-sum of the drawn mask,
    which zeroes it: every nonempty xor-sum-zero set S is reached from S
    itself and from S ⊕ {v} for each of the 2ⁿ − 1 labels v, 2ⁿ draws
    each, and ∅, reached from each single label, is drawn again.  One
    rule finds u, in bulk and draw by draw: bit b of u is the parity of
    the mask's members in lane b (``_lanes``), and the mask is toggled
    by ``1 << u >> 1``, which is 0 when u is.  With a degree filter the
    draw is stratified: a degree d first, then a uniform set of that size.
    A xor-sum-zero set of size d is drawn closed: d − 1 labels, then their
    xor-sum u as the last label, drawn again when u is 0 or already drawn.
    Each such set comes from exactly d draws of d − 1 labels, so the draw
    is uniform within its degree.  A request the window cannot hold is
    refused before the first draw.

    Unwindowed draws at n ≤ ``INT64_CAP`` are taken in bulk
    (``_bulk_draws``), from the same stream and with the same result; the
    rest are drawn one at a time (``_draws``).
    """
    if sample < 1:
        raise ValueError(f"sample size must be positive, got {sample}")
    room, kind = _window_count(n, lo, hi, u_zero, sample)
    if room < sample:
        raise ValueError(
            f"cannot draw {sample} distinct sets from the {room} {kind} in "
            f"the degree window [{lo}, {hi}] at n = {n}")
    rng = random.Random(seed)
    cap = 10_000 * sample
    if not windowed and n <= INT64_CAP:
        chosen = _bulk_draws(rng, n, u_zero, sample, cap)
    else:
        chosen = _draws(rng, n, lo, hi, windowed, u_zero, sample, cap)
    if len(chosen) < sample:
        raise ValueError(
            f"could not collect {sample} sets matching the filters at "
            f"n = {n} (got {len(chosen)})")
    return np.asarray(chosen, np.int64) if n <= INT64_CAP else chosen


def _draws(rng: random.Random, n: int, lo: int, hi: int, windowed: bool,
           u_zero: bool, sample: int, cap: int) -> list[int]:
    """The draws of ``_sampled_masks`` one at a time, at most ``cap`` of
    them: the distinct masks drawn, ascending."""
    width = (1 << n) - 1
    lanes = _lanes(n) if u_zero and not windowed else []
    chosen: set[int] = set()
    attempts = 0
    while len(chosen) < sample and attempts < cap:
        attempts += 1
        if windowed:
            d = rng.randint(lo, hi)
            digits = bytearray(b"0" * width)  # the mask's binary digits
            labels = rng.sample(range(1, width + 1), d - 1 if u_zero else d)
            for label in labels:
                digits[-label] = ord("1")
            if u_zero:
                # the xor-sum u of the d − 1 labels closes the set
                u = reduce(xor, labels, 0)
                if not u or digits[-u] == ord("1"):
                    continue
                digits[-u] = ord("1")
            mask = int(digits, 2)
        else:
            mask = rng.randrange(1, 1 << width)
            if u_zero:
                u = 0
                for lane in reversed(lanes):  # bit b: the parity in lane b
                    u = u << 1 | (mask & lane).bit_count() & 1
                mask ^= 1 << u >> 1  # toggling label u zeroes the xor-sum
                if not mask:
                    continue
        chosen.add(mask)
    return sorted(chosen)


def _bulk_draws(rng: random.Random, n: int, u_zero: bool, sample: int,
                cap: int) -> np.ndarray:
    """The unwindowed draws of ``_sampled_masks`` at n ≤ ``INT64_CAP``,
    ``DRAW_BATCH`` at most at a time, and at most ``cap`` of them: the
    distinct masks drawn, ascending.

    ``randrange(1, 2ʷ)`` over the w = 2ⁿ − 1 label bits is
    ``getrandbits(w) + 1``, with ``getrandbits(w)`` called again when the
    bits are all ones.  ``getrandbits(w)`` takes c = ⌈w/32⌉ 32-bit words
    of the stream, low word first, and shifts the top one right by
    32c − w; one ``getrandbits(32·c·N)`` takes the words of N calls, in
    order.  So the draws are the c-word chunks of the stream with the
    all-ones chunks dropped.  The u-toggle, the degree check (with no
    window, it drops only ∅) and the first occurrence of each mask are
    numpy passes over a batch, which stops counting at the mask that
    fills the sample.
    """
    width = (1 << n) - 1
    words = -(-width // 32)
    ones = np.uint64((1 << width) - 1)
    top = np.uint64(32 * words - width)
    # out[:held] holds the masks so far, in sorted runs of distinct masks
    # that begin at starts, each more than twice as long as the next: a
    # mask is merged O(log sample) times, by timsort, in place
    out = np.empty(sample, np.int64)
    starts: list[int] = []
    held = drawn = 0
    while held < sample and drawn < cap:
        need = sample - held
        count = min(DRAW_BATCH, need + need // 8 + 32)
        raw = np.frombuffer(rng.getrandbits(32 * words * count).to_bytes(
            4 * words * count, "little"), "<u4").reshape(count, words)
        bits = raw[:, -1].astype(np.uint64) >> top
        if words == 2:
            bits = bits << np.uint64(32) | raw[:, 0]
        bits = bits[bits != ones][:cap - drawn]
        drawn += len(bits)
        masks = bits + np.uint64(1)
        if u_zero:
            masks = _xor_toggled(n, masks)
            masks = masks[masks != 0]
        fresh, first = np.unique(masks.view(np.int64), return_index=True)
        for begin, end in zip(starts, starts[1:] + [held]):
            run = out[begin:end]
            at = np.minimum(np.searchsorted(run, fresh), len(run) - 1)
            new = run[at] != fresh
            fresh, first = fresh[new], first[new]
        if len(fresh) > need:  # the need masks drawn first
            fresh = fresh[first <= np.partition(first, need - 1)[need - 1]]
        if len(fresh):
            starts.append(held)
            out[held:held + len(fresh)] = fresh
            held += len(fresh)
        while (len(starts) > 1
               and starts[-1] - starts[-2] <= 2 * (held - starts[-1])):
            del starts[-1]
            out[starts[-1]:held].sort(kind="stable")
    out[:held].sort(kind="stable")
    return out[:held]


def _xor_toggled(n: int, masks: np.ndarray) -> np.ndarray:
    """Each uint64 mask at n ≤ ``INT64_CAP`` with label u toggled, u its
    xor-sum (none when u = 0), so that every xor-sum is 0."""
    u = np.zeros_like(masks)
    for b, lane in enumerate(_lanes(n)):
        u |= (np.bitwise_count(masks & np.uint64(lane)) & 1).astype(
            np.uint64) << np.uint64(b)
    return masks ^ (np.uint64(1) << u) >> np.uint64(1)


def _mask_blocks(n: int, *, d_min: int | None, d_max: int | None,
                 u_zero: bool, sample: int | None,
                 seed: int) -> Iterator[np.ndarray | list[int]]:
    """The masks a survey walks, ascending, in blocks of its path's rows,
    after every argument is checked: int64 arrays at n ≤ ``INT64_CAP``,
    lists of ints above.

    An exhaustive survey walks the sets its filters admit (``_walk``); a
    sample is drawn with the filters applied.
    """
    _check_dimension(n)
    for bound in (d_min, d_max):
        if bound is not None and bound < 1:
            raise ValueError("degree bounds must be at least 1")
    width = (1 << n) - 1
    lo = d_min if d_min is not None else 1
    hi = min(width, d_max if d_max is not None else width)
    if lo > hi:
        raise ValueError(f"empty degree window [{lo}, {hi}] at n = {n}")
    if sample is None:
        if n > FILTERED_CAP:
            raise EnumerationCapError(
                f"exhaustive enumeration stops at n = {FILTERED_CAP}; "
                f"use sampling for n = {n}")
        count, kind = _window_count(n, lo, hi, u_zero)
        if count > MASK_CAP:
            raise EnumerationCapError(
                f"degree window [{lo}, {hi}] at n = {n} holds {count} "
                f"{kind}, over the 2^24 cap; narrow the window or sample")
        return _walk(n, lo, hi, u_zero)
    windowed = d_min is not None or d_max is not None
    masks = _sampled_masks(n, lo, hi, windowed, u_zero, sample, seed)
    rows = WORD_ROWS if n <= FILTERED_CAP else max(1, BLOCK_CELLS >> n)
    return (masks[at:at + rows] for at in range(0, len(masks), rows))


# ── the word path: subset tables at n ≤ FILTERED_CAP ─────────────────────
# Every mask an exhaustive walk reaches fits one int64.

CHUNK_BITS = 16  # mask bits per subset table, 2¹⁶ rows at most
# Masks per word-path block: an int8 spectrum block takes 128 KB at n = 4
# and 256 KB at n = 5.  A block's findings render through one uint8 matrix
# of at most ``jsontext.CHUNK`` rows, whatever the block size, so larger
# blocks cost no rendering memory and cut the per-block numpy calls.
WORD_ROWS = 1 << 13


def _subset_table(first: np.ndarray, labels: list[int], extend) -> np.ndarray:
    """Row m holds the value of the subset of ``labels`` picked by the bits
    of m: row 0 is ``first``, and rows 2ʲ..2ʲ⁺¹−1 are rows 0..2ʲ−1 with
    label j added, written in place by ``extend(rows, label, out)``."""
    table = np.empty((1 << len(labels), *first.shape), dtype=first.dtype)
    table[0] = first
    for j, w in enumerate(labels):
        extend(table[:1 << j], w, table[1 << j:2 << j])
    table.flags.writeable = False
    return table


@dataclass(frozen=True, eq=False)
class _WordTables:
    """Read-only subset tables of the masks at one dimension n ≤ FILTERED_CAP.

    The mask bits are split into chunks of at most ``CHUNK_BITS`` at
    ``shifts``, one at n ≤ 4 and two at n = 5, with one table row per
    subset of a chunk's labels (1 MB at n = 4, 4.6 MB at n = 5).  A mask
    joins its chunks' rows: spectra add, xor-sums xor, members merge.  The
    audit's distances, 0.5 MB more at n = 4, are one table: the audit
    stops at ``EXHAUSTIVE_CAP``, where a mask is one chunk.
    """

    n: int

    @cached_property
    def shifts(self) -> tuple[int, ...]:
        return tuple(range(0, (1 << self.n) - 1, CHUNK_BITS))

    def _tables(self, first: np.ndarray, extend) -> tuple[np.ndarray, ...]:
        width = (1 << self.n) - 1
        return tuple(
            _subset_table(first, list(range(shift + 1, min(
                shift + CHUNK_BITS, width) + 1)), extend)
            for shift in self.shifts)

    @cached_property
    def spectra(self) -> tuple[np.ndarray, ...]:
        """int8 spectra: adding label w adds the character row χ_w.  At
        n ≤ 5, |λ_v| ≤ d ≤ 31 and every gap d − λ_v ≤ 62, so int8 holds
        the sum of two chunks and the decision's gaps."""
        size = 1 << self.n
        chi = np.array([np.where(character_bits(self.n, w), -1, 1)
                        for w in range(size)], dtype=np.int8)
        return self._tables(np.zeros(size, dtype=np.int8),
                            lambda rows, w, out: np.add(rows, chi[w],
                                                        out=out))

    @cached_property
    def xors(self) -> tuple[np.ndarray, ...]:
        """uint8 xor-sums."""
        return self._tables(np.zeros((), dtype=np.uint8), np.bitwise_xor)

    @cached_property
    def members(self) -> tuple[np.ndarray, ...]:
        """uint8 labels, ascending and right-aligned in ``CHUNK_BITS``
        columns, 0 on the left: label w, the largest yet, goes last."""
        def extend(rows, w, out):
            out[:, :-1] = rows[:, 1:]
            out[:, -1] = w

        return self._tables(np.zeros(CHUNK_BITS, dtype=np.uint8), extend)

    @cached_property
    def distances(self) -> np.ndarray:
        """int8 distances from 0, n + 1 where unreached, one row per mask
        at n ≤ ``EXHAUSTIVE_CAP``.  A shortest walk in Z₂ⁿ uses each label
        at most once, so adding label w gives D'(x) = min(D(x), D(x ⊕ w)
        + 1)."""
        first = np.full(1 << self.n, self.n + 1, dtype=np.int8)
        first[0] = 0
        labels = np.arange(1 << self.n)
        (table,) = self._tables(first, lambda rows, w, out: np.minimum(
            rows, rows[:, labels ^ w] + 1, out=out))
        return table

    def _gather(self, tables: tuple[np.ndarray, ...],
                words: np.ndarray) -> list[np.ndarray]:
        return [table.take((words >> shift) & ((1 << CHUNK_BITS) - 1),
                           axis=0)
                for table, shift in zip(tables, self.shifts)]

    def spectra_of(self, words: np.ndarray) -> np.ndarray:
        """The int8 (rows × 2ⁿ) spectra of the sets of ``words``, in
        Fortran order: the decision reduces over v, and each reduction
        step then runs along one contiguous column."""
        first, *rest = self._gather(self.spectra, words)
        for more in rest:
            first += more
        return np.asfortranarray(first)

    def xors_of(self, words: np.ndarray) -> np.ndarray:
        """The xor-sums of the sets of ``words``, as uint8."""
        first, *rest = self._gather(self.xors, words)
        for more in rest:
            first ^= more
        return first

    def members_of(self, words: np.ndarray) -> np.ndarray:
        """The labels of each set of ``words``, ascending, padded on the
        left with 0 to the largest degree among them."""
        gens = np.hstack(self._gather(self.members, words))
        if len(self.shifts) > 1:
            gens.sort(axis=1)
        return gens[:, gens.shape[1] - int(np.bitwise_count(words).max()):]

    def distances_of(self, words: np.ndarray) -> np.ndarray:
        """The (rows × 2ⁿ) distances from 0 of the sets of ``words``, -1
        where unreached, in Fortran order: the audit reduces each set's
        2ⁿ distances, and each reduction step then runs along one
        contiguous column of all the sets."""
        dists = np.ascontiguousarray(self.distances.take(words, axis=0).T)
        np.copyto(dists, -1, where=dists > self.n)
        return dists.T


_word_tables = cache(_WordTables)  # one read-only set per n = 1..5


def _walk(n: int, lo: int, hi: int, u_zero: bool) -> Iterator[np.ndarray]:
    """Every mask at n ≤ ``FILTERED_CAP`` of popcount in [lo, hi], and of
    xor-sum 0 under ``u_zero``, ascending, in int64 blocks of ``WORD_ROWS``
    masks, the last one possibly short.

    A mask is a high chunk h (labels 17–31, none at n ≤ 4) over a low
    chunk.  For each h of popcount at most hi, ascending, the low chunks
    that complete it are one table entry, keyed by h's popcount and, under
    ``u_zero``, its xor-sum, and built on first use.  So no mask outside
    the filters is ever made, and none is merged, filtered or sorted.
    """
    low_xors, *high_xors = _word_tables(n).xors
    high_xors = high_xors[0] if high_xors else np.zeros(1, dtype=np.uint8)
    highs = np.flatnonzero(np.bitwise_count(np.arange(high_xors.size)) <= hi)
    lows = np.arange(low_xors.size, dtype=np.int64)
    weights = np.bitwise_count(lows).astype(np.int8)  # lo − k may be < 0

    @cache  # per walk: a window's table dies with its walk
    def completion(k: int, u: int) -> np.ndarray:
        fits = (lo - k <= weights) & (weights <= hi - k)
        return lows[fits & (low_xors == u) if u_zero else fits]

    tops, pending, held = [], [], 0
    for h in highs.tolist():
        low = completion(h.bit_count(), int(high_xors[h]) if u_zero else 0)
        tops.append(h << CHUNK_BITS)
        pending.append(low)
        held += low.size
        if held >= WORD_ROWS:
            # one repeat adds the held high chunks: a numpy call per h
            # would cost more than the rest of the walk
            words = np.concatenate(pending)
            words |= np.repeat(tops, [low.size for low in pending])
            cut = held - held % WORD_ROWS
            yield from np.split(words[:cut], cut // WORD_ROWS)
            # the rest already carries its high chunks
            tops, pending, held = [0], [words[cut:]], held - cut
    if held:
        words = np.concatenate(pending)
        words |= np.repeat(tops, [low.size for low in pending])
        yield words


def _word_findings(n: int, words: np.ndarray,
                   audit: bool) -> _Findings | None:
    """The sets of one word block that transfer, from the subset tables;
    the audit adds their distance geometry."""
    tables = _word_tables(n)
    delta, g = _decide_rows(tables.spectra_of(words))
    if not (hits := np.flatnonzero(delta)).size:
        return None
    words, delta = words[hits], delta[hits]
    geometry = ()
    if audit:
        dists = tables.distances_of(words)
        geometry = ((dists >= 0).all(axis=1), dists.max(axis=1),
                    dists[np.arange(delta.size), delta])
    return _Findings(n, tables.members_of(words), tables.xors_of(words),
                     delta, g[hits], *geometry)


# ── the indicator path: sampled surveys at n > FILTERED_CAP ──────────────

def _indicators(masks: np.ndarray | list[int], n: int) -> np.ndarray:
    """The (rows × 2ⁿ) 0/1 indicator matrix of an int64 array of masks
    (n ≤ ``INT64_CAP``) or a list of them."""
    width = (1 << n) - 1
    if isinstance(masks, np.ndarray):
        raw = masks.astype("<i8").view(np.uint8).reshape(len(masks), 8)
    else:
        nbytes = (width + 7) // 8
        raw = np.frombuffer(b"".join(m.to_bytes(nbytes, "little")
                                     for m in masks), dtype=np.uint8
                            ).reshape(len(masks), nbytes)
    bits = np.unpackbits(raw, axis=1, count=width, bitorder="little")
    ind = np.zeros((len(masks), width + 1), dtype=np.int64)
    ind[:, 1:] = bits
    return ind


def _indicator_findings(n: int, masks: np.ndarray | list[int]
                        ) -> _Findings | None:
    """The sets of one block of masks that transfer, from the WHT of their
    indicator rows."""
    ind = _indicators(masks, n)
    delta, g = _decide_rows(_wht_rows(ind))
    if not (hits := np.flatnonzero(delta)).size:
        return None
    members = ind[hits] * np.arange(1 << n)  # each label in its column
    degree = int(np.count_nonzero(members, axis=1).max())
    gens = np.sort(members, axis=1)[:, members.shape[1] - degree:]
    return _Findings(n, gens, np.bitwise_xor.reduce(gens, axis=1),
                     delta[hits], g[hits])


def enumerate_sets(n: int, *, d_min: int | None = None,
                   d_max: int | None = None, u_zero: bool = False,
                   sample: int | None = None,
                   seed: int = 0) -> Iterator[ConnectionSet]:
    """Connection sets at dimension n in canonical ascending-mask order,
    read off the blocks a survey walks.

    ``u_zero`` keeps only sets with xor-sum 0.  Without ``sample`` the
    walk is exhaustive and makes only the sets the filters admit, under
    the caps of the module docstring; with it, that many distinct sets are
    drawn from ``seed``.  Every argument is checked on the first
    ``next()``.
    """
    for block in _mask_blocks(n, d_min=d_min, d_max=d_max, u_zero=u_zero,
                              sample=sample, seed=seed):
        for mask in map(int, block):
            yield ConnectionSet(n, tuple(_mask_labels(mask)))


# ── findings as columns ───────────────────────────────────────────────────

def _skeleton(audit: bool) -> dict:
    """One finding with a slot at every field: the layout of a report line."""
    entry = slots("delta", "time")
    record = {**slots("omega", "d", "u"), "pst": [entry]}
    if audit:
        entry.update(slots("distance", "antipodal", "is_xor_sum"))
        record.update(slots("connected", "diameter", "violations"))
    return record


@dataclass(frozen=True, eq=False)
class _Findings:
    """The sets of one survey block at dimension ``n`` that transfer.

    ``labels`` holds each set's members ascending, padded on the left with
    0 to the block's largest degree; the set transfers 0 → ``delta`` at
    π/``q``.  The audit adds ``connected``, ``diameter`` and ``distance``.
    """

    n: int
    labels: np.ndarray
    u: np.ndarray
    delta: np.ndarray
    q: np.ndarray
    connected: np.ndarray | None = None
    diameter: np.ndarray | None = None
    distance: np.ndarray | None = None

    @cached_property
    def columns(self) -> dict:
        """The token column of every field, by name, built once.

        Labels, u and δ index one table of label texts, 0 standing for
        label 0: of every label when 2ⁿ is no more than the labels held,
        else of the distinct ones and 0.  Times index the texts of the
        block's few distinct times.
        """
        labels, u, delta = self.labels, self.u, self.delta
        distinct = None
        rows, k = labels.shape
        if 1 << self.n > labels.size + 2 * rows:
            distinct, index = np.unique(np.column_stack(
                [np.zeros_like(u), labels, u, delta]), return_inverse=True)
            index = index.reshape(rows, k + 3)
            labels, u, delta = index[:, 1:k + 1], index[:, -2], index[:, -1]
        texts = binary_texts(self.n, distinct).table
        times, at = np.unique(self.q, return_inverse=True)
        columns = {
            "omega": Members(texts, labels),
            "d": numbers(np.count_nonzero(labels, axis=1)),
            "u": Tokens(texts, u),
            "delta": Tokens(texts, delta),
            "time": pick(at.astype(np.uint8), [  # a few distinct times
                json.dumps(str(RationalAngle(1, q))) for q in times.tolist()]),
        }
        if self.connected is not None:
            xor_sum = self.delta == self.u
            columns.update(
                connected=booleans(self.connected),
                diameter=numbers(self.diameter),
                distance=numbers(self.distance),
                antipodal=booleans(self.distance == self.diameter),
                is_xor_sum=booleans(xor_sum),
                violations=Members(texts, np.where(
                    xor_sum, 0, delta).astype(labels.dtype)[:, None]))
        return columns


# ── per-set records ───────────────────────────────────────────────────────

def _set_record(omega: ConnectionSet, audit: bool) -> dict:
    """The report line of one set: a one-row ``_Findings``, with the BFS
    geometry from 0 under ``audit``, read back from its columns as a
    survey's findings are."""
    transfer = pst_offsets(omega)
    if not transfer:
        code = f"0{omega.n}b"
        return {"omega": [format(e, code) for e in omega.elements],
                "d": len(omega), "u": format(omega.u.bits, code),
                "pst": []}
    ((delta, time),) = transfer.items()  # one offset, at π/q
    geometry = ()
    if audit:
        profile = bfs_profile(omega, GroupElement.zero(omega.n))
        geometry = (profile.connected, profile.diameter,
                    int(profile.dist[delta]))
    block = _Findings(omega.n, np.array([omega.elements]),
                      *(np.array([x]) for x in (omega.u.bits, delta, time.q,
                                                *geometry)))
    (record,) = Rows(_skeleton(audit), [block.columns]).values()
    return record


def transfer_record(omega: ConnectionSet) -> dict:
    """The exact PST offset of one set, if any, in a JSON-ready shape."""
    return _set_record(omega, audit=False)


def audit_record(omega: ConnectionSet) -> dict:
    """The transfer offset of one set, if any, with its distance geometry.

    For the offset: its distance from 0, whether that equals the diameter
    (the metric antipodality flag), and whether it is the xor-sum (the
    structural one), else it is listed in ``violations``.  ``diameter`` is
    the eccentricity of 0 in its component, which holds the offset.
    """
    return _set_record(omega, audit=True)


# ── surveys ───────────────────────────────────────────────────────────────

@dataclass(frozen=True, eq=False)
class ScanReport:
    """Survey result: deterministic payload plus volatile wall time.

    ``payload`` (and so ``digest``) holds nothing that varies between
    identical runs.  The findings come as per-block columns (``blocks``):
    ``columnar_payload`` holds them as ``Rows`` that render to the bytes
    of ``payload()``, and ``findings`` reads the same ``Rows`` back as
    one record per set on first read.  ``path`` names the engine,
    "word-table" or "indicator-wht"; like the wall time it stays out of
    the payload.
    """

    kind: str
    n: int
    filters: dict
    universe: int
    summary: dict
    violations: int
    wall_time_s: float
    path: str
    blocks: tuple[_Findings, ...] = field(repr=False)

    @cached_property
    def findings(self) -> list[dict]:
        """One record per set that transfers, in canonical set order, read
        back from the columns that render the digest (``Rows.values``).

        Records of one block share their texts, one str per distinct
        label and time; each record's dicts and lists are its own.
        """
        return self.columnar_payload()["findings"].values()

    def payload(self) -> dict:
        return {**self.columnar_payload(), "findings": self.findings}

    def columnar_payload(self) -> dict:
        """``payload()`` with findings as ``Rows`` of the survey's
        columns, so no record is built."""
        return {
            "kind": self.kind,
            "n": self.n,
            "filters": self.filters,
            "universe": self.universe,
            "violations": self.violations,
            "summary": self.summary,
            "findings": Rows(_skeleton(self.kind == "antipodal-audit"),
                             [block.columns for block in self.blocks]),
        }

    @property
    def sets_per_s(self) -> float:
        """Survey throughput; 0 when the clock saw no time pass."""
        return self.universe / self.wall_time_s if self.wall_time_s else 0.0

    def canonical_json(self) -> str:
        return b"".join(dumps(self.columnar_payload())).decode()

    def digest(self) -> str:
        return digest(self.columnar_payload())


EVIDENCE_NOTE = ("empirical evidence only: exhaustive at this n, silent "
                 "about every larger n")


def _survey(kind: str, n: int, *, d_min: int | None = None,
            d_max: int | None = None, sample: int | None = None,
            seed: int = 0) -> ScanReport:
    """The one survey loop: block by block, columns only for findings.

    ``kind`` is "pst-scan", "conjecture-scan" (xor-sum-zero sets) or
    "antipodal-audit", which takes no window and no sample, so n above
    ``EXHAUSTIVE_CAP`` is refused.  The sets that transfer are kept as one
    ``_Findings`` per block; no record is built here.
    """
    started = _time.perf_counter()
    audit = kind == "antipodal-audit"
    u_zero = kind == "conjecture-scan"
    _check_dimension(n)
    if audit and n > EXHAUSTIVE_CAP:
        raise EnumerationCapError(
            f"the antipodality audit is exhaustive and reaches n = "
            f"{EXHAUSTIVE_CAP}; got n = {n}")
    masks = _mask_blocks(n, d_min=d_min, d_max=d_max, u_zero=u_zero,
                         sample=sample, seed=seed)
    path, find = (("word-table", partial(_word_findings, n, audit=audit))
                  if n <= FILTERED_CAP else
                  ("indicator-wht", partial(_indicator_findings, n)))
    steps = [(len(block), find(block)) for block in masks]
    scanned = sum(count for count, _ in steps)
    blocks = [found for _, found in steps if found is not None]
    count = sum(len(block.u) for block in blocks)  # one offset per set
    note = EVIDENCE_NOTE if sample is None else "sampled evidence only"
    if kind == "pst-scan":
        violations = 0
        summary = {"sets_scanned": scanned, "sets_with_pst": count,
                   "offsets_checked": count, "note": note}
    elif kind == "conjecture-scan":
        violations = count
        summary = {"sets_scanned": scanned, "counterexamples": violations,
                   "note": note}
    else:
        def tally(flags) -> int:
            return sum(int(np.count_nonzero(flags(b))) for b in blocks)

        violations = tally(lambda b: b.delta != b.u)
        summary = {
            "sets_scanned": scanned, "sets_with_pst": count,
            "offsets_checked": count, "violations": violations,
            "metric_non_antipodal": tally(lambda b: b.distance != b.diameter),
            "disconnected_with_pst": tally(lambda b: ~b.connected),
            "reading": ("violation = transfer offset differing from the "
                        "xor-sum; the distance-vs-diameter counts are "
                        "reported, not asserted"),
            "note": note}
    filters = {"d_min": d_min, "d_max": d_max,
               "u": "zero" if u_zero else "any", "sample": sample,
               "seed": seed if sample is not None else None}
    return ScanReport(kind=kind, n=n, filters=filters, universe=scanned,
                      summary=summary, violations=violations,
                      wall_time_s=_time.perf_counter() - started,
                      path=path, blocks=tuple(blocks))


def scan_sets(n: int, *, d_min: int | None = None, d_max: int | None = None,
              sample: int | None = None, seed: int = 0) -> ScanReport:
    """General transfer survey; findings are the sets that admit PST."""
    return _survey("pst-scan", n, d_min=d_min, d_max=d_max, sample=sample,
                   seed=seed)


def conjecture_scan(n: int, *, d_min: int | None = None,
                    d_max: int | None = None, sample: int | None = None,
                    seed: int = 0) -> ScanReport:
    """Hunt for PST on xor-sum-zero sets; any finding is a counterexample.

    There are none at n ≤ 4 and some from n = 5 on (the π/4 fixture in
    the module docstring).
    """
    return _survey("conjecture-scan", n, d_min=d_min, d_max=d_max,
                   sample=sample, seed=seed)


def antipodality_audit(n: int) -> ScanReport:
    """Check every transfer offset at dimension n for antipodality.

    A violation is an offset other than the set's xor-sum (the structural
    reading, module docstring); there are none at n ≤ 4.  The metric
    reading is tallied as ``metric_non_antipodal``, nonzero from n = 3 on.
    ``audit_record`` re-runs any report line on its own.  The audit takes
    no window and no sample, so n above ``EXHAUSTIVE_CAP`` is refused.
    """
    return _survey("antipodal-audit", n)
