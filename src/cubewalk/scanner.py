"""Surveys over the space of connection sets at one dimension.

Sets are enumerated as bitmasks over the 2ⁿ−1 nonzero labels: bit j of a
mask means label j+1 is a member, and masks run in ascending numeric
order, so every survey visits sets in one canonical order.  An exhaustive
walk is allowed up to n = 5 when its degree window holds at most
``MASK_CAP`` = 2²⁴ masks: every window at n ≤ 4 (32767 sets unfiltered),
and windows such as d ≤ 8 at n = 5, whose raw space holds 2³¹ − 1 masks.
The window is counted before anything is walked.  Beyond that only
sampling is offered.

One survey loop serves three report kinds; each set gets one record and
the report keeps the sets that admit PST.  The pst scan is the general
survey.  The conjecture scan walks sets with xor-sum 0 and asks the exact
decision procedure for any transfer offset at all; a hit is a
counterexample to the rule that such sets never admit PST.  The rule
holds at n ≤ 4 and fails from n = 5 on: the xor-sum-zero set
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
proves nothing about larger n.

Reports are split into a deterministic payload (findings, counters read
off them, and a sha256 digest over the canonical JSON) and volatile run
metadata (wall time), so byte-identical re-runs can be asserted
digest-to-digest.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import random
import time as _time
from dataclasses import dataclass
from typing import Iterable, Iterator

from .bitspace import (ConnectionSet, GroupElement, _check_dimension,
                       _mask_labels)
from .graphwalk import bfs_profile
from .pst import pst_offsets

EXHAUSTIVE_CAP = 4  # largest n whose whole space fits under MASK_CAP
FILTERED_CAP = 5
MASK_CAP = 1 << 24


class EnumerationCapError(ValueError):
    """The requested enumeration is too large to walk exhaustively."""


# ── enumeration ───────────────────────────────────────────────────────────

def _xor_of_mask(mask: int) -> int:
    acc = 0
    for label in _mask_labels(mask):
        acc ^= label
    return acc


def _weight_masks(width: int, weight: int) -> Iterator[int]:
    """All width-bit masks of the given popcount, ascending (Gosper)."""
    if weight == 0 or weight > width:
        return
    v = (1 << weight) - 1
    limit = 1 << width
    while v < limit:
        yield v
        low = v & -v
        ripple = v + low
        v = ripple | (((v ^ ripple) >> 2) // low)


def _exhaustive_masks(n: int, lo: int, hi: int,
                      u_zero: bool) -> Iterable[int]:
    """Every mask of popcount in [lo, hi], ascending, after the caps."""
    width = (1 << n) - 1
    if n > FILTERED_CAP:
        raise EnumerationCapError(
            f"exhaustive enumeration stops at n = {FILTERED_CAP}; "
            f"use sampling for n = {n}")
    count = sum(math.comb(width, d) for d in range(lo, hi + 1))
    if count > MASK_CAP:
        raise EnumerationCapError(
            f"degree window [{lo}, {hi}] at n = {n} spans {count} masks, "
            f"over the 2^24 cap; narrow the window or sample")
    if lo == 1 and hi == width:
        masks: Iterable[int] = range(1, 1 << width)
    else:
        masks = heapq.merge(*(_weight_masks(width, d)
                              for d in range(lo, hi + 1)))
    if u_zero:
        return (mask for mask in masks if not _xor_of_mask(mask))
    return masks


def _sampled_masks(n: int, lo: int, hi: int, windowed: bool, u_zero: bool,
                   sample: int, seed: int) -> list[int]:
    """Distinct masks matching the filters, ascending, seed-deterministic.

    With no degree filter the draw is uniform over the filtered space (the
    xor-sum-zero case uses an exact toggle bijection rather than straight
    rejection).  With a degree filter the draw is stratified: a degree
    first, then a uniform set of that size.
    """
    if sample < 1:
        raise ValueError(f"sample size must be positive, got {sample}")
    width = (1 << n) - 1
    rng = random.Random(seed)
    chosen: set[int] = set()
    attempts = 0
    cap = 10_000 * max(1, sample)
    while len(chosen) < sample and attempts < cap:
        attempts += 1
        if not windowed:
            mask = rng.randrange(1, 1 << width)
        else:
            d = rng.randint(lo, hi)
            mask = 0
            for label in rng.sample(range(1, width + 1), d):
                mask |= 1 << (label - 1)
        if u_zero:
            u = _xor_of_mask(mask)
            if u:
                mask ^= 1 << (u - 1)  # toggling label u zeroes the xor-sum
            if not lo <= mask.bit_count() <= hi:
                continue
        chosen.add(mask)
    if len(chosen) < sample:
        raise ValueError(
            f"could not collect {sample} sets matching the filters at "
            f"n = {n} (got {len(chosen)})")
    return sorted(chosen)


def enumerate_sets(n: int, *, d_min: int | None = None,
                   d_max: int | None = None, u_zero: bool = False,
                   sample: int | None = None,
                   seed: int = 0) -> Iterator[ConnectionSet]:
    """Connection sets at dimension n in canonical ascending-mask order.

    ``u_zero`` keeps only sets with xor-sum 0.  Without ``sample`` the
    walk is exhaustive and subject to the caps described in the module
    docstring; with it, a deterministic pseudo-random selection of that
    many distinct sets is produced.  Every argument is checked on the
    first ``next()``, before any set is produced.
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
        masks = _exhaustive_masks(n, lo, hi, u_zero)
    else:
        windowed = d_min is not None or d_max is not None
        masks = _sampled_masks(n, lo, hi, windowed, u_zero, sample, seed)
    for mask in masks:
        yield ConnectionSet(n, tuple(_mask_labels(mask)))


# ── per-set records ───────────────────────────────────────────────────────

def transfer_record(omega: ConnectionSet) -> dict:
    """Exact PST offsets of one set, in a JSON-ready shape."""
    offsets = pst_offsets(omega)
    return {
        "omega": [format(e, f"0{omega.n}b") for e in omega.elements],
        "d": omega.d,
        "u": str(omega.u),
        "pst": [{"delta": format(db, f"0{omega.n}b"), "time": str(t)}
                for db, t in sorted(offsets.items())],
    }


def audit_record(omega: ConnectionSet) -> dict:
    """Transfer offsets of one set with their distance geometry.

    Per offset: the graph distance from 0, whether that equals the
    diameter (the metric antipodality flag), and whether the offset is
    the xor-sum of the set (the structural one).  ``diameter`` is the
    eccentricity of vertex 0 in its component, which equals the graph
    diameter when the graph is connected; every transfer offset lies in
    that component, so its distance is always defined.  ``violations``
    lists the offsets differing from the xor-sum.
    """
    record = transfer_record(omega)
    if record["pst"]:
        profile = bfs_profile(omega, GroupElement.zero(omega.n))
        record["connected"] = profile.connected
        record["diameter"] = profile.diameter
        violations = []
        for entry in record["pst"]:
            db = int(entry["delta"], 2)
            distance = int(profile.dist[db])
            entry["distance"] = distance
            entry["antipodal"] = distance == profile.diameter
            entry["is_xor_sum"] = entry["delta"] == record["u"]
            if not entry["is_xor_sum"]:
                violations.append(entry["delta"])
        record["violations"] = violations
    return record


# ── surveys ───────────────────────────────────────────────────────────────

def canonical_dumps(obj) -> str:
    """Sorted keys, no whitespace: the bytes every payload digest covers."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(eq=False)
class ScanReport:
    """Survey result: deterministic payload plus volatile wall time.

    ``payload`` (and therefore ``digest``) contains nothing that varies
    between identical runs; two equal surveys must produce byte-identical
    payload JSON regardless of the clock.
    """

    kind: str
    n: int
    filters: dict
    universe: int
    findings: list[dict]
    summary: dict
    violations: int
    wall_time_s: float

    def payload(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "filters": self.filters,
            "universe": self.universe,
            "violations": self.violations,
            "summary": self.summary,
            "findings": self.findings,
        }

    def canonical_json(self) -> str:
        return canonical_dumps(self.payload())

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


EVIDENCE_NOTE = ("empirical evidence only: exhaustive at this n, silent "
                 "about every larger n")


def _survey(kind: str, n: int, *, d_min: int | None = None,
            d_max: int | None = None, u_zero: bool = False,
            sample: int | None = None, seed: int = 0) -> ScanReport:
    """The one survey loop: a record per set, counters read off findings.

    ``kind`` is "pst-scan", "conjecture-scan" or "antipodal-audit"; the
    audit builds ``audit_record``s, the scans ``transfer_record``s.
    """
    started = _time.perf_counter()
    record_of = audit_record if kind == "antipodal-audit" \
        else transfer_record
    scanned = 0
    findings = []
    for omega in enumerate_sets(n, d_min=d_min, d_max=d_max, u_zero=u_zero,
                                sample=sample, seed=seed):
        scanned += 1
        record = record_of(omega)
        if record["pst"]:
            findings.append(record)
    offsets = sum(len(record["pst"]) for record in findings)
    note = EVIDENCE_NOTE if sample is None else "sampled evidence only"
    if kind == "pst-scan":
        violations = 0
        summary = {"sets_scanned": scanned, "sets_with_pst": len(findings),
                   "offsets_checked": offsets, "note": note}
    elif kind == "conjecture-scan":
        violations = len(findings)
        summary = {"sets_scanned": scanned, "counterexamples": violations,
                   "note": note}
    else:
        violations = sum(len(record["violations"]) for record in findings)
        summary = {
            "sets_scanned": scanned,
            "sets_with_pst": len(findings),
            "offsets_checked": offsets,
            "violations": violations,
            "metric_non_antipodal": sum(
                not entry["antipodal"]
                for record in findings for entry in record["pst"]),
            "disconnected_with_pst": sum(
                not record["connected"] for record in findings),
            "reading": ("violation = transfer offset differing from the "
                        "xor-sum; the distance-vs-diameter counts are "
                        "reported, not asserted"),
            "note": note,
        }
    filters = {"d_min": d_min, "d_max": d_max,
               "u": "zero" if u_zero else "any", "sample": sample,
               "seed": seed if sample is not None else None}
    return ScanReport(kind=kind, n=n, filters=filters, universe=scanned,
                      findings=findings, summary=summary,
                      violations=violations,
                      wall_time_s=_time.perf_counter() - started)


def scan_sets(n: int, *, d_min: int | None = None, d_max: int | None = None,
              sample: int | None = None, seed: int = 0) -> ScanReport:
    """General transfer survey; findings are the sets that admit PST."""
    return _survey("pst-scan", n, d_min=d_min, d_max=d_max, sample=sample,
                   seed=seed)


def conjecture_scan(n: int, *, d_min: int | None = None,
                    d_max: int | None = None, sample: int | None = None,
                    seed: int = 0) -> ScanReport:
    """Hunt for PST on xor-sum-zero sets; any finding is a counterexample.

    There are none at n ≤ 4; transfer exists from n = 5 on (the π/4
    fixture in the module docstring), so an exhaustive pass at one n says
    nothing about larger n, and the report says so.
    """
    return _survey("conjecture-scan", n, d_min=d_min, d_max=d_max,
                   u_zero=True, sample=sample, seed=seed)


def antipodality_audit(n: int) -> ScanReport:
    """Check every transfer offset at dimension n for antipodality.

    A violation is an offset that differs from the set's xor-sum, the
    structural reading described in the module docstring; there are none
    at n ≤ 4, the largest n this exhaustive audit reaches.  The metric
    reading (distance equal to diameter) is tallied alongside as
    ``metric_non_antipodal`` and is nonzero from n = 3 on, which is a
    result, not a malfunction: transfer to a generator offset happens
    whenever the xor-sum lies inside the set.  Findings are built by
    ``audit_record``, which anyone can re-run on a single set to confirm a
    report line independently.
    """
    return _survey("antipodal-audit", n)
