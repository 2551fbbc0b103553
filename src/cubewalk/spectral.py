"""Fourier analysis on Z₂ⁿ: Walsh-Hadamard transform and integer spectra.

The characters of Z₂ⁿ are χ_w(x) = (−1)^(wᵀx).  In the character basis the
adjacency matrix of any cubelike graph X(Z₂ⁿ, Ω) is diagonal with integer
eigenvalues

    λ_v = Σ_{w∈Ω} (−1)^(wᵀv),          v ∈ Z₂ⁿ,

so one unnormalized Walsh-Hadamard transform of the indicator vector of Ω
produces the full spectrum at once.  The transform here is the plain
butterfly in natural (binary-counter) order, without 1/√2 factors, hence
wht(wht(x)) == 2ⁿ·x.

The butterfly levels run from the lowest bit up, two at a time (radix 4).
For the entries x₀, x₁, x₂, x₃ at offsets 0, h, 2h, 3h, one pass forms
s₀₁ = x₀+x₁, d₀₁ = x₀−x₁, s₂₃ = x₂+x₃, d₂₃ = x₂−x₃ and writes s₀₁+s₂₃,
d₀₁+d₂₃, s₀₁−s₂₃, d₀₁−d₂₃ back in place; each of the two stages below
ends with one radix-2 pass when it has an odd number of levels.  These
are the very sums and differences that the radix-2 levels h and 2h
compute, on the same operands in the same order, so int64, float64 and
complex128 results keep every bit of the level-by-level butterfly, in
two sweeps over the data per two levels.

Integer input runs in the narrowest signed type that holds the row bound
Σ|x|: int8, int16 or int32, and int64 once the bound reaches 2³¹.  Every
intermediate is a signed subset sum of one row, so it stays within that
bound and the narrow pass is exact; the result is widened to int64 once,
at the end.  A 0/1 indicator of at most 127 labels thus runs in int8,
on an eighth of the bytes of int64.

Every level runs on a piece of at most ``_CACHE`` bytes, which stays in
a core's L2 cache while its levels run: the four-step schedule of
D. H. Bailey, "FFTs in external or hierarchical memory", J.
Supercomputing 4 (1990) 23.  The block is the largest power of two up
to the row length that fits ``_CACHE``.  First the levels below the
block run on one group of blocks at a time; short rows are batched into
groups that fit ``_CACHE``, a long row's blocks run one by one.  Then
the levels at and above the block run down the columns of each row,
read as a (length / block) × block matrix: the level at stride
block·2ʲ pairs the matrix rows r and r + 2ʲ (bit j of r clear) in
every column, on one chunk of columns that fits ``_CACHE`` at a time.
Both stages share one scratch array the size of their larger piece.

A block longer than 64 entries runs its six lowest levels on a
transposed copy, held in the scratch array.  The group is read as
tiles of up to 256 runs of 64 consecutive entries, and each tile is
copied as 64 × tile.  In place, the radix-4 passes at strides 1, 4 and
16 run inner loops of that many entries; on the copy they run along its
leading axis, with inner loops over whole tile rows, and the group
serves as their scratch.  The copy is written back into the group, and
the remaining levels run in place.

Every level, on the copy, the blocks or the columns, forms the sums and
differences of the in-place butterfly on the same operands in the same
order, and the levels still run from the lowest bit up, so the result
keeps every bit of the level-by-level butterfly in every work type.

Each eigenvalue is further pinned down modulo 4 by the xor-sum u of the
connection set; ``classify_congruences`` checks the applicable congruence
for every eigenvalue and reports the multiplicity index k it determines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bitspace import ConnectionSet, GroupElement, _same_space


def wht(data) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of a length-2ⁿ vector.

    Integer input is transformed exactly, in the narrowest integer type
    that holds Σ|x| (see the module docstring), and returned as int64;
    float and complex input go through float64/complex128.  The input
    array is not modified.
    """
    arr = np.asarray(data)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d array, got shape {arr.shape}")
    size = arr.shape[0]
    if size == 0 or size & (size - 1):
        raise ValueError(f"length {size} is not a power of two")
    return _wht_rows(arr)


# The low levels of long rows run transposed (see the module docstring).
# A tile of 256 runs keeps its source lines in cache while it is gathered:
# the untiled transpose of an int32 row of 2²⁰ entries took 4.5 ms, longer
# than the six levels it serves.
_LOW = 64
_TILE = 256

# Every level runs on pieces of at most _CACHE bytes, which with their
# scratch stay in a core's L2 cache (see the module docstring).  On
# complex, float, int32 and bool rows of 2¹⁶ to 2²⁰ entries (2 vCPUs,
# 2 MB of L2 per core), 512 KB was fastest at every size: 256 KB took up
# to 19% longer, 1 MB up to 48% longer, and 64 and 128 KB lost at
# 2¹⁷ entries and up.
_CACHE = 512 << 10


def _wht_rows(arr: np.ndarray) -> np.ndarray:
    """The butterfly along the last axis, one transform per row.

    The last axis must have power-of-two length; the result is a fresh
    array, in the dtypes ``wht`` documents.  Integer input runs in the
    narrowest type ``_exact_type`` picks and is widened to int64 once, at
    the end.  The levels run in two stages, on pieces that fit
    ``_CACHE`` (see the module docstring): those below the block on
    groups of blocks, then those at and above it on chunks of the
    columns of each row, read as a (length / block) × block matrix.
    """
    if arr.dtype == bool or np.issubdtype(arr.dtype, np.integer):
        work, result = _exact_type(arr), np.int64
    elif np.issubdtype(arr.dtype, np.complexfloating):
        work = result = np.complex128
    else:
        work = result = np.float64
    out = arr.astype(work, order="C")
    _wht_in_place(out)
    return out.astype(result, copy=False)


def _wht_in_place(out: np.ndarray) -> None:
    """The schedule of ``_wht_rows`` on the C-contiguous ``out``, in place
    and in its own dtype, which must be one of the work types there."""
    size, item = out.shape[-1], out.itemsize
    block = min(size, 1 << ((_CACHE // item).bit_length() - 1))
    blocks = out.reshape(-1, block)
    group = max(1, min(len(blocks), _CACHE // (block * item)))
    span = size // block
    width = min(block, max(1, _CACHE // (span * item)))
    buf = np.empty(max(group * block, span * width), dtype=out.dtype)
    for start in range(0, len(blocks), group):
        _block_levels(blocks[start:start + group], buf)
    if span > 1:
        for row in out.reshape(-1, span, block):
            for start in range(0, block, width):
                _levels(row[:, start:start + width], buf, span)


def _block_levels(piece: np.ndarray, buf: np.ndarray) -> None:
    """Every level below the row length on the C-contiguous rows of
    ``piece``, in place, with ``buf`` as scratch.  A row longer than
    ``_LOW`` runs its six lowest levels on a tiled transposed copy in
    ``buf``, with ``piece`` as their scratch, and is written back before
    the other levels run in place (see the module docstring)."""
    length = piece.shape[-1]
    h = 1
    if length > _LOW:
        tile = min(length // _LOW, _TILE)
        low = piece.reshape(-1, tile, _LOW)
        turned = buf[:piece.size].reshape(-1, _LOW, tile)
        np.copyto(turned, low.transpose(0, 2, 1))
        _levels(turned.reshape(-1, tile), piece.reshape(-1), _LOW)
        low[...] = turned.transpose(0, 2, 1)
        h = _LOW
    _levels(piece.reshape(-1, h), buf, length // h)


def _levels(x: np.ndarray, buf: np.ndarray, top: int) -> None:
    """The levels at strides 1, 2, 4, … below ``top`` along the first axis
    of the 2-d ``x``, whose length is a multiple of ``top``, in place:
    radix 4, then one radix-2 level if their number is odd.  ``buf`` is a
    C-contiguous 1-d scratch array of at least x.size entries."""
    w = x.shape[1]
    h = 1
    while 4 * h <= top:
        x0, x1, x2, x3 = x.reshape(-1, 4, h, w).transpose(1, 0, 2, 3)
        s01, d01, s23, d23 = buf[:x.size].reshape(4, -1, h, w)
        np.add(x0, x1, out=s01)
        np.subtract(x0, x1, out=d01)
        np.add(x2, x3, out=s23)
        np.subtract(x2, x3, out=d23)
        np.add(s01, s23, out=x0)
        np.add(d01, d23, out=x1)
        np.subtract(s01, s23, out=x2)
        np.subtract(d01, d23, out=x3)
        h <<= 2
    if h < top:
        x0, x1 = x.reshape(-1, 2, h, w).transpose(1, 0, 2, 3)
        first = buf[:x0.size].reshape(x0.shape)
        np.copyto(first, x0)
        np.add(first, x1, out=x0)
        np.subtract(first, x1, out=x1)


def _exact_type(arr: np.ndarray) -> type:
    """The narrowest of int8, int16, int32 and int64 that holds Σ|x| of
    every row of the integer array ``arr``, and so every intermediate of
    its transform (see the module docstring).  The bound is taken in
    Python ints, or in int64 once every |x| is known to be below 2³¹."""
    if arr.size == 0:
        return np.int8
    if arr.dtype == bool:
        bound = int(np.count_nonzero(arr, axis=-1).max())
    elif max(int(arr.max()), -int(arr.min())) >= 1 << 31:
        return np.int64
    else:  # each row holds fewer than 2³² entries, so the sum stays exact
        bound = int(np.abs(arr.astype(np.int64, copy=False))
                    .sum(axis=-1).max())
    for kind in (np.int8, np.int16, np.int32):
        if bound <= np.iinfo(kind).max:
            return kind
    return np.int64


def character_bits(n: int, w: int) -> np.ndarray:
    """wᵀv mod 2 for every v ∈ Z₂ⁿ, as bools: χ_w(v) = (−1)^(bit at v).

    Built by doubling, one bit of w at a time: the v with bit i set repeat
    the v below 2^i, flipped when wᵢ = 1.
    """
    out = np.zeros(1 << n, dtype=bool)
    for i in range(n):
        h = 1 << i
        np.logical_xor(out[:h], bool(w >> i & 1), out=out[h:2 * h])
    return out


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues of a cubelike adjacency matrix, indexed by character.

    ``values[v]`` is λ_v as defined in the module docstring.  Invariants
    (all exact): values[0] = d, Σλ_v = 0, Σλ_v² = 2ⁿ·d, and every λ_v has
    the parity of d.
    """

    n: int
    d: int
    values: np.ndarray


def spectrum(omega: ConnectionSet) -> Spectrum:
    """Integer spectrum of X(Z₂ⁿ, Ω) via one WHT of the indicator of Ω.

    The first call stores the result on ``omega`` itself, and every later
    call on the same object returns that stored, read-only Spectrum, so
    each set object pays for one transform.  The stored spectrum lives
    exactly as long as ``omega``; it is not a field, so equality, hashing
    and repr of the set ignore it, and an equal but distinct set runs its
    own transform.
    """
    spec = getattr(omega, "_spectrum", None)
    if spec is None:
        values = wht(omega.indicator())
        values.setflags(write=False)
        spec = Spectrum(n=omega.n, d=omega.d, values=values)
        object.__setattr__(omega, "_spectrum", spec)  # omega is frozen
    return spec


# ── congruence classification ────────────────────────────────────────────

# Every eigenvalue sits in one of three residue classes mod 4, selected by
# the xor-sum u and the parity of uᵀv:
#
#   u = 0:            λ_v = d − 4k,      0 ≤ k ≤ ⌊d/2⌋        (all v)
#   u ≠ 0, u ∉ Ω:     λ_v = d − 4k       when uᵀv even
#                     λ_v = d + 2 − 4k   when uᵀv odd,  0 ≤ k ≤ ⌊(d+1)/2⌋
#   u ∈ Ω:            λ_v = d − 4k       when uᵀv even
#                     λ_v = d − 2 − 4k   when uᵀv odd,  0 ≤ k ≤ ⌊(d−1)/2⌋
#
# The even-parity rows share the k-range of their case's odd row.

CASE_SUM_ZERO = "xor-sum zero"
CASE_SUM_OUTSIDE = "xor-sum outside set"
CASE_SUM_INSIDE = "xor-sum in set"


@dataclass(frozen=True)
class CongruenceEntry:
    v: int
    eigenvalue: int
    k: int | None
    congruence_class: str
    ok: bool


@dataclass(frozen=True, eq=False)
class CongruenceReport:
    """The congruence check of every eigenvalue, held as columns over v.

    ``odd[v]`` is the parity of uᵀv, which selects the residue class:
    ``classes[odd[v]]``.  ``in_class[v]`` says whether λ_v lies in that
    class mod 4; where it does, ``k[v]`` is the index it determines (where
    it does not, ``k[v]`` is meaningless and the entry's k is None).
    ``ok[v]`` adds the k-range.  ``entries`` spells the same columns out
    as one ``CongruenceEntry`` per v, built on first use.
    """

    n: int
    d: int
    u: GroupElement
    u_in_set: bool
    case: str
    eigenvalues: np.ndarray
    odd: np.ndarray
    in_class: np.ndarray
    k: np.ndarray
    ok: np.ndarray

    @property
    def classes(self) -> tuple[str, str]:
        """The class labels of the even and the odd rows of ``case``."""
        return ("d mod 4", "d+2 mod 4" if self.case == CASE_SUM_OUTSIDE
                else "d-2 mod 4")

    @property
    def all_pass(self) -> bool:
        return bool(self.ok.all())

    @cached_property
    def entries(self) -> tuple[CongruenceEntry, ...]:
        classes = self.classes
        return tuple(
            CongruenceEntry(v=v, eigenvalue=lam, k=k if fits else None,
                            congruence_class=classes[odd], ok=ok)
            for v, (lam, odd, fits, k, ok) in enumerate(zip(
                self.eigenvalues.tolist(), self.odd.tolist(),
                self.in_class.tolist(), self.k.tolist(), self.ok.tolist())))


def classify_congruences(spec: Spectrum, u: GroupElement,
                         u_in_set: bool) -> CongruenceReport:
    """Check the mod-4 congruence of every eigenvalue against its class.

    ``u`` must be the xor-sum of the connection set that produced ``spec``
    and ``u_in_set`` says whether u itself is a member.  The report holds,
    for every v, the residue class that applies at v, the recovered index
    k, and whether the eigenvalue actually satisfies the congruence and
    the k-range.  A correct spectrum always passes; the report exists so
    that consistency can be audited wholesale.
    """
    _same_space(spec.n, u=u)
    if u.bits == 0 and u_in_set:
        raise ValueError("the zero element cannot be a set member")
    d = spec.d
    if u.bits == 0:
        case = CASE_SUM_ZERO
        bound = d // 2
    elif not u_in_set:
        case = CASE_SUM_OUTSIDE
        bound = (d + 1) // 2
    else:
        case = CASE_SUM_INSIDE
        bound = (d - 1) // 2

    odd = character_bits(spec.n, u.bits)
    shift = 2 if case == CASE_SUM_OUTSIDE else -2
    diff = np.where(odd, d + shift, d)
    diff -= spec.values
    k = diff >> 2  # diff // 4, and diff & 3 is diff % 4, in two's complement
    in_class = np.bitwise_and(diff, 3, out=diff) == 0
    ok = in_class & (k >= 0) & (k <= bound)
    for column in (odd, in_class, k, ok):
        column.setflags(write=False)
    return CongruenceReport(n=spec.n, d=d, u=u, u_in_set=u_in_set,
                            case=case, eigenvalues=spec.values, odd=odd,
                            in_class=in_class, k=k, ok=ok)


def classify_set(omega: ConnectionSet) -> CongruenceReport:
    """Convenience wrapper: spectrum plus congruence report for one set."""
    return classify_congruences(spectrum(omega), omega.u,
                                omega.u.bits in omega.elements)
