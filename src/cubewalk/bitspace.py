"""Exact arithmetic on Z₂ⁿ: group elements, parity forms, connection sets.

Vertices and generators of a cubelike graph are n-bit labels; the group
operation is bitwise XOR and every element is its own inverse.  A
ConnectionSet is a loopless Cayley connection set: distinct nonzero labels
together with the two invariants used everywhere downstream, the degree
d = |Ω| and the xor-sum u = ⊕_{w∈Ω} w.

Every operand in the package lives in some Z₂ⁿ, and operands that meet
must share n.  ``_same_space`` is the one check of that rule, for every
module: a mismatch raises DimensionMismatchError naming the operand.

Everything in this module is exact integer work; no floats enter here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

# Label arithmetic stays in int64 territory downstream (WHT values reach
# 2ⁿ·d), so cap the dimension rather than silently losing exactness.
MAX_DIMENSION = 24


class DimensionMismatchError(ValueError):
    """Operands live in different Z₂ⁿ spaces."""


class SetFormatError(ValueError):
    """Malformed textual description of a connection set or element."""


def _check_dimension(n: int) -> None:
    if not isinstance(n, int):
        raise TypeError(f"dimension must be an int, got {type(n).__name__}")
    if not 1 <= n <= MAX_DIMENSION:
        raise ValueError(f"dimension must be in 1..{MAX_DIMENSION}, got {n}")


def _same_space(n: int, **operands) -> None:
    """Raise DimensionMismatchError for the first named operand whose
    ``.n`` is not n."""
    for name, operand in operands.items():
        if operand.n != n:
            raise DimensionMismatchError(
                f"{name} of Z2^{operand.n} against Z2^{n}")


@dataclass(frozen=True)
class GroupElement:
    """An element of Z₂ⁿ stored as a bit label in [0, 2ⁿ).

    Bit i of ``bits`` is the coordinate with weight 2^i, so the label
    ``"100"`` at n=3 is ``GroupElement(4, 3)``.
    """

    bits: int
    n: int

    def __post_init__(self) -> None:
        _check_dimension(self.n)
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"label {self.bits} out of range for n={self.n}")

    def __xor__(self, other: GroupElement) -> GroupElement:
        if not isinstance(other, GroupElement):
            return NotImplemented
        _same_space(self.n, other=other)
        return GroupElement(self.bits ^ other.bits, self.n)

    @property
    def weight(self) -> int:
        """Hamming weight (number of set coordinates)."""
        return self.bits.bit_count()

    def __str__(self) -> str:
        return format(self.bits, f"0{self.n}b")

    @classmethod
    def zero(cls, n: int) -> GroupElement:
        return cls(0, n)

    @classmethod
    def all_ones(cls, n: int) -> GroupElement:
        return cls((1 << n) - 1, n)

    @classmethod
    def parse(cls, token: str, n: int) -> GroupElement:
        _check_dimension(n)
        return cls(_parse_label(token, n, allow_zero=True), n)


def _parse_label(token: str, n: int, *, allow_zero: bool) -> int:
    """One element label: an n-character binary string or a 0x-hex literal."""
    text = token.strip()
    if not text:
        raise SetFormatError("empty element token")
    if text.lower().startswith("0x"):
        try:
            value = int(text, 16)
        except ValueError:
            raise SetFormatError(f"bad hex label {token!r}") from None
    else:
        if len(text) != n or any(c not in "01" for c in text):
            raise SetFormatError(
                f"label {token!r} is not a binary string of length {n}")
        value = int(text, 2)
    if value >= (1 << n):
        raise SetFormatError(f"label {token!r} out of range for n={n}")
    if value == 0 and not allow_zero:
        raise SetFormatError(
            "the zero element is not allowed in a connection set")
    return value


@dataclass(frozen=True)
class ConnectionSet:
    """A Cayley connection set Ω ⊆ Z₂ⁿ∖{0}.

    Elements are stored as a sorted tuple of distinct labels; the empty set
    is allowed (it generates the edgeless graph).  Zero labels and
    duplicates are rejected outright so the invariants d = len(elements)
    and u = xor of all elements can be trusted everywhere else.
    ``spectral.spectrum`` stores its result on the object as ``_spectrum``,
    and ``pst.pst_offsets`` its decision as ``_pst_offsets``, outside the
    fields.
    """

    n: int
    elements: tuple[int, ...]
    d: int = field(init=False, compare=False)
    u: GroupElement = field(init=False, compare=False)

    def __post_init__(self) -> None:
        _check_dimension(self.n)
        limit = 1 << self.n
        labels = []
        for item in self.elements:
            if isinstance(item, GroupElement):
                _same_space(self.n, element=item)
                value = item.bits
            else:
                value = int(item)
            if not 0 < value < limit:
                raise ValueError(
                    f"connection set labels must be in 1..{limit - 1}, "
                    f"got {value}")
            labels.append(value)
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate element in connection set")
        object.__setattr__(self, "elements", tuple(sorted(labels)))
        object.__setattr__(self, "d", len(labels))
        acc = 0
        for value in labels:
            acc ^= value
        object.__setattr__(self, "u", GroupElement(acc, self.n))

    def __len__(self) -> int:
        return self.d

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, item: object) -> bool:
        if isinstance(item, GroupElement):
            return item.n == self.n and item.bits in self.elements
        return item in self.elements

    def members(self) -> tuple[GroupElement, ...]:
        return tuple(GroupElement(e, self.n) for e in self.elements)

    def indicator(self) -> np.ndarray:
        """0/1 vector of length 2ⁿ marking the members of Ω."""
        vec = np.zeros(1 << self.n, dtype=np.int64)
        if self.elements:
            vec[list(self.elements)] = 1
        return vec

    def format(self) -> str:
        """Canonical comma-separated binary form, ascending labels."""
        return ",".join(format(e, f"0{self.n}b") for e in self.elements)

    def __str__(self) -> str:
        return self.format()

    @classmethod
    def parse(cls, text: str, n: int) -> ConnectionSet:
        """Inverse of :meth:`format`; hex tokens like ``0x7`` also work.

        Raises SetFormatError for malformed tokens, duplicates, the zero
        element, or labels outside [1, 2ⁿ).
        """
        _check_dimension(n)
        stripped = text.strip()
        if not stripped:
            return cls(n, ())
        labels = [_parse_label(tok, n, allow_zero=False)
                  for tok in stripped.split(",")]
        if len(set(labels)) != len(labels):
            raise SetFormatError("duplicate element in connection set")
        return cls(n, tuple(labels))


def _mask_labels(mask: int) -> list[int]:
    """Labels of a set stored as a mask: bit j of the mask is label j+1.

    Ascending, read off the mask's binary digits in time linear in its
    width.
    """
    return [j for j, bit in enumerate(bin(mask)[:1:-1], 1) if bit == "1"]


def hypercube(n: int) -> ConnectionSet:
    """Standard basis e₁..eₙ: the connection set of the hypercube Qₙ."""
    _check_dimension(n)
    return ConnectionSet(n, tuple(1 << i for i in range(n)))


# ── GF(2) linear algebra on label lists ──────────────────────────────────

def odd_parity_functional(vectors: Sequence[int], n: int) -> int | None:
    """Solve cᵀw = 1 over GF(2) for every w in ``vectors``.

    Returns one solution label c (free variables set to zero) or None when
    the system is inconsistent.  With no constraints the trivial c = 0 is
    returned; callers that need a nonzero witness must check.
    """
    _check_dimension(n)
    # Augmented rows: bit 0 carries the right-hand side, bits 1..n the
    # variables.  Eliminate on the highest set variable bit.
    basis: dict[int, int] = {}
    for vec in vectors:
        cur = (int(vec) << 1) | 1
        while cur > 1:
            high = cur.bit_length() - 1
            if high in basis:
                cur ^= basis[high]
            else:
                basis[high] = cur
                cur = 0
        if cur == 1:
            return None
    # Jordan pass: clear each pivot column from every other row, ascending,
    # so each row keeps only its own pivot plus free columns.
    for p in sorted(basis):
        for p2 in basis:
            if p2 != p and (basis[p2] >> p) & 1:
                basis[p2] ^= basis[p]
    c = 0
    for p, row in basis.items():
        if row & 1:
            c |= 1 << (p - 1)
    return c
