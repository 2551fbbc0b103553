"""JSON text from numpy columns, byte for byte what json.dumps writes.

A payload may hold ``Rows`` as the value of a key at any depth: a list
of rows of one shape, held as columns.  The shape is a skeleton, one row
with a ``slot(name)`` marker at every leaf; json.dumps of it, cut at the
markers, gives the text between the leaves.  ``dumps`` splices each list
in at its marker.

A leaf column is a token column, ``Tokens``: a uint8 table of its distinct
JSON texts, left-aligned and NUL-padded to one width, and a table row per
list row; a list leaf is ``Members``, a table row per member,
right-aligned: 0, no member, comes only on the left.  Rows render as bytes,
``CHUNK`` at a time, in one (rows × width) uint8 matrix: the skeleton's
text is written by broadcast, each leaf's table rows are gathered into its
columns (a list as "[", then one gather of its "text," cells, the last
cell's comma turned into "]"), and the NULs are dropped.  NUL is safe as
padding: JSON text never holds a raw NUL (json.dumps writes \\u0000), and
``table`` refuses one.  A piece whose gathered rows all fill their width
holds no NUL, which each leaf tells from the cells it gathered (a text's
last byte, a member's index), so it is copied out whole and the drop is
skipped.  The uint8 array left is the piece, with no copy to ``bytes``:
``dumps`` yields bytes-like pieces, which hashlib, ``bytes.join`` and a
binary file take as they are.

A read-only table is shared (``shared``): it lives as long as the
process, as a survey's label texts per n do, so tables built from it are
kept, keyed by its identity.  ``booleans`` and ``numbers`` of small
non-negative ints index shared tables by value, "0" to str(top) no wider
than the column's largest value needs.  A run of adjacent leaves over
shared tables, each a ``Tokens`` with an index or a one-column
``Members`` (a list of at most one member), renders as one composite
cell: its table holds every combination of the leaves' texts with the
skeleton's text between them, NULs moved to each row's end
(``FUSED_ROWS`` rows at most, so a longer run is cut), built once per
tuple of tables and reused by every block and survey, and its index is
the leaves' indices read as the digits of one number.  One gather then
fills what took one per leaf, and a piece holds one run of NULs per
composite cell, not one per short text.

``Rows.values`` reads the same columns back as the list that json.loads
of the text gives.  Each table is parsed once, in one json.loads call, and
its values are shared: every row that names a text holds the same object.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from functools import cache, cached_property
from typing import Iterator, NamedTuple, Sequence

import numpy as np

# Rows rendered per piece: bounds the bytes held at once.  Pieces of 2¹¹
# rows stay in cache: at n = 16 they ran faster than pieces of 2¹⁶.
CHUNK = 1 << 11
# A marker as json.dumps writes it.
_MARKER = re.compile(r'"\\u0000(\w+)\\u0000"')
# Rows of a composite cell's table at most: the audit's run of five leaves
# at n = 4 takes at most 1,600 rows of 67 bytes, and a table of 2¹² rows
# of that width stays in a core's L2 cache while every piece gathers it.
FUSED_ROWS = 1 << 12


def slot(name: str) -> str:
    """The skeleton leaf filled from the column ``name`` (word characters)."""
    return "\0" + name + "\0"


def slots(*names: str) -> dict:
    """A skeleton object whose every key is a leaf filled from its column."""
    return {name: slot(name) for name in names}


def canonical_dumps(obj) -> str:
    """Sorted keys, no whitespace: the bytes every payload digest covers.
    A non-finite float raises ValueError."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def _ascii(text: str) -> np.ndarray:
    return np.frombuffer(text.encode(), dtype=np.uint8)


def table(texts: Sequence[str]) -> np.ndarray:
    """The (ASCII) texts as uint8 rows, NUL-padded to the longest."""
    if "\0" in "".join(texts):
        raise ValueError("a JSON text cannot hold a raw NUL")
    encoded = np.array(texts, dtype=bytes)
    return encoded.view(np.uint8).reshape(len(texts), encoded.itemsize)


class Tokens(NamedTuple):
    """A leaf column: row r is the text in row ``index[r]`` of ``table``
    (in row r when ``index`` is None)."""

    table: np.ndarray
    index: np.ndarray | None = None

    def width(self) -> int:
        return self.table.shape[1]

    def fill(self, out: np.ndarray, start: int, stop: int) -> bool:
        """Rows ``start:stop`` into ``out``: whether each fills its width,
        read off its last byte, as the texts are left-aligned."""
        out[:] = self.table[start:stop] if self.index is None \
            else self.table.take(self.index[start:stop], axis=0)
        return bool(out[:, -1].all())

    def values(self, parsed: list) -> list:
        """Each row's value, ``parsed`` holding the values of the table."""
        return list(parsed) if self.index is None \
            else list(map(parsed.__getitem__, self.index.tolist()))


class Members:
    """A list leaf: row r lists the texts in rows ``index[r, 0]``,
    ``index[r, 1]``, ... of ``table``, right-aligned: 0 stands for no
    member and comes only on the left, so a row whose last entry is 0 is
    the empty list.  A row with a 0 right of a member is refused."""

    def __init__(self, table: np.ndarray, index: np.ndarray):
        if not index.shape[1]:
            raise ValueError("member rows need at least one column")
        if ((index[:, :-1] != 0) & (index[:, 1:] == 0)).any():
            raise ValueError("member rows must be right-aligned: a 0 "
                             "right of a member")
        self.table, self.index = table, index

    def width(self) -> int:
        return self.index.shape[1] * (1 + self.table.shape[1]) + 1

    @cached_property
    def _cells(self) -> np.ndarray:
        """Per table row: its text and a comma, nothing for 0.  The one
        copy of the table a list takes: at n = 22 a set's 2²¹ labels
        make it 52 MB."""
        texts = self.table.shape[1]
        cells = np.zeros((len(self.table), texts + 1), np.uint8)
        cells[1:, :texts] = self.table[1:]
        cells[1:, texts] = ord(",")
        return cells

    def fill(self, out: np.ndarray, start: int, stop: int) -> bool:
        """"[", a member's text and a comma per column, then "]" over the
        last column's comma: that column, a member or (an empty list) 0,
        closes the list.  Whether the rows fill their width: every column
        a member, each text as wide as the table."""
        cells = self._cells
        index = self.index[start:stop]
        out[:, 0] = ord("[")
        out[:, 1:].reshape(len(index), -1, cells.shape[1])[:] = cells.take(
            index, axis=0)
        out[:, -1] = ord("]")
        return bool(index.all()) and self._full

    @cached_property
    def _full(self) -> bool:
        return bool(self.table[1:, -1].all())

    def values(self, parsed: list) -> list:
        """Each row's list, ``parsed`` holding the values of the table."""
        return [[parsed[i] for i in row if i] for row in self.index.tolist()]


# tables built from shared tables, by a key of the tables' identities:
# the tables, held so that no identity is reused, and the table built
_built: dict[tuple, tuple] = {}


def _kept(key: tuple, tables: tuple, build) -> np.ndarray:
    """``build()`` of the shared ``tables``, made on first use of ``key``
    and kept for the process, shared in turn."""
    if key not in _built:
        _built[key] = tables, shared(build())
    return _built[key][1]


def _scalar(leaf) -> Tokens | None:
    """The leaf as a ``Tokens`` with an index over a shared table, if it
    is one: a one-column ``Members`` is its "[text]" cells, "[]" for 0.
    None for any other leaf."""
    table = leaf.table
    if table.flags.writeable or leaf.index is None:
        return None
    if isinstance(leaf, Tokens):
        return leaf
    if leaf.index.shape[1] != 1:
        return None

    def bracketed():
        cells = np.zeros((len(table), table.shape[1] + 2), np.uint8)
        cells[:, 0] = ord("[")
        cells[0, 1] = cells[1:, -1] = ord("]")
        cells[1:, 1:-1] = table[1:]
        return cells

    return Tokens(_kept(("[]", id(table)), (table,), bracketed),
                  leaf.index[:, 0])


def _composite(leaves: Sequence[Tokens], between: Sequence[str]) -> Tokens:
    """Adjacent shared leaves as one, ``between`` holding the skeleton's
    text between each two.  Its table holds the texts of every combination
    of the leaves' table rows, the last leaf's changing fastest, each
    row's NULs moved to its end: a piece then holds one run of NULs per
    composite cell, not one per short text, and dropping them costs by
    the run as much as by the byte.  Its index reads the leaves' indices
    as the digits of one number in those radices."""
    tables = tuple(leaf.table for leaf in leaves)
    sizes = [len(table) for table in tables]

    def combined():
        cells = np.empty((*sizes, sum(t.shape[1] for t in tables)
                          + sum(map(len, between))), np.uint8)
        end = 0
        for axis, table in enumerate(tables):
            if axis:
                gap = _ascii(between[axis - 1])
                cells[..., end:end + len(gap)] = gap
                end += len(gap)
            shape = [1] * len(sizes) + [table.shape[1]]
            shape[axis] = sizes[axis]
            cells[..., end:end + table.shape[1]] = table.reshape(shape)
            end += table.shape[1]
        cells = cells.reshape(-1, end)
        return np.take_along_axis(cells, np.argsort(
            cells == 0, axis=1, kind="stable"), axis=1)

    at = np.zeros(len(leaves[0].index), np.int16)  # FUSED_ROWS ≤ 2¹⁵
    for leaf, size in zip(leaves, sizes):
        at *= size  # each index is below its size, in any integer dtype
        np.add(at, leaf.index, out=at, casting="unsafe")
    return Tokens(_kept((tuple(between), *map(id, tables)), tables,
                        combined), at)


def _fused(segments: Sequence[str], leaves: Sequence
           ) -> tuple[list[str], list]:
    """``segments`` and ``leaves`` with each run of adjacent shared leaves
    as one composite cell, a run cut where its table would pass
    ``FUSED_ROWS`` rows."""
    runs: list[list[int]] = []
    scalars = list(map(_scalar, leaves))
    rows = math.inf  # of the open run's table; none is open
    for i, scalar in enumerate(scalars):
        size = math.inf if scalar is None else len(scalar.table)
        if rows * size <= FUSED_ROWS:
            runs[-1].append(i)
            rows *= size
        else:
            runs.append([i])
            rows = size
    cells = [_composite([scalars[i] for i in run],
                        [segments[i] for i in run[1:]]) if len(run) > 1
             else scalars[run[0]] or leaves[run[0]] for run in runs]
    return [segments[0]] + [segments[run[-1] + 1] for run in runs], cells


def pick(index: np.ndarray, texts: Sequence[str]) -> Tokens:
    """texts[index[r]] for every row r."""
    return Tokens(table(texts), index)


def shared(texts: np.ndarray) -> np.ndarray:
    """The table ``texts``, made read-only: shared, so the cells built
    from it are kept for the process (module docstring)."""
    texts.flags.writeable = False
    return texts


_BOOLEANS = shared(table(["false", "true"]))


def booleans(values: np.ndarray) -> Tokens:
    return Tokens(_BOOLEANS, np.asarray(values, dtype=bool).view(np.uint8))


def numbers(values: np.ndarray, missing: np.ndarray | None = None
            ) -> Tokens:
    """JSON texts of an int or float column, "null" where ``missing``.
    Each distinct value is rendered once; floats are told apart by bit
    pattern, so -0.0 keeps its sign.  A non-finite float raises
    ValueError, as json.dumps(allow_nan=False) does."""
    if values.dtype.kind in "iu" and missing is None and values.size \
            and 0 <= values.min() and values.max() < 256:  # no sort needed
        return Tokens(_counts(int(values.max())), values)
    floats = values.dtype.kind == "f"
    if floats and not np.isfinite(values).all():
        raise ValueError("Out of range float values are not JSON compliant")
    keys = values.view(np.int64) if floats else values
    distinct, index = np.unique(keys, return_inverse=True)
    texts = list(map(repr, distinct.view(values.dtype).tolist()))
    if missing is not None:
        index[missing] = len(texts)
        texts.append("null")
    return pick(index, texts)


@cache
def _counts(top: int) -> np.ndarray:
    """The shared table of "0", "1", ..., str(top): no wider than the
    texts of a column whose largest value is ``top``."""
    return shared(table(list(map(str, range(top + 1)))))


# The eight binary digits of every byte value in ASCII, on first use.
_digits = cache(lambda: ord("0") + np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1))


def binary_texts(n: int, labels: np.ndarray | None = None) -> Tokens:
    """JSON texts of n-bit labels, '"0101"', one row each: of ``labels``
    (non-negative ints below 2ⁿ), or of every label when None.  Each byte
    of a label is written through the 256-row table of binary digits."""
    if labels is None:
        labels = np.arange(1 << n)
    size = (n + 7) // 8
    raw = labels.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 8 - size:]
    texts = np.empty((len(labels), n + 2), dtype=np.uint8)
    texts[:, 0] = texts[:, -1] = ord('"')
    texts[:, 1:-1] = _digits()[raw].reshape(len(labels), -1)[:, 8 * size - n:]
    return Tokens(texts)


def rendered(segments: Sequence[str], leaves: Sequence, first: str,
             sep: str) -> Iterator[np.ndarray]:
    """Each row as ``sep`` (``first``, as long, on the first row),
    segments[0], leaf 0, segments[1], ..., segments[-1], ``CHUNK`` rows a
    piece, each piece a new uint8 array of its bytes: the matrix with its
    NULs dropped, or copied whole where every leaf filled its width."""
    size = len(leaves[0].table if leaves[0].index is None
               else leaves[0].index)
    segments, leaves = _fused(segments, leaves)
    parts = [_ascii(sep + segments[0])]
    for leaf, text in zip(leaves, segments[1:]):
        parts += [np.zeros(leaf.width(), np.uint8), _ascii(text)]
    ends = np.cumsum([0, *map(len, parts)]).tolist()
    matrix = np.empty((min(CHUNK, size), ends[-1]), dtype=np.uint8)
    matrix[:] = np.concatenate(parts)  # the text between the leaves
    for start in range(0, size, CHUNK):
        rows = matrix[:min(CHUNK, size - start)]
        full = [leaf.fill(rows[:, ends[2 * i + 1]:ends[2 * i + 2]], start,
                          start + len(rows)) for i, leaf in enumerate(leaves)]
        rows[0, :len(sep)] = _ascii(sep if start else first)
        yield rows.flatten() if all(full) else rows[rows != 0]


class Rows(NamedTuple):
    """A JSON list whose rows share the shape ``skeleton``, as columns:
    ``blocks`` holds the rows in non-empty runs, each a map from every
    leaf name to its ``Tokens`` or ``Members`` column."""

    skeleton: object
    blocks: Sequence[dict]

    def text(self) -> Iterator[bytes | np.ndarray]:
        """The list in bytes-like pieces, compact with sorted keys."""
        template = canonical_dumps(self.skeleton)
        names = _MARKER.findall(template)
        segments = _MARKER.split(template)[0::2]
        for i, columns in enumerate(self.blocks):
            yield from rendered(segments, [columns[name] for name in names],
                                "," if i else "[", ",")
        yield b"]" if self.blocks else b"[]"

    def values(self) -> list:
        """The list as json.loads of ``text()`` gives it, keys sorted.
        Each table is parsed once, so a text named by several rows or
        columns is one object."""
        parsed = {id(column.table): column.table for columns in self.blocks
                  for column in columns.values()}
        for key, texts in parsed.items():
            parsed[key] = _parsed(texts)
        found = []
        for columns in self.blocks:
            found += _filled(self.skeleton, lambda name: columns[name].values(
                parsed[id(columns[name].table)]))
        return found


def _parsed(texts: np.ndarray) -> list:
    """The values of a table's texts, in one json.loads call."""
    cells = np.hstack([texts, np.full((len(texts), 1), ord(","), np.uint8)])
    return json.loads(b"[" + cells[cells != 0].tobytes()[:-1] + b"]")


def _filled(skeleton, leaf) -> list:
    """One copy of ``skeleton`` per row, each object's keys sorted, and
    each slot holding its row of ``leaf(name)``.  Every leaf of the
    skeleton is a slot, and every list or object in it holds one."""
    if isinstance(skeleton, dict):
        keys = sorted(skeleton)
        return [dict(zip(keys, row)) for row in
                zip(*[_filled(skeleton[key], leaf) for key in keys])]
    if isinstance(skeleton, list):
        return [list(row) for row in
                zip(*[_filled(item, leaf) for item in skeleton])]
    return leaf(skeleton[1:-1])


def dumps(obj) -> Iterator[bytes | np.ndarray]:
    """``canonical_dumps`` of ``obj`` in bytes-like pieces, each ``Rows``
    spliced in as its list: the text around the lists as bytes, the rows
    as the uint8 arrays ``rendered`` yields."""
    tables: list[Rows] = []

    def marked(value):
        if isinstance(value, Rows):
            tables.append(value)
            return slot(str(len(tables) - 1))
        if isinstance(value, dict):
            return {key: marked(item) for key, item in value.items()}
        return value

    text = canonical_dumps(marked(obj))
    done = 0
    for match in _MARKER.finditer(text):
        yield text[done:match.start()].encode()
        yield from tables[int(match[1])].text()
        done = match.end()
    yield text[done:].encode()


def digest(obj) -> str:
    """sha256 of the canonical text of ``obj``, its ``Rows`` spliced in."""
    sha = hashlib.sha256()
    for piece in dumps(obj):
        sha.update(piece)
    return sha.hexdigest()
