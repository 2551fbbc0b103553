"""JSON text from numpy columns, byte for byte what json.dumps writes.

A payload may hold ``Rows`` as the value of a key at any depth: a list
of rows of one shape, held as columns of JSON texts.  The shape is a
skeleton, one row with a ``slot(name)`` marker at every leaf; json.dumps
of it, cut at the markers, gives the text between the leaves.  ``dumps``
splices each list in at its marker, at the depth the indentation of the
marker's line shows.
"""

from __future__ import annotations

import hashlib
import json
import operator
import re
from typing import Iterator, Sequence

import numpy as np

# Rows joined per piece of output: bounds the text held at once.
CHUNK = 1 << 16
# A marker as json.dumps writes it; JSON text never holds a raw NUL.
_MARKER = re.compile(r'"\\u0000(\w+)\\u0000"')


def slot(name: str) -> str:
    """The skeleton leaf filled from the column ``name`` (word characters)."""
    return "\0" + name + "\0"


def slots(*names: str) -> dict:
    """A skeleton object whose every key is a leaf filled from its column."""
    return {name: slot(name) for name in names}


def canonical_dumps(obj) -> str:
    """Sorted keys, no whitespace: the bytes every payload digest covers."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def pick(index: np.ndarray, texts: Sequence[str]) -> list[str]:
    """texts[index[v]] for every v, one shared string per distinct text."""
    return np.array(texts, dtype=object)[index].tolist()


def booleans(values: np.ndarray) -> list[str]:
    return pick(values.astype(np.intp), ["false", "true"])


def numbers(values: np.ndarray, missing: np.ndarray | None = None
            ) -> list[str]:
    """JSON texts of an int or float column, "null" where ``missing``.

    Each distinct value is rendered once; floats are told apart by bit
    pattern, so -0.0 keeps its sign.  A non-finite float raises
    ValueError, as json.dumps(allow_nan=False) does.
    """
    keys = values
    if values.dtype.kind == "f":
        if not np.isfinite(values).all():
            raise ValueError("Out of range float values are not JSON "
                             "compliant")
        keys = values.view(np.int64)
    distinct, index = np.unique(keys, return_inverse=True)
    texts = list(map(repr, distinct.view(values.dtype).tolist()))
    if missing is not None:
        index[missing] = len(texts)
        texts.append("null")
    return pick(index, texts)


def binary_texts(n: int, labels: np.ndarray | None = None) -> list[str]:
    """JSON texts of n-bit labels, '"0101"': of ``labels`` (non-negative
    ints below 2ⁿ), or of every label in order when None.

    Each text joins one of 2^⌈n/2⌉ high-half texts to one of 2^⌊n/2⌋
    low-half texts, so no label is formatted on its own.
    """
    half = n // 2
    high = ['"' + format(x, f"0{n - half}b") for x in range(1 << (n - half))]
    low = [format(x, f"0{half}b") + '"' for x in range(1 << half)] \
        if half else ['"']
    if labels is None:
        return [h + lo for h in high for lo in low]
    return list(map(operator.add, pick(labels >> half, high),
                    pick(labels & ((1 << half) - 1), low)))


def brackets(indent: str | None) -> tuple[str, str, str]:
    """Opening, separator and closing text of a non-empty list that is the
    value on a line indented by ``indent``; None gives compact text."""
    if indent is None:
        return "[", ",", "]"
    inner = "\n" + indent + "  "
    return "[" + inner, "," + inner, "\n" + indent + "]"


def joined_rows(segments: Sequence[str], columns: Sequence[Sequence[str]],
                sep: str) -> Iterator[str]:
    """Every row, the segments around its column texts, rows joined by
    ``sep``; yielded ``CHUNK`` rows at a time."""
    k, size = len(columns), len(columns[0])
    for start in range(0, size, CHUNK):
        m = min(CHUNK, size - start)
        parts = [segments[-1] + sep + segments[0]] * (2 * k * m + 1)
        parts[0] = sep + segments[0] if start else segments[0]
        parts[-1] = segments[-1]
        for i, column in enumerate(columns):
            parts[2 * i + 1::2 * k] = column[start:start + m]
            if i:
                parts[2 * i::2 * k] = [segments[i]] * m
        yield "".join(parts)


def _indent_at(text: str, at: int) -> str:
    """The spaces that open the line of ``text`` holding position ``at``."""
    line = text[text.rfind("\n", 0, at) + 1:at]
    return line[:len(line) - len(line.lstrip(" "))]


class Rows:
    """A JSON list whose rows share the shape ``skeleton``, as columns.

    ``blocks`` holds the rows in non-empty runs, each a map (or a function
    returning it, called per rendering) from every leaf name to the texts
    of that leaf, row by row.  A leaf whose value is a list may map to a
    function of its line's indentation (None in compact text) giving them.
    """

    def __init__(self, skeleton, blocks: Sequence) -> None:
        self.skeleton = skeleton
        self.blocks = blocks

    def text(self, indent: str | None) -> Iterator[str]:
        """The list in pieces, compact with sorted keys when ``indent`` is
        None, else as json.dumps(indent=2) writes it under ``indent``."""
        opening, sep, closing = brackets(indent)
        if indent is None:
            template = canonical_dumps(self.skeleton)
        else:  # every line indented, the first too, for _indent_at
            template = indent + "  " + json.dumps(
                self.skeleton, indent=2).replace("\n", "\n" + indent + "  ")
        leaves = [(match[1], None if indent is None
                   else _indent_at(template, match.start()))
                  for match in _MARKER.finditer(template)]
        segments = _MARKER.split(template)[0::2]
        segments[0] = segments[0].lstrip(" ")
        for i, block in enumerate(self.blocks):
            columns = block() if callable(block) else block
            texts = [columns[name](at) if callable(columns[name])
                     else columns[name] for name, at in leaves]
            yield sep if i else opening
            yield from joined_rows(segments, texts, sep)
        yield closing if self.blocks else "[]"


def dumps(obj, indented: bool) -> Iterator[str]:
    """json.dumps of ``obj`` in pieces, each ``Rows`` spliced in as its list:
    compact with sorted keys as ``canonical_dumps``, or indented by two
    spaces with allow_nan=False."""
    tables: list[Rows] = []

    def marked(value):
        if isinstance(value, Rows):
            tables.append(value)
            return slot(str(len(tables) - 1))
        if isinstance(value, dict):
            return {key: marked(item) for key, item in value.items()}
        return value

    value = marked(obj)
    text = json.dumps(value, indent=2, allow_nan=False) if indented \
        else canonical_dumps(value)
    done = 0
    for match in _MARKER.finditer(text):
        yield text[done:match.start()]
        indent = _indent_at(text, match.start()) if indented else None
        yield from tables[int(match[1])].text(indent)
        done = match.end()
    yield text[done:]


def digest(obj) -> str:
    """sha256 of the canonical text of ``obj``, its ``Rows`` spliced in."""
    sha = hashlib.sha256()
    for piece in dumps(obj, indented=False):
        sha.update(piece.encode())
    return sha.hexdigest()
