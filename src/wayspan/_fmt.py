"""Shared helpers for the JSON-based document formats.

Every on-disk document is written by :func:`write_document`, whose output
is byte for byte ``json.dumps(doc, indent=2, sort_keys=True) + "\n"`` of
the same document with each array replaced by its ``.tolist()``.  The
``json`` module writes all of it but the streamed arrays: a finite,
non-empty float64 ``ndarray`` of at least one dimension is written by
:func:`_array_chunks` from its buffer, its leading axis streamed to the
target in blocks, so neither its nested lists nor its text is ever held
whole, and each distinct leaf of a block (an innermost row, such as a
complex entry's ``[re, im]``, or a value of a 1-D array) is formatted once.
Floats are Python's shortest round-trip ``repr`` on both paths, so a saved
document reloads bit-exactly.  Any other array is written through its
``.tolist()``, keeping its ``NaN``/``Infinity`` tokens.

The whole document is checked before the target is opened, so an
unserializable value or a non-string key never leaves a truncated file.
Float tables (the trajectory and Lie-basis CSV files) are written by
:func:`write_float_table` with the same ``float.__repr__`` text per value.

Every array read from a document goes through :func:`float_array`, which
converts it once and rejects a wrong shape, a non-numeric entry or a
non-finite value with a :class:`FormatError` naming the field; integer
fields go through :func:`int_field`.  Complex matrices travel as
``[re, im]`` pairs, written by :func:`complex_entries` and read back by
:func:`complex_from_entries`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
from pathlib import Path

import numpy as np


class FormatError(ValueError):
    """Malformed input document (parse, shape, or type errors)."""


def read_text(source) -> str:
    if hasattr(source, "read"):
        data = source.read()
        return data.decode() if isinstance(data, bytes) else data
    return Path(source).read_text()


def _opened(target):
    """A path opened for writing, or a file-like object left open."""
    if hasattr(target, "write"):
        return contextlib.nullcontext(target)
    return open(target, "w", encoding="utf-8")


def write_text(target, text: str) -> None:
    with _opened(target) as fh:
        fh.write(text)


INDENT = "  "
# Values per streamed block; a block holds whole rows of the leading axis.
BLOCK_FLOATS = 1 << 16
# The marker of a streamed array is this token and the array's index, as a JSON
# string.  The token is 128 random bits, so a string of a document holds it
# only by a chance of about 2^-128.
_TOKEN = os.urandom(16).hex()
_MARKER = re.compile(f'"{_TOKEN}(\\d+)"')
# Knuth's multiplicative hash, 2^64 / golden ratio (odd), for :func:`_leaf_texts`.
_SPREAD = np.uint64(0x9E3779B97F4A7C15)


def canonical_dumps(doc) -> str:
    """The canonical document text, as :func:`write_document` writes it."""
    buf = io.StringIO()
    write_document(buf, doc)
    return buf.getvalue()


def write_document(target, doc) -> None:
    """Write ``doc`` as canonical JSON to a path (in binary) or a file-like object.

    ``json.dumps`` lays out the document with each streamed array replaced
    by a numbered marker string (:func:`_skeleton`); the text is split at
    the markers, and each array is streamed where its marker stood, at the
    indentation of the marker's line.  The markers are numbered because
    sorted keys can put the arrays in another order than the walk met them.
    """
    arrays: list = []
    pieces = _MARKER.split(json.dumps(_skeleton(doc, arrays), indent=2, sort_keys=True))
    chunks = _streamed(pieces, arrays)
    if hasattr(target, "write"):
        return target.writelines(chunks)
    with open(target, "wb") as fh:
        fh.writelines(chunk.encode() for chunk in chunks)


def write_float_table(target, table, header=None) -> None:
    """Write a 2-D float array as CSV: an optional header line, then one line per row.

    ``table`` is one 2-D array, or an iterable of 2-D arrays of equal width
    whose rows are written one after another.  The text is
    ``"\n".join(lines) + "\n"`` with every value written as
    ``repr(float(value))``, so each reloads bit-exactly, -0.0 and
    subnormals included.  Rows are formatted and written in blocks of
    about ``BLOCK_FLOATS`` values.
    """
    parts = [table] if isinstance(table, np.ndarray) else table
    with _opened(target) as fh:
        sep = ""
        if header is not None:
            fh.write(",".join(header))
            sep = "\n"
        for part in parts:
            part = np.asarray(part, dtype=float)
            width = part.shape[1]
            rows = max(1, BLOCK_FLOATS // width)
            for start in range(0, len(part), rows):
                texts = list(map(float.__repr__, part[start : start + rows].ravel().tolist()))
                fh.write(sep + "\n".join(",".join(texts[i : i + width]) for i in range(0, len(texts), width)))
                sep = "\n"
        fh.write("\n")


def _skeleton(obj, arrays: list):
    """``obj`` for ``json.dumps``: each array :func:`_array_chunks` streams is
    appended to ``arrays`` and replaced by the marker of its index, any other
    array by its ``.tolist()``.  A key that is not a ``str`` raises
    ``TypeError``, which ``json.dumps`` does not for keys that are all ints."""
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"document keys must be str, not {type(key).__name__}")
        return {key: _skeleton(value, arrays) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_skeleton(item, arrays) for item in obj]
    if not isinstance(obj, np.ndarray):
        return obj
    if obj.dtype == np.float64 and obj.ndim and obj.size and _all_finite(obj):
        arrays.append(obj)
        return f"{_TOKEN}{len(arrays) - 1}"
    return obj.tolist()


def _streamed(pieces: list, arrays: list):
    """The text of :func:`write_document` from ``pieces``, its ``json`` text
    split at the markers: text, then an array's index and the text after it."""
    for k in range(1, len(pieces), 2):
        yield pieces[k - 1]
        line = pieces[k - 1][pieces[k - 1].rfind("\n") + 1 :]
        yield from _array_chunks(arrays[int(pieces[k])], (len(line) - len(line.lstrip(" "))) // len(INDENT))
    yield pieces[-1] + "\n"


def _template(shape: tuple, level: int) -> str:
    """Format string of an array of ``shape`` (no zero axis) at ``level``, one ``%s`` per value."""
    if not shape:
        return "%s"
    inner = "\n" + INDENT * (level + 1)
    item = _template(shape[1:], level + 1)
    return "[" + inner + ("," + inner).join([item] * shape[0]) + "\n" + INDENT * level + "]"


def _array_chunks(a: np.ndarray, level: int):
    """A non-empty float array's text, streamed in blocks along its leading axis.

    A leaf's piece is its text and the separator after its slot in the
    leading-axis row template ``parts``; when all slots share one separator
    (one or two dimensions), pieces carry none and that separator joins them.
    The array's last leaf carries none either, and ``parts[-1]`` closes it.
    """
    inner = "\n" + INDENT * (level + 1)
    leaf_axes = min(a.ndim - 1, 1)
    width = a.shape[-1] if leaf_axes else 1
    leaf = _template(a.shape[a.ndim - leaf_axes :], level + a.ndim - leaf_axes)
    parts = _template(a.shape[1 : a.ndim - leaf_axes], level + 1).split("%s")
    seps = parts[1:-1] + [parts[-1] + "," + inner + parts[0]]
    joiner = seps[0] if len(set(seps)) == 1 else ""
    index: dict = {}
    kind = [index.setdefault(leaf + sep[len(joiner) :], len(index)) for sep in seps + [joiner]]
    rows = max(1, BLOCK_FLOATS // (len(seps) * width))
    kinds = np.tile(np.array(kind[:-1], dtype=np.uint64), min(rows, len(a)))
    yield "[" + inner + parts[0]
    for start in range(0, len(a), rows):
        block = a[start : start + rows].reshape(-1, width)
        block_kinds = kinds[: len(block)]
        if start + rows >= len(a):
            block_kinds = np.append(block_kinds[:-1], np.uint64(kind[-1]))
        if start:
            yield joiner
        yield joiner.join(_leaf_texts(np.ascontiguousarray(block.T), list(index), block_kinds))
    yield parts[-1] + "\n" + INDENT * level + "]"


def _leaf_texts(columns: np.ndarray, templates: list, kinds: np.ndarray) -> list:
    """``templates[kinds[r]] % tuple(columns[:, r])`` for each leaf r of a block, formatted
    once per run of equal kind and bit pattern (the Theorem 1 set at N = 24 has 672 distinct
    [re, im] pairs among 635,904).  One sort finds the runs: of a hash of each leaf's bits and
    kind (a lone value is its own), with the low bits replaced by the leaf's position.  Runs are
    cut where neighbours' full patterns differ, so a key two leaves share costs time only.
    """
    bits = columns.view(np.uint64)
    if len(templates) > 1:
        bits = np.vstack([bits, kinds])
    n = bits.shape[1]
    low = np.uint64((1 << (n - 1).bit_length()) - 1)
    mix = np.arange(1, 2 * len(bits), 2, dtype=np.uint64)[:, None] * _SPREAD
    hashed = bits[0] if len(bits) == 1 else np.bitwise_xor.reduce(bits * mix, axis=0)
    keys = hashed & ~low | np.arange(n, dtype=np.uint64)
    order = (np.sort(keys) & low).astype(np.intp)
    sorted_bits = np.take(bits, order, axis=1)
    new_run = np.append(True, (sorted_bits[:, 1:] != sorted_bits[:, :-1]).any(axis=0))
    first = order[new_run]
    texts = np.empty(len(first), dtype=object)
    for k, template in enumerate(templates):
        pick = slice(None) if len(templates) == 1 else kinds[first] == k
        values = np.take(columns, first[pick], axis=1).tolist()
        fmt = float.__repr__ if template == "%s" else template.__mod__  # "%s" % v parses, then reprs
        texts[pick] = list(map(fmt, values[0] if len(values) == 1 else zip(*values)))
    run = np.empty(n, dtype=np.intp)
    run[order] = np.cumsum(new_run) - 1
    return texts[run].tolist()


def parse_json(source) -> dict:
    text = read_text(source)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON document: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("document root must be a JSON object")
    return doc


def require_key(doc: dict, key: str):
    if key not in doc:
        raise FormatError(f"document is missing required field {key!r}")
    return doc[key]


def int_field(doc: dict, key: str, minimum: int) -> int:
    """The integer field ``key`` of ``doc``, at least ``minimum``; ``true`` is not an integer."""
    value = require_key(doc, key)
    if type(value) is not int or value < minimum:
        raise FormatError(f"field {key!r} must be an integer >= {minimum}, got {value!r}")
    return value


def float_array(obj, name: str, *shapes: tuple) -> np.ndarray:
    """A document array as floats: its shape one of ``shapes`` and every entry finite.

    The dtype numpy infers must be integer or float, so strings, all-boolean
    arrays, ``null`` and integers beyond int64 and uint64 are rejected.
    """
    try:
        arr = np.array(obj)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"field {name!r} is not a numeric array: {exc}") from exc
    if arr.dtype.kind not in "iuf":
        raise FormatError(f"field {name!r} is not a numeric array: its entries are read as {arr.dtype}")
    arr = arr.astype(float, copy=False)
    if arr.shape not in shapes:
        expected = " or ".join(map(str, shapes))
        raise FormatError(f"field {name!r} must have shape {expected}, got {arr.shape}")
    if not _all_finite(arr):
        raise FormatError(f"field {name!r} contains non-finite entries")
    return arr


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of the float array ``a`` is finite.

    min and max carry any NaN or infinity without an elementwise temporary,
    which would be as large as the array.
    """
    return bool(np.isfinite([a.min(initial=0.0), a.max(initial=0.0)]).all())


def complex_from_entries(arr: np.ndarray) -> np.ndarray:
    """(..., 2) float pairs -> complex, bit for bit (``re + 1j * im`` drops -0.0).

    The inverse of :func:`complex_entries`.
    """
    return np.ascontiguousarray(arr).view(complex)[..., 0]


def complex_entries(m: np.ndarray) -> np.ndarray:
    """Complex matrix (or stack) -> float array of [re, im] pairs, shape (..., 2).

    A view of ``m`` when it is already a contiguous complex array.
    """
    m = np.ascontiguousarray(m, dtype=complex)
    return m.view(float).reshape(*m.shape, 2)
