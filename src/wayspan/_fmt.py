"""Shared helpers for the JSON-based document formats.

Every on-disk document is written by :func:`write_document`, whose output
is byte for byte ``json.dumps(doc, indent=2, sort_keys=True) + "\n"`` of
the same document with each array replaced by its ``.tolist()``:

* objects have string keys, written in sorted order, and an empty object
  or list is ``{}`` or ``[]``;
* every other scalar is written by the ``json`` module, so floats use
  Python's shortest round-trip ``repr`` and a saved document reloads
  bit-exactly;
* a finite, non-empty float64 ``ndarray`` of at least one dimension is
  written from its buffer, its leading axis streamed to the target in
  blocks, so neither the nested lists nor the whole text is ever held.
  The row template is split once at its value slots into the fixed indent
  separators; each distinct value of a block goes through
  ``float.__repr__`` once, and the block is one ``"".join`` of its value
  texts interleaved with the separators;
* any other array (non-finite, non-float64, empty or 0-d) is written
  through its ``.tolist()`` by the ``json`` path, keeping its
  ``NaN``/``Infinity`` tokens.

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


def canonical_dumps(doc) -> str:
    """The canonical document text, as :func:`write_document` writes it."""
    buf = io.StringIO()
    write_document(buf, doc)
    return buf.getvalue()


def write_document(target, doc) -> None:
    """Write ``doc`` as canonical JSON to a path or a file-like object."""
    plan = _plan(doc)
    with _opened(target) as fh:
        _emit(fh, plan)


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


def _emit(fh, plan) -> None:
    fh.writelines(_chunks(plan, 0))
    fh.write("\n")


def _plan(obj):
    """Validate ``obj`` and encode its scalars; streamed arrays are kept as is.

    An object or a list becomes ``(brackets, [(prefix, child), ...])``, with
    an object's keys encoded into the prefixes in sorted order, and every
    other leaf becomes its final text, so writing the plan cannot fail.
    """
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"document keys must be str, not {type(key).__name__}")
        return "{}", [(json.dumps(key) + ": ", _plan(obj[key])) for key in sorted(obj)]
    if isinstance(obj, (list, tuple)):
        return "[]", [("", _plan(item)) for item in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype == np.float64 and obj.ndim and obj.size and _all_finite(obj):
            return obj
        return _plan(obj.tolist())
    return json.dumps(obj)


def _chunks(node, level: int):
    """Text pieces of a planned node whose opening bracket is at indent ``level``."""
    if isinstance(node, str):
        yield node
        return
    if isinstance(node, np.ndarray):
        yield from _array_chunks(node, level)
        return
    brackets, items = node
    if not items:
        yield brackets
        return
    inner = "\n" + INDENT * (level + 1)
    sep = brackets[0] + inner
    for prefix, child in items:
        yield sep + prefix
        yield from _chunks(child, level + 1)
        sep = "," + inner
    yield "\n" + INDENT * level + brackets[1]


def _template(shape: tuple, level: int) -> str:
    """Format string of an array of ``shape`` (no zero axis) at ``level``, one ``%s`` per value."""
    if not shape:
        return "%s"
    inner = "\n" + INDENT * (level + 1)
    item = _template(shape[1:], level + 1)
    return "[" + inner + ("," + inner).join([item] * shape[0]) + "\n" + INDENT * level + "]"


def _array_chunks(a: np.ndarray, level: int):
    """A non-empty float array's text, streamed in blocks along its leading axis.

    The row template splits at its ``%s`` slots into ``parts``; every value is
    followed by the separator after its slot, which for a row's last value
    also closes the row and opens the next, and a block is one join of its
    value texts interleaved with those separators.
    """
    inner = "\n" + INDENT * (level + 1)
    parts = _template(a.shape[1:], level + 1).split("%s")
    width = len(parts) - 1
    rows = max(1, BLOCK_FLOATS // width)
    seps = (parts[1:-1] + [parts[-1] + "," + inner + parts[0]]) * min(rows, len(a))
    pieces = [None] * (2 * len(seps))
    pieces[1::2] = seps
    yield "[" + inner + parts[0]
    for start in range(0, len(a), rows):
        texts = _value_texts(a[start : start + rows])
        if start + rows >= len(a):
            del pieces[2 * len(texts) :]
            pieces[-1] = parts[-1]
        pieces[::2] = texts
        yield "".join(pieces)
    yield "\n" + INDENT * level + "]"


def _value_texts(block: np.ndarray) -> list:
    """``float.__repr__`` of every value in C order, formatted once per run of
    equal bit patterns.

    Way-point sets repeat few values (zeros and ones of the identity
    embedding, shared eigenvector entries): the Theorem 1 set at N = 24
    has 673 distinct ones among 1,271,808, so formatting only those removes
    most of the writer's cost.  The runs come from one plain sort: each
    key is a value's bit pattern with its low bits replaced by its
    position, so after the sort equal values are adjacent unless values
    that differ only in those low bits interleave.  Runs are cut wherever
    the full bit patterns of neighbours differ, which keeps every text
    exact; such an interleaving only formats a value more than once.
    """
    bits = block.ravel().view(np.uint64)
    shift = (len(bits) - 1).bit_length()
    low = (1 << shift) - 1
    keys = bits & ~np.uint64(low) | np.arange(len(bits), dtype=np.uint64)
    order = (np.sort(keys) & low).astype(np.intp)
    sorted_bits = bits[order]
    new_run = np.empty(len(bits), dtype=bool)
    new_run[0] = True
    np.not_equal(sorted_bits[1:], sorted_bits[:-1], out=new_run[1:])
    texts = np.array(list(map(float.__repr__, sorted_bits[new_run].view(np.float64).tolist())), dtype=object)
    run = np.empty(len(bits), dtype=np.intp)
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
