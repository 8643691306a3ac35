"""Shared helpers for the JSON-based document formats.

All on-disk documents are JSON with sorted keys, two-space indent and a
trailing newline.  Floats are written with Python's shortest round-trip
representation, so a saved document reloads bit-exactly.
"""

from __future__ import annotations

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


def write_text(target, text: str) -> None:
    if hasattr(target, "write"):
        target.write(text)
    else:
        Path(target).write_text(text)


def canonical_dumps(obj) -> str:
    """Deterministic JSON serialization used for every document format."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


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


def real_matrix(obj, name: str, n: int) -> np.ndarray:
    """Parse an n x n nested list of reals; raise FormatError otherwise."""
    try:
        arr = np.array(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"field {name!r} is not a numeric matrix: {exc}") from exc
    if arr.shape != (n, n):
        raise FormatError(f"field {name!r} must be {n}x{n}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise FormatError(f"field {name!r} contains non-finite entries")
    return arr


def hermitian_matrix(obj, name: str, n: int) -> np.ndarray:
    """Parse an n x n matrix whose entries are reals or [re, im] pairs."""
    try:
        arr = np.array(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"field {name!r} is not a numeric matrix: {exc}") from exc
    if arr.shape == (n, n):
        return arr.astype(complex)
    if arr.shape == (n, n, 2):
        return _from_pairs(arr)
    raise FormatError(
        f"field {name!r} must be {n}x{n} (reals or [re, im] pairs), got shape {arr.shape}"
    )


def _from_pairs(arr: np.ndarray) -> np.ndarray:
    """(..., 2) float pairs -> complex, bit for bit (``re + 1j * im`` drops -0.0)."""
    return np.ascontiguousarray(arr).view(complex)[..., 0]


def complex_entries(m: np.ndarray) -> list:
    """Matrix -> nested lists of [re, im] pairs (row-major)."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def matrix_from_entries(obj, name: str, n: int) -> np.ndarray:
    """Nested [re, im]-pair lists -> complex n x n matrix."""
    try:
        arr = np.array(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"field {name!r} is not an entry table: {exc}") from exc
    if arr.shape != (n, n, 2):
        raise FormatError(
            f"field {name!r} must be {n}x{n} [re, im] pairs, got shape {arr.shape}"
        )
    return _from_pairs(arr)
