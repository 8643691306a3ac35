"""Bit-exact document text and round trips, including -0.0 and subnormals."""

import io
import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import coupled_traceless_symmetric
from wayspan import _fmt, cli, evolve, model, waypoints
from wayspan._fmt import FormatError, canonical_dumps, complex_entries, write_document
from wayspan.evolve import ControlField
from wayspan.model import QuantumSystem

TINY = 5e-324  # smallest positive subnormal
SUB = 2.2250738585072009e-308  # largest subnormal


def _bits(a):
    a = np.ascontiguousarray(a)
    return (a.view(np.float64) if np.iscomplexobj(a) else a.astype(np.float64)).view(np.uint64)


def _write_system(sys, target):
    write_document(target, {"n": sys.dim, "h0": sys.h0, "mu": sys.mu})


def _per_entry(m):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


@settings(max_examples=50)
@given(
    n=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_complex_entries_text_matches_per_entry_floats(n, data):
    parts = data.draw(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2 * n * n, max_size=2 * n * n)
    )
    m = np.array(parts[0::2]).reshape(n, n) + 1j * np.array(parts[1::2]).reshape(n, n)
    assert canonical_dumps(complex_entries(m)) == canonical_dumps(_per_entry(m))


def test_complex_entries_keep_signed_zero_and_subnormals():
    m = np.array([[complex(-0.0, TINY), complex(SUB, -0.0)], [complex(-TINY, 1e-310), complex(0.0, -SUB)]])
    entries = complex_entries(m)
    assert canonical_dumps(entries) == canonical_dumps(_per_entry(m))
    assert np.array_equal(_bits(np.array(entries)), _bits(np.stack([m.real, m.imag], -1)))


def test_field_document_is_bit_exact(tmp_path):
    field = ControlField(horizon=1.5, values=[-0.0, TINY, -1e-310, SUB, 0.1, -0.0])
    path = tmp_path / "field.json"
    evolve.save_field(field, path)
    again = evolve.load_field(path)
    assert np.array_equal(_bits(again.values), _bits(field.values))
    evolve.save_field(again, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_system_document_is_bit_exact(tmp_path):
    h0 = np.array([[-0.0, TINY, 1.0], [TINY, SUB, -0.0], [1.0, -0.0, -1e-310]])
    mu = np.array([[TINY, 1.0, -0.0], [1.0, -TINY, 1e-310], [-0.0, 1e-310, 0.0]])
    sys3 = QuantumSystem(3, h0, mu)
    path = tmp_path / "system.json"
    _write_system(sys3, path)
    again = model.load_system(path)
    assert np.array_equal(_bits(again.h0), _bits(h0))
    assert np.array_equal(_bits(again.mu), _bits(mu))
    _write_system(again, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_waypoint_document_is_bit_exact(tmp_path):
    u = np.array(
        [[complex(1.0, -0.0), complex(-0.0, TINY)], [complex(1e-310, -0.0), complex(1.0, SUB)]]
    )
    wset = waypoints.WaypointSet(dim=2, unitaries=np.array([u, np.eye(2)]), provenance="custom")
    path = tmp_path / "set.json"
    waypoints.save_waypoints(wset, path)
    again = waypoints.load_waypoints(path)
    assert np.array_equal(_bits(again.unitaries), _bits(wset.unitaries))
    waypoints.save_waypoints(again, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


# Values where float repr changes form (1e16 and 1e-5 switch to exponent
# notation), signed zeros and subnormals.
SPECIAL = [
    -0.0, 0.0, TINY, -TINY, SUB, 1e16, np.nextafter(1e16, 0.0), 1e-5, np.nextafter(1e-5, 0.0),
    -1e16, 1e-4, 9999999999999998.0, 1.0, 0.1,
]
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL)
SHAPES = hnp.array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=3)
ARRAYS = (
    hnp.arrays(np.float64, SHAPES, elements=FINITE)
    | hnp.arrays(np.float64, SHAPES, elements=st.floats())
    | hnp.arrays(np.int64, SHAPES, elements=st.integers(-(2**40), 2**40))
)
# Few distinct values whose bit patterns differ only in their lowest bits
# (signed zeros, subnormals, one-ulp neighbours), interleaved, so that equal
# values are not adjacent in a sort that ignores those bits.
FEW = [0.0, TINY, -0.0, 1.0, np.nextafter(1.0, 2.0), 2 * TINY, 1.0, 0.0, -TINY, SUB, -0.0, TINY, 0.5]
TEXT = st.text(alphabet='ab", [\\\né', max_size=5)
SCALARS = st.none() | st.booleans() | st.integers(-(10**20), 10**20) | FINITE | TEXT
DOCS = st.recursive(
    SCALARS | ARRAYS,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(TEXT, kids, max_size=3),
    max_leaves=8,
)


def _to_lists(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: _to_lists(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_lists(value) for value in obj]
    return obj


def _oracle(doc) -> str:
    return json.dumps(_to_lists(doc), indent=2, sort_keys=True) + "\n"


def _first_difference(text, expected):
    """None for equal texts, else the first differing line number and lines.

    Used in place of a bare ``==`` on long documents, whose failure report,
    pytest's line diff, takes time quadratic in the line count.
    """
    if text == expected:
        return None
    pairs = itertools.zip_longest(text.splitlines(), expected.splitlines())
    return next(((k + 1, got, want) for k, (got, want) in enumerate(pairs) if got != want), "line ends")


@settings(max_examples=300)
@given(doc=DOCS, block=st.sampled_from([1, 2, 5, _fmt.BLOCK_FLOATS]))
@example(doc={'", [': [np.array([[-0.0, 1e16], [1e-5, TINY]]), None, 3]}, block=1)
@example(doc=np.zeros((2, 0, 3)), block=1)
@example(doc=[np.array([1.0, np.nan, -np.inf])], block=1)
@example(doc=np.resize(FEW, (7, 2, 3)), block=13)
@example(doc={"row": np.resize(FEW, (1, _fmt.BLOCK_FLOATS + 3))}, block=_fmt.BLOCK_FLOATS)
def test_writer_matches_json_oracle(doc, block):
    expected = _oracle(doc)
    buf = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_fmt, "BLOCK_FLOATS", block)
        assert _first_difference(canonical_dumps(doc), expected) is None
        write_document(buf, doc)
    assert _first_difference(buf.getvalue(), expected) is None


def test_streamed_file_matches_oracle_across_blocks(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    doc = {"a": rng.normal(size=(7, 3, 2)), "b": [rng.normal(size=5), {"c": np.ones((1, 1, 1, 1))}]}
    for block in (1, 4, 6, 7, 100):
        monkeypatch.setattr(_fmt, "BLOCK_FLOATS", block)
        path = tmp_path / f"doc{block}.json"
        write_document(path, doc)
        assert path.read_bytes() == _oracle(doc).encode()


def test_theorem1_document_matches_oracle(tmp_path):
    wset = waypoints.theorem1_waypoints(coupled_traceless_symmetric(8, np.random.default_rng(8)))
    path = tmp_path / "set.json"
    waypoints.save_waypoints(wset, path)
    doc = {
        "dim": 8,
        "provenance": "theorem1",
        "count": 112,
        "unitaries": complex_entries(wset.unitaries),
        "pair_index": [list(entry) for entry in wset.pair_index],
    }
    assert _first_difference(path.read_bytes().decode(), _oracle(doc)) is None


@pytest.mark.parametrize(
    "doc",
    [
        {"ok": np.ones(3), "bad": 1j},
        {"ok": np.ones(3), "bad": np.ones(2, dtype=complex)},
        {"ok": np.ones(3), 1: 2.0},
        [np.ones((2, 2)), object()],
    ],
)
def test_failed_validation_leaves_no_file(tmp_path, doc):
    path = tmp_path / "doc.json"
    with pytest.raises(TypeError):
        write_document(path, doc)
    assert not path.exists()


def _per_entry_table(table, header=None):
    lines = [",".join(header)] if header is not None else []
    lines += [",".join(repr(float(v)) for v in row) for row in table]
    return "\n".join(lines) + "\n"


@settings(max_examples=100)
@given(
    shape=st.tuples(st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=5)),
    data=st.data(),
    block=st.sampled_from([1, 4, _fmt.BLOCK_FLOATS]),
    header=st.sampled_from([None, ["t", "x"]]),
)
def test_float_table_matches_per_entry_repr(shape, data, block, header):
    table = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(allow_nan=False, allow_infinity=False)))
    buf = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_fmt, "BLOCK_FLOATS", block)
        _fmt.write_float_table(buf, table, header)
    assert buf.getvalue() == _per_entry_table(table, header)


def test_float_table_keeps_signed_zero_and_subnormals(tmp_path):
    table = np.array([[-0.0, TINY, SUB], [-TINY, 1e-310, 0.0], [-SUB, 1.0, -0.0]])
    path = tmp_path / "table.csv"
    _fmt.write_float_table(path, table)
    text = path.read_text()
    assert text == _per_entry_table(table)
    back = np.array([[float(v) for v in line.split(",")] for line in text.splitlines()])
    assert np.array_equal(_bits(back), _bits(table))


def test_trajectory_csv_matches_per_entry_text(tmp_path):
    rng = np.random.default_rng(3)
    h0 = rng.normal(size=(3, 3))
    mu = rng.normal(size=(3, 3))
    mu = mu + mu.T - np.trace(mu + mu.T) / 3 * np.eye(3)
    traj = evolve.propagate(QuantumSystem(3, h0 + h0.T, mu), ControlField(2.0, rng.normal(size=9)))
    header = ["t"] + [f"{p}_u_{i}_{j}" for i in range(1, 4) for j in range(1, 4) for p in ("re", "im")]
    rows = [[t] + [x for v in u.reshape(-1) for x in (v.real, v.imag)] for t, u in zip(traj.times, traj.unitaries)]
    evolve.trajectory_csv(traj, tmp_path / "traj.csv")
    assert (tmp_path / "traj.csv").read_text() == _per_entry_table(rows, header)


# Every document kind, each broken in four ways, plus strings and booleans
# read as numbers and a malformed pair_index; each must be rejected by its
# loader with FormatError and by the CLI with exit code 2.
NAN = float("nan")
H0 = [[0.0, 0.0], [0.0, 1.0]]
MU = [[0.0, 1.0], [1.0, 0.0]]
EYE_PAIRS = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
BAD_DOCUMENTS = {
    ("system", "nan"): {"n": 2, "h0": [[NAN, 0.0], [0.0, 1.0]], "mu": MU},
    ("system", "shape"): {"n": 2, "h0": H0, "mu": [[0.0, 1.0]]},
    ("system", "non-numeric"): {"n": 2, "h0": H0, "mu": [[0.0, "one"], [1.0, 0.0]]},
    ("system", "bool-int"): {"n": True, "h0": [[0.0]], "mu": [[0.0]]},
    ("system-csv", "nan"): "2\nnan,0\n0,1\n0,1\n1,0\n",
    ("system-csv", "shape"): "2\n0,0\n0,1\n0,1\n1,0,0\n",
    ("system-csv", "non-numeric"): "2\n0,0\n0,1\n0,one\n1,0\n",
    ("system-csv", "bool-int"): "true\n0,0\n0,1\n0,1\n1,0\n",
    ("field", "nan"): {"T": 1.0, "M": 2, "values": [0.5, NAN]},
    ("field", "shape"): {"T": 1.0, "M": 2, "values": [[0.5, 0.5]]},
    ("field", "non-numeric"): {"T": 1.0, "M": 2, "values": [0.5, None]},
    ("field", "bool-int"): {"T": 1.0, "M": True, "values": [0.5]},
    ("field", "bool-string"): {"T": True, "M": 1, "values": ["0.5"]},
    ("field", "string-mix"): {"T": "2.5", "M": 2, "values": [True, "1e-3"]},
    ("field", "bool-T"): {"T": True, "M": 1, "values": [0.5]},
    ("field", "string-T"): {"T": "2.5", "M": 1, "values": [0.5]},
    ("field", "bool-values"): {"T": 1.0, "M": 2, "values": [True, False]},
    ("field", "string-values"): {"T": 1.0, "M": 2, "values": [True, "1e-3"]},
    ("waypoints", "nan"): {"dim": 2, "provenance": "custom", "count": 1, "unitaries": [[[[NAN, 0.0], [0.0, 0.0]], EYE_PAIRS[1]]]},
    ("waypoints", "shape"): {"dim": 2, "provenance": "custom", "count": 2, "unitaries": [EYE_PAIRS]},
    ("waypoints", "non-numeric"): {"dim": 2, "provenance": "custom", "count": 1, "unitaries": [[EYE_PAIRS[0], "I"]]},
    ("waypoints", "bool-int"): {"dim": 2, "provenance": "custom", "count": True, "unitaries": [EYE_PAIRS]},
    ("waypoints", "pair-index"): {"dim": 2, "provenance": "custom", "count": 1, "unitaries": [EYE_PAIRS], "pair_index": [1]},
    ("rho0", "nan"): {"n": 2, "entries": [[1.0, 0.0], [0.0, NAN]]},
    ("rho0", "shape"): {"n": 2, "entries": [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]},
    ("rho0", "non-numeric"): {"n": 2, "entries": [[1.0, 0.0], ["zero", 0.0]]},
    ("rho0", "bool-int"): {"n": True, "entries": [[1.0]]},
    ("obs", "nan"): {"n": 2, "entries": [EYE_PAIRS[0], [[0.0, 0.0], [NAN, 0.0]]]},
    ("obs", "shape"): {"n": 2, "entries": [[1.0, 0.0]]},
    ("obs", "non-numeric"): {"n": 2, "entries": [[1.0, 0.0], [0.0, {}]]},
    ("obs", "bool-int"): {"n": True, "entries": [[1.0]]},
}
LOADERS = {
    "system": model.load_system,
    "system-csv": model.load_system_csv,
    "field": evolve.load_field,
    "waypoints": waypoints.load_waypoints,
}
# The field a NaN entry is reported under.
NAN_FIELDS = {
    "system": "h0",
    "system-csv": "h0 and mu rows",
    "field": "values",
    "waypoints": "unitaries",
    "rho0": "rho0",
    "obs": "obs",
}


def _cli_runs(kind: str, bad: str, good: dict) -> list[list[str]]:
    """CLI calls that read the ``kind`` document from ``bad`` and every other input from ``good``."""
    files = dict(good, **{kind: bad})
    if kind in ("system", "system-csv"):
        return [["validate", "--system", bad], ["propagate", "--system", bad, "--field", files["field"]]]
    if kind == "field":
        return [["propagate", "--system", files["system"], "--field", bad]]
    if kind == "waypoints":
        return [["steer", "--system", files["system"], "--waypoints", bad]]
    inputs = ["--system", files["system"], "--field", files["field"], "--rho0", files["rho0"], "--obs", files["obs"]]
    return [["check", *inputs], ["gradient-check", *inputs]]


@pytest.mark.parametrize("kind, defect", sorted(BAD_DOCUMENTS))
def test_every_document_reader_rejects_bad_arrays(kind, defect, tmp_path, capsys):
    doc = BAD_DOCUMENTS[kind, defect]
    text = doc if isinstance(doc, str) else json.dumps(doc)
    if kind in LOADERS:
        with pytest.raises(FormatError):
            LOADERS[kind](io.StringIO(text))
    good = {
        "system": str(tmp_path / "system.json"),
        "field": str(tmp_path / "field.json"),
        "rho0": str(tmp_path / "rho0.json"),
        "obs": str(tmp_path / "obs.json"),
    }
    _write_system(QuantumSystem(2, np.array(H0), np.array(MU)), good["system"])
    evolve.save_field(ControlField(horizon=1.0, values=[0.5, -0.5]), good["field"])
    write_document(good["rho0"], {"n": 2, "entries": [[1.0, 0.0], [0.0, 0.0]]})
    write_document(good["obs"], {"n": 2, "entries": MU})
    bad = tmp_path / ("bad.csv" if kind == "system-csv" else "bad.json")
    bad.write_text(text)
    for argv in _cli_runs(kind, str(bad), good):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        if defect == "nan":
            assert f"field {NAN_FIELDS[kind]!r} contains non-finite entries" in err


def test_complex_from_entries_inverts_complex_entries():
    m = np.array([[complex(-0.0, TINY), complex(SUB, -0.0)], [complex(1.5, -2.0), complex(0.0, -SUB)]])
    back = _fmt.complex_from_entries(complex_entries(m))
    assert np.array_equal(_bits(back), _bits(m))


@settings(max_examples=200)
@given(a=hnp.arrays(np.float64, SHAPES, elements=st.floats()))
def test_float_array_rejects_exactly_the_non_finite_arrays(a):
    if np.isfinite(a).all():
        assert np.array_equal(_bits(_fmt.float_array(a, "a", a.shape)), _bits(a))
    else:
        with pytest.raises(FormatError, match="non-finite"):
            _fmt.float_array(a, "a", a.shape)
