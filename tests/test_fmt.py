"""Bit-exact document text and round trips, including -0.0 and subnormals."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wayspan import evolve, model, waypoints
from wayspan._fmt import canonical_dumps, complex_entries
from wayspan.evolve import ControlField
from wayspan.model import QuantumSystem

TINY = 5e-324  # smallest positive subnormal
SUB = 2.2250738585072009e-308  # largest subnormal


def _bits(a):
    a = np.ascontiguousarray(a)
    return (a.view(np.float64) if np.iscomplexobj(a) else a.astype(np.float64)).view(np.uint64)


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
    model.save_system(sys3, path)
    again = model.load_system(path)
    assert np.array_equal(_bits(again.h0), _bits(h0))
    assert np.array_equal(_bits(again.mu), _bits(mu))
    model.save_system(again, tmp_path / "again.json")
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
