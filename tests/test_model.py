import io
import json

import numpy as np
import pytest

from conftest import (
    EXTREME_SCALES,
    SX,
    SZ,
    random_traceless_symmetric,
    rotated_symmetric,
    rotated_traceless_symmetric,
)
from wayspan import model
from wayspan.model import FormatError, HypothesisViolation, QuantumSystem


def _doc(n, h0, mu, label=None):
    doc = {"n": n, "h0": h0, "mu": mu}
    if label is not None:
        doc["label"] = label
    return io.StringIO(json.dumps(doc))


def test_load_valid_two_level():
    sys2 = model.load_system(_doc(2, [[0.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]))
    assert sys2.dim == 2
    assert np.allclose(sys2.mu, [[0.0, 1.0], [1.0, 0.0]])


def test_load_rejects_traced_mu():
    with pytest.raises(HypothesisViolation, match="zero-trace"):
        model.load_system(_doc(2, [[0.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]]))


def test_load_rejects_asymmetric_mu():
    with pytest.raises(HypothesisViolation, match="not symmetric"):
        model.load_system(_doc(2, [[0.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.5, 0.0]]))


def _accepted(h0, mu):
    try:
        QuantumSystem(len(h0), h0, mu)
    except HypothesisViolation:
        return False
    return True


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("defect", [0.0, 1e-9])
def test_acceptance_does_not_depend_on_the_energy_unit(n, defect, rng):
    # Both checks are relative to the matrix's own scale, and the HS norm of
    # the trace check does not square the entries, so (2^k h0, 2^k mu) is
    # accepted exactly when (h0, mu) is, round-off asymmetry included.
    h0, mu = rotated_symmetric(n, rng), rotated_traceless_symmetric(n, rng)
    mu[0, 1] += defect * np.abs(mu).max()
    assert _accepted(h0, mu) == (defect == 0.0)
    scales = [*range(-40, 41), *EXTREME_SCALES]
    assert [k for k in scales if _accepted(2.0**k * h0, 2.0**k * mu) != (defect == 0.0)] == []


@pytest.mark.parametrize("n", range(2, 9))
def test_a_traced_dipole_is_rejected_at_every_scale(n, rng):
    h0, mu = rotated_symmetric(n, rng), rotated_traceless_symmetric(n, rng)
    traced = mu + 1e-9 * np.abs(mu).max() * np.eye(n)
    for k in [*range(-40, 41), *EXTREME_SCALES]:
        with pytest.raises(HypothesisViolation, match="zero-trace"):
            QuantumSystem(n, 2.0**k * h0, 2.0**k * traced)
        with pytest.raises(HypothesisViolation, match="zero-trace"):
            QuantumSystem(n, 2.0**k * h0, 2.0**k * np.diag(np.eye(n)[0]))


def test_load_rejects_malformed_document():
    with pytest.raises(FormatError):
        model.load_system(io.StringIO("{not json"))
    with pytest.raises(FormatError):
        model.load_system(io.StringIO(json.dumps({"n": 2, "h0": [[0, 0], [0, 1]]})))
    with pytest.raises(FormatError):
        model.load_system(_doc(3, [[0.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]))


def test_direct_construction_rejects_complex():
    with pytest.raises(HypothesisViolation, match="real"):
        QuantumSystem(2, np.real(SZ), np.array([[0.0, 1.0j], [-1.0j, 0.0]]))


def test_save_load_roundtrip_is_identity(tmp_path, rng):
    mu = random_traceless_symmetric(3, rng)
    h0 = rng.normal(size=(3, 3))
    h0 = h0 + h0.T
    sys3 = QuantumSystem(3, h0, mu, label="probe")
    path = tmp_path / "system.json"
    model.save_system(sys3, path)
    again = model.load_system(path)
    assert again.dim == sys3.dim
    assert again.label == "probe"
    assert np.array_equal(again.h0, sys3.h0)
    assert np.array_equal(again.mu, sys3.mu)
    # canonical form: saving the reload reproduces the bytes
    path2 = tmp_path / "system2.json"
    model.save_system(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_csv_variant():
    text = "2\n0.0,0.0\n0.0,1.0\n0.0,0.5\n0.5,0.0\n"
    sys2 = model.load_system_csv(io.StringIO(text))
    assert sys2.dim == 2
    assert sys2.mu[0, 1] == 0.5


def test_csv_variant_rejects_bad_shapes():
    with pytest.raises(FormatError):
        model.load_system_csv(io.StringIO("2\n0.0,0.0\n0.0,1.0\n"))
    with pytest.raises(FormatError):
        model.load_system_csv(io.StringIO("x\n"))


def test_check_hypotheses_fully_coupled():
    h0 = np.diag([0.0, 1.0, 3.0])
    mu = np.ones((3, 3)) - np.eye(3)
    report = model.check_hypotheses(QuantumSystem(3, h0, mu))
    assert report.zero_trace
    assert report.symmetric
    assert report.offdiag_nonzero
    assert report.controllable in ("SU", "U")
    assert report.ok


def test_check_hypotheses_diagonal_dipole():
    report = model.check_hypotheses(QuantumSystem(2, np.zeros((2, 2)), np.real(SZ)))
    assert report.zero_trace
    assert not report.offdiag_nonzero
    assert not report.ok


def test_check_hypotheses_pauli_pair_is_su():
    report = model.check_hypotheses(QuantumSystem(2, np.real(SZ), np.real(SX)))
    assert report.controllable == "SU"
    assert report.lie_dimension == 3


def test_check_hypotheses_deterministic():
    sys2 = QuantumSystem(2, np.real(SZ), np.real(SX))
    first = model.check_hypotheses(sys2)
    second = model.check_hypotheses(sys2)
    assert first == second
