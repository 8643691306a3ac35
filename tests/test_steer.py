import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    SX,
    SZ,
    jacobian_matrices,
    random_system_and_field,
    random_traceless_symmetric,
    random_unitary,
)
from wayspan import evolve, landscape, reachability, steer, waypoints
from wayspan.evolve import ControlField
from wayspan.matspace import dagger
from wayspan.model import QuantumSystem
from wayspan.steer import NotControllableError, SteerOptions
from wayspan.tolerances import ARMIJO, RANK_TOL

EPS = np.finfo(float).eps


@pytest.fixture
def pauli_system():
    return QuantumSystem(2, np.real(SZ), np.real(SX))


@pytest.fixture
def opts():
    return SteerOptions(
        segment_time=5.0,
        steps_per_segment=50,
        max_iters=2000,
        fid_target=0.999,
        seed=7,
    )


def free_propagator(h0, horizon):
    w, v = np.linalg.eigh(h0)
    return v @ np.diag(np.exp(-1j * horizon * w)) @ v.conj().T


def test_options_validation():
    with pytest.raises(ValueError):
        SteerOptions(segment_time=1.0, fid_target=1.5)
    with pytest.raises(ValueError):
        SteerOptions(segment_time=-1.0)
    for bad in ({"segment_time": np.nan}, {"segment_time": np.inf}):
        with pytest.raises(ValueError, match="positive and finite"):
            SteerOptions(**bad)
    assert steer.default_segment_time(QuantumSystem(2, np.real(SZ), np.real(SX))) > 0


@pytest.mark.parametrize(
    "bad",
    [{"steps_per_segment": 2.5}, {"steps_per_segment": True}, {"max_iters": 2.5}, {"max_iters": np.float64(10.0)}],
)
def test_options_reject_non_integer_counts(bad):
    with pytest.raises(ValueError, match="must be an integer"):
        SteerOptions(segment_time=5.0, **bad)


def test_options_accept_numpy_integer_counts():
    opts = SteerOptions(segment_time=5.0, steps_per_segment=np.int64(20), max_iters=np.int32(30))
    assert (opts.steps_per_segment, opts.max_iters) == (20, 30)


def test_free_evolution_target_converges_immediately(pauli_system, opts):
    target = free_propagator(pauli_system.h0, opts.segment_time)
    initial = ControlField.constant(0.0, opts.segment_time, opts.steps_per_segment)
    result = steer.synthesize_to_target(pauli_system, target, opts, initial=initial)
    assert result.converged
    assert result.iterations == 0
    assert result.achieved_fidelity == pytest.approx(1.0, abs=1e-12)


def test_swap_target_reaches_high_fidelity(pauli_system, opts):
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    result = steer.synthesize_to_target(pauli_system, swap, opts)
    assert result.converged
    assert result.achieved_fidelity > 0.999


def test_fidelity_never_decreases_from_initial(pauli_system, opts):
    target = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    initial = ControlField.constant(0.05, opts.segment_time, opts.steps_per_segment)
    start_fid = landscape.gate_fidelity(
        target, evolve.propagate(pauli_system, initial).unitaries[-1]
    )
    result = steer.synthesize_to_target(pauli_system, target, opts, initial=initial)
    assert result.achieved_fidelity >= start_fid - 1e-12


def test_uncontrollable_system_is_rejected(opts):
    stuck = QuantumSystem(2, np.eye(2), np.real(SZ))
    with pytest.raises(NotControllableError):
        steer.synthesize_to_target(stuck, np.eye(2, dtype=complex), opts)
    wset = waypoints.WaypointSet(dim=2, unitaries=np.array([np.eye(2)]), provenance="custom")
    with pytest.raises(NotControllableError):
        steer.synthesize_through_waypoints(stuck, wset, opts)


def test_target_phase_does_not_change_iterates(pauli_system, opts):
    target = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    first = steer.synthesize_to_target(pauli_system, target, opts)
    second = steer.synthesize_to_target(pauli_system, np.exp(1.3j) * target, opts)
    assert np.array_equal(first.field.values, second.field.values)
    assert first.achieved_fidelity == pytest.approx(second.achieved_fidelity, abs=1e-12)


def test_seed_determinism(pauli_system, opts):
    target = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    a = steer.synthesize_to_target(pauli_system, target, opts)
    b = steer.synthesize_to_target(pauli_system, target, opts)
    assert np.array_equal(a.field.values, b.field.values)


def test_identity_waypoint_is_trivial(pauli_system):
    # horizon pi: the free propagator exp(-i pi sz) = -I matches the identity
    # up to phase, so the segment is already solved near the zero field
    opts = SteerOptions(segment_time=np.pi, steps_per_segment=20, max_iters=500, fid_target=0.999, seed=1)
    target = free_propagator(pauli_system.h0, np.pi)
    assert landscape.gate_fidelity(np.eye(2, dtype=complex), target) == pytest.approx(1.0)
    wset = waypoints.WaypointSet(dim=2, unitaries=np.array([np.eye(2)]), provenance="custom")
    synthesis = steer.synthesize_through_waypoints(pauli_system, wset, opts)
    assert synthesis.all_visited


def test_chain_through_quadruple_set(pauli_system, opts):
    wset = waypoints.theorem1_waypoints(pauli_system.mu)
    synthesis = steer.synthesize_through_waypoints(pauli_system, wset, opts)
    assert all(s.converged for s in synthesis.segments)
    assert all(v.fidelity >= 0.999 for v in synthesis.visits)
    traj = evolve.propagate(pauli_system, synthesis.field)
    assert landscape.trajectory_independence(traj).full


def _record_chain(monkeypatch):
    """The blocks that ``evolve._chain`` yields from here on, each as its slice
    and a copy of its nodes, appended as the chain is read."""
    blocks, real_chain = [], evolve._chain

    def recorded(*args):
        for block, eig, nodes in real_chain(*args):
            assert eig is None and not nodes.flags.writeable
            blocks.append((block, nodes.copy()))
            yield block, eig, nodes

    monkeypatch.setattr(evolve, "_chain", recorded)
    return blocks


def _collected_chain(sys_n, synthesis, blocks):
    """The streamed chain of ``synthesis`` as a kept pass, after three checks.

    Its blocks are the partition of a pass of its length; the node where
    each segment starts is the running product of the segment endpoints bit
    for bit; and a fresh pass of the concatenated field differs from it by
    round-off: about N eps per node product, and the phase error of its dt
    against the segments' dt, |ddt| max|w| per step.  The chain carries no
    eigenpairs, and neither reading of a kept pass reads them, so the kept
    pass gets zeros.
    """
    field, segments = synthesis.field, synthesis.segments
    assert [block for block, _ in blocks] == evolve._blocks(field.steps)
    nodes = np.concatenate([blocks[0][1][:1], *(block_nodes[1:] for _, block_nodes in blocks)])
    n = sys_n.dim
    chain = evolve.PropagatorTrajectory(sys_n, field, (np.zeros((field.steps, n)), np.zeros((field.steps, n, n))), nodes)
    reached, start = np.eye(n, dtype=complex), 0
    for seg in segments:
        assert chain.unitaries[start].tobytes() == reached.tobytes()
        reached, start = seg.endpoint @ reached, start + seg.field.steps
    assert chain.unitaries[-1].tobytes() == reached.tobytes()

    fresh = evolve.propagate(sys_n, field)
    ddt = abs(field.dt - segments[0].field.dt)
    bound = field.steps * (8 * n * EPS + ddt * float(np.abs(fresh.eig[0]).max()))
    assert np.abs(chain.unitaries - fresh.unitaries).max() <= bound
    return chain, fresh, bound


@pytest.mark.parametrize("provenance, segment_time", [("theorem1", 5.0), ("theorem3", 2.9)])
def test_synthesis_carries_its_composed_segment_passes(pauli_system, opts, monkeypatch, tmp_path, provenance, segment_time):
    # The chain's trajectory is composed from the segments' own passes, not
    # propagated again.  Over the 10 segments of 2.9 the concatenated field's
    # dt is off the segments' dt in its last bits; over the 4 of 5.0 it is not.
    opts = dataclasses.replace(opts, segment_time=segment_time)
    targets, real_synthesize = [], steer._synthesize

    def recorded(sys_, target, *args):
        targets.append(target)
        return real_synthesize(sys_, target, *args)

    monkeypatch.setattr(steer, "_synthesize", recorded)
    blocks = _record_chain(monkeypatch)
    wset = waypoints.theorem1_waypoints(pauli_system.mu) if provenance == "theorem1" else waypoints.theorem3_waypoints(2)
    synthesis = steer.synthesize_through_waypoints(pauli_system, wset, opts)
    assert synthesis.all_visited
    segments = synthesis.segments

    # The targets, and so the segment fields and field.json, are those of the
    # running product of the endpoints, which the chain's boundary nodes are.
    evolve.save_field(synthesis.field, tmp_path / "chain.json")
    evolve.save_field(evolve.concat_fields([s.field for s in segments]), tmp_path / "segments.json")
    assert (tmp_path / "chain.json").read_bytes() == (tmp_path / "segments.json").read_bytes()
    reached = np.eye(2, dtype=complex)
    for w, target, seg in zip(wset.unitaries, targets, segments, strict=True):
        assert target.tobytes() == (w @ dagger(reached)).tobytes()
        reached = seg.endpoint @ reached
    chain, fresh, bound = _collected_chain(pauli_system, synthesis, blocks)
    assert (abs(synthesis.field.dt - segments[0].field.dt) > 0.0) == (provenance == "theorem3")

    fid_tol = 1.0 - opts.fid_target
    again = landscape.waypoint_visits(fresh, wset, fid_tol=fid_tol)
    assert [(v.index, v.step, v.visited) for v in synthesis.visits] == [(v.index, v.step, v.visited) for v in again]
    # For f = |Tr(W† U)|^2 / N^2, |f(U) - f(U')| <= 2 ||U - U'||_F / sqrt(N),
    # at most 2 N max|U - U'|.
    assert max(abs(a.fidelity - b.fidelity) for a, b in zip(synthesis.visits, again)) <= 2.0 * chain.dim * bound


@pytest.mark.parametrize("block", [evolve._BLOCK, 16])
@pytest.mark.parametrize("n, provenance, segment_time", [(2, "theorem1", 5.0), (2, "theorem3", 2.9), (4, "theorem3", None)])
def test_streamed_reading_equals_the_collected_one(pauli_system, opts, monkeypatch, n, provenance, segment_time, block):
    # The visits and the span read from the chain as it streams are those of
    # the kept pass of the same nodes, bit for bit.  Blocks of 16 steps cut
    # the 50-step segments.
    monkeypatch.setattr(evolve, "_BLOCK", block)
    sys_n = pauli_system if n == 2 else _diagonal_drift_system(4, np.random.default_rng(7))
    if segment_time is None:
        opts = SteerOptions(segment_time=steer.default_segment_time(sys_n), seed=303)
    else:
        opts = dataclasses.replace(opts, segment_time=segment_time)
    assert opts.steps_per_segment in (None, 50)
    wset = waypoints.theorem1_waypoints(sys_n.mu) if provenance == "theorem1" else waypoints.theorem3_waypoints(n)
    blocks = _record_chain(monkeypatch)
    synthesis = steer.synthesize_through_waypoints(sys_n, wset, opts)
    chain = _collected_chain(sys_n, synthesis, blocks)[0]
    assert (len(blocks) > 1) == (block == 16 or n == 4)
    assert synthesis.visits == tuple(landscape.waypoint_visits(chain, wset, fid_tol=1.0 - opts.fid_target))
    kept, streamed = landscape.trajectory_independence(chain), synthesis.span
    assert (streamed.dim, streamed.count, streamed.rank, streamed.full) == (kept.dim, kept.count, kept.rank, kept.full)
    assert streamed.count == synthesis.field.steps + 1
    assert np.array_equal(streamed.singular_values, kept.singular_values)
    assert np.array_equal(streamed.complement_basis, kept.complement_basis)


def test_concatenated_field_reproduces_segment_boundaries(pauli_system, opts):
    wset = waypoints.theorem1_waypoints(pauli_system.mu)
    synthesis = steer.synthesize_through_waypoints(pauli_system, wset, opts)
    traj = evolve.propagate(pauli_system, synthesis.field)
    composed = np.eye(2, dtype=complex)
    steps = opts.steps_per_segment
    for k, seg in enumerate(synthesis.segments):
        composed = evolve.propagate(pauli_system, seg.field).unitaries[-1] @ composed
        boundary = traj.unitaries[(k + 1) * steps]
        assert np.linalg.norm(boundary - composed) < 1e-9


def test_empty_waypoint_set_rejected(pauli_system, opts):
    with pytest.raises(ValueError, match="empty"):
        wset = waypoints.WaypointSet(dim=2, unitaries=np.zeros((0, 2, 2)), provenance="custom")
        steer.synthesize_through_waypoints(pauli_system, wset, opts)


def test_initial_field_must_match_grid(pauli_system, opts):
    target = np.eye(2, dtype=complex)
    bad = ControlField.constant(0.0, opts.segment_time, opts.steps_per_segment + 1)
    with pytest.raises(ValueError, match="segment_time"):
        steer.synthesize_to_target(pauli_system, target, opts, initial=bad)


def _fidelity_central_differences(sys_n, field, target, h):
    def objective(values):
        u = evolve._final_propagator(sys_n, ControlField(horizon=field.horizon, values=values)).unitaries[-1]
        return abs(np.vdot(target, u)) ** 2 / sys_n.dim**2

    fd = np.empty(field.steps)
    for m in range(field.steps):
        plus = field.values.copy()
        minus = field.values.copy()
        plus[m] += h
        minus[m] -= h
        fd[m] = (objective(plus) - objective(minus)) / (2.0 * h)
    return fd


def test_fidelity_gradient_matches_central_differences(rng):
    sys3 = QuantumSystem(3, random_traceless_symmetric(3, rng), random_traceless_symmetric(3, rng))
    field = ControlField(horizon=2.0, values=0.3 * rng.normal(size=12))
    target = random_unitary(3, rng)
    grad, _ = steer._fidelity_gradient(target, evolve._final_propagator(sys3, field))
    fd = _fidelity_central_differences(sys3, field, target, 1e-6)
    assert np.allclose(grad, fd, rtol=1e-6, atol=1e-9)


@settings(max_examples=25)
@given(
    n=st.integers(min_value=2, max_value=4),
    steps=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_fidelity_gradient_matches_central_differences_on_random_systems(n, steps, seed):
    sys_n, field = random_system_and_field(n, steps, seed)
    target = random_unitary(n, np.random.default_rng(seed))
    grad, _ = steer._fidelity_gradient(target, evolve._final_propagator(sys_n, field))
    fd = _fidelity_central_differences(sys_n, field, target, 1e-6)
    assert np.allclose(grad, fd, rtol=1e-5, atol=1e-8)


def test_gradient_from_reused_eigendecomposition_is_bit_identical(rng):
    sys3 = QuantumSystem(3, random_traceless_symmetric(3, rng), random_traceless_symmetric(3, rng))
    field = ControlField(horizon=2.0, values=0.3 * rng.normal(size=20))
    target = random_unitary(3, rng)
    _, data = steer._fidelity_state(sys3, field, target)
    grad, direction = steer._fidelity_gradient(target, data)
    fresh, fresh_direction = steer._fidelity_gradient(target, evolve._final_propagator(sys3, field))
    assert np.array_equal(grad, fresh)
    assert np.array_equal(direction, fresh_direction)


def test_result_endpoint_is_the_final_propagator_of_its_field(pauli_system, opts):
    target = free_propagator(pauli_system.h0, opts.segment_time)
    initial = ControlField.constant(0.0, opts.segment_time, opts.steps_per_segment)
    converged_at_start = steer.synthesize_to_target(pauli_system, target, opts, initial=initial)
    assert converged_at_start.iterations == 0
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    iterated = steer.synthesize_to_target(pauli_system, swap, opts)
    assert iterated.iterations > 0
    for result in (converged_at_start, iterated):
        fresh = evolve._final_propagator(pauli_system, result.field)
        assert np.array_equal(result.endpoint, fresh.unitaries[-1])
    # The pass a segment hands to a chain is the last accepted one, of its field.
    kept = []
    result = steer._synthesize(pauli_system, swap, opts, np.random.default_rng(opts.seed), None, kept)
    (traj,) = kept
    assert traj.field is result.field
    assert np.array_equal(traj.unitaries, evolve._final_propagator(pauli_system, result.field).unitaries)
    assert np.array_equal(result.endpoint, iterated.endpoint)


def test_chain_computes_no_endpoint_twice(pauli_system, opts, monkeypatch):
    calls = []
    real_final = evolve._final_propagator

    def counted(sys_, field):
        calls.append(field)
        return real_final(sys_, field)

    monkeypatch.setattr(evolve, "_final_propagator", counted)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    wset = waypoints.WaypointSet(dim=2, unitaries=np.array([swap, np.eye(2)]), provenance="custom")
    blocks = _record_chain(monkeypatch)
    synthesis = steer.synthesize_through_waypoints(pauli_system, wset, opts)
    # One call per line-search trial, plus one per segment for its initial field.
    fields = [np.asarray(f.values).tobytes() for f in calls]
    assert len(fields) == len(set(fields))
    # The chain composes the segments' passes: its last node is the running
    # product of their endpoints.
    _collected_chain(pauli_system, synthesis, blocks)


def test_accepted_step_reuses_its_trial_pass(pauli_system, opts, monkeypatch):
    stacks, trials = [], []
    real_eigh, real_state = np.linalg.eigh, steer._fidelity_state

    def counted_eigh(a, *args, **kwargs):
        if np.ndim(a) == 3:
            stacks.append(np.shape(a))
        return real_eigh(a, *args, **kwargs)

    def counted_state(sys_, field, target):
        trials.append(field)
        return real_state(sys_, field, target)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(steer, "_fidelity_state", counted_state)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    result = steer.synthesize_to_target(pauli_system, swap, opts)
    assert result.iterations > 0
    # The initial field's pass, then one per line-search trial; none on acceptance.
    assert len(stacks) == 1 + len(trials)
    assert result.field is trials[-1]
    assert np.array_equal(result.endpoint, evolve._final_propagator(pauli_system, result.field).unitaries[-1])


def _dense_newton_system(sys_n, field, target):
    """The Newton equations ``jac @ delta = rhs`` from dense references: the
    Jacobian column of each step from ``scipy.linalg.expm_frechet`` along a
    per-step product, and rhs = -K from ``scipy.linalg.logm``."""
    n, dt = sys_n.dim, field.dt
    nodes = [np.eye(n, dtype=complex)]
    columns = []
    for eps in field.values:
        step, d_step = scipy.linalg.expm_frechet(-1j * dt * (sys_n.h0 - eps * sys_n.mu), 1j * dt * sys_n.mu)
        nodes.append(step @ nodes[-1])
        # dU_M/d(eps_m) = U_M U_{m+1}† dS_m U_m = i U_M columns_m.
        columns.append(-1j * nodes[-1].conj().T @ d_step @ nodes[-2])
    gap = target.conj().T @ nodes[-1]
    gap = gap * np.exp(-1j * np.angle(np.trace(gap)))
    k = -1j * scipy.linalg.logm(gap)
    k = 0.5 * (k + k.conj().T)
    k -= np.trace(k).real / n * np.eye(n)
    jac = np.stack([np.concatenate([c.real.ravel(), c.imag.ravel()]) for c in columns], axis=1)
    rhs = -np.concatenate([k.real.ravel(), k.imag.ravel()])
    return jac, rhs


@settings(max_examples=20)
@given(
    n=st.integers(min_value=2, max_value=4),
    extra=st.integers(min_value=0, max_value=6),
    near=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_newton_direction_matches_dense_reference(n, extra, near, seed):
    sys_n, field = random_system_and_field(n, n * n + extra, seed)
    traj = evolve._final_propagator(sys_n, field)
    assume(landscape.spanning_rank(jacobian_matrices(traj)).full)
    draw = np.random.default_rng(seed)
    if near:
        moved = ControlField(horizon=field.horizon, values=field.values + 0.05 * draw.normal(size=field.steps))
        target = evolve._final_propagator(sys_n, moved).unitaries[-1]
    else:
        target = random_unitary(n, draw)
    _, direction = steer._fidelity_gradient(target, traj)
    jac, rhs = _dense_newton_system(sys_n, field, target)
    expected = np.linalg.pinv(jac, rcond=RANK_TOL) @ rhs
    # Both sides carry round-off of a few ulps u: in J relative to ||J||, and
    # in K absolute, as the log of an O(1) unitary, so not relative to ||K||
    # when the target is near.  With sigma_r = sigma_{N^2-1} of J and
    # kappa = sigma_max / sigma_r, the minimum-norm solution of J^T d = -K
    # moves to first order by at most (||dK|| + ||dJ|| ||d|| + ||dJ|| ||r||
    # / sigma_r) / sigma_r (Wedin), where r is the part of K outside the range
    # of J^T.  The step solves in isu(N) coordinates, and to_coords drops the
    # trace of K, so there r is round-off; the bound still allows ||r|| of the
    # order of ||K||.  With ||dJ|| ~ u sigma_max and ||d|| <= ||K|| / sigma_r,
    # that is a constant times u (1 + kappa ||K||) / sigma_r.  The constant
    # counts the ulps; over 16,800 random draws (n 2-4, extra 0-6, both
    # targets) it stayed below 17.
    sigma = np.linalg.svd(jac, compute_uv=False)
    sigma_r = sigma[n * n - 2]
    bound = 100.0 * np.finfo(float).eps * (1.0 + sigma[0] / sigma_r * np.linalg.norm(rhs)) / sigma_r
    assert np.linalg.norm(direction - expected) <= bound


@settings(max_examples=40)
@given(
    n=st.integers(min_value=2, max_value=4),
    extra=st.integers(min_value=0, max_value=6),
    log_scale=st.floats(min_value=-4.0, max_value=-1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_newton_step_converges_quadratically_at_a_regular_control(n, extra, log_scale, seed):
    # The target is reached at eps*, and the step starts from eps* + delta.
    # Where the Jacobian J of the M-step map is onto isu(N), the control is
    # regular and one full Newton step squares the infidelity, up to a constant,
    # from a start inside Newton's region.  A step d leaves a remainder of
    # order ||d||^2 ||J||_F^2 in K, so the start is taken inside the region
    # where the exact step, from the dense reference, has ||d|| ||J||_F <= 5 ||K||:
    # there the remainder is of order ||K||^2.  Near a singular control the
    # region shrinks, and a start outside it need not converge at all.
    sys_n, field = random_system_and_field(n, n * n + extra, seed)
    assume(reachability.is_controllable(sys_n) != reachability.VERDICT_NO)
    target = evolve._final_propagator(sys_n, field).unitaries[-1]
    delta = 10.0**log_scale * np.random.default_rng(seed).normal(size=field.steps)
    start = ControlField(horizon=field.horizon, values=field.values + delta)
    traj = evolve._final_propagator(sys_n, start)
    assume(landscape.spanning_rank(jacobian_matrices(traj)).full)
    jac, rhs = _dense_newton_system(sys_n, start, target)
    exact = np.linalg.pinv(jac, rcond=RANK_TOL) @ rhs
    assume(np.linalg.norm(exact) * np.linalg.norm(jac) <= 5.0 * np.linalg.norm(rhs))
    fid0 = landscape.gate_fidelity(target, traj.unitaries[-1])
    _, direction = steer._fidelity_gradient(target, traj)
    stepped = ControlField(horizon=field.horizon, values=start.values + direction)
    fid1 = landscape.gate_fidelity(target, evolve._final_propagator(sys_n, stepped).unitaries[-1])
    assert 1.0 - fid1 <= 1e3 * (1.0 - fid0) ** 2 + 1e-13


def test_steers_a_haar_target_at_sixteen_levels():
    # The Newton step at N=16 solves on N^2 - 1 = 255 columns.  Levels in
    # [0, 5] and a Gaussian dipole; at the default horizon of 45.2 this target
    # stalls below fidelity 0.1 in 100 iterations, at three times it converges.
    n = 16
    rng = np.random.default_rng(1)
    h0 = np.diag(rng.uniform(0.0, 5.0, n))
    g = rng.normal(size=(n, n))
    mu = (g + g.T) / 2.0
    sys_n = QuantumSystem(n, h0, mu - np.trace(mu) / n * np.eye(n))
    target = random_unitary(n, rng)
    opts = SteerOptions(segment_time=3.0 * steer.default_segment_time(sys_n), max_iters=100)
    result = steer.synthesize_to_target(sys_n, target, opts)
    assert result.field.steps == 510
    assert result.converged
    assert landscape.gate_fidelity(target, result.endpoint) >= opts.fid_target


def _record_iterates(monkeypatch):
    """Wrap the trial and gradient passes; return the list that receives
    (values, fid, grad) of every iterate a gradient is taken at, the initial
    field's first, with values None."""
    real_state, real_gradient = steer._fidelity_state, steer._fidelity_gradient
    trials, iterates = {}, []

    def state(sys_, field, target):
        fid, data = real_state(sys_, field, target)
        # The pass is kept, so that its id names it until the test ends.
        trials[id(data)] = (data, field.values)
        return fid, data

    def gradient(target, data):
        grad, direction = real_gradient(target, data)
        values = trials[id(data)][1] if id(data) in trials else None
        iterates.append((values, landscape.gate_fidelity(target, data.unitaries[-1]), grad))
        return grad, direction

    monkeypatch.setattr(steer, "_fidelity_state", state)
    monkeypatch.setattr(steer, "_fidelity_gradient", gradient)
    return iterates


def _accepted_iterates(iterates, result):
    """(values, fid, grad) of every accepted iterate, the initial field's first.
    A segment that meets fid_target or uses up max_iters takes no gradient at
    its last iterate, which then comes from the result, with grad None."""
    if len(iterates) == result.iterations:
        return iterates + [(result.field.values, result.achieved_fidelity, None)]
    return iterates


@settings(max_examples=20)
@given(
    n=st.integers(min_value=2, max_value=4),
    extra=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_every_accepted_step_meets_armijo_with_its_own_slope(n, extra, seed):
    # Segments of N^2 - 1 steps upward: shorter ones are refused.
    steps = n * n - 1 + extra
    sys_n, field = random_system_and_field(n, steps, seed)
    assume(reachability.is_controllable(sys_n) != reachability.VERDICT_NO)
    target = random_unitary(n, np.random.default_rng(seed))
    opts = SteerOptions(segment_time=field.horizon, steps_per_segment=steps, max_iters=40, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        iterates = _record_iterates(mp)
        result = steer.synthesize_to_target(sys_n, target, opts, initial=field)
    accepted = _accepted_iterates(iterates, result)
    assert len(accepted) == result.iterations + 1
    values = field.values
    for (_, fid, grad), (new_values, new_fid, _) in zip(accepted, accepted[1:]):
        # alpha * (grad . d) is grad . s for the step s the trial took.
        slope = float(np.dot(grad, new_values - values))
        assert new_fid * new_fid >= fid * fid + ARMIJO * slope - 1e-15
        assert new_fid >= fid
        values = new_values
    assert accepted[-1][1] == result.achieved_fidelity
    assert np.array_equal(accepted[-1][0] if result.iterations else field.values, result.field.values)


@pytest.mark.parametrize("target_seed", [0, 3])
def test_null_steps_are_rejected_near_a_stationary_point(target_seed, monkeypatch):
    # Near this stationary point ARMIJO alpha slope falls below one ulp of
    # fid^2, so a step that leaves fid^2 unchanged must still fail the test.
    sys2, field = random_system_and_field(2, 5, 3)
    draw = np.random.default_rng(target_seed)
    target = np.linalg.qr(draw.normal(size=(2, 2)) + 1j * draw.normal(size=(2, 2)))[0]
    opts = SteerOptions(segment_time=field.horizon, steps_per_segment=5, max_iters=40)
    iterates = _record_iterates(monkeypatch)
    trials, real_state = [], steer._fidelity_state

    def counted_state(sys_, trial, target_):
        trials.append(trial)
        return real_state(sys_, trial, target_)

    monkeypatch.setattr(steer, "_fidelity_state", counted_state)
    result = steer.synthesize_to_target(sys2, target, opts, initial=field)
    assert len(trials) < 100
    accepted = _accepted_iterates(iterates, result)
    assert len(accepted) == result.iterations + 1
    for (_, fid, _), (_, new_fid, _) in zip(accepted, accepted[1:]):
        assert new_fid * new_fid > fid * fid


def test_direction_that_does_not_ascend_ends_the_segment(pauli_system, opts, monkeypatch):
    # A zero Newton step has slope 0, like a step that does not ascend at a
    # singular control: the segment ends at once, with no line-search trial.
    trials = []
    monkeypatch.setattr(steer, "_newton_direction", lambda gap, jac: np.zeros(jac.shape[0]))
    monkeypatch.setattr(steer, "_fidelity_state", lambda *args: trials.append(args))
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    initial = ControlField.constant(0.05, opts.segment_time, opts.steps_per_segment)
    result = steer.synthesize_to_target(pauli_system, swap, opts, initial=initial)
    assert (result.iterations, result.converged, trials) == (0, False, [])
    assert np.array_equal(result.field.values, initial.values)


@settings(max_examples=20)
@given(
    n=st.integers(min_value=3, max_value=6),
    eps=st.floats(min_value=-1.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_constant_controls_are_singular_at_any_length(n, eps, seed):
    # With eps constant, U(t) = exp(-iHt) for H = h0 - eps mu, and in H's
    # eigenbasis entry ab of every row dt mid_hat_m is mu_ab times a function
    # of the gap E_a - E_b and of t_m.  The diagonal gives one direction and
    # each pair at most two, so the rank is at most N^2 - N + 1 < N^2 - 1 at
    # any length: J need not be onto, and the loop stops on a step that does
    # not ascend instead of assuming that it is.
    rng = np.random.default_rng(seed)
    sys_n = QuantumSystem(n, random_traceless_symmetric(n, rng), random_traceless_symmetric(n, rng))
    field = ControlField.constant(eps, rng.uniform(0.5, 5.0), 4 * n * n)
    traj = evolve._final_propagator(sys_n, field)
    assert landscape.spanning_rank(jacobian_matrices(traj)).rank <= n * n - n + 1


def test_default_segment_length_follows_the_dimension():
    assert [steer._segment_steps(n, None) for n in (2, 5, 6, 8)] == [50, 50, 70, 126]
    assert steer._segment_steps(3, 8) == 8


@pytest.mark.parametrize("n", [2, 3, 4])
def test_segment_shorter_than_the_algebra_is_refused(n):
    sys_n = _diagonal_drift_system(n, np.random.default_rng(n))
    opts = SteerOptions(segment_time=1.0, steps_per_segment=n * n - 2)
    with pytest.raises(ValueError, match=rf"N\^2 - 1 = {n * n - 1}\b"):
        steer.synthesize_to_target(sys_n, np.eye(n, dtype=complex), opts)
    with pytest.raises(ValueError, match=rf"N\^2 - 1 = {n * n - 1}\b"):
        steer.synthesize_through_waypoints(sys_n, waypoints.theorem3_waypoints(n), opts)


def _diagonal_drift_system(n, rng):
    """A diagonal drift of increasing levels and a symmetric traceless dipole
    with every |mu_ij| >= 0.1 off the diagonal, drawn in this order."""
    levels = np.cumsum(rng.uniform(0.5, 1.5, n))
    mags = rng.uniform(0.1, 1.0, (n, n)) * rng.choice([-1.0, 1.0], (n, n))
    mu = np.triu(mags, 1)
    mu = mu + mu.T
    diag = rng.uniform(-1.0, 1.0, n)
    mu[np.diag_indices(n)] = diag - diag.mean()
    return QuantumSystem(n, np.diag(levels), mu)


@pytest.mark.parametrize("seed", [303, 304, 305])
def test_theorem3_chain_converges_in_few_newton_steps(seed, monkeypatch):
    # The steering contract at N = 4 with the options `steer` defaults to:
    # every segment converges, every way-point is visited and the trajectory
    # spans isu(4), in a handful of Newton steps per segment.  Its 2250 steps
    # stream in the blocks of a pass, which cut the segments.
    sys4 = _diagonal_drift_system(4, np.random.default_rng(7))
    opts = SteerOptions(segment_time=steer.default_segment_time(sys4), seed=seed)
    blocks = _record_chain(monkeypatch)
    synthesis = steer.synthesize_through_waypoints(sys4, waypoints.theorem3_waypoints(4), opts)
    assert [s.converged for s in synthesis.segments] == [True] * 45
    assert synthesis.all_visited
    assert synthesis.span.full
    assert max(s.iterations for s in synthesis.segments) <= 6
    _collected_chain(sys4, synthesis, blocks)
    assert len(blocks) == 8


def test_chain_memory_does_not_grow_with_its_steps():
    # The chain is read as it streams and not kept.  What still grows with
    # its M steps is the fields, the segments' and the concatenated one, and
    # the visit search's overlaps, K per node of a block for K way-points.
    # From 45 to 180 segments of 50 steps (the Theorem 3 set, then four times
    # over) a kept chain added about 610 B per step, 416 of them its nodes and
    # step eigenpairs; the stream adds about 140.
    sys4 = _diagonal_drift_system(4, np.random.default_rng(7))
    opts = SteerOptions(segment_time=steer.default_segment_time(sys4), steps_per_segment=50, seed=303)
    base = waypoints.theorem3_waypoints(4).unitaries
    peaks = []
    for repeats in (1, 4):
        wset = waypoints.WaypointSet(dim=4, unitaries=np.concatenate([base] * repeats), provenance="custom")
        tracemalloc.start()
        try:
            synthesis = steer.synthesize_through_waypoints(sys4, wset, opts)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert synthesis.all_visited and synthesis.span.full
    assert (peaks[1] - peaks[0]) / (135 * opts.steps_per_segment) < 256


@pytest.mark.parametrize("seed", [303, 304, 305])
def test_random_target_at_n8_converges_with_default_options(seed):
    # The default length, 2(N^2 - 1) = 126 steps at N = 8, keeps the random
    # initial control regular, so Newton steps reach a random target.
    rng = np.random.default_rng(seed)
    sys8 = _diagonal_drift_system(8, rng)
    opts = SteerOptions(segment_time=steer.default_segment_time(sys8))
    result = steer.synthesize_to_target(sys8, random_unitary(8, rng), opts)
    assert result.converged
    assert result.field.steps == 126


@pytest.mark.parametrize(
    "call, start",
    [
        (lambda s, o: steer.synthesize_to_target(s, np.eye(3), o), "target shape (3, 3) does not match dimension 2"),
        (lambda s, o: steer.synthesize_through_waypoints(s, waypoints.theorem3_waypoints(3), o), "dimension mismatch: set 3 vs system 2"),
    ],
)
def test_a_dimension_mismatch_is_refused(pauli_system, opts, call, start):
    with pytest.raises(ValueError) as exc:
        call(pauli_system, opts)
    assert exc.type is ValueError and str(exc.value).startswith(start)
