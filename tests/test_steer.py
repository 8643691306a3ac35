import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    SX,
    SZ,
    coupled_traceless_symmetric,
    jacobian_matrices,
    random_system_and_field,
    random_traceless_symmetric,
    random_unitary,
)
from wayspan import evolve, landscape, reachability, steer, waypoints
from wayspan.evolve import ControlField
from wayspan.model import QuantumSystem
from wayspan.steer import NotControllableError, SteerOptions
from wayspan.tolerances import ARMIJO, RANK_TOL


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
        step_size=0.2,
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
    for bad in ({"segment_time": np.nan}, {"segment_time": np.inf}, {"segment_time": 1.0, "step_size": np.nan}):
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
    opts = SteerOptions(segment_time=np.pi, steps_per_segment=20, max_iters=500,
                        fid_target=0.999, step_size=0.2, seed=1)
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


def test_synthesis_carries_the_propagated_trajectory(pauli_system, opts):
    wset = waypoints.theorem1_waypoints(pauli_system.mu)
    synthesis = steer.synthesize_through_waypoints(pauli_system, wset, opts)
    traj = evolve.propagate(pauli_system, synthesis.field)
    assert np.array_equal(synthesis.trajectory.unitaries, traj.unitaries)
    assert synthesis.trajectory.sys is pauli_system and synthesis.trajectory.field is synthesis.field
    assert synthesis.visits == tuple(landscape.waypoint_visits(traj, wset, fid_tol=1.0 - opts.fid_target))


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
    wset = waypoints.WaypointSet(dim=2, unitaries=np.zeros((0, 2, 2)), provenance="custom")
    with pytest.raises(ValueError, match="empty"):
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
        assert np.array_equal(result.endpoint, evolve._final_propagator(pauli_system, result.field).unitaries[-1])


def test_chain_computes_no_endpoint_twice(pauli_system, opts, monkeypatch):
    calls = []
    real_final = evolve._final_propagator

    def counted(sys_, field):
        calls.append(field)
        return real_final(sys_, field)

    monkeypatch.setattr(evolve, "_final_propagator", counted)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    wset = waypoints.WaypointSet(dim=2, unitaries=np.array([swap, np.eye(2)]), provenance="custom")
    synthesis = steer.synthesize_through_waypoints(pauli_system, wset, opts)
    # One call per line-search trial, plus one per segment for its initial field.
    fields = [np.asarray(f.values).tobytes() for f in calls]
    assert len(fields) == len(set(fields))
    reached = np.eye(2)
    for seg in synthesis.segments:
        reached = seg.endpoint @ reached
    assert np.allclose(reached, synthesis.trajectory.unitaries[-1], atol=1e-12)


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


def _dense_newton_reference(sys_n, field, target):
    """The minimum-norm Newton step of ``_dense_newton_system``."""
    jac, rhs = _dense_newton_system(sys_n, field, target)
    return np.linalg.pinv(jac, rcond=RANK_TOL) @ rhs


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
    expected = _dense_newton_reference(sys_n, field, target)
    assert np.linalg.norm(direction - expected) <= 1e-10 * np.linalg.norm(expected)


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
    steps=st.integers(min_value=4, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_every_accepted_step_meets_armijo_with_its_own_slope(n, steps, seed):
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


@pytest.fixture
def qutrit():
    """A seeded N=3 system with every coupling, a random target and options."""
    rng = np.random.default_rng(4)
    sys3 = QuantumSystem(3, np.diag([-1.2, 0.1, 1.1]), coupled_traceless_symmetric(3, rng))
    opts = SteerOptions(segment_time=steer.default_segment_time(sys3), steps_per_segment=30, seed=4)
    return sys3, random_unitary(3, rng), opts


def test_ascent_failure_falls_back_to_the_gradient(qutrit, monkeypatch):
    sys3, target, opts = qutrit
    clean = steer.synthesize_to_target(sys3, target, opts)
    real_direction, real_state = steer._newton_direction, steer._fidelity_state
    calls, trials, sabotaged = [], [], []

    def direction(gap, jac):
        calls.append(len(trials))
        newton = real_direction(gap, jac)
        if not sabotaged and len(calls) >= 3:
            sabotaged.append((trials[-1], len(trials)))
            return -newton
        return newton

    def state(sys_, field, target_):
        trials.append(field.values)
        return real_state(sys_, field, target_)

    monkeypatch.setattr(steer, "_newton_direction", direction)
    monkeypatch.setattr(steer, "_fidelity_state", state)
    result = steer.synthesize_to_target(sys3, target, opts)
    assert result.converged
    (current, at), = sabotaged
    grad = steer._fidelity_gradient(target, evolve._final_propagator(sys3, ControlField(opts.segment_time, current)))[0]
    # The next trial is the first gradient step of the segment, from the
    # current iterate at step_size ...
    step = trials[at] - current
    assert np.allclose(step, opts.step_size * grad, rtol=0.0, atol=1e-12 * np.abs(current).max())
    # ... after which Newton steps converge as fast as before.
    assert result.iterations <= clean.iterations + 2


def _gradient_ascent_reference(sys_, target, opts):
    """The synthesis loop with steepest-ascent directions only: Armijo
    backtracking on fid^2 from alpha = min(step_size, 2 alpha).  Neither the
    gradient floor nor the smallest step is reached on the swap target, whose
    canonical phase representative is itself."""
    amplitude = steer.INIT_AMPLITUDE
    values = np.random.default_rng(opts.seed).uniform(-amplitude, amplitude, opts.steps_per_segment)
    field = ControlField(horizon=opts.segment_time, values=values)
    fid, traj = steer._fidelity_state(sys_, field, target)
    grad, _ = steer._fidelity_gradient(target, traj)
    iterations, alpha = 0, opts.step_size
    while fid < opts.fid_target and iterations < opts.max_iters:
        gnorm2 = float(np.dot(grad, grad))
        phi = fid * fid
        alpha = min(opts.step_size, 2.0 * alpha)
        while True:
            trial = ControlField(horizon=opts.segment_time, values=field.values + alpha * grad)
            trial_fid, data = steer._fidelity_state(sys_, trial, target)
            if trial_fid * trial_fid >= phi + ARMIJO * alpha * gnorm2:
                break
            alpha *= 0.5
        field = trial
        iterations += 1
        fid = trial_fid
        grad, _ = steer._fidelity_gradient(target, data)
    return field.values, iterations


def _never_ascends(gap, jac):
    """A Newton direction of slope 0, so that every step is a gradient step."""
    return np.zeros(jac.shape[0])


def test_direction_that_never_ascends_is_gradient_ascent(pauli_system, opts, monkeypatch):
    monkeypatch.setattr(steer, "_newton_direction", _never_ascends)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    result = steer.synthesize_to_target(pauli_system, swap, opts)
    values, iterations = _gradient_ascent_reference(pauli_system, swap, opts)
    # 112 iterations, as the synthesis took before it had a Newton direction.
    assert result.iterations == iterations == 112
    assert np.array_equal(result.field.values, values)


def test_newton_chain_needs_far_fewer_iterations(qutrit, monkeypatch):
    sys3, _, opts = qutrit
    wset = waypoints.theorem3_waypoints(3)
    newton = steer.synthesize_through_waypoints(sys3, wset, opts)
    monkeypatch.setattr(steer, "_newton_direction", _never_ascends)
    gradient = steer.synthesize_through_waypoints(sys3, wset, opts)
    assert newton.all_visited and gradient.all_visited
    summed = [sum(s.iterations for s in run.segments) for run in (newton, gradient)]
    assert summed[0] <= 0.4 * summed[1]


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
def test_theorem3_chain_converges_in_few_newton_steps(seed):
    # The steering contract at N = 4 with the options `steer` defaults to:
    # every segment converges, every way-point is visited and the trajectory
    # spans isu(4), in a handful of Newton steps per segment.
    sys4 = _diagonal_drift_system(4, np.random.default_rng(7))
    opts = SteerOptions(segment_time=steer.default_segment_time(sys4), seed=seed)
    synthesis = steer.synthesize_through_waypoints(sys4, waypoints.theorem3_waypoints(4), opts)
    assert [s.converged for s in synthesis.segments] == [True] * 45
    assert synthesis.all_visited
    assert landscape.trajectory_independence(synthesis.trajectory).full
    assert max(s.iterations for s in synthesis.segments) <= 6
