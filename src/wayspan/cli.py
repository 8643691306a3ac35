"""Command-line surface for batch verification and report generation.

Exit codes are a stable scripting contract: 0 for success or a passing
verdict, 1 for a failed verdict or non-convergence, 2 for usage, parse or
shape errors, for a file that cannot be read or written (any ``OSError``)
and for a numerical failure: a guard (node unitarity, the
eigendecomposition of mu, a span that is not finite) raised
``RuntimeError``, so no verdict exists.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys as _sys
from pathlib import Path

import numpy as np

from . import evolve, landscape, matspace, reachability, steer, waypoints
from ._fmt import (
    FormatError,
    complex_from_entries,
    float_array,
    int_field,
    parse_json,
    require_key,
    write_document,
    write_float_table,
)
from .model import (
    HypothesisViolation,
    QuantumSystem,
    check_hypotheses,
    load_system,
    load_system_csv,
)
from .tolerances import DIV_FLOOR, FD_GRAD_RTOL, FD_STEP, HERMITIAN_RTOL

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2


def _load_system_any(path: str) -> QuantumSystem:
    if str(path).endswith(".csv"):
        return load_system_csv(path)
    return load_system(path)


def _load_matrix(path: str, name: str, n: int) -> np.ndarray:
    doc = parse_json(path)
    dim = int_field(doc, "n", 2)
    if dim != n:
        raise FormatError(f"{name} document has n = {dim}, system has n = {n}")
    arr = float_array(require_key(doc, "entries"), name, (n, n), (n, n, 2))
    return arr.astype(complex) if arr.ndim == 2 else complex_from_entries(arr)


def _state_and_obs(args, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``--rho0`` as a validated density matrix, and ``--obs``, which must be
    Hermitian: the analytic gradient assumes it, the central differences do not."""
    rho0 = evolve.density_matrix(_load_matrix(args.rho0, "rho0", n))
    obs = _load_matrix(args.obs, "obs", n)
    defect = matspace._hermitian_defect(obs)
    if not defect <= HERMITIAN_RTOL:
        raise ValueError(f"obs is not Hermitian: relative defect {defect:.3e}")
    return rho0, obs


def _out_dir(args) -> Path | None:
    if args.out is None:
        return None
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _print_report(report) -> None:
    flags = [
        ("zero trace", report.zero_trace),
        ("symmetric", report.symmetric),
        ("off-diagonal couplings nonzero", report.offdiag_nonzero),
    ]
    for label, value in flags:
        print(f"  {label}: {'ok' if value else 'VIOLATED'}")
    print(f"  controllable: {report.controllable} (Lie dimension {report.lie_dimension})")
    print(f"  min |mu_ij| off-diagonal: {report.offdiag_min:.6g} (tol {report.offdiag_tol:.3g})")


def _cmd_validate(args) -> int:
    worst = EXIT_OK
    reports = {}
    for path in args.system:
        try:
            report = check_hypotheses(_load_system_any(path))
        except HypothesisViolation as exc:
            print(f"INVALID: {exc}")
            worst = max(worst, EXIT_VERDICT)
            continue
        except (FormatError, OSError) as exc:
            print(f"ERROR: {exc}", file=_sys.stderr)
            worst = max(worst, EXIT_USAGE)
            continue
        print(f"{path}:")
        _print_report(report)
        reports[path] = report
        if not report.ok:
            worst = max(worst, EXIT_VERDICT)

    out = _out_dir(args)
    if out is not None:
        write_document(out / "hypotheses.json", {path: dataclasses.asdict(r) for path, r in reports.items()})
    return worst


def _cmd_controllability(args) -> int:
    sys_obj = _load_system_any(args.system)
    result = reachability.lie_closure(sys_obj.h0, sys_obj.mu)
    print(f"dimension: {result.dimension}")
    print(f"verdict: {result.verdict}")
    if args.basis_csv:
        write_float_table(args.basis_csv, matspace._real_rows(result.basis))
    return EXIT_OK if result.verdict in (reachability.VERDICT_SU, reachability.VERDICT_U) else EXIT_VERDICT


def _waypoint_set(args, sys_obj: QuantumSystem | None) -> waypoints.WaypointSet:
    """The ``--waypoints`` file of ``steer``, or the Theorem 1/3 set of the system or of ``--n``."""
    if getattr(args, "waypoints", None) is not None:
        return waypoints.load_waypoints(args.waypoints)
    if args.provenance == "theorem1":
        if sys_obj is None:
            raise FormatError("--provenance theorem1 requires --system (the set depends on mu)")
        return waypoints.theorem1_waypoints(sys_obj.mu)
    n = sys_obj.dim if sys_obj is not None else args.n
    if n is None:
        raise FormatError("--provenance theorem3 needs --system or --n")
    return waypoints.theorem3_waypoints(n)


def _cmd_waypoints(args) -> int:
    sys_obj = None if args.system is None else _load_system_any(args.system)
    wset = _waypoint_set(args, sys_obj)

    out = _out_dir(args) or Path(".")
    waypoints.save_waypoints(wset, out / "waypoints.json")
    print(f"way-points: {len(wset)} (provenance {wset.provenance}, dim {wset.dim})")

    if sys_obj is None:
        print("no system given: set emitted without spanning verdict")
        return EXIT_OK

    span = landscape._SpanAccumulator(wset.dim)
    for block in evolve._blocks(len(wset)):
        span.add(matspace.to_coords(evolve.conjugated_dipole(wset.unitaries[block], sys_obj.mu)))
    report = span.report()
    landscape.save_span_report(report, out / "span.txt")
    print(f"spanning verdict: {report.verdict}")
    return EXIT_OK if report.full else EXIT_VERDICT


def _cmd_propagate(args) -> int:
    sys_obj = _load_system_any(args.system)
    field = evolve.load_field(args.field)
    traj = evolve.propagate(sys_obj, field)
    print(f"steps: {field.steps}, horizon: {field.horizon}")
    print(f"final unitarity defect: {matspace.unitarity_defect(traj.unitaries[-1]):.3e}")
    if args.trajectory_csv:
        evolve.trajectory_csv(traj, args.trajectory_csv)
        print(f"trajectory written to {args.trajectory_csv}")
    return EXIT_OK


def _cmd_check(args) -> int:
    if (args.rho0 is None) != (args.obs is None):
        given, missing = ("--rho0", "--obs") if args.obs is None else ("--obs", "--rho0")
        raise ValueError(f"{given} needs {missing}: the gradient report takes both")
    sys_obj = _load_system_any(args.system)
    field = evolve.load_field(args.field)
    with_gradient = args.rho0 is not None
    if with_gradient:
        steps = evolve._step_blocks(sys_obj, field)
    else:
        # No Jacobian row is read, so the pass takes no eigenpair.
        steps = evolve._step_blocks(sys_obj, field, False)
    blocks = evolve._unitary_blocks(steps)
    run = landscape._read_pass(sys_obj, field, blocks, args.stride, with_gradient)
    report = run.span
    # The inputs load after the pass, which keeps them out of its peak
    # memory, but before the verdict line: exit 2 prints no verdict.
    if with_gradient:
        rho0, obs = _state_and_obs(args, sys_obj.dim)
    print(f"independence verdict: {report.verdict} ({report.count} samples, dim {report.dim})")

    if with_gradient:
        grad = landscape._jacobian_gradient(run.jacobian, run.endpoint, rho0, obs)
        resid = landscape.kinematic_residual(run.endpoint, rho0, obs)
        print(f"gradient max |g_m|: {float(np.abs(grad).max()):.6g}")
        print(f"kinematic residual: {resid:.6g}")

    out = _out_dir(args)
    if out is not None:
        landscape.save_span_report(report, out / "span.txt")
    return EXIT_OK if report.full else EXIT_VERDICT


def _cmd_gradient_check(args) -> int:
    if not 0.0 < args.tol < np.inf:
        raise ValueError(f"--tol must be positive and finite, got {args.tol}")
    sys_obj = _load_system_any(args.system)
    field = evolve.load_field(args.field)
    rho0, obs = _state_and_obs(args, sys_obj.dim)
    traj = evolve.propagate(sys_obj, field)
    analytic = landscape.gradient(traj, rho0, obs)
    numeric = landscape.finite_difference_gradient(traj, rho0, obs, h=args.fd_step)
    scale = float(np.abs(analytic).max())
    err = float(np.abs(analytic - numeric).max()) / max(scale, DIV_FLOOR)
    print(f"max |analytic|: {scale:.6g}")
    print(f"relative max-norm error vs central differences: {err:.3e}")
    return EXIT_OK if err < args.tol else EXIT_VERDICT


def _cmd_steer(args) -> int:
    sys_obj = _load_system_any(args.system)
    wset = _waypoint_set(args, sys_obj)

    segment_time = steer.default_segment_time(sys_obj) if args.segment_time is None else args.segment_time
    opts = steer.SteerOptions(
        segment_time=segment_time,
        steps_per_segment=args.steps,
        max_iters=args.max_iters,
        fid_target=args.fid_target,
        seed=args.seed,
    )
    synthesis = steer.synthesize_through_waypoints(sys_obj, wset, opts)
    out = _out_dir(args) or Path(".")
    evolve.save_field(synthesis.field, out / "field.json")
    landscape.visits_csv(list(synthesis.visits), out / "visits.csv")
    landscape.save_span_report(synthesis.span, out / "span.txt")

    worst = min(v.fidelity for v in synthesis.visits)
    print(f"segments converged: {sum(s.converged for s in synthesis.segments)}/{len(synthesis.segments)}")
    print(f"worst visit fidelity: {worst:.6f} (target {opts.fid_target})")
    print(f"independence verdict: {synthesis.span.verdict}")
    ok = synthesis.all_visited and synthesis.span.full
    return EXIT_OK if ok else EXIT_VERDICT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wayspan",
        description="Way-point construction and spanning verification for bilinear control trajectories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the modeling hypotheses of system files")
    p.add_argument("--system", nargs="+", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("controllability", help="Lie closure dimension and verdict")
    p.add_argument("--system", required=True)
    p.add_argument("--basis-csv", default=None)
    p.set_defaults(func=_cmd_controllability)

    p = sub.add_parser("waypoints", help="emit a way-point set and its spanning verdict")
    given = p.add_mutually_exclusive_group()
    given.add_argument("--system", default=None)
    given.add_argument("--n", type=int, default=None, help="dimension (theorem3 without a system)")
    p.add_argument("--provenance", choices=("theorem1", "theorem3"), required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_waypoints)

    p = sub.add_parser("propagate", help="integrate a control and report unitarity")
    p.add_argument("--system", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--trajectory-csv", default=None)
    p.set_defaults(func=_cmd_propagate)

    p = sub.add_parser("check", help="independence, gradient and critical-point report")
    p.add_argument("--system", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--rho0", default=None)
    p.add_argument("--obs", default=None)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gradient-check", help="analytic gradient vs central differences")
    p.add_argument("--system", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--rho0", required=True)
    p.add_argument("--obs", required=True)
    p.add_argument("--fd-step", type=float, default=FD_STEP)
    p.add_argument("--tol", type=float, default=FD_GRAD_RTOL)
    p.set_defaults(func=_cmd_gradient_check)

    p = sub.add_parser("steer", help="synthesize a control visiting a way-point list")
    p.add_argument("--system", required=True)
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--waypoints", default=None)
    given.add_argument("--provenance", choices=("theorem1", "theorem3"), default=None)
    p.add_argument("--segment-time", type=float, default=None)
    p.add_argument("--steps", type=int, default=None,
                   help="steps per segment (default max(50, 2(N^2 - 1)); fewer than N^2 - 1 exit 2)")
    p.add_argument("--max-iters", type=int, default=500,
                   help="accepted Newton steps per segment before it is reported unconverged")
    p.add_argument("--fid-target", type=float, default=0.999)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_steer)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HypothesisViolation as exc:
        print(f"INVALID: {exc}", file=_sys.stderr)
        return EXIT_VERDICT
    except steer.NotControllableError as exc:
        print(f"FAILED: {exc}", file=_sys.stderr)
        return EXIT_VERDICT
    except (FormatError, OSError, ValueError) as exc:
        print(f"ERROR: {exc}", file=_sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"ERROR: numerical failure: {exc}", file=_sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
