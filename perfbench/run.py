"""End-to-end benchmark of the ``wayspan`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a short list of CLI commands run closed-loop: one command
at a time, each in a fresh interpreter (``child.py``), the next starting
when the last has exited.  The list is repeated for ``--seconds`` and
every command's exit code, verdict lines and output files are checked.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced pass with ``--trace 1``.
Why each workload was chosen, and which layer metric should move which
end-to-end metric, is written in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import gen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
# Children get one BLAS thread: a fixed count (at most nproc) keeps runs
# comparable, and one thread is the steadiest on a shared machine.
BLAS_THREADS = 1
FID_TARGET = 0.999
STEER_STEPS = 50
# Each steer-chain pass steers this many chains, from initial-control seeds
# 3*seed, 3*seed+1 and 3*seed+2.  The Armijo iteration count of one chain
# moves by about 12% (quartile distance over median) between seeds; the
# sum over three moves by about 5%.
STEER_CHAINS = 3
# No pass starts after PASS_DEADLINE_S, and a command still running at
# RUN_LIMIT_S is killed, so a run ends within 180 s.
PASS_DEADLINE_S = 120.0
RUN_LIMIT_S = 170.0
# Times are rescaled to a machine on which child.probe() takes this long.
PROBE_REF_S = 0.07
OUT = "{out}"


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Command:
    """One CLI call and what a correct run of it looks like.

    ``lines`` are regular expressions that must each match a whole line of
    the command's standard output.  ``check_files`` reads the output
    directory, raises on a wrong file and returns extra values to report.
    """

    argv: tuple[str, ...]
    exit_code: int
    lines: tuple[str, ...] = ()
    check_files: Callable[[Path], dict] | None = None


def judge(cmd: Command, exit_code, stdout: str, out_dir: Path) -> tuple[list[str], dict]:
    """Errors found in one command's result, and the extras its file check returned."""
    errors = []
    if exit_code != cmd.exit_code:
        errors.append(f"exit code {exit_code}, expected {cmd.exit_code}")
    out_lines = stdout.splitlines()
    for pattern in cmd.lines:
        if not any(re.fullmatch(pattern, line) for line in out_lines):
            errors.append(f"no output line matches {pattern!r}")
    extras = {}
    if cmd.check_files is not None:
        try:
            extras = cmd.check_files(out_dir)
        except Exception as exc:  # any unreadable or wrong file is a failed command
            errors.append(f"output files: {type(exc).__name__}: {exc}")
    return errors, extras


def _span_full(out_dir: Path) -> dict:
    lines = (out_dir / "span.txt").read_text().splitlines()
    if "FULL" not in lines or "complement" in lines:
        raise CheckFailed("span.txt does not hold a FULL verdict")
    return {}


def _span_deficient(rank: int, n: int) -> Callable[[Path], dict]:
    def check(out_dir: Path) -> dict:
        text = (out_dir / "span.txt").read_text()
        lines = text.splitlines()
        if f"DEFICIENT rank={rank}" not in lines:
            raise CheckFailed(f"span.txt has no 'DEFICIENT rank={rank}' verdict")
        complement = json.loads(text.split("complement\n", 1)[1])
        if len(complement) != n * n - 1 - rank:
            raise CheckFailed(f"complement holds {len(complement)} matrices, expected {n * n - 1 - rank}")
        return {}

    return check


def _steer_files(count: int) -> Callable[[Path], dict]:
    def check(out_dir: Path) -> dict:
        from wayspan.evolve import load_field

        control = load_field(out_dir / "field.json")
        if control.steps != count * STEER_STEPS:
            raise CheckFailed(f"field.json has {control.steps} steps, expected {count * STEER_STEPS}")
        rows = (out_dir / "visits.csv").read_text().splitlines()[1:]
        fidelities = [float(row.split(",")[1]) for row in rows]
        if len(fidelities) != count:
            raise CheckFailed(f"visits.csv has {len(fidelities)} visits, expected {count}")
        worst = min(fidelities)
        if worst < FID_TARGET:
            raise CheckFailed(f"worst visit fidelity {worst!r} below {FID_TARGET}")
        _span_full(out_dir)
        return {"worst_visit_fidelity": worst}

    return check


def _waypoint_files(n: int) -> Callable[[Path], dict]:
    def check(out_dir: Path) -> dict:
        from wayspan.waypoints import load_waypoints

        wset = load_waypoints(out_dir / "waypoints.json")
        if (len(wset), wset.dim, wset.provenance) != (2 * n * n - 2 * n, n, "theorem1"):
            raise CheckFailed(f"waypoints.json reloads as {len(wset)} {wset.provenance} way-points at dim {wset.dim}")
        return _span_full(out_dir)

    return check


def certify_trajectory(seed: int) -> list[Command]:
    n, m = gen.CERTIFY_N, gen.CERTIFY_STEPS
    sampled = len(range(0, m + 1, gen.CERTIFY_STRIDE))
    base = ("check", "--system", "system.json", "--field", "field.json")
    return [
        Command(
            base + ("--rho0", "rho0.json", "--obs", "obs.json", "--out", OUT),
            0,
            (
                rf"independence verdict: FULL \({m + 1} samples, dim {n}\)",
                r"gradient max \|g_m\|: \S+",
                r"kinematic residual: \S+",
            ),
            _span_full,
        ),
        Command(
            base + ("--stride", str(gen.CERTIFY_STRIDE), "--out", OUT),
            1,
            (rf"independence verdict: DEFICIENT rank={sampled} \({sampled} samples, dim {n}\)",),
            _span_deficient(sampled, n),
        ),
    ]


def steer_chain(seed: int) -> list[Command]:
    n = gen.STEER_N
    count = 5 * (n * (n - 1) // 2) + 5 * (n - 1)
    return [
        Command(
            (
                "steer", "--system", "system.json", "--provenance", "theorem3",
                "--steps", str(STEER_STEPS), "--fid-target", str(FID_TARGET),
                "--seed", str(STEER_CHAINS * seed + k), "--out", OUT,
            ),
            0,
            (
                rf"segments converged: {count}/{count}",
                rf"worst visit fidelity: \S+ \(target {FID_TARGET}\)",
                r"independence verdict: FULL",
            ),
            _steer_files(count),
        )
        for k in range(STEER_CHAINS)
    ]


def closure_waypoints(seed: int) -> list[Command]:
    n = gen.CLOSURE_N
    return [
        Command(("controllability", "--system", "system.json"), 0, (rf"dimension: {n * n}", r"verdict: U")),
        Command(
            ("waypoints", "--provenance", "theorem1", "--system", "system.json", "--out", OUT),
            0,
            (
                rf"way-points: {2 * n * n - 2 * n} \(provenance theorem1, dim {n}\)",
                r"spanning verdict: FULL",
            ),
            _waypoint_files(n),
        ),
    ]


WORKLOADS = {
    "certify-trajectory": certify_trajectory,
    "steer-chain": steer_chain,
    "closure-waypoints": closure_waypoints,
}


@dataclass
class PassResult:
    traced: bool
    verdict_s: float = 0.0
    setup_s: float = 0.0
    maxrss_kb: int = 0
    bytes_written: int = 0
    attempted: int = 0
    failed: int = 0
    worst_visit_fidelity: float | None = None
    records: list = field(default_factory=list)
    probe_s: list = field(default_factory=list)

    def scale(self) -> float:
        """Factor that rescales this pass's times to the reference machine speed."""
        return PROBE_REF_S / statistics.median(self.probe_s) if self.probe_s else 1.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_pass(commands: list[Command], traced: bool, inputs: Path, pass_dir: Path, env: dict, deadline: float) -> PassResult:
    result = PassResult(traced=traced)
    for k, cmd in enumerate(commands):
        out_dir = pass_dir / f"cmd{k}"
        out_dir.mkdir(parents=True)
        record_path = pass_dir / f"cmd{k}.json"
        argv = [str(out_dir) if a == OUT else a for a in cmd.argv]
        child = [sys.executable, str(HERE / "child.py"), str(record_path), "1" if traced else "0", "--", *argv]
        result.attempted += 1
        try:
            timeout = max(1.0, deadline - time.monotonic())
            proc = subprocess.run(child, cwd=inputs, env=env, capture_output=True, text=True, timeout=timeout)
            stdout = proc.stdout
        except subprocess.TimeoutExpired:
            stdout = ""
        if record_path.exists():
            record = json.loads(record_path.read_text())
            errors, extras = judge(cmd, record["exit_code"], stdout, out_dir)
        else:
            record, extras = None, {}
            errors = ["the command crashed or timed out before returning"]
        if errors:
            result.failed += 1
            print(f"FAILED {' '.join(argv)}: {'; '.join(errors)}", file=sys.stderr)
        if record is not None:
            result.verdict_s += record["verdict_s"]
            result.setup_s += record["setup_s"]
            result.maxrss_kb = max(result.maxrss_kb, record["maxrss_kb"])
            result.probe_s.append(record["probe_s"])
            result.records.append(record)
        if "worst_visit_fidelity" in extras:
            result.worst_visit_fidelity = min(extras["worst_visit_fidelity"], result.worst_visit_fidelity or 1.0)
        result.bytes_written += sum(f.stat().st_size for f in out_dir.rglob("*") if f.is_file())
    return result


def traced_totals(records: list) -> tuple[dict, float, float]:
    """Per-layer totals of one traced pass, its root self time and its root total."""
    totals = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in spans.LAYERS}
    root_self = root_total = 0.0
    for record in records:
        for name, entry in spans.layer_totals(record["spans"], spans.LAYERS).items():
            if name == spans.ROOT:
                root_self += entry["self_s"]
                root_total += entry["total_s"]
            else:
                for key in entry:
                    totals[name][key] += entry[key]
    return totals, root_self, root_total


def end_to_end_metrics(passes: list[PassResult]) -> dict:
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    fidelities = [p.worst_visit_fidelity for p in passes if p.worst_visit_fidelity is not None]
    return {
        "time_to_verdict_s": (statistics.median(p.scale() * p.verdict_s for p in passes), "s"),
        "setup_s": (statistics.median(p.scale() * p.setup_s for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p.maxrss_kb for p in passes) / 1024.0, "MB"),
        "ops_ok_ratio": ((attempted - failed) / attempted, "ratio"),
        # Workloads that steer nothing visit nothing; they report the bound 1.
        "worst_visit_fidelity": (min(fidelities) if fidelities else 1.0, "fidelity"),
    }


def per_layer_metrics(untraced: list[PassResult], traced: list[PassResult]) -> dict:
    rows = [(traced_totals(p.records), p) for p in traced if p.records]
    rows.sort(key=lambda row: row[0][2])
    (totals, root_self, root_total), chosen = rows[(len(rows) - 1) // 2]
    traced_median = statistics.median(p.scale() * row[2] for row, p in rows)
    untraced_median = statistics.median(p.scale() * p.verdict_s for p in untraced)
    metrics = {}
    for name in spans.LAYERS:
        metrics[f"{name}.calls"] = (totals[name]["calls"], "count")
        metrics[f"{name}.total_s"] = (totals[name]["total_s"], "s")
        metrics[f"{name}.self_s"] = (totals[name]["self_s"], "s")
    iterations = sum(r["iterations"] for r in chosen.records)
    trials = totals["steer._fidelity_state"]["calls"]
    metrics["steer.iterations"] = (iterations, "count")
    metrics["steer.accept_ratio"] = (iterations / trials if trials else 0.0, "ratio")
    for name in spans.PEAK_LAYERS:
        peak = max((r["peak_bytes"].get(name, 0) for r in chosen.records), default=0)
        metrics[f"{name}.peak_alloc_mb"] = (peak / 2**20, "MB")
    metrics["io.bytes_written"] = (chosen.bytes_written, "bytes")
    metrics["cli.other_self_s"] = (root_self, "s")
    metrics["trace.time_to_verdict_s"] = (root_total, "s")
    metrics["trace.overhead_ratio"] = (traced_median / untraced_median if untraced_median else 0.0, "ratio")
    return metrics


def environment(workload: str, seed: int, passes: list[PassResult], absent: list[str]) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 prints instead of returning
        pass
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "passes": len(passes),
        "wall_time_to_verdict_s": statistics.median(p.verdict_s for p in passes),
        "probe_scale": statistics.median(p.scale() for p in passes),
        "absent_layers": absent,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the wayspan CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (SRC / "wayspan" / "cli.py").is_file():
        print(f"no wayspan package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    inputs = work / "inputs"
    shutil.rmtree(work, ignore_errors=True)
    try:
        gen.write(args.workload, args.seed, inputs)
        commands = WORKLOADS[args.workload](args.seed)
        env = child_env()
        # Compile the package's bytecode before timing; users of an
        # installed package do not pay for that on each call.
        subprocess.run([sys.executable, "-c", "import wayspan.cli"], env=env, timeout=30.0)

        passes: list[PassResult] = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            pass_dir = work / f"pass{len(passes)}"
            done = run_pass(commands, traced, inputs, pass_dir, env, deadline)
            passes.append(done)
            shutil.rmtree(pass_dir)
            print(
                f"pass {len(passes)}{' traced' if traced else ''}: verdict {done.verdict_s:.4f} s, "
                f"setup {done.setup_s:.4f} s, probe x{done.scale():.4f}, failed {done.failed}/{done.attempted}",
                file=sys.stderr,
            )
            elapsed = time.perf_counter() - start
            enough = elapsed >= args.seconds and (not args.trace or len(passes) >= 2)
            if enough or elapsed >= PASS_DEADLINE_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    absent = next((r["absent"] for p in traced for r in p.records), [])
    if args.trace and traced and any(p.records for p in traced):
        metrics = per_layer_metrics(untraced, traced)
    elif args.trace:
        metrics = {}
    else:
        metrics = end_to_end_metrics(untraced)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(json.dumps({"env": environment(args.workload, args.seed, passes, absent)}))
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
