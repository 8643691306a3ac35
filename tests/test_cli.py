"""Exit codes and output files of every ``wayspan`` subcommand.

The exit codes are the scripting contract: 0 for success or a passing
verdict, 1 for a failed verdict, 2 for usage, parse or shape errors and
for a numerical failure.
"""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    EXTREME_SCALES,
    SX,
    SZ,
    coupled_traceless_symmetric,
    random_system_and_field,
    random_traceless_symmetric,
    rotated_traceless_symmetric,
    spoil_last_block,
)
from wayspan import cli, evolve, matspace, reachability, waypoints
from wayspan.evolve import ControlField
from wayspan._fmt import write_document
from wayspan.model import check_hypotheses, load_system


def _system(path, h0, mu):
    write_document(path, {"n": len(h0), "h0": np.asarray(h0, dtype=float), "mu": np.asarray(mu, dtype=float)})
    return str(path)


def _matrix_doc(path, m):
    path.write_text(json.dumps({"n": len(m), "entries": np.real(m).tolist()}))
    return str(path)


@pytest.fixture
def files(tmp_path, rng):
    """A controllable 2-level and 3-level system, an uncontrollable one, and inputs."""
    out = {
        "pauli": _system(tmp_path / "pauli.json", np.real(SZ), np.real(SX)),
        "three": _system(tmp_path / "three.json", np.diag([0.0, 1.0, 2.5]), coupled_traceless_symmetric(3, rng)),
        "diag": _system(tmp_path / "diag.json", np.diag([0.0, 1.0, 3.0]), np.diag([1.0, 0.0, -1.0])),
        "zero": _system(tmp_path / "zero.json", np.real(SZ), np.zeros((2, 2))),
        "traced": str(tmp_path / "traced.json"),
        "bad": str(tmp_path / "bad.json"),
        "field": str(tmp_path / "field.json"),
        "rho0": _matrix_doc(tmp_path / "rho0.json", np.diag([1.0, 0.0])),
        "obs": _matrix_doc(tmp_path / "obs.json", np.real(SZ)),
        "rho0_3": _matrix_doc(tmp_path / "rho0_3.json", np.diag([1.0, 0.0, 0.0])),
    }
    (tmp_path / "traced.json").write_text(json.dumps({"n": 2, "h0": np.eye(2).tolist(), "mu": np.eye(2).tolist()}))
    (tmp_path / "bad.json").write_text("{not json")
    evolve.save_field(ControlField(horizon=3.0, values=rng.normal(size=30)), out["field"])
    return out


def run(*argv):
    return cli.main([str(a) for a in argv])


class TestValidate:
    def test_valid_system_writes_hypotheses(self, files, tmp_path, capsys):
        out = tmp_path / "val"
        assert run("validate", "--system", files["pauli"], files["three"], "--out", out) == 0
        doc = json.loads((out / "hypotheses.json").read_text())
        assert set(doc) == {files["pauli"], files["three"]}
        assert doc[files["pauli"]]["controllable"] == "SU"
        assert doc[files["pauli"]]["lie_dimension"] == 3
        assert "controllable: SU" in capsys.readouterr().out

    def test_failed_hypothesis_exits_1(self, files):
        assert run("validate", "--system", files["diag"]) == 1

    def test_violation_at_load_exits_1(self, files, capsys):
        assert run("validate", "--system", files["pauli"], files["traced"]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_bad_json_and_missing_file_exit_2(self, files, tmp_path):
        assert run("validate", "--system", files["pauli"], files["bad"]) == 2
        assert run("validate", "--system", tmp_path / "absent.json") == 2

    def test_jobs_flag_is_rejected(self, files):
        with pytest.raises(SystemExit) as exc:
            run("validate", "--system", files["pauli"], "--jobs", 2)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("validate", "--system", "{pauli}", "--tol", 1e-3),
            ("waypoints", "--provenance", "theorem3", "--n", 2, "--rank-tol", 1e-3),
            ("check", "--system", "{pauli}", "--field", "{field}", "--rank-tol", 1e-3),
        ],
    )
    def test_tolerance_flags_are_rejected(self, files, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            run(*(str(a).format(**files) for a in argv), "--out", tmp_path)
        assert exc.value.code == 2


class TestControllability:
    def test_a_directory_as_the_system_exits_2(self, tmp_path, capsys):
        # An OSError other than a missing file is reported, not raised: exit 1
        # is kept for verdicts.
        assert run("controllability", "--system", tmp_path) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("ERROR: [Errno") and "Is a directory" in captured.err
        assert captured.out == ""

    def test_basis_csv_matches_per_entry_text(self, files, tmp_path):
        csv = tmp_path / "basis.csv"
        assert run("controllability", "--system", files["three"], "--basis-csv", csv) == 0
        sys_obj = load_system(files["three"])
        basis = reachability.lie_closure(sys_obj.h0, sys_obj.mu).basis
        lines = [",".join(repr(float(x)) for v in e.reshape(-1) for x in (v.real, v.imag)) for e in basis]
        assert csv.read_text() == "\n".join(lines) + "\n"

    def test_controllable_writes_basis(self, files, tmp_path, capsys):
        csv = tmp_path / "basis.csv"
        assert run("controllability", "--system", files["pauli"], "--basis-csv", csv) == 0
        assert "verdict: SU" in capsys.readouterr().out
        rows = csv.read_text().splitlines()
        assert len(rows) == 3
        assert all(len(r.split(",")) == 8 for r in rows)

    def test_uncontrollable_exits_1(self, files, capsys):
        assert run("controllability", "--system", files["diag"]) == 1
        assert "verdict: NO" in capsys.readouterr().out

    def test_bad_json_exits_2(self, files):
        assert run("controllability", "--system", files["bad"]) == 2


class TestWaypoints:
    def test_theorem1_writes_set_and_span(self, files, tmp_path, capsys):
        out = tmp_path / "wp"
        assert run("waypoints", "--provenance", "theorem1", "--system", files["three"], "--out", out) == 0
        wset = waypoints.load_waypoints(out / "waypoints.json")
        assert (len(wset), wset.dim, wset.provenance) == (12, 3, "theorem1")
        assert "FULL" in (out / "span.txt").read_text().splitlines()
        assert "spanning verdict: FULL" in capsys.readouterr().out

    def test_theorem3_without_system_has_no_verdict(self, tmp_path):
        out = tmp_path / "wp"
        assert run("waypoints", "--provenance", "theorem3", "--n", 3, "--out", out) == 0
        assert len(waypoints.load_waypoints(out / "waypoints.json")) == waypoints.theorem3_count(3)
        assert not (out / "span.txt").exists()

    def test_theorem3_with_zero_couplings_is_deficient(self, files, tmp_path):
        out = tmp_path / "wp"
        assert run("waypoints", "--provenance", "theorem3", "--system", files["diag"], "--out", out) == 1
        text = (out / "span.txt").read_text()
        assert "DEFICIENT rank=" in text and "complement" in text

    def test_theorem1_holds_for_a_large_dipole(self, tmp_path, rng, capsys):
        # The check of the eigendecomposition is relative to ||mu||_2.
        system = _system(tmp_path / "big.json", np.diag(np.arange(8.0)), 2.0**20 * coupled_traceless_symmetric(8, rng))
        assert run("waypoints", "--provenance", "theorem1", "--system", system, "--out", tmp_path / "wp") == 0
        assert "spanning verdict: FULL" in capsys.readouterr().out

    def test_a_large_rotated_dipole_is_valid(self, tmp_path, capsys):
        # mu = Q diag(w) Q^T is symmetric up to round-off, which scales with mu;
        # the symmetry check is relative to the largest entry.
        mu = 2.0**20 * rotated_traceless_symmetric(4, np.random.default_rng(4))
        assert (mu != mu.T).any()
        system = tmp_path / "big.json"
        system.write_text(json.dumps({"n": 4, "h0": np.diag([1.0, 2.0, 3.5, 4.0]).tolist(), "mu": mu.tolist()}))
        assert run("validate", "--system", system) == 0
        assert run("waypoints", "--provenance", "theorem1", "--system", system, "--out", tmp_path / "wp") == 0
        assert "spanning verdict: FULL" in capsys.readouterr().out

    def test_hypothesis_violation_exits_1(self, tmp_path, capsys):
        h0 = [[0.0, 1.0], [0.5, 1.0]]
        (tmp_path / "asym.json").write_text(json.dumps({"n": 2, "h0": h0, "mu": np.real(SX).tolist()}))
        assert run("waypoints", "--provenance", "theorem1", "--system", tmp_path / "asym.json", "--out", tmp_path) == 1
        assert capsys.readouterr().err.startswith("INVALID: h0 is not symmetric")

    def test_an_existing_file_as_the_output_directory_exits_2(self, tmp_path, capsys):
        (tmp_path / "taken").write_text("kept\n")
        assert run("waypoints", "--n", 3, "--provenance", "theorem3", "--out", tmp_path / "taken") == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("ERROR: [Errno") and "File exists" in captured.err
        assert (tmp_path / "taken").read_text() == "kept\n"

    def test_missing_inputs_exit_2(self, tmp_path):
        assert run("waypoints", "--provenance", "theorem1", "--out", tmp_path) == 2
        assert run("waypoints", "--provenance", "theorem3", "--out", tmp_path) == 2

    def test_a_system_and_a_dimension_exit_2(self, files, tmp_path, capsys):
        # The system fixes the dimension, so --n could only conflict with it.
        with pytest.raises(SystemExit) as exc:
            run("waypoints", "--provenance", "theorem3", "--system", files["pauli"], "--n", 5, "--out", tmp_path)
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err


class TestPropagate:
    def test_writes_trajectory(self, files, tmp_path, capsys):
        csv = tmp_path / "traj.csv"
        assert run("propagate", "--system", files["pauli"], "--field", files["field"], "--trajectory-csv", csv) == 0
        assert "final unitarity defect" in capsys.readouterr().out
        lines = csv.read_text().splitlines()
        assert len(lines) == 1 + 31
        assert len(lines[0].split(",")) == 1 + 2 * 4

    def test_bad_field_exits_2(self, files):
        assert run("propagate", "--system", files["pauli"], "--field", files["bad"]) == 2


class TestCheck:
    def test_full_trajectory_with_gradient(self, files, tmp_path, capsys):
        out = tmp_path / "chk"
        argv = ("check", "--system", files["pauli"], "--field", files["field"])
        assert run(*argv, "--rho0", files["rho0"], "--obs", files["obs"], "--out", out) == 0
        text = capsys.readouterr().out
        assert "independence verdict: FULL (31 samples, dim 2)" in text
        assert "kinematic residual" in text
        assert "FULL" in (out / "span.txt").read_text().splitlines()

    def test_sparse_stride_is_deficient(self, files, tmp_path):
        out = tmp_path / "chk"
        argv = ("check", "--system", files["pauli"], "--field", files["field"])
        assert run(*argv, "--stride", 20, "--out", out) == 1
        assert "DEFICIENT rank=2" in (out / "span.txt").read_text().splitlines()

    @pytest.mark.parametrize("stride", [0, -3])
    def test_nonpositive_stride_exits_2(self, files, stride, capsys):
        assert run("check", "--system", files["pauli"], "--field", files["field"], "--stride", stride) == 2
        assert "stride" in capsys.readouterr().err

    def test_shape_mismatch_exits_2(self, files, capsys):
        argv = ("check", "--system", files["pauli"], "--field", files["field"])
        assert run(*argv, "--rho0", files["rho0_3"], "--obs", files["obs"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("steps", [30, 2 * evolve._BLOCK + 3])
    def test_gradient_reuses_the_one_step_pass(self, files, tmp_path, monkeypatch, rng, steps):
        field = tmp_path / "steps.json"
        evolve.save_field(ControlField(horizon=0.1 * steps, values=rng.normal(size=steps)), field)
        stacks, passes = [], []
        real_eigh, real_blocks = np.linalg.eigh, evolve._step_blocks

        def counted_eigh(a, *args, **kwargs):
            if np.ndim(a) == 3:
                stacks.append(np.shape(a))
            return real_eigh(a, *args, **kwargs)

        def counted_blocks(sys_, field):
            passes.append(field.steps)
            return real_blocks(sys_, field)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(evolve, "_step_blocks", counted_blocks)
        argv = ("check", "--system", files["pauli"], "--field", field)
        assert run(*argv, "--rho0", files["rho0"], "--obs", files["obs"]) == 0
        # One pass, and each step diagonalised once, in blocks of _BLOCK
        # steps; the last block takes the remainder.
        assert passes == [steps]
        sizes = [shape[0] for shape in stacks]
        assert all(shape[1:] == (2, 2) for shape in stacks) and sum(sizes) == steps
        assert all(size == evolve._BLOCK for size in sizes[:-1]) and sizes[-1] < 2 * evolve._BLOCK

    def test_verdict_does_not_depend_on_the_system_scale(self, tmp_path, capsys):
        # (c h0, c mu, T / c) gives the same propagators for every c.
        sys_n, field = random_system_and_field(6, 600, 2)
        lines = []
        for c in (1e-3, 1.0, 1e3):
            system = _system(tmp_path / f"sys_{c}.json", c * sys_n.h0, c * sys_n.mu)
            evolve.save_field(ControlField(horizon=field.horizon / c, values=field.values), tmp_path / f"f_{c}.json")
            assert run("check", "--system", system, "--field", tmp_path / f"f_{c}.json") == 0
            lines.append(capsys.readouterr().out)
        assert lines == ["independence verdict: FULL (601 samples, dim 6)\n"] * 3

    @pytest.mark.parametrize("given, missing", [("rho0", "--obs"), ("obs", "--rho0")])
    def test_one_of_rho0_and_obs_exits_2(self, files, given, missing, capsys):
        argv = ("check", "--system", files["pauli"], "--field", files["field"])
        assert run(*argv, f"--{given}", files[given]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--{given} needs {missing}" in captured.err

    def test_a_non_hermitian_obs_exits_2(self, files, tmp_path, capsys):
        obs = _matrix_doc(tmp_path / "skew.json", np.array([[1.0, 1.0], [0.0, -1.0]]))
        argv = ("check", "--system", files["pauli"], "--field", files["field"])
        assert run(*argv, "--rho0", files["rho0"], "--obs", obs) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "ERROR: obs is not Hermitian: relative defect 1.000e+00\n"

    def test_module_entry_point_exits_with_the_verdict(self, files):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        argv = ("check", "--system", files["pauli"], "--field", files["field"], "--stride", "20")
        proc = subprocess.run([sys.executable, "-m", "wayspan.cli", *argv], capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert "independence verdict: DEFICIENT rank=2" in proc.stdout


class TestGradientCheck:
    def test_pass_and_fail(self, files):
        argv = ("gradient-check", "--system", files["pauli"], "--field", files["field"],
                "--rho0", files["rho0"], "--obs", files["obs"])
        assert run(*argv) == 0
        assert run(*argv, "--tol", 1e-300) == 1

    @pytest.mark.parametrize("steps", [30, 2 * evolve._BLOCK + 3])
    def test_check_prints_the_same_gradient(self, files, tmp_path, rng, capsys, steps):
        # One gradient formula: check's "gradient max |g_m|" is gradient-check's "max |analytic|".
        field = tmp_path / "steps.json"
        evolve.save_field(ControlField(horizon=0.1 * steps, values=rng.normal(size=steps)), field)
        obs = _matrix_doc(tmp_path / "obs_3.json", np.diag([1.0, 0.5, -1.5]))
        inputs = ("--system", files["three"], "--field", field, "--rho0", files["rho0_3"], "--obs", obs)
        assert run("check", *inputs) == 0
        checked = capsys.readouterr().out.splitlines()
        assert run("gradient-check", *inputs) == 0
        compared = capsys.readouterr().out.splitlines()
        prefix = "gradient max |g_m|: "
        value = next(line for line in checked if line.startswith(prefix))[len(prefix):]
        assert f"max |analytic|: {value}" in compared

    def test_a_non_hermitian_obs_exits_2(self, files, tmp_path, capsys):
        # i SX: the central differences see Re Tr(rho(T) obs), the analytic
        # gradient assumes obs Hermitian, so the two would disagree.
        obs = tmp_path / "anti.json"
        obs.write_text(json.dumps({"n": 2, "entries": [[[0.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 0.0]]]}))
        argv = ("gradient-check", "--system", files["pauli"], "--field", files["field"], "--rho0", files["rho0"])
        assert run(*argv, "--obs", obs) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "ERROR: obs is not Hermitian: relative defect 2.000e+00\n"

    @pytest.mark.parametrize("steps", [1, 30, 600])
    def test_oracle_takes_one_base_pass(self, files, tmp_path, monkeypatch, steps, rng):
        field = tmp_path / "long.json"
        evolve.save_field(ControlField(horizon=0.1 * steps, values=rng.normal(size=steps)), field)
        passes, real_blocks = [], evolve._step_blocks

        def counted_blocks(sys_, probe):
            passes.append(probe.steps)
            return real_blocks(sys_, probe)

        monkeypatch.setattr(evolve, "_step_blocks", counted_blocks)
        assert run("gradient-check", "--system", files["pauli"], "--field", field,
                   "--rho0", files["rho0"], "--obs", files["obs"]) == 0
        assert passes == [steps]

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--fd-step", "0", "finite-difference step"), ("--fd-step", "nan", "finite-difference step"),
         ("--tol", "nan", "--tol"), ("--tol", "inf", "--tol"), ("--tol", "0", "--tol")],
    )
    def test_nonpositive_or_nonfinite_option_exits_2(self, files, flag, value, message, capsys):
        argv = ("gradient-check", "--system", files["pauli"], "--field", files["field"],
                "--rho0", files["rho0"], "--obs", files["obs"])
        assert run(*argv, flag, value) == 2
        assert message in capsys.readouterr().err


class TestSteer:
    def test_custom_waypoints_write_outputs(self, files, tmp_path, capsys):
        wfile = tmp_path / "custom.json"
        targets = [np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)]
        waypoints.save_waypoints(waypoints.WaypointSet(dim=2, unitaries=targets, provenance="custom"), wfile)
        out = tmp_path / "st"
        argv = ("steer", "--system", files["pauli"], "--waypoints", wfile, "--steps", 20, "--out", out)
        assert run(*argv, "--fid-target", 0.99) == 0
        assert "segments converged: 2/2" in capsys.readouterr().out
        assert evolve.load_field(out / "field.json").steps == 40
        rows = (out / "visits.csv").read_text().splitlines()
        assert rows[0] == "waypoint,fidelity,time" and len(rows) == 3
        assert "FULL" in (out / "span.txt").read_text().splitlines()

    def test_two_waypoint_sources_exit_2(self, files, tmp_path, capsys):
        # Either source fixes the list, so the other could only be ignored.
        wfile = tmp_path / "one.json"
        waypoints.save_waypoints(waypoints.WaypointSet(dim=2, unitaries=[np.eye(2)], provenance="custom"), wfile)
        with pytest.raises(SystemExit) as exc:
            run("steer", "--system", files["pauli"], "--waypoints", wfile, "--provenance", "theorem3")
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_zero_segment_time_exits_2(self, files, capsys):
        argv = ("steer", "--system", files["pauli"], "--provenance", "theorem3")
        assert run(*argv, "--segment-time", 0) == 2
        assert "segment_time" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, name",
        [("--segment-time", "nan", "segment_time"), ("--segment-time", "inf", "segment_time")],
    )
    def test_nan_or_infinite_option_exits_2(self, files, flag, value, name, capsys):
        assert run("steer", "--system", files["pauli"], "--provenance", "theorem3", flag, value) == 2
        assert name in capsys.readouterr().err

    def test_segment_shorter_than_the_algebra_exits_2(self, files, capsys):
        assert run("steer", "--system", files["pauli"], "--provenance", "theorem3", "--steps", 2) == 2
        assert "N^2 - 1 = 3" in capsys.readouterr().err

    def test_tiny_dipole_names_the_default_horizon_and_writes_nothing(self, tmp_path, capsys):
        # 10 pi N / ||mu||_HS overflows, so no default horizon exists; the
        # message names it and the option that sets one, not an option the
        # user did not give.
        system = tmp_path / "tiny.json"
        system.write_text('{"n": 2, "h0": [[1, 0], [0, -1]], "mu": [[0, 1e-310], [1e-310, 0]]}')
        out = tmp_path / "st"
        assert run("steer", "--system", system, "--provenance", "theorem3", "--out", out) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ERROR: the default horizon per segment")
        assert "--segment-time" in captured.err and "segment_time must be" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "system, segment",
        [("diag", ()), ("zero", ()), ("zero", ("--segment-time", 5))],
        ids=["diag", "zero-dipole", "zero-dipole-segment-time"],
    )
    def test_uncontrollable_exits_1(self, files, tmp_path, capsys, system, segment):
        # A zero dipole gets the verdict with or without a segment time.
        out = tmp_path / "st"
        assert run("steer", "--system", files[system], "--provenance", "theorem3", *segment, "--out", out) == 1
        assert capsys.readouterr().err == (
            "FAILED: system is not controllable (Lie closure too small); synthesis guarantees do not apply\n"
        )
        assert not out.exists()

    def test_needs_a_waypoint_source(self, files):
        with pytest.raises(SystemExit) as exc:
            run("steer", "--system", files["pauli"])
        assert exc.value.code == 2


class TestEnergyUnit:
    """(2^k h0, 2^k mu, T / 2^k) on an N=4 system with mu = Q diag(w) Q^T:
    every command keeps the verdict lines and exit code of k = 0 over the
    stated range, and past it a command that fails exits 2 without a verdict."""

    @staticmethod
    def _outputs(tmp_path, capsys, k, commands=("validate", "controllability", "waypoints", "check", "steer")):
        c = 2.0**k
        rng = np.random.default_rng(4)
        mu = rotated_traceless_symmetric(4, rng)
        system = tmp_path / f"sys_{k}.json"
        system.write_text(json.dumps({"n": 4, "h0": (c * np.diag([1.0, 2.0, 3.5, 4.0])).tolist(), "mu": (c * mu).tolist()}))
        field = tmp_path / f"field_{k}.json"
        evolve.save_field(ControlField(horizon=6.0 / c, values=rng.normal(size=40)), field)
        argv = {
            "validate": ("validate", "--system", system),
            "controllability": ("controllability", "--system", system),
            "waypoints": ("waypoints", "--provenance", "theorem1", "--system", system, "--out", tmp_path / "wp"),
            "check": ("check", "--system", system, "--field", field),
            "steer": ("steer", "--system", system, "--provenance", "theorem3", "--out", tmp_path / "st"),
        }
        outputs = {}
        for name in commands:
            code = run(*argv[name])
            # validate names the file and prints min |mu_ij|, which scales with mu.
            captured = capsys.readouterr()
            lines = [line for line in captured.out.splitlines() if not line.endswith(".json:") and "min |mu_ij|" not in line]
            outputs[name] = code, lines, captured.err
        return outputs

    @pytest.mark.parametrize("k", [520, *EXTREME_SCALES])
    def test_every_command_keeps_its_verdict(self, tmp_path, capsys, k):
        base = self._outputs(tmp_path, capsys, 0)
        assert base["steer"] == (0, ["segments converged: 45/45", "worst visit fidelity: 0.999050 (target 0.999)",
                                     "independence verdict: FULL"], "")
        assert self._outputs(tmp_path, capsys, k) == base

    @pytest.mark.parametrize("k", [min(EXTREME_SCALES) - 1, max(EXTREME_SCALES) + 1])
    def test_one_past_the_range_only_steer_fails_and_it_exits_2(self, tmp_path, capsys, k):
        base = self._outputs(tmp_path, capsys, 0)
        past = self._outputs(tmp_path, capsys, k)
        code, lines, err = past.pop("steer")
        assert (code, lines) == (2, []) and err.startswith("ERROR: ")
        assert past == {name: base[name] for name in past}

    def test_an_overflowing_spectrum_exits_2(self, tmp_path, capsys):
        # At 2^1021 the singular values of the sampled dipoles overflow: no rank.
        message = "ERROR: numerical failure: singular values of the span are not finite: largest inf\n"
        assert self._outputs(tmp_path, capsys, 1021, ("check",)) == {"check": (2, [], message)}

    def test_steer_writes_no_file_when_its_span_overflows(self, tmp_path, capsys):
        # At 2^1019 the synthesis succeeds and the span of its dipoles
        # overflows, so no field, visits or span file is written.
        message = "ERROR: numerical failure: singular values of the span are not finite: largest inf\n"
        (tmp_path / "st").mkdir()
        assert self._outputs(tmp_path, capsys, 1019, ("steer",)) == {"steer": (2, [], message)}
        assert list((tmp_path / "st").iterdir()) == []


    def test_steer_refuses_an_overflowing_step_generator(self, tmp_path, capsys):
        # At 2^1021 a Newton step takes h0 - eps mu past the float range.  The
        # step pass refuses it before any arithmetic warns, so the run emits
        # no RuntimeWarning and writes no file.
        message = "ERROR: numerical failure: step generators h0 - eps mu are not finite\n"
        (tmp_path / "st").mkdir()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert self._outputs(tmp_path, capsys, 1021, ("steer",)) == {"steer": (2, [], message)}
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert list((tmp_path / "st").iterdir()) == []


class TestNormPastTheFloatRange:
    """h0 = diag(1, 2, 3, 4) and mu = 2^1022 times a traceless symmetric
    matrix, whose HS norm exceeds the float range.  The tests relative to
    that norm are made on mu scaled by a power of two, so ``validate`` and
    ``controllability`` keep the verdicts of the unscaled mu; ``steer``, whose
    default horizon divides by the norm, exits 2 naming it.  RuntimeWarnings
    are errors under pytest, so none is emitted."""

    @staticmethod
    def _system(tmp_path, k):
        mu = random_traceless_symmetric(4, np.random.default_rng(3))
        return _system(tmp_path / f"sys_{k}.json", np.diag([1.0, 2.0, 3.0, 4.0]), np.ldexp(mu, k))

    def test_validate_and_controllability_keep_the_verdicts_of_the_unscaled_dipole(self, tmp_path, capsys):
        outputs, reports = {}, {}
        for k in (0, 1022):
            system = self._system(tmp_path, k)
            assert (matspace.hs_norm(load_system(system).mu) == np.inf) == (k == 1022)
            reports[k] = check_hypotheses(load_system(system))
            for name in ("validate", "controllability"):
                code = run(name, "--system", system)
                out = capsys.readouterr().out.splitlines()
                outputs[k, name] = code, [line for line in out if not line.endswith(".json:") and "min |mu_ij|" not in line]
        assert outputs[0, "validate"] == outputs[1022, "validate"] == (0, [
            "  zero trace: ok", "  symmetric: ok", "  off-diagonal couplings nonzero: ok", "  controllable: U (Lie dimension 16)"])
        assert outputs[0, "controllability"] == outputs[1022, "controllability"] == (0, ["dimension: 16", "verdict: U"])
        # The reported minimum and tolerance are those of the unscaled mu, times 2^1022.
        for name in ("offdiag_min", "offdiag_tol"):
            assert getattr(reports[1022], name) == np.ldexp(getattr(reports[0], name), 1022)

    def test_steer_names_the_norm_of_its_default_horizon(self, tmp_path, capsys):
        out = tmp_path / "st"
        assert run("steer", "--system", self._system(tmp_path, 1022), "--provenance", "theorem3", "--out", out) == 2
        assert capsys.readouterr() == ("", "ERROR: the default horizon per segment, 10 pi N / ||mu||_HS with "
                                       "||mu||_HS = inf, is not a positive finite number; give one with --segment-time\n")
        assert not out.exists()

    @pytest.mark.parametrize("provenance, count", [("theorem1", 24), ("theorem3", 45)])
    def test_waypoints_refuse_the_overflowing_span_without_a_warning(self, tmp_path, capsys, provenance, count):
        # The Theorem 1 set is built from the scaled copy of mu; the largest
        # singular value of the span of either set's dipoles is past the float range.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run("waypoints", "--provenance", provenance, "--system", self._system(tmp_path, 1022), "--out", tmp_path)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == f"way-points: {count} (provenance {provenance}, dim 4)\n"
        assert captured.err.startswith("ERROR: numerical failure: singular values of the span are not finite")
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_steer_refuses_a_newton_system_that_is_not_finite(self, tmp_path, capfd):
        # At so short a horizon the step couplings v† mu v overflow.  The
        # Newton system is refused before LAPACK, which would print to the C
        # stdout that capfd reads, and without a warning.
        out = tmp_path / "st"
        argv = ("steer", "--system", self._system(tmp_path, 1022), "--provenance", "theorem3", "--segment-time", 1e-307)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(*argv, "--out", out) == 2
        assert capfd.readouterr() == ("", "ERROR: numerical failure: the Newton system is not finite: "
                                      "its Jacobian or its gap target† U_M overflows\n")
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert not out.exists()


class TestNumericalFailure:
    """A numerical guard that raises is reported on stderr and exits 2, not 1."""

    @staticmethod
    def _lose_unitarity(monkeypatch):
        monkeypatch.setattr(evolve, "unitarity_defect", lambda u: np.ones(len(u)))
        return "propagation lost unitarity: defect 1.000e+00"

    @staticmethod
    def _nan_dipoles(monkeypatch):
        monkeypatch.setattr(evolve, "conjugated_dipole", lambda u, mu: np.full(np.shape(u), np.nan))
        return "singular values of the span are not finite"

    @pytest.mark.parametrize("guard", ["_lose_unitarity", "_nan_dipoles"])
    def test_check(self, files, monkeypatch, capsys, guard):
        message = getattr(self, guard)(monkeypatch)
        assert run("check", "--system", files["pauli"], "--field", files["field"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"ERROR: numerical failure: {message}")
        assert "verdict" not in captured.out

    @pytest.mark.parametrize(
        "name, extra, message, bad",
        [
            ("_step_exponentials", 0, "propagation lost unitarity", 1e-6),
            ("_step_exponentials", 0, "propagation lost unitarity", np.nan),
            ("conjugated_dipole", 1, "singular values of the span are not finite", np.nan),
        ],
    )
    def test_check_with_a_bad_last_block(self, files, tmp_path, monkeypatch, capsys, name, extra, message, bad):
        # One bad entry in the last block of the steps (or of the nodes'
        # dipoles, one more than the steps) is a numerical failure.
        steps = 2 * evolve._BLOCK + 3
        field = tmp_path / "long.json"
        evolve.save_field(ControlField(horizon=30.0, values=np.linspace(-1.0, 1.0, steps)), field)

        def spoil(out):
            if name == "_step_exponentials":
                out[1][-1, 0, 1] += bad
                return out
            out = out.copy()
            out[-1, 0, 1] += bad
            return out

        spoil_last_block(monkeypatch, name, steps + extra, spoil)
        assert run("check", "--system", files["pauli"], "--field", field) == 2
        assert capsys.readouterr().err.startswith(f"ERROR: numerical failure: {message}")

    def test_steer(self, files, tmp_path, monkeypatch, capsys):
        message = self._lose_unitarity(monkeypatch)
        argv = ("steer", "--system", files["pauli"], "--provenance", "theorem3", "--out", tmp_path / "st")
        assert run(*argv) == 2
        assert capsys.readouterr().err == f"ERROR: numerical failure: {message}\n"
        assert not (tmp_path / "st" / "field.json").exists()


class TestEigenFreeCheck:
    """``check`` without ``--rho0/--obs`` reads no eigenpair, so from
    ``evolve._TAYLOR_MIN_DIM`` levels on its steps take the Taylor kernel."""

    @pytest.mark.parametrize("n", [4, 8])
    def test_a_check_without_gradient_takes_no_eigh(self, tmp_path, monkeypatch, rng, n, capsys):
        system = _system(tmp_path / "sys.json", np.diag(np.arange(n) * 1.0), coupled_traceless_symmetric(n, rng))
        field = tmp_path / "steps.json"
        steps = 2 * evolve._BLOCK + 3
        evolve.save_field(ControlField(horizon=0.05 * steps, values=rng.normal(size=steps)), field)
        rho0 = _matrix_doc(tmp_path / "rho0.json", np.diag([1.0] + [0.0] * (n - 1)))
        obs = _matrix_doc(tmp_path / "obs.json", np.diag(np.linspace(-1.0, 1.0, n)))
        argv = ("check", "--system", system, "--field", field, "--stride", 5)
        assert run(*argv, "--rho0", rho0, "--obs", obs) == 0
        with_gradient = capsys.readouterr().out.splitlines()[0]
        stacks, real_eigh = [], np.linalg.eigh

        def counted_eigh(a, *args, **kwargs):
            stacks.append(np.shape(a))
            return real_eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        assert run(*argv) == 0
        assert stacks == []
        assert capsys.readouterr().out.splitlines() == [with_gradient]

    def test_steps_past_the_cut_off_keep_the_eigh_error(self, tmp_path, files, capsys):
        # Finite generators whose eigenvalues overflow: ||x||_1 is far past
        # the squaring cut-off, so the step takes the eigh exponential and
        # exits 2 with its message, with or without the gradient.
        system = _system(tmp_path / "big.json", np.diag([1.5, -1.5, 1.0, -1.0]) * 1e308, np.kron(np.real(SX), np.real(SX)) * -0.8e308)
        field = tmp_path / "tiny.json"
        evolve.save_field(ControlField(horizon=3e-300, values=[0.5, 1.5, -1.5]), field)
        rho0 = _matrix_doc(tmp_path / "rho0.json", np.diag([1.0, 0.0, 0.0, 0.0]))
        obs = _matrix_doc(tmp_path / "obs.json", np.diag([1.0, 0.0, 0.0, -1.0]))
        message = "ERROR: numerical failure: step eigenvalues are not finite\n"
        argv = ("check", "--system", system, "--field", field)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for extra in ((), ("--rho0", rho0, "--obs", obs)):
                assert run(*argv, *extra) == 2
                assert capsys.readouterr() == ("", message)
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_importing_the_cli_loads_no_slow_module():
    # Every command pays the import of wayspan.cli, in a fresh interpreter.
    code = "import sys, wayspan.cli; print(*sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    loaded = set(proc.stdout.split())
    assert "wayspan.cli" in loaded
    assert loaded.isdisjoint({"numpy.random", "scipy", "uuid", "secrets", "hashlib", "csv"})
