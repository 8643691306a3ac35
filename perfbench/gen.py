"""Seeded input documents for the benchmark workloads.

The CLI sees only the JSON documents written here: systems, control
fields and the rho0/obs matrices.  The same seed gives the same bytes.

Every system has a diagonal drift with positive, non-degenerate levels
(so the Lie closure is all of u(N)) and a traceless real symmetric dipole
whose off-diagonal entries satisfy |mu_ij| >= 0.1, so the Theorem 1 and
Theorem 3 hypotheses hold.

Run as a script to write one workload's inputs:

    python3 perfbench/gen.py --workload certify-trajectory --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

CERTIFY_N = 8
CERTIFY_STEPS = 4000
CERTIFY_HORIZON = 200.0
# The strided check keeps range(0, M + 1, stride), 41 samples, which is
# fewer than N^2 - 1 = 63, so its verdict is DEFICIENT.
CERTIFY_STRIDE = 100
STEER_N = 4
CLOSURE_N = 24
# The Armijo iteration count of a steered chain moves by about +-40%
# between random systems, and by +-25% even when a fixed system's dipole
# is perturbed by 5%, while with one system it moves far less over initial
# controls.  The steering system is therefore drawn from this fixed stream,
# and the workload seed reaches `steer --seed`, which draws the initial
# controls.
STEER_SYSTEM_STREAM = 7


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True) + "\n"


def system_doc(rng: np.random.Generator, n: int) -> dict:
    """Diagonal drift h0 and traceless symmetric mu with |mu_ij| >= 0.1 off the diagonal."""
    levels = np.cumsum(rng.uniform(0.5, 1.5, n))
    mags = rng.uniform(0.1, 1.0, (n, n)) * rng.choice([-1.0, 1.0], (n, n))
    mu = np.triu(mags, 1)
    mu = mu + mu.T
    diag = rng.uniform(-1.0, 1.0, n)
    mu[np.diag_indices(n)] = diag - diag.mean()
    return {"n": n, "h0": np.diag(levels).tolist(), "mu": mu.tolist()}


def field_doc(rng: np.random.Generator, steps: int, horizon: float) -> dict:
    """A smooth control: seven harmonics with seeded amplitudes and phases."""
    t = np.arange(steps) / steps
    values = np.zeros(steps)
    for k in range(1, 8):
        values += rng.uniform(0.2, 1.0) * np.sin(2.0 * np.pi * k * t + rng.uniform(0.0, 2.0 * np.pi))
    return {"T": horizon, "M": steps, "values": values.tolist()}


def density_doc(rng: np.random.Generator, n: int) -> dict:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    rho = rho / np.trace(rho).real
    return {"n": n, "entries": np.stack([rho.real, rho.imag], axis=-1).tolist()}


def observable_doc(rng: np.random.Generator, n: int) -> dict:
    a = rng.normal(size=(n, n))
    return {"n": n, "entries": (a + a.T).tolist()}


def documents(workload: str, seed: int) -> dict[str, str]:
    """File name -> text of every input document of ``workload`` at ``seed``."""
    rng = np.random.default_rng(seed)
    if workload == "certify-trajectory":
        return {
            "system.json": _dumps(system_doc(rng, CERTIFY_N)),
            "field.json": _dumps(field_doc(rng, CERTIFY_STEPS, CERTIFY_HORIZON)),
            "rho0.json": _dumps(density_doc(rng, CERTIFY_N)),
            "obs.json": _dumps(observable_doc(rng, CERTIFY_N)),
        }
    if workload == "steer-chain":
        fixed = np.random.default_rng(STEER_SYSTEM_STREAM)
        return {"system.json": _dumps(system_doc(fixed, STEER_N))}
    if workload == "closure-waypoints":
        return {"system.json": _dumps(system_doc(rng, CLOSURE_N))}
    raise ValueError(f"unknown workload {workload!r}")


def write(workload: str, seed: int, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for name, text in documents(workload, seed).items():
        (out / name).write_text(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    write(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
