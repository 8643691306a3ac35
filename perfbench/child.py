"""Run one ``wayspan`` CLI command in this fresh interpreter and time it.

    python3 child.py RECORD.json TRACE -- CLI-ARGS...

Writes RECORD.json after ``cli.main`` returns, with the import time of
``wayspan.cli`` (``setup_s``), the wall time inside ``cli.main``
(``verdict_s``), the exit code, the peak resident set and the time of a
fixed machine-speed probe run after the command (``probe_s``).  With
TRACE=1 the record also holds the spans of every layer in
``spans.LAYERS``.  The CLI's own output goes to standard output unchanged.
"""

import sys
import time

t0 = time.perf_counter()
from wayspan import cli  # noqa: E402

setup_s = time.perf_counter() - t0

import json  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402


def probe() -> float:
    """Median of three timings of a fixed mix of the kinds of work the CLI does.

    Small matrix products in a Python loop, batched small eigensolves, a
    full SVD of a tall matrix and an indented JSON dump.  The code never
    changes, so its time tracks how fast the machine runs at the moment.
    """
    return sorted(_probe_once() for _ in range(3))[1]


def _probe_once() -> float:
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    step = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    u = np.eye(4, dtype=complex)
    for _ in range(4000):
        u = step @ u
    gens = rng.normal(size=(2000, 8, 8))
    np.linalg.eigh(gens + gens.transpose(0, 2, 1))
    np.linalg.svd(rng.normal(size=(800, 63)), full_matrices=True)
    json.dumps(rng.normal(size=(200, 40)).tolist(), indent=2)
    return time.perf_counter() - start


def main() -> int:
    record_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1 :]
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        code = tracer.call(spans.ROOT, cli.main, argv) if tracer else cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    verdict_s = time.perf_counter() - start
    sys.stdout.flush()
    record = {
        "setup_s": setup_s,
        "verdict_s": verdict_s,
        "exit_code": code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "probe_s": probe(),
    }
    if tracer is not None:
        record.update(
            spans=tracer.spans,
            absent=tracer.absent,
            iterations=tracer.iterations,
            peak_bytes=tracer.peak_bytes,
        )
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
