"""Run one workload of the two-clock benchmark and print its metrics.

    python3 perfbench/run.py --workload lp-burst --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs every workload, each in its own process.  The
exit code is non-zero when an answer disagrees with the HiGHS reference
or the library source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Also in ``perfbench.workloads``; repeated here so that argument
#: parsing works before the library can be imported.
WORKLOADS = ("lp-burst", "lp-repeat", "mip-tree")
#: BLAS threads, pinned before NumPy loads so that runs are comparable.
BLAS_THREADS = "1"
#: Traced runs write their spans and layer tables here.
OUT_DIR = ROOT / ".perfbench_out"
CHILD_TIMEOUT_S = 900


def _use_checkout_source() -> None:
    """Import the library from this checkout's ``src``, or exit 2."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _setup_probe(workload: str) -> float:
    """Import the library and build what the workload runs on; seconds.

    Runs in a fresh interpreter, before anything else imports the library.
    """
    start = time.perf_counter()
    from perfbench import workloads

    if workload == "mip-tree":
        from repro.device.gpu import Device
        from repro.device.spec import V100

        Device(V100)
    else:
        workloads.make_cluster()
    return time.perf_counter() - start


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe is None and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _run_all(args) -> int:
    results = {}
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        status = status or out.returncode
        lines = out.stdout.strip().splitlines()
        results[workload] = json.loads(lines[-1]) if out.returncode == 0 and lines else None
    print(json.dumps({"workloads": results}))
    return status


def main(argv=None) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    _use_checkout_source()
    if args.setup_probe is not None:
        print(repr(_setup_probe(args.setup_probe)))
        return 0
    from perfbench import measure

    result = measure.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         Path(__file__).resolve(), OUT_DIR)
    for line in result.lines:
        print(line)
    names = measure.PER_LAYER if args.trace else measure.END_TO_END
    print(result.result_line(names))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
