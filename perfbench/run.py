"""tensorfm benchmark.

    python3 perfbench/run.py --workload train-wide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the root of a source checkout; the package is imported from
``src/``. The BLAS thread pools are capped at the number of usable cores
before numpy is imported. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``). The
end-to-end times are probe-normalised seconds (see ``HostClock`` in
``workloads.py``); the same figures from plain wall time are printed as
``info wall.*`` lines. The exit code is 0 only when every operation and
every correctness gate passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-wide", "train-ctr", "serve")
THREAD_VARS = ("TENSORFM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse_args(argv):
    p = argparse.ArgumentParser(description="tensorfm benchmark")
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the benchmark's own tests")
    return p.parse_args(argv)


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )  # fmt: skip
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _manifest(args, np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _run_all(args) -> int:
    """Each workload in a fresh process, so its peak RSS and caches are its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]  # fmt: skip
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        code = code or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return code or (0 if combined["correct"] else 1)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return _run_all(args)

    cap = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = cap
    src = ROOT / "src"
    if not (src / "tensorfm" / "__init__.py").is_file():
        print(f"error: no package source at {src / 'tensorfm'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]

    import numpy as np

    import tensorfm
    import workloads

    if Path(tensorfm.__file__).resolve().parent != (src / "tensorfm").resolve():
        print(f"error: imported tensorfm from {tensorfm.__file__}, not from {src}", file=sys.stderr)
        return 2

    print("manifest " + json.dumps(_manifest(args, np), sort_keys=True))
    work_dir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        report = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), args.size, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    print("properties " + json.dumps(report.properties, sort_keys=True))
    for name, (value, unit) in report.info.items():
        print(f"info {name} = {value!r} {unit}")
    for gate in report.gates:
        print(f"gate {'ok  ' if gate.ok else 'FAIL'} {gate.name}: {gate.detail}")
    for err in report.errors:
        print(f"error {err}")
    for name, (value, unit) in report.metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    correct = report.failed == 0
    result = {
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report.metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
