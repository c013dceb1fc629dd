"""privsum benchmark: one workload, one run, metrics as JSON on the last line.

    python3 perfbench/run.py --workload session-mixed --seed 1 --seconds 15 --trace 0

Run it from the repository root; it imports privsum from `src/` of the
tree it sits in. Load is a closed loop in one process and one thread: the
next op starts when the previous one returns. Inputs come from --seed and
are generated before timing; ops run until --seconds of op time have been
measured; every op's output is checked. With --trace 0 the end-to-end
metrics are reported; with --trace 1 every other op runs with the layer
wrappers of tracing.py installed and the per-layer metrics are reported.
The exit code is 0 only when every check passed. See README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# one BLAS/OpenMP thread, pinned before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import platform
    import subprocess

    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "privsum" / "__init__.py").is_file():
        print(f"privsum sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench  # noqa: E402  (imports numpy and privsum)

    import_s = time.perf_counter() - T_START
    if args.workload not in bench.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {bench.WORKLOADS}",
              file=sys.stderr)
        return 2
    report = bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                       import_s=import_s)
    report.env = environment()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if report.tracer is not None:
        report.tracer.write(OUT / f"{stem}-spans.npz")
    (OUT / f"{stem}.json").write_text(json.dumps(report.record(), indent=2) + "\n")
    for line in report.lines():
        print(line)
    print(json.dumps(report.result_line()))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
