"""Self-check of the benchmark at tiny sizes; exits 0 when every check holds.

    python3 perfbench/selfcheck.py

Runs every workload at a tiny shape, untraced and traced, and checks that:
every end-to-end and per-layer metric is emitted and finite; no op fails on
correct code; the traced run's counts repeat exactly across two runs of the
same seed; and a corrupted op output (a perturbed released sum, a broken
rate, a rejected audit row) counts as a failed op.
"""

import math
import os
import sys
from dataclasses import replace
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bench  # noqa: E402
import workloads as wl_mod  # noqa: E402
from privsum import audit  # noqa: E402

TINY_SESSION = {
    "session-mixed": replace(wl_mod.SESSION_MIXED, d=16, k=16, honest=12, partial_send=3,
                             norm_inflating=2, inconsistent=1),
    "session-wide-quantized": replace(wl_mod.SESSION_WIDE_QUANTIZED, d=32, k=16, honest=6),
}
TINY_POINTS = tuple(replace(pt, d=8) for pt in wl_mod.MC_POINTS)


def make_tiny(name: str, seed: int):
    if name in TINY_SESSION:
        return wl_mod.SessionWorkload(TINY_SESSION[name], seed,
                                      check_traffic=name == "session-mixed")
    if name == "mc-verify":
        return wl_mod.MonteCarloWorkload(seed, points=TINY_POINTS, trials=100)
    return wl_mod.AuditWorkload(seed, samples=1000)


def corrupt(name: str, outputs: list) -> list:
    """The op's outputs with one value made wrong."""
    if name.startswith("session-"):
        (out,) = outputs
        return [replace(out, result=replace(out.result, sum=out.result.sum + 1e-3))]
    if name == "mc-verify":
        broken = [replace(est, rate=1.0 - est.rate) for est in outputs]
        return broken
    ((code, text),) = outputs
    return [(code, text.replace(audit.VERDICT_CONSISTENT, audit.VERDICT_REJECTED, 1))]


class Corrupting:
    """A workload whose every op output is corrupted before it is checked."""

    def __init__(self, name: str, inner):
        self._name, self._inner = name, inner

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def run(self, *args):
        return corrupt(self._name, self._inner.run(*args))


def run(name: str, trace: bool, make=make_tiny):
    return bench.run(name, 7, 0.2, trace, import_s=0.0, make=make)


def main() -> int:
    problems = []
    for name in bench.WORKLOADS:
        plain = run(name, trace=False)
        traced = run(name, trace=True)
        again = run(name, trace=True)
        for report, catalogue in ((plain, bench.END_TO_END), (traced, bench.PER_LAYER)):
            missing = [m["name"] for m in catalogue
                       if not math.isfinite(report.metrics.get(m["name"], math.nan))]
            if missing:
                problems.append(f"{name}: metrics missing or not finite: {missing}")
            if not report.correct:
                problems.append(f"{name}: ops failed on correct code: {report.failures}")
        counts = [m["name"] for m in bench.PER_LAYER if m["unit"] in ("count", "B", "bit")]
        differ = [m for m in counts if traced.metrics[m] != again.metrics[m]]
        if differ:
            problems.append(f"{name}: traced counts differ between runs: {differ}")
        broken = run(name, trace=False,
                     make=lambda n, s: Corrupting(n, make_tiny(n, s)))
        if broken.correct or broken.failed < len(broken.durations):
            problems.append(f"{name}: corrupted outputs were not all counted as failed")
        print(f"{name}: {plain.attempted} + {traced.attempted} ops checked, "
              f"{broken.failed}/{broken.attempted} corrupted ops failed")
    for p in problems:
        print(f"SELF-CHECK FAILED {p}", file=sys.stderr)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
