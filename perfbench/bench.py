"""Measurement loop, output checks and metric derivation for one run."""

from __future__ import annotations

import json
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads
from tracing import Tracer

WORKLOADS = workloads.WORKLOADS
SETUP_REPS = 3

# metric names and units, in the order they are printed
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = SPEC["end_to_end"]
PER_LAYER = SPEC["per_layer"]

# per-layer metrics: span-derived calls (first traced op), self seconds (median
# per traced op) and computed bytes (first traced op), then values read from
# the program's outputs
CALLS = ("rng.substream", "core.sample_projection", "core.as_vector",
         "sharing.share_vector", "sharing.truncate_share", "sharing.simulate_share_view",
         "verification.project_reply", "verification.verifier0_decide",
         "transcript.encode_quantized")
SELF = CALLS + ("verification.session_matrix", "aggregation.run_aggregation",
                "harness.run_scenario", "harness.build_submission",
                "harness.scenario_client_ids", "transcript.encode", "transcript.sha256",
                "audit.norm_verification_rate", "audit.conditioned_projection_privacy",
                "audit.two_sample_closeness", "audit.privacy_loss_mc", "cli.main")
COMPUTED = ("core.sample_projection", "audit.conditioned_projection_privacy")
OUTCOMES = ("verification.accept_ratio", "verification.honest_reject_ratio",
            "aggregation.excluded", "transcript.messages",
            "transcript.bytes.client_to_server", "transcript.bytes.server_to_server",
            "transcript.share_bits_per_coord", "transcript.wire_bytes_per_client")


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 ops beyond it.

    With fewer than 11 ops no percentile has 10 beyond it; the maximum is
    reported as percentile 100.
    """
    ordered = sorted(durations)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


@dataclass
class Report:
    workload: str
    seed: int
    seconds: float
    unit: str
    units_per_op: int
    import_s: float
    inputs_s: list[float]
    warmup_s: float
    durations: list[float] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    extra: dict[str, object] = field(default_factory=dict)
    tracer: Tracer | None = None
    env: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def catalogue(self):
        return PER_LAYER if self.tracer is not None else END_TO_END

    def lines(self) -> list[str]:
        out = [f"workload {self.workload} seed {self.seed}: {len(self.durations)} ops "
               f"({self.units_per_op} {self.unit} each) in {sum(self.durations):.3f} s "
               f"of op time, {sum(self.traced)} traced"]
        for m in self.catalogue():
            out.append(f"{m['name']:<44} {self.metrics[m['name']]:.6g} {m['unit']}")
        for key, value in self.extra.items():
            out.append(f"{key:<44} {value}")
        out.append(f"env {self.env}")
        return out

    def result_line(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {m["name"]: {"value": self.metrics[m["name"]], "unit": m["unit"]}
                        for m in self.catalogue()},
        }

    def record(self) -> dict:
        return {
            "workload": self.workload, "seed": self.seed, "seconds": self.seconds,
            "unit": self.unit, "units_per_op": self.units_per_op,
            "import_s": self.import_s, "inputs_s": self.inputs_s,
            "warmup_s": self.warmup_s,
            "op_durations_s": self.durations, "op_traced": self.traced,
            "failures": self.failures, "extra": self.extra, "env": self.env,
            **self.result_line(),
        }


def run(name: str, seed: int, seconds: float, trace: bool, *, import_s: float,
        make=workloads.make) -> Report:
    """Set up the workload, run ops until `seconds` of op time, check each op.

    Set-up is imports, then the median of SETUP_REPS rounds of calibration
    and input generation, then one untimed warm-up op.
    """
    inputs_s = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        wl = make(name, seed)
        inputs_s.append(perf_counter() - t0)
    t0 = perf_counter()
    wl.run(0, workloads.TAG_WARMUP)
    warmup_s = perf_counter() - t0

    report = Report(workload=name, seed=seed, seconds=seconds, unit=wl.unit,
                    units_per_op=wl.units_per_op, import_s=import_s,
                    inputs_s=inputs_s, warmup_s=warmup_s, tracer=Tracer() if trace else None)
    first_outcomes = None
    check_s = 0.0
    op = 0
    # with tracing, ops alternate traced / untraced, starting traced
    while sum(report.durations) < seconds or op < (2 if trace else 1):
        traced = trace and op % 2 == 0
        outputs = None
        t0 = perf_counter()
        try:
            if traced:
                with report.tracer.op(op):
                    outputs = wl.run(op)
            else:
                outputs = wl.run(op)
        except Exception:
            problems = [[f"op raised: {traceback.format_exc(limit=3)}"]] * wl.calls_per_op
        report.durations.append(perf_counter() - t0)
        report.traced.append(traced)
        t_check = perf_counter()
        if outputs is not None:
            try:
                problems = wl.check(op, outputs)
            except Exception:
                problems = [[f"check raised: {traceback.format_exc(limit=3)}"]] * wl.calls_per_op
            if op == 0:
                first_outcomes = wl.outcomes(outputs)
        record(report, f"op {op}", problems)
        check_s += perf_counter() - t_check
        op += 1
        del outputs
    record(report, "re-run of the first op", [wl.final_check()])
    report.extra["check_s"] = round(check_s, 3)

    if trace:
        derive_per_layer(report, wl, first_outcomes or {})
    else:
        derive_end_to_end(report, first_outcomes or {})
    return report


def record(report: Report, where: str, problems: list[list[str]]) -> None:
    for call_problems in problems:
        report.attempted += 1
        if call_problems:
            report.failed += 1
            report.failures.append(f"{where}: {'; '.join(call_problems)}")
            print(f"FAILED {where}: {'; '.join(call_problems)}", file=sys.stderr)


def derive_end_to_end(report: Report, outcomes: dict[str, float]) -> None:
    durations = report.durations
    value, pct = tail(durations)
    report.metrics.update({
        "op_tail_s": value,
        "setup_s": report.import_s + statistics.median(report.inputs_s) + report.warmup_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    # printed but not in BENCHMARK.json: throughput and the median op time
    # depend on how much of a run the host spent at its faster speed level
    # (README.md), failed_ratio is 0 on correct code, and wire bytes exist
    # only for sessions
    report.extra.update({
        "op_tail": f"p{pct:.4g} of {len(durations)} ops",
        "throughput_per_s":
            f"{report.units_per_op * len(durations) / sum(durations):.6g} {report.unit}/s",
        "op_p50_s": f"{statistics.median(durations):.6g} s",
        "failed_ratio": f"{report.failed / report.attempted:.6g} ratio",
    })
    if "transcript.wire_bytes_per_client" in outcomes:
        report.extra["wire_bytes_per_client"] = (
            f"{outcomes['transcript.wire_bytes_per_client']:.6g} B (first op)")
    report.extra.update({"import_s": f"{report.import_s:.4g} s",
                         "warmup_s": f"{report.warmup_s:.4g} s"})


def derive_per_layer(report: Report, wl, outcomes: dict[str, float]) -> None:
    per_op = report.tracer.per_op()
    names = report.tracer.names
    ops = list(per_op["ops"])
    first = ops.index(0)

    def calls(name: str) -> float:
        return float(per_op["calls"][first, names.index(name)])

    def self_s(*span_names: str) -> float:
        cols = [names.index(n) for n in span_names]
        return float(np.median(per_op["self"][:, cols].sum(axis=1)))

    m = report.metrics
    for name in CALLS:
        m[f"{name}.calls"] = calls(name)
    for name in SELF:
        if name == "transcript.encode":
            m[f"{name}.self_s"] = self_s(*(n for n in names if n.startswith("transcript.encode_")))
        else:
            m[f"{name}.self_s"] = self_s(name)
    for name in COMPUTED:
        m[f"{name}.bytes_computed"] = float(per_op["work"][first, names.index(name)])
    for name in OUTCOMES:
        m[name] = float(outcomes.get(name, 0.0))
    replies = calls("verification.project_reply")
    m["verification.reply_use_ratio"] = (
        outcomes.get("verification.replies_used", 0.0) / replies if replies else 0.0)
    traced = [d for d, t in zip(report.durations, report.traced) if t]
    untraced = [d for d, t in zip(report.durations, report.traced) if not t]
    m["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    report.extra.update({
        "spans": int(per_op["calls"].sum()),
        "calibrated_beta": getattr(getattr(wl, "params", None), "beta", None),
    })
