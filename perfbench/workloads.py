"""The four benchmark workloads: inputs, one op, and the checks on its output.

Every workload calibrates at eps = 1, delta = 1e-2, eps_ss = 1,
delta_ss = 1e-2, the audit scale of the acceptance grid. Inputs and
master seeds come from the workload seed through numpy's SeedSequence, so
the benchmark's own randomness never goes through privsum. The program
receives only scenarios, params and master seeds.

An op is a list of program calls. `run` makes them and returns their
outputs; `check` returns one list of failure messages per call, empty
when the call's output is correct.
"""

from __future__ import annotations

import io
import math
from contextlib import redirect_stdout
from dataclasses import dataclass

import numpy as np

from privsum import audit, cli, harness
from privsum.aggregation import (
    BEHAVIOR_HONEST,
    BEHAVIOR_INCONSISTENT,
    BEHAVIOR_NORM_INFLATING,
    BEHAVIOR_PARTIAL_SEND,
)
from privsum.core import calibrate
from privsum.rng import substream

PRIVACY = dict(eps=1.0, delta=1e-2, eps_ss=1.0, delta_ss=1e-2)
SUM_TOLERANCE = 1e-7  # absolute, per coordinate; the seed's error is ~1e-12

TAG_WARMUP, TAG_OP, TAG_SHUFFLE, TAG_AUDIT = 1, 2, 3, 4


def derived_seed(seed: int, *path: int) -> int:
    """A non-negative 62-bit seed addressed by (workload seed, *path)."""
    state = np.random.SeedSequence([seed, *path]).generate_state(1, np.uint64)
    return int(state[0] >> np.uint64(2))


def binomial_se(p: float, trials: int) -> float:
    return math.sqrt(p * (1.0 - p) / trials)


# ---------------------------------------------------------------------------
# session-* : run_scenario + transcript.sha256() + measured_traffic()

@dataclass(frozen=True)
class SessionShape:
    S: int
    d: int
    k: int
    beta: float
    honest: int
    partial_send: int = 0
    norm_inflating: int = 0
    inconsistent: int = 0
    validity_threshold: float | None = None
    trunc_b: float | None = None
    quant_step: float = 1.0

    @property
    def n(self) -> int:
        return self.honest + self.partial_send + self.norm_inflating + self.inconsistent


@dataclass
class SessionOutput:
    result: object
    transcript: object
    sha256: str
    traffic: object


class SessionWorkload:
    unit = "clients"
    calls_per_op = 1

    def __init__(self, shape: SessionShape, seed: int, *, check_traffic: bool):
        self.shape = shape
        self.seed = seed
        self.check_traffic = check_traffic
        self.params = calibrate(**PRIVACY, beta=shape.beta, S=shape.S, k=shape.k,
                                d=shape.d, n=shape.n, trunc_b=shape.trunc_b,
                                quant_step=shape.quant_step).params
        p = self.params
        clients = (
            [harness.ClientBehavior(kind=BEHAVIOR_HONEST, norm=1.0)] * shape.honest
            + [harness.ClientBehavior(kind=BEHAVIOR_PARTIAL_SEND, norm=1.0, skip=(0,))]
            * shape.partial_send
            + [harness.ClientBehavior(kind=BEHAVIOR_NORM_INFLATING, norm=10.0 * p.rho)]
            * shape.norm_inflating
            + [harness.ClientBehavior(kind=BEHAVIOR_INCONSISTENT, scale=1.0)]
            * shape.inconsistent
        )
        order = np.random.default_rng(derived_seed(seed, TAG_SHUFFLE)).permutation(len(clients))
        self.scenario = harness.Scenario(
            n=shape.n, S=shape.S, d=shape.d, clients=tuple(clients[i] for i in order),
            validity_threshold=shape.validity_threshold)
        self.scenario.validate()
        self.units_per_op = shape.n
        self.first_sha: tuple[int, str] | None = None

    def master_seed(self, op_index: int, tag: int = TAG_OP) -> int:
        return derived_seed(self.seed, tag, op_index)

    def run(self, op_index: int, tag: int = TAG_OP) -> list[SessionOutput]:
        seed = self.master_seed(op_index, tag)
        result, transcript = harness.run_scenario(self.scenario, self.params, seed)
        sha = transcript.sha256()
        traffic = harness.measured_traffic(transcript)
        return [SessionOutput(result, transcript, sha, traffic)]

    def check(self, op_index: int, outputs: list[SessionOutput]) -> list[list[str]]:
        (out,) = outputs
        seed = self.master_seed(op_index)
        if self.first_sha is None:
            self.first_sha = (op_index, out.sha256)
        result, problems = out.result, []
        if result.aborted or result.sum is None:
            return [["session aborted"]]
        ids = harness.scenario_client_ids(self.scenario, seed)
        behavior = dict(zip(ids, self.scenario.clients))
        expected = np.zeros(self.shape.d)
        for cid in sorted(result.accepted):
            sub = harness.build_submission(behavior[cid], cid, self.scenario, self.params,
                                           substream(seed, "client", cid))
            share_sum = sum(p for p in sub.payloads.values() if p is not None)
            if float(np.linalg.norm(share_sum)) > self.params.rho:
                problems.append(f"accepted client {cid} has share-sum norm above rho")
            expected = expected + share_sum
        err = float(np.max(np.abs(result.sum - expected)))
        if not err <= SUM_TOLERANCE:
            problems.append(f"released sum is off by {err:.3g}")
        if self.check_traffic:
            predicted = harness.predicted_traffic(self.scenario, self.params, seed,
                                                  accepted_ids=result.accepted)
            if predicted != out.traffic:
                problems.append("measured traffic differs from predicted traffic")
        return [problems]

    def final_check(self) -> list[str]:
        """Re-run the first checked op's seed; its transcript hash must repeat."""
        if self.first_sha is None:
            return ["no op was checked"]
        op_index, sha = self.first_sha
        (again,) = self.run(op_index)
        return [] if again.sha256 == sha else ["re-run of the first seed changed the transcript"]

    def outcomes(self, outputs: list[SessionOutput]) -> dict[str, float]:
        """Per-op values read from the result and transcript, not from spans."""
        (out,) = outputs
        result, transcript, traffic = out.result, out.transcript, out.traffic
        n, S, d = self.shape.n, self.shape.S, self.shape.d
        honest = {cid for cid, b in zip(harness.scenario_client_ids(
            self.scenario, out.transcript.master_seed), self.scenario.clients)
            if b.kind == BEHAVIOR_HONEST}
        decided = result.per_client_outcomes
        honest_decided = [cid for cid in decided if cid in honest]
        shares = [m for m in transcript.messages if m.kind == "share"]
        share_payload = sum(m.byte_size - 4 for m in shares)  # minus the u32 count
        return {
            "verification.replies_used": float(len(decided) * (S - 1)),
            "verification.accept_ratio": len(result.accepted) / max(len(decided), 1),
            "verification.honest_reject_ratio":
                sum(1 for c in honest_decided if not decided[c].accept)
                / max(len(honest_decided), 1),
            "aggregation.excluded": float(n - len(result.accepted)),
            "transcript.messages": float(len(transcript.messages)),
            "transcript.bytes.client_to_server": float(traffic.client_to_server),
            "transcript.bytes.server_to_server": float(traffic.server_to_server),
            "transcript.share_bits_per_coord": 8.0 * share_payload / (len(shares) * d),
            "transcript.wire_bytes_per_client": traffic.total / n,
        }


SESSION_MIXED = SessionShape(S=2, d=128, k=64, beta=0.05, honest=900, partial_send=50,
                             norm_inflating=30, inconsistent=20, validity_threshold=0.5)
SESSION_WIDE_QUANTIZED = SessionShape(S=3, d=1024, k=64, beta=0.05, honest=200,
                                      trunc_b=32.0, quant_step=0.25)


# ---------------------------------------------------------------------------
# mc-verify : norm_verification_rate over the c01/c02 grid points


@dataclass(frozen=True)
class RatePoint:
    kind: str  # "completeness" | "soundness"
    beta: float
    k: int
    S: int
    d: int
    pattern: str


MC_POINTS = (
    RatePoint("completeness", 0.05, 64, 3, 1024, audit.PATTERN_RANDOM),
    RatePoint("completeness", 0.05, 16, 2, 32, audit.PATTERN_RANDOM),
    RatePoint("soundness", 0.01, 64, 2, 1024, audit.PATTERN_CONCENTRATED),
    RatePoint("soundness", 0.05, 64, 2, 32, audit.PATTERN_SPREAD),
)


class MonteCarloWorkload:
    """One op is one norm_verification_rate call at each grid point in turn."""

    unit = "trials"

    def __init__(self, seed: int, *, points=MC_POINTS, trials: int = 1000):
        self.seed = seed
        self.points = points
        self.trials = trials
        self.calls_per_op = len(points)
        self.units_per_op = trials * len(points)
        self.params = [
            calibrate(**PRIVACY, beta=pt.beta, S=pt.S, k=pt.k, d=pt.d).params
            for pt in points
        ]
        self.first_rate: tuple[int, float] | None = None

    def _call(self, op_index: int, j: int, tag: int = TAG_OP):
        pt, params = self.points[j], self.params[j]
        target = 1.0 if pt.kind == "completeness" else params.rho
        return audit.norm_verification_rate(params, target, self.trials,
                                            derived_seed(self.seed, tag, op_index, j),
                                            pattern=pt.pattern)

    def run(self, op_index: int, tag: int = TAG_OP) -> list:
        return [self._call(op_index, j, tag) for j in range(len(self.points))]

    def check(self, op_index: int, outputs: list) -> list[list[str]]:
        if self.first_rate is None:
            self.first_rate = (op_index, outputs[0].rate)
        verdicts = []
        for pt, est in zip(self.points, outputs):
            slack = 3.0 * binomial_se(pt.beta, self.trials)
            if pt.kind == "completeness":
                ok = est.rate >= 1.0 - pt.beta - slack
            else:
                ok = est.rate <= pt.beta + slack
            verdicts.append([] if ok and est.trials == self.trials else
                            [f"{pt.kind} rate {est.rate} at d={pt.d} breaks its bound"])
        return verdicts

    def final_check(self) -> list[str]:
        if self.first_rate is None:
            return ["no op was checked"]
        op_index, rate = self.first_rate
        again = self._call(op_index, 0)
        return [] if again.rate == rate else ["re-run of the first seed changed the rate"]

    def outcomes(self, outputs) -> dict[str, float]:
        return {}


# ---------------------------------------------------------------------------
# audit-battery : privsum audit --samples 20000


AUDIT_CHECKS = 27


class AuditWorkload:
    """One op is `privsum audit` through cli.main, with stdout captured.

    Every op of a run uses the same audit seed: the battery's cost does not
    depend on it, and each op's report must then match the first byte for
    byte.
    """

    unit = "batteries"
    calls_per_op = 1
    units_per_op = 1

    def __init__(self, seed: int, *, samples: int = 20_000):
        self.argv = ["audit", "--samples", str(samples),
                     "--seed", str(derived_seed(seed, TAG_AUDIT))]
        self.reference: str | None = None

    def run(self, op_index: int, tag: int = TAG_OP) -> list[tuple[int, str]]:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(self.argv)
        return [(code, buf.getvalue())]

    def check(self, op_index: int, outputs) -> list[list[str]]:
        ((code, text),) = outputs
        problems = [] if code == 0 else [f"exit code {code}"]
        lines = text.splitlines()
        rows = [line.split("\t") for line in lines[2:-1]]
        if lines[:2] != [f"# schema: {cli.AUDIT_SCHEMA}",
                         "check\tparams\tstatistic\tthreshold\tverdict"]:
            problems.append("report header is wrong")
        if len(rows) != AUDIT_CHECKS or any(len(r) != 5 for r in rows):
            problems.append(f"report has {len(rows)} rows, expected {AUDIT_CHECKS}")
        rejected = [r[0] for r in rows if r[-1] != audit.VERDICT_CONSISTENT]
        if rejected or lines[-1:] != [f"audit: {AUDIT_CHECKS}/{AUDIT_CHECKS} checks consistent"]:
            problems.append(f"checks not consistent: {rejected}")
        if self.reference is None:
            self.reference = text
        elif text != self.reference:
            problems.append("report differs from the first op's with the same seed")
        return [problems]

    def final_check(self) -> list[str]:
        return [] if self.reference is not None else ["no op was checked"]

    def outcomes(self, outputs) -> dict[str, float]:
        return {}


def make(name: str, seed: int):
    """Calibrate and generate the inputs of the named workload."""
    if name == "session-mixed":
        return SessionWorkload(SESSION_MIXED, seed, check_traffic=True)
    if name == "session-wide-quantized":
        return SessionWorkload(SESSION_WIDE_QUANTIZED, seed, check_traffic=False)
    if name == "mc-verify":
        return MonteCarloWorkload(seed)
    if name == "audit-battery":
        return AuditWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("session-mixed", "session-wide-quantized", "mc-verify", "audit-battery")
