"""Scenario configuration and deterministic multi-party execution.

A Scenario pins everything a run needs besides the calibrated parameters
and the master seed: population size, verifier count, dimension, the
behavior of every client, and the run options.
Scenarios are read from the dicts of a versioned JSON schema (see README
for the field list) and validate on construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .aggregation import (
    BEHAVIOR_HONEST,
    BEHAVIOR_INCONSISTENT,
    BEHAVIOR_PARTIAL_SEND,
    CLIENT_BEHAVIORS,
    AggregateResult,
    ClientSubmission,
    run_aggregation,
)
from .core import ProtocolParams, integral as _integral
from .errors import ScenarioError
from .rng import substream
from .sharing import share_vector, truncate_share
from .transcript import (
    KIND_ACCEPTED_SET,
    KIND_MATRIX,
    KIND_PARTIAL_SUM,
    KIND_REPLY,
    KIND_SHARE,
    MAX_ID_BYTES,
    Transcript,
    id_set_bytes,
    matrix_bytes,
    reply_batch_bytes,
    vector_bytes,
)
from .verification import W_MODES, W_MODE_SHARED

SCENARIO_SCHEMA_VERSION = 1
NONCE_BYTES = 8  # 16 hex chars per client id


# scenario and experiment fields: a ScenarioError where int() would truncate
integral = partial(_integral, error=ScenarioError)


@dataclass(frozen=True)
class ClientBehavior:
    """One client's scripted behavior.

    kind "honest" shares a random vector of the given norm; "norm-inflating"
    is the same with norm typically above the robustness budget;
    "partial-send" withholds the share from the verifiers in `skip`;
    "inconsistent-shares" sends fresh unrelated noise (scale * sigma_ss) to
    every verifier.
    """

    kind: str = BEHAVIOR_HONEST
    norm: float = 1.0
    skip: tuple[int, ...] = ()
    scale: float = 1.0
    client_id: str | None = None

    @classmethod
    def from_dict(cls, data: dict) -> "ClientBehavior":
        return cls(
            kind=data.get("behavior", BEHAVIOR_HONEST),
            norm=float(data.get("norm", 1.0)),
            skip=tuple(integral(i, "skip entry") for i in data.get("skip", ())),
            scale=float(data.get("scale", 1.0)),
            client_id=data.get("id"),
        )


@dataclass(frozen=True)
class Scenario:
    n: int
    S: int
    d: int
    clients: tuple[ClientBehavior, ...]
    w_mode: str = W_MODE_SHARED
    validity_threshold: float | None = None
    sigma_out: float | None = None

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.S < 2 or self.d < 1 or self.n < 0:
            raise ScenarioError(f"bad sizes: n={self.n}, S={self.S}, d={self.d}")
        if len(self.clients) != self.n:
            raise ScenarioError(
                f"scenario declares n={self.n} but lists {len(self.clients)} clients"
            )
        for c in self.clients:
            if c.kind not in CLIENT_BEHAVIORS:
                raise ScenarioError(f"unknown behavior {c.kind!r}")
            if any(i < 0 or i >= self.S for i in c.skip):
                raise ScenarioError(f"skip indices {c.skip} outside 0..{self.S - 1}")
            if c.client_id is not None and (
                    not isinstance(c.client_id, str)
                    or len(c.client_id.encode("utf-8")) > MAX_ID_BYTES):
                raise ScenarioError(
                    f"client ids must be strings of at most {MAX_ID_BYTES} UTF-8 bytes"
                )
        if self.w_mode not in W_MODES:
            raise ScenarioError(f"w_mode must be one of {W_MODES}")
        if self.validity_threshold is not None and not 0 < self.validity_threshold <= 1:
            raise ScenarioError("validity_threshold must lie in (0, 1]")
        if self.sigma_out is not None and self.sigma_out <= 0:
            raise ScenarioError("sigma_out must be > 0 when set")

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        version = data.get("schema_version", SCENARIO_SCHEMA_VERSION)
        if version != SCENARIO_SCHEMA_VERSION:
            raise ScenarioError(f"unsupported scenario schema version {version}")
        clients = []
        for entry in data.get("clients", []):
            count = integral(entry.get("count", 1), "count")
            clients.extend([ClientBehavior.from_dict(entry)] * count)
        return cls(
            n=integral(data["n"], "n"), S=integral(data["S"], "S"),
            d=integral(data["d"], "d"),
            clients=tuple(clients),
            w_mode=data.get("w_mode", W_MODE_SHARED),
            validity_threshold=data.get("validity_threshold"),
            sigma_out=data.get("sigma_out"),
        )


def honest_scenario(n: int, S: int, d: int, norm: float = 1.0, **kwargs) -> Scenario:
    clients = tuple(ClientBehavior(kind=BEHAVIOR_HONEST, norm=norm) for _ in range(n))
    return Scenario(n=n, S=S, d=d, clients=clients, **kwargs)


def with_adversary(scenario: Scenario, behavior: ClientBehavior) -> Scenario:
    """Append one scripted client to an existing scenario."""
    return replace(scenario, n=scenario.n + 1, clients=scenario.clients + (behavior,))


def nonce_hex(rng: np.random.Generator) -> str:
    """The next 8-byte nonce of a PCG64 stream in hex, equal to rng.bytes(8).hex().

    One raw 64-bit draw, little-endian, is what Generator.bytes(8) returns
    for PCG64 without its per-call integers() overhead.
    """
    return int(rng.bit_generator.random_raw()).to_bytes(NONCE_BYTES, "little").hex()


def scenario_client_ids(scenario: Scenario, master_seed: int) -> list[str]:
    """Stable client ids: explicit ones as given, the rest collision-checked nonces."""
    ids: list[str] = []
    seen = set(c.client_id for c in scenario.clients if c.client_id is not None)
    for index, client in enumerate(scenario.clients):
        if client.client_id is not None:
            cid = client.client_id
        else:
            rng = substream(master_seed, "nonce", index)
            cid = nonce_hex(rng)
            while cid in seen:
                cid = nonce_hex(rng)
            seen.add(cid)
        ids.append(cid)
    if len(set(ids)) != len(ids):
        raise ScenarioError("explicit client ids collide")
    return ids


def random_direction(d: int, rng: np.random.Generator) -> np.ndarray:
    u = rng.standard_normal(d)
    return u / np.linalg.norm(u)


def build_submission(behavior: ClientBehavior, client_id: str, scenario: Scenario,
                     params: ProtocolParams,
                     rng: np.random.Generator) -> ClientSubmission:
    """Realize one client's payloads from its behavior and private stream."""
    S, d = scenario.S, scenario.d
    if behavior.kind == BEHAVIOR_INCONSISTENT:
        payloads = {
            i: rng.normal(0.0, params.sigma_ss * behavior.scale, size=d)
            for i in range(S)
        }
    else:
        x = behavior.norm * random_direction(d, rng)
        payloads = dict(enumerate(share_vector(x, S, params.sigma_ss, rng)))
        if behavior.kind == BEHAVIOR_PARTIAL_SEND:
            for i in behavior.skip:
                payloads[i] = None
    if params.trunc_b is not None:
        payloads = {
            i: None if p is None else truncate_share(p, params.trunc_b, params.quant_step)
            for i, p in payloads.items()
        }
    return ClientSubmission(client_id=client_id, payloads=payloads)


def run_scenario(scenario: Scenario, params: ProtocolParams,
                 master_seed: int) -> tuple[AggregateResult, Transcript]:
    """Execute one full aggregation for the scenario, deterministic in master_seed."""
    if scenario.S != params.S or scenario.d != params.d:
        raise ScenarioError(
            f"scenario (S={scenario.S}, d={scenario.d}) does not match params "
            f"(S={params.S}, d={params.d})"
        )
    ids = scenario_client_ids(scenario, master_seed)
    submissions = (
        build_submission(behavior, cid, scenario, params,
                         substream(master_seed, "client", cid))
        for behavior, cid in zip(scenario.clients, ids)
    )
    return run_aggregation(submissions, params,
                           validity_threshold=scenario.validity_threshold,
                           seed=master_seed, w_mode=scenario.w_mode,
                           sigma_out=scenario.sigma_out)


# ---------------------------------------------------------------------------
# traffic accounting

@dataclass(frozen=True)
class TrafficBreakdown:
    client_to_server: int
    server_to_server: int
    by_kind: dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.client_to_server + self.server_to_server


def predicted_traffic(scenario: Scenario, params: ProtocolParams,
                      master_seed: int, *, aborted: bool = False,
                      accepted_ids=None) -> TrafficBreakdown:
    """Closed-form payload byte totals for a run of the scenario.

    Assumes every client in reach passes verification unless accepted_ids
    narrows the set. Only defined for unquantized payloads (trunc_b unset);
    varint sizes are value-dependent.
    """
    if params.trunc_b is not None:
        raise ScenarioError("closed-form traffic requires trunc_b unset")
    ids = scenario_client_ids(scenario, master_seed)
    S, d, k = scenario.S, scenario.d, params.k

    sends_per_client = []
    reached: list[list[str]] = [[] for _ in range(S)]
    for behavior, cid in zip(scenario.clients, ids):
        targets = [i for i in range(S)
                   if not (behavior.kind == BEHAVIOR_PARTIAL_SEND and i in behavior.skip)]
        sends_per_client.append(len(targets))
        for i in targets:
            reached[i].append(cid)

    in_everyones_reach = set(ids)
    for i in range(S):
        in_everyones_reach &= set(reached[i])
    if accepted_ids is None:
        accepted = sorted(in_everyones_reach)
    else:
        accepted = sorted(accepted_ids)

    share_bytes = vector_bytes(d) * sum(sends_per_client)
    mat_bytes = matrix_bytes(k, d) * (S - 1)
    reply_bytes = sum(reply_batch_bytes(reached[i], k) for i in range(1, S))
    set_bytes = id_set_bytes(accepted) * (S - 1)
    sum_bytes = 0 if aborted else vector_bytes(d) * (S - 1)

    by_kind = {
        KIND_SHARE: share_bytes,
        KIND_MATRIX: mat_bytes,
        KIND_REPLY: reply_bytes,
        KIND_ACCEPTED_SET: set_bytes,
        KIND_PARTIAL_SUM: sum_bytes,
    }
    return TrafficBreakdown(
        client_to_server=share_bytes,
        server_to_server=mat_bytes + reply_bytes + set_bytes + sum_bytes,
        by_kind=by_kind,
    )


def measured_traffic(transcript: Transcript) -> TrafficBreakdown:
    """Payload byte totals actually recorded in a transcript."""
    client_to_server = 0
    server_to_server = 0
    by_kind: dict[str, int] = {}
    for m in transcript.messages:
        by_kind[m.kind] = by_kind.get(m.kind, 0) + m.byte_size
        if m.sender.startswith("client:"):
            client_to_server += m.byte_size
        else:
            server_to_server += m.byte_size
    return TrafficBreakdown(client_to_server=client_to_server,
                            server_to_server=server_to_server, by_kind=by_kind)
