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
    client_chunks,
    run_aggregation,
)
from .core import (ProtocolParams, count, finite as _finite, fraction,
                   integral as _integral, positive)
from .errors import ScenarioError
from .rng import substream
from .sharing import check_shares, scale_to_norm, split_shares, truncate_share
# stays bound here, where perfbench/tracing.py counts its calls
from .sharing import share_vector  # noqa: F401
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

SCENARIO_SCHEMA_VERSION = 1
NONCE_BYTES = 8  # 16 hex chars per client id


# scenario and experiment fields: a ScenarioError where int() would truncate,
# or for a value that is not a finite number (JSON true and false included)
integral = partial(_integral, error=ScenarioError)
finite = partial(_finite, error=ScenarioError)


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
            norm=finite(data.get("norm", 1.0), "norm"),
            skip=tuple(integral(i, "skip entry") for i in data.get("skip", ())),
            scale=finite(data.get("scale", 1.0), "scale"),
            client_id=data.get("id"),
        )


@dataclass(frozen=True)
class Scenario:
    n: int
    S: int
    d: int
    clients: tuple[ClientBehavior, ...]
    validity_threshold: float | None = None
    sigma_out: float | None = None

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        count(self.n, "n", least=0, error=ScenarioError)
        count(self.S, "S", least=2, error=ScenarioError)
        count(self.d, "d", error=ScenarioError)
        if len(self.clients) != self.n:
            raise ScenarioError(
                f"scenario declares n={self.n} but lists {len(self.clients)} clients"
            )
        for c in self.clients:
            if c.kind not in CLIENT_BEHAVIORS:
                raise ScenarioError(f"unknown behavior {c.kind!r}")
            finite(c.norm, "client norm")
            if finite(c.scale, "client scale") < 0:
                raise ScenarioError(f"client scale must be >= 0, got {c.scale}")
            if any(i < 0 or i >= self.S for i in c.skip):
                raise ScenarioError(f"skip indices {c.skip} outside 0..{self.S - 1}")
            if c.client_id is not None and (
                    not isinstance(c.client_id, str)
                    or len(c.client_id.encode("utf-8")) > MAX_ID_BYTES):
                raise ScenarioError(
                    f"client ids must be strings of at most {MAX_ID_BYTES} UTF-8 bytes"
                )
        if self.validity_threshold is not None:
            fraction(self.validity_threshold, "validity_threshold", error=ScenarioError)
        if self.sigma_out is not None:
            positive(self.sigma_out, "sigma_out", error=ScenarioError)

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        version = data.get("schema_version", SCENARIO_SCHEMA_VERSION)
        if isinstance(version, bool) or version != SCENARIO_SCHEMA_VERSION:
            raise ScenarioError(f"unsupported scenario schema version {version}")
        clients = []
        for entry in data.get("clients", []):
            count = integral(entry.get("count", 1), "count")
            clients.extend([ClientBehavior.from_dict(entry)] * count)
        options = {key: finite(data[key], key) for key in ("validity_threshold", "sigma_out")
                   if data.get(key) is not None}
        return cls(
            n=integral(data["n"], "n"), S=integral(data["S"], "S"),
            d=integral(data["d"], "d"),
            clients=tuple(clients), **options,
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


def _shares_of(g: np.ndarray, norms, sigma_ss: float) -> np.ndarray:
    """Shares (m, S, d) of the inputs of the given norms, from each row of
    standard normals g (m, S, d): row 0 is the direction, rows 1.. the blinds."""
    shares = split_shares(scale_to_norm(g[:, 0], norms), g[:, 1:], sigma_ss)
    check_shares(shares)
    return shares


def build_submissions(behaviors, client_ids, scenario: Scenario, params: ProtocolParams,
                      rngs) -> list[ClientSubmission]:
    """Realize a block of clients' payloads, each from its own private stream.

    Every client draws and gets exactly what it would alone: its stream
    fills its (S, d) row of the block in one call, which equals its
    direction draw followed by its S-1 blinds (or, for an inconsistent
    client, its S unrelated shares), and the rest is row-wise arithmetic.
    """
    S, d = scenario.S, scenario.d
    block = np.empty((len(behaviors), S, d))
    sharing, norms = [], []
    for row, (behavior, rng) in enumerate(zip(behaviors, rngs)):
        if behavior.kind == BEHAVIOR_INCONSISTENT:
            block[row] = rng.normal(0.0, params.sigma_ss * behavior.scale, size=(S, d))
        else:
            rng.standard_normal(out=block[row])
            sharing.append(row)
            norms.append(behavior.norm)
    # rebinding rather than copying frees the raw normals before truncation
    if len(sharing) == len(behaviors):
        block = _shares_of(block, norms, params.sigma_ss)
    else:
        block[sharing] = _shares_of(block[sharing], norms, params.sigma_ss)
    if params.trunc_b is not None:
        block = truncate_share(block, params.trunc_b, params.quant_step)
    submissions = []
    for behavior, client_id, z in zip(behaviors, client_ids, block):
        payloads = dict(enumerate(z))
        if behavior.kind == BEHAVIOR_PARTIAL_SEND:
            for i in behavior.skip:
                payloads[i] = None
        submissions.append(ClientSubmission(client_id=client_id, payloads=payloads))
    return submissions


def build_submission(behavior: ClientBehavior, client_id: str, scenario: Scenario,
                     params: ProtocolParams,
                     rng: np.random.Generator) -> ClientSubmission:
    """Realize one client's payloads from its behavior and private stream."""
    return build_submissions([behavior], [client_id], scenario, params, [rng])[0]


def run_scenario(scenario: Scenario, params: ProtocolParams,
                 master_seed: int) -> tuple[AggregateResult, Transcript]:
    """Execute one full aggregation for the scenario, deterministic in master_seed.

    Clients are realized a chunk at a time, as the session consumes them.
    """
    if scenario.S != params.S or scenario.d != params.d:
        raise ScenarioError(
            f"scenario (S={scenario.S}, d={scenario.d}) does not match params "
            f"(S={params.S}, d={params.d})"
        )
    ids = scenario_client_ids(scenario, master_seed)

    def submissions():
        for chunk in client_chunks(zip(scenario.clients, ids), scenario.S, scenario.d):
            behaviors, chunk_ids = zip(*chunk)
            rngs = [substream(master_seed, "client", cid) for cid in chunk_ids]
            yield from build_submissions(behaviors, chunk_ids, scenario, params, rngs)

    return run_aggregation(submissions(), params,
                           validity_threshold=scenario.validity_threshold,
                           seed=master_seed, sigma_out=scenario.sigma_out)


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
                      master_seed: int, *, accepted_ids=None) -> TrafficBreakdown:
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
    sum_bytes = vector_bytes(d) * (S - 1)

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
