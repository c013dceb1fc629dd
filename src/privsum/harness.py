"""Scenario configuration and deterministic multi-party execution.

A Scenario pins everything a run needs besides the calibrated parameters
and the master seed: population size, verifier count, dimension, the
behavior of every client, and the run options.
Scenarios are read from the dicts of a versioned JSON schema (see README
for the field list) and validate on construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
from .core import ProtocolParams, count, finite, fraction, positive
from .errors import ScenarioError
from .rng import path_digest, substream
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


# scenario file key -> ClientBehavior field
CLIENT_KEYS = {"behavior": "kind", "norm": "norm", "skip": "skip", "scale": "scale",
               "id": "client_id"}
# the scenario file's keys: the last three, which no run reads, load from
# files written before they were dropped and are ignored
SCENARIO_KEYS = ("schema_version", "n", "S", "d", "clients", "validity_threshold",
                 "sigma_out", "coalition", "trials", "w_mode")


def check_keys(data: dict, keys, where: str) -> None:
    """ScenarioError unless data is a dict with no key outside keys."""
    if not isinstance(data, dict):
        raise ScenarioError(f"a {where} must be a JSON object, got {data!r}")
    for key in data:
        if key not in keys:
            raise ScenarioError(f"unknown {where} key {key!r}")


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

    def __post_init__(self):
        if self.kind not in CLIENT_BEHAVIORS:
            raise ScenarioError(f"kind must be one of {CLIENT_BEHAVIORS}, got {self.kind!r}")
        # JSON true and false are not numbers, and skip entries are not truncated
        for name in ("norm", "scale"):
            value = finite(getattr(self, name), name, ScenarioError)
            if value < 0:
                raise ScenarioError(f"{name} must be >= 0, got {value}")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "skip", tuple(count(i, "skip", 0, ScenarioError)
                                               for i in self.skip))
        cid = self.client_id
        if cid is not None and (not isinstance(cid, str)
                                or len(cid.encode("utf-8")) > MAX_ID_BYTES):
            raise ScenarioError(
                f"client_id must be a string of at most {MAX_ID_BYTES} UTF-8 bytes")

    @classmethod
    def from_dict(cls, data: dict) -> "ClientBehavior":
        """The client of a scenario file's entry; its count is the caller's."""
        check_keys(data, (*CLIENT_KEYS, "count"), "client")
        return cls(**{CLIENT_KEYS[key]: value for key, value in data.items()
                      if key != "count"})


@dataclass(frozen=True)
class Scenario:
    n: int
    S: int
    d: int
    clients: tuple[ClientBehavior, ...]
    validity_threshold: float | None = None
    sigma_out: float | None = None

    def validate(self) -> None:
        # sizes run as ints (8.0 as 8); each client has checked its own fields
        for name, least in (("n", 0), ("S", 2), ("d", 1)):
            object.__setattr__(self, name,
                               count(getattr(self, name), name, least, ScenarioError))
        if len(self.clients) != self.n:
            raise ScenarioError(
                f"scenario declares n={self.n} but lists {len(self.clients)} clients"
            )
        for c in self.clients:
            if c.skip and max(c.skip) >= self.S:
                raise ScenarioError(f"skip indices {c.skip} outside 0..{self.S - 1}")
        for name, check in (("validity_threshold", fraction), ("sigma_out", positive)):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, check(getattr(self, name), name, ScenarioError))

    __post_init__ = validate

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        check_keys(data, SCENARIO_KEYS, "scenario")
        version = data.get("schema_version", SCENARIO_SCHEMA_VERSION)
        if isinstance(version, bool) or version != SCENARIO_SCHEMA_VERSION:
            raise ScenarioError(f"unsupported scenario schema version {version}")
        clients = []
        for entry in data.get("clients", []):
            clients += ([ClientBehavior.from_dict(entry)]
                        * count(entry.get("count", 1), "count", 0, ScenarioError))
        return cls(n=data["n"], S=data["S"], d=data["d"], clients=tuple(clients),
                   validity_threshold=data.get("validity_threshold"),
                   sigma_out=data.get("sigma_out"))


def honest_scenario(n: int, S: int, d: int, norm: float = 1.0, **kwargs) -> Scenario:
    return Scenario(n=n, S=S, d=d, clients=(ClientBehavior(norm=norm),) * n, **kwargs)


def with_adversary(scenario: Scenario, behavior: ClientBehavior) -> Scenario:
    """Append one scripted client to an existing scenario."""
    return replace(scenario, n=scenario.n + 1, clients=scenario.clients + (behavior,))


def scenario_client_ids(scenario: Scenario, master_seed: int) -> list[str]:
    """Stable client ids: explicit ones as given; the one at index i otherwise
    the hex of path_digest(master_seed, "nonce", i, attempt)[:8] at the first
    attempt 0, 1, ... whose id no other client holds yet."""
    ids: list[str] = []
    seen = set(c.client_id for c in scenario.clients if c.client_id is not None)
    for index, client in enumerate(scenario.clients):
        if client.client_id is not None:
            cid = client.client_id
        else:
            attempt = 0
            while (cid := path_digest(master_seed, "nonce", index,
                                      attempt)[:NONCE_BYTES].hex()) in seen:
                attempt += 1
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
        submissions.append(ClientSubmission(client_id, payloads))
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
    """Payload bytes by message kind; clients send only shares."""

    by_kind: dict[str, int]

    @property
    def client_to_server(self) -> int:
        return self.by_kind.get(KIND_SHARE, 0)

    @property
    def server_to_server(self) -> int:
        return self.total - self.client_to_server

    @property
    def total(self) -> int:
        return sum(self.by_kind.values())


def predicted_traffic(scenario: Scenario, params: ProtocolParams,
                      master_seed: int, *, accepted_ids=None) -> TrafficBreakdown:
    """Closed-form payload byte totals for a run of the scenario.

    Assumes every client in reach passes verification unless accepted_ids
    narrows the set, and that the session ends: an aborted session's
    prediction still counts the round-4 partial sums it never sent. Like
    measured_traffic, it lists only the kinds that carry bytes. Only
    defined for unquantized payloads (trunc_b unset); varint sizes are
    value-dependent.
    """
    if params.trunc_b is not None:
        raise ScenarioError("closed-form traffic requires trunc_b unset")
    ids = scenario_client_ids(scenario, master_seed)
    S, d, k = scenario.S, scenario.d, params.k

    reached: list[list[str]] = [[] for _ in range(S)]
    for behavior, cid in zip(scenario.clients, ids):
        for i in range(S):
            if not (behavior.kind == BEHAVIOR_PARTIAL_SEND and i in behavior.skip):
                reached[i].append(cid)

    if accepted_ids is None:
        accepted_ids = set(ids).intersection(*reached)
    by_kind = {KIND_SHARE: vector_bytes(d) * sum(map(len, reached)),
               KIND_MATRIX: matrix_bytes(k, d) * (S - 1),
               KIND_REPLY: sum(reply_batch_bytes(reached[i], k) for i in range(1, S)),
               KIND_ACCEPTED_SET: id_set_bytes(accepted_ids) * (S - 1),
               KIND_PARTIAL_SUM: vector_bytes(d) * (S - 1)}
    return TrafficBreakdown({kind: size for kind, size in by_kind.items() if size})


def measured_traffic(transcript: Transcript) -> TrafficBreakdown:
    """Payload byte totals actually recorded in a transcript."""
    by_kind: dict[str, int] = {}
    for m in transcript.messages:
        by_kind[m.kind] = by_kind.get(m.kind, 0) + len(m.payload)
    return TrafficBreakdown(by_kind)
