"""Robust secure aggregation: batch norm verification plus share summation.

Clients secret-share their vectors across the verifiers; verifiers run
one norm-verification decision per client that reached all of them,
broadcast the accepted set J*, optionally check it is large enough, and
sum the accepted shares so verifier 0 can release the total. A
single-client norm check is rounds 0-3 of a one-client session: it stops
after the accepted-set broadcast.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .core import ProtocolParams, positive
from .errors import (
    AbortedInput,
    DimensionMismatch,
    DuplicateClientId,
    ParameterError,
)
from .rng import substream
from .sharing import check_shares, truncate_share
from .transcript import (
    KIND_ACCEPTED_SET,
    KIND_MATRIX,
    KIND_PARTIAL_SUM,
    KIND_REPLY,
    KIND_SHARE,
    MessageBus,
    Transcript,
    client_party,
    decode_quantized_block,
    decode_vector_block,
    encode_id_set,
    encode_matrix,
    encode_quantized_block,
    encode_reply_batch,
    encode_vector,
    encode_vector_block,
    verifier_party,
)
from .verification import (
    VerificationOutcome,
    decide_norms,
    noise_rows,
    project_replies,
    session_matrix,
)
# the per-client and one-payload forms stay bound here, where
# perfbench/tracing.py counts their calls; sessions run the block forms
from .core import as_vector  # noqa: F401
from .transcript import encode_quantized  # noqa: F401
from .verification import project_reply, verifier0_decide  # noqa: F401

BEHAVIOR_HONEST = "honest"
BEHAVIOR_NORM_INFLATING = "norm-inflating"
BEHAVIOR_INCONSISTENT = "inconsistent-shares"
BEHAVIOR_PARTIAL_SEND = "partial-send"
CLIENT_BEHAVIORS = (
    BEHAVIOR_HONEST, BEHAVIOR_NORM_INFLATING,
    BEHAVIOR_INCONSISTENT, BEHAVIOR_PARTIAL_SEND,
)

# bytes of share values that round 0 holds for one chunk of clients; the
# codec's uint64 and intp temporaries for a chunk come to a few times this,
# so round 0's working memory stays about a megabyte whatever n is
_CHUNK_BYTES = 1 << 18


def client_chunks(items, S: int, d: int):
    """Consecutive lists of per-client items, as many clients per list as
    have their S float64 shares of length d within _CHUNK_BYTES, and at
    least one."""
    size = max(1, _CHUNK_BYTES // (8 * S * d))
    items = iter(items)
    while chunk := list(itertools.islice(items, size)):
        yield chunk


@dataclass(frozen=True, eq=False)
class ClientSubmission:
    """Per-verifier share payloads from one client; None means withheld."""

    client_id: str
    payloads: dict[int, np.ndarray | None]


@dataclass(frozen=True, eq=False)
class AggregateResult:
    """Output of one aggregation run at verifier 0."""

    sum: np.ndarray | None
    accepted: frozenset[str]
    aborted: bool
    per_client_outcomes: dict[str, VerificationOutcome]


def validity_check(J_star, n: int, threshold_fraction: float) -> bool:
    """True iff the accepted set is at least threshold_fraction of n clients."""
    if not 0 < threshold_fraction <= 1:
        raise ParameterError(
            f"threshold_fraction must lie in (0, 1], got {threshold_fraction}"
        )
    return len(J_star) >= threshold_fraction * n


def robustness_delta(result_with: AggregateResult,
                     result_without: AggregateResult) -> float:
    """Euclidean distance between two non-aborted aggregate sums."""
    for name, res in (("result_with", result_with), ("result_without", result_without)):
        if res.aborted or res.sum is None:
            raise AbortedInput(f"{name} is aborted and carries no sum")
    if result_with.sum.shape != result_without.sum.shape:
        raise DimensionMismatch(
            f"sums have shapes {result_with.sum.shape} vs {result_without.sum.shape}"
        )
    return float(np.linalg.norm(result_with.sum - result_without.sum))


def _rows(M: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Rows `index` (ascending) of M, without a copy when that is every row."""
    return M if index.size == M.shape[0] else M[index]


def _deliverable(shares: list, d: int) -> tuple[list[int], np.ndarray]:
    """The positions and stacked rows of the shares that are finite length-d
    vectors; withheld (None) and malformed shares are left out."""
    rows, vectors = [], []
    for row, share in enumerate(shares):
        if share is None:
            continue
        share = np.asarray(share, dtype=np.float64)
        if share.shape == (d,):
            rows.append(row)
            vectors.append(share)
    block = np.array(vectors).reshape(len(vectors), d)
    finite = np.isfinite(block).all(axis=1)
    if not finite.all():
        rows = [row for row, ok in zip(rows, finite) if ok]
        block = block[finite]
    return rows, block


class _Decided(NamedTuple):
    """What rounds 0-3 leave each verifier holding.

    n counts the submissions and R[i] holds verifier i's decoded shares,
    rows in id order. outcomes covers J, the clients that reached every
    verifier, in id order; J_rows[i] are their rows in R[i] and accept
    their verdicts.
    """

    n: int
    R: list[np.ndarray]
    J_rows: list[np.ndarray]
    accept: np.ndarray
    outcomes: dict[str, VerificationOutcome]


def _verify(submissions, params: ProtocolParams, seed: int,
            bus: MessageBus) -> _Decided:
    """Rounds 0-3 on bus: share delivery, the matrix broadcast, every
    verifier's reply batch, and verifier 0's accepted-set broadcast."""
    S, d = params.S, params.d

    # round 0: share delivery, a chunk of clients at a time; each verifier's
    # shares in a chunk are encoded as one block and sent client by client
    if params.trunc_b is not None:
        encode = partial(encode_quantized_block, step=params.quant_step)
        decode = partial(decode_quantized_block, step=params.quant_step)
    else:
        encode, decode = encode_vector_block, decode_vector_block
    received: list[dict[str, bytes]] = [dict() for _ in range(S)]
    seen: set[str] = set()
    for chunk in client_chunks(submissions, S, d):
        for sub in chunk:
            if sub.client_id in seen:
                raise DuplicateClientId(f"duplicate client id {sub.client_id!r}")
            seen.add(sub.client_id)
        sent = []
        for i in range(S):
            rows, block = _deliverable([sub.payloads.get(i) for sub in chunk], d)
            sent.append(dict(zip(rows, encode(block))))
        for row, sub in enumerate(chunk):
            for i in range(S):
                payload = sent[i].get(row)
                if payload is not None:
                    bus.send(client_party(sub.client_id), verifier_party(i), 0,
                             KIND_SHARE, payload)
                    received[i][sub.client_id] = payload

    # each verifier decodes what it received into one matrix, rows in id order
    ids = [sorted(received[i]) for i in range(S)]
    R = [np.empty((len(ids[i]), d)) for i in range(S)]
    for i in range(S):
        start = 0
        for part in client_chunks(ids[i], S, d):
            R[i][start:start + len(part)] = decode([received[i][cid] for cid in part], d)
            start += len(part)

    # round 1: matrix broadcast
    W = session_matrix(params, seed)
    w_payload = encode_matrix(W)
    for i in range(1, S):
        bus.send(verifier_party(0), verifier_party(i), 1, KIND_MATRIX, w_payload)

    # round 2: each verifier's reply batch for every client it heard from
    Y = [None] * S
    for i in range(1, S):
        rngs = (substream(seed, "verifier", i, "reply", cid) for cid in ids[i])
        Y[i] = project_replies(R[i], W,
                               noise_rows(rngs, params.sigma_v, (len(ids[i]), params.k)))
        bus.send(verifier_party(i), verifier_party(0), 2, KIND_REPLY,
                 encode_reply_batch(list(zip(ids[i], Y[i]))))

    # verifier 0 decides for clients that reached everyone
    position = [dict(zip(ids[i], range(len(ids[i])))) for i in range(S)]
    J = sorted(set(ids[0]).intersection(*ids[1:]))
    J_rows = [np.array([position[i][cid] for cid in J], dtype=np.intp) for i in range(S)]
    rngs = (substream(seed, "verifier", 0, "decide", cid) for cid in J)
    v_norms = decide_norms(_rows(R[0], J_rows[0]),
                           [_rows(Y[i], J_rows[i]) for i in range(1, S)],
                           W, noise_rows(rngs, params.sigma_v, (len(J), params.k)))
    accept = v_norms < params.tau
    outcomes = {
        cid: VerificationOutcome(client_id=cid, accept=a, v_norm=v, tau=params.tau)
        for cid, a, v in zip(J, accept.tolist(), v_norms.tolist())
    }

    # round 3: accepted-set broadcast
    set_payload = encode_id_set([cid for cid, o in outcomes.items() if o.accept])
    for i in range(1, S):
        bus.send(verifier_party(0), verifier_party(i), 3, KIND_ACCEPTED_SET,
                 set_payload)
    return _Decided(n=len(seen), R=R, J_rows=J_rows, accept=accept, outcomes=outcomes)


def run_aggregation(submissions, params: ProtocolParams,
                    validity_threshold: float | None = None, seed: int = 0,
                    sigma_out: float | None = None,
                    ) -> tuple[AggregateResult, Transcript]:
    """Execute the server protocol over all submissions.

    J is the set of clients that reached every verifier; each j in J gets
    one fresh-noise verification decision against the session projection.
    If J* holds less than validity_threshold of the submissions (see
    validity_check), everyone aborts and no sums are exchanged. sigma_out,
    when set, adds N(0, sigma_out^2 I_d) to every verifier's partial sum
    before release (post-noise for the sum itself; its privacy accounting
    is up to the caller).

    Every verifier's noise is drawn from a substream keyed by its index
    and the client id, so adding or removing one client never perturbs
    the randomness applied to the others.

    submissions may be any iterable and is consumed once, in order, a
    bounded chunk of clients at a time; verifiers keep only the payloads
    they received, so a lazy iterable lets each chunk's own arrays go
    once that chunk is delivered.

    A share that is not a finite length-d vector, or that is addressed
    to no verifier in 0..S-1, is not delivered: its client misses that
    verifier and is left out of J, as a client that withheld the share
    would be. A repeated client id raises DuplicateClientId.
    """
    if sigma_out is not None:
        positive(sigma_out, "sigma_out")

    S, d = params.S, params.d
    bus = MessageBus()
    n, R, J_rows, accept, outcomes = _verify(submissions, params, seed, bus)
    accepted = frozenset(cid for cid, o in outcomes.items() if o.accept)
    if validity_threshold is not None and not validity_check(accepted, n,
                                                             validity_threshold):
        return (AggregateResult(sum=None, accepted=accepted, aborted=True,
                                per_client_outcomes=outcomes),
                Transcript(messages=bus.messages, master_seed=seed))

    # round 4: partial sums of the accepted rows, added in sorted-id order
    total = np.zeros(d)
    for i in range(S):
        s_i = np.zeros(d)
        for r in J_rows[i][accept]:
            s_i += R[i][r]
        if sigma_out is not None:
            rng_out = substream(seed, "verifier", i, "sum-noise")
            s_i = s_i + rng_out.normal(0.0, sigma_out, size=d)
        total = total + s_i
        if i >= 1:
            bus.send(verifier_party(i), verifier_party(0), 4, KIND_PARTIAL_SUM,
                     encode_vector(s_i))
    return (AggregateResult(sum=total, accepted=accepted, aborted=False,
                            per_client_outcomes=outcomes),
            Transcript(messages=bus.messages, master_seed=seed))


def run_norm_verification(shares, params: ProtocolParams, session_seed: int,
                          *, client_id: str = "",
                          ) -> tuple[VerificationOutcome, Transcript]:
    """Rounds 0-3 of a one-client session, message for message.

    shares is the client's (S, d) share array, row i for verifier i; when
    params.trunc_b is set it is truncated/quantized before transmission.
    """
    shares = np.asarray(shares, dtype=np.float64)
    check_shares(shares)
    if shares.shape != (params.S, params.d):
        raise DimensionMismatch(
            f"shares have shape {shares.shape}, params need ({params.S}, {params.d})"
        )
    if params.trunc_b is not None:
        shares = truncate_share(shares, params.trunc_b, params.quant_step)
    sub = ClientSubmission(client_id=client_id, payloads=dict(enumerate(shares)))
    bus = MessageBus()
    outcome = _verify([sub], params, session_seed, bus).outcomes[client_id]
    return outcome, Transcript(messages=bus.messages, master_seed=session_seed)
