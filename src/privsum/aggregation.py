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

from .core import ProtocolParams, fraction, positive
from .errors import AbortedInput, DimensionMismatch, DuplicateClientId
from .rng import integer, substream
from .sharing import check_shares, truncate_share
from .transcript import (
    KIND_ACCEPTED_SET,
    KIND_MATRIX,
    KIND_PARTIAL_SUM,
    KIND_REPLY,
    KIND_SHARE,
    Message,
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


class ClientSubmission(NamedTuple):
    """Per-verifier share payloads from one client; None means withheld."""

    client_id: str
    payloads: dict[int, np.ndarray | None]


@dataclass(frozen=True, eq=False)
class AggregateResult:
    """Output of one aggregation run at verifier 0; it aborted iff sum is None."""

    sum: np.ndarray | None
    per_client_outcomes: dict[str, VerificationOutcome]

    @property
    def accepted(self) -> frozenset[str]:  # J*
        return frozenset(cid for cid, o in self.per_client_outcomes.items() if o.accept)

    @property
    def aborted(self) -> bool:
        return self.sum is None


def validity_check(J_star, n: int, threshold_fraction: float) -> bool:
    """True iff the accepted set is at least threshold_fraction of n clients."""
    return len(J_star) >= fraction(threshold_fraction, "threshold_fraction") * n


def robustness_delta(result_with: AggregateResult,
                     result_without: AggregateResult) -> float:
    """Euclidean distance between two non-aborted aggregate sums."""
    for name, res in (("result_with", result_with), ("result_without", result_without)):
        if res.aborted:
            raise AbortedInput(f"{name} is aborted and carries no sum")
    if result_with.sum.shape != result_without.sum.shape:
        raise DimensionMismatch(f"sums have shapes {result_with.sum.shape} "
                                f"vs {result_without.sum.shape}")
    return float(np.linalg.norm(result_with.sum - result_without.sum))


def _rows(M: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The rows of M where mask holds, without a copy when that is every row."""
    return M if mask.all() else M[mask]


def _masked_sum(M: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The sum of the rows of M where mask holds, added in row order onto
    +0.0, bit for bit as a loop of s += M[r] would; no row is copied."""
    if M.shape[1] == 1:  # numpy adds a lone column pairwise; cumsum keeps the order
        return np.cumsum(np.r_[0.0, M[mask, 0]])[-1:]
    return np.add.reduce(M, axis=0, where=mask[:, None], initial=0.0)


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
    return list(itertools.compress(rows, finite.tolist())), _rows(block, finite)


class _Decided(NamedTuple):
    """What rounds 0-3 leave each verifier holding.

    n counts the submissions and R[i] holds verifier i's decoded shares,
    rows in id order, of which accepted[i] marks J*'s. outcomes covers J,
    the clients that reached every verifier, in id order.
    """

    n: int
    R: list[np.ndarray]
    accepted: list[np.ndarray]
    outcomes: dict[str, VerificationOutcome]


def _verify(submissions, params: ProtocolParams, seed: int,
            messages: list[Message]) -> _Decided:
    """Rounds 0-3, appended to messages: share delivery, the matrix broadcast,
    every verifier's reply batch, and verifier 0's accepted-set broadcast.

    Round 0 fills one client table, each id to each verifier's payload or None;
    after it the state is the clients that reached a verifier, in id order, and
    their (clients, S) mask delivered: column i is verifier i's, J its all-True rows.
    """
    S, d = params.S, params.d
    verifiers = [verifier_party(i) for i in range(S)]

    # round 0: share delivery, a chunk of clients at a time; each verifier's
    # shares in a chunk are encoded as one block and sent client by client
    if params.trunc_b is not None:
        encode = partial(encode_quantized_block, step=params.quant_step)
        decode = partial(decode_quantized_block, step=params.quant_step)
    else:
        encode, decode = encode_vector_block, decode_vector_block
    table: dict[str, list[bytes | None]] = {}
    for chunk in client_chunks(submissions, S, d):
        entries = [[None] * S for _ in chunk]
        for i in range(S):
            rows, block = _deliverable([sub.payloads.get(i) for sub in chunk], d)
            for row, payload in zip(rows, encode(block)):
                entries[row][i] = payload
        for sub, entry in zip(chunk, entries):
            if table.setdefault(sub.client_id, entry) is not entry:
                raise DuplicateClientId(f"duplicate client id {sub.client_id!r}")
            sender = client_party(sub.client_id)
            for i, payload in enumerate(entry):
                if payload is not None:
                    messages.append(Message(sender, verifiers[i], 0, KIND_SHARE, payload))

    # the clients that reached a verifier (a payload is never empty), and whom;
    # each verifier decodes what it received into one matrix, rows in id order
    clients = sorted(cid for cid, entry in table.items() if any(entry))
    delivered = np.array([[p is not None for p in table[cid]] for cid in clients],
                         dtype=bool).reshape(len(clients), S)
    ids = [list(itertools.compress(clients, delivered[:, i].tolist())) for i in range(S)]
    R = [np.empty((len(ids[i]), d)) for i in range(S)]
    for i in range(S):
        start = 0
        for part in client_chunks(ids[i], S, d):
            R[i][start:start + len(part)] = decode([table[cid][i] for cid in part], d)
            start += len(part)

    # round 1: matrix broadcast
    W = session_matrix(params, seed)
    w_payload = encode_matrix(W)
    for i in range(1, S):
        messages.append(Message(verifiers[0], verifiers[i], 1, KIND_MATRIX, w_payload))

    # each client that reached a verifier draws one (S, k) block from its own
    # stream: row i is verifier i's reply noise, row 0 verifier 0's decision noise
    N = noise_rows((substream(seed, "verification-noise", cid) for cid in clients),
                   params.sigma_v, (len(clients), S, params.k))

    # round 2: every verifier's replies, its noise rows a view of N if it heard from all
    Y = [None] + [project_replies(R[i], W, _rows(N[:, i], delivered[:, i])) for i in range(1, S)]

    # verifier 0 decides for J on each verifier's rows of J; its noise rows are
    # copied out so that N is freed before the reply batches are encoded
    J = delivered.all(axis=1)
    noise = N[J, 0]
    del N
    for i in range(1, S):
        messages.append(Message(verifiers[i], verifiers[0], 2, KIND_REPLY,
                                encode_reply_batch(ids[i], Y[i])))
    v_norms = decide_norms(_rows(R[0], J[delivered[:, 0]]),
                           [_rows(Y[i], J[delivered[:, i]]) for i in range(1, S)], W, noise)
    accepted = J.copy()  # J*
    accepted[J] = v_norms < params.tau
    outcomes = dict(zip(itertools.compress(clients, J.tolist()),
                        map(VerificationOutcome, accepted[J].tolist(), v_norms.tolist())))

    # round 3: accepted-set broadcast
    set_payload = encode_id_set(itertools.compress(clients, accepted.tolist()))
    for i in range(1, S):
        messages.append(Message(verifiers[0], verifiers[i], 3, KIND_ACCEPTED_SET, set_payload))
    return _Decided(len(table), R, [accepted[delivered[:, i]] for i in range(S)], outcomes)


def run_aggregation(submissions, params: ProtocolParams,
                    validity_threshold: float | None = None, seed: int = 0,
                    sigma_out: float | None = None,
                    ) -> tuple[AggregateResult, Transcript]:
    """Execute the server protocol over all submissions.

    J is the set of clients that reached every verifier; each j in J gets
    one fresh-noise verification decision against the session projection,
    recorded in per_client_outcomes[j] as VerificationOutcome(accept, v_norm)
    against params.tau. If J* holds less than validity_threshold of the
    submissions (see validity_check), everyone aborts and no sums are
    exchanged: the result is aborted iff its sum is None. sigma_out,
    when set, adds N(0, sigma_out^2 I_d) to every verifier's partial sum
    before release (post-noise for the sum itself; its privacy accounting
    is up to the caller).

    Each client's verification noise, for its replies and its decision, is
    one (S, k) block from a substream keyed by the client id alone, so
    adding or removing one client, or withholding one of its shares, never
    perturbs the randomness applied to the others.

    submissions may be any iterable and is consumed once, in order, a
    bounded chunk of clients at a time; verifiers keep only the payloads
    they received, so a lazy iterable lets each chunk's own arrays go
    once that chunk is delivered.

    A share that is not a finite length-d vector, or that is addressed
    to no verifier in 0..S-1, is not delivered: its client misses that
    verifier and is left out of J, as a client that withheld the share
    would be. A repeated client id raises DuplicateClientId.
    """
    if validity_threshold is not None:
        fraction(validity_threshold, "validity_threshold")
    if sigma_out is not None:
        positive(sigma_out, "sigma_out")
    seed = integer(seed, "seed")

    S, d = params.S, params.d
    messages: list[Message] = []
    n, R, accepted, outcomes = _verify(submissions, params, seed, messages)

    # round 4, unless everyone aborts: partial sums of accepted rows in id order
    total = None
    if validity_threshold is None or validity_check(
            [cid for cid, o in outcomes.items() if o.accept], n, validity_threshold):
        total = np.zeros(d)
        for i in range(S):
            s_i = _masked_sum(R[i], accepted[i])
            if sigma_out is not None:
                s_i += substream(seed, "verifier", i, "sum-noise").normal(0.0, sigma_out, size=d)
            total = total + s_i
            if i >= 1:
                messages.append(Message(verifier_party(i), verifier_party(0), 4,
                                        KIND_PARTIAL_SUM, encode_vector(s_i)))
    return (AggregateResult(sum=total, per_client_outcomes=outcomes),
            Transcript(messages=tuple(messages), master_seed=seed))


def run_norm_verification(shares, params: ProtocolParams, session_seed: int,
                          *, client_id: str = "",
                          ) -> tuple[VerificationOutcome, Transcript]:
    """Rounds 0-3 of a one-client session, message for message.

    shares is the client's (S, d) share array, row i for verifier i; when
    params.trunc_b is set it is truncated/quantized before transmission.
    """
    session_seed = integer(session_seed, "session_seed")
    shares = np.asarray(shares, dtype=np.float64)
    check_shares(shares)
    if shares.shape != (params.S, params.d):
        raise DimensionMismatch(f"shares have shape {shares.shape}, "
                                f"params need ({params.S}, {params.d})")
    if params.trunc_b is not None:
        shares = truncate_share(shares, params.trunc_b, params.quant_step)
    messages: list[Message] = []
    outcome = _verify([ClientSubmission(client_id, dict(enumerate(shares)))], params,
                      session_seed, messages).outcomes[client_id]
    return outcome, Transcript(messages=tuple(messages), master_seed=session_seed)
