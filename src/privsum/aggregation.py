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
import operator
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .core import ProtocolParams, fraction, positive
from .errors import AbortedInput, DimensionMismatch, DuplicateClientId, ParameterError
from .rng import integer, substream, substreams
from .sharing import check_shares, truncate_share
from .transcript import (
    KIND_ACCEPTED_SET,
    KIND_MATRIX,
    KIND_PARTIAL_SUM,
    KIND_REPLY,
    KIND_SHARE,
    SessionParties,
    Transcript,
    TranscriptWriter,
    decode_quantized_block,
    encode_id_set,
    encode_vector,
    matrix_slot,
    quantized_payloads,
    reply_batch,
    write_vector_rows,
)
from .verification import (
    VerificationOutcome,
    decide_norms,
    noise_rows,
    project_replies,
    session_matrix,
)
# the per-client, one-payload and bytes forms stay bound here, where
# perfbench/tracing.py counts their calls; sessions run the block forms and
# write their payloads into the transcript's store
from .core import as_vector  # noqa: F401
from .transcript import encode_matrix, encode_quantized, encode_reply_batch  # noqa: F401
from .verification import project_reply, verifier0_decide  # noqa: F401

BEHAVIOR_HONEST = "honest"
BEHAVIOR_NORM_INFLATING = "norm-inflating"
BEHAVIOR_INCONSISTENT = "inconsistent-shares"
BEHAVIOR_PARTIAL_SEND = "partial-send"
CLIENT_BEHAVIORS = (
    BEHAVIOR_HONEST, BEHAVIOR_NORM_INFLATING,
    BEHAVIOR_INCONSISTENT, BEHAVIOR_PARTIAL_SEND,
)

# bytes of float64 share values in one chunk: round 0's chunk of clients with
# their S shares each, or a chunk of one verifier's decoded rows; the quantized
# encoder's int64 and uint64 temporaries come to a few times a chunk, and the
# decoder's to a few bytes per value beside its float64 rows (uint8 and int8
# arrays, and index arrays over the continuation bytes only), so a chunk's
# working memory stays about a megabyte whatever n is
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


class ClientBlocks(NamedTuple):
    """Clients as round 0 takes them: n of them (a size hint), a chunk at a time;
    per chunk their ids, their real float (m, S, d) shares, row i of a client's for
    verifier i, and the bool (m, S) mask of the shares each sent (else ParameterError
    or DimensionMismatch); a sent share of non-finite values is not delivered."""

    n: int
    chunks: Iterable[tuple[Sequence[str], np.ndarray, np.ndarray]]


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


def _deliverable(chunk: list, S: int, d: int) -> tuple[list[str], np.ndarray, np.ndarray]:
    """A chunk of ClientSubmissions as a ClientBlocks chunk, a share sent if it is a
    real length-d vector: not if withheld (None) or malformed, text, ragged nestings
    and complex values (whose imaginary part a cast would drop) among them."""
    shares, sent = np.zeros((len(chunk), S, d)), np.zeros((len(chunk), S), dtype=bool)
    for row, sub in enumerate(chunk):
        for i in range(S):
            if (share := sub.payloads.get(i)) is None:
                continue
            try:
                share = np.asarray(share)
                if share.dtype.kind == "c" or share.shape != (d,):
                    continue
                shares[row, i] = share.astype(np.float64, copy=False)
            except (TypeError, ValueError, OverflowError):
                continue
            sent[row, i] = True
    return [sub.client_id for sub in chunk], shares, sent


def _permute_rows(M: np.ndarray, src: np.ndarray) -> None:
    """Set M[r] to the old M[src[r]] for every row r, in place: each cycle of
    the permutation moves with one row of scratch."""
    src, done, spare = src.tolist(), bytearray(len(src)), np.empty_like(M[:1])
    for start in range(len(src)):
        if done[start] or src[start] == start:
            continue
        spare[0], r = M[start], start
        while src[r] != start:
            M[r], done[r], r = M[src[r]], True, src[r]
        M[r], done[r] = spare[0], True


def _float_shares(regions: list[np.ndarray], i: int, mask=None) -> np.ndarray:
    """Verifier i's share rows in id order, or those where mask holds: a
    strided view of the values in its payloads, copied only to select rows."""
    R = regions[i][:, 1:]
    return R if mask is None else _rows(R, mask)


def _quantized_shares(blocks: list[np.ndarray], where: list[np.ndarray], decode,
                      out: np.ndarray, i: int, mask=None) -> np.ndarray:
    """Verifier i's share rows in id order, or those where mask holds, decoded
    into the first rows of out a chunk of rows at a time, so that the decoder's
    temporaries stay bounded; where[i] holds the block, offset and length of
    each of its payloads, rows in id order."""
    views = [memoryview(b) for b in blocks]
    blk, offset, length = (where[i] if mask is None else where[i][:, mask]).tolist()
    start = 0
    for part in client_chunks(zip(blk, offset, length), 1, out.shape[1]):
        out[start:start + len(part)] = decode([views[b][a:a + m] for b, a, m in part],
                                              out.shape[1])
        start += len(part)
    return out[:start]


def _deliver(blocks: ClientBlocks, params: ProtocolParams, writer: TranscriptWriter):
    """Round 0, share delivery, a block of clients at a time, written into the
    store: (n, clients, delivered, shares).

    n counts the clients; clients are those that reached a verifier (with a sent
    share of finite values), in id order, and delivered their (clients, S) mask:
    column i is verifier i's, J its all-True rows. shares(i, mask=None) gives
    verifier i's share rows in id order, or those where mask holds.

    A float64 verifier's payloads lie in one array of the store, each after 4 pad
    bytes so that its values are 8-byte aligned, and its rows are a strided view
    of them. The array is sized from blocks.n (and doubles when it runs out),
    filled in delivery order, then put in id order in place. A quantized payload
    stays in its chunk's block, and a verifier decodes its rows into one matrix,
    allocated once so that its pages are touched once however often it is refilled.
    """
    S, d = params.S, params.d
    quantized = params.trunc_b is not None
    regions = [np.empty((0 if quantized else blocks.n, d + 1)) for _ in range(S)]
    used = [0] * S
    # per verifier, per chunk: its block and payload bounds, after an entry of none
    encoded = [[(0, np.zeros(1, dtype=np.intp))] for _ in range(S)]
    index: dict[str, int] = {}  # client id -> its number in delivery order
    sent = [np.zeros((0, S), dtype=bool)]  # per chunk, its clients' (m, S) delivery mask
    for ids, shares, mask in blocks.chunks:
        if not (isinstance(shares, np.ndarray) and shares.dtype.kind == "f"
                and isinstance(mask, np.ndarray) and mask.dtype == bool):
            raise ParameterError("a client block needs real float shares and a bool mask")
        if shares.shape != (len(ids), S, d) or mask.shape != (len(ids), S):
            raise DimensionMismatch(f"a block of {len(ids)} clients has shares {shares.shape} and "
                                    f"mask {mask.shape}, not {(len(ids), S, d)} and {(len(ids), S)}")
        sent.append(mask & np.isfinite(shares).all(axis=2))
        for i in range(S):
            block = _rows(shares[:, i], sent[-1][:, i])
            if quantized:
                data, bounds = quantized_payloads(block, params.quant_step)
                encoded[i].append((writer.put(data), bounds))
                continue
            a, b = used[i], used[i] + len(block)
            if b > len(regions[i]):
                grown = np.empty((max(2 * len(regions[i]), b), d + 1))
                grown[:a] = regions[i][:a]
                regions[i] = grown
            write_vector_rows(regions[i][a:b], block)
            used[i] = b
        for number, cid in enumerate(ids, len(index)):
            if index.setdefault(cid, number) != number:
                raise DuplicateClientId(f"duplicate client id {cid!r}")

    # the clients that reached a verifier, in id order, and whom
    sent = np.concatenate(sent)
    ids = list(index)
    order = sorted(np.flatnonzero(sent.any(axis=1)).tolist(), key=ids.__getitem__)
    clients, delivered = [ids[s] for s in order], sent[order]
    rank = np.empty(len(ids), dtype=np.intp)
    rank[order] = np.arange(len(order))

    # where each delivered payload lies, [block, offset, length] by (submission, verifier)
    where = np.zeros((3, len(ids), S), dtype=np.int64)
    for i in range(S):
        subs = np.flatnonzero(sent[:, i])  # its submissions, in delivery order
        by_id = np.argsort(rank[subs])  # their rows, taken in id order
        if quantized:
            blocks, bounds = zip(*encoded[i])
            where[0, subs, i] = np.repeat(blocks, [len(b) - 1 for b in bounds])
            where[1, subs, i] = np.concatenate([b[:-1] for b in bounds])
            where[2, subs, i] = np.concatenate([b[1:] for b in bounds]) - where[1, subs, i]
            encoded[i] = where[:, subs[by_id], i]
            continue
        regions[i] = regions[i][:len(subs)]
        _permute_rows(regions[i], by_id)
        where[0, subs, i], where[2, subs, i] = writer.put(regions[i]), 8 * d + 4
        where[1, subs[by_id], i] = 8 * (d + 1) * np.arange(len(subs)) + 4
    senders, receivers = np.nonzero(sent)  # delivery order
    writer.send(S + rank[senders], receivers, 0, KIND_SHARE, *where[:, senders, receivers])
    if quantized:
        shares = partial(_quantized_shares, writer.blocks, encoded,
                         partial(decode_quantized_block, step=params.quant_step),
                         np.empty((max(h.shape[1] for h in encoded), d)))
    else:
        shares = partial(_float_shares, regions)
    return len(ids), clients, delivered, shares


class _Decided(NamedTuple):
    """What rounds 0-3 leave each verifier holding.

    n counts the submissions and parties is the party table; shares(i) gives
    verifier i's share rows in id order, of which accepted[i] marks J*'s.
    outcomes covers J, the clients that reached every verifier, in id order.
    """

    n: int
    parties: SessionParties
    shares: Callable[[int], np.ndarray]
    accepted: list[np.ndarray]
    outcomes: dict[str, VerificationOutcome]


def _verify(blocks: ClientBlocks, params: ProtocolParams, seed: int,
            writer: TranscriptWriter) -> _Decided:
    """Rounds 0-3, written into writer: share delivery, the matrix broadcast,
    every verifier's reply batch, and verifier 0's accepted-set broadcast.

    The party table is verifier:0 .. verifier:S-1, then the clients that
    reached a verifier in id order.
    """
    S, d = params.S, params.d
    n, clients, delivered, shares = _deliver(blocks, params, writer)

    # round 1: matrix broadcast; W is the values of its payload
    payload, W = matrix_slot(params.k, d)
    W[...] = session_matrix(params, seed)
    writer.send(0, np.arange(1, S), 1, KIND_MATRIX, writer.put(payload))

    # each client that reached a verifier draws one (S, k) block from its own
    # stream: row i is verifier i's reply noise, row 0 verifier 0's decision noise
    N = noise_rows(substreams(seed, ("verification-noise",), clients), params.sigma_v,
                   (len(clients), S, params.k))

    # round 2: every verifier's replies from its share rows, one product each;
    # its noise rows are a view of N if it heard from all
    Y = [None] + [project_replies(shares(i), W, _rows(N[:, i], delivered[:, i]))
                  for i in range(1, S)]

    # verifier 0 decides for J on each verifier's rows of J; its noise rows are
    # copied out so that N is freed before the reply batches are encoded
    J = delivered.all(axis=1)
    noise = N[J, 0]
    del N
    for i in range(1, S):
        batch = reply_batch(list(itertools.compress(clients, delivered[:, i].tolist())), Y[i])
        writer.send(i, 0, 2, KIND_REPLY, writer.put(batch))
    v_norms = decide_norms(shares(0, J[delivered[:, 0]]),
                           [_rows(Y[i], J[delivered[:, i]]) for i in range(1, S)], W, noise)
    accepted = J.copy()  # J*
    accepted[J] = v_norms < params.tau
    outcomes = dict(zip(itertools.compress(clients, J.tolist()),
                        map(VerificationOutcome, accepted[J].tolist(), v_norms.tolist())))

    # round 3: accepted-set broadcast
    set_payload = encode_id_set(itertools.compress(clients, accepted.tolist()))
    writer.send(0, np.arange(1, S), 3, KIND_ACCEPTED_SET, writer.put(set_payload))
    return _Decided(n, SessionParties(S, clients), shares,
                    [accepted[delivered[:, i]] for i in range(S)], outcomes)


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

    submissions may be any iterable of ClientSubmissions, or ClientBlocks,
    and is consumed once, in order, a bounded chunk of clients at a time;
    verifiers keep only the payloads they received, so a lazy iterable lets
    each chunk's own arrays go once that chunk is delivered.

    A ClientSubmission's share that is not a finite real length-d vector (text,
    a ragged nesting or complex values included), or that is addressed to no
    verifier in 0..S-1, is not delivered: its client misses that
    verifier and is left out of J, as a client that withheld the share
    would be. A repeated client id raises DuplicateClientId.
    """
    if validity_threshold is not None:
        fraction(validity_threshold, "validity_threshold")
    if sigma_out is not None:
        positive(sigma_out, "sigma_out")
    seed = integer(seed, "seed")

    S, d = params.S, params.d
    if not isinstance(submissions, ClientBlocks):
        submissions = ClientBlocks(operator.length_hint(submissions), map(
            partial(_deliverable, S=S, d=d), client_chunks(submissions, S, d)))
    writer = TranscriptWriter()
    n, parties, shares, accepted, outcomes = _verify(submissions, params, seed, writer)

    # round 4, unless everyone aborts: partial sums of accepted rows in id order
    total = None
    if validity_threshold is None or validity_check(
            [cid for cid, o in outcomes.items() if o.accept], n, validity_threshold):
        total = np.zeros(d)
        for i in range(S):
            s_i = _masked_sum(shares(i), accepted[i])
            if sigma_out is not None:
                s_i += substream(seed, "verifier", i, "sum-noise").normal(0.0, sigma_out, size=d)
            total = total + s_i
            if i >= 1:
                writer.send(i, 0, 4, KIND_PARTIAL_SUM, writer.put(encode_vector(s_i)))
    return (AggregateResult(sum=total, per_client_outcomes=outcomes),
            writer.transcript(parties, seed))


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
    writer = TranscriptWriter()
    block = ([client_id], shares[None], np.ones((1, params.S), dtype=bool))
    decided = _verify(ClientBlocks(1, [block]), params, session_seed, writer)
    return (decided.outcomes[client_id], writer.transcript(decided.parties, session_seed))
