"""An executable reference session, written as plain per-client loops.

It runs one session from the README and the payload formats in
privsum.transcript alone: the stream seeds and draw order, the hashed
ids, delivery, J, J*, the round-3 set, the round-4 order, and every codec
through struct and a per-value varint loop. It shares only the arithmetic
kernels split_shares, truncate_share, project_replies and decide_norms.
The last two are called once per verifier on its rows in id order, as the
engine calls them, because a one-row product can differ from a batched
one in the last bits. On every drawn scenario the engine must give the
reference's messages, hash, outcomes, J*, sum (bit for bit) and abort.
"""

import hashlib
import math
import struct
import warnings
from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random.bit_generator import ISeedSequence

from privsum import (ClientBehavior, ClientSubmission, DuplicateClientId, Scenario, calibrate,
                     run_aggregation, run_scenario)
from privsum.sharing import split_shares, truncate_share
from privsum.verification import decide_norms, project_replies

TRUNCATIONS = (None, (8.0, 0.5), (1.0, 0.125))


@lru_cache(maxsize=None)
def params_for(S, d, truncation):
    trunc_b, step = truncation or (None, 1.0)
    return calibrate(eps=1.0, delta=1e-2, eps_ss=1.0, delta_ss=1e-2, beta=0.05, S=S, k=16,
                     d=d, trunc_b=trunc_b, quant_step=step).params


def digest(seed, *path):
    return hashlib.sha256(repr((seed % 2**128, *path)).encode()).digest()


class _Digest(ISeedSequence):
    """PCG64's state is the digest's first two little-endian u64 words, its increment
    the last two."""

    def __init__(self, data):
        self.data = data

    def generate_state(self, n_words, dtype=np.uint32):
        words = np.frombuffer(self.data, np.dtype(dtype).newbyteorder("<"), n_words)
        return words.astype(dtype)


def stream(seed, *path):
    return np.random.Generator(np.random.PCG64(_Digest(digest(seed, *path))))


def vector(v):
    return struct.pack(f"<I{len(v)}d", len(v), *v)


def varint(q):
    z, out = (2 * q if q >= 0 else -2 * q - 1), bytearray()  # zigzag, then LEB128
    while z >= 0x80:
        out.append(z & 0x7F | 0x80)
        z >>= 7
    return bytes(out + bytes([z]))


def unquantize(payload, step):
    (d,), pos, values = struct.unpack_from("<I", payload), 4, []
    for _ in range(d):
        z = shift = 0
        while True:
            byte, pos = payload[pos], pos + 1
            z, shift = z | (byte & 0x7F) << shift, shift + 7
            if byte < 0x80:
                break
        values.append(((z >> 1) ^ -(z & 1)) * step)
    assert pos == len(payload)
    return np.array(values)


def id_bytes(cid):
    raw = cid.encode()
    return struct.pack("<H", len(raw)) + raw


def stack(rows, width):
    return np.array(rows, dtype=np.float64).reshape(len(rows), width)


def reference(submissions, params, seed, threshold=None, sigma_out=None):
    """(messages, outcomes, sum) of one session; sum is None when it aborts."""
    S, d, k, step = params.S, params.d, params.k, params.quant_step
    ids = [cid for cid, _ in submissions]
    if len(set(ids)) != len(ids):
        raise DuplicateClientId
    messages, held = [], [{} for _ in range(S)]  # held[i]: id -> verifier i's decoded share
    for cid, payloads in submissions:
        for i in range(S):
            share = payloads.get(i)
            if share is None:
                continue
            try:  # a share that is not real numbers is not delivered
                with warnings.catch_warnings():
                    warnings.simplefilter("error", np.exceptions.ComplexWarning)
                    share = np.asarray(share, dtype=np.float64)
            except (TypeError, ValueError, OverflowError, np.exceptions.ComplexWarning):
                continue
            if share.shape != (d,) or not np.isfinite(share).all():
                continue
            if params.trunc_b is None:
                payload = vector(share.tolist())
                held[i][cid] = np.array(struct.unpack_from(f"<{d}d", payload, 4))
            else:
                payload = struct.pack("<I", d) + b"".join(varint(round(v / step))
                                                          for v in share.tolist())
                held[i][cid] = unquantize(payload, step)
            messages.append((f"client:{cid}", f"verifier:{i}", 0, "share", payload))
    W = stream(seed, "shared-randomness").standard_normal((k, d)) / math.sqrt(k)
    for i in range(1, S):
        messages.append(("verifier:0", f"verifier:{i}", 1, "matrix",
                         struct.pack(f"<II{k * d}d", k, d, *W.ravel().tolist())))
    noise = {cid: params.sigma_v * stream(seed, "verification-noise", cid).standard_normal((S, k))
             for cid in set().union(*held)}
    replies = [None] * S
    for i in range(1, S):
        order = sorted(held[i])
        Y = project_replies(stack([held[i][c] for c in order], d), W,
                            stack([noise[c][i] for c in order], k))
        replies[i] = dict(zip(order, Y))
        messages.append((f"verifier:{i}", "verifier:0", 2, "reply", struct.pack("<I", len(order))
                         + b"".join(id_bytes(c) + vector(y.tolist()) for c, y in zip(order, Y))))
    J = sorted(set(held[0]).intersection(*held[1:]))
    v_norms = decide_norms(stack([held[0][c] for c in J], d),
                           [stack([replies[i][c] for c in J], k) for i in range(1, S)], W,
                           stack([noise[c][0] for c in J], k))
    outcomes = [(c, (bool(v < params.tau), float(v))) for c, v in zip(J, v_norms)]
    J_star = [c for c, (accept, _) in outcomes if accept]
    for i in range(1, S):
        messages.append(("verifier:0", f"verifier:{i}", 3, "accepted-set",
                         struct.pack("<I", len(J_star)) + b"".join(map(id_bytes, J_star))))
    if threshold is not None and len(J_star) < threshold * len(submissions):
        return messages, outcomes, None
    total = np.zeros(d)
    for i in range(S):
        s = np.zeros(d)
        for c in J_star:
            s = s + held[i][c]
        if sigma_out is not None:
            s = s + stream(seed, "verifier", i, "sum-noise").normal(0.0, sigma_out, size=d)
        total = total + s
        if i:
            messages.append((f"verifier:{i}", "verifier:0", 4, "partial-sum", vector(s.tolist())))
    return messages, outcomes, total


def reference_scenario(scenario, params, seed):
    """The submissions run_scenario builds, from each client's own stream; explicit
    ids are distinct."""
    S, d = params.S, params.d
    taken, submissions = {c.client_id for c in scenario.clients} - {None}, []
    for index, c in enumerate(scenario.clients):
        cid, attempt = c.client_id, 0
        while cid is None:  # the first attempt whose id no other client holds
            cid = digest(seed, "nonce", index, attempt)[:8].hex()
            cid, attempt = (None if cid in taken else cid), attempt + 1
        taken.add(cid)
        rng = stream(seed, "client", cid)
        if c.kind == "inconsistent-shares":
            shares = rng.normal(0.0, params.sigma_ss * c.scale, size=(S, d))
        else:
            g = rng.standard_normal((S, d))  # the direction, then the S-1 blinds
            shares = split_shares(c.norm * (g[0] / np.linalg.norm(g[0])), g[1:], params.sigma_ss)
        if params.trunc_b is not None:
            shares = truncate_share(shares, params.trunc_b, params.quant_step)
        skip = c.skip if c.kind == "partial-send" else ()
        submissions.append((cid, {i: None if i in skip else shares[i] for i in range(S)}))
    return submissions


def run(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except DuplicateClientId as error:
        return type(error)


def assert_same(engine, ref):
    if isinstance(ref, type) or isinstance(engine, type):
        assert engine is ref
        return
    (result, transcript), (messages, outcomes, total) = engine, ref
    assert [tuple(m) for m in transcript.messages] == messages
    assert transcript.sha256() == hashlib.sha256(b"".join(
        f"{seq}|{a}|{b}|{r}|{kind}|".encode() + payload + b"\n"
        for seq, (a, b, r, kind, payload) in enumerate(messages))).hexdigest()
    assert [(c, tuple(o)) for c, o in result.per_client_outcomes.items()] == outcomes
    assert result.accepted == {c for c, (accept, _) in outcomes if accept}
    assert result.aborted == (total is None)
    assert total is None or result.sum.tobytes() == total.tobytes()


SHAPES = st.tuples(st.integers(2, 4), st.integers(1, 16), st.sampled_from(TRUNCATIONS))
SEEDS = st.integers(-2**130, 2**130)
OPTIONS = st.fixed_dictionaries({"threshold": st.none() | st.floats(0.0, 1.0, exclude_min=True),
                                 "sigma_out": st.none() | st.floats(0.1, 10.0)})


def behaviors(S):
    ids = st.none() | st.none() | st.text(min_size=1, max_size=4)  # hashed ids, mostly
    return st.one_of(
        st.builds(ClientBehavior, norm=st.floats(0.0, 2.0), client_id=ids),
        st.builds(ClientBehavior, kind=st.just("norm-inflating"), norm=st.floats(200.0, 1e4),
                  client_id=ids),
        st.builds(ClientBehavior, kind=st.just("partial-send"), client_id=ids,
                  skip=st.lists(st.integers(0, S - 1), unique=True).map(tuple)),
        st.builds(ClientBehavior, kind=st.just("inconsistent-shares"), scale=st.floats(0.0, 4.0),
                  client_id=ids))


@settings(max_examples=120, deadline=None)
@given(SHAPES, SEEDS, OPTIONS, st.data())
def test_scenarios_match_the_reference(shape, seed, options, data):
    params = params_for(*shape)
    clients = tuple(data.draw(st.lists(behaviors(params.S), min_size=1, max_size=8, unique_by=(
        lambda c: id(c) if c.client_id is None else c.client_id))))
    scenario = Scenario(n=len(clients), S=params.S, d=params.d, clients=clients,
                        validity_threshold=options["threshold"], sigma_out=options["sigma_out"])
    ref = run(lambda: reference(reference_scenario(scenario, params, seed), params, seed,
                                **options))
    assert_same(run(run_scenario, scenario, params, seed), ref)


# what a submission may carry for one verifier: a delivered share, mostly, or one that is not
PAYLOADS = ("share",) * 8 + ("list", "none", "missing", "short", "matrix", "nan", "inf",
                             "text", "ragged", "complex")


@settings(max_examples=120, deadline=None)
@given(SHAPES, SEEDS, OPTIONS, st.data())
def test_malformed_and_partial_submissions_match_the_reference(shape, seed, options, data):
    params = params_for(*shape)
    S, d = params.S, params.d
    ids = data.draw(st.lists(st.text(max_size=4), min_size=1, max_size=8, unique=True))
    if data.draw(st.sampled_from(("distinct",) * 7 + ("repeated",))) == "repeated":
        ids.append(ids[0])  # raises DuplicateClientId
    values = np.random.default_rng(data.draw(st.integers(0, 2**32))).normal(
        0.0, data.draw(st.sampled_from((4.0, 400.0))), size=(len(ids), S + 1, d))
    submissions = []
    for cid, rows in zip(ids, values):
        payloads = {}
        # slot S is addressed to no verifier: -1 or S
        for i, kind in enumerate(data.draw(st.lists(st.sampled_from(PAYLOADS),
                                                    min_size=S + 1, max_size=S + 1))):
            share = rows[i].copy()
            share[0] = {"nan": math.nan, "inf": -math.inf}.get(kind, share[0])
            if kind != "missing":
                payloads[i if i < S else data.draw(st.sampled_from((-1, S)))] = {
                    "list": share.tolist(), "none": None, "short": share[1:],
                    "matrix": share[None], "text": "share", "complex": share + 0.5j,
                    "ragged": [share[0], share[1:].tolist()]}.get(kind, share)
        submissions.append(ClientSubmission(cid, payloads))
    engine = run(run_aggregation, iter(submissions), params, seed=seed,
                 validity_threshold=options["threshold"], sigma_out=options["sigma_out"])
    assert_same(engine, run(reference, submissions, params, seed, **options))
