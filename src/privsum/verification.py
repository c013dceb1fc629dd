"""Multi-verifier norm verification over additive secret shares.

Verifier 0 broadcasts a random projection, every verifier returns a noisy
projection of its share, and verifier 0 thresholds the noisy projected
norm: accept iff ||v|| < tau (rejection on ties). The protocol rounds
that run these kernels live in aggregation. The coalition simulator
reproduces a coalition's view without the secret.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .core import ProjectionMatrix, ProtocolParams, as_vector, positive, sample_projection
from .errors import DimensionMismatch, ParameterError
from .rng import as_generator, substream
from .sharing import coalition, simulated_view

# stay bound here, where perfbench/tracing.py counts their calls
from .sharing import truncate_share  # noqa: F401
from .transcript import encode_accept, encode_matrix, encode_quantized, encode_vector  # noqa: F401


class VerificationOutcome(NamedTuple):
    """Verifier 0's verdict on one client: accept iff v_norm < tau."""

    accept: bool
    v_norm: float


class SimulatedNormRun(NamedTuple):
    """A simulated coalition view: each member's blind, the (k, d) projection
    W, and verifier 0's v_sim and accept bit."""

    shares: dict[int, np.ndarray]
    W: np.ndarray
    v_sim: np.ndarray
    accept: bool


def noise_rows(rngs, sigma: float, shape: tuple[int, ...]) -> np.ndarray:
    """An (m, ..., k) array whose row r is N(0, sigma^2 I) drawn from rngs[r].

    rngs may be any iterable; a lazy one keeps only one generator alive.
    """
    out = np.empty(shape)
    for row, rng in zip(out, rngs, strict=True):
        rng.standard_normal(out=row)
    out *= sigma
    return out


def _project(Z: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Rows Z W^T, with W one (k, d) matrix or an (m, k, d) stack of one per row."""
    if W.ndim == 2:
        return Z @ W.T
    # each row is its own (1, d) @ (d, k) product, bit-equal to a one-row call
    return np.matmul(Z[:, None, :], W.swapaxes(1, 2))[:, 0]


def project_replies(Z: np.ndarray, W: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Reply rows Y = Z W^T + noise, with the (m, k) noise already drawn.

    W is the session's (k, d) matrix or an (m, k, d) stack of one matrix
    per share row of Z.
    """
    Y = _project(Z, W)
    Y += noise
    return Y


def decide_norms(Z0: np.ndarray, replies, W: np.ndarray,
                 noise: np.ndarray) -> np.ndarray:
    """Row norms of v = Z0 W^T + sum_i Y_i + noise, replies in verifier order.

    Z0 holds verifier 0's share rows; every reply matrix, W stack and
    noise row is aligned with them row by row. v is squared in place, so no
    (m, k) temporary is made; on a real array np.linalg.norm(v, axis=1)
    computes the same sqrt(add.reduce(v * v, axis=1)), bit for bit.
    """
    # shares above ~1e154 overflow v or its square; an inf or nan norm is
    # not below tau, so such a client is rejected, and needs no warning
    with np.errstate(over="ignore", invalid="ignore"):
        v = _project(Z0, W)
        for Y in replies:
            v += Y
        v += noise
        v *= v
        return np.sqrt(np.add.reduce(v, axis=1))


def _share_row(z, W: ProjectionMatrix, name: str) -> np.ndarray:
    z = as_vector(z, name=name)
    if z.shape[0] != W.d:
        raise DimensionMismatch(
            f"cannot project dimension {z.shape[0]} with a {W.k}x{W.d} matrix"
        )
    return z[None, :]


def project_reply(z_i, W: ProjectionMatrix, sigma_v: float, seed) -> np.ndarray:
    """The (k,) reply W z_i + N(0, sigma_v^2 I_k) from seed: project_replies' one-row call."""
    sigma_v = positive(sigma_v, "sigma_v")
    z_i = _share_row(z_i, W, "z_i")
    return project_replies(z_i, W.entries, noise_rows([as_generator(seed)], sigma_v, (1, W.k)))[0]


def verifier0_decide(z_0, replies, W: ProjectionMatrix, sigma_v: float,
                     tau: float, seed) -> VerificationOutcome:
    """Sum the replies, add verifier 0's own noise, and threshold: the
    one-row call of decide_norms.

    replies is an (S-1, k) array-like whose row i-1 is verifier i's reply;
    v = W z_0 + sum_i y_i + N(0, sigma_v^2 I_k), and accept iff ||v|| < tau.
    """
    sigma_v, tau = positive(sigma_v, "sigma_v"), positive(tau, "tau")
    z_0 = _share_row(z_0, W, "z_0")
    replies = np.asarray(replies, dtype=np.float64)
    if replies.ndim != 2 or replies.shape[0] < 1 or replies.shape[1] != W.k:
        raise DimensionMismatch(f"replies have shape {replies.shape}, expected one "
                                f"row of k={W.k} per verifier 1..S-1")
    v_norm = float(decide_norms(z_0, replies[:, None], W.entries,
                                noise_rows([as_generator(seed)], sigma_v, (1, W.k)))[0])
    return VerificationOutcome(v_norm < tau, v_norm)


def session_matrix(params: ProtocolParams, session_seed: int) -> np.ndarray:
    """The session's (k, d) projection, from its shared-randomness stream."""
    rng = substream(session_seed, "shared-randomness")
    return sample_projection(params.k, params.d, rng).entries


ReplyFn = Callable[[int, np.ndarray, np.ndarray, np.random.Generator], np.ndarray]


def simulate_norm_verification(T, params: ProtocolParams, seed,
                               reply_fn: ReplyFn | None = None,
                               ) -> SimulatedNormRun:
    """Simulate a coalition T's view of the protocol without any secret.

    Requires 0 not in T (coalitions containing verifier 0 compose this
    with the share-view simulator). Gives each i in T a fresh blind g_i,
    draws a fresh projection W, collects T's replies Y via
    reply_fn(i, g_i, W, rng) (honest noisy projections of the g_i when
    None), then computes v_sim = sum_{i in T} (y_i - W g_i) +
    N(0, (S-|T|) sigma_v^2 I_k) and thresholds it at tau. T's messages
    are the encodings of these blinds, this W and the accept bit.
    """
    subset = coalition(T, params.S)
    if 0 in subset:
        raise ParameterError(
            "T must not contain verifier 0; compose with the share-view "
            "simulator for coalitions containing it"
        )

    members = sorted(subset)
    rng = as_generator(seed)
    shares = simulated_view(subset, params.S, params.sigma_ss,
                            rng.standard_normal((len(members), params.d)))
    W = sample_projection(params.k, params.d, rng).entries
    G = np.array([shares[i] for i in members])
    if reply_fn is None:
        Y = project_replies(G, W, params.sigma_v * rng.standard_normal((len(members), params.k)))
    else:
        Y = np.empty((len(members), params.k))
        for row, i in enumerate(members):
            Y[row] = as_vector(reply_fn(i, shares[i], W, rng), name="reply")
    v_sim = (Y - G @ W.T).sum(axis=0)
    v_sim += math.sqrt(params.S - len(subset)) * params.sigma_v * rng.standard_normal(params.k)
    accept = float(np.linalg.norm(v_sim)) < params.tau
    return SimulatedNormRun(shares=shares, W=W, v_sim=v_sim, accept=accept)
