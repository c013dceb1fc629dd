"""Gaussian additive secret sharing and its coalition-view simulator.

A vector x is split into S shares: shares 1..S-1 are i.i.d.
N(0, sigma_ss^2 I_d) blinds, share 0 is x minus their sum. Any strict
subset of verifiers sees (nearly) noise; the S shares sum to x exactly
up to float64 summation error.
"""

from __future__ import annotations

import math

import numpy as np

from .core import as_vector
from .errors import DimensionMismatch, ParameterError
from .rng import as_generator


def share_vector(x, S: int, sigma_ss: float, seed) -> np.ndarray:
    """The (S, d) additive shares of x, row i for verifier i, deterministic in seed.

    The norm contract ||x|| <= 1 is an honest-client promise and is not
    enforced here; adversarial callers may violate it.
    """
    x = as_vector(x)
    if S < 2:
        raise ParameterError(f"need at least 2 shares, got S={S}")
    if sigma_ss <= 0:
        raise ParameterError(f"sigma_ss must be > 0, got {sigma_ss}")
    g = as_generator(seed).standard_normal((S - 1, x.shape[0]))
    shares = split_shares(x, g, sigma_ss)
    check_shares(shares)
    return shares


def scale_to_norm(u: np.ndarray, norm) -> np.ndarray:
    """Inputs (..., d) of the given norm (a number, or one per row) along the rows of u.

    Row norms come from dot products, as np.linalg.norm takes them for one
    vector, so each row equals its one-vector result bit for bit.
    """
    return np.asarray(norm)[..., None] * (u / np.sqrt(np.vecdot(u, u))[..., None])


def split_shares(x: np.ndarray, g: np.ndarray, sigma_ss) -> np.ndarray:
    """Shares (..., S, d) of inputs x (..., d) from standard normals g (..., S-1, d).

    Rows 1..S-1 are the blinds sigma_ss * g, scaled in place in g; row 0
    is x minus their sum. A blind or sum that overflows is left as inf or
    nan, without a warning, for check_shares to reject.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        g *= sigma_ss
        share0 = x - g.sum(axis=-2)
    return np.concatenate([share0[..., None, :], g], axis=-2)


def check_shares(shares: np.ndarray) -> None:
    """Raise unless shares is an (..., S>=2, d>=1) array of finite values."""
    if shares.ndim < 2 or shares.shape[-2] < 2 or shares.shape[-1] < 1:
        raise DimensionMismatch(
            f"shares must be a (S>=2, d>=1) array, got shape {shares.shape}"
        )
    if not np.isfinite(shares).all():
        raise ParameterError("shares must be finite")


def simulate_share_view(T, S: int, sigma_ss: float, d: int,
                        seed) -> dict[int, np.ndarray]:
    """Simulate the share messages {verifier: message} a coalition T receives.

    For i in T, i != 0 the message is a fresh N(0, sigma_ss^2 I_d) draw.
    If 0 in T, verifier 0's message is g - sum of the other simulated
    messages with g ~ N(0, (S-|T|) sigma_ss^2 I_d). T must be a proper,
    non-empty subset of {0..S-1}.
    """
    subset = frozenset(int(i) for i in T)
    if S < 2:
        raise ParameterError(f"need S >= 2, got S={S}")
    if sigma_ss <= 0:
        raise ParameterError(f"sigma_ss must be > 0, got {sigma_ss}")
    if d < 1:
        raise ParameterError(f"d must be >= 1, got {d}")
    if not subset:
        raise ParameterError("coalition T must be non-empty")
    if not subset < set(range(S)):
        raise ParameterError(
            f"T={sorted(subset)} must be a proper subset of verifier indices 0..{S - 1}"
        )
    g = as_generator(seed).standard_normal((len(subset), d))
    return simulated_view(subset, S, sigma_ss, g)


def simulated_view(subset: frozenset[int], S: int, sigma_ss: float,
                   g: np.ndarray) -> dict[int, np.ndarray]:
    """Coalition messages (..., d) from standard normals g (..., |T|, d) already drawn.

    Rows of g go to the members other than 0 in ascending order, then to
    verifier 0 when it is in the subset: its message is a
    N(0, (S-|T|) sigma_ss^2) row minus the other simulated messages.
    """
    others = sorted(subset - {0})
    messages = {i: sigma_ss * g[..., row, :] for row, i in enumerate(others)}
    if 0 in subset:
        g0 = math.sqrt(S - len(subset)) * sigma_ss * g[..., len(others), :]
        messages[0] = g0 - sum(messages.values())
    return messages


def truncate_share(share, B: float, step: float) -> np.ndarray:
    """Clamp each coordinate to [-B, B], then round to the nearest multiple of step.

    share is one (d,) share or any (..., d) stack of them. Idempotent;
    ties round half-to-even. Results stay within +-edge, the largest
    multiple n * step that is <= B, so a quantized payload decodes to at
    most B even when B is off the grid.
    """
    share = np.asarray(share, dtype=np.float64)
    if share.ndim < 1 or share.shape[-1] < 1:
        raise DimensionMismatch(
            f"share must have a last axis of length >= 1, got shape {share.shape}"
        )
    if not np.isfinite(share).all():
        raise ParameterError("share must contain only finite values")
    if B <= 0:
        raise ParameterError(f"B must be > 0, got {B}")
    if step <= 0:
        raise ParameterError(f"step must be > 0, got {step}")
    # B / step may round across a grid point; n * step is what a payload decodes to
    n = math.floor(B / step) + 1
    while n * step > B:
        n -= 1
    edge = n * step
    gridded = np.round(np.clip(share, -B, B) / step) * step
    return np.clip(gridded, -edge, edge)


def clamp_probability(B: float, sigma: float) -> float:
    """Probability that a N(0, sigma^2) coordinate is clamped at [-B, B].

    Evaluates 2*Phi(-B/sigma) analytically via erfc; no sampling.
    """
    if B <= 0 or sigma <= 0:
        raise ParameterError("B and sigma must be > 0")
    return math.erfc(B / (sigma * math.sqrt(2.0)))
