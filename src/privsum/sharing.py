"""Gaussian additive secret sharing and its coalition-view simulator.

A vector x is split into S shares: shares 1..S-1 are i.i.d.
N(0, sigma_ss^2 I_d) blinds, share 0 is x minus their sum. Any strict
subset of verifiers sees (nearly) noise; the sum reconstructs x exactly
up to float64 summation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import as_vector
from .errors import DimensionMismatch, ParameterError
from .rng import as_generator


@dataclass(frozen=True, eq=False)
class ShareBundle:
    """The S additive shares produced by one client.

    Row i of `shares` is the share sent to verifier i; row 0 carries the
    secret minus the sum of the blinds.
    """

    client_id: str
    shares: np.ndarray  # shape (S, d)

    def __post_init__(self):
        if self.shares.ndim != 2:
            raise DimensionMismatch(
                f"shares must be a (S>=2, d>=1) array, got shape {self.shares.shape}"
            )
        check_shares(self.shares)

    @property
    def S(self) -> int:
        return self.shares.shape[0]

    @property
    def d(self) -> int:
        return self.shares.shape[1]


@dataclass(frozen=True, eq=False)
class SimulatedShareView:
    """What a verifier coalition T would see, simulated without the secret."""

    subset: frozenset[int]
    messages: dict[int, np.ndarray]


def share_vector(x, S: int, sigma_ss: float, seed, *,
                 client_id: str = "") -> ShareBundle:
    """Split x into S additive shares with Gaussian blinds, deterministic in seed.

    The norm contract ||x|| <= 1 is an honest-client promise and is not
    enforced here; adversarial callers may violate it.
    """
    x = as_vector(x)
    if S < 2:
        raise ParameterError(f"need at least 2 shares, got S={S}")
    if sigma_ss <= 0:
        raise ParameterError(f"sigma_ss must be > 0, got {sigma_ss}")
    blinds = sigma_ss * as_generator(seed).standard_normal((S - 1, x.shape[0]))
    return ShareBundle(client_id=client_id, shares=split_shares(x, blinds))


def split_shares(x: np.ndarray, blinds: np.ndarray) -> np.ndarray:
    """Shares (..., S, d) of inputs x (..., d) from blinds (..., S-1, d) already drawn.

    Row 0 is x minus the sum of the blinds, rows 1..S-1 are the blinds.
    """
    share0 = x - blinds.sum(axis=-2)
    return np.concatenate([share0[..., None, :], blinds], axis=-2)


def check_shares(shares: np.ndarray) -> None:
    """Raise unless shares is an (..., S>=2, d>=1) array of finite values."""
    if shares.ndim < 2 or shares.shape[-2] < 2 or shares.shape[-1] < 1:
        raise DimensionMismatch(
            f"shares must be a (S>=2, d>=1) array, got shape {shares.shape}"
        )
    if not np.isfinite(shares).all():
        raise ParameterError("shares must be finite")


def reconstruct(bundle: ShareBundle) -> np.ndarray:
    """Coordinatewise sum of all shares; inverse of share_vector up to float error."""
    if bundle.shares.ndim != 2 or bundle.S < 2:
        raise DimensionMismatch("bundle must hold at least 2 equal-dimension shares")
    return bundle.shares.sum(axis=0)


def simulate_share_view(T, S: int, sigma_ss: float, d: int, seed) -> SimulatedShareView:
    """Simulate the share messages a coalition T of verifiers receives.

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
    return SimulatedShareView(subset=subset,
                              messages=simulated_view(subset, S, sigma_ss, g))


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

    Idempotent; ties round half-to-even. Results stay within +-edge, the
    largest multiple n * step that is <= B, so a quantized payload decodes
    to at most B even when B is off the grid.
    """
    share = as_vector(share, name="share")
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
