"""Deterministic RNG substreams for multi-party simulation.

All randomness flows through numpy PCG64 generators. A substream is
addressed by a master seed plus a path of labels. One SHA-256 digest of
repr((master_seed mod 2**128, *path)) is the whole seed: its first two
64-bit words set PCG64's 128-bit state and its last two the 128-bit
increment. repr is an injective encoding of the path that keeps int and
str labels apart (1 vs "1"). A party's stream therefore depends only on
(master_seed, its own path). Adding or removing another party never
shifts anyone else's draws, which is what makes with/without-adversary
comparisons bitwise reproducible.

Gaussian variates use numpy's ziggurat sampler (Generator.standard_normal),
bit-reproducible for a fixed numpy version on a given platform.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np
from numpy.random.bit_generator import ISeedSequence

Label = str | int

_MASK_128 = (1 << 128) - 1
_LITTLE_ENDIAN = sys.byteorder == "little"


class _DigestSeed(ISeedSequence):
    """Hands a SHA-256 digest to PCG64 as its state and increment words."""

    __slots__ = ("_digest",)

    def __init__(self, digest: bytes):
        self._digest = digest

    def generate_state(self, n_words, dtype=np.uint32):
        # the digest's words are read as little-endian on every platform
        words = np.frombuffer(self._digest, dtype=dtype, count=n_words)
        return words if _LITTLE_ENDIAN else words.byteswap()


def substream(master_seed: int, *path: Label) -> np.random.Generator:
    """Generator for the substream addressed by (master_seed, *path)."""
    key = repr((int(master_seed) & _MASK_128, *path)).encode("utf-8")
    seed = _DigestSeed(hashlib.sha256(key).digest())
    return np.random.Generator(np.random.PCG64(seed))


def as_generator(seed: int | np.random.Generator) -> np.random.Generator:
    """Accept an int seed (Python or numpy integer) or an existing Generator.

    Passing a Generator hands over its stream: subsequent draws are
    consumed from it in call order.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return substream(int(seed))


def seed_int(seed: int | np.random.Generator) -> int:
    """Normalize to a plain integer seed, drawing one from a Generator."""
    if isinstance(seed, np.random.Generator):
        return int(seed.integers(0, 2 ** 62))
    return int(seed)
