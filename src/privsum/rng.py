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

A session keys W by ("shared-randomness",), client c's shares by ("client", c)
and its (S, k) verification noise by ("verification-noise", c): row i is
verifier i's reply noise, row 0 verifier 0's decision noise. An id not given
is path_digest(seed, "nonce", index, attempt)[:8], from no generator. substreams and
path_digests make many keys' streams and digests, each key's bit for bit.

Gaussian variates use numpy's ziggurat sampler (Generator.standard_normal),
bit-reproducible for a fixed numpy version on a given platform.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
from collections.abc import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ParameterError

Label = str | int

_MASK_128 = (1 << 128) - 1
_LITTLE_ENDIAN = sys.byteorder == "little"


class _DigestSeed(ISeedSequence):
    """Hands a SHA-256 digest, a "<u8" array of its four words, to PCG64 as its
    state and increment words; words are read as little-endian on every platform."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and dtype is np.uint64 and _LITTLE_ENDIAN:  # PCG64's one call
            return self._words
        little = np.dtype(dtype).newbyteorder("<")
        return np.frombuffer(self._words.tobytes(), dtype=little, count=n_words).astype(dtype)


def integer(seed, name: str) -> int:
    """seed as an int, if it is a Python or numpy integer and not a bool."""
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool):
        return int(seed)
    raise ParameterError(f"{name} must be an integer, got {seed!r}")


def _key(master_seed: int, *path: Label) -> str:
    """repr((master_seed mod 2**128, *path)), the text that keys that path."""
    if type(master_seed) is not int:  # one test for the common case
        master_seed = integer(master_seed, "master_seed")
    return repr((master_seed & _MASK_128, *path))


def path_digest(master_seed: int, *path: Label) -> bytes:
    """SHA-256 of repr((master_seed mod 2**128, *path)), the key of that path."""
    return hashlib.sha256(_key(master_seed, *path).encode("utf-8")).digest()


def path_digests(master_seed: int, labels: tuple, keys, after: tuple = ()) -> Iterator[bytes]:
    """path_digest(master_seed, *labels, key, *after) of each key, made as it is
    consumed: each key's repr goes between the text before and after its place
    in _key's; master_seed is checked at the call."""
    head, tail = _key(master_seed, *labels, 0)[:-2], _key(0, 0, *after)[5:]
    return (hashlib.sha256(f"{head}{key!r}{tail}".encode("utf-8")).digest() for key in keys)


def substream(master_seed: int, *path: Label) -> np.random.Generator:
    """Generator for the substream addressed by (master_seed, *path)."""
    words = np.frombuffer(path_digest(master_seed, *path), dtype="<u8")
    return np.random.Generator(np.random.PCG64(_DigestSeed(words)))


def substreams(master_seed: int, labels: tuple, keys) -> Iterator[np.random.Generator]:
    """substream(master_seed, *labels, key) of each key, made as it is consumed,
    the digests of 64 keys read at a time; master_seed is checked at the call."""
    digests = path_digests(integer(master_seed, "master_seed"), labels, keys)
    chunks = iter(lambda: b"".join(itertools.islice(digests, 64)), b"")
    return (np.random.Generator(np.random.PCG64(_DigestSeed(w))) for chunk in chunks
            for w in np.frombuffer(chunk, "<u8").reshape(-1, 4))


def as_generator(seed: int | np.random.Generator) -> np.random.Generator:
    """Accept an int seed (Python or numpy integer) or an existing Generator.

    Passing a Generator hands over its stream: subsequent draws are
    consumed from it in call order.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return substream(integer(seed, "seed"))


def seed_int(seed: int | np.random.Generator) -> int:
    """Normalize to a plain integer seed, drawing one from a Generator."""
    if isinstance(seed, np.random.Generator):
        return int(seed.integers(0, 2 ** 62))
    return integer(seed, "seed")
