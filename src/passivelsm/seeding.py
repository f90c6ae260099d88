"""Deterministic, purpose-tagged random substreams.

Every random draw in the package comes from a substream keyed by
(master seed, purpose tag, optional indices).  Streams for different
purposes are statistically independent, and adding a new consumer never
perturbs existing ones, so outputs are reproducible no matter in which
order (or on how many workers) the stages run.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np


def _tag_word(tag) -> int:
    """Stable 64-bit word for a stream tag (int passes through)."""
    if isinstance(tag, (int, np.integer)):
        return int(tag) & 0xFFFFFFFFFFFFFFFF
    return _string_word(str(tag))


@lru_cache(maxsize=256)
def _string_word(tag: str) -> int:
    """blake2b word of a string tag, hashed once per distinct tag."""
    digest = hashlib.blake2b(tag.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def substream(seed: int, *tags) -> np.random.Generator:
    """Generator for the (seed, *tags) substream.

    Parameters
    ----------
    seed : int
        Master seed of the run.
    *tags : str | int
        Purpose tags, e.g. ``("source-angles",)`` or
        ``("covariance-noise", realization_index)``.
    """
    words = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [_tag_word(t) for t in tags]
    return np.random.default_rng(np.random.SeedSequence(_entropy(words)))


def _entropy(words) -> np.ndarray:
    """The uint32 array SeedSequence makes of a list of 64-bit words.

    Each word becomes its low 32 bits, then its high 32 bits unless they
    are zero (so 0 is [0]), as numpy's own coercion of the list does;
    prebuilt, the array spares SeedSequence that coercion.
    """
    out = []
    for w in words:
        out.append(w & 0xFFFFFFFF)
        if w >> 32:
            out.append(w >> 32)
    return np.array(out, dtype=np.uint32)
