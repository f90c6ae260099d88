"""Deterministic, purpose-tagged random substreams.

Every random draw in the package comes from a substream keyed by
(master seed, purpose tag).  Streams for different purposes are
statistically independent, and adding a new consumer never perturbs
existing ones, so outputs are reproducible no matter in which order the
stages run.
"""

from __future__ import annotations

import hashlib

import numpy as np


def substream(seed: int, tag: str) -> np.random.Generator:
    """Generator for the (seed, tag) substream.

    Parameters
    ----------
    seed : int
        Master seed of the run, taken modulo 2**64.
    tag : str
        Purpose tag, e.g. ``"measurement-noise"``; its blake2b 64-bit
        word follows the seed in the SeedSequence entropy.
    """
    digest = hashlib.blake2b(tag.encode("utf-8"), digest_size=8).digest()
    words = [int(seed) & 0xFFFFFFFFFFFFFFFF, int.from_bytes(digest, "big")]
    return np.random.default_rng(np.random.SeedSequence(words))
