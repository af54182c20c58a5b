"""Deterministic random streams derived from (seed, label) pairs.

Every stochastic choice in the package draws from a Generator obtained here.
Labels encode phase, epoch, and purpose ("mask/p2/epoch3/inst14"), so any
point in a training run can be reproduced without replaying prior draws, and
a resumed run makes exactly the draws the uninterrupted run would have made.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _label_key(label: str) -> int:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngStream:
    def __init__(self, seed: int):
        self.seed = int(seed)

    def generator(self, label: str) -> np.random.Generator:
        """A fresh PCG64 generator for this (seed, label) pair."""
        seq = np.random.SeedSequence((self.seed, _label_key(label)))
        return np.random.Generator(np.random.PCG64(seq))

    def child_seed(self, label: str) -> int:
        """A derived integer seed, for handing to components that keep their own stream."""
        seq = np.random.SeedSequence((self.seed, _label_key(label)))
        return int(seq.generate_state(1, np.uint64)[0])
