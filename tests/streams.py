"""Independent random streams for the tests that draw one trial at a time."""

import numpy as np


def spawn_rngs(root_seed: int, n: int) -> list[np.random.Generator]:
    """Independent per-trial generators derived from one root seed."""
    return [np.random.default_rng(s)
            for s in np.random.SeedSequence(root_seed).spawn(n)]
