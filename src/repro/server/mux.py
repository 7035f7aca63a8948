"""The Push/Pull multiplexer (Section 2.2).

Before every slot the server tosses a coin weighted by ``PullBW``: heads
dedicates the slot to the request at the head of the backchannel queue,
tails continues the periodic program.  ``PullBW`` is only an *upper bound*
on pull bandwidth — when the queue is empty the slot reverts to the push
program, and when there is no push program an empty queue idles the slot.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PushPullMux"]

#: Coins pre-drawn per refill of the MUX's private stream.
_COIN_BUFFER = 1 << 12


class PushPullMux:
    """Per-slot pull-vs-push decision."""

    def __init__(self, pull_bw: float, rng: np.random.Generator):
        if not 0.0 <= pull_bw <= 1.0:
            raise ValueError(f"pull_bw must be within [0, 1], got {pull_bw}")
        self.pull_bw = pull_bw
        self._rng = rng
        #: Pre-drawn uniforms, next one last (compared when served).
        self._coins: list[float] = []

    def wants_pull(self) -> bool:
        """Toss the PullBW coin for the next slot.

        The degenerate settings skip the random draw entirely so Pure-Push
        (0.0) and Pure-Pull (1.0) stay deterministic and cheap.
        """
        pull_bw = self.pull_bw
        if pull_bw <= 0.0:
            return False
        if pull_bw >= 1.0:
            return True
        coins = self._coins
        if not coins:
            coins.extend(self._rng.random(_COIN_BUFFER)[::-1].tolist())
        return coins.pop() < pull_bw
