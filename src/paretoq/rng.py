"""Named, seedable random streams.

Every run draws all of its randomness from PCG64 bit generators derived
from a single integer seed. Each component owns a separate stream so that
how much randomness one component consumes can never shift what another
component sees; this is what makes whole runs reproducible bit for bit.

The streams of scalar draws (``env``, ``explore`` and ``eval``) are
:class:`DrawStream`\\ s: they make numpy ``Generator``'s draws in Python from
raw PCG64 outputs, so their draws depend on PCG64 alone. The streams of
vector draws (``buffer`` and ``metrics``) are numpy ``Generator``\\ s.

Stream identities are frozen integers. Changing them (or the generator
family) is a breaking change for every recorded experiment.
"""

from __future__ import annotations

import operator

import numpy as np

STREAM_ENV = 0        # environment dynamics during training rollouts
STREAM_EXPLORE = 1    # epsilon-greedy coins and random actions
STREAM_BUFFER = 2     # replay batch draws
STREAM_EVAL = 3       # policy-evaluation episodes
STREAM_METRICS = 4    # Monte-Carlo metric estimation

_STREAM_NAMES = {
    "env": STREAM_ENV,
    "explore": STREAM_EXPLORE,
    "buffer": STREAM_BUFFER,
    "eval": STREAM_EVAL,
    "metrics": STREAM_METRICS,
}
_DRAW_STREAMS = ("env", "explore", "eval")

BLOCK = 256   # raw outputs a DrawStream fetches at a time


def derive_stream(seed: int, stream_id: int) -> np.random.Generator:
    """PCG64 generator for the (seed, stream_id) pair."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream_id))))


class DrawStream:
    """``random()`` and ``integers(n)`` equal to ``np.random.Generator(bits)``'s, draw
    for draw, made in Python from raw outputs of the PCG64 ``bits``, which the stream
    then owns (a 32-bit half ``bits`` holds back is served first, as numpy does).

    ``random()`` is ``(x >> 11) * 2**-53`` of the next 64-bit output ``x``.
    ``integers(n)`` is numpy's 32-bit Lemire draw: each output serves its low
    half, then its high half, and a scaled half whose low word falls below
    ``(2**32 - n) % n`` is redrawn. ``n == 1`` draws nothing; ``n`` outside
    ``[1, 2**32]`` is a ``ValueError``.
    """

    __slots__ = ("_bits", "_outputs", "_half")

    def __init__(self, bits: np.random.PCG64):
        state = bits.state
        self._bits, self._outputs = bits, iter(())
        self._half = state["uinteger"] if state["has_uint32"] else None

    def _refill(self) -> int:
        """Fetch the next :data:`BLOCK` outputs; return the first."""
        self._outputs = iter(self._bits.random_raw(BLOCK).tolist())
        return next(self._outputs)

    def random(self) -> float:
        try:
            x = next(self._outputs)
        except StopIteration:
            x = self._refill()
        return (x >> 11) * 2**-53

    def integers(self, n: int) -> int:
        if type(n) is not int:   # a numpy integer would overflow ``half * n``
            n = operator.index(n)
        if not 1 <= n <= 2**32:
            raise ValueError(f"integers(n) needs 1 <= n <= 2**32, got {n!r}")
        if n == 1:
            return 0
        while True:
            half = self._half
            if half is None:
                try:
                    x = next(self._outputs)
                except StopIteration:
                    x = self._refill()
                half, self._half = x & 0xFFFFFFFF, x >> 32
            else:
                self._half = None
            scaled = half * n
            low = scaled & 0xFFFFFFFF
            if low >= n or low >= (2**32 - n) % n:   # the threshold only when low < n
                return scaled >> 32


class RunStreams:
    """All named streams of one run, derived from one seed: ``env``, ``explore``
    and ``eval`` as :class:`DrawStream`\\ s, ``buffer`` and ``metrics`` as numpy
    ``Generator``\\ s."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        for name, sid in _STREAM_NAMES.items():
            stream = derive_stream(self.seed, sid)
            setattr(self, name, DrawStream(stream.bit_generator) if name in _DRAW_STREAMS
                    else stream)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RunStreams(seed={self.seed})"
