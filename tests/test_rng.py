"""Draw streams against numpy's ``Generator``.

A :class:`DrawStream` makes ``random()`` and ``integers(n)`` in Python from
raw PCG64 outputs fetched in blocks of ``BLOCK``; every draw must equal the
one a numpy ``Generator`` on the same PCG64 state makes, across block
boundaries, with a 32-bit half held back, and at the Lemire rejection
threshold itself. A run's ``env``, ``explore`` and ``eval`` streams are
draw streams with the draws of the derived numpy generators.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from paretoq.rng import (BLOCK, STREAM_ENV, STREAM_EVAL, STREAM_EXPLORE, DrawStream,
                         RunStreams, derive_stream)

BOUNDS = [1, 2, 3, 7, 2**31 + 11, 3 * 2**30, 2**32 - 1, 2**32]
COIN = None   # a random() draw among integers(n) bounds


def _pair(seed):
    return DrawStream(np.random.PCG64(seed)), np.random.Generator(np.random.PCG64(seed))


def _draw(rng, n):
    return rng.random() if n is COIN else int(rng.integers(n))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), lead=st.integers(0, BLOCK),
       draws=st.lists(st.sampled_from([COIN, *BOUNDS]), max_size=60))
@example(seed=0, lead=BLOCK - 1, draws=[3, COIN, 3, 3])     # a half held across the refill
@example(seed=1, lead=BLOCK, draws=[2**32, 7, 1, COIN])
def test_draws_equal_numpys_generator_draw_for_draw(seed, lead, draws):
    """``lead`` coins first move the block boundary through the mixed draws;
    the tail (at least ``BLOCK`` more outputs) crosses one in any case."""
    stream, generator = _pair(seed)
    sequence = [COIN] * lead + draws + [COIN, 7] * BLOCK
    assert [_draw(stream, n) for n in sequence] == [_draw(generator, n) for n in sequence]


@pytest.mark.parametrize("n", [0, -1, 2**32 + 1, 2**40])
def test_a_bound_outside_one_to_two_to_the_32_raises_and_draws_nothing(n):
    stream, generator = _pair(9)
    stream.integers(3)   # a high half is held back
    generator.integers(3)
    with pytest.raises(ValueError, match="1 <= n <= 2\\*\\*32"):
        stream.integers(n)
    assert [stream.integers(5), stream.random()] == [generator.integers(5), generator.random()]


def test_numpy_integers_are_accepted_as_bounds():
    stream, generator = _pair(4)
    bounds = [np.int64(2**32), np.uint32(3 * 2**30), np.int8(7)]
    assert [stream.integers(n) for n in bounds] == [generator.integers(n) for n in bounds]


@pytest.mark.parametrize("n", [3, 7, 2**31 + 11, 2**32 - 1])
@pytest.mark.parametrize("below", [0, 1], ids=["at", "below"])
def test_a_half_at_or_below_the_rejection_threshold_draws_as_numpy_does(n, below):
    """The held-back half is chosen so that its scaled low word is the threshold
    ``(2**32 - n) % n`` (kept) or one less (redrawn); a stream that kept or
    redrew otherwise would read other outputs after it."""
    low = (2**32 - n) % n - below
    half = low * pow(n, -1, 2**32) % 2**32
    assert half * n % 2**32 == low
    bits = [np.random.PCG64(5), np.random.PCG64(5)]
    for b in bits:
        b.state = {**b.state, "has_uint32": 1, "uinteger": half}
    stream, generator = DrawStream(bits[0]), np.random.Generator(bits[1])
    first = stream.integers(n)
    assert first == generator.integers(n)
    if not below:
        assert first == half * n >> 32
    assert [stream.random(), stream.integers(n)] == [generator.random(), generator.integers(n)]


def test_a_runs_scalar_streams_draw_as_the_derived_generators():
    streams = RunStreams(12)
    for name, sid in (("env", STREAM_ENV), ("explore", STREAM_EXPLORE), ("eval", STREAM_EVAL)):
        stream, generator = getattr(streams, name), derive_stream(12, sid)
        assert type(stream) is DrawStream
        sequence = [COIN, 2, COIN, 3, 3] * (BLOCK // 2)
        assert [_draw(stream, n) for n in sequence] == [_draw(generator, n) for n in sequence]
    assert type(streams.buffer) is type(streams.metrics) is np.random.Generator
