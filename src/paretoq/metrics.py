"""Pareto front quality indicators.

All metrics assume maximization in every objective and defensively filter
strictly dominated points out of their inputs first (a dominated input is a
caller bug and is reported as a warning, not an error). Hypervolume is exact
for two objectives via a sweep over the sorted front and Monte-Carlo
estimated for three or more; the Monte-Carlo estimator is also available
directly for any dimension, which gives an independent cross-check of the
exact sweep. The estimator never scales its uniform draws into the box:
each point gets, per objective, the largest draw that scaling would put at
or below it, and raw draws are compared with those limits. When every draw
would hit (a one-point front, say) and the generator is PCG64, none is
made: the generator is advanced past them to the state drawing leaves.
"""

from __future__ import annotations

import warnings

import numpy as np

# rows of Monte-Carlo draws made and tested at a time: a (2**14, m) block
# of draws and its (m, 2**14) transpose fit in cache, while 10**6 rows and
# their temporaries take tens of MB
SAMPLE_BLOCK = 2**14
_ONE_BITS = int(np.float64(1.0).view(np.int64))
_LAST_DRAW = 1.0 - 2.0**-53   # the largest double below 1, the largest uniform draw


def _validated_front(points, name: str = "front") -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(pts)):
        raise ValueError(f"{name} contains non-finite entries")
    # strictly dominated rows are dropped; exact duplicates are kept
    ge = np.all(pts[:, None, :] >= pts[None, :, :], axis=2)
    gt = np.any(pts[:, None, :] > pts[None, :, :], axis=2)
    dominated = np.any(ge & gt, axis=0)
    if np.any(dominated):
        warnings.warn(f"{name} contains {int(dominated.sum())} dominated point(s); "
                      "filtering them before computing the metric", stacklevel=3)
        pts = pts[~dominated]
    return pts


def _check_reference(front: np.ndarray, z_ref) -> np.ndarray:
    z = np.asarray(z_ref, dtype=float)
    if z.shape != (front.shape[1],):
        raise ValueError(f"reference point shape {z.shape} does not match front")
    if not np.all(front > z):
        raise ValueError(
            "invalid reference point: it must lie strictly below every front "
            "point in every objective")
    return z


def hypervolume(front, z_ref, samples: int = 10**6,
                rng: np.random.Generator | None = None) -> float:
    """Volume dominated by ``front`` and bounded below by ``z_ref``.

    Exact for two objectives; for three or more a Monte-Carlo estimate with
    ``samples`` draws is returned (see :func:`hypervolume_monte_carlo` for
    the standard error).
    """
    pts = _validated_front(front)
    z = _check_reference(pts, z_ref)
    if pts.shape[1] == 2:
        order = np.argsort(-pts[:, 0], kind="stable")
        pts = pts[order]
        hv = 0.0
        for i, (x, y) in enumerate(pts):
            next_x = pts[i + 1, 0] if i + 1 < len(pts) else z[0]
            hv += (x - next_x) * (y - z[1])
        return float(hv)
    return hypervolume_monte_carlo(pts, z, samples, rng)[0]


def _draw_limits(pts: np.ndarray, z: np.ndarray, span: np.ndarray) -> np.ndarray:
    """For each point and objective, the largest double ``t`` in [0, 1) with
    ``z + t * span <= p`` (each operation rounded, as numpy rounds it).

    The scaled draw ``fl(fl(u * span) + z)`` never decreases as ``u`` grows,
    so it lies at or below ``p`` exactly when ``u <= t``. Non-negative
    doubles order as their bit patterns, so ``t`` is found by bisecting those.
    ``lo`` starts at -1, whose bits read as NaN, which no draw is ``<=``.
    """
    lo = np.full(pts.shape, -1, dtype=np.int64)
    hi = np.full(pts.shape, _ONE_BITS, dtype=np.int64)
    while (hi - lo > 1).any():
        mid = (lo + hi) >> 1
        below = mid.view(np.float64) * span + z <= pts
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return lo.view(np.float64)


def _count_hits(pts: np.ndarray, z: np.ndarray, span: np.ndarray, samples: int,
                rng: np.random.Generator) -> int:
    """Draws of one ``(samples, m)`` call, made block by block, that lie in
    some point's box."""
    limits = _draw_limits(pts, z, span)
    rows = min(samples, SAMPLE_BLOCK)
    block = np.empty((rows, pts.shape[1]))
    columns = np.empty((pts.shape[1], rows))   # the block transposed, each objective contiguous
    hits = 0
    for start in range(0, samples, rows):
        n = min(rows, samples - start)
        # the draws of one (samples, m) call, in order
        rng.random(out=block[:n])
        draws = columns[:, :n]
        draws[...] = block[:n].T
        # a draw is a hit when it lies below some point in every objective
        hit = np.zeros(n, dtype=bool)
        inside, below = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
        for limit in limits:
            np.less_equal(draws[0], limit[0], out=inside)
            for j in range(1, len(limit)):
                inside &= np.less_equal(draws[j], limit[j], out=below)
            hit |= inside
        hits += int(np.count_nonzero(hit))
    return hits


def hypervolume_monte_carlo(front, z_ref, samples: int = 10**6,
                            rng: np.random.Generator | None = None):
    """Monte-Carlo hypervolume estimate; returns ``(estimate, std_error)``.

    Points are drawn uniformly in the axis-aligned box spanned by ``z_ref``
    and the per-objective maxima of the front, as ``z_ref + u * span`` from
    uniform ``u`` in [0, 1); the dominated fraction scales the box volume.
    The draws are never scaled: each ``u`` is compared with its limit from
    :func:`_draw_limits`, which gives the same hits as scaling it first.

    No draws are made when ``rng`` runs on a PCG64 bit generator and the
    largest draw, scaled, lies in some point's box in every objective (as
    it does for a one-point front): every draw would hit. The generator is
    then advanced past the ``samples * m`` draws, its buffered 32-bit output
    kept, so it ends in the state that drawing leaves.
    """
    pts = _validated_front(front)
    z = _check_reference(pts, z_ref)
    if rng is None:
        rng = np.random.default_rng(0)
    span = pts.max(axis=0) - z
    volume = float(np.prod(span))
    if volume == 0.0:
        return 0.0, 0.0
    samples = int(samples)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    bits = rng.bit_generator
    if type(bits) is np.random.PCG64 and (_LAST_DRAW * span + z <= pts).all(axis=1).any():
        kept = bits.state
        bits.advance(samples * pts.shape[1])   # one output per double; clears the buffer
        bits.state = {**bits.state, "has_uint32": kept["has_uint32"], "uinteger": kept["uinteger"]}
        hits = samples
    else:
        hits = _count_hits(pts, z, span, samples, rng)
    frac = hits / samples
    estimate = volume * frac
    std_error = volume * float(np.sqrt(frac * (1.0 - frac) / samples))
    return estimate, std_error


def igd(front, reference_front) -> float:
    """Inverted generational distance from a reference front.

    ``(1/|Z|) * sqrt(sum_z min_v ||z - v||^2)`` with the square root taken
    outside the sum. Zero exactly when every reference point appears in the
    front. The reference front is taken verbatim: every one of its points
    contributes a distance, dominated or not.
    """
    pts = _validated_front(front)
    ref = np.atleast_2d(np.asarray(reference_front, dtype=float))
    if ref.size == 0 or not np.all(np.isfinite(ref)):
        raise ValueError("reference front must be non-empty and finite")
    if pts.shape[1] != ref.shape[1]:
        raise ValueError("front and reference front have different objective counts")
    sq = ((ref[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    return float(np.sqrt(sq.min(axis=1).sum()) / ref.shape[0])


def sparsity(front) -> float:
    """Average squared gap between consecutive front values per objective.

    Lower is denser. A single-point front has sparsity 0 by convention.
    """
    pts = _validated_front(front)
    n = pts.shape[0]
    if n == 1:
        return 0.0
    total = 0.0
    for j in range(pts.shape[1]):
        col = np.sort(pts[:, j])
        total += float(((col[1:] - col[:-1]) ** 2).sum())
    return total / (n - 1)


def expected_utility(front, weights) -> float:
    """Mean over the weight set of the best weighted-sum utility in the front."""
    pts = _validated_front(front)
    ws = np.atleast_2d(np.asarray(weights, dtype=float))
    if ws.size == 0:
        raise ValueError("weight set must be non-empty")
    if ws.shape[1] != pts.shape[1]:
        raise ValueError("weights and front have different objective counts")
    utilities = ws @ pts.T
    return float(utilities.max(axis=1).mean())
