"""Scalarization, weight generation and adaptation, reference points,
neighborhoods, and subproblem selection.

Weight vectors live on the probability simplex: non-negative entries that
sum to one. The weighted sum is linear and can only ever prefer points on
the convex hull of a front; the Tchebycheff form measures the largest
weighted distance to a utopian reference point and can single out concave
front points as well. Tchebycheff is a quantity to minimize; the
:class:`Scalarization` adapter negates it so that every learner maximizes
one uniform "score".
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .momdp import ensure_objective

WEIGHTED_SUM = "weighted-sum"
TCHEBYCHEFF = "tchebycheff"


def _check_weight(lam) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0):
        raise ValueError(f"weight vector has negative entries: {lam}")
    if abs(lam.sum() - 1.0) > 1e-9:
        raise ValueError(f"weight vector sums to {lam.sum()!r}, expected 1")
    return lam


def scalarize_ws(f, lam) -> float:
    """Weighted sum ``sum(lam_i * f_i)``, which must be finite."""
    f = np.asarray(f, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if f.shape != lam.shape:
        raise ValueError(f"length mismatch: f has shape {f.shape}, weights {lam.shape}")
    score = float(np.dot(lam, f))
    if not math.isfinite(score):
        raise ValueError(f"weighted sum of {f} under weights {lam} is {score}, not finite")
    return score


def scalarize_tch(f, lam, z) -> float:
    """Largest weighted distance to the reference point (to be minimized).

    ``max_i lam_i * |f_i - z_i|``, where ``z`` is a utopian point at least
    as good as anything attainable.

    The terms are Python floats, which repeat ``np.max(lam * np.abs(f - z))``
    bit for bit: products and a max, no sum. A term that is not finite (say,
    against a reference still at its ``-inf`` sentinel) raises.
    """
    f = np.asarray(f, dtype=float)
    lam = np.asarray(lam, dtype=float)
    z_vals = z.values if isinstance(z, ReferencePoint) else np.asarray(z, dtype=float)
    if not (f.shape == lam.shape == z_vals.shape):
        raise ValueError("length mismatch between vector, weights and reference point")
    if f.ndim != 1:
        raise ValueError(f"objective vector must be 1-D, got shape {f.shape}")
    terms = [w * abs(x - r) for x, w, r in zip(f.tolist(), lam.tolist(), z_vals.tolist())]
    if not all(map(math.isfinite, terms)):
        raise ValueError(f"Tchebycheff terms of {f} under weights {lam} against reference "
                         f"{z_vals} are {terms}, not all finite")
    return max(terms)


class ReferencePoint:
    """Utopian anchor for Tchebycheff scalarization.

    The point starts at ``values``, or at a -inf sentinel given only ``m``,
    and on every update moves to the per-objective maximum observed so far
    plus the margin ``tau``; it never decreases. A Tchebycheff score against
    the sentinel, before the first ``update``, raises ``ValueError``.
    """

    def __init__(self, m: int | None = None, tau: float = 0.5, values=None):
        if tau < 0:
            raise ValueError("tau must be >= 0")
        if values is not None:
            self.values = np.asarray(values, dtype=float)
        elif m is not None:
            self.values = np.full(m, -np.inf)
        else:
            raise ValueError("either m or explicit values are required")
        self.tau = float(tau)

    def update(self, observed) -> "ReferencePoint":
        """Raise each component to ``max(observed) + tau``; monotone."""
        observed = [ensure_objective(v, self.values.shape[0]) for v in observed]
        if observed:
            best = np.max(np.array(observed), axis=0)
            self.values = np.maximum(self.values, best + self.tau)
        return self


class Scalarization:
    """Uniform maximize-this-score adapter over both scalarization kinds."""

    def __init__(self, kind: str = WEIGHTED_SUM, reference: ReferencePoint | None = None):
        if kind not in (WEIGHTED_SUM, TCHEBYCHEFF):
            raise ValueError(f"unknown scalarization kind {kind!r}")
        if kind == TCHEBYCHEFF and reference is None:
            raise ValueError("tchebycheff scalarization requires a reference point")
        self.kind = kind
        self.reference = reference

    def score(self, f, lam) -> float:
        """Scalar score of ``f`` under weights ``lam``; larger is better."""
        if self.kind == WEIGHTED_SUM:
            return scalarize_ws(f, lam)
        return -scalarize_tch(f, lam, self.reference)


def lattice_divisions(m: int, n: int) -> int | None:
    """``H`` with ``C(H+m-1, m-1) == n``: the divisions per objective of the
    ``m``-simplex lattice of ``n`` points, or None if no lattice of two or
    more points has ``n``."""
    h = n - 1 if m == 2 else 1
    while m > 2 and math.comb(h + m - 1, m - 1) < n:
        h += 1
    return h if m >= 2 and n >= 2 and math.comb(h + m - 1, m - 1) == n else None


def generate_weights_uniform(m: int, n: int):
    """``n >= 2`` evenly spread weight vectors on the ``m``-simplex: its lattice
    of gap ``1/H`` (:func:`lattice_divisions`), for two objectives
    ``(i/(n-1), 1-i/(n-1))``. Counts that no lattice produces are rejected."""
    h = lattice_divisions(m, n)
    if h is None:
        raise ValueError(f"unsupported weight count: no simplex lattice of dimension {m} "
                         f"has exactly {n} >= 2 points")
    if m == 2:
        # complement built from the mirrored index so the set is exactly
        # symmetric under objective swap
        return [np.array([i / (n - 1), (n - 1 - i) / (n - 1)]) for i in range(n)]
    weights = []
    for combo in itertools.combinations(range(h + m - 1), m - 1):
        parts = np.diff((-1,) + combo + (h + m - 1,)) - 1
        weights.append(parts / h)
    return weights


def adapt_weights_psa(lam, own_eval, nearest_neighbor_eval, delta: float = 1.05) -> np.ndarray:
    """Multiplicative weight update pushing a subproblem away from its
    nearest non-dominated neighbor.

    Per objective the weight is multiplied by ``delta`` where the
    subproblem's own evaluation already beats the neighbor, divided by it
    elsewhere, and the result is renormalized onto the simplex (weighted-sum
    argmax is invariant to positive scaling, so renormalizing preserves
    selection behavior). Zero components stay zero.
    """
    if delta <= 1.0:
        raise ValueError("delta must be > 1")
    lam = _check_weight(lam)
    own = ensure_objective(own_eval, lam.shape[0])
    other = ensure_objective(nearest_neighbor_eval, lam.shape[0])
    scaled = np.where(own >= other, lam * delta, lam / delta)
    return scaled / scaled.sum()


def build_neighborhood(weights, k: int):
    """For each subproblem, its ``min(k, n-1)`` nearest others.

    Distance is Euclidean between weight vectors; lists are ordered by
    ascending distance with ties broken by index, and never include the
    subproblem itself.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    ws = [np.asarray(w, dtype=float) for w in weights]
    n = len(ws)
    width = min(k, n - 1)
    neighborhood = []
    for i in range(n):
        ranked = sorted(
            ((float(np.linalg.norm(ws[i] - ws[j])), j) for j in range(n) if j != i))
        neighborhood.append([j for _, j in ranked[:width]])
    return neighborhood


def select_subproblem(round_index: int, n: int) -> int:
    """Rotating selection: every subproblem is trained equally often."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return round_index % n


def nearest_objective_neighbor(own_eval, evals) -> int | None:
    """Index of the evaluation closest to ``own_eval`` in objective space,
    excluding exact copies of it. None when no distinct evaluation exists."""
    own = np.asarray(own_eval, dtype=float)
    best = None
    best_dist = np.inf
    for idx, vec in enumerate(evals):
        vec = np.asarray(vec, dtype=float)
        if np.array_equal(vec, own):
            continue
        d = float(np.linalg.norm(vec - own))
        if d < best_dist:
            best, best_dist = idx, d
    return best
