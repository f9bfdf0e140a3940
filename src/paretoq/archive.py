"""Pareto dominance, non-dominated pruning, and the external archive.

The archive keeps every (evaluation, policy snapshot) pair whose evaluation
is not Pareto-dominated by any other kept evaluation. Snapshots are opaque
byte payloads so the archive never depends on learner internals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .momdp import ensure_objective


def prune(candidates):
    """Non-dominated, de-duplicated subset of ``(eval, payload)`` pairs.

    Every entry dominated by some other input entry is dropped, as is any
    later entry whose evaluation exactly repeats an earlier one. Input order
    of the survivors is preserved. One stable sort (descending, column 0 first)
    puts each point after every point >= it everywhere; one sweep then takes
    the first live point as a survivor and drops every later point it is >=
    everywhere, in one comparison (a point it drops drops nothing it does not).
    All candidates are validated as one array; the survivors come back as the
    rows of one new array, each with its payload.
    """
    pairs = list(candidates)
    if not pairs:
        return []
    try:
        mat = np.asarray([eval_ for eval_, _ in pairs], dtype=float)
    except (TypeError, ValueError):
        mat = None
    if mat is None or mat.ndim != 2 or not np.isfinite(mat).all():
        for eval_, _ in pairs:   # raise what checking one vector at a time raises
            ensure_objective(eval_)
        raise ValueError("objective vectors have mismatched lengths")
    rows = mat.tolist()
    order = sorted(range(len(rows)), key=rows.__getitem__, reverse=True)   # stable
    # one contiguous row per objective: a comparison reduces across m rows
    ranked, live = np.ascontiguousarray(mat[order].T), np.ones(len(order), dtype=bool)
    for at in range(len(order)):
        if live[at]:
            live[at + 1:] &= ~(ranked[:, at + 1:] <= ranked[:, at, None]).all(axis=0)
    keep = sorted(i for i, alive in zip(order, live.tolist()) if alive)
    return [(row, pairs[i][1]) for row, i in zip(mat[keep], keep)]


def crowding_distance(front) -> np.ndarray:
    """NSGA-II crowding distance of each point in ``front``.

    Per objective, points are sorted (stably) and the first and last get
    infinite distance; interior points accumulate the normalized gap between
    their sorted neighbors. An objective whose range is zero contributes
    nothing to interior points.
    """
    pts = np.atleast_2d(np.asarray(front, dtype=float))
    n, m = pts.shape
    if n <= 2:
        return np.full(n, np.inf)
    dist = np.zeros(n)
    for j in range(m):
        order = np.argsort(pts[:, j], kind="stable")
        span = pts[order[-1], j] - pts[order[0], j]
        dist[order[0]] = dist[order[-1]] = np.inf
        if span == 0:
            continue
        dist[order[1:-1]] += (pts[order[2:], j] - pts[order[:-2], j]) / span
    return dist


@dataclass(eq=False)
class ArchiveEntry:
    eval: np.ndarray
    payload: object
    subproblem: int = -1
    step: int = 0


class ParetoArchive:
    """Mutually non-dominated store of evaluations with opaque payloads.

    Treat ``entries`` as read-only: acceptance checks read the evaluations
    as one cached matrix, which every accepted insert drops (only an insert
    removes entries). ``inserts`` counts accepted inserts: while it holds
    still, so does the archive.
    """

    def __init__(self):
        self.entries: list[ArchiveEntry] = []
        self._mat: np.ndarray | None = None
        self.inserts = 0

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def evals(self) -> np.ndarray:
        if not self.entries:
            return np.empty((0, 0))
        return np.array([e.eval for e in self.entries])

    def would_accept(self, eval_) -> bool:
        """Acceptance check without mutating (and without snapshot cost).

        An entry rejects ``eval_`` when it equals or dominates it, that is
        when it is >= in every objective (evaluations are finite).
        """
        vec = ensure_objective(eval_)
        if not self.entries:
            return True
        if self._mat is None:
            self._mat = self.evals()
        if vec.shape[0] != self._mat.shape[1]:
            raise ValueError(
                f"objective vectors have mismatched lengths {vec.shape[0]} "
                f"vs {self._mat.shape[1]}")
        return not (self._mat >= vec).all(axis=1).any()

    def insert(self, eval_, payload, subproblem: int = -1, step: int = 0) -> bool:
        """Insert if non-dominated and new; evict entries it dominates.

        Returns whether the candidate was accepted.
        """
        vec = ensure_objective(eval_)
        if not self.would_accept(vec):
            return False
        if self.entries:   # vec repeats no entry, so it dominates those it is >= everywhere
            beaten = (self._mat <= vec).all(axis=1).tolist()
            self.entries = [e for e, gone in zip(self.entries, beaten) if not gone]
        self.entries.append(ArchiveEntry(vec, payload, subproblem, step))
        self._mat = None  # rebuilt by the next check
        self.inserts += 1
        return True
