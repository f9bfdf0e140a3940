"""Experience buffers and tabular learners.

Four learner kinds share one interface (zero-initialized tables, an in-place
update per experience or episode, greedy policy extraction, deep-copy
transfer, flat-text serialization):

* :class:`QTableScalar` -- classic Q-learning on the scalarized reward.
* :class:`QTableVector` -- one value vector per action; the bootstrap action
  maximizes the weighted sum of the next state's vectors.
* :class:`QTableEnvelope` -- vector values indexed additionally by a finite
  weight set; the bootstrap maximizes over next actions *and* weights.
* :class:`QTableEsr` -- Monte-Carlo control on states augmented with the
  reward accrued so far, so the scalarization applies to whole episodic
  returns rather than expectations (the criterion that can reach concave
  front points with a non-linear scalarization).

Buffers store whole episodes. Capacity counts individual steps; ``fifo``
replacement trims the oldest steps, ``diverse-crowding`` drops the complete
episode whose episodic return is most crowded.
"""

from __future__ import annotations

import numpy as np

from .archive import crowding_distance
from .decomposition import Scalarization
from .momdp import GREEDY, Experience, TabularPolicy, accrued_key

FIFO = "fifo"
DIVERSE_CROWDING = "diverse-crowding"


class _EpisodeSlot:
    __slots__ = ("steps", "trimmed")

    def __init__(self, steps):
        self.steps = list(steps)
        self.trimmed = False

    @property
    def complete(self) -> bool:
        return bool(self.steps) and not self.trimmed and self.steps[-1].terminal

    def return_vector(self) -> np.ndarray:
        return sum(e.reward for e in self.steps)


class ExperienceBuffer:
    """Bounded store of experiences, grouped by the episode they came from.

    Flat-sequence and complete-episode views are cached incrementally so
    pushing and uniform sampling stay cheap even with many small episodes;
    evictions rebuild the caches (they only happen once capacity is hit).

    A buffer pickles as columns: one array per :class:`Experience` field,
    plus each episode slot's length and ``trimmed`` flag. An unpickled
    buffer keeps the columns and rebuilds its experiences, slots and caches
    on first access, so a report that crosses a process boundary costs
    little unless its buffers are read.
    """

    def __init__(self, capacity: int, replacement: str = FIFO):
        if capacity < 1:
            raise ValueError("buffer capacity must be positive")
        if replacement not in (FIFO, DIVERSE_CROWDING):
            raise ValueError(f"unknown replacement policy {replacement!r}")
        self.capacity = int(capacity)
        self.replacement = replacement
        self._slots: list[_EpisodeSlot] = []
        self._size = 0
        self._flat: list[Experience] = []
        self._complete: list[list[Experience]] = []
        # the state of an unpickled buffer until it is first read (see _thaw)
        self._columns: dict | None = None

    def __getstate__(self) -> dict:
        if self._columns is not None:   # unpickled and never read
            return dict(self.__dict__)
        flat = self._flat
        m = len(flat[0].reward) if flat else 0
        return {
            "capacity": self.capacity, "replacement": self.replacement, "_size": self._size,
            "_columns": {
                "lengths": np.array([len(slot.steps) for slot in self._slots], dtype=np.int64),
                "trimmed": np.array([slot.trimmed for slot in self._slots], dtype=bool),
                "state": np.array([e.state for e in flat], dtype=np.int64),
                "action": np.array([e.action for e in flat], dtype=np.int64),
                "reward": np.array([e.reward for e in flat], dtype=float).reshape(len(flat), m),
                "next_state": np.array([e.next_state for e in flat], dtype=np.int64),
                "terminal": np.array([e.terminal for e in flat], dtype=bool),
                "accrued": np.array([e.accrued for e in flat], dtype=float).reshape(len(flat), m),
            },
        }

    def _thaw(self):
        """Rebuild the experiences, slots and caches of an unpickled buffer."""
        cols, self._columns = self._columns, None
        flat = [Experience(*fields) for fields in zip(
            cols["state"].tolist(), cols["action"].tolist(), cols["reward"],
            cols["next_state"].tolist(), cols["terminal"].tolist(), cols["accrued"])]
        self._slots = []
        start = 0
        for length, trimmed in zip(cols["lengths"].tolist(), cols["trimmed"].tolist()):
            slot = _EpisodeSlot(flat[start:start + length])
            slot.trimmed = trimmed
            self._slots.append(slot)
            start += length
        self._rebuild_caches()

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index: int) -> Experience:
        """The ``index``-th experience in :meth:`experiences` order."""
        if self._columns is not None:
            self._thaw()
        return self._flat[index]

    def experiences(self):
        if self._columns is not None:
            self._thaw()
        yield from self._flat

    def complete_episodes(self):
        """Complete (untrimmed, terminated) episodes; treat as read-only."""
        if self._columns is not None:
            self._thaw()
        return self._complete

    def _rebuild_caches(self):
        self._flat = [e for slot in self._slots for e in slot.steps]
        self._complete = [slot.steps for slot in self._slots if slot.complete]

    def push(self, experiences) -> "ExperienceBuffer":
        """Append one episode (or fragment) and enforce capacity."""
        experiences = list(experiences)
        if not experiences:
            return self
        if self._columns is not None:
            self._thaw()
        slot = _EpisodeSlot(experiences)
        self._slots.append(slot)
        self._size += len(experiences)
        self._flat.extend(slot.steps)
        if slot.complete:
            self._complete.append(slot.steps)
        if self._size <= self.capacity:
            return self
        if self.replacement == FIFO:
            while self._size > self.capacity:
                oldest = self._slots[0]
                oldest.steps.pop(0)
                oldest.trimmed = True
                self._size -= 1
                if not oldest.steps:
                    self._slots.pop(0)
        else:
            while self._size > self.capacity and self._slots:
                returns = [slot.return_vector() for slot in self._slots]
                victim = int(np.argmin(crowding_distance(returns)))
                self._size -= len(self._slots[victim].steps)
                self._slots.pop(victim)
        self._rebuild_caches()
        return self

    def sample(self, batch: int, rng: np.random.Generator):
        """``batch`` experiences drawn uniformly with replacement."""
        if batch == 0:
            return []
        if self._size == 0:
            raise ValueError("empty buffer")
        if self._columns is not None:
            self._thaw()
        idx = rng.integers(0, len(self._flat), size=int(batch))
        return [self._flat[i] for i in idx]

    def sample_episodes(self, count: int, rng: np.random.Generator):
        """``count`` complete episodes drawn uniformly with replacement."""
        if count == 0:
            return []
        if self._columns is not None:
            self._thaw()
        if not self._complete:
            raise ValueError("empty buffer")
        idx = rng.integers(0, len(self._complete), size=int(count))
        return [self._complete[i] for i in idx]


class QTableScalar:
    """State x action table of scalars for scalarized Q-learning."""

    kind = "scalar"

    def __init__(self, n_actions: int, alpha: float = 0.1, gamma: float = 1.0):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.n_actions = int(n_actions)
        self.alpha = float(alpha)
        self.gamma = float(gamma)
        self.table: dict[int, np.ndarray] = {}

    def row(self, state) -> np.ndarray:
        row = self.table.get(state)
        if row is None:
            row = self.table[state] = np.zeros(self.n_actions)
        return row


class QTableVector:
    """State x action table of objective vectors."""

    kind = "vector"

    def __init__(self, n_actions: int, n_objectives: int,
                 alpha: float = 0.1, gamma: float = 1.0):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.n_actions = int(n_actions)
        self.n_objectives = int(n_objectives)
        self.alpha = float(alpha)
        self.gamma = float(gamma)
        self.table: dict[int, np.ndarray] = {}

    def block(self, state) -> np.ndarray:
        block = self.table.get(state)
        if block is None:
            block = self.table[state] = np.zeros((self.n_actions, self.n_objectives))
        return block


class QTableEnvelope:
    """Vector table indexed by state, a finite weight set, and action."""

    kind = "envelope"

    def __init__(self, n_actions: int, n_objectives: int, weights,
                 alpha: float = 0.1, gamma: float = 1.0):
        if not weights:
            raise ValueError("envelope tables need a non-empty weight set")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.n_actions = int(n_actions)
        self.n_objectives = int(n_objectives)
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.alpha = float(alpha)
        self.gamma = float(gamma)
        self.table: dict[int, np.ndarray] = {}

    def weight_index(self, lam) -> int:
        lam = np.asarray(lam, dtype=float)
        for i, w in enumerate(self.weights):
            if np.array_equal(w, lam):
                return i
        raise ValueError(f"weight vector {lam} is not in the envelope weight set")

    def block(self, state) -> np.ndarray:
        block = self.table.get(state)
        if block is None:
            block = self.table[state] = np.zeros(
                (len(self.weights), self.n_actions, self.n_objectives))
        return block


class QTableEsr:
    """Scalar table over (state, accrued reward) augmented keys.

    On integer-reward environments the accrued vectors are exact, so no
    discretization is involved; the augmented state is a sufficient statistic
    for the episodic scalarized return.
    """

    kind = "esr"

    def __init__(self, n_actions: int, n_objectives: int,
                 alpha: float = 0.1, gamma: float = 1.0):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.n_actions = int(n_actions)
        self.n_objectives = int(n_objectives)
        self.alpha = float(alpha)
        self.gamma = float(gamma)
        self.table: dict[tuple, np.ndarray] = {}
        self.visits: dict[tuple, np.ndarray] = {}

    def row(self, state, accrued) -> np.ndarray:
        return self._entry(accrued_key(state, accrued))[0]

    def _entry(self, key):
        """``(values, visit counts)`` of ``key``, created at zero on first use."""
        row = self.table.get(key)
        if row is None:
            row = self.table[key] = np.zeros(self.n_actions)
            visits = self.visits[key] = np.zeros(self.n_actions, dtype=np.int64)
            return row, visits
        return row, self.visits[key]


def update_scalarized_q(q: QTableScalar, e: Experience, g: Scalarization, lam) -> QTableScalar:
    """One temporal-difference step on the scalarized reward."""
    reward = g.score(e.reward, lam)
    bootstrap = 0.0 if e.terminal else float(q.row(e.next_state).max())
    row = q.row(e.state)
    row[e.action] += q.alpha * (reward + q.gamma * bootstrap - row[e.action])
    return q


def update_vector_q(q: QTableVector, e: Experience, lam) -> QTableVector:
    """Component-wise TD step; the bootstrap action maximizes ``lam @ q``."""
    lam = np.asarray(lam, dtype=float)
    if e.terminal:
        target = e.reward
    else:
        nxt = q.block(e.next_state)
        best = int(np.argmax(nxt @ lam))
        target = e.reward + q.gamma * nxt[best]
    block = q.block(e.state)
    block[e.action] += q.alpha * (target - block[e.action])
    return q


def update_envelope_q(q: QTableEnvelope, e: Experience, lam) -> QTableEnvelope:
    """TD step whose bootstrap maximizes ``lam @ q`` over next actions and
    the whole weight set; ties resolve to the lowest (action, weight) pair."""
    return _update_envelope_row(q, e, lam, q.weight_index(lam))


def _update_envelope_row(q: QTableEnvelope, e: Experience, lam, l_idx: int) -> QTableEnvelope:
    """:func:`update_envelope_q` of the row ``l_idx`` that ``lam`` resolved to."""
    lam = np.asarray(lam, dtype=float)
    if e.terminal:
        target = e.reward
    else:
        nxt = q.block(e.next_state)                     # (L, A, m)
        scores = np.einsum("lam,m->al", nxt, lam)       # action-major for ties
        flat_best = int(np.argmax(scores))
        a_best, l_best = divmod(flat_best, len(q.weights))
        target = e.reward + q.gamma * nxt[l_best, a_best]
    block = q.block(e.state)
    block[l_idx, e.action] += q.alpha * (target - block[l_idx, e.action])
    return q


def update_esr_mc(q: QTableEsr, episode, g: Scalarization, lam) -> QTableEsr:
    """Monte-Carlo update of a complete episode toward its scalarized return."""
    episode = list(episode)
    if not episode or not episode[-1].terminal:
        raise ValueError("incomplete episode: ESR updates need a finished episode")
    total = episode[-1].accrued + episode[-1].reward
    target = g.score(total, lam)
    for e in episode:
        row, visits = q._entry(accrued_key(e.state, e.accrued))
        row[e.action] += q.alpha * (target - row[e.action])
        visits[e.action] += 1
    return q


def greedy_policy(q, lam=None) -> TabularPolicy:
    """Deterministic greedy policy of any table kind (lowest-index ties).

    Vector and envelope tables need the weight vector that scalarizes their
    entries; ESR tables yield a policy keyed on (state, accrued reward).
    States the table never visited fall back to a zero row, i.e. action 0.

    For scalar and ESR tables the policy is a live view: its preferences are
    the learner's own table, not a copy, so updating the table afterwards
    changes the policy's actions. Take :func:`clone_table` first to keep a
    frozen policy. Vector and envelope policies are scalarized snapshots.
    """
    default = np.zeros(q.n_actions)
    if isinstance(q, QTableScalar):
        return TabularPolicy(GREEDY, q.table, default_row=default)
    if isinstance(q, QTableVector):
        lam = np.asarray(lam, dtype=float)
        prefs = {s: block @ lam for s, block in q.table.items()}
        return TabularPolicy(GREEDY, prefs, default_row=default)
    if isinstance(q, QTableEnvelope):
        l_idx = q.weight_index(lam)
        lam = np.asarray(lam, dtype=float)
        prefs = {s: block[l_idx] @ lam for s, block in q.table.items()}
        return TabularPolicy(GREEDY, prefs, default_row=default)
    if isinstance(q, QTableEsr):
        return TabularPolicy(GREEDY, q.table, augmented=True, default_row=default)
    raise TypeError(f"unknown table kind {type(q).__name__}")


def transfer_policy(source, destination):
    """Value-copy of ``source`` compatible with ``destination``'s kind.

    The returned table shares nothing with the source: updating either side
    afterwards leaves the other untouched.
    """
    if type(source) is not type(destination):
        raise TypeError(
            f"kind mismatch: cannot transfer {type(source).__name__} into "
            f"{type(destination).__name__}")
    return clone_table(source)


def clone_table(q):
    if isinstance(q, QTableScalar):
        out = QTableScalar(q.n_actions, q.alpha, q.gamma)
    elif isinstance(q, QTableVector):
        out = QTableVector(q.n_actions, q.n_objectives, q.alpha, q.gamma)
    elif isinstance(q, QTableEnvelope):
        out = QTableEnvelope(q.n_actions, q.n_objectives,
                             [w.copy() for w in q.weights], q.alpha, q.gamma)
    elif isinstance(q, QTableEsr):
        out = QTableEsr(q.n_actions, q.n_objectives, q.alpha, q.gamma)
        out.visits = {k: v.copy() for k, v in q.visits.items()}
    else:
        raise TypeError(f"unknown table kind {type(q).__name__}")
    out.table = {k: v.copy() for k, v in q.table.items()}
    return out


# --- flat text serialization -------------------------------------------------
#
# Line format, tab separated:  <state-key>  <action>  <comma-joined values>
# State keys: plain state id; "s|w<i>" for envelope weight rows; "s|c0,c1"
# for accrued-augmented keys. Floats are rendered with repr round-tripping.

_FMT = "%.17g"


def _fmt_vec(values) -> str:
    return ",".join(_FMT % v for v in np.atleast_1d(values))


def serialize_table(q) -> str:
    lines = [f"paretoq-qtable-v1 kind={q.kind}",
             f"actions={q.n_actions} alpha={_FMT % q.alpha} gamma={_FMT % q.gamma}"]
    if q.kind != "scalar":
        lines.append(f"objectives={q.n_objectives}")
    if q.kind == "envelope":
        lines.append("weights=" + ";".join(_fmt_vec(w) for w in q.weights))
    if q.kind == "scalar":
        for s in sorted(q.table):
            for a in range(q.n_actions):
                lines.append(f"{s}\t{a}\t{_fmt_vec(q.table[s][a])}")
    elif q.kind == "vector":
        for s in sorted(q.table):
            for a in range(q.n_actions):
                lines.append(f"{s}\t{a}\t{_fmt_vec(q.table[s][a])}")
    elif q.kind == "envelope":
        for s in sorted(q.table):
            for l in range(len(q.weights)):
                for a in range(q.n_actions):
                    lines.append(f"{s}|w{l}\t{a}\t{_fmt_vec(q.table[s][l, a])}")
    elif q.kind == "esr":
        for s, acc in sorted(q.table):
            key = (s, acc)
            acc_txt = _fmt_vec(acc) if acc else ""
            for a in range(q.n_actions):
                lines.append(f"{s}|c{acc_txt}\t{a}\t{_fmt_vec(q.table[key][a])}"
                             f"\t{q.visits[key][a]}")
    return "\n".join(lines) + "\n"


def deserialize_table(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = dict(part.split("=", 1) for part in lines[0].split()[1:])
    meta = dict(part.split("=", 1) for part in lines[1].split())
    kind = head["kind"]
    n_actions = int(meta["actions"])
    alpha = float(meta["alpha"])
    gamma = float(meta["gamma"])
    body = 2
    n_obj = None
    if kind != "scalar":
        n_obj = int(lines[body].split("=", 1)[1])
        body += 1
    if kind == "scalar":
        q = QTableScalar(n_actions, alpha, gamma)
    elif kind == "vector":
        q = QTableVector(n_actions, n_obj, alpha, gamma)
    elif kind == "envelope":
        weight_txt = lines[body].split("=", 1)[1]
        weights = [np.array([float(x) for x in w.split(",")])
                   for w in weight_txt.split(";")]
        body += 1
        q = QTableEnvelope(n_actions, n_obj, weights, alpha, gamma)
    elif kind == "esr":
        q = QTableEsr(n_actions, n_obj, alpha, gamma)
    else:
        raise ValueError(f"unknown table kind {kind!r} in serialized text")

    for line in lines[body:]:
        fields = line.split("\t")
        key_txt, action = fields[0], int(fields[1])
        values = np.array([float(x) for x in fields[2].split(",")])
        if kind == "scalar":
            q.row(int(key_txt))[action] = values[0]
        elif kind == "vector":
            q.block(int(key_txt))[action] = values
        elif kind == "envelope":
            s_txt, w_txt = key_txt.split("|w")
            q.block(int(s_txt))[int(w_txt), action] = values
        else:
            s_txt, acc_txt = key_txt.split("|c")
            acc = [float(x) for x in acc_txt.split(",")] if acc_txt else []
            row, visits = q._entry(accrued_key(int(s_txt), acc))
            row[action] = values[0]
            visits[action] = int(fields[3])
    return q
