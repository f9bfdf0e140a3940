"""Experience buffers and tabular learners.

Four learner kinds share one interface (zero-initialized tables, an in-place
update per sampled batch or episode, greedy policy extraction, deep-copy
transfer, flat-text serialization):

* :class:`QTableScalar` -- classic Q-learning on the scalarized reward.
* :class:`QTableVector` -- one value vector per action; the bootstrap action
  maximizes the weighted sum of the next state's vectors.
* :class:`QTableEnvelope` -- vector values indexed additionally by a finite
  weight set; the bootstrap maximizes over next actions *and* weights.
  :func:`update_envelope_q` updates every weight's row per experience.
* :class:`QTableEsr` -- Monte-Carlo control on states augmented with the
  reward accrued so far, so the scalarization applies to whole episodic
  returns rather than expectations (the criterion that can reach concave
  front points with a non-linear scalarization).

Scalar and ESR rows are lists of Python floats, which step like numpy
float64 bit for bit at less cost; vector and envelope blocks are arrays.
An ESR row also keeps its greedy action and its table counts the changes
(``flips``), so its values change only through :func:`update_esr_mc`,
deserialization or a fresh :meth:`QTableEsr.row` hand-out: never write to a
row held across an update.

Every table value, score and weight is finite, so greedy choice is Python's
``max`` (the first maximum wins). Each way in raises on a value that is not:
a ``gamma`` outside [0, 1], serialized text, an envelope weight set, a vector
greedy policy's weight and a scalarizer's score. Rows written by hand,
hand-built experiences and rewards that overflow a table are not covered.

Buffers store whole episodes. Capacity counts individual steps; ``fifo``
replacement trims the oldest steps, ``diverse-crowding`` drops the whole
episode whose episodic return is most crowded.
"""

from __future__ import annotations

import math

import numpy as np

from .archive import crowding_distance
from .decomposition import Scalarization
from .momdp import Experience, TabularPolicy, _EsrRow, _Episode, accrued_key

FIFO = "fifo"
DIVERSE_CROWDING = "diverse-crowding"


class ExperienceBuffer:
    """Bounded store of experiences, grouped by the episode they came from.

    Plain lists hold the contents: ``_flat`` every stored step, oldest first;
    ``_episodes`` the same steps, one list per push (interned ones may recur);
    ``_complete`` the terminated episodes that lost no step. ``fifo`` eviction
    slices the oldest steps off ``_flat`` and drops or cuts the oldest
    episodes, so a cut episode can only be the head of ``_complete``.
    ``diverse-crowding`` sums each episode's return once, into ``_returns``.
    """

    def __init__(self, capacity: int, replacement: str = FIFO):
        if capacity < 1:
            raise ValueError("buffer capacity must be positive")
        if replacement not in (FIFO, DIVERSE_CROWDING):
            raise ValueError(f"unknown replacement policy {replacement!r}")
        self.capacity = int(capacity)
        self.replacement = replacement
        self._flat: list[Experience] = []
        self._episodes: list[list[Experience]] = []
        self._complete: list[list[Experience]] = []
        self._returns: list = []

    def __len__(self) -> int:
        return len(self._flat)

    def __getitem__(self, index: int) -> Experience:
        """The ``index``-th stored experience, oldest first (``list(buf)`` reads all)."""
        return self._flat[index]

    def complete_episodes(self):
        """Complete (uncut, terminated) episodes; treat as read-only."""
        return self._complete

    def push(self, experiences) -> "ExperienceBuffer":
        """Append one episode (or fragment) and enforce capacity. An :class:`_Episode` is
        stored by reference, in any number of buffers; any other sequence is copied."""
        steps = experiences if type(experiences) is _Episode else list(experiences)
        if not steps:
            return self
        self._episodes.append(steps)
        self._flat.extend(steps)
        if steps[-1].terminal:
            self._complete.append(steps)
        excess = len(self._flat) - self.capacity
        if excess <= 0:
            return self
        if self.replacement == FIFO:
            self._evict_oldest(excess)
        else:
            self._evict_crowded()
        return self

    def _evict_oldest(self, excess: int):
        del self._flat[:excess]
        episodes, complete = self._episodes, self._complete
        dropped = gone = 0   # episodes dropped whole; episodes that leave _complete
        while excess:
            head = episodes[dropped]
            if gone < len(complete) and complete[gone] is head:
                gone += 1    # dropped or cut, it is no longer complete
            if excess < len(head):
                episodes[dropped] = head[excess:]
                break
            excess -= len(head)
            dropped += 1
        del complete[:gone]
        del episodes[:dropped]

    def _evict_crowded(self):
        episodes, returns = self._episodes, self._returns
        returns.extend(sum(e.reward for e in steps) for steps in episodes[len(returns):])
        size = len(self._flat)
        while size > self.capacity:
            victim = int(np.argmin(crowding_distance(returns)))
            returns.pop(victim)
            size -= len(episodes.pop(victim))
        self._flat = [e for steps in episodes for e in steps]
        self._complete = [steps for steps in episodes if steps[-1].terminal]

    def sample(self, batch: int, rng: np.random.Generator, *others: "ExperienceBuffer"):
        """``batch`` experiences drawn uniformly with replacement (one draw of
        ``batch`` indices) from this buffer and ``others``, read end to end."""
        if batch == 0:
            return []
        size = sum(map(len, others), len(self._flat))
        if not size:
            raise ValueError("empty buffer")
        draws = rng.integers(0, size, size=int(batch)).tolist()
        if others:
            parts = [self._flat, *(buf._flat for buf in others)]
            return [_item(parts, i) for i in draws]
        return [self._flat[i] for i in draws]


def _item(parts, i: int):
    """Item ``i`` of the sequences ``parts`` read end to end."""
    for part in parts:
        if i < len(part):
            return part[i]
        i -= len(part)


class _Table:
    """Hyper-parameters (the objective count too, but for scalar tables), rows
    created at zero on first use, and the text rows of scalar and vector
    tables. Each kind overrides what differs: its zero row, the preferences
    its greedy policy reads (the live table by default), its header lines
    after ``actions=`` and its text rows."""

    _augmented = False  # whether greedy policies key on (state, accrued reward)
    flips = None        # greedy-action changes; counted by ESR tables only

    def __init__(self, n_actions: int, n_objectives: int | None,
                 alpha: float = 0.1, gamma: float = 1.0):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {gamma!r}")
        self.n_actions = int(n_actions)
        self.n_objectives = None if n_objectives is None else int(n_objectives)
        self.alpha = float(alpha)
        self.gamma = float(gamma)
        self.table: dict = {}

    def _zeros(self):
        return [0.0] * self.n_actions

    def _get(self, state):
        """The row of ``state``, created at zero on first use."""
        row = self.table.get(state)
        if row is None:
            row = self.table[state] = self._zeros()
        return row

    def _preferences(self, lam) -> dict:
        return self.table

    def _meta(self) -> list:
        return [] if self.n_objectives is None else [f"objectives={self.n_objectives}"]

    @classmethod
    def _header_args(cls, meta) -> tuple:
        return (int(meta["objectives"]),)

    def _row_lines(self, state) -> list:
        row = self.table[state]
        return [f"{state}\t{a}\t{_fmt_vec(row[a])}" for a in range(self.n_actions)]

    def _read_row(self, fields):
        state, action, values = fields
        _read_values(self._get(int(state)), action, values)


class QTableScalar(_Table):
    """State x action table of scalars for scalarized Q-learning."""

    kind = "scalar"
    row = _Table._get

    def __init__(self, n_actions: int, alpha: float = 0.1, gamma: float = 1.0):
        super().__init__(n_actions, None, alpha, gamma)

    @classmethod
    def _header_args(cls, meta) -> tuple:
        return ()


class QTableVector(_Table):
    """State x action table of objective vectors."""

    kind = "vector"
    block = _Table._get

    def _zeros(self) -> np.ndarray:
        return np.zeros((self.n_actions, self.n_objectives))

    def _preferences(self, lam) -> dict:
        lam = np.asarray(lam, dtype=float)
        if not np.isfinite(lam).all():
            raise ValueError(f"weight vector {lam} has non-finite entries")
        return {s: (block @ lam).tolist() for s, block in self.table.items()}


class QTableEnvelope(_Table):
    """Vector table indexed by state, a finite weight set, and action; ``weights`` is a
    tuple of read-only copies of each set assigned (``stacked``: one read-only array of
    it; so in copies of the table too), of fixed length once blocks exist. ``rows`` holds
    each weight's row: the index of its first equal weight, as :meth:`weight_index` has it."""

    kind = "envelope"
    block = _Table._get

    def __init__(self, n_actions: int, n_objectives: int, weights,
                 alpha: float = 0.1, gamma: float = 1.0):
        super().__init__(n_actions, n_objectives, alpha, gamma)
        self.weights = weights

    @property
    def weights(self) -> tuple:
        return self._weights

    @weights.setter
    def weights(self, weights):
        weights = tuple(np.array(w, dtype=float) for w in weights)
        if not weights:
            raise ValueError("envelope tables need a non-empty weight set")
        if self.table and len(weights) != len(self._weights):
            raise ValueError(f"{len(weights)} weights do not fit {len(self._weights)}-row blocks")
        stacked = np.array(weights)
        if not np.isfinite(stacked).all():
            raise ValueError(f"envelope weights {stacked.tolist()} have non-finite entries")
        self._weights, self.stacked = weights, stacked
        for array in (*weights, self.stacked):
            array.flags.writeable = False
        self.rows = (self.stacked[:, None] == self.stacked).all(axis=2).argmax(axis=1).tolist()

    def __setstate__(self, state):
        vars(self).update(state)
        self.weights = self._weights

    def weight_index(self, lam) -> int:
        """The row of ``lam``: its first equal weight in the set (-0.0 == 0.0)."""
        lam = np.asarray(lam, dtype=float)
        if lam.shape == self.stacked.shape[1:]:
            match = (self.stacked == lam).all(axis=1)
            if match.any():
                return int(match.argmax())
        raise ValueError(f"weight vector {lam} is not in the envelope weight set")

    def _zeros(self) -> np.ndarray:
        return np.zeros((len(self.weights), self.n_actions, self.n_objectives))

    def _preferences(self, lam) -> dict:
        l_idx, lam = self.weight_index(lam), np.asarray(lam, dtype=float)
        return {s: (block[l_idx] @ lam).tolist() for s, block in self.table.items()}

    def _meta(self) -> list:
        return super()._meta() + ["weights=" + ";".join(_fmt_vec(w) for w in self.weights)]

    @classmethod
    def _header_args(cls, meta) -> tuple:
        m = int(meta["objectives"])
        weights = [np.array([float(x) for x in w.split(",")])
                   for w in meta["weights"].split(";")]
        for w in weights:
            if w.size != m:
                raise ValueError(f"weight {_fmt_vec(w)} has {w.size} values, expected {m}")
        return (m, weights)

    def _row_lines(self, state) -> list:
        block = self.table[state]
        return [f"{state}|w{l}\t{a}\t{_fmt_vec(block[l, a])}"
                for l in range(len(self.weights)) for a in range(self.n_actions)]

    def _read_row(self, fields):
        key, action, values = fields
        state, l_txt = key.split("|w")
        l_idx = int(l_txt)
        if not 0 <= l_idx < len(self.weights):
            raise ValueError(f"weight row {l_idx} outside [0, {len(self.weights)})")
        _read_values(self._get(int(state))[l_idx], action, values)


class QTableEsr(_Table):
    """Scalar table over (state, accrued reward) augmented keys.

    On integer-reward environments the accrued vectors are exact, so no
    discretization is involved; the augmented state is a sufficient statistic
    for the episodic scalarized return. Rows carry their visit counts.
    """

    kind = "esr"
    _augmented = True
    flips = 0

    @property
    def visits(self) -> dict:   # a new dict of the rows' own count lists
        return {key: row.visits for key, row in self.table.items()}

    def row(self, state, accrued) -> _EsrRow:
        """The live row of ``(state, accrued)``, which the caller may write until
        the next update: its greedy action becomes unknown and counts as changed."""
        row = self._get(accrued_key(state, accrued))
        row.greedy = None
        self.flips += 1
        return row

    def _zeros(self) -> _EsrRow:
        row = _EsrRow([0.0] * self.n_actions)
        row.visits, row.greedy = [0] * self.n_actions, 0
        return row

    def _row_lines(self, key) -> list:
        state, accrued = key
        prefix = f"{state}|c{_fmt_vec(accrued) if accrued else ''}"
        row = self.table[key]
        return [f"{prefix}\t{a}\t{_FMT % row[a]}\t{row.visits[a]}"
                for a in range(self.n_actions)]

    def _read_row(self, fields):
        key, action, values, visits = fields
        state, accrued = key.split("|c")
        accrued = _floats(accrued) if accrued else []
        if len(accrued) != self.n_objectives:
            raise ValueError(f"expected {self.n_objectives} accrued values, got {len(accrued)}")
        row = self._get(accrued_key(int(state), accrued))
        row.visits[_read_values(row, action, values)] = int(visits)
        row.greedy = None


def update_scalarized_q(q: QTableScalar, batch, g: Scalarization, lam,
                        scores: dict | None = None) -> QTableScalar:
    """A temporal-difference step on the scalarized reward per experience of
    ``batch``. ``scores`` memoises each reward object's score as ``id(reward)
    -> (reward, score)`` (holding the reward keeps its id from reuse); share
    one dict only while ``lam`` and ``g``'s reference point stay fixed. The
    bootstrap is the next row's ``max``; a zero's sign never reaches a row."""
    scores = {} if scores is None else scores
    alpha, gamma, row_of, score_of = q.alpha, q.gamma, q.table.get, scores.get
    for e in batch:
        reward = e.reward
        entry = score_of(id(reward))
        if entry is None or entry[0] is not reward:
            entry = scores[id(reward)] = (reward, g.score(reward, lam))
        bootstrap = 0.0
        if not e.terminal:
            if (nxt := row_of(e.next_state)) is None:
                nxt = q.row(e.next_state)
            bootstrap = max(nxt)
        if (row := row_of(e.state)) is None:
            row = q.row(e.state)
        a = e.action
        old = row[a]
        row[a] = old + alpha * (entry[1] + gamma * bootstrap - old)
    return q


def update_vector_q(q: QTableVector, batch, lam) -> QTableVector:
    """Component-wise TD step per experience of ``batch``; each bootstrap
    action maximizes ``lam @ q``."""
    lam = np.asarray(lam, dtype=float)
    for e in batch:
        if e.terminal:
            target = e.reward
        else:
            nxt = q.block(e.next_state)
            best = int(np.argmax(nxt @ lam))
            target = e.reward + q.gamma * nxt[best]
        block = q.block(e.state)
        block[e.action] += q.alpha * (target - block[e.action])
    return q


def update_envelope_q(q: QTableEnvelope, batch) -> QTableEnvelope:
    """Per experience of ``batch``, a TD step of row ``q.rows[k]`` for each weight ``q.stacked[k]``.

    Each bootstrap maximizes ``q.stacked[k] @ q`` over next actions and the
    whole weight set; ties resolve to the lowest (action, weight) pair. The
    result is that of one step per weight in order, each reading the
    table as the steps before it left it. Only a self-loop or a repeated
    weight lets an earlier write reach a later read; every other experience
    takes all rows in one batched step, with the same bits.

    The batched ``einsum("lam,km->kal")`` gives each score the bits of the
    per-weight ``einsum("lam,m->al")``, which the in-order path calls once per
    weight with one ``argmax``, then steps on Python floats (numpy's IEEE bits).
    """
    weights, rows, m = q.stacked, q.rows, q.n_objectives
    n_rows = len(rows)
    repeated = rows != list(range(n_rows))
    # score index a * L + l (action-major, for ties) -> bootstrap index l * A + a
    remap = np.arange(n_rows * q.n_actions).reshape(n_rows, -1).T.ravel()
    for e in batch:
        nxt = None if e.terminal else q.block(e.next_state)   # (L, A, m)
        block = q.block(e.state)
        if nxt is block or repeated:
            reward = e.reward.tolist()
            for w, l_idx in zip(weights, rows):
                target = reward
                if nxt is not None:
                    best = int(np.einsum("lam,m->al", nxt, w).argmax())
                    boot = nxt[best % n_rows, best // n_rows].tolist()
                    target = [r + q.gamma * v for r, v in zip(reward, boot)]
                old = block[l_idx, e.action].tolist()
                block[l_idx, e.action] = [o + q.alpha * (t - o) for o, t in zip(old, target)]
            continue
        target = e.reward
        if nxt is not None:
            best = np.einsum("lam,km->kal", nxt, weights).reshape(n_rows, -1).argmax(axis=1)
            target = e.reward + q.gamma * nxt.reshape(-1, m)[remap[best]]
        old = block[:, e.action]
        block[:, e.action] = old + q.alpha * (target - old)
    return q


def update_esr_mc(q: QTableEsr, episode, g: Scalarization, lam,
                  scores: dict | None = None) -> QTableEsr:
    """Monte-Carlo update of a complete episode toward its scalarized return.

    It replays a plan: each step's (accrued key, action), the return's bytes.
    An :class:`_Episode` keeps its plan, built on its first replay, for every
    table that replays it; any other episode is planned on each call.
    ``scores`` memoises return scores while ``lam`` and the reference stay put.
    Written rows keep their greedy action; ``q.flips`` counts each change (from unknown too)."""
    plan = episode.replay if type(episode) is _Episode else None
    if plan is None:
        steps = list(episode)
        if not steps or not steps[-1].terminal:
            raise ValueError("incomplete episode: ESR updates need a finished episode")
        plan = (tuple([(accrued_key(e.state, e.accrued), e.action) for e in steps]),
                np.asarray(steps[-1].accrued + steps[-1].reward, dtype=float).tobytes())
        if type(episode) is _Episode:
            episode.replay = plan
    steps, total = plan
    scores = {} if scores is None else scores
    target = scores.get(total)
    if target is None:
        target = scores[total] = g.score(np.frombuffer(total), lam)
    alpha, table, flips = q.alpha, q.table, 0
    for key, a in steps:
        if (row := table.get(key)) is None:
            row = q._get(key)
        old, kept = row[a], row.greedy
        row[a] = new = old + alpha * (target - old)
        row.visits[a] += 1
        # the kept action stays if its value did not fall, or if another's is below it
        if kept == a and new >= old or kept is not None and new < row[kept]:
            continue
        row.greedy = best = row.index(max(row))
        flips += best != kept
    q.flips += flips
    return q


def greedy_policy(q, lam=None) -> TabularPolicy:
    """Deterministic greedy policy of any table kind (lowest-index ties).

    Vector and envelope tables need the weight vector that scalarizes their
    entries; ESR tables yield a policy keyed on (state, accrued reward).
    States the table never visited fall back to a zero row, i.e. action 0.
    Scalar and ESR policies are live views of the learner's rows (deep-copy
    ``q`` to freeze one); vector and envelope policies hold scalarized lists.
    """
    return TabularPolicy(q._preferences(lam), augmented=q._augmented,
                         default_row=[0.0] * q.n_actions)


# --- flat text serialization -------------------------------------------------
#
# Line format, tab separated:  <state-key>  <action>  <comma-joined values>
# (ESR rows add a fourth field, the visit counts). State keys: plain state
# id; "s|w<i>" for envelope weight rows; "s|c0,c1" for accrued-augmented
# keys. Floats are rendered with repr round-tripping.

_VERSION = "paretoq-qtable-v1"
_FMT = "%.17g"


def _fmt_vec(values) -> str:
    return ",".join(_FMT % v for v in np.atleast_1d(values))


def _floats(text) -> list:
    """The comma-separated floats of ``text``, which must all be finite."""
    values = [float(x) for x in text.split(",")]
    if not all(map(math.isfinite, values)):
        raise ValueError(f"non-finite value in {text!r}")
    return values


def _read_values(row, action_txt, values_txt) -> int:
    """Set ``row[action]`` from text checked against ``row``; return the action."""
    action = int(action_txt)
    if not 0 <= action < len(row):
        raise ValueError(f"action {action} outside [0, {len(row)})")
    values = _floats(values_txt)
    width = np.size(row[action])
    if len(values) != width:
        raise ValueError(f"expected {width} values, got {len(values)}")
    row[action] = values[0] if isinstance(row, list) else values
    return action


def serialize_table(q) -> str:
    lines = [f"{_VERSION} kind={q.kind}",
             f"actions={q.n_actions} alpha={_FMT % q.alpha} gamma={_FMT % q.gamma}",
             *q._meta()]
    for key in sorted(q.table):
        lines.extend(q._row_lines(key))
    return "\n".join(lines) + "\n"


_KINDS = {cls.kind: cls for cls in (QTableScalar, QTableVector, QTableEnvelope, QTableEsr)}


def deserialize_table(text: str):
    """The table that :func:`serialize_table` wrote as ``text``.

    Text this version cannot honour raises ``ValueError`` naming the line:
    a header other than v1 or missing a field, a ``gamma`` outside [0, 1],
    envelope weights or an ESR accrued key whose width is not ``objectives=``,
    an action or weight row out of range, the wrong number of fields or
    values in a row, or a value, weight or accrued key that is not finite.
    """
    lines = [(n, line) for n, line in enumerate(text.splitlines(), 1) if line.strip()]
    first, header = lines[0] if lines else (1, "")
    version, *head = header.split() or [""]
    if version != _VERSION:
        raise ValueError(f"line {first}: expected a {_VERSION!r} header, got {header!r}")
    body = next((i for i, (_, line) in enumerate(lines) if i and "\t" in line), len(lines))
    head += [part for _, line in lines[1:body] for part in line.split()]
    meta = dict(part.partition("=")[::2] for part in head)
    where = f"lines {first}-{lines[body - 1][0]}"
    if "kind" in meta and meta["kind"] not in _KINDS:
        raise ValueError(f"{where}: unknown table kind {meta['kind']!r} in serialized text")
    try:
        cls = _KINDS[meta["kind"]]
        q = cls(int(meta["actions"]), *cls._header_args(meta),
                float(meta["alpha"]), float(meta["gamma"]))
    except KeyError as err:
        raise ValueError(f"{where}: the table header has no {err.args[0]}= field") from None
    except ValueError as err:
        raise ValueError(f"{where}: {err}") from None

    for n, line in lines[body:]:
        try:
            q._read_row(line.split("\t"))
        except ValueError as err:
            raise ValueError(f"line {n}: {err} in {line!r}") from None
    return q
