"""Spans around paretoq's layer boundaries, patched in from outside.

A :class:`Tracer` replaces public callables with wrappers while it is
installed and restores them afterwards. Each name is patched where its
caller resolves it (``paretoq.orchestrator.greedy_policy``, not
``paretoq.learning.greedy_policy``); the classes' methods are patched on
the class. Spans are aggregated as they close, per thread, into calls,
total time and self time (total minus the time of child spans opened in
the same thread), so memory stays flat however many spans a run opens.
Exact work counts (rows copied, evictions, Monte-Carlo samples, ...) are
recorded at the same boundaries. Thread-local logs make the spans safe
under the harness's thread pool; the logs are merged when read.

Nothing here changes arguments, results or the order of calls, so a traced
run writes the same bytes as an untraced one.
"""

from __future__ import annotations

import functools
import inspect
import os
import threading
import time
from collections import defaultdict

import paretoq.harness
import paretoq.metrics
import paretoq.orchestrator
from paretoq import ExperienceBuffer, Momdp, ParetoArchive, ReferencePoint, Scalarization, TabularPolicy

UPDATE_KINDS = {"update_scalarized_q": "scalar", "update_vector_q": "vector",
                "update_envelope_q": "envelope", "update_esr_mc": "esr"}


class _ThreadLog:
    def __init__(self):
        self.stack = []                    # open spans: [name, child seconds]
        self.spans = {}                    # name -> [calls, total s, self s]
        self.counts = defaultdict(float)   # exact work counts
        self.iteration_gaps = []           # seconds between select_subproblem calls
        self.last_select = None
        self.run_cpu_start = None


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs = []
        self._patched = []
        self.missing = []

    # --- recording -----------------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
        return log

    def span(self, name, fn, before=None, after=None):
        """``fn`` wrapped in a span; hooks see ``(log, parent, args, kwargs[, result])``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log = tracer._log()
            stack = log.stack
            parent = stack[-1][0] if stack else None
            if before is not None:
                before(log, parent, args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stat = log.spans.get(name)
                if stat is None:
                    stat = log.spans[name] = [0, 0.0, 0.0]
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[1]
            if after is not None:
                after(log, parent, args, kwargs, result)
            return result

        return wrapper

    def counted(self, fn, after):
        """``fn`` wrapped without a span, for counts inside a parent's span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log = tracer._log()
            result = fn(*args, **kwargs)
            after(log, args, kwargs, result)
            return result

        return wrapper

    def reset(self):
        with self._lock:
            for log in self._logs:
                log.spans.clear()
                log.counts.clear()
                log.iteration_gaps.clear()
                log.last_select = None

    def merged(self):
        """``(spans, counts, iteration_gaps)`` summed over every thread."""
        spans, counts, gaps = {}, defaultdict(float), []
        with self._lock:
            for log in self._logs:
                for name, (calls, total, own) in log.spans.items():
                    acc = spans.setdefault(name, [0, 0.0, 0.0])
                    acc[0] += calls
                    acc[1] += total
                    acc[2] += own
                for name, value in log.counts.items():
                    counts[name] += value
                gaps.extend(log.iteration_gaps)
        return spans, counts, gaps

    # --- patching ------------------------------------------------------------

    def _patch(self, owner, attr, make):
        original = getattr(owner, attr, None)
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        if original is None:
            self.missing.append(label)
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self):
        orch, metrics, harness = paretoq.orchestrator, paretoq.metrics, paretoq.harness

        def plain(name):
            return lambda fn: self.span(name, fn)

        # momdp
        self._patch(Momdp, "step", plain("momdp.step"))
        self._patch(TabularPolicy, "action", plain("momdp.policy_action"))
        self._patch(orch, "evaluate_policy", plain("momdp.evaluate_policy"))
        self._patch(orch, "enumerate_deterministic_policies", lambda fn: self.span(
            "momdp.oracle", fn, after=lambda log, p, a, k, r: _add(log, "momdp.oracle.policies", len(r))))

        # decomposition
        self._patch(Scalarization, "score", plain("decomposition.score"))
        for owner, attr in ((ReferencePoint, "update"), (orch, "adapt_weights_psa"),
                            (orch, "build_neighborhood")):
            self._patch(owner, attr, plain("decomposition.adapt"))
        self._patch(orch, "select_subproblem", lambda fn: self.counted(fn, _mark_iteration))

        # learning
        for attr, kind in UPDATE_KINDS.items():
            self._patch(orch, attr, plain(f"learning.update.{kind}"))
        self._patch(orch, "greedy_policy", lambda fn: self.span(
            "learning.greedy_policy", fn,
            after=lambda log, p, a, k, r: _add(log, "learning.greedy_policy.rows_copied",
                                                len(r.preferences))))
        self._patch(orch, "serialize_table", lambda fn: self.span(
            "learning.serialize_table", fn,
            after=lambda log, p, a, k, r: _add(log, "learning.serialize_table.bytes", len(r))))
        self._patch(ExperienceBuffer, "push", lambda fn: self.span(
            "learning.buffer.push", _counting_push(self, fn)))
        self._patch(ExperienceBuffer, "sample", plain("learning.buffer.sample"))

        # archive
        self._patch(ParetoArchive, "would_accept", lambda fn: self.span(
            "archive.would_accept", fn, after=_count_check))
        self._patch(ParetoArchive, "insert", lambda fn: self.span(
            "archive.insert", fn,
            after=lambda log, p, a, k, r: _add(log, "archive.inserts", int(bool(r)))))
        self._patch(ParetoArchive, "evals", plain("archive.evals"))
        self._patch(orch, "prune", plain("archive.prune"))

        # metrics: the orchestrator resolves these through the module object
        self._patch(metrics, "hypervolume", plain("metrics.hypervolume"))
        self._patch(metrics, "hypervolume_monte_carlo", lambda fn: self.counted(fn, _mc_samples(fn)))
        for attr in ("igd", "sparsity", "expected_utility"):
            self._patch(metrics, attr, plain(f"metrics.{attr}"))

        # harness: per-seed runs go through the name the harness resolves
        self._patch(harness, "run", lambda fn: self.span(
            "orchestrator.run", fn, before=_run_started, after=_run_finished))
        self._patch(harness, "_write_csv", lambda fn: self.span(
            "harness.write_csv", fn,
            after=lambda log, p, a, k, r: _add(log, "harness.write_csv.bytes",
                                                os.path.getsize(a[0]))))
        return self

    def root_run(self, fn):
        """A benchmark-side call of ``run``, traced like the harness's calls."""
        return self.span("orchestrator.run", fn, before=_run_started, after=_run_finished)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _add(log, name, amount):
    log.counts[name] += amount


def _count_check(log, parent, args, kwargs, result):
    # insert() re-checks internally; only the caller's checks count
    if parent != "archive.insert":
        _add(log, "archive.checks", 1)


def _mark_iteration(log, args, kwargs, result):
    now = time.perf_counter()
    if log.last_select is not None:
        log.iteration_gaps.append(now - log.last_select)
    log.last_select = now
    _add(log, "orchestrator.iterations", 1)


def _run_started(log, parent, args, kwargs):
    log.last_select = None
    log.run_cpu_start = time.thread_time()


def _run_finished(log, parent, args, kwargs, result):
    _add(log, "orchestrator.run.cpu_s", time.thread_time() - log.run_cpu_start)


def _counting_push(tracer, push):
    @functools.wraps(push)
    def wrapper(buf, experiences, *args, **kwargs):
        experiences = list(experiences)
        before = len(buf)
        result = push(buf, experiences, *args, **kwargs)
        _add(tracer._log(), "learning.buffer.evicted_steps", before + len(experiences) - len(buf))
        return result

    return wrapper


def _mc_samples(fn):
    signature = inspect.signature(fn)

    def after(log, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        _add(log, "metrics.hv_mc_samples", int(bound.arguments["samples"]))

    return after
