"""In-memory span tracer that instruments geoforge from the outside.

``instrument(tracer)`` wraps the public functions and methods of every
geoforge layer module at each name they are looked up by (the defining
module, every module that imported the function by name, and dicts such as
``pipeline.STAGE_FUNCS`` that hold them) and restores the originals on exit.
No geoforge source file is touched.

A span is (id, name, site, start, end, parent, request, thread).  ``site`` is
the module whose binding was called, so ``core.load_corpus`` looked up through
``pipeline`` is recorded with site ``pipeline``.  Parents come from a
per-thread stack.  A span opened on a worker thread with an empty stack takes
as parent the innermost open span of the thread that opened the current
request (the span that is waiting on the worker), and inherits that request.

Scalar helpers called hundreds of thousands of times per run (``HOT``) are
counted, not spanned: a span each would cost more than the work they do.
Their calls are keyed by ``<site>.<function>``, e.g. ``curation.cosine``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import threading
import time
import weakref
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = (
    "pipeline",
    "core",
    "synth",
    "curation",
    "encoders",
    "hnsw",
    "ranker",
    "collections_",
    "linkgraph",
    "agent",
)

# classes whose public methods are layer boundaries; record types are not
CLASSES = (("hnsw", "HnswIndex"), ("encoders", "EncoderModel"), ("ranker", "RankerModel"))

# (defining module, function) pairs that are counted only
HOT = {
    ("core", "cosine"),
    ("core", "l2_normalize"),
    ("core", "is_unit"),
    ("core", "f32"),
    ("core", "subseed"),
    ("core", "rng_for"),
    ("core", "hashed_bag_of_tokens"),
    ("curation", "retain"),
    ("curation", "retention_branches"),
    ("ranker", "pin_features"),
    ("ranker", "query_features"),
    ("linkgraph", "pin_node"),
    ("linkgraph", "collection_node"),
    ("collections_", "slugify"),
}

# hnsw methods whose distance_count deltas are attributed to their kind
DISTANCE_KINDS = {"HnswIndex.insert": "insert", "HnswIndex.search": "search"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, site, start, end, parent, request, thread)
        self.calls: Counter = Counter()  # "<site>.<function>" -> calls, hot helpers only
        self.values: Counter = Counter()  # counts read from return values
        self.distances: Counter = Counter()  # hnsw distance evaluations by op kind
        self._ids = itertools.count()
        self._requests = itertools.count()
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._request = -1  # request current on the thread that opened it
        self._origin: list[int] = []  # span stack of the thread that opened it
        self._index_state: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def _stack(self) -> list[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, site: str = ""):
        stack = self._stack()
        sid = next(self._ids)
        origin = stack or self._origin
        parent = origin[-1] if origin else -1
        request = self._request
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (sid, name, site, start, end, parent, request, threading.get_ident())
            )

    @contextlib.contextmanager
    def request(self, name: str):
        """Root span of one unit of benchmark work; nested spans share its id."""
        previous = self._request, self._origin
        self._request, self._origin = next(self._requests), self._stack()
        try:
            with self.span(name, "bench"):
                yield
        finally:
            self._request, self._origin = previous

    def hnsw_boundary(self, index, kind: str, delta: int) -> None:
        """Attribute the index's distance_count growth since the last boundary
        to the op kind that was running; concurrent searches on one index
        share a kind, so per-kind totals stay exact."""
        with self._lock:
            state = self._index_state.get(index)
            if state is None:
                state = self._index_state[index] = [index.distance_count, Counter()]
            grown = index.distance_count - state[0]
            if grown:
                active = +state[1]
                owner = next(iter(active)) if len(active) == 1 else "other"
                self.distances[owner] += grown
            state[0] = index.distance_count
            state[1][kind] += delta

    def write_jsonl(self, path: str | Path) -> None:
        keys = ("id", "name", "site", "start", "end", "parent", "request", "thread")
        threads: dict[int, int] = {}
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                row = dict(zip(keys, span))
                row["thread"] = threads.setdefault(row["thread"], len(threads))
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the wall time covered by its children.

    Children on worker threads overlap each other, so the covered time is
    the length of the union of the children's intervals, not their sum."""
    children: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = {}
    for sid, _, _, start, end, *_ in spans:
        covered, reach = 0.0, start
        for lo, hi in sorted(children[sid]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[sid] = (end - start) - covered
    return result


def span_totals(spans: list[tuple]) -> tuple[Counter, Counter]:
    """Name -> (inclusive seconds, calls), skipping spans nested inside a
    span of the same name so recursion is not counted twice."""
    by_id = {s[0]: s for s in spans}
    seconds: Counter = Counter()
    calls: Counter = Counter()
    for sid, name, _, start, end, parent, _, _ in spans:
        calls[name] += 1
        while parent >= 0 and parent in by_id and by_id[parent][1] != name:
            parent = by_id[parent][5]
        if parent < 0 or parent not in by_id:
            seconds[name] += end - start
    return seconds, calls


# --------------------------------------------------------------- patching


def _wrap_function(tracer: Tracer, fn, name: str, site: str):
    if (name.split(".")[0], name.split(".")[-1]) in HOT:
        key = f"{site}.{name.split('.')[-1]}"
        calls, lock = tracer.calls, tracer._lock

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with lock:  # the pipeline calls helpers from worker threads
                calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    kind = DISTANCE_KINDS.get(name.split(".", 1)[1])
    extract = _VALUE_EXTRACTORS.get(name)

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        if kind is not None:
            tracer.hnsw_boundary(args[0], kind, +1)
        try:
            with tracer.span(name, site):
                result = fn(*args, **kwargs)
        finally:
            if kind is not None:
                tracer.hnsw_boundary(args[0], kind, -1)
        if extract is not None:
            with tracer._lock:
                extract(tracer.values, result)
        return result

    return spanned


def _pagerank_iterations(values: Counter, scores) -> None:
    values["linkgraph.pagerank_iterations"] += scores.iterations


def _agent_trace_steps(values: Counter, result) -> None:
    values["agent.trace_steps"] += len(result[1])


_VALUE_EXTRACTORS = {
    "linkgraph.pagerank": _pagerank_iterations,
    "agent.run_episode": _agent_trace_steps,
}


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every layer boundary for the duration of the block."""
    modules = {name: importlib.import_module(f"geoforge.{name}") for name in LAYERS}
    originals = {  # id(public function) -> "<defining module>.<name>"
        id(value): f"{short}.{attr}"
        for short, module in modules.items()
        for attr, value in vars(module).items()
        if not attr.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == module.__name__
    }

    undo: list = []
    try:
        # module-level functions, at every binding that refers to them
        for site, module in modules.items():
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if inspect.isfunction(value) and id(value) in originals:
                    wrapped = _wrap_function(tracer, value, originals[id(value)], site)
                    namespace[attr] = wrapped
                    undo.append((namespace.__setitem__, attr, value))
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and id(item) in originals:
                            value[key] = _wrap_function(
                                tracer, item, originals[id(item)], site
                            )
                            undo.append((value.__setitem__, key, item))
        # public methods of the boundary classes
        for short, class_name in CLASSES:
            cls = getattr(modules[short], class_name)
            for attr, raw in list(vars(cls).items()):
                if attr.startswith("_"):
                    continue
                name = f"{short}.{class_name}.{attr}"
                if isinstance(raw, classmethod):
                    new = classmethod(_wrap_function(tracer, raw.__func__, name, short))
                elif inspect.isfunction(raw):
                    new = _wrap_function(tracer, raw, name, short)
                else:
                    continue
                setattr(cls, attr, new)
                undo.append((functools.partial(setattr, cls), attr, raw))
        yield tracer
    finally:
        for setter, key, value in reversed(undo):
            setter(key, value)
