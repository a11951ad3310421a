"""Span tracing around the library's public functions, installed from the
benchmark's own files (nothing in the library changes).

``Tracer.install()`` replaces each public module-level function of the traced
modules, and the methods in METHODS, with a wrapper that records a span
[name, start, end, parent, op, outcome, root_cpu] in a per-thread list. Every binding
of the function in any ``gesturepoint`` module is replaced, so calls through
``from x import f`` names are traced too. A span named in ``op_roots`` starts
a new op: it and every later span of that thread share its op id until the
next root. Root spans also record their thread's CPU time, since the wall
time of a span in a threaded server includes waits for the interpreter
lock. Spans stay in memory until ``write()``, which also stores the per-name
aggregates (calls, total and self time, root CPU time, outcome counts).

Self time is a span's duration minus the durations of its direct children;
children of one thread nest inside their parent, so they never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time

MODULES = ("stream", "geometry", "stabilizer", "pipeline", "snap", "live", "evaluation", "cli")
METHODS = {
    "pipeline": {"GesturePipeline": ("process", "recent")},
    "stabilizer": {"RunningAverageStabilizer": ("push",)},
    "live": {"LiveSession": ("handle_line",)},
}
# entry points whose spans would only repeat their callers' or never return
SKIP = {"cli": ("entrypoint", "build_parser")}


def _not_none(result) -> int:
    return 0 if result is None else 1


def _snap_outcome(result) -> int:
    """0 no selection, 1 selection, 2 selection by nearest-centre fallback."""
    if result is None:
        return 0
    return 2 if result.fallback_used else 1


def _err_replies(replies) -> int:
    return sum(1 for r in replies if r.startswith('{"err"'))


OUTCOMES = {
    "stream.arm_ray": _not_none,
    "geometry.intersect_ray_plane": _not_none,
    "stabilizer.push": _not_none,
    "snap.pick_snap": _snap_outcome,
    "snap.place_snap": _snap_outcome,
    "live.handle_line": _err_replies,
}


def _empty() -> dict:
    return {"calls": 0, "total_s": 0.0, "self_s": 0.0, "cpu_s": 0.0, "outcomes": {}}


class _ThreadSpans:
    def __init__(self, index: int) -> None:
        self.index = index
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0


class Tracer:
    def __init__(self, op_roots: tuple[str, ...] = ()) -> None:
        self.op_roots = frozenset(op_roots)
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self.readers: list = []

    def _state(self) -> _ThreadSpans:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadSpans(len(self._threads))
                self._threads.append(state)
            self._local.state = state
        return state

    def _begin(self, name: str) -> tuple[_ThreadSpans, list]:
        st = self._state()
        root = name in self.op_roots
        if root:
            st.op += 1
        span = [name, 0.0, 0.0, st.stack[-1] if st.stack else -1, st.op, None,
                time.thread_time() if root else None]
        st.stack.append(len(st.spans))
        st.spans.append(span)
        span[1] = time.perf_counter()
        return st, span

    @staticmethod
    def _end(st: _ThreadSpans, span: list) -> None:
        span[2] = time.perf_counter()
        if span[6] is not None:
            span[6] = time.thread_time() - span[6]
        st.stack.pop()

    def wrap(self, fn, name: str):
        classify = OUTCOMES.get(name)
        begin, end = self._begin, self._end
        if inspect.isgeneratorfunction(fn):
            # one span per produced item; outcome 1 marks an item
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    st, span = begin(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        end(st, span)
                        return
                    except BaseException:
                        end(st, span)
                        raise
                    span[5] = 1
                    end(st, span)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st, span = begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = -1
                end(st, span)
                raise
            end(st, span)
            if classify is not None:
                span[5] = classify(result)
            return result
        return wrapper

    def install(self) -> None:
        import gesturepoint  # noqa: F401  (loads the package before patching)

        pkg_modules = [m for k, m in sys.modules.items()
                       if k == "gesturepoint" or k.startswith("gesturepoint.")]
        for short in MODULES:
            mod = sys.modules.get(f"gesturepoint.{short}")
            if mod is None:
                mod = __import__(f"gesturepoint.{short}", fromlist=["_"])
                pkg_modules.append(mod)
            skip = SKIP.get(short, ())
            for attr, value in list(vars(mod).items()):
                if (attr.startswith("_") or attr in skip or not inspect.isfunction(value)
                        or value.__module__ != mod.__name__):
                    continue
                wrapped = self.wrap(value, f"{short}.{attr}")
                for other in pkg_modules:
                    for key, bound in list(vars(other).items()):
                        if bound is value:
                            setattr(other, key, wrapped)
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    setattr(cls, meth, self.wrap(getattr(cls, meth), f"{short}.{meth}"))
        reader_cls = sys.modules["gesturepoint.stream"].StreamReader
        original_init = reader_cls.__init__
        readers = self.readers

        @functools.wraps(original_init)
        def init(reader, *args, **kwargs):
            original_init(reader, *args, **kwargs)
            readers.append(reader)
        reader_cls.__init__ = init

    def spans(self) -> list[tuple[int, list]]:
        with self._lock:
            threads = list(self._threads)
        return [(t.index, s) for t in threads for s in t.spans]

    def aggregate(self) -> dict:
        """Per name: calls, total_s, self_s, cpu_s and outcome counts;
        finished spans only."""
        with self._lock:
            threads = list(self._threads)
        agg: dict[str, dict] = {}
        for t in threads:
            spans = t.spans
            child = [0.0] * len(spans)
            for s in spans:
                if s[2] and s[3] >= 0:
                    child[s[3]] += s[2] - s[1]
            for i, s in enumerate(spans):
                if not s[2]:
                    continue
                a = agg.setdefault(s[0], _empty())
                dur = s[2] - s[1]
                a["calls"] += 1
                a["total_s"] += dur
                a["self_s"] += dur - child[i]
                a["cpu_s"] += s[6] or 0.0
                if s[5] is not None:
                    key = str(s[5])
                    a["outcomes"][key] = a["outcomes"].get(key, 0) + 1
        return agg

    def counters(self) -> dict:
        return {
            "stream.reader.malformed": sum(r.malformed for r in self.readers),
            "stream.reader.nonmonotonic": sum(r.nonmonotonic for r in self.readers),
        }

    def write(self, path: str) -> None:
        """First line: aggregates and counters; then one span per line as
        [thread, name, start, end, parent, op, outcome, root_cpu]."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"aggregate": self.aggregate(), "counters": self.counters()}) + "\n")
            for thread, s in self.spans():
                fh.write(json.dumps([thread, *s]) + "\n")


def read_aggregate(path: str) -> tuple[dict, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        head = json.loads(fh.readline())
    return head["aggregate"], head["counters"]


def merge(parts: list[tuple[dict, dict]]) -> tuple[dict, dict]:
    agg: dict[str, dict] = {}
    counters: dict[str, int] = {}
    for part_agg, part_counters in parts:
        for name, a in part_agg.items():
            m = agg.setdefault(name, _empty())
            for key in ("calls", "total_s", "self_s", "cpu_s"):
                m[key] += a[key]
            for k, v in a["outcomes"].items():
                m["outcomes"][k] = m["outcomes"].get(k, 0) + v
        for k, v in part_counters.items():
            counters[k] = counters.get(k, 0) + v
    return agg, counters
