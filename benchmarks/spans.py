"""In-memory span tracer that wraps cagewarp's public functions from outside.

The tracer patches each layer's public name in the module that calls it
(for example ``cagewarp.optim.mvc_weights``), so the library itself is not
edited.  Each span records name, start, end, parent span and call id.
Counters and input hashes are taken in ``tracing.bookkeeping`` spans, so
their cost shows as tracing time and not as a layer's.

A patch target that no longer exists is recorded in ``Tracer.absent`` and
skipped; its metrics read 0.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import time
from collections import defaultdict

import numpy as np

NAME, START, END, PARENT, CALL, ERROR = range(6)

# span name -> self-time metric (ms per step)
SELF_MS = {
    "mvc.weights": "mvc.weights_ms",
    "mvc.compute": "mvc.compute_ms",
    "autodiff.backward": "autodiff.backward_ms",
    "geometry.kdtree_build": "geometry.kdtree_build_ms",
    "geometry.kdtree_query": "geometry.kdtree_query_ms",
    "geometry.pca": "geometry.pca_ms",
    "geometry.cotlap": "geometry.cotlap_ms",
    "losses.chamfer": "losses.chamfer_ms",
    "losses.p2f": "losses.p2f_ms",
    "losses.normal": "losses.normal_ms",
    "losses.terms": "losses.terms_ms",
    "losses.clap": "losses.clap_ms",
    "losses.consistency": "losses.consistency_ms",
    "losses.eval": "losses.eval_ms",
    "optim.adam": "optim.adam_ms",
    "optim.loop": "optim.loop_self_ms",
    "toy.forward": "toy.forward_ms",
    "meshio.load": "meshio.load_ms",
    "meshio.save": "meshio.save_ms",
    "cli.main": "cli.self_ms",
}

# span name -> call-count metric (calls per step)
CALLS = {
    "mvc.weights": "mvc.weights_calls",
    "mvc.compute": "mvc.compute_calls",
    "geometry.kdtree_build": "geometry.kdtree_builds",
    "geometry.pca": "geometry.pca_calls",
    "geometry.cotlap": "geometry.cotlap_calls",
    "losses.chamfer": "losses.chamfer_calls",
}

# counter -> metric (per step)
COUNTERS = {
    "mvc.entries": "mvc.entries",
    "autodiff.tape_nodes": "autodiff.tape_nodes",
    "meshio.bytes_written": "meshio.bytes_written",
}

# hashed input kind -> ratio metric (repeated inputs / all inputs)
REPEATS = {
    "kdtree": "geometry.kdtree_rebuild_frac",
    "pca": "geometry.pca_repeat_frac",
    "cotlap": "geometry.cotlap_repeat_frac",
}

LAYERS = ("mvc", "autodiff", "geometry", "losses", "optim", "toy",
          "meshio", "cli")

UNITS = {**{m: "ms" for m in SELF_MS.values()},
         **{m: "count" for m in CALLS.values()},
         "mvc.entries": "count", "autodiff.tape_nodes": "count",
         "meshio.bytes_written": "bytes",
         **{m: "ratio" for m in REPEATS.values()},
         **{f"{layer}.errors": "count" for layer in LAYERS},
         "process.cpu_util": "ratio", "tracing.overhead_frac": "ratio"}


def _value(x):
    """Primal array of an autodiff Var, or the argument itself."""
    return getattr(x, "value", x)


def _hash(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.digest()


# -- hooks: (tracer, args, kwargs[, result]) -> None -------------------------


def _count_entries(tr, args, kwargs):
    cage, points = args[0], args[2]
    tr.count("mvc.entries",
             len(np.reshape(points, (-1, 3))) * np.shape(_value(cage))[0])


def _count_tape(tr, args, kwargs):
    tr.count("autodiff.tape_nodes", len(args[0]._topo_order()))


def _hash_pca(tr, args, kwargs):
    tr.note_input("pca", np.asarray(_value(args[0])))


def _hash_cotlap(tr, args, kwargs):
    tr.note_input("cotlap", args[0].vertices, args[0].faces)


def _count_written(tr, args, kwargs, result):
    tr.count("meshio.bytes_written", os.path.getsize(args[1]))


class _TracedIndex:
    """Nearest-neighbor index whose queries are spans."""

    def __init__(self, tracer, index):
        self._tracer = tracer
        self._index = index

    def query(self, q):
        with self._tracer.span("geometry.kdtree_query"):
            return self._index.query(q)

    def query_index(self, q):
        with self._tracer.span("geometry.kdtree_query"):
            return self._index.query_index(q)

    def __getattr__(self, name):
        return getattr(self._index, name)


def _wrap_index(tracer, cls, span_name):
    @functools.wraps(cls)
    def build(points, *args, **kwargs):
        with tracer.span("tracing.bookkeeping"):
            tracer.note_input("kdtree", np.asarray(points, dtype=np.float64))
        with tracer.span(span_name):
            index = cls(points, *args, **kwargs)
        return _TracedIndex(tracer, index)
    return build


# (module, attribute path, span name, before hook, after hook[, wrapper])
TARGETS = [
    ("cagewarp.optim", "mvc_weights", "mvc.weights", _count_entries, None),
    ("cagewarp.optim", "compute_mvc", "mvc.compute", None, None),
    ("cagewarp.toy", "compute_mvc", "mvc.compute", None, None),
    ("cagewarp.autodiff", "Var.backward", "autodiff.backward", _count_tape,
     None),
    ("cagewarp.losses", "SpatialIndex", "geometry.kdtree_build", None, None,
     _wrap_index),
    ("cagewarp.losses", "pca_frames", "geometry.pca", _hash_pca, None),
    ("cagewarp.losses", "cot_laplacian", "geometry.cotlap", _hash_cotlap,
     None),
    ("cagewarp.losses", "chamfer", "losses.chamfer", None, None),
    ("cagewarp.losses", "p2f_term", "losses.p2f", None, None),
    ("cagewarp.losses", "normal_term", "losses.normal", None, None),
    ("cagewarp.losses", "total_terms", "losses.terms", None, None),
    ("cagewarp.losses", "cage_laplacian_loss", "losses.clap", None, None),
    ("cagewarp.losses", "mvc_consistency", "losses.consistency", None, None),
    ("cagewarp.losses", "eval_metrics", "losses.eval", None, None),
    ("cagewarp.optim", "adam_step", "optim.adam", None, None),
    ("cagewarp.toy", "adam_step", "optim.adam", None, None),
    ("cagewarp.toy", "forward_offsets", "toy.forward", None, None),
    ("cagewarp.cli", "meshio.load_mesh", "meshio.load", None, None),
    ("cagewarp.cli", "meshio.load_points", "meshio.load", None, None),
    ("cagewarp.cli", "meshio.load_offsets", "meshio.load", None, None),
    ("cagewarp.cli", "meshio.load_landmarks", "meshio.load", None, None),
    ("cagewarp.cli", "meshio.save_mesh", "meshio.save", None,
     _count_written),
    ("cagewarp.cli", "meshio.save_offsets", "meshio.save", None,
     _count_written),
]


class Tracer:
    """Spans and counters of traced calls, kept in memory."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.absent = []
        self.counts = defaultdict(float)
        self._stack = []
        self._call = -1
        self._seen = defaultdict(set)
        self._patched = []

    # -- recording ------------------------------------------------------

    def begin_call(self, call_id: int) -> None:
        """Start a new pipeline call; repeat detection restarts."""
        self._call = call_id
        self._seen.clear()

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    def note_input(self, kind: str, *arrays) -> None:
        """Count an input, and a repeat if the same bytes came earlier in the call."""
        key = _hash(*arrays)
        self.counts[f"{kind}.inputs"] += 1
        if key in self._seen[kind]:
            self.counts[f"{kind}.repeats"] += 1
        self._seen[kind].add(key)

    # -- patching -------------------------------------------------------

    def wrap(self, fn, span_name, before=None, after=None):
        def run_hook(hook, *hook_args):
            with self.span("tracing.bookkeeping"):
                try:
                    hook(self, *hook_args)
                except (AttributeError, IndexError, TypeError, ValueError,
                        OSError):
                    # the hooked signature changed: the counter goes absent
                    if hook.__name__ not in self.absent:
                        self.absent.append(hook.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                run_hook(before, args, kwargs)
            with self.span(span_name):
                result = fn(*args, **kwargs)
            if after is not None:
                run_hook(after, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Patch every target that exists; record the others as absent."""
        for module, path, span_name, before, after, *wrapper in self.targets:
            try:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for p in parents:
                    owner = getattr(owner, p)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                if f"{module}.{path}" not in self.absent:
                    self.absent.append(f"{module}.{path}")
                continue
            if wrapper:
                traced = wrapper[0](self, original, span_name)
            else:
                traced = self.wrap(original, span_name, before, after)
            setattr(owner, attr, traced)
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


class _Span:
    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else -1
        self.record = [self.name, time.perf_counter(), 0.0, parent, tr._call,
                       False]
        tr._stack.append(len(tr.spans))
        tr.spans.append(self.record)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.record[END] = time.perf_counter()
        self.record[ERROR] = exc_type is not None
        self.tracer._stack.pop()
        return False


def self_times(spans) -> list:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for lo, hi in sorted((max(spans[c][START], s[START]),
                              min(spans[c][END], s[END]))
                             for c in children[i]):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s[END] - s[START] - covered)
    return out


def layer_metrics(tracer: Tracer, steps: int) -> dict:
    """Per-step self times, counts and ratios of all traced calls."""
    ms = defaultdict(float)
    calls = defaultdict(int)
    errors = defaultdict(int)
    for s, t in zip(tracer.spans, self_times(tracer.spans)):
        ms[s[NAME]] += t * 1e3
        calls[s[NAME]] += 1
        errors[s[NAME].split(".")[0]] += s[ERROR]
    steps = max(steps, 1)
    out = {}
    for name, metric in SELF_MS.items():
        out[metric] = ms[name] / steps
    for name, metric in CALLS.items():
        out[metric] = calls[name] / steps
    for key, metric in COUNTERS.items():
        out[metric] = tracer.counts[key] / steps
    for kind, metric in REPEATS.items():
        n = tracer.counts[f"{kind}.inputs"]
        out[metric] = tracer.counts[f"{kind}.repeats"] / n if n else 0.0
    for layer in LAYERS:
        out[f"{layer}.errors"] = float(errors[layer])
    return out
