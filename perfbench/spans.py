"""In-memory spans around the public functions of the mfca layers.

The spans are installed from outside the package: every binding of a target
function in a loaded ``mfca.*`` module (or class) is replaced by a wrapper
that records (id, name, start, end, parent, thread id).  Nothing under
``src/`` changes.  A target missing from the loaded package is skipped and
reported as absent, so the traced run keeps working when a layer is removed.

The CLI runs ``pipeline.embed`` in a thread pool, so spans opened on a worker
thread with an empty stack take the open ``cli.main`` span as their parent,
and self time subtracts the *union* of child intervals, which may overlap.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

# (owner, attribute, span name, measure peak memory).  Peak memory comes from
# tracemalloc and is taken only for spans the CLI calls on its main thread,
# outside the thread pool.
TARGETS = (
    ("mfca.graphs", "clean_graph", "graphs.clean_graph", False),
    ("mfca.graphs", "rewire", "graphs.rewire", False),
    ("mfca.graphs:ObservationGraph", "to_csv", "graphs.to_csv", False),
    ("mfca.graphs:ObservationGraph", "from_csv", "graphs.from_csv", False),
    ("mfca.pipeline", "embed", "pipeline.embed", False),
    ("mfca.pipeline", "build_H", "pipeline.build_H", False),
    ("mfca.pipeline", "normalize", "pipeline.normalize", False),
    ("mfca.eigensolver", "top_eigenpairs", "eigensolver.top_eigenpairs", False),
    ("mfca.eigensolver", "eigsh", "eigensolver.eigsh", False),
    ("mfca.pipeline", "affinity_matrix", "pipeline.affinity_matrix", True),
    ("mfca.pipeline", "knn", "pipeline.knn", True),
    ("mfca.imaging", "project", "imaging.project", False),
    ("mfca.imaging", "polar_resample", "imaging.polar_resample", False),
    ("mfca.imaging", "image_graph", "imaging.image_graph", True),
)

ROOT_SPAN = "cli.main"


class Tracer:
    """Collects spans and per-call counts; one instance per traced pass."""

    def __init__(self):
        self.spans = []  # (sid, name, start, end, parent, tid)
        self.counts = {}  # "layer.count" -> accumulated value
        self.peaks = {}  # span name -> largest tracemalloc peak, bytes
        self.eigen_calls = []  # (matrix, m, EigenPairs) for post-pass diagnostics
        self.absent = []  # target names not found in the loaded package
        self.root = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name, peak=False):
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        sid = next(self._ids)
        stack.append(sid)
        if name == ROOT_SPAN:
            self.root = sid
        measure = peak and not tracemalloc.is_tracing()
        if measure:
            tracemalloc.start()
        start = time.monotonic()
        try:
            yield
        finally:
            end = time.monotonic()
            if measure:
                peak_bytes = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peaks[name] = max(self.peaks.get(name, 0), peak_bytes)
            stack.pop()
            if name == ROOT_SPAN:
                self.root = None
            with self._lock:
                self.spans.append((sid, name, start, end, parent, threading.get_ident()))

    def add(self, key, value):
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + value

    def _observe(self, name, args, result):
        """Per-call counts, taken after the span has closed."""
        if name == "eigensolver.top_eigenpairs":
            self.eigen_calls.append((args[0], args[1], result))
        elif name == "eigensolver.eigsh":
            self.add("eigensolver.top_eigenpairs.sparse_calls", 1)
        elif name == "graphs.rewire":
            self.add("graphs.rewire.rewired_edges", int(np.count_nonzero(result.kind)))
            self.add("graphs.rewire.dropped_edges", int(result.dropped_edges))
        elif name == "graphs.clean_graph":
            self.add("graphs.clean_graph.edges", int(result.n_edges))
        elif name == "pipeline.affinity_matrix":
            self.add("pipeline.affinity_matrix.bytes_computed", int(result.nbytes))
        elif name == "imaging.image_graph":
            n = len(args[0])
            self.add("imaging.image_graph.pairs", n * (n - 1) // 2)

    def _wrap(self, fn, name, peak):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, peak):
                result = fn(*args, **kwargs)
            self._observe(name, args, result)
            return result

        return wrapper

    def install(self):
        """Replace every binding of each target inside the loaded mfca
        modules by a recording wrapper."""
        modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "mfca"]
        for owner, attr, name, peak in TARGETS:
            mod_name, _, cls_name = owner.partition(":")
            try:
                holder = importlib.import_module(mod_name)
            except ImportError:
                self.absent.append(name)
                continue
            if cls_name:
                holder = getattr(holder, cls_name, None)
                raw = vars(holder).get(attr) if holder is not None else None
                if raw is None:
                    self.absent.append(name)
                    continue
                if isinstance(raw, classmethod):
                    setattr(holder, attr, classmethod(self._wrap(raw.__func__, name, peak)))
                else:
                    setattr(holder, attr, self._wrap(raw, name, peak))
                continue
            original = getattr(holder, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(original, name, peak)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the pass; call after the pass has ended."""
        by_name = {}
        for sid, name, start, end, parent, tid in self.spans:
            by_name.setdefault(name, []).append((start, end))

        def total(name):
            return sum(e - s for s, e in by_name.get(name, ()))

        out = {
            "eigensolver.top_eigenpairs.busy_s": total("eigensolver.top_eigenpairs"),
            "eigensolver.top_eigenpairs.calls": len(by_name.get("eigensolver.top_eigenpairs", ())),
            "eigensolver.top_eigenpairs.sparse_calls": self.counts.get(
                "eigensolver.top_eigenpairs.sparse_calls", 0
            ),
            "pipeline.embed.busy_s": total("pipeline.embed"),
            "pipeline.embed.span_wall_s": _span_wall(by_name.get("pipeline.embed", ())),
            "pipeline.build_H.s": total("pipeline.build_H"),
            "pipeline.normalize.s": total("pipeline.normalize"),
            "pipeline.affinity_matrix.s": total("pipeline.affinity_matrix"),
            "pipeline.knn.s": total("pipeline.knn"),
            "pipeline.knn.peak_mb": self.peaks.get("pipeline.knn", 0) / 2**20,
            "graphs.rewire.s": total("graphs.rewire"),
            "graphs.clean_graph.s": total("graphs.clean_graph"),
            "graphs.to_csv.s": total("graphs.to_csv"),
            "graphs.from_csv.s": total("graphs.from_csv"),
            "imaging.image_graph.s": total("imaging.image_graph"),
            "imaging.image_graph.peak_mb": self.peaks.get("imaging.image_graph", 0) / 2**20,
            "imaging.polar_resample.s": total("imaging.polar_resample"),
            "imaging.project.s": total("imaging.project"),
            "cli.self_s": self._self_time(ROOT_SPAN),
        }
        for key in (
            "pipeline.affinity_matrix.bytes_computed",
            "graphs.rewire.rewired_edges",
            "graphs.rewire.dropped_edges",
            "graphs.clean_graph.edges",
            "imaging.image_graph.pairs",
        ):
            out[key] = self.counts.get(key, 0)
        out.update(self._eigen_diagnostics())
        return out

    def _self_time(self, name) -> float:
        """Duration of each `name` span minus the union of its children's
        intervals, whatever thread they ran on, summed."""
        children = {}
        for sid, _, start, end, parent, _ in self.spans:
            children.setdefault(parent, []).append((start, end))
        total = 0.0
        for sid, n, start, end, _, _ in self.spans:
            if n == name:
                clipped = [(max(s, start), min(e, end)) for s, e in children.get(sid, ())]
                total += (end - start) - _union_length(clipped)
        return total

    def _eigen_diagnostics(self) -> dict:
        """Worst eigen-residual over all solves and the gap/spread ratio of
        the top 2k+1 group at k = 1, 5, 10, from the returned pairs."""
        worst = 0.0
        gap_spread = {}
        for h, m, pairs in self.eigen_calls:
            vals = np.asarray(pairs.values, dtype=float)
            vecs = pairs.vectors
            resid = h.data @ vecs - vecs * vals[None, :]
            worst = max(worst, float(np.max(np.linalg.norm(resid, axis=0))))
            k, odd = divmod(m - 2, 2)
            if odd == 0 and k >= 1 and vals.size >= 2 * k + 2:
                spread = vals[0] - vals[2 * k]
                gap = vals[2 * k] - vals[2 * k + 1]
                gap_spread[k] = gap / spread if spread > 0 else float("inf")
        out = {"eigensolver.worst_residual": worst}
        for k in (1, 5, 10):
            out[f"eigensolver.gap_spread.k{k}"] = gap_spread.get(k, 0.0)
        return out


def _span_wall(intervals) -> float:
    if not intervals:
        return 0.0
    return max(e for _, e in intervals) - min(s for s, _ in intervals)


def _union_length(intervals) -> float:
    length, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                length += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        length += cur_e - cur_s
    return length
