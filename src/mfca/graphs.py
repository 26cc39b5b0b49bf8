"""Clean geometric neighborhood graphs over frame sets and the probabilistic
edge-rewiring corruption model.

Edges are stored once per undirected pair with i < j; the angle convention
theta_ji = -theta_ij is implicit, which keeps every frequency matrix built
from the graph Hermitian by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvio import read_header, read_rows, write_csv
from .so3 import FrameSet, alignment_angles

GOOD = 0
REWIRED = 1

_KIND_NAMES = np.array(["good", "rewired"])  # indexed by kind code
_HEADER = "i,j,theta,kind"
# one character wider than "rewired", so a cut-off kind is never a known one
_ROW = np.dtype([("i", np.int64), ("j", np.int64), ("theta", float), ("kind", "U8")])
# Bytes of temporaries that one block of any streamed loop may hold: every
# loop over rows, images, edges or pairs takes as many as fit, so a run's
# peak is its live arrays plus one block.
WORK_BYTES = 2**22
_ANGLE_BYTES = 3 * 72 + 6 * 8  # two gathered frames and their product, per edge


def row_blocks(n: int, row_bytes: int):
    """(lo, hi) bounds of consecutive blocks over range(n), each of as many
    rows as keep row_bytes of temporaries a row within WORK_BYTES.  A block
    is never one row, of which BLAS computes a product with gemv, which
    rounds unlike gemm: it has at least two rows, and a one-row last block
    is folded into the one before."""
    step = max(2, WORK_BYTES // row_bytes)
    lo = 0
    while lo < n:
        hi = min(lo + step, n)
        if n - hi < 2:
            hi = n
        yield lo, hi
        lo = hi


@dataclass(frozen=True)
class ObservationGraph:
    """Undirected edge list over n_vertices frames with per-edge alignment
    angle and a good/rewired flag."""

    n_vertices: int
    edge_i: np.ndarray  # int64, i < j
    edge_j: np.ndarray
    theta: np.ndarray  # radians in [0, 2*pi)
    kind: np.ndarray  # GOOD | REWIRED
    dropped_edges: int = 0  # edges removed because no rewiring target existed

    def __post_init__(self):
        ei = np.asarray(self.edge_i, dtype=np.int64)
        ej = np.asarray(self.edge_j, dtype=np.int64)
        th = np.asarray(self.theta, dtype=float)
        kd = np.asarray(self.kind, dtype=np.int8)
        if not (ei.shape == ej.shape == th.shape == kd.shape):
            raise ValueError("edge arrays must have equal lengths")
        if np.any((kd != GOOD) & (kd != REWIRED)):
            raise ValueError("edge kind must be GOOD or REWIRED")
        if not np.all(np.isfinite(th)):
            raise ValueError("theta must be finite")
        if ei.size:
            if np.any(ei >= ej):
                raise ValueError("edges must satisfy i < j (no self loops)")
            if np.any((ei < 0) | (ej >= self.n_vertices)):
                raise ValueError("edge endpoint out of range")
            keys = np.sort(ei * self.n_vertices + ej)
            if np.any(keys[1:] == keys[:-1]):
                raise ValueError("duplicate edges")
        for name, arr in (("edge_i", ei), ("edge_j", ej), ("theta", th), ("kind", kd)):
            object.__setattr__(self, name, arr)

    @property
    def n_edges(self) -> int:
        return self.edge_i.size

    def to_csv(self, path, config: str) -> None:
        """Write the edges, one a row, with config hash `config`."""
        write_csv(
            path, _HEADER, config, "%d,%d,%.17g,%s\n",
            self.edge_i, self.edge_j, self.theta, _KIND_NAMES[self.kind],
        )

    @classmethod
    def from_csv(cls, path, n_vertices: int | None = None) -> "ObservationGraph":
        """Read a graph written by to_csv in one parsing pass; '#' comments
        are skipped.  A malformed row, an unknown kind or an edge that the
        constructor rejects raises ValueError naming the file."""
        with open(path) as fh:
            read_header(fh, path, _HEADER)
            try:
                rows = read_rows(fh, path, dtype=_ROW, ndmin=1)  # no edges is valid
            except ValueError as exc:
                raise ValueError(_bad_row_message(path) or str(exc)) from exc
        kind = np.full(rows.size, -1, dtype=np.int8)
        for code, name in enumerate(_KIND_NAMES):
            kind[rows["kind"] == name] = code
        if np.any(kind < 0):
            raise ValueError(_bad_row_message(path) or f"{path}: unknown edge kind")
        ej = rows["j"].copy()
        spanned = int(max(rows["i"].max(), ej.max())) + 1 if ej.size else 0
        if n_vertices is None:
            n_vertices = spanned
        elif spanned > n_vertices:
            raise ValueError(
                f"{path}: the graph spans {spanned} vertices, "
                f"more than the {n_vertices} given"
            )
        try:
            return cls(
                n_vertices=n_vertices,
                edge_i=rows["i"].copy(),
                edge_j=ej,
                theta=rows["theta"].copy(),
                kind=kind,
            )
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def _bad_row_message(path) -> str | None:
    """Name the first data line of a graph CSV that is not `i,j,theta,kind`
    with a known kind, or None if every line is."""
    with open(path) as fh:
        next(fh)
        for number, line in enumerate(fh, start=2):
            text = line.split("#")[0].strip()
            if not text:
                continue
            try:
                fi, fj, fth, kind = text.split(",")
                int(fi), int(fj), float(fth)
            except ValueError:
                return f"{path}: line {number}: bad graph row {text!r} (expected {_HEADER})"
            if kind not in _KIND_NAMES.tolist():
                return f"{path}: line {number}: unknown edge kind {kind!r}"
    return None


def clean_graph(frames: FrameSet, cos_threshold: float) -> ObservationGraph:
    """Connect frames whose viewing directions satisfy <pi_i, pi_j> above the
    threshold; the edge angle is the optimal in-plane alignment angle."""
    n = len(frames)
    if n < 2:
        raise ValueError("need at least 2 frames")
    dirs = frames.viewing_directions()
    ii_parts, jj_parts = [], []
    # a float64 dot product and a mask per entry
    for a, b in row_blocks(n, 9 * n):
        bi, bj = np.nonzero(dirs[a:b] @ dirs.T > cos_threshold)
        keep = a + bi < bj
        ii_parts.append(a + bi[keep])
        jj_parts.append(bj[keep])
    # blocks run in increasing i and np.nonzero is row-major, so the edges
    # are already sorted by (i, j)
    ii = np.concatenate(ii_parts)
    jj = np.concatenate(jj_parts)
    theta = np.empty(ii.size)
    for a, b in row_blocks(ii.size, _ANGLE_BYTES):
        theta[a:b] = alignment_angles(frames.frames, ii[a:b], jj[a:b])
    return ObservationGraph(
        n_vertices=n,
        edge_i=ii,
        edge_j=jj,
        theta=theta,
        kind=np.zeros(ii.size, dtype=np.int8),
    )


def rewire(graph: ObservationGraph, p: float, seed: int) -> ObservationGraph:
    """The probabilistic corruption model: keep each edge with probability
    p and replace every other edge by a random one with a uniform angle.

    - Kept edges stay.
    - Every other edge (i, j), i < j, becomes (i, t) at a uniform angle.
      t is uniform over the vertices other than i and j that no kept edge
      and no other replacement joins to i.
    - Before each round of draws, an edge whose i has no such t left is
      dropped and counted in dropped_edges.  This is also what ends the
      loop on saturated graphs.

    Each round draws all pending targets at once and keeps a draw unless
    its pair is taken, also by an earlier draw of the round.  The result
    is sorted by (i, j) and deterministic for a fixed seed.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    n = graph.n_vertices
    rng = np.random.default_rng(seed)
    keep = rng.random(graph.n_edges) < p
    src, old = graph.edge_i[~keep], graph.edge_j[~keep]
    placed = np.full(src.size, -1)  # the key of each replacement, once drawn
    kept = graph.edge_i[keep] * n + graph.edge_j[keep]
    taken = np.sort(kept)  # keys i * n + j of all edges placed so far: at the end, the output
    todo = np.arange(src.size)
    while True:
        degree = np.bincount(np.concatenate([taken // n, taken % n]), minlength=n)
        a, b = src[todo], old[todo]
        # n - 2 candidates, less the neighbours of a other than b
        free = n - 2 - degree[a] + _sorted_isin(a * n + b, taken)
        live = free > 0
        todo, a, b = todo[live], a[live], b[live]
        if not todo.size:
            break
        # uniform over range(n) without a and b (a < b)
        t = rng.integers(0, n - 2, size=todo.size)
        t += t >= a
        t += t >= b
        key = np.minimum(a, t) * n + np.maximum(a, t)
        order = np.argsort(key, kind="stable")
        ok = np.ones(key.size, dtype=bool)  # the first draw of each key wins
        ok[order[1:]] = key[order[1:]] != key[order[:-1]]
        ok &= ~_sorted_isin(key, taken)
        placed[todo[ok]] = key[ok]
        new = np.sort(key[ok])
        taken = np.insert(taken, np.searchsorted(taken, new), new)
        todo = todo[~ok]
    placed = placed[placed >= 0]
    theta = np.empty(taken.size)
    kind = np.full(taken.size, REWIRED, dtype=np.int8)
    at = np.searchsorted(taken, kept)
    theta[at], kind[at] = graph.theta[keep], graph.kind[keep]
    theta[np.searchsorted(taken, placed)] = rng.uniform(0.0, 2.0 * np.pi, placed.size)
    return ObservationGraph(
        n, taken // n, taken % n, theta, kind, dropped_edges=int(src.size - placed.size)
    )


def _sorted_isin(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the keys that occur in the sorted array sorted_keys."""
    pos = np.searchsorted(sorted_keys, keys)
    hit = pos < sorted_keys.size
    hit[hit] = sorted_keys[pos[hit]] == keys[hit]
    return hit


def triangle_start(row, n: int):
    """Position of pair (row, row + 1) in the row-major upper triangle of an
    n x n matrix: the number of pairs of rows 0..row-1."""
    return row * (2 * n - row - 1) // 2


def upper_pairs(flat, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, j), i < j, at the given positions of the row-major
    upper triangle of an n x n matrix, the order of np.triu_indices(n, 1),
    in closed form."""
    flat = np.asarray(flat, dtype=np.int64)
    ii = (
        n - 2 - np.floor(np.sqrt(-8.0 * flat + 4.0 * n * (n - 1) - 7.0) / 2.0 - 0.5)
    ).astype(np.int64)
    jj = flat + ii + 1 - triangle_start(ii, n)
    return ii, jj
