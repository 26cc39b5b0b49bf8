"""The multi-frequency class averaging algorithm: per-frequency Hermitian
matrices, embeddings, affinities, aggregation, nearest neighbors, and
evaluation metrics.

For each frequency k the graph's alignment angles are encoded as e^{i k
theta_ij}; the top 2k+1 eigenvectors of the degree-normalized matrix, from
one Krylov solve of 2k+2 pairs (so at least 2k+4 vertices), give the
per-vertex embedding, whose normalized inner products define the affinity
A^(k).  embed_all solves the frequencies side by side on a thread pool,
every H^(k) on the graph's one CSR pattern.  Affinities multiply across
frequencies into the aggregate A^All.  knn_streamed is the one nearest-neighbor path: it makes one pass over blocks
of rows, each within graphs.WORK_BYTES at any n, so no n x n matrix is built.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .eigensolver import HermitianMatrix, top_eigenpairs
from .graphs import ObservationGraph, degrees, row_blocks, upper_pairs
from .so3 import FrameSet

# temporaries per affinity entry of a K-NN block: the complex product, the
# affinity, the running A^All product, and _top_k's keys and partition
_KNN_ENTRY_BYTES = 16 + 4 * 8
REPORTED_KS = (1, 5, 10)  # frequencies whose own K-NN knn_streamed reports
GROUP_REL_TOL = 0.02


@dataclass(frozen=True)
class FrequencyBlock:
    """Per-frequency bundle: spectrum head and the n x (2k+1) embedding,
    stored as unit rows."""

    k: int
    eigenvalues: np.ndarray  # top 2k+2, descending
    embedding: np.ndarray  # (n, 2k+1) complex unit rows, zero at isolated vertices
    isolated: np.ndarray  # (n,) bool: zero-degree vertices

    def __post_init__(self):
        emb = np.asarray(self.embedding, dtype=complex)
        isolated = np.asarray(self.isolated, dtype=bool)
        norms = np.linalg.norm(emb, axis=1)
        rows = emb / np.where(norms > 0, norms, 1.0)[:, None]
        rows[isolated | (norms == 0)] = 0.0
        object.__setattr__(self, "eigenvalues", np.asarray(self.eigenvalues, dtype=float))
        object.__setattr__(self, "embedding", rows)
        object.__setattr__(self, "isolated", isolated)

    @property
    def n(self) -> int:
        return self.embedding.shape[0]


@dataclass(frozen=True)
class CsrPattern:
    """The sparsity pattern that every H^(k) of one graph shares: CSR
    `indptr` and `indices` over both orientations of every edge, sorted
    within each row and free of duplicates, so scipy never rewrites these
    shared arrays; and the gather from edges to CSR slots: slot s holds edge
    `edge[s]`, as (j, i) where `flip[s]`."""

    indptr: np.ndarray  # (n + 1,)
    indices: np.ndarray  # (2E,)
    edge: np.ndarray  # (2E,)
    flip: np.ndarray  # (2E,) bool


def csr_pattern(graph: ObservationGraph) -> CsrPattern:
    """H^(k)'s CSR pattern, for every k at once; int32 indices while they
    fit, as scipy's own COO-to-CSR conversion picks."""
    n, m = graph.n_vertices, graph.n_edges
    rows = np.concatenate([graph.edge_i, graph.edge_j])
    cols = np.concatenate([graph.edge_j, graph.edge_i])
    order = np.argsort(rows * n + cols)  # distinct keys: every sort agrees
    idx = np.int32 if max(n, 2 * m) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n + 1, dtype=idx)
    np.cumsum(degrees(graph), out=indptr[1:])
    flip = order >= m
    return CsrPattern(
        indptr=indptr, indices=cols[order].astype(idx),
        edge=np.where(flip, order - m, order).astype(idx), flip=flip,
    )


def build_H(
    graph: ObservationGraph, k: int, pattern: CsrPattern | None = None
) -> HermitianMatrix:
    """The degree-normalized H^(k) = D^{-1/2} W^(k) D^{-1/2}, with W^(k)_ij
    = e^{i k theta_ij} on edges, its values written straight into CSR order
    on the graph's csr_pattern (built here unless given); zero-degree rows
    stay empty.  Each value rounds as (inv_sqrt[i] * phase) * inv_sqrt[j],
    as two diagonal products would; Hermitian via the theta_ji = -theta_ij
    convention."""
    if k < 1:
        raise ValueError("k must be >= 1")
    p = csr_pattern(graph) if pattern is None else pattern
    n = graph.n_vertices
    degs = np.diff(p.indptr)
    inv_sqrt = np.where(degs > 0, 1.0 / np.sqrt(np.maximum(degs, 1)), 0.0)
    values = np.exp(1j * k * graph.theta)[p.edge]
    np.conjugate(values, out=values, where=p.flip)
    # in place, value * scale rounds as scale * value: one product is zero
    values *= np.repeat(inv_sqrt, degs)
    values *= inv_sqrt[p.indices]
    return HermitianMatrix(data=sp.csr_matrix((values, p.indices, p.indptr), shape=(n, n)))


def min_vertices(k: int) -> int:
    """Fewest vertices embed serves at frequency k: 2k+2 pairs need n - 1 > 2k+2."""
    return 2 * k + 4


def embed(
    graph: ObservationGraph, k: int, pattern: CsrPattern | None = None
) -> FrequencyBlock:
    """Top 2k+1 eigenvectors of the normalized H^(k), one row per vertex;
    retains 2k+2 eigenvalues so the trailing gap is reportable.  The graph
    must have at least min_vertices(k) = 2k+4 vertices; `pattern`, the
    graph's csr_pattern, is built here unless given."""
    if graph.n_edges == 0:
        raise ValueError("graph has no edges")
    n, need = graph.n_vertices, min_vertices(k)
    if n < need:
        raise ValueError(f"frequency k={k} needs 2k+4 = {need} vertices; the graph has {n}")
    h = build_H(graph, k, pattern)
    pairs = top_eigenpairs(h, 2 * k + 2)
    return FrequencyBlock(
        k=k,
        eigenvalues=pairs.values,
        embedding=pairs.vectors[:, : 2 * k + 1],
        isolated=np.diff(h.data.indptr) == 0,  # the empty rows of H^(k)
    )


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS keeps
    one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def embed_all(graph: ObservationGraph, k_max: int) -> list:
    """[embed(graph, k) for k = 1..k_max] on one shared csr_pattern, queued
    k_max first, so the longest solve starts first, on a pool of
    min(k_max, usable_cpus()) threads; ARPACK and the CSR products release
    the GIL.  Every solve is independent and BLAS runs one thread (see the
    package's __init__), so the blocks are the same bits on any number of
    threads.  The first error, or an interrupt, cancels every frequency not
    yet started; it is raised once the running ones have stopped."""
    pattern = csr_pattern(graph)
    pool = ThreadPoolExecutor(min(k_max, usable_cpus()))
    futures = [pool.submit(embed, graph, k, pattern) for k in range(k_max, 0, -1)]
    try:
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        pool.shutdown(cancel_futures=True)
    # a failed frequency ran, so it is never skipped here: the list comes
    # back short only by raising its error
    return [f.result() for f in futures if not f.cancelled()][::-1]


def _affinity_rows(block: FrequencyBlock, lo: int, hi: int) -> np.ndarray:
    """Rows lo:hi of A^(k) from the block's unit embedding rows:
    |<Psi(i), Psi(j)>| clipped to [0, 1], with diagonal 1 (0 at isolated
    vertices, whose rows are zero).  Only the row block is conjugated."""
    emb = block.embedding
    a = np.abs(emb[lo:hi].conj() @ emb.T)
    np.clip(a, 0.0, 1.0, out=a)
    r = np.arange(lo, hi)
    a[r - lo, r] = np.where(block.isolated[lo:hi], 0.0, 1.0)
    return a


def _top_k(a: np.ndarray, lo: int, K: int, isolated: np.ndarray) -> np.ndarray:
    """Per-row indices of the K largest entries of a, the rows lo.. of an
    n-column affinity, leaving out the diagonal and isolated columns.

    np.partition finds each row's K-th value; only the candidates at or above
    it are sorted, by (-affinity, index), so ties go to the lower index, at
    the K boundary too.  A row with fewer than K candidates is filled from
    the isolated columns in index order, keyed at -1 below every clipped
    affinity; the diagonal, keyed at -inf, is never needed since K < n.
    """
    keys = np.where(isolated, -1.0, a)
    r = np.arange(a.shape[0])
    keys[r, r + lo] = -np.inf
    n = keys.shape[1]
    kth = np.partition(keys, n - K, axis=1)[:, n - K]
    cand_row, cand_col = np.nonzero(keys >= kth[:, None])
    # nonzero lists each row's candidates by column; a stable sort on
    # (row, -affinity) keeps that order among equal affinities
    order = np.lexsort((-keys[cand_row, cand_col], cand_row))
    counts = np.bincount(cand_row, minlength=keys.shape[0])
    first = np.cumsum(counts) - counts
    return cand_col[order[first[:, None] + np.arange(K)]]


def knn_streamed(blocks: list, K: int) -> tuple:
    """K-NN of A^(k) for each k in REPORTED_KS and of A^All = prod_k A^(k),
    in one pass over blocks of rows within graphs.WORK_BYTES, so no n x n
    matrix is built.

    Each row block of A^All is multiplied up in the order of `blocks`, which
    reproduces np.prod over a stacked array bit for bit.  Returns a dict of
    (n, K) neighbor lists keyed "A^(k)" then "A^All", and A^All's values at
    its neighbors.  Ties break toward the lower index; isolated vertices are
    excluded from candidacy and receive neighbor lists drawn from the
    remaining pool.  A row with fewer than K candidates is filled with
    isolated vertices in index order, never with the vertex itself.
    """
    n = blocks[0].n
    if not 1 <= K < n:
        raise ValueError("K must satisfy 1 <= K < n")
    iso = blocks[0].isolated
    ks = {b.k for b in blocks}
    names = {k: f"A^({k})" for k in REPORTED_KS if k in ks}
    neighbors = {name: np.empty((n, K), dtype=np.int64) for name in names.values()}
    neighbors["A^All"] = nb_all = np.empty((n, K), dtype=np.int64)
    values = np.empty((n, K))
    for lo, hi in row_blocks(n, _KNN_ENTRY_BYTES * n):
        prod = None
        for b in blocks:
            a = _affinity_rows(b, lo, hi)
            if b.k in names:
                neighbors[names[b.k]][lo:hi] = _top_k(a, lo, K, iso)
            if prod is None:
                prod = a
            else:
                prod *= a
        nb_all[lo:hi] = _top_k(prod, lo, K, iso)
        values[lo:hi] = np.take_along_axis(prod, nb_all[lo:hi], axis=1)
    return neighbors, values


def neighbor_angles(frames: FrameSet, neighbors: np.ndarray) -> np.ndarray:
    """Viewing angle in degrees between each vertex and each of its
    neighbors, in the (n, K) shape of `neighbors`."""
    dirs = frames.viewing_directions()
    neighbors = np.asarray(neighbors, dtype=np.int64)
    # a stack of 1x3 @ 3x1 products rounds as the per-pair dirs[i] @ dirs[j]
    # does; einsum does not
    cos = dirs[:, None, None, :] @ dirs[neighbors][..., None]
    return np.degrees(np.arccos(np.clip(cos.reshape(neighbors.shape), -1.0, 1.0)))


def angle_stats(angles: np.ndarray) -> dict:
    """Angular quality of a neighbor assignment from its neighbor_angles.

    Returns the per-pair viewing-angle histogram (2 degree bins over
    [0, 180]), the mean angle, and the fractions within 10/20/30 degrees.
    """
    ang = np.ravel(angles)
    hist, edges = np.histogram(ang, bins=np.arange(0.0, 180.0 + 2.0, 2.0))
    return {
        "mean_angle_deg": float(np.mean(ang)),
        "frac_le_10": float(np.mean(ang <= 10.0)),
        "frac_le_20": float(np.mean(ang <= 20.0)),
        "frac_le_30": float(np.mean(ang <= 30.0)),
        "histogram_counts": hist.tolist(),
        "histogram_edges_deg": edges.tolist(),
    }


def scatter_data(
    block: FrequencyBlock, frames: FrameSet, sample: int, seed: int
) -> np.ndarray:
    """Seeded sample of unordered pairs with (A^(k)_ij, ((<pi_i,pi_j>+1)/2)^k),
    gathered in chunks of pairs within graphs.WORK_BYTES."""
    n = block.n
    total = n * (n - 1) // 2
    if sample > total:
        raise ValueError("sample exceeds the number of unordered pairs")
    rng = np.random.default_rng(seed)
    flat = rng.choice(total, size=sample, replace=False)
    ii, jj = upper_pairs(flat, n)
    dirs = frames.viewing_directions()
    unit = block.embedding
    out = np.empty((sample, 2))
    # per pair: two gathered embedding rows and a conjugate, and two
    # gathered directions
    pair_bytes = 3 * 16 * unit.shape[1] + 2 * 8 * 3
    for lo, hi in row_blocks(sample, pair_bytes):
        i, j = ii[lo:hi], jj[lo:hi]
        out[lo:hi, 0] = np.abs(np.einsum("pd,pd->p", unit[i], unit[j].conj()))
        out[lo:hi, 1] = ((np.einsum("pd,pd->p", dirs[i], dirs[j]) + 1.0) / 2.0) ** block.k
    return out


def group_eigenvalues(values: np.ndarray, rel_tol: float = GROUP_REL_TOL) -> list:
    """Split a descending eigenvalue list into near-equality groups.

    A new group starts whenever the drop from the previous value exceeds
    rel_tol times the top eigenvalue.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return []
    tol = rel_tol * abs(values[0])
    groups = [[0]]
    for r in range(1, values.size):
        if values[r - 1] - values[r] > tol:
            groups.append([r])
        else:
            groups[-1].append(r)
    return groups
