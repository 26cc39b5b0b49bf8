"""The multi-frequency class averaging algorithm: per-frequency Hermitian
matrices, embeddings, affinities, aggregation, nearest neighbors, and
evaluation metrics.

For each frequency k the graph's alignment angles are encoded as e^{i k
theta_ij}; the top 2k+1 eigenvectors of the degree-normalized matrix, from
one Krylov solve of 2k+2 pairs (so at least 2k+4 vertices), give the
per-vertex embedding, whose normalized inner products define the affinity
A^(k).  Affinities multiply across frequencies into the aggregate A^All.
knn_streamed is the one nearest-neighbor path: it makes one pass over blocks
of rows, each within graphs.WORK_BYTES at any n, so no n x n matrix is built.

Both stages run on fork_map's forked worker processes, one a usable CPU:
embed_all's solves, every H^(k) on the graph's one CSR pattern, and
knn_streamed's row blocks; so do the image path's alignment row blocks
(see imaging).  Processes, not threads, because
scipy's ARPACK holds the GIL.  With one usable CPU, or where the platform
cannot fork, the same tasks run in the calling process, and the process
pool is not imported.  The array stages' outputs come from shared_empty,
made before the workers fork, so each task writes its own slice in place
and returns nothing; only embed_all's blocks travel back pickled.
embed_all's `then` runs a caller's per-frequency output (the CLI's
spectrum and scatter files) in the worker that solved the frequency,
while the other solves run.
Each worker sets its OpenBLAS to one thread, through setters the parent
finds once, so a program that imported numpy before mfca, with BLAS
threads in its own process (see the package's __init__), does not
oversubscribe the cores with them.
"""

from __future__ import annotations

import ctypes
import math
import mmap
import os
import signal
from dataclasses import dataclass
from functools import cache, partial

import numpy as np
import scipy.sparse as sp

from .eigensolver import HermitianMatrix, top_eigenpairs
from .graphs import ObservationGraph, row_blocks, upper_pairs
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
        norms = np.linalg.norm(self.embedding, axis=1)
        rows = self.embedding / np.where(norms > 0, norms, 1.0)[:, None]
        rows[self.isolated | (norms == 0)] = 0.0
        object.__setattr__(self, "embedding", rows)

    @property
    def n(self) -> int:
        return self.embedding.shape[0]


def csr_pattern(graph: ObservationGraph) -> sp.csr_matrix:
    """H^(k)'s CSR pattern, for every k at once: scipy's COO-to-CSR
    conversion of both orientations of every edge, whose data number the
    slots.  Slot s holds edge `data[s] mod m`, as (j, i) where `data[s] >=
    m`.  The edges are distinct, so the conversion sums nothing and its
    output is canonical (sorted within each row, int32 indices while they
    fit): scipy never rewrites the `indptr` and `indices` every H^(k)
    shares."""
    n, m = graph.n_vertices, graph.n_edges
    rows = np.concatenate([graph.edge_i, graph.edge_j])
    cols = np.concatenate([graph.edge_j, graph.edge_i])
    return sp.csr_matrix((np.arange(2 * m, dtype=np.intp), (rows, cols)), shape=(n, n))


def build_H(
    graph: ObservationGraph, k: int, pattern: sp.csr_matrix | None = None
) -> HermitianMatrix:
    """The degree-normalized H^(k) = D^{-1/2} W^(k) D^{-1/2}, with W^(k)_ij
    = e^{i k theta_ij} on edges, its values gathered straight into CSR order
    on the graph's csr_pattern (built here unless given); zero-degree rows
    stay empty.  Each value rounds as (inv_sqrt[i] * phase) * inv_sqrt[j],
    as two diagonal products would; Hermitian via the theta_ji = -theta_ij
    convention."""
    if k < 1:
        raise ValueError("k must be >= 1")
    p = csr_pattern(graph) if pattern is None else pattern
    n, m = graph.n_vertices, graph.n_edges
    degs = np.diff(p.indptr)
    inv_sqrt = np.where(degs > 0, 1.0 / np.sqrt(np.maximum(degs, 1)), 0.0)
    values = np.take(np.exp(1j * k * graph.theta), p.data, mode="wrap")
    np.conjugate(values, out=values, where=p.data >= m)
    # in place, value * scale rounds as scale * value: one product is zero
    values *= np.repeat(inv_sqrt, degs)
    values *= inv_sqrt[p.indices]
    return HermitianMatrix(data=sp.csr_matrix((values, p.indices, p.indptr), shape=(n, n)))


def min_vertices(k: int) -> int:
    """Fewest vertices embed serves at frequency k: 2k+2 pairs need n - 1 > 2k+2."""
    return 2 * k + 4


def embed(
    graph: ObservationGraph, k: int, pattern: sp.csr_matrix | None = None
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


_job = None  # a fork_map worker's function, inherited through fork

# the thread-count setters of OpenBLAS builds: plain, 64-bit-integer, and as
# numpy's and scipy's wheels rename them
_BLAS_SET_THREADS = (
    "openblas_set_num_threads", "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_",
)


@cache
def _blas_setters() -> tuple:
    """The thread-count setter of every OpenBLAS loaded in this process.  A
    program that imported numpy before mfca, with OPENBLAS_NUM_THREADS
    unset, loaded OpenBLAS with a thread a core; forked workers, one a core,
    would then oversubscribe the cores (knn_streamed ran 2-25x slower).
    The loaded libraries are found in the process's memory map, so only
    Linux's.  Importing mfca loads numpy's and scipy's, so they are found
    once a process, before fork_map's first fork, and each worker only
    calls the setters with 1."""
    paths = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                fields = line.split(None, 5)  # the sixth, when present, is the path
                if len(fields) == 6 and "openblas" in os.path.basename(fields[5]):
                    paths.add(fields[5].strip())
    except OSError:
        return ()
    setters = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        setter = next((getattr(lib, s) for s in _BLAS_SET_THREADS if hasattr(lib, s)), None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setters.append(setter)
    return tuple(setters)


def _adopt(fn, parent: int, blas_setters: tuple) -> None:
    """Start a fork_map worker: keep fn, run BLAS on one thread through the
    parent's _blas_setters, leave an interrupt to the parent, which lets the
    running tasks finish, and die with the parent.  A worker waits on a
    queue whose write end it holds itself, so without the kernel's
    parent-death signal (Linux prctl) it would outlive a parent killed
    outright, by SIGKILL or SIGTERM, blocked for good."""
    global _job
    _job = fn
    for setter in blas_setters:
        setter(1)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # 1: PR_SET_PDEATHSIG
    except (AttributeError, OSError):  # no prctl: not Linux
        return
    if os.getppid() != parent:  # the parent died before prctl
        os._exit(1)


def _run_task(task):
    return _job(task)


def _then(fn, then, task):
    """fn(task), after which then(task, result) runs in the same process."""
    result = fn(task)
    then(task, result)
    return result


def shared_empty(shape: tuple, dtype) -> np.ndarray:
    """An uninitialised array of `shape` and `dtype` in anonymous shared
    memory (mmap's default MAP_SHARED), so the fork_map workers forked after
    it write into the pages this process reads: a task can fill its own
    slice of a stage's output in place, and nothing travels back.  The map
    is released with the last array that views it.  At least one byte is
    mapped, since mmap refuses an empty map."""
    dtype = np.dtype(dtype)
    size = math.prod(shape)
    buffer = mmap.mmap(-1, max(1, size * dtype.itemsize))
    return np.frombuffer(buffer, dtype, count=size).reshape(shape)


def fork_map(stage: str, fn, tasks: list, then=None) -> list:
    """[fn(task) for task in tasks], in the order of `tasks`, on
    min(len(tasks), usable_cpus()) forked worker processes, queued in that
    order.  `then`, when given, is called as then(task, result) for its
    side effects (writing the result out, say) in the process that ran the
    task, right after it.  The workers inherit fn and then, and whatever
    they bind (a functools.partial's arguments, a closure's cells, the
    arrays of shared_empty that a task writes into), through fork, so only
    each task and its result are pickled; the pool forks them all before it
    starts a thread of its own.

    The tasks run here, in order, with one worker, where the platform
    cannot fork, or when fn (or the function a partial binds) was wrapped
    by a decorator that sets __wrapped__, as functools.wraps does: such a
    wrapper (a profiler's span, a cache) keeps its records in the process
    that calls it, and a worker's copy would die with the worker.

    The tasks go through ProcessPoolExecutor.map.  The error raised, from
    fn or from then, is the first failing task's in task order, once every
    task before it has finished, as on the in-process path: the same error
    on any number of workers.  Tasks not started by then are cancelled,
    and the error is raised once the running ones have stopped; an
    interrupt does the same.  A worker that dies (a signal, the OOM
    killer) raises ChildProcessError naming `stage` and its exit status.
    No worker outlives the call.
    """
    workers = min(len(tasks), usable_cpus())
    here = workers <= 1 or not hasattr(os, "fork") or hasattr(getattr(fn, "func", fn), "__wrapped__")
    if then is not None:
        fn = partial(_then, fn, then)
    if here:
        return [fn(task) for task in tasks]
    # imported here, so that `import mfca` does not pay for the process pool
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_adopt, initargs=(fn, os.getpid(), _blas_setters()),
    )
    try:
        return list(pool.map(_run_task, tasks))
    except BrokenProcessPool as exc:
        # the pool's own map of its workers: one that has died is missing
        # from active_children(), and shutdown drops the map
        forked = list(pool._processes.values())
        pool.shutdown()  # joins every worker, so each has its exit code
        raise ChildProcessError(f"{stage}: {_death(forked)}") from exc
    finally:
        pool.shutdown(cancel_futures=True)


def _death(workers: list) -> str:
    """How the first worker to die ended; once the pool breaks, the others
    are stopped with SIGTERM."""
    codes = [p.exitcode for p in workers if p.exitcode]
    code = next((c for c in codes if c != -signal.SIGTERM), codes[0] if codes else None)
    if code is None:
        return "a worker process died"
    if code < 0:
        name = {sig.value: sig.name for sig in signal.Signals}.get(-code, f"signal {-code}")
        return f"a worker process was killed by {name}"
    return f"a worker process ended with exit status {code}"


def embed_all(graph: ObservationGraph, k_max: int, then=None) -> list:
    """[embed(graph, k) for k = 1..k_max] on one shared csr_pattern, by
    fork_map, queued k_max first so the longest solve starts first.  Worker
    processes, not threads: scipy's ARPACK holds the GIL.  `then`, when
    given, is fork_map's: then(k, block) runs in the process that solved k,
    right after the solve, so a caller's per-frequency output overlaps the
    other solves.  Every solve is independent and BLAS runs one thread (see
    the package's __init__), so the blocks are the same bits on any number
    of workers."""
    pattern = csr_pattern(graph)
    ks = list(range(k_max, 0, -1))
    return fork_map("embed", partial(embed, graph, pattern=pattern), ks, then)[::-1]


def _affinity_rows(block: FrequencyBlock, lo: int, hi: int) -> np.ndarray:
    """Rows lo:hi of A^(k) from the block's unit embedding rows:
    |<Psi(i), Psi(j)>| clipped to [0, 1], so about 1 on the diagonal and 0
    in the rows and columns of isolated vertices, whose rows are zero.  Only
    the row block is conjugated.  No caller reads the diagonal: _top_k
    leaves it out, and A^All's values are read at neighbors alone."""
    emb = block.embedding
    a = np.abs(emb[lo:hi].conj() @ emb.T)
    np.clip(a, 0.0, 1.0, out=a)
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


def _knn_rows(blocks: list, names: dict, neighbors: dict, values: np.ndarray, rows: tuple) -> None:
    """Write knn_streamed's outputs for the row block `rows` = (lo, hi)
    into rows lo:hi of `neighbors` and `values`, the row block of A^All
    multiplied up in the order of `blocks`."""
    lo, hi = rows
    K = values.shape[1]
    iso = blocks[0].isolated
    prod = None
    for b in blocks:
        a = _affinity_rows(b, lo, hi)
        if b.k in names:
            neighbors[names[b.k]][lo:hi] = _top_k(a, lo, K, iso)
        if prod is None:
            prod = a
        else:
            prod *= a
    neighbors["A^All"][lo:hi] = nb_all = _top_k(prod, lo, K, iso)
    values[lo:hi] = np.take_along_axis(prod, nb_all, axis=1)


def knn_streamed(blocks: list, K: int) -> tuple:
    """K-NN of A^(k) for each k in REPORTED_KS and of A^All = prod_k A^(k),
    in one pass over blocks of rows within graphs.WORK_BYTES, so no n x n
    matrix is built.  Each row block is one of fork_map's tasks; the outputs
    come from shared_empty, so the workers, forked after the blocks exist,
    copy no embedding and write their rows in place.

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
    ks = {b.k for b in blocks}
    names = {k: f"A^({k})" for k in REPORTED_KS if k in ks}
    neighbors = {name: shared_empty((n, K), np.int64) for name in names.values()}
    neighbors["A^All"] = shared_empty((n, K), np.int64)
    values = shared_empty((n, K), float)
    task = partial(_knn_rows, blocks, names, neighbors, values)
    fork_map("knn", task, list(row_blocks(n, _KNN_ENTRY_BYTES * n)))
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
