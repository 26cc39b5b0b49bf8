import functools
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import mfca
from mfca import eigensolver, graphs, pipeline, so3


@pytest.fixture(scope="module")
def frames():
    return so3.sample_uniform(101, 400)


@pytest.fixture(scope="module")
def clean(frames):
    return graphs.clean_graph(frames, 0.9)


@pytest.fixture(scope="module")
def blocks(clean):
    return [pipeline.embed(clean, k) for k in (1, 2, 3)]


def shift_angles(graph, alpha):
    """Apply the per-vertex gauge theta_ij -> theta_ij - alpha_i + alpha_j."""
    theta = (graph.theta - alpha[graph.edge_i] + alpha[graph.edge_j]) % (2 * np.pi)
    return graphs.ObservationGraph(
        n_vertices=graph.n_vertices,
        edge_i=graph.edge_i,
        edge_j=graph.edge_j,
        theta=theta,
        kind=graph.kind,
    )


def two_step_H(graph, k):
    """Reference H^(k): the unnormalized CSR build, then D^{-1/2} H D^{-1/2}
    as two sparse diagonal products."""
    n = graph.n_vertices
    phase = np.exp(1j * k * graph.theta)
    rows = np.concatenate([graph.edge_i, graph.edge_j])
    cols = np.concatenate([graph.edge_j, graph.edge_i])
    h = sp.csr_matrix((np.concatenate([phase, phase.conj()]), (rows, cols)), shape=(n, n))
    degs = np.diff(h.indptr).astype(float)
    d = sp.diags(np.where(degs > 0, 1.0 / np.sqrt(np.maximum(degs, 1)), 0.0))
    return d @ h @ d


def coo_H(graph, k):
    """Reference H^(k): the one COO-to-CSR build of both orientations of
    every edge that build_H used before the shared CSR pattern."""
    n = graph.n_vertices
    degs = graphs.degrees(graph)
    inv_sqrt = np.where(degs > 0, 1.0 / np.sqrt(np.maximum(degs, 1)), 0.0)
    rows = np.concatenate([graph.edge_i, graph.edge_j])
    cols = np.concatenate([graph.edge_j, graph.edge_i])
    phase = np.exp(1j * k * graph.theta)
    values = (inv_sqrt[rows] * np.concatenate([phase, np.conj(phase)])) * inv_sqrt[cols]
    return sp.csr_matrix((values, (rows, cols)), shape=(n, n))


def _traced(fn):
    """(tracemalloc peak in bytes while fn runs, fn's result)."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def affinity(block):
    """The whole n x n A^(k), from the rows the streamed K-NN computes."""
    return pipeline._affinity_rows(block, 0, block.n)


def _edges(graph, index):
    """graph with only the edges at index, in that order."""
    return graphs.ObservationGraph(
        n_vertices=graph.n_vertices,
        edge_i=graph.edge_i[index],
        edge_j=graph.edge_j[index],
        theta=graph.theta[index],
        kind=graph.kind[index],
    )


class TestBuildH:
    def test_entries(self, clean):
        h = pipeline.build_H(clean, 2).data.toarray()
        degs = graphs.degrees(clean)
        e = 0
        i, j, t = clean.edge_i[e], clean.edge_j[e], clean.theta[e]
        scale = np.sqrt(degs[i] * degs[j])
        assert np.isclose(h[i, j], np.exp(2j * t) / scale, atol=1e-14)
        assert np.isclose(h[j, i], np.exp(-2j * t) / scale, atol=1e-14)

    def test_hermitian(self, clean):
        h = pipeline.build_H(clean, 3).data.toarray()
        assert np.allclose(h, h.conj().T)

    def test_zero_diagonal(self, clean):
        h = pipeline.build_H(clean, 1).data.toarray()
        assert np.all(np.diag(h) == 0)

    def test_rejects_k_zero(self, clean):
        with pytest.raises(ValueError):
            pipeline.build_H(clean, 0)

    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("case", ["rewired", "isolated", "shuffled"])
    def test_matches_two_step_reference(self, clean, k, case):
        # the one-step build rounds every value as the two diagonal products
        # did, so the CSR arrays agree byte for byte
        rewired = graphs.rewire(clean, 0.5, 4)
        graph = {
            "rewired": rewired,
            "isolated": _edges(clean, clean.edge_i != 0),  # vertex 0 loses its edges
            "shuffled": _edges(rewired, np.random.default_rng(9).permutation(rewired.n_edges)),
        }[case]
        got = pipeline.build_H(graph, k).data
        if case == "isolated":
            assert got.indptr[1] == 0
        ref = two_step_H(graph, k)
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("k", [1, 2, 5, 10])
    def test_matches_coo_build(self, clean, k):
        # vertices 0 and 7 lose their edges, so their rows stay empty
        graph = _edges(clean, ~np.isin(clean.edge_i, [0, 7]) & ~np.isin(clean.edge_j, [0, 7]))
        pattern = pipeline.csr_pattern(graph)
        ref = coo_H(graph, k)
        for got in (pipeline.build_H(graph, k).data, pipeline.build_H(graph, k, pattern).data):
            assert np.all(np.diff(got.indptr)[[0, 7]] == 0)
            for name in ("indptr", "indices", "data"):
                a, b = getattr(got, name), getattr(ref, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_shares_the_pattern(self, clean):
        # every H^(k) of one graph holds the pattern's own index arrays,
        # which scipy never rewrites: they are sorted and free of duplicates
        pattern = pipeline.csr_pattern(clean)
        for k in (1, 4):
            h = pipeline.build_H(clean, k, pattern).data
            for name in ("indptr", "indices"):
                assert np.shares_memory(getattr(h, name), getattr(pattern, name)), name
            assert h.has_canonical_format


class TestNormalize:
    def test_two_vertex_example(self):
        g = graphs.ObservationGraph(
            n_vertices=2,
            edge_i=np.array([0]),
            edge_j=np.array([1]),
            theta=np.array([0.5]),
            kind=np.zeros(1, dtype=np.int8),
        )
        hn = pipeline.build_H(g, 1).data.toarray()
        assert np.isclose(hn[0, 1], np.exp(0.5j), atol=1e-14)

    def test_spectral_radius_at_most_one(self, clean):
        vals = np.linalg.eigvalsh(pipeline.build_H(clean, 1).data.toarray())
        assert np.max(np.abs(vals)) <= 1.0 + 1e-9

    def test_isolated_row_stays_zero(self):
        g = graphs.ObservationGraph(
            n_vertices=3,
            edge_i=np.array([0]),
            edge_j=np.array([1]),
            theta=np.array([1.0]),
            kind=np.zeros(1, dtype=np.int8),
        )
        hn = pipeline.build_H(g, 1).data.toarray()
        assert np.all(hn[2] == 0) and np.all(hn[:, 2] == 0)


class TestEmbed:
    def test_shapes(self, blocks, clean):
        for b in blocks:
            assert b.embedding.shape == (clean.n_vertices, 2 * b.k + 1)
            assert b.eigenvalues.shape == (2 * b.k + 2,)
            assert np.all(np.diff(b.eigenvalues) <= 1e-12)
            assert np.allclose(np.linalg.norm(b.embedding, axis=1), 1.0, atol=1e-14)

    def test_isolated_mask(self, blocks):
        assert not np.any(blocks[0].isolated)

    def test_rejects_empty_graph(self):
        g = graphs.ObservationGraph(
            n_vertices=3,
            edge_i=np.array([], dtype=np.int64),
            edge_j=np.array([], dtype=np.int64),
            theta=np.array([]),
            kind=np.array([], dtype=np.int8),
        )
        with pytest.raises(ValueError):
            pipeline.embed(g, 1)

    @pytest.mark.parametrize("k", [1, 3])
    def test_needs_2k_plus_4_vertices(self, k):
        # 2k+2 eigenpairs by Krylov need 2k+2 < n - 1

        def complete(n):
            ii, jj = np.triu_indices(n, 1)
            theta = np.random.default_rng(n).uniform(0.0, 2 * np.pi, ii.size)
            kind = np.zeros(ii.size, dtype=np.int8)
            return graphs.ObservationGraph(
                n_vertices=n, edge_i=ii, edge_j=jj, theta=theta, kind=kind
            )

        n = 2 * k + 4
        with pytest.raises(ValueError) as info:
            pipeline.embed(complete(n - 1), k)
        assert str(info.value) == (
            f"frequency k={k} needs 2k+4 = {n} vertices; the graph has {n - 1}"
        )
        block = pipeline.embed(complete(n), k)
        assert block.embedding.shape == (n, 2 * k + 1)
        assert block.eigenvalues.shape == (2 * k + 2,)


class TestEmbedAll:
    @pytest.mark.parametrize("cpus", [1, 3])
    def test_matches_embed_bit_for_bit(self, clean, blocks, monkeypatch, cpus):
        monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)
        got = pipeline.embed_all(clean, 3)
        assert [b.k for b in got] == [1, 2, 3]
        for a, b in zip(got, blocks):
            assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
            assert a.embedding.tobytes() == b.embedding.tobytes()
            assert np.array_equal(a.isolated, b.isolated)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("bad_k", [1, 3])
    def test_worker_error_is_raised(self, clean, monkeypatch, cpus, bad_k):
        # the failing frequency's own error, never CancelledError, whether it
        # is queued first (k_max) or last (k = 1)
        monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)
        real_build = pipeline.build_H

        def build(graph, k, pattern=None):
            h = real_build(graph, k, pattern)
            if k == bad_k:
                h.data.data[0] = np.nan
            return h

        monkeypatch.setattr(pipeline, "build_H", build)
        with pytest.raises(eigensolver.EigensolverError, match="non-finite entry"):
            pipeline.embed_all(clean, 3)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_then_runs_where_each_frequency_was_solved(self, clean, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)

        def then(k, block):
            (tmp_path / f"k{k}").write_text(f"{block.k} {os.getpid()}")

        assert [b.k for b in pipeline.embed_all(clean, 3, then=then)] == [1, 2, 3]
        for k in (1, 2, 3):
            got, pid = map(int, (tmp_path / f"k{k}").read_text().split())
            assert got == k
            assert (pid == os.getpid()) == (cpus == 1)
        assert multiprocessing.active_children() == []

    def test_longest_solve_starts_first(self, clean, monkeypatch):
        monkeypatch.setattr(pipeline, "usable_cpus", lambda: 1)
        entered = []
        real_embed = pipeline.embed

        def embed(graph, k, pattern=None):
            entered.append(k)
            return real_embed(graph, k, pattern)

        monkeypatch.setattr(pipeline, "embed", embed)
        assert [b.k for b in pipeline.embed_all(clean, 3)] == [1, 2, 3]
        assert entered == [3, 2, 1]


class TestForkMap:
    def test_forks_from_one_thread(self, clean, monkeypatch):
        # Python 3.12 warns on a fork from a process that runs other
        # threads, whose locks the child may inherit held: the pool must
        # fork every worker before it starts its own threads
        monkeypatch.setattr(pipeline, "usable_cpus", lambda: 2)
        monkeypatch.setattr(graphs, "WORK_BYTES", 8 * pipeline._KNN_ENTRY_BYTES * clean.n_vertices)
        threads = []
        real_fork = os.fork

        def fork():
            threads.append(threading.active_count())
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            blocks = pipeline.embed_all(clean, 3)
            pipeline.knn_streamed(blocks, 10)
        assert threads == [1] * 4  # two workers for each stage
        assert multiprocessing.active_children() == []

    def test_wrapped_function_runs_here(self, clean, monkeypatch):
        # a wrapper made with functools.wraps, as a profiler's spans are,
        # records in the process that calls it; in a worker its records
        # would be lost, so fork_map runs the tasks in this process
        monkeypatch.setattr(pipeline, "usable_cpus", lambda: 2)
        calls, forks = [], []
        real_embed, real_fork = pipeline.embed, os.fork

        @functools.wraps(real_embed)
        def embed(graph, k, pattern=None):
            calls.append(k)
            return real_embed(graph, k, pattern)

        def fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(pipeline, "embed", embed)
        monkeypatch.setattr(os, "fork", fork)
        assert [b.k for b in pipeline.embed_all(clean, 3)] == [1, 2, 3]
        assert calls == [3, 2, 1]
        assert forks == []

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_shared_empty_takes_each_task_slice(self, monkeypatch, cpus):
        # each task writes its own rows, in a forked worker on 2 CPUs, and
        # the calling process reads every one of them back
        monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)
        out = pipeline.shared_empty((8, 3), np.int64)
        assert out.shape == (8, 3) and out.dtype == np.int64

        def write(task):
            out[2 * task : 2 * task + 2] = [task, os.getpid(), -task]

        assert pipeline.fork_map("test", write, [0, 1, 2, 3]) == [None] * 4
        assert out[:, 0].tolist() == [0, 0, 1, 1, 2, 2, 3, 3]
        assert out[:, 2].tolist() == [0, 0, -1, -1, -2, -2, -3, -3]
        assert (out[:, 1] == os.getpid()).all() == (cpus == 1)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_first_error_in_task_order(self, monkeypatch, cpus):
        # task 0 fails last in time, but first in task order: its error is
        # the one raised, as on one CPU, however many workers run
        monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)

        def fail(task):
            if task == 0:
                time.sleep(0.3)
            raise ValueError(f"task {task}")

        with pytest.raises(ValueError, match="^task 0$"):
            pipeline.fork_map("test", fail, [0, 1, 2])
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "shape, dtype", [((3,), np.int16), ((2, 5, 4), complex), ((0,), float), ((4, 0), np.int64)]
    )
    def test_shared_empty_shape_and_dtype(self, shape, dtype):
        a = pipeline.shared_empty(shape, dtype)
        assert a.shape == shape and a.dtype == dtype
        a[...] = 1
        assert (a == 1).all()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="the memory map is Linux's")
    def test_workers_run_one_blas_thread(self):
        # numpy imported before mfca, with no thread count set, loads
        # OpenBLAS with a thread a core; each worker must still run one
        script = (
            "import numpy\n"
            "import ctypes, multiprocessing\n"
            "from mfca import pipeline\n"
            "def blas_threads(_):\n"
            "    paths = {line.split(None, 5)[-1].strip() for line in open('/proc/self/maps')}\n"
            "    libs = [ctypes.CDLL(p) for p in paths if 'openblas' in p.rsplit('/', 1)[-1]]\n"
            "    names = [s.replace('_set_', '_get_') for s in pipeline._BLAS_SET_THREADS]\n"
            "    return [getattr(lib, s)() for lib in libs for s in names if hasattr(lib, s)]\n"
            "pipeline.usable_cpus = lambda: 2\n"
            "print(max(blas_threads(None)), flush=True)\n"
            "for counts in pipeline.fork_map('test', blas_threads, [0, 1, 2]):\n"
            "    print(*counts, flush=True)\n"
        )
        src = str(Path(mfca.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        parent, *workers = out.stdout.split("\n")[:4]
        if os.cpu_count() > 1:  # else OpenBLAS starts with one thread anyway
            assert int(parent) > 1
        assert len(workers) == 3
        for line in workers:
            counts = [int(c) for c in line.split()]
            assert counts and set(counts) == {1}, line

    def test_import_leaves_the_process_pool_out(self):
        # fork_map imports the process pool when it first forks, so a
        # program that never forks does not pay for it at import
        src = str(Path(mfca.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        script = "import sys, mfca.cli\nprint('concurrent.futures.process' in sys.modules)\n"
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout == "False\n"

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="prctl is Linux's")
    def test_workers_die_with_their_parent(self):
        # task 0 notes its pid and sleeps; task 1, in the other worker,
        # prints both pids and kills the parent, so one worker is in a task
        # that would run on, and the other would wait on the queue for good
        script = (
            "import os, signal, time\n"
            "from mfca import pipeline\n"
            "pipeline.usable_cpus = lambda: 2\n"
            "pids = pipeline.shared_empty((2,), 'i8')\n"
            "pids[:] = 0\n"
            "def task(t):\n"
            "    pids[t] = os.getpid()\n"
            "    if t == 0:\n"
            "        time.sleep(60)\n"
            "    while not pids[0]:\n"
            "        time.sleep(0.01)\n"
            "    print(*pids, flush=True)\n"
            "    os.kill(os.getppid(), signal.SIGKILL)\n"
            "pipeline.fork_map('test', task, [0, 1])\n"
        )
        src = str(Path(mfca.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        # one line, not the whole of stdout: a surviving worker holds it open
        with subprocess.Popen(
            [sys.executable, "-c", script], env=env, stdout=subprocess.PIPE, text=True
        ) as parent:
            workers = [int(pid) for pid in parent.stdout.readline().split()]
            assert parent.wait(timeout=60) == -signal.SIGKILL
        assert len(set(workers)) == 2
        deadline = time.monotonic() + 10
        try:
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_running, workers))
        finally:
            for pid in filter(_running, workers):
                os.kill(pid, signal.SIGKILL)


def _running(pid: int) -> bool:
    """Whether process pid exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestAffinity:
    def test_bounds_and_symmetry(self, blocks):
        a = affinity(blocks[0])
        assert np.all(a >= 0) and np.all(a <= 1)
        assert np.allclose(a, a.T, atol=1e-12)
        assert np.allclose(np.diag(a), 1.0)

    def test_gauge_invariance(self, frames, clean):
        # re-expressing every frame in a rotated in-plane gauge must leave
        # the affinities unchanged
        rng = np.random.default_rng(3)
        alpha = rng.uniform(0, 2 * np.pi, clean.n_vertices)
        shifted = shift_angles(clean, alpha)
        a0 = affinity(pipeline.embed(clean, 2))
        a1 = affinity(pipeline.embed(shifted, 2))
        assert np.max(np.abs(a0 - a1)) < 1e-8

    def test_start_seed_stability(self, clean, monkeypatch):
        b0 = pipeline.embed(clean, 1)
        real_eigsh = eigensolver.eigsh

        def eigsh_from_seed_42(a, v0, **kwargs):
            v0 = np.random.default_rng(42).standard_normal(v0.size)
            return real_eigsh(a, v0=v0, **kwargs)

        monkeypatch.setattr(eigensolver, "eigsh", eigsh_from_seed_42)
        b1 = pipeline.embed(clean, 1)
        assert not np.array_equal(b0.embedding, b1.embedding)  # the start did change
        a0 = affinity(b0)
        a1 = affinity(b1)
        assert np.max(np.abs(a0 - a1)) < 1e-6


class TestKnn:
    def test_small_example(self):
        a = np.array(
            [
                [1.0, 0.9, 0.1, 0.5],
                [0.9, 1.0, 0.2, 0.3],
                [0.1, 0.2, 1.0, 0.8],
                [0.5, 0.3, 0.8, 1.0],
            ]
        )
        nb = pipeline._top_k(a, 0, 2, np.zeros(4, dtype=bool))
        assert nb[0].tolist() == [1, 3]
        assert nb[2].tolist() == [3, 1]

    def test_tie_breaks_to_lower_index(self):
        a = np.full((4, 4), 0.5)
        np.fill_diagonal(a, 1.0)
        nb = pipeline._top_k(a, 0, 2, np.zeros(4, dtype=bool))
        assert nb[3].tolist() == [0, 1]

    def test_excludes_isolated(self):
        blocks = _random_blocks(12, (1, 2), 3, isolated=(1, 4))
        nb, _ = pipeline.knn_streamed(blocks, 3)
        for name in ("A^(1)", "A^All"):
            assert not np.isin(nb[name], [1, 4]).any(), name

    def test_monotone_transform_invariance(self, blocks):
        # A^All over p copies of one frequency is an elementwise power of its
        # affinity, a monotone transform, so the neighbor lists must be
        # exactly identical
        base = pipeline.knn_streamed(blocks[:1], 5)[0]["A^All"]
        for power in (2, 5):
            assert np.array_equal(base, pipeline.knn_streamed(blocks[:1] * power, 5)[0]["A^All"])

    def test_cross_frequency_overlap(self, blocks):
        # different frequencies estimate the same geometry: neighbor sets
        # should agree closely (sampling noise prevents exact equality)
        k1 = pipeline.knn_streamed([blocks[0]], 5)[0]["A^All"]
        k3 = pipeline.knn_streamed([blocks[2]], 5)[0]["A^All"]
        overlap = np.mean(
            [len(set(a) & set(b)) / 5.0 for a, b in zip(k1, k3)]
        )
        assert overlap > 0.8

    def test_rejects_bad_K(self, blocks):
        with pytest.raises(ValueError):
            pipeline.knn_streamed(blocks[:1], 0)


def _random_blocks(n, ks, seed, isolated=(), constant=False):
    """FrequencyBlocks from seeded random complex embeddings (no eigensolve);
    `constant` gives every vertex the same row, so all affinities tie."""
    rng = np.random.default_rng(seed)
    iso = np.zeros(n, dtype=bool)
    iso[list(isolated)] = True
    out = []
    for k in ks:
        shape = (1 if constant else n, 2 * k + 1)
        emb = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        emb = np.broadcast_to(emb, (n, 2 * k + 1)).copy()
        emb[iso] = 0.0
        out.append(
            pipeline.FrequencyBlock(
                k=k, eigenvalues=np.zeros(2 * k + 2), embedding=emb, isolated=iso
            )
        )
    return out


def _lexsort_knn(a, K, isolated):
    """Reference K-NN: a full per-row sort by (-affinity, index), with the
    isolated columns after every other and the vertex itself last."""
    idx = np.arange(a.shape[0])
    return np.array(
        [np.lexsort((idx, -row, isolated, idx == i))[:K] for i, row in enumerate(a)]
    )


class TestKnnStreamed:
    @pytest.mark.parametrize(
        "n, isolated, constant, K",
        [
            (61, (), False, 5),  # 61 rows: the 8-row blocks do not divide n
            (17, (), False, 5),  # 17 = 8 + 9 rows: no one-row block
            (61, (0, 17), False, 5),
            (61, (3,), True, 5),  # every affinity ties, at the K boundary too
            (11, (1, 2, 4, 6, 9), False, 6),  # fewer than K candidates per row
        ],
    )
    def test_matches_dense_path(self, monkeypatch, n, isolated, constant, K):
        monkeypatch.setattr(graphs, "WORK_BYTES", 8 * pipeline._KNN_ENTRY_BYTES * n)
        blocks = _random_blocks(n, range(1, 11), 5, isolated, constant)
        iso = blocks[0].isolated
        mats = [affinity(b) for b in blocks]
        prod = np.prod(np.array(mats), axis=0)
        dense = {f"A^({k})": _lexsort_knn(mats[k - 1], K, iso) for k in (1, 5, 10)}
        dense["A^All"] = _lexsort_knn(prod, K, iso)

        got, values = pipeline.knn_streamed(blocks, K)
        assert list(got) == ["A^(1)", "A^(5)", "A^(10)", "A^All"]
        for name, nb in dense.items():
            assert np.array_equal(got[name], nb), name
        assert np.array_equal(values, np.take_along_axis(prod, dense["A^All"], axis=1))

    def test_rejects_bad_K(self):
        with pytest.raises(ValueError):
            pipeline.knn_streamed(_random_blocks(5, (1,), 0), 5)

    def test_short_rows_never_list_themselves(self):
        # 20 connected vertices and 40 isolated ones: every row has fewer
        # than K = 30 candidates and is filled with isolated vertices
        n, K = 60, 30
        blocks = _random_blocks(n, (1, 2), 4, isolated=range(20, n))
        got, values = pipeline.knn_streamed(blocks, K)
        rows = np.arange(n)[:, None]
        for name, nb in got.items():
            assert not (nb == rows).any(), name
            assert all(len(set(row)) == K for row in nb), name
        assert np.all(np.diff(values, axis=1) <= 0)

    def test_memory_is_row_blocked(self, monkeypatch):
        # ten n x n float64 affinities alone would take 320 MB at n = 2000;
        # this and the next two tests run in this process, where tracemalloc
        # sees every block, on the code each forked worker runs
        monkeypatch.setattr(pipeline, "usable_cpus", lambda: 1)
        blocks = _random_blocks(2000, range(1, 11), 11)
        peak, _ = _traced(lambda: pipeline.knn_streamed(blocks, 50))
        assert peak < 64 * 2**20

    def test_memory_stays_flat_in_n(self, monkeypatch):
        # 256-row blocks peaked at 75 MB here and blocks within the work
        # budget at about 13 MB; the test above peaks at about 11 MB
        monkeypatch.setattr(pipeline, "usable_cpus", lambda: 1)
        blocks = _random_blocks(8000, (1, 2), 12)
        peak, _ = _traced(lambda: pipeline.knn_streamed(blocks, 50))
        assert peak < 40 * 2**20

    @pytest.mark.parametrize("n", [1000, 4000])
    def test_memory_within_the_budget(self, monkeypatch, n):
        # The outputs, four neighbor lists and the values, are
        # shared_empty's, which tracemalloc does not see (the embeddings
        # predate the trace).  So the peak is one block's temporaries,
        # within WORK_BYTES by _KNN_ENTRY_BYTES; a quarter more leaves room
        # for numpy's own scratch.  This measured 0.79 to 0.83 WORK_BYTES
        # at both sizes.
        monkeypatch.setattr(graphs, "WORK_BYTES", 2**21)
        monkeypatch.setattr(pipeline, "usable_cpus", lambda: 1)
        blocks = _random_blocks(n, range(1, 11), 13)
        peak, _ = _traced(lambda: pipeline.knn_streamed(blocks, 50))
        assert peak < 1.25 * graphs.WORK_BYTES

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_parent_memory_with_workers(self, monkeypatch, cpus):
        # The workers write every row into the outputs, which are
        # shared_empty's and out of tracemalloc's sight, and return
        # nothing, so the parent holds no task's result: only the pool's
        # bookkeeping, a future and a work item for each of the 400 row
        # blocks, all submitted at once and measured at 2.1 KB a task.  A
        # block's outputs (10 rows of four lists and the values) are 20 KB.
        # The process pool is imported first, so the trace sees the map.
        import concurrent.futures.process  # noqa: F401

        monkeypatch.setattr(graphs, "WORK_BYTES", 2**21)
        monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)
        n, K = 4000, 50
        blocks = _random_blocks(n, range(1, 11), 13)
        tasks = list(graphs.row_blocks(n, pipeline._KNN_ENTRY_BYTES * n))
        assert len(tasks) == 400 and max(hi - lo for lo, hi in tasks) == 10
        peak, _ = _traced(lambda: pipeline.knn_streamed(blocks, K))
        assert peak < 4096 * len(tasks)
        assert multiprocessing.active_children() == []

    def test_same_bytes_on_any_worker_count(self, monkeypatch):
        # 60 rows repeat 12 distinct ones, so every row ties with rows on
        # both sides of each block boundary and the lower index must win;
        # 4-row blocks give 15 tasks
        n, K = 60, 9
        monkeypatch.setattr(graphs, "WORK_BYTES", 4 * pipeline._KNN_ENTRY_BYTES * n)
        blocks = []
        for b in _random_blocks(12, range(1, 11), 14):
            emb = np.tile(b.embedding, (5, 1))
            blocks.append(pipeline.FrequencyBlock(
                k=b.k, eigenvalues=b.eigenvalues, embedding=emb, isolated=np.zeros(n, bool)
            ))
        assert len(list(graphs.row_blocks(n, pipeline._KNN_ENTRY_BYTES * n))) == 15
        prod = np.prod(np.array([affinity(b) for b in blocks]), axis=0)
        got = {}
        for cpus in (1, 2, 3):
            monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)
            got[cpus] = pipeline.knn_streamed(blocks, K)
        assert np.array_equal(got[1][0]["A^All"], _lexsort_knn(prod, K, blocks[0].isolated))
        for cpus in (2, 3):
            for name, nb in got[1][0].items():
                assert nb.tobytes() == got[cpus][0][name].tobytes(), (cpus, name)
            assert got[1][1].tobytes() == got[cpus][1].tobytes(), cpus

    def test_block_rows_follow_the_budget(self):
        def knn_blocks(n):
            return list(graphs.row_blocks(n, pipeline._KNN_ENTRY_BYTES * n))

        step = graphs.WORK_BYTES // (pipeline._KNN_ENTRY_BYTES * 600)
        assert knn_blocks(600)[:2] == [(0, step), (step, 2 * step)]
        for n in (600, 2048, 16000, 10**6):
            blocks = knn_blocks(n)
            assert all(hi - lo >= 2 for lo, hi in blocks)  # never gemv
            assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
            assert blocks[0][0] == 0 and blocks[-1][1] == n
        # one row of a million columns is over the budget: two rows a block
        assert knn_blocks(10**6)[0] == (0, 2)


class TestEvaluateNeighbors:
    def test_geometric_truth_is_tight(self, frames, clean):
        # true nearest directions under a 0.9 cap lie within ~25.8 degrees
        dirs = frames.viewing_directions()
        dots = dirs @ dirs.T
        nb = pipeline._top_k(dots, 0, 5, np.zeros(400, dtype=bool))
        stats = pipeline.angle_stats(pipeline.neighbor_angles(frames, nb))
        assert stats["mean_angle_deg"] < 19.2
        assert stats["frac_le_30"] > 0.99

    def test_random_neighbors_near_ninety(self, frames):
        rng = np.random.default_rng(7)
        nb = rng.integers(0, 400, size=(400, 5))
        stats = pipeline.angle_stats(pipeline.neighbor_angles(frames, nb))
        assert abs(stats["mean_angle_deg"] - 90.0) < 2.0

    def test_histogram_sums_to_pairs(self, frames):
        nb = np.tile(np.arange(1, 6), (400, 1))
        stats = pipeline.angle_stats(pipeline.neighbor_angles(frames, nb))
        assert sum(stats["histogram_counts"]) == 400 * 5
        assert stats["histogram_edges_deg"][1] - stats["histogram_edges_deg"][0] == 2.0

    def test_angles_round_as_per_pair_products(self, frames):
        # neighbors.csv and metrics.json both read these angles, so each must
        # be bit-identical to the per-pair dirs[i] @ dirs[j]
        nb = np.random.default_rng(8).integers(0, 400, size=(400, 7))
        dirs = frames.viewing_directions()
        ref = [
            [np.degrees(np.arccos(np.clip(dirs[i] @ dirs[j], -1.0, 1.0))) for j in row]
            for i, row in enumerate(nb)
        ]
        assert np.array_equal(pipeline.neighbor_angles(frames, nb), np.array(ref))


class TestScatter:
    def test_columns_in_range(self, blocks, frames):
        data = pipeline.scatter_data(blocks[0], frames, 500, 1)
        assert data.shape == (500, 2)
        assert np.all(data >= -1e-12) and np.all(data <= 1 + 1e-12)

    def test_correlation(self, blocks, frames):
        data = pipeline.scatter_data(blocks[0], frames, 2000, 2)
        r = np.corrcoef(data[:, 0], data[:, 1])[0, 1]
        assert r > 0.9

    def test_deterministic(self, blocks, frames):
        a = pipeline.scatter_data(blocks[1], frames, 100, 5)
        b = pipeline.scatter_data(blocks[1], frames, 100, 5)
        assert np.array_equal(a, b)

    def test_sample_cap(self, blocks, frames):
        with pytest.raises(ValueError):
            pipeline.scatter_data(blocks[0], frames, 400 * 399, 0)

    @pytest.mark.parametrize("sample", [30, 35])
    def test_chunks_match_one_gather(self, blocks, frames, monkeypatch, sample):
        # chunks of 7 pairs: 35 divides into five, 30 leaves a partial last
        # chunk of 2
        unit = blocks[2].embedding
        monkeypatch.setattr(graphs, "WORK_BYTES", 7 * (3 * 16 * unit.shape[1] + 2 * 8 * 3))
        data = pipeline.scatter_data(blocks[2], frames, sample, 4)
        flat = np.random.default_rng(4).choice(400 * 399 // 2, size=sample, replace=False)
        ii, jj = graphs.upper_pairs(flat, 400)
        dirs = frames.viewing_directions()
        target = ((np.einsum("pd,pd->p", dirs[ii], dirs[jj]) + 1.0) / 2.0) ** 3
        aff = np.abs(np.einsum("pd,pd->p", unit[ii], unit[jj].conj()))
        assert np.array_equal(data, np.column_stack([aff, target]))

    @pytest.mark.parametrize("n", [1000, 4000])
    def test_memory_within_the_budget(self, monkeypatch, n):
        # above the sampled positions and the output, one chunk of pairs
        monkeypatch.setattr(graphs, "WORK_BYTES", 2**20)
        fs = so3.sample_uniform(14, n)
        emb = np.random.default_rng(14).standard_normal((n, 21)) + 0j
        block = pipeline.FrequencyBlock(
            k=10, eigenvalues=np.zeros(22), embedding=emb, isolated=np.zeros(n, dtype=bool)
        )
        sample, total = 20000, n * (n - 1) // 2
        # the draw of positions (which may shuffle all n(n-1)/2 of them) is
        # not chunked; the positions, pairs and output are 8 float64 a pair
        drawn, _ = _traced(lambda: np.random.default_rng(3).choice(total, sample, replace=False))
        peak, _ = _traced(lambda: pipeline.scatter_data(block, fs, sample, 3))
        assert peak - drawn - 8 * 8 * sample < 2 * graphs.WORK_BYTES


class TestSpectrum:
    def test_group_eigenvalues(self):
        groups = pipeline.group_eigenvalues(np.array([1.0, 0.999, 0.99, 0.5, 0.49]))
        assert groups == [[0, 1, 2], [3, 4]]

    def test_group_empty(self):
        assert pipeline.group_eigenvalues(np.array([])) == []

    def test_top_multiplicity_three(self, clean):
        # at k=1 the leading group of the normalized spectrum has size 3
        vals = eigensolver.top_eigenpairs(pipeline.build_H(clean, 1), 10).values
        groups = pipeline.group_eigenvalues(vals, rel_tol=0.04)
        assert len(groups[0]) == 3
