import tracemalloc

import numpy as np
import pytest
from scipy.stats import kstest

import theory_oracle
from mfca import graphs, so3


def make_graph(n, edges):
    ei = np.array([e[0] for e in edges], dtype=np.int64)
    ej = np.array([e[1] for e in edges], dtype=np.int64)
    th = np.array([e[2] for e in edges], dtype=float)
    return graphs.ObservationGraph(
        n_vertices=n, edge_i=ei, edge_j=ej, theta=th, kind=np.zeros(len(edges), dtype=np.int8)
    )


class TestObservationGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            make_graph(3, [(1, 1, 0.0)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError):
            make_graph(3, [(0, 1, 0.0), (0, 1, 1.0)])
        # the repeated pair is not adjacent in input order
        with pytest.raises(ValueError, match="duplicate edges"):
            make_graph(4, [(1, 3, 0.0), (0, 2, 0.5), (0, 1, 1.0), (1, 3, 1.5)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            make_graph(2, [(0, 5, 0.0)])

    @pytest.mark.parametrize("kind", [-1, 2])
    def test_rejects_unknown_kind(self, kind):
        # a kind code outside GOOD/REWIRED would index past the CSV name table
        with pytest.raises(ValueError, match="kind"):
            graphs.ObservationGraph(
                n_vertices=2, edge_i=[0], edge_j=[1], theta=[0.0], kind=[kind]
            )

    def test_csv_round_trip(self, tmp_path):
        fs = so3.sample_uniform(3, 200)
        g = graphs.clean_graph(fs, 0.9)
        path = tmp_path / "g.csv"
        g.to_csv(path, "0123456789abcdef")
        back = graphs.ObservationGraph.from_csv(path, n_vertices=200)
        assert np.array_equal(back.edge_i, g.edge_i)
        assert np.array_equal(back.edge_j, g.edge_j)
        assert np.array_equal(back.theta, g.theta)
        assert np.array_equal(back.kind, g.kind)

    def test_csv_round_trip_rewired_with_config_line(self, tmp_path):
        clean = graphs.clean_graph(so3.sample_uniform(4, 300), 0.9)
        g = graphs.rewire(clean, 0.5, 7)
        assert 0 < np.count_nonzero(g.kind) < g.n_edges
        path = tmp_path / "g.csv"
        g.to_csv(path, "0123456789abcdef")
        written = path.read_bytes()
        assert written.splitlines()[1] == b"# config=0123456789abcdef"
        # files of older versions end with the config line; it is skipped too
        with open(path, "a") as fh:
            fh.write("# config=0123456789abcdef\n")
        back = graphs.ObservationGraph.from_csv(path, n_vertices=300)
        for name in ("edge_i", "edge_j", "theta", "kind"):
            assert np.array_equal(getattr(back, name), getattr(g, name)), name
        again = tmp_path / "again.csv"
        back.to_csv(again, "0123456789abcdef")
        assert again.read_bytes() == written

    def test_csv_round_trip_empty_graph(self, tmp_path):
        empty = make_graph(5, [])
        path = tmp_path / "g.csv"
        empty.to_csv(path, "0123456789abcdef")
        assert path.read_text() == "i,j,theta,kind\n# config=0123456789abcdef\n"
        back = graphs.ObservationGraph.from_csv(path)
        assert back.n_vertices == 0 and back.n_edges == 0
        assert graphs.ObservationGraph.from_csv(path, n_vertices=5).n_vertices == 5

    def test_to_csv_matches_per_value_format(self, tmp_path):
        # theta is not range-checked, so any finite float can reach the writer
        th = [-0.0, 5e-324, 1e-5, 1e16, 1e17, 1.0 / 3.0]
        n = len(th)
        kind = np.arange(n, dtype=np.int8) % 2
        g = graphs.ObservationGraph(
            n_vertices=n + 1, edge_i=np.arange(n), edge_j=np.arange(n) + 1,
            theta=th, kind=kind,
        )
        path = tmp_path / "g.csv"
        g.to_csv(path, "0123456789abcdef")
        names = {graphs.GOOD: "good", graphs.REWIRED: "rewired"}
        assert path.read_text().splitlines() == ["i,j,theta,kind", "# config=0123456789abcdef"] + [
            f"{e},{e + 1},{format(t, '.17g')},{names[k]}" for e, (t, k) in enumerate(zip(th, kind))
        ]
        back = graphs.ObservationGraph.from_csv(path)
        assert np.array_equal(back.theta, g.theta, equal_nan=True)
        assert np.array_equal(np.signbit(back.theta), np.signbit(g.theta))

    def test_csv_rejects_bad_kind(self, tmp_path):
        path = tmp_path / "bad.csv"
        for kind in ("mystery", "rewiredx", "mysterious_kind", "Good"):
            path.write_text(f"i,j,theta,kind\n0,1,0.5,good\n0,2,0.5,{kind}\n")
            with pytest.raises(ValueError) as err:
                graphs.ObservationGraph.from_csv(path)
            assert str(err.value) == f"{path}: line 3: unknown edge kind {kind!r}"

    @pytest.mark.parametrize(
        "row", ["0,2,0.5", "0,2,0.5,good,extra", "0,x,0.5,good", "0,2,half,good"]
    )
    def test_csv_rejects_bad_row_naming_file_and_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"i,j,theta,kind\n0,1,0.5,good\n# comment\n{row}\n1,2,0.5,good\n")
        with pytest.raises(ValueError) as err:
            graphs.ObservationGraph.from_csv(path)
        assert str(err.value) == (
            f"{path}: line 4: bad graph row {row!r} (expected i,j,theta,kind)"
        )

    def test_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError):
            graphs.ObservationGraph.from_csv(path)


class TestCleanGraph:
    def test_identical_direction_pair(self):
        alpha = 0.6
        r = so3.sample_uniform(1, 1).frames[0]
        fs = so3.FrameSet(frames=np.stack([r, r @ theory_oracle.rot_z(alpha)]))
        g = graphs.clean_graph(fs, 0.95)
        assert g.n_edges == 1
        assert np.isclose(g.theta[0], alpha, atol=1e-10)
        assert g.kind[0] == graphs.GOOD

    def test_edge_count_matches_cap_area(self):
        n = 10_000
        fs = so3.sample_uniform(9, n)
        g = graphs.clean_graph(fs, 0.95)
        pairs = n * (n - 1) / 2
        p = (1 - 0.95) / 2
        sigma = np.sqrt(pairs * p * (1 - p))
        assert abs(g.n_edges - pairs * p) < 3 * sigma

    def test_edges_sorted_across_row_blocks(self):
        # 1500 frames span three row blocks of clean_graph
        g = graphs.clean_graph(so3.sample_uniform(5, 1500), 0.9)
        keys = g.edge_i * g.n_vertices + g.edge_j
        assert np.all(np.diff(keys) > 0)
        assert g.edge_i[-1] > 1024

    def test_tight_threshold_empties_graph(self):
        fs = so3.sample_uniform(2, 100)
        g = graphs.clean_graph(fs, 1 - 1e-12)
        assert g.n_edges == 0

    def test_angles_match_ground_truth(self):
        # theta minimizes ||R_i h(theta) - R_j||_F exactly when
        # M = (R_i h(theta))^T R_j has M10 = M01 and M00 + M11 > 0
        fs = so3.sample_uniform(4, 300)
        g = graphs.clean_graph(fs, 0.95)
        for e in range(min(20, g.n_edges)):
            i, j = g.edge_i[e], g.edge_j[e]
            m = (fs.frames[i] @ theory_oracle.rot_z(g.theta[e])).T @ fs.frames[j]
            assert abs(m[1, 0] - m[0, 1]) < 1e-12
            assert m[0, 0] + m[1, 1] > 0

    def test_rejects_single_frame(self):
        fs = so3.FrameSet(frames=np.eye(3)[None])
        with pytest.raises(ValueError):
            graphs.clean_graph(fs, 0.9)

    def test_blocks_match_one_whole_array_call(self, monkeypatch):
        fs = so3.sample_uniform(6, 700)
        whole = graphs.clean_graph(fs, 0.9)  # at the default budget
        # 18 row blocks of dot products and 13 chunks of angles
        monkeypatch.setattr(graphs, "WORK_BYTES", 1000 * graphs._ANGLE_BYTES)
        g = graphs.clean_graph(fs, 0.9)
        assert g.n_edges > 3000
        assert np.array_equal(g.edge_i, whole.edge_i)
        assert np.array_equal(g.edge_j, whole.edge_j)
        assert np.array_equal(g.theta, whole.theta)
        assert np.array_equal(g.theta, so3.alignment_angles(fs.frames, g.edge_i, g.edge_j))

    @pytest.mark.parametrize("n", [3000, 6000])
    def test_memory_within_the_budget(self, monkeypatch, n):
        # above the edge lists, their concatenation and the graph's checks
        # (about 56 bytes an edge), one block; the angles of all 450k edges
        # at n = 6000 at once took about 119 MB
        monkeypatch.setattr(graphs, "WORK_BYTES", 2**21)
        fs = so3.sample_uniform(8, n)
        tracemalloc.start()
        try:
            g = graphs.clean_graph(fs, 0.95)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 56 * g.n_edges < 2 * graphs.WORK_BYTES


class TestRowBlocks:
    def test_rows_follow_the_budget(self, monkeypatch):
        monkeypatch.setattr(graphs, "WORK_BYTES", 1000)
        assert list(graphs.row_blocks(25, 100)) == [(0, 10), (10, 20), (20, 25)]
        assert list(graphs.row_blocks(0, 100)) == []
        assert list(graphs.row_blocks(1, 100)) == [(0, 1)]

    def test_short_last_block_is_folded(self, monkeypatch):
        # a one-row block would be a gemv product, which rounds unlike gemm
        monkeypatch.setattr(graphs, "WORK_BYTES", 1000)
        assert list(graphs.row_blocks(21, 100)) == [(0, 10), (10, 21)]
        assert list(graphs.row_blocks(22, 100)) == [(0, 10), (10, 20), (20, 22)]

    def test_rows_over_the_budget_take_the_minimum(self, monkeypatch):
        # two rows a block, never one
        monkeypatch.setattr(graphs, "WORK_BYTES", 1000)
        assert list(graphs.row_blocks(3, 5000)) == [(0, 3)]
        assert list(graphs.row_blocks(5, 5000)) == [(0, 2), (2, 5)]
        assert list(graphs.row_blocks(6, 5000)) == [(0, 2), (2, 4), (4, 6)]


@pytest.fixture(scope="module")
def base():
    fs = so3.sample_uniform(17, 2000)
    return graphs.clean_graph(fs, 0.9)


class TestRewire:
    def test_p_one_identity(self, base):
        g = graphs.rewire(base, 1.0, 0)
        assert np.array_equal(g.edge_i, base.edge_i)
        assert np.array_equal(g.edge_j, base.edge_j)
        assert np.array_equal(g.theta, base.theta)
        assert np.all(g.kind == graphs.GOOD)

    def test_p_zero_all_rewired_uniform(self, base):
        assert base.n_edges >= 10_000
        g = graphs.rewire(base, 0.0, 5)
        assert np.all(g.kind == graphs.REWIRED)
        stat = kstest(g.theta, lambda t: t / (2 * np.pi))
        assert stat.pvalue > 0.01

    def test_kept_fraction_binomial(self, base):
        p = 0.4
        kept = []
        for seed in range(5):
            g = graphs.rewire(base, p, seed)
            kept.append(int(np.sum(g.kind == graphs.GOOD)))
        m = base.n_edges
        sigma = np.sqrt(m * p * (1 - p))
        assert abs(np.mean(kept) - m * p) < 3 * sigma

    def test_good_angles_bit_identical(self, base):
        g = graphs.rewire(base, 0.5, 3)
        base_map = {
            (int(a), int(b)): t for a, b, t in zip(base.edge_i, base.edge_j, base.theta)
        }
        for a, b, t, kd in zip(g.edge_i, g.edge_j, g.theta, g.kind):
            if kd == graphs.GOOD:
                assert base_map[(int(a), int(b))] == t

    def test_deterministic(self, base):
        a = graphs.rewire(base, 0.3, 11)
        b = graphs.rewire(base, 0.3, 11)
        assert np.array_equal(a.edge_i, b.edge_i)
        assert np.array_equal(a.theta, b.theta)

    def test_preserves_vertex_and_edge_count(self, base):
        g = graphs.rewire(base, 0.2, 7)
        assert g.n_vertices == base.n_vertices
        assert g.n_edges + g.dropped_edges == base.n_edges

    def test_complete_graph_drops(self):
        # the replacements of K5 compete for its 10 pairs, so a vertex runs
        # out of free targets once earlier replacements have taken them
        n = 5
        edges = [(i, j, 0.1) for i in range(n) for j in range(i + 1, n)]
        g = graphs.rewire(make_graph(n, edges), 0.0, 1)
        assert g.dropped_edges > 0
        assert g.n_edges + g.dropped_edges == len(edges)

    def test_rejects_bad_p(self, base):
        with pytest.raises(ValueError):
            graphs.rewire(base, 1.5, 0)

    def test_lone_edge_is_dropped(self):
        g = graphs.rewire(make_graph(2, [(0, 1, 0.3)]), 0.0, 0)
        assert g.n_edges == 0
        assert g.dropped_edges == 1

    def test_old_partner_is_never_drawn(self):
        for seed in range(20):
            g = graphs.rewire(make_graph(3, [(0, 1, 0.3)]), 0.0, seed)
            assert (g.edge_i.tolist(), g.edge_j.tolist()) == ([0], [2])
            assert g.kind.tolist() == [graphs.REWIRED]
            assert g.dropped_edges == 0

    def test_retaken_old_pair_is_no_lost_target(self):
        # each source keeps a target no other edge can take (0 and 1 have 3,
        # 2 has 0), so nothing is dropped; 2 may retake the pair (0, 2) that
        # 0 vacated, which must not count against 0's free targets
        edges = [(0, 2, 0.1), (1, 2, 0.1), (2, 3, 0.1)]
        for seed in range(100):
            g = graphs.rewire(make_graph(4, edges), 0.0, seed)
            assert g.n_edges == 3
            assert g.dropped_edges == 0

    @pytest.mark.parametrize("p", [0.0, 0.5])
    @pytest.mark.parametrize("matching", [False, True], ids=["complete", "less-a-matching"])
    def test_saturated_graphs_end(self, p, matching):
        n = 7
        edges = [
            (i, j, 0.1) for i in range(n) for j in range(i + 1, n)
            if not (matching and i % 2 == 0 and j == i + 1)
        ]
        for seed in range(10):
            g = graphs.rewire(make_graph(n, edges), p, seed)
            assert g.n_edges + g.dropped_edges == len(edges)
            keys = g.edge_i * n + g.edge_j
            assert np.all(keys[1:] > keys[:-1])  # sorted by (i, j)
            make_graph(n, list(zip(g.edge_i, g.edge_j, g.theta)))

    @pytest.mark.parametrize("p, seed", [(0.1, 0), (0.5, 3), (0.9, 8)])
    def test_good_edges_are_the_kept_draws(self, base, p, seed):
        keep = np.random.default_rng(seed).random(base.n_edges) < p
        g = graphs.rewire(base, p, seed)
        good = g.kind == graphs.GOOD
        assert np.array_equal(g.edge_i[good], base.edge_i[keep])
        assert np.array_equal(g.edge_j[good], base.edge_j[keep])
        assert np.array_equal(g.theta[good], base.theta[keep])

    def test_memory_per_edge(self, base):
        # about 118 bytes an edge; a loop over edges with one Python set
        # per vertex took 333
        tracemalloc.start()
        try:
            graphs.rewire(base, 0.1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 160 * base.n_edges


class TestDegrees:
    def test_empty(self):
        g = make_graph(4, [])
        assert np.array_equal(graphs.degrees(g), [0, 0, 0, 0])

    def test_triangle(self):
        g = make_graph(3, [(0, 1, 0.0), (0, 2, 0.0), (1, 2, 0.0)])
        assert np.array_equal(graphs.degrees(g), [2, 2, 2])

    def test_handshake(self):
        fs = so3.sample_uniform(8, 500)
        g = graphs.clean_graph(fs, 0.9)
        assert graphs.degrees(g).sum() == 2 * g.n_edges


class TestUpperPairs:
    def test_matches_triu_indices(self):
        for n in range(2, 130):
            ii, jj = graphs.upper_pairs(np.arange(n * (n - 1) // 2), n)
            iu, ju = np.triu_indices(n, k=1)
            assert np.array_equal(ii, iu) and np.array_equal(jj, ju), n

    def test_row_ends_at_16000(self):
        # the first and last pair of every row, where a rounding error in
        # the closed form would first move a position into the wrong row
        n = 16000
        lengths = np.arange(n - 1, 0, -1)
        first = np.cumsum(lengths) - lengths
        rows = np.arange(n - 1)
        ii, jj = graphs.upper_pairs(np.concatenate([first, first + lengths - 1]), n)
        assert np.array_equal(ii, np.concatenate([rows, rows]))
        assert np.array_equal(jj, np.concatenate([rows + 1, np.full(n - 1, n - 1)]))
