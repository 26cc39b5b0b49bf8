import errno
import functools
import hashlib
import json
import math
import multiprocessing
import os
import re
import signal
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mfca
from image_oracle import load_images
from mfca import cli, csvio, eigensolver, graphs, imaging, pipeline, so3, spectral, wigner


def write_config(tmp_path, **kwargs):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(kwargs))
    return str(path)


def write_rows_at_chunk_boundary(monkeypatch, delta):
    """Make every CSV writer's row count CHUNK + delta, whatever it is."""
    write_rows = csvio.write_rows

    def at_boundary(fh, template, *columns):
        monkeypatch.setattr(csvio, "CHUNK", max(1, len(columns[0]) - delta))
        write_rows(fh, template, *columns)

    monkeypatch.setattr(csvio, "write_rows", at_boundary)


def assert_csv_layout(path, config):
    """The layout of every CSV: a header row, `# config=<hash>` on line 2,
    and no other comment line."""
    lines = path.read_text().splitlines()
    assert not lines[0].startswith("#"), path.name
    assert lines[1] == f"# config={config}", path.name
    assert not any(ln.startswith("#") for ln in lines[2:]), path.name


class TestExperimentConfig:
    def test_defaults_valid(self):
        cfg = cli.ExperimentConfig()
        assert cfg.n_frames == 2000

    def test_hash_stable_and_sensitive(self):
        a = cli.ExperimentConfig(seed=1)
        b = cli.ExperimentConfig(seed=1)
        c = cli.ExperimentConfig(seed=2)
        assert a.hash() == b.hash()
        assert a.hash() != c.hash()
        assert len(a.hash()) == 16
        # pinned: type checks on the fields must not change a valid config's hash
        assert cli.ExperimentConfig().hash() == "e2706c5db1986d69"
        mixed = cli.ExperimentConfig(
            seed=3, n_frames=150, cos_threshold=0, p_values=[1, 0.5], snr_values=[16, 4]
        )
        assert mixed.hash() == "32a587fec45e1301"

    def test_rejects_unknown_key(self, tmp_path):
        path = write_config(tmp_path, seed=1, typo_key=3)
        with pytest.raises(cli.ConfigError):
            cli.ExperimentConfig.from_json(path)

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"seed": -1}, "seed must be a non-negative integer"),
            ({"sed": 1}, "unknown config keys: ['sed']"),
            ({"n_frames": 1.5}, "n_frames must be an integer"),
            ({"p_values": [0.1, 0.1000000001]}, "p_values 0.1 and 0.1000000001 both label"),
        ],
        ids=["bad-value", "unknown-key", "bad-type", "colliding-labels"],
    )
    def test_errors_name_the_file(self, tmp_path, capsys, raw, message):
        path = write_config(tmp_path, **raw)
        out = tmp_path / "t"
        argv = ["theory", "--k", "1", "--h", "0.5", "--config", path, "--out", str(out)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}") and err.count("\n") == 1
        assert not out.exists()

    def test_rejects_bad_values(self):
        cases = [
            ({"n_frames": 1}, "n_frames"),
            ({"cos_threshold": 1.5}, "cos_threshold"),
            ({"knn_k": 0}, "knn_k"),
            ({"seed": 1.5}, "seed"),
            ({"seed": True}, "seed"),
            ({"n_frames": 50.0}, "n_frames"),
            ({"k_max": "3"}, "k_max"),
            ({"knn_k": False}, "knn_k"),
            ({"image_size": 17.0}, "image_size"),
            ({"p_values": 0.5}, "p_values"),
            ({"p_values": ["0.5"]}, "p_values"),
            ({"snr_values": 16}, "snr_values"),
            ({"snr_values": "16"}, "snr_values"),
            ({"snr_values": [float("nan")]}, "snr_values"),
            ({"cos_threshold": "0.9"}, "cos_threshold"),
            ({"output_dir": 5}, "output_dir"),
        ]
        for bad, key in cases:
            with pytest.raises(cli.ConfigError, match=key):
                cli.ExperimentConfig(**bad)

    @pytest.mark.parametrize(
        "key, values, first, second",
        [
            ("snr_values", [16, 4, 16.0000001], "16.0", "16.0000001"),
            ("p_values", [0.1, 0.1000000001], "0.1", "0.1000000001"),
        ],
    )
    def test_rejects_values_that_share_a_file_label(self, key, values, first, second):
        # both would write images_snr16.* or graph_p0.1.csv, the second
        # over the first
        label = f"{values[0]:g}"
        message = f"{key} {first} and {second} both label their files '{label}'"
        with pytest.raises(cli.ConfigError, match=re.escape(message)):
            cli.ExperimentConfig(**{key: values})

    def test_round_trip(self, tmp_path):
        path = write_config(tmp_path, seed=5, n_frames=100, p_values=[0.5, 1.0])
        cfg = cli.ExperimentConfig.from_json(path)
        assert cfg.seed == 5
        assert cfg.p_values == (0.5, 1.0)


class TestTheory:
    def test_outputs_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert cli.main(["theory", "--k", "1,2", "--h", "0.1,0.5", "--out", str(out)]) == 0
        for name in ("eigenvalues.csv", "gaps.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_eigenvalue_rows_match_library(self, tmp_path):
        out = tmp_path / "t"
        cli.main(["theory", "--k", "2", "--h", "0.3", "--n-extra", "3", "--out", str(out)])
        lines = [
            ln for ln in (out / "eigenvalues.csv").read_text().splitlines()
            if ln and not ln.startswith(("k,", "#"))
        ]
        k, h, n, lam, mult = lines[0].split(",")
        assert (int(k), float(h), int(n), int(mult)) == (2, 0.3, 2, 5)
        assert np.isclose(float(lam), spectral.lambda_top(2, 0.3), atol=1e-15)

    def test_h_range_spec(self, tmp_path):
        out = tmp_path / "r"
        cli.main(["theory", "--k", "1", "--h", "0.1:0.1:0.3", "--out", str(out)])
        body = (out / "gaps.csv").read_text()
        rows = [ln for ln in body.splitlines() if ln and not ln.startswith(("k,", "#"))]
        assert len(rows) == 3

    @pytest.mark.parametrize(
        "k, h, message",
        [
            pytest.param("1", "", "--k '1' and --h '' must each list a value", id="empty-h"),
            pytest.param("", "0.5", "--k '' and --h '0.5' must each list a value", id="empty-k"),
            pytest.param("1,0", "0.5", "--k: frequency 0 is below 1", id="k-zero"),
            pytest.param("2", "0.5,3", "--h: bandwidth 3 lies outside (0, 2]", id="h-above-2"),
            pytest.param("2", "-0.5", "--h: bandwidth -0.5 lies outside (0, 2]", id="h-negative"),
            pytest.param("2", "0", "--h: bandwidth 0 lies outside (0, 2]", id="h-zero"),
            pytest.param("2", "nan", "--h: bandwidth nan lies outside (0, 2]", id="h-nan"),
            pytest.param(
                "1", "0.1:0.5", "--h '0.1:0.5': a range must be start:step:stop",
                id="two-field-range",
            ),
            pytest.param("1,x", "0.5", "--k '1,x': 'x' is not an integer", id="k-not-int"),
            pytest.param("1", "0.1,abc", "--h '0.1,abc': 'abc' is not a number", id="h-not-float"),
            pytest.param(
                "1", "0.1:0:0.5",
                "--h '0.1:0:0.5': a range needs a step above 0 and 0 < start <= stop <= 2",
                id="zero-step",
            ),
            *(
                pytest.param(
                    "1", spec, f"--h {spec!r}: a range needs a step above 0 and "
                    "0 < start <= stop <= 2\n", id=f"range-{spec}",
                )
                for spec in ("0:0.1:1", "0.1:0.1:2.5", "0.5:0.1:0.2", "0.1:0.1:nan")
            ),
            # about 2e9 points, which were built before the count was checked
            pytest.param(
                "1", "0.001:1e-9:2",
                "--h '0.001:1e-9:2': the range spans 1.999e+09 steps, more than 10,000\n",
                id="2e9-steps",
            ),
            pytest.param(
                "1", "0.001:5e-324:2",
                "--h '0.001:5e-324:2': the range spans inf steps, more than 10,000\n",
                id="inf-steps",
            ),
            pytest.param(
                "1", "0.0001:0.0001:1.00015",
                "--h '0.0001:0.0001:1.00015': the range spans 10000.5 steps, more than 10,000\n",
                id="10000.5-steps",
            ),
        ],
    )
    def test_rejects_bad_lists_before_writing(self, tmp_path, capsys, k, h, message):
        out = tmp_path / "t"
        assert cli.main(["theory", "--k", k, "--h", h, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    def test_h_range_of_10000_steps(self):
        assert len(cli._parse_h_spec("0.0002:0.0002:2")) == 10_000
        hs = cli._parse_h_spec("0.0001:0.0001:1.0001")
        assert len(hs) == 10_001 and hs[-1] == 1.0001

    def test_rejects_negative_n_extra_before_writing(self, tmp_path, capsys):
        out = tmp_path / "t"
        argv = ["theory", "--k", "1", "--h", "0.5", "--n-extra", "-1", "--out", str(out)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: --n-extra: -1 is below 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["1.5:0.5:2", "0.18:0.07:2.0"])
    def test_h_range_up_to_two(self, tmp_path, spec):
        # 0.18 + 26 * 0.07 rounds to 2.0000000000000004; the range stops at 2
        out = tmp_path / "r"
        assert cli.main(["theory", "--k", "1", "--h", spec, "--out", str(out)]) == 0
        last = (out / "gaps.csv").read_text().splitlines()[-1]
        assert last.split(",")[1] == "2"

    def test_invalid_json_config_is_named(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"seed": 1, bad}')
        out = tmp_path / "t"
        argv = ["theory", "--k", "1", "--h", "0.5", "--config", str(path), "--out", str(out)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: Expecting property name") and err.count("\n") == 1
        assert not out.exists()

    def test_csv_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "t"
        assert cli.main(["theory", "--k", "1,2,3", "--h", "0.05:0.05:2.0", "--out", str(out)]) == 0
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("eigenvalues.csv", "gaps.csv")
        }
        assert digests == {
            "eigenvalues.csv": "da636c987b4449ac3f81631af182e3013c37671efcbb6cfbd678b90850a2d059",
            "gaps.csv": "78ea2a8d46d0a788d367a669be4fa42a7e80a930d32577bd8d714a09d56bc07b",
        }

    def test_config_hash_comment(self, tmp_path):
        out = tmp_path / "h"
        cli.main(["theory", "--k", "1", "--h", "0.2", "--out", str(out)])
        lines = (out / "gaps.csv").read_text().splitlines()
        assert lines[0] == "k,h,gap,delta_k"
        assert lines[1].startswith("# config=")


class TestWigner:
    def test_small_d_value(self, capsys):
        assert cli.main(["wigner", "--ell", "2", "--m", "1", "--n", "-1", "--theta", "0.7"]) == 0
        assert capsys.readouterr().out == format(wigner.wigner_d(2, 1, -1, 0.7), ".17g") + "\n"

    def test_full_D_entry(self, capsys):
        assert cli.main(
            ["wigner", "--ell", "1", "--m", "0", "--n", "1", "--euler", "0.2,0.5,1.0"]
        ) == 0
        val = wigner.wigner_D(1, 0, 1, 0.2, 0.5, 1.0)
        real, imag = format(val.real, ".17g"), format(val.imag, "+.17g")
        assert capsys.readouterr().out == f"{real}{imag}j\n"

    def test_bad_ell_returns_1(self, capsys):
        assert cli.main(["wigner", "--ell", "100", "--m", "0", "--n", "0"]) == 1

    @pytest.mark.parametrize("m, n", [("2", "0"), ("0", "-2"), ("-3", "3")])
    def test_out_of_range_indices_name_the_flags(self, tmp_path, monkeypatch, capsys, m, n):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["wigner", "--ell", "1", "--m", m, "--n", n]) == 1
        err = capsys.readouterr().err
        assert err == f"error: --m {m} and --n {n} must each lie in [-ell, ell] for --ell 1\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--config", "--seed", "--out"])
    def test_takes_no_config_seed_or_out(self, capsys, flag):
        # wigner prints one entry and writes no file, so it has no use for them
        with pytest.raises(SystemExit) as exc:
            cli.main(["wigner", "--ell", "1", "--m", "0", "--n", "0", flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    @pytest.mark.parametrize("euler", ["1,2", "1,2,3,4", "1,x,3"])
    def test_bad_euler_names_the_flag(self, capsys, euler):
        argv = ["wigner", "--ell", "1", "--m", "0", "--n", "0", "--euler", euler]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: --euler {euler!r} must be three angles phi,theta,psi\n"

    def test_euler_theta_outside_zero_pi(self, capsys):
        # D^1_00 = cos(theta) exactly, for any phi and psi
        argv = ["wigner", "--ell", "1", "--m", "0", "--n", "0", "--euler", "0.3,-0.5,7"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == format(math.cos(-0.5), ".17g") + "+0j\n"

    def test_theta_and_euler_are_mutually_exclusive(self, capsys):
        argv = ["wigner", "--ell", "1", "--m", "0", "--n", "0"]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--theta", "0.9", "--euler", "0,0.5,0"])
        assert exc.value.code == 2
        assert "argument --euler: not allowed with argument --theta" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("--theta", "-1e-3"), ("--euler", "-0.5,0.3,0"),
         ("--euler", "-1e-3,-2,-inf")],
    )
    def test_value_starting_with_minus_is_an_angle(self, capsys, flag, value):
        # argparse reads only -<digits>[.<digits>] as a negative number; any
        # other value starting with '-' must reach the flag as with '='
        argv = ["wigner", "--ell", "1", "--m", "0", "--n", "1"]
        status = cli.main(argv + [flag, value])
        spaced = capsys.readouterr()
        assert status == cli.main(argv + [f"{flag}={value}"])
        assert spaced == capsys.readouterr()
        assert "error: argument" not in spaced.err
        if flag == "--theta":
            assert spaced.out == format(wigner.wigner_d(1, 0, 1, float(value)), ".17g") + "\n"

    @pytest.mark.parametrize(
        "flag, value",
        [("--theta", "inf"), ("--theta", "nan"), ("--theta", "-inf"),
         ("--euler", "nan,0,0"), ("--euler", "0,inf,0"), ("--euler", "0,0,-inf"),
         ("--euler", "-inf,0,0")],
    )
    def test_non_finite_angle_names_the_flag(self, capsys, flag, value):
        assert cli.main(["wigner", "--ell", "1", "--m", "0", "--n", "0", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        if flag == "--theta":
            assert captured.err == f"error: --theta {value} must be a finite angle\n"
        else:
            expected = f"error: --euler {value!r} must be three finite angles phi,theta,psi\n"
            assert captured.err == expected


class TestSimulate:
    def test_p_one_matches_clean_graph(self, tmp_path):
        out = tmp_path / "sim"
        cfg = write_config(tmp_path, seed=3, n_frames=150, cos_threshold=0.9, knn_k=5)
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        frames = so3.FrameSet.from_csv(out / "frames.csv")
        assert np.array_equal(frames.frames, so3.sample_uniform(3, 150).frames)
        g = graphs.ObservationGraph.from_csv(out / "graph_p1.csv", n_vertices=150)
        ref = graphs.clean_graph(frames, 0.9)
        assert np.array_equal(g.edge_i, ref.edge_i)
        assert np.array_equal(g.theta, ref.theta)

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(
            tmp_path, seed=4, n_frames=100, p_values=[0.5], cos_threshold=0.9, knn_k=5
        )
        outs = []
        for name in ("x", "y"):
            out = tmp_path / name
            cli.main(["simulate", "--config", cfg, "--out", str(out)])
            outs.append(out)
        for fname in ("frames.csv", "graph_p0.5.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path, seed=1, n_frames=50, knn_k=5)
        out = tmp_path / "o"
        cli.main(["simulate", "--config", cfg, "--seed", "9", "--out", str(out)])
        frames = so3.FrameSet.from_csv(out / "frames.csv")
        assert np.array_equal(frames.frames, so3.sample_uniform(9, 50).frames)

    def test_non_integer_seed_returns_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, seed=1.5, n_frames=50, knn_k=5)
        code = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg}: seed")


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("rundata")
    cfg = write_config(
        tmp, seed=21, n_frames=200, cos_threshold=0.9, knn_k=5, k_max=10
    )
    out = tmp / "sim"
    cli.main(["simulate", "--config", cfg, "--out", str(out)])
    return tmp, cfg, out


class TestRun:
    def test_metrics_method_keys(self, sim_dir, tmp_path):
        tmp, cfg, sim = sim_dir
        out = tmp_path / "run"
        code = cli.main(
            [
                "run",
                "--config", cfg,
                "--frames", str(sim / "frames.csv"),
                "--graph", str(sim / "graph_p1.csv"),
                "--out", str(out),
            ]
        )
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics["methods"]) == {"A^(1)", "A^(5)", "A^(10)", "A^All"}
        for stats in metrics["methods"].values():
            assert 0 <= stats["frac_le_30"] <= 1
        for k in (1, 5, 10):
            assert (out / f"spectrum_k{k}.csv").exists()
            assert (out / f"scatter_k{k}.csv").exists()
        assert (out / "neighbors.csv").exists()

    def test_neighbor_rows_shape(self, sim_dir, tmp_path):
        tmp, cfg, sim = sim_dir
        out = tmp_path / "run2"
        cli.main(
            [
                "run",
                "--config", cfg,
                "--frames", str(sim / "frames.csv"),
                "--graph", str(sim / "graph_p1.csv"),
                "--out", str(out),
            ]
        )
        rows = np.loadtxt(out / "neighbors.csv", delimiter=",", skiprows=1, ndmin=2)
        assert rows.shape == (200 * 5, 5)

    def test_neighbors_csv_matches_dense_reference(self, sim_dir, tmp_path):
        # reference: dense A^All, a full per-row sort by (-affinity, index),
        # and the per-pair row writer
        tmp, cfg, sim = sim_dir
        out = tmp_path / "run4"
        graph_path = sim / "graph_p1.csv"
        cli.main(
            [
                "run",
                "--config", cfg,
                "--frames", str(sim / "frames.csv"),
                "--graph", str(graph_path),
                "--out", str(out),
            ]
        )
        frames = so3.FrameSet.from_csv(sim / "frames.csv")
        graph = graphs.ObservationGraph.from_csv(graph_path, n_vertices=200)
        blocks = [pipeline.embed(graph, k) for k in range(1, 11)]
        affinities = [pipeline._affinity_rows(b, 0, 200) for b in blocks]
        prod = np.prod(np.array(affinities), axis=0)
        keys = prod.copy()
        np.fill_diagonal(keys, -np.inf)
        keys[:, blocks[0].isolated] = -np.inf
        nb = np.array([np.lexsort((np.arange(200), -row))[:5] for row in keys])
        dirs = frames.viewing_directions()
        expected = []
        for i in range(200):
            for r, j in enumerate(nb[i]):
                ang = np.degrees(np.arccos(np.clip(dirs[i] @ dirs[j], -1.0, 1.0)))
                expected.append(f"{i},{r},{j},{prod[i, j]:.17g},{ang:.17g}")
        lines = (out / "neighbors.csv").read_text().splitlines()
        assert lines[0] == "i,rank,j,affinity,true_angle_deg"
        assert lines[2:] == expected

    def test_scatter_csv_rows(self, sim_dir, tmp_path):
        tmp, cfg, sim = sim_dir
        out = tmp_path / "run5"
        graph_path = sim / "graph_p1.csv"
        cli.main(
            [
                "run",
                "--config", cfg,
                "--frames", str(sim / "frames.csv"),
                "--graph", str(graph_path),
                "--out", str(out),
            ]
        )
        frames = so3.FrameSet.from_csv(sim / "frames.csv")
        graph = graphs.ObservationGraph.from_csv(graph_path, n_vertices=200)
        for k in (1, 5, 10):
            pts = pipeline.scatter_data(pipeline.embed(graph, k), frames, 10000, 23)
            lines = (out / f"scatter_k{k}.csv").read_text().splitlines()
            assert lines[0] == "affinity,target"
            assert lines[2:] == [f"{a:.17g},{t:.17g}" for a, t in pts]

    def test_outputs_do_not_depend_on_worker_count(self, sim_dir, tmp_path, monkeypatch):
        # 8-row K-NN blocks, so the 200 rows make three runs and the K-NN
        # forks too; one CPU runs every task in this process
        tmp, cfg, sim = sim_dir
        monkeypatch.setattr(graphs, "WORK_BYTES", 8 * pipeline._KNN_ENTRY_BYTES * 200)
        outputs = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)
            out = tmp_path / f"cpus{cpus}"
            argv = ["run", "--config", cfg, "--frames", str(sim / "frames.csv")]
            argv += ["--graph", str(sim / "graph_p1.csv"), "--out", str(out)]
            assert cli.main(argv) == 0
            outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
        names = {f"{kind}_k{k}.csv" for kind in ("spectrum", "scatter") for k in range(1, 11)}
        assert set(outputs[0]) == names | {"neighbors.csv", "metrics.json"}
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]
        assert multiprocessing.active_children() == []

    def test_wrapped_embed_writes_every_frequency_here(self, sim_dir, tmp_path, monkeypatch):
        # a profiler's functools.wraps span on embed keeps the solves in
        # this process, and the frequency files are written with them
        tmp, cfg, sim = sim_dir
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
        out = tmp_path / "o"
        argv = ["run", "--config", cfg, "--frames", str(sim / "frames.csv")]
        argv += ["--graph", str(sim / "graph_p1.csv"), "--out", str(out)]
        assert cli.main(argv) == 0
        assert calls == list(range(10, 0, -1))
        assert forks == []
        for k in range(1, 11):
            for kind in ("spectrum", "scatter"):
                assert (out / f"{kind}_k{k}.csv").stat().st_size > 0

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_every_csv_matches_per_value_format(self, tmp_path, monkeypatch, delta):
        # each writer's rows number CHUNK - 1, CHUNK or CHUNK + 1
        write_rows_at_chunk_boundary(monkeypatch, delta)
        cfg = write_config(
            tmp_path, seed=8, n_frames=100, cos_threshold=0.9, p_values=[1.0, 0.5], knn_k=5
        )
        sim, out = tmp_path / "sim", tmp_path / "run"
        assert cli.main(["simulate", "--config", cfg, "--out", str(sim)]) == 0
        argv = ["run", "--config", cfg, "--frames", str(sim / "frames.csv")]
        argv += ["--graph", str(sim / "graph_p0.5.csv"), "--out", str(out)]
        assert cli.main(argv) == 0
        config = cli.ExperimentConfig.from_json(cfg).hash()

        def rows(path, header):
            """Data lines, after checking the header and the config line."""
            assert_csv_layout(path, config)
            lines = path.read_text().splitlines()
            assert lines[0] == header
            return lines[2:]

        frames = so3.sample_uniform(8, 100)
        header = "index," + ",".join(f"r{a}{b}" for a in "123" for b in "123")
        assert rows(sim / "frames.csv", header) == [
            f"{i}," + ",".join(format(v, ".17g") for v in r.ravel())
            for i, r in enumerate(frames.frames)
        ]
        clean = graphs.clean_graph(frames, 0.9)
        rewired = graphs.rewire(clean, 0.5, 9)
        names = ("good", "rewired")
        for p, g in (("1", clean), ("0.5", rewired)):
            assert rows(sim / f"graph_p{p}.csv", "i,j,theta,kind") == [
                f"{i},{j},{t:.17g},{names[k]}"
                for i, j, t, k in zip(g.edge_i, g.edge_j, g.theta, g.kind)
            ]
        blocks = [pipeline.embed(rewired, k) for k in range(1, 11)]
        for b in blocks:
            assert rows(out / f"spectrum_k{b.k}.csv", "rank,eigenvalue") == [
                f"{r},{v:.17g}" for r, v in enumerate(b.eigenvalues)
            ]
            pts = pipeline.scatter_data(b, frames, 4950, 10)
            assert rows(out / f"scatter_k{b.k}.csv", "affinity,target") == [
                f"{a:.17g},{t:.17g}" for a, t in pts
            ]
        nb, values = pipeline.knn_streamed(blocks, 5)
        dirs = frames.viewing_directions()
        assert rows(out / "neighbors.csv", "i,rank,j,affinity,true_angle_deg") == [
            f"{i},{r},{j},{values[i, r]:.17g},"
            f"{np.degrees(np.arccos(np.clip(dirs[i] @ dirs[j], -1.0, 1.0))):.17g}"
            for i in range(100)
            for r, j in enumerate(nb["A^All"][i])
        ]

    def test_bad_graph_row_names_file_and_row(self, sim_dir, tmp_path, capsys):
        tmp, cfg, sim = sim_dir
        bad = tmp_path / "bad_graph.csv"
        bad.write_text("i,j,theta,kind\n0,1,0.5,good\n0,2,0.5\n")
        argv = ["run", "--config", cfg, "--frames", str(sim / "frames.csv")]
        argv += ["--graph", str(bad), "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: {bad}: line 3: bad graph row '0,2,0.5' (expected i,j,theta,kind)\n"

    @pytest.mark.parametrize(
        "row, cause",
        [
            ("0,7,nan,good", "theta must be finite"),
            ("0,7,inf,good", "theta must be finite"),
            ("0,7,-inf,rewired", "theta must be finite"),
            ("7,0,0.5,good", "edges must satisfy i < j (no self loops)"),
        ],
    )
    def test_rejected_edge_names_file(self, sim_dir, tmp_path, capsys, row, cause):
        tmp, cfg, sim = sim_dir
        bad = tmp_path / "bad_graph.csv"
        bad.write_text(f"i,j,theta,kind\n0,1,0.5,good\n{row}\n")
        argv = ["run", "--config", cfg, "--frames", str(sim / "frames.csv")]
        argv += ["--graph", str(bad), "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: {bad}: {cause}\n"
        assert not (tmp_path / "o").exists()

    def test_prints_one_summary_line_per_method(self, sim_dir, tmp_path, capsys):
        tmp, cfg, sim = sim_dir
        out = tmp_path / "run6"
        cli.main(
            [
                "run",
                "--config", cfg,
                "--frames", str(sim / "frames.csv"),
                "--graph", str(sim / "graph_p1.csv"),
                "--out", str(out),
            ]
        )
        lines = capsys.readouterr().out.splitlines()
        methods = json.loads((out / "metrics.json").read_text())["methods"]
        assert lines == [
            f"{out} {name}: mean angle {stats['mean_angle_deg']:.1f} deg, "
            f"frac<=30 {stats['frac_le_30']:.3f}"
            for name, stats in methods.items()
        ]

    def test_eval_round_trip(self, sim_dir, tmp_path):
        tmp, cfg, sim = sim_dir
        run_out = tmp_path / "run3"
        cli.main(
            [
                "run",
                "--config", cfg,
                "--frames", str(sim / "frames.csv"),
                "--graph", str(sim / "graph_p1.csv"),
                "--out", str(run_out),
            ]
        )
        eval_out = tmp_path / "ev"
        code = cli.main(
            [
                "eval",
                "--config", cfg,
                "--frames", str(sim / "frames.csv"),
                "--neighbors", str(run_out / "neighbors.csv"),
                "--out", str(eval_out),
            ]
        )
        assert code == 0
        got = json.loads((eval_out / "metrics.json").read_text())
        ref = json.loads((run_out / "metrics.json").read_text())
        assert got["methods"]["input"] == ref["methods"]["A^All"]


@pytest.fixture(scope="module")
def run_dir(sim_dir):
    """A run on sim_dir's clean graph: 200 frames, 5 neighbours each."""
    tmp, cfg, sim = sim_dir
    out = tmp / "run_for_eval"
    argv = ["run", "--config", cfg, "--frames", str(sim / "frames.csv")]
    assert cli.main(argv + ["--graph", str(sim / "graph_p1.csv"), "--out", str(out)]) == 0
    return out


class TestEvalInput:
    """eval rejects a neighbors.csv that does not fit the frames, naming
    the file and the cause."""

    @staticmethod
    def evaluate(sim_dir, neighbors, frames=None):
        tmp, cfg, sim = sim_dir
        argv = ["eval", "--config", cfg, "--frames", str(frames or sim / "frames.csv")]
        argv += ["--neighbors", str(neighbors), "--out", str(neighbors.parent / "ev")]
        return cli.main(argv)

    @staticmethod
    def rewrite(run_dir, tmp_path, edit):
        """neighbors.csv with its data lines (after the header and the
        config line) passed through edit."""
        lines = (run_dir / "neighbors.csv").read_text().splitlines(keepends=True)
        path = tmp_path / "neighbors.csv"
        path.write_text("".join(lines[:2] + edit(lines[2:])))
        return path

    def error(self, capsys, path):
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert "Traceback" not in err
        return err

    def test_more_vertices_than_frames(self, sim_dir, run_dir, tmp_path, capsys):
        frames = so3.FrameSet.from_csv(sim_dir[2] / "frames.csv")
        few = tmp_path / "frames60.csv"
        so3.FrameSet(frames=frames.frames[:60]).to_csv(few, "0123456789abcdef")
        path = run_dir / "neighbors.csv"
        assert self.evaluate(sim_dir, path, frames=few) == 1
        assert "i = 199 is out of range for 60 frames" in self.error(capsys, path)

    def test_neighbour_beyond_frames(self, sim_dir, run_dir, tmp_path, capsys):
        def edit(rows):
            i, rank, _, rest = rows[7].split(",", 3)
            return rows[:7] + [f"{i},{rank},200,{rest}"] + rows[8:]

        path = self.rewrite(run_dir, tmp_path, edit)
        assert self.evaluate(sim_dir, path) == 1
        assert "j = 200 is out of range for 200 frames" in self.error(capsys, path)

    def test_truncated(self, sim_dir, run_dir, tmp_path, capsys):
        path = self.rewrite(run_dir, tmp_path, lambda rows: rows[: len(rows) // 2])
        assert self.evaluate(sim_dir, path) == 1
        assert "no row for (i, rank) = (100, 0)" in self.error(capsys, path)

    @pytest.mark.filterwarnings("error")  # numpy's "input contained no data" too
    def test_header_only(self, sim_dir, run_dir, tmp_path, capsys):
        path = self.rewrite(run_dir, tmp_path, lambda rows: [])
        assert self.evaluate(sim_dir, path) == 1
        assert "no neighbour rows" in self.error(capsys, path)

    def test_missing_rows_in_the_middle(self, sim_dir, run_dir, tmp_path, capsys):
        # rows (57, 2) and (57, 3); the rest still spans all 200 frames
        path = self.rewrite(run_dir, tmp_path, lambda rows: rows[:287] + rows[289:])
        assert self.evaluate(sim_dir, path) == 1
        err = self.error(capsys, path)
        assert "no row for (i, rank) = (57, 2)" in err
        assert "one row per rank 0..4 for each of the 200 frames" in err

    def test_duplicate_row(self, sim_dir, run_dir, tmp_path, capsys):
        path = self.rewrite(run_dir, tmp_path, lambda rows: rows + rows[11:12])
        assert self.evaluate(sim_dir, path) == 1
        assert "more than one row for (i, rank) = (2, 1)" in self.error(capsys, path)

    def test_bad_header(self, sim_dir, run_dir, tmp_path, capsys):
        # no header line: the first neighbour row must not be skipped
        lines = (run_dir / "neighbors.csv").read_text().splitlines(keepends=True)
        path = tmp_path / "neighbors.csv"
        path.write_text("".join(lines[2:]))
        assert self.evaluate(sim_dir, path) == 1
        assert f"unexpected header {lines[2].strip()!r}" in self.error(capsys, path)

    def test_non_integer_index(self, sim_dir, run_dir, tmp_path, capsys):
        path = self.rewrite(run_dir, tmp_path, lambda rows: ["0.5" + rows[0][1:], *rows[1:]])
        assert self.evaluate(sim_dir, path) == 1
        self.error(capsys, path)


class TestFramesInput:
    """run and eval reject a frames.csv without its header, with rows out of
    index order or with a row that is not a rotation, naming the file."""

    @staticmethod
    def frames_with_row(sim_dir, tmp_path, row, line=6):
        """frames.csv with one line replaced; line 6 is data row 4."""
        lines = (sim_dir[2] / "frames.csv").read_text().splitlines(keepends=True)
        path = tmp_path / "frames.csv"
        path.write_text("".join(lines[:line] + [row] + lines[line + 1:]))
        return path

    @pytest.mark.parametrize("command", ["run", "eval"])
    @pytest.mark.parametrize(
        "row, cause, line",
        [
            pytest.param("4,0,1,2\n", "the number of columns changed from 10 to 4", 6, id="short"),
            pytest.param(
                "4,0,1,2,3,4,5,6,7,8\n", "row 4 is not a rotation", 6, id="not-orthogonal"
            ),
            pytest.param("4,1,0,0,0,1,0,0,0,-1\n", "row 4 is not a rotation", 6, id="det-minus-1"),
            pytest.param("4,1,0,0,0,1,0,0,0,nan\n", "row 4 is not a rotation", 6, id="nan"),
            # no header line: the first row must not be skipped
            pytest.param(
                "0,1,0,0,0,1,0,0,0,1\n", "unexpected header '0,1,0,0,0,1,0,0,0,1'", 0,
                id="no-header",
            ),
            # rows out of order: frame 4 must not take another frame's rotation
            pytest.param(
                "5,1,0,0,0,1,0,0,0,1\n", "row 4 has index 5; expected the indices 0..199", 6,
                id="index-out-of-order",
            ),
        ],
    )
    def test_bad_row_names_file(
        self, sim_dir, run_dir, tmp_path, capsys, command, row, cause, line
    ):
        tmp, cfg, sim = sim_dir
        frames = self.frames_with_row(sim_dir, tmp_path, row, line)
        argv = [command, "--config", cfg, "--frames", str(frames), "--out", str(tmp_path / "o")]
        if command == "run":
            argv += ["--graph", str(sim / "graph_p1.csv")]
        else:
            argv += ["--neighbors", str(run_dir / "neighbors.csv")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {frames}: ")
        assert cause in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error")  # numpy's "input contained no data" too
    @pytest.mark.parametrize("command", ["run", "eval"])
    def test_header_only(self, sim_dir, run_dir, tmp_path, capsys, command):
        tmp, cfg, sim = sim_dir
        lines = (sim / "frames.csv").read_text().splitlines(keepends=True)
        frames = tmp_path / "frames.csv"
        frames.write_text("".join(lines[:2]))  # the header and the config line
        argv = [command, "--config", cfg, "--frames", str(frames), "--out", str(tmp_path / "o")]
        if command == "run":
            argv += ["--graph", str(sim / "graph_p1.csv")]
        else:
            argv += ["--neighbors", str(run_dir / "neighbors.csv")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: {frames}: no frame rows\n"
        assert not (tmp_path / "o").exists()

    def test_rotations_to_1e10_are_accepted(self, sim_dir, tmp_path):
        frames = so3.FrameSet.from_csv(sim_dir[2] / "frames.csv").frames.copy()
        frames[4, 0, 0] += 4e-11
        path = tmp_path / "frames.csv"
        so3.FrameSet(frames=frames).to_csv(path, "0123456789abcdef")
        assert np.array_equal(so3.FrameSet.from_csv(path).frames, frames)


@pytest.mark.parametrize(
    "stage, how, cause",
    [
        ("embed", "exit", "a worker process ended with exit status 3"),
        # the worker dies writing its frequency's files, after the solve
        ("embed", "write", "a worker process ended with exit status 3"),
        ("knn", "kill", "a worker process was killed by SIGKILL"),
        ("align", "exit", "a worker process ended with exit status 3"),
    ],
)
def test_dead_worker_names_the_stage(sim_dir, tmp_path, monkeypatch, capsys, stage, how, cause):
    tmp, cfg, sim = sim_dir
    parent = os.getpid()

    def die(*args, **kwargs):
        assert os.getpid() != parent, "the stage ran in the test process"
        if how == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        os._exit(3)

    monkeypatch.setattr(pipeline, "usable_cpus", lambda: 2)
    argv = ["run", "--config", cfg, "--frames", str(sim / "frames.csv")]
    argv += ["--graph", str(sim / "graph_p1.csv")]
    if how == "write":
        monkeypatch.setattr(pipeline, "scatter_data", die)
    elif stage == "embed":
        monkeypatch.setattr(pipeline, "embed", die)
    elif stage == "knn":
        # 8-row blocks, so the 200 rows make 25 tasks
        monkeypatch.setattr(graphs, "WORK_BYTES", 8 * pipeline._KNN_ENTRY_BYTES * 200)
        monkeypatch.setattr(pipeline, "_knn_rows", die)
    else:
        # 2-row alignment blocks: about 30 tasks for 60 images; the
        # passes over the images run before, in the calling process
        monkeypatch.setattr(graphs, "WORK_BYTES", 4 * imaging._PAIR_BYTES)
        monkeypatch.setattr(imaging, "_align_rows", die)
        argv = ["images", "--config", write_config(
            tmp_path, n_frames=60, cos_threshold=0.8, k_max=2, knn_k=5,
            image_size=9, snr_values=[8.0],
        )]
    code = cli.main(argv + ["--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {stage}: {cause}\n"
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 2])
def test_eigensolver_error_is_one_line(sim_dir, tmp_path, monkeypatch, capsys, cpus):
    # on two CPUs the error is raised in a worker and pickled back
    tmp, cfg, sim = sim_dir

    def fail(h, m):
        raise eigensolver.EigensolverError("iterative solver failed: no convergence")

    monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(pipeline, "top_eigenpairs", fail)
    argv = ["run", "--config", cfg, "--frames", str(sim / "frames.csv")]
    argv += ["--graph", str(sim / "graph_p1.csv"), "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: iterative solver failed: no convergence\n"
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 2])
def test_frequency_writer_error_is_one_line(sim_dir, tmp_path, monkeypatch, capsys, cpus):
    # every frequency's spectrum file fails to write, in the worker that
    # solved it on two CPUs; k_max is queued first, so its error is the
    # one raised on any number of workers
    tmp, cfg, sim = sim_dir
    parent = os.getpid()
    real_write = cli.write_csv

    def write_csv(path, *args):
        if path.name.startswith("spectrum_k"):
            assert (os.getpid() == parent) == (cpus == 1)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
        return real_write(path, *args)

    monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(cli, "write_csv", write_csv)
    out = tmp_path / "o"
    argv = ["run", "--config", cfg, "--frames", str(sim / "frames.csv")]
    argv += ["--graph", str(sim / "graph_p1.csv"), "--out", str(out)]
    assert cli.main(argv) == 1
    cause = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(out / "spectrum_k10.csv"))
    assert capsys.readouterr().err == f"error: {cause}\n"
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 2])
def test_unwritable_frequency_file_is_one_line(sim_dir, tmp_path, monkeypatch, capsys, cpus):
    # a directory where scatter_k1.csv goes fails the open that writes it,
    # in the worker that solved k = 1 on two CPUs
    tmp, cfg, sim = sim_dir
    out = tmp_path / "o"
    (out / "scatter_k1.csv").mkdir(parents=True)
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)
    argv = ["run", "--config", cfg, "--frames", str(sim / "frames.csv")]
    argv += ["--graph", str(sim / "graph_p1.csv"), "--out", str(out)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(str(out / "scatter_k1.csv")) in err
    assert multiprocessing.active_children() == []


def test_run_names_graph_larger_than_frames(sim_dir, tmp_path, capsys):
    tmp, cfg, sim = sim_dir
    frames = so3.FrameSet.from_csv(sim / "frames.csv")
    few = tmp_path / "frames60.csv"
    so3.FrameSet(frames=frames.frames[:60]).to_csv(few, "0123456789abcdef")
    graph = sim / "graph_p1.csv"
    spanned = graphs.ObservationGraph.from_csv(graph).n_vertices
    argv = ["run", "--config", cfg, "--frames", str(few), "--graph", str(graph)]
    assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: {graph}: the graph spans {spanned} vertices, more than the 60 given\n"
    )
    assert not (tmp_path / "o").exists()


def test_run_names_graph_without_edges(sim_dir, tmp_path, capsys):
    tmp, cfg, sim = sim_dir
    graph = tmp_path / "empty.csv"
    graph.write_text("i,j,theta,kind\n")
    argv = ["run", "--config", cfg, "--frames", str(sim / "frames.csv"), "--graph", str(graph)]
    assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {graph}: the graph has no edges\n"
    assert not (tmp_path / "o").exists()


class TestFrameCount:
    """k_max and knn_k are checked against the frame count before any
    output directory is made: frequency k needs 2k+4 frames."""

    @pytest.fixture(scope="class")
    def sim40(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("sim40")
        cfg = write_config(tmp, seed=2, n_frames=40, cos_threshold=0.5, knn_k=5, k_max=1)
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp / "sim")]) == 0
        return tmp / "sim"

    def run(self, sim40, tmp_path, **settings):
        cfg = write_config(tmp_path, n_frames=2000, cos_threshold=0.5, **settings)
        argv = ["run", "--config", cfg, "--frames", str(sim40 / "frames.csv")]
        argv += ["--graph", str(sim40 / "graph_p1.csv"), "--out", str(tmp_path / "o")]
        return cli.main(argv)

    @pytest.mark.parametrize(
        "settings, message",
        [
            # all 40 eigenvectors at k = 30 would leave A^All rounding noise
            ({"k_max": 30, "knn_k": 5}, "k_max 30 needs 2*k_max+4 = 64 frames"),
            ({"k_max": 19, "knn_k": 5}, "k_max 19 needs 2*k_max+4 = 42 frames"),
            ({"k_max": 1, "knn_k": 40}, "knn_k 40 must be below the frame count"),
            ({"k_max": 1}, "knn_k 50 must be below the frame count"),  # the default
        ],
    )
    def test_run(self, sim40, tmp_path, capsys, settings, message):
        frames, out = sim40 / "frames.csv", tmp_path / "o"
        assert self.run(sim40, tmp_path, **settings) == 1
        assert capsys.readouterr().err == f"error: {message}; {frames} has 40\n"
        assert not out.exists()

    def test_run_at_exactly_2k_plus_4_frames(self, sim40, tmp_path):
        assert self.run(sim40, tmp_path, k_max=18, knn_k=5) == 0
        assert (tmp_path / "o" / "spectrum_k18.csv").exists()

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"k_max": 30, "knn_k": 5}, "k_max 30 needs 2*k_max+4 = 64 frames; n_frames is 40"),
            ({"k_max": 1, "knn_k": 40}, "knn_k must satisfy 1 <= knn_k < n_frames"),
        ],
    )
    def test_images(self, tmp_path, capsys, settings, message):
        cfg = write_config(tmp_path, n_frames=40, cos_threshold=0.8, image_size=9, **settings)
        out = tmp_path / "img"
        assert cli.main(["images", "--config", cfg, "--out", str(out)]) == 1
        # images checks k_max against n_frames; the config itself checks
        # knn_k, and its errors name the config file
        where = "" if message.startswith("k_max") else f"{cfg}: "
        assert capsys.readouterr().err == f"error: {where}{message}\n"
        assert not out.exists()


def test_cli_import_leaves_scipy_ndimage_unloaded():
    # start-up cost: every mfca process imports the CLI
    src = str(Path(mfca.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    code = "import sys, mfca.cli; sys.exit('scipy.ndimage' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_cli_import_pins_blas_to_one_thread_unless_set(preset, expected):
    # numpy's and scipy's OpenBLAS read the count when they load; an
    # explicit value is the caller's choice and stays
    src = str(Path(mfca.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = path
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = "import os, mfca.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0 and run.stdout == f"{expected}\n"


class TestImages:
    def test_small_end_to_end(self, tmp_path):
        cfg = write_config(
            tmp_path,
            seed=6,
            n_frames=40,
            cos_threshold=0.8,
            knn_k=3,
            k_max=1,
            image_size=17,
            snr_values=[8.0],
        )
        out = tmp_path / "img"
        assert cli.main(["images", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "images_snr8.bin").exists()
        assert (out / "images_snr8.csv").exists()
        assert (out / "image_graph_snr8.csv").exists()
        metrics = json.loads((out / "snr8" / "metrics.json").read_text())
        assert "A^(1)" in metrics["methods"]
        assert "A^All" in metrics["methods"]
        frames = so3.FrameSet.from_csv(out / "frames.csv")
        geometric = graphs.clean_graph(frames, 0.8)
        truth = set(zip(geometric.edge_i.tolist(), geometric.edge_j.tolist()))
        g = graphs.ObservationGraph.from_csv(out / "image_graph_snr8.csv", n_vertices=40)
        found = set(zip(g.edge_i.tolist(), g.edge_j.tolist()))
        assert metrics["edge_match"] == len(truth & found) / len(truth)
        assert metrics["edge_match"] > 0.0
        # the image graph's CSV carries the config line too
        config = cli.ExperimentConfig.from_json(cfg).hash()
        csvs = sorted(out.rglob("*.csv"))
        assert {p.name for p in csvs} == {
            "frames.csv", "images_snr8.csv", "image_graph_snr8.csv", "neighbors.csv",
            "spectrum_k1.csv", "scatter_k1.csv",
        }
        for path in csvs:
            assert_csv_layout(path, config)

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_index_csv_matches_per_value_format(self, tmp_path, monkeypatch, delta):
        write_rows_at_chunk_boundary(monkeypatch, delta)
        cfg = write_config(
            tmp_path, seed=6, n_frames=20, cos_threshold=0.8, knn_k=3,
            k_max=1, image_size=9, snr_values=[2.5],
        )
        out = tmp_path / "img"
        assert cli.main(["images", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "images_snr2.5.csv").read_text().splitlines()
        assert lines[0] == "index,seed,snr"
        assert lines[2:] == [f"{i},{16 + i},2.5" for i in range(20)]

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_frame_chunks_match_one_stack(self, tmp_path, monkeypatch, delta):
        # chunks of 8 frames, and n one below, at or one above 3 chunks; the
        # last chunk of 25 frames takes the one-frame rest, as row_blocks
        # folds it
        n, L, snr, seed = 24 + delta, 9, 2.5, 4
        monkeypatch.setattr(graphs, "WORK_BYTES", 8 * 2 * 8 * L * L)
        cfg = write_config(
            tmp_path, seed=seed, n_frames=n, cos_threshold=0.8, knn_k=3,
            k_max=1, image_size=L, snr_values=[snr],
        )
        config = cli.ExperimentConfig.from_json(cfg).hash()
        # the one-stack reference: every image projected and made noisy at
        # once, written image by image, and the graph built from the stack
        frames = so3.sample_uniform(seed, n)
        imgs = imaging.project(imaging.default_phantom(), frames.frames, L=L)
        for i in range(n):
            imgs[i] = imaging.add_noise(imgs[i], snr, seed + 10 + i)
        geometric = graphs.clean_graph(frames, 0.8)
        g, _ = imaging.image_graph(imgs, edge_fraction=geometric.n_edges / (n * (n - 1) / 2))
        ref = tmp_path / "ref.csv"
        g.to_csv(ref, config)
        chunks = []
        project = imaging.project

        def counted(phantom, r, L):
            chunks.append(len(r))
            return project(phantom, r, L=L)

        monkeypatch.setattr(imaging, "project", counted)
        out = tmp_path / "img"
        assert cli.main(["images", "--config", cfg, "--out", str(out)]) == 0
        assert chunks == [8, 8, n - 16]
        assert (out / "images_snr2.5.bin").read_bytes() == b"".join(
            struct.pack("<II", L, L) + img.astype("<f8").tobytes() for img in imgs
        )
        assert (out / "images_snr2.5.csv").read_text() == "".join(
            ["index,seed,snr\n", f"# config={config}\n"]
            + [f"{i},{seed + 10 + i},2.5\n" for i in range(n)]
        )
        assert (out / "image_graph_snr2.5.csv").read_bytes() == ref.read_bytes()

    def test_peak_memory_does_not_grow_with_the_stack(self, tmp_path):
        # from 200 to 400 images of 65 x 65 the stack grows by 6.8 MB; the
        # traced peak of the calling process, which holds no stack, must
        # grow by well under that
        L = 65
        peaks = []
        for n in (200, 400):
            cfg = write_config(
                tmp_path, seed=0, n_frames=n, cos_threshold=0.95, knn_k=5,
                k_max=1, image_size=L, snr_values=[16],
            )
            argv = ["images", "--config", cfg, "--out", str(tmp_path / f"n{n}")]
            tracemalloc.start()
            try:
                assert cli.main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        stack_growth = 200 * L * L * 8
        assert peaks[1] - peaks[0] < stack_growth / 4, peaks

    def test_empty_geometric_graph_fails(self, tmp_path, capsys):
        # at cos_threshold 0.9999 the 20 frames have no geometric edge, so an
        # image graph with the same share of pairs has none either
        cfg = write_config(
            tmp_path, seed=6, n_frames=20, cos_threshold=0.9999, knn_k=3,
            k_max=1, image_size=17, snr_values=[8.0],
        )
        out = tmp_path / "img3"
        assert cli.main(["images", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "geometric graph is empty" in err
        assert "cos_threshold 0.9999" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "snrs", [[16.0, 4.0], ["inf", 16.0], [16.0, "inf"]], ids=["16-4", "inf-16", "16-inf"]
    )
    def test_each_snr_stack_is_noise_on_its_projection(self, tmp_path, snrs):
        # Python's json writes and reads inf as Infinity
        snrs = [float(s) for s in snrs]
        cfg = write_config(
            tmp_path, seed=3, n_frames=24, cos_threshold=0.8, knn_k=3, k_max=1,
            image_size=9, snr_values=snrs,
        )
        out = tmp_path / "img"
        assert cli.main(["images", "--config", cfg, "--out", str(out)]) == 0
        frames = so3.sample_uniform(3, 24).frames
        clean = [imaging.project(imaging.default_phantom(), r, L=9) for r in frames]
        for snr in snrs:
            label = "inf" if np.isinf(snr) else f"{snr:g}"
            want = [
                img if np.isinf(snr) else imaging.add_noise(img, snr, 3 + 10 + idx)
                for idx, img in enumerate(clean)
            ]
            got = load_images(out / f"images_snr{label}.bin")
            assert np.array_equal(got, np.array(want)), label

    def test_colliding_snr_labels_fail_before_writing(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, seed=6, n_frames=40, cos_threshold=0.8, knn_k=3, k_max=1,
            image_size=17, snr_values=[16, 16.0000001],
        )
        out = tmp_path / "img"
        assert cli.main(["images", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {cfg}: snr_values 16.0 and 16.0000001 both label their files '16'"]
        assert not out.exists()

    def test_metrics_record_the_image_basis(self, tmp_path):
        cfg = write_config(
            tmp_path, seed=6, n_frames=40, cos_threshold=0.8, knn_k=3, k_max=1,
            image_size=17, snr_values=[8.0],
        )
        out = tmp_path / "img"
        assert cli.main(["images", "--config", cfg, "--out", str(out)]) == 0
        basis = json.loads((out / "snr8" / "metrics.json").read_text())["image_basis"]
        assert set(basis) == {"sigma", "m_max", "n_coefficients", "ranks"}
        assert basis["sigma"] > 0.0
        assert len(basis["ranks"]) == basis["m_max"] + 1
        assert basis["ranks"][-1] > 0 or basis["m_max"] == 0
        assert basis["n_coefficients"] == sum(basis["ranks"]) > 0

    def test_noiseless_label(self, tmp_path):
        cfg = write_config(
            tmp_path, seed=6, n_frames=30, cos_threshold=0.8, knn_k=3,
            k_max=1, image_size=17,
        )
        out = tmp_path / "img2"
        assert cli.main(["images", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "images_snrinf.bin").exists()


class TestOutputDirResolution:
    def test_config_output_dir_without_flag(self, tmp_path, monkeypatch):
        # $MFCA_OUT is not read: the directory is --out or the config's
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("MFCA_OUT", str(tmp_path / "ignored"))
        cfg = write_config(tmp_path, output_dir=str(tmp_path / "from_config"))
        assert cli.main(["theory", "--k", "1", "--h", "0.5", "--config", cfg]) == 0
        assert (tmp_path / "from_config" / "gaps.csv").exists()
        assert cli.main(["theory", "--k", "1", "--h", "0.5"]) == 0
        assert (tmp_path / "out" / "gaps.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MFCA_OUT", str(tmp_path / "ignored"))
        chosen = tmp_path / "chosen"
        cli.main(["theory", "--k", "1", "--h", "0.5", "--out", str(chosen)])
        assert (chosen / "gaps.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_missing_frames_file_returns_1(self, tmp_path):
        code = cli.main(
            [
                "run",
                "--frames", str(tmp_path / "absent.csv"),
                "--graph", str(tmp_path / "absent2.csv"),
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1


def test_every_csv_has_one_layout(tmp_path):
    # header, `# config=<hash>` on line 2 and no other comment line, in
    # every CSV that simulate, run, images and theory write
    cfg = write_config(
        tmp_path, seed=2, n_frames=40, cos_threshold=0.8, p_values=[1.0, 0.5], knn_k=3,
        k_max=2, image_size=9, snr_values=[8.0],
    )
    sim = tmp_path / "sim"
    runs = [
        ["simulate", "--out", str(sim)],
        ["run", "--frames", str(sim / "frames.csv"), "--graph", str(sim / "graph_p0.5.csv"),
         "--out", str(tmp_path / "run")],
        ["images", "--out", str(tmp_path / "img")],
        ["theory", "--k", "1,2", "--h", "0.1:0.1:0.3", "--out", str(tmp_path / "theory")],
    ]
    for argv in runs:
        assert cli.main(argv + ["--config", cfg]) == 0
    config = cli.ExperimentConfig.from_json(cfg).hash()
    csvs = sorted(tmp_path.rglob("*.csv"))
    assert len(csvs) == 3 + 5 + 8 + 2
    for path in csvs:
        assert_csv_layout(path, config)
