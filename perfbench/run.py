#!/usr/bin/env python3
"""End-to-end benchmark of the `mfca` command line.

    python3 perfbench/run.py --workload rewired_n2000 --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from ./src,
so nothing is built or installed.  Each pass runs the workload's commands in
a fresh child interpreter (perfbench/child.py) through mfca.cli.main, with
the CLI's defaults: no --threads and no BLAS thread pinning, because the
default thread pool is part of what a user of the CLI gets.  Passes repeat
until --seconds have been measured, and the medians are reported.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced passes and reports the per-layer metrics,
with the traced-minus-untraced wall time as the tracing overhead.  Every
pass is checked (exit codes, neighbors.csv, metrics.json, and identical
seeded outputs across the passes of a run).  Human-readable lines come
first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench_work"

RUN_DEADLINE_S = 170.0  # every run must end within 180 s
# Import-only children before each untraced pass, for setup_s.  Spreading
# them over the run matters: on a shared or virtualised host, single-core
# speed drifts over seconds.
PROBES_PER_PASS = 2

# Why each workload is here: see perfbench/README.md.
WORKLOADS = {
    "rewired_n2000": {
        "config": {"n_frames": 2000, "cos_threshold": 0.95, "p_values": [0.1],
                   "k_max": 10, "knn_k": 50},
        "command": "simulate",
    },
    "dense_n600": {
        "config": {"n_frames": 600, "cos_threshold": 0.8, "p_values": [1.0],
                   "k_max": 10, "knn_k": 50},
        "command": "simulate",
    },
    "images_n500": {
        "config": {"n_frames": 500, "cos_threshold": 0.95, "snr_values": [16],
                   "image_size": 65, "k_max": 10, "knn_k": 50},
        "command": "images",
    },
}


def plan(workload: dict, config_path: Path, out: Path) -> tuple[list, dict]:
    """The CLI commands of one pass and where their outputs land."""
    cfg = workload["config"]
    if workload["command"] == "simulate":
        sim, run = out / "sim", out / "run"
        graph = sim / f"graph_p{cfg['p_values'][0]:g}.csv"
        commands = [
            ["simulate", "--config", str(config_path), "--out", str(sim)],
            ["run", "--config", str(config_path), "--frames", str(sim / "frames.csv"),
             "--graph", str(graph), "--out", str(run)],
        ]
        files = {"frames": sim / "frames.csv", "graph": graph, "result": run}
    else:
        img = out / "img"
        label = f"{cfg['snr_values'][0]:g}"
        commands = [["images", "--config", str(config_path), "--out", str(img)]]
        files = {"frames": img / "frames.csv", "graph": img / f"image_graph_snr{label}.csv",
                 "result": img / f"snr{label}"}
    return commands, files


def spawn(work: Path, tag: str, commands: list, trace: bool, deadline: float) -> dict:
    """Run one child to completion; returns its timings and rusage peak RSS."""
    spec_path, result_path = work / f"{tag}.spec.json", work / f"{tag}.result.json"
    spec_path.write_text(json.dumps({"src": str(SRC), "commands": commands, "trace": trace}))
    result_path.unlink(missing_ok=True)
    with open(work / f"{tag}.log", "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(spec_path), str(result_path)],
            stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
        )
        timed_out = False
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    timed_out = True
                    break
                time.sleep(0.02)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = {"spawned": spawned, "exit": proc.returncode, "timed_out": timed_out,
           "peak_rss_mb": usage.ru_maxrss / 1024.0, "minor_faults": usage.ru_minflt,
           "cpu_s": usage.ru_utime + usage.ru_stime}
    if proc.returncode == 0 and result_path.exists():
        out.update(json.loads(result_path.read_text()))
    return out


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_pass(child: dict, files: dict, cfg: dict, work: Path) -> tuple[list, dict]:
    """Correctness of one pass.  Returns (errors, facts) where facts holds
    the output hashes and A^All's frac_le_30."""
    import numpy as np

    if child.get("timed_out"):
        return ["timed out"], {}
    if child["exit"] != 0 or "end" not in child:
        return [f"child exited with {child['exit']} (see {work.name}/*.log)"], {}
    if child["error"]:
        return [child["error"]], {}
    errors = [f"command {i} returned {c}" for i, c in enumerate(child["codes"]) if c != 0]
    if errors:
        return errors, {}
    metrics_path = files["result"] / "metrics.json"
    neighbors_path = files["result"] / "neighbors.csv"
    for p in (metrics_path, neighbors_path, files["graph"], files["frames"]):
        if not p.exists():
            return [f"missing output {p.relative_to(work)}"], {}
    methods = json.loads(metrics_path.read_text()).get("methods", {})
    if "A^All" not in methods:
        return ["metrics.json does not list A^All"], {}
    frac30 = float(methods["A^All"]["frac_le_30"])

    n, k = cfg["n_frames"], cfg["knn_k"]
    rows = np.loadtxt(neighbors_path, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape != (n * k, 5):
        return [f"neighbors.csv has {rows.shape[0]} rows, expected {n * k}"], {}
    i = rows[:, 0].astype(np.int64)
    rank = rows[:, 1].astype(np.int64)
    j = rows[:, 2].astype(np.int64).reshape(n, k)
    if not (np.array_equal(i, np.repeat(np.arange(n), k))
            and np.array_equal(rank, np.tile(np.arange(k), n))):
        errors.append("neighbors.csv rows are not ordered by (i, rank)")
    if np.any((j < 0) | (j >= n)) or np.any(j == np.arange(n)[:, None]):
        errors.append("neighbors.csv has an out-of-range or self neighbour")
    if np.any(np.diff(np.sort(j, axis=1), axis=1) == 0):
        errors.append("neighbors.csv repeats a neighbour within a row")
    if np.any(np.diff(rows[:, 3].reshape(n, k), axis=1) > 0):
        errors.append("neighbour affinities increase with rank")
    # The CSV angle and metrics.json come from different dot-product
    # routines, so one pair at exactly 30 degrees may round either way.
    if abs(np.mean(rows[:, 4] <= 30.0) - frac30) > 1.0 / (n * k) + 1e-12:
        errors.append("frac_le_30 in metrics.json disagrees with neighbors.csv")
    hashes = {name: sha256(p) for name, p in (
        ("graph", files["graph"]), ("neighbors", neighbors_path), ("metrics", metrics_path))}
    return errors, {"hashes": hashes, "frac_le_30_all": frac30}


def edge_match(files: dict, threshold: float) -> float:
    """Share of the clean geometric graph's edges present in the graph the
    pipeline ran on."""
    import numpy as np

    from mfca.graphs import clean_graph
    from mfca.so3 import FrameSet

    frames = FrameSet.from_csv(files["frames"])
    n = len(frames)
    clean = clean_graph(frames, threshold)
    got = np.loadtxt(files["graph"], delimiter=",", skiprows=1, usecols=(0, 1),
                     dtype=np.int64, ndmin=2)
    keys = clean.edge_i * n + clean.edge_j
    return float(np.mean(np.isin(keys, got[:, 0] * n + got[:, 1])))


def output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def environment() -> dict:
    """What besides the code sets the numbers: cores, libraries, BLAS
    threads, and the CLI's default thread-pool size."""
    import numpy
    import scipy

    import mfca.cli

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    try:
        cli_threads = getattr(mfca.cli.build_parser().parse_args(["simulate"]), "threads", None)
    except (AttributeError, SystemExit):
        cli_threads = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "thread_env": {k: v for k, v in os.environ.items()
                       if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cli_default_threads": cli_threads,
    }


def _blas_threads():
    """Thread count of the OpenBLAS mapped into this process, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    if not (SRC / "mfca" / "cli.py").is_file():
        print(f"error: no mfca sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    cfg = {"seed": args.seed, **workload["config"]}

    work = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, spec, workload, cfg, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def measure(args, spec, workload, cfg, work, started) -> int:
    deadline = started + RUN_DEADLINE_S
    config_path = work / "config.json"
    config_path.write_text(json.dumps(cfg))
    print("env " + json.dumps(environment(), sort_keys=True))

    # Untimed first start: compiles bytecode, fills the page cache.
    spawn(work, "warmup", [], False, deadline)
    setup, probing = [], 0.0
    passes, first = [], None
    measuring = time.monotonic()
    while True:
        index = len(passes)
        for probe in range(0 if args.trace else PROBES_PER_PASS):
            t0 = time.monotonic()
            c = spawn(work, f"probe{index}.{probe}", [], False, deadline)
            probing += time.monotonic() - t0
            if "ready" in c:
                setup.append(c["ready"] - c["spawned"])
        traced = bool(args.trace) and index % 2 == 1
        out = work / f"pass{index}"
        commands, files = plan(workload, config_path, out)
        t0 = time.monotonic()
        child = spawn(work, f"pass{index}", commands, traced, deadline)
        elapsed = time.monotonic() - t0
        errors, facts = check_pass(child, files, cfg, work)
        if not errors:
            if first is None:
                first = facts
                first["edge_match"] = edge_match(files, cfg["cos_threshold"])
            elif facts["hashes"] != first["hashes"]:
                changed = sorted(k for k in facts["hashes"] if facts["hashes"][k] != first["hashes"][k])
                errors.append(f"seeded outputs differ from the first pass: {changed}")
        record = {"traced": traced, "errors": errors, "elapsed": elapsed,
                  "peak_rss_mb": child["peak_rss_mb"]}
        if "end" in child:
            record["wall_s"] = child["end"] - child["ready"]
            record["setup_s"] = child["ready"] - child["spawned"]
            if traced and "layers" in child:
                record["layers"] = dict(child["layers"], **{"cli.output_bytes": output_bytes(out)})
                record["absent"] = child["absent"]
        passes.append(record)
        print(f"pass {index}{' traced' if traced else ''}: "
              + (f"wall {record['wall_s']:.4f} s, " if "wall_s" in record else "")
              + f"peak {record['peak_rss_mb']:.1f} MB, "
              + f"cpu {child['cpu_s']:.2f} s, {child['minor_faults']} minor faults, "
              + ("ok" if not errors else "FAILED: " + "; ".join(errors)))
        shutil.rmtree(out, ignore_errors=True)

        now = time.monotonic()
        typical = statistics.median(p["elapsed"] for p in passes)
        if now + 1.5 * typical > deadline:
            break
        if args.trace and not any(p["traced"] for p in passes):
            continue
        if now - measuring - probing + typical / 2 >= args.seconds:
            break

    failed = sum(1 for p in passes if p["errors"])
    good = [p for p in passes if not p["errors"]] or passes
    if args.trace:
        metrics = trace_metrics(good, spec["per_layer"])
    else:
        setup += [p["setup_s"] for p in good if "setup_s" in p]
        values = {
            "wall_s": _median(p.get("wall_s") for p in good),
            "setup_s": _median(setup),
            "peak_rss_mb": _median(p["peak_rss_mb"] for p in good),
            "frac_le_30_all": (first or {}).get("frac_le_30_all", 0.0),
            "edge_match": (first or {}).get("edge_match", 0.0),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, {failed} failed, "
          f"fail_frac {failed / len(passes):.4f}")
    if setup:
        print("  set-up samples (s): " + " ".join(f"{s:.3f}" for s in setup))
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(passes), "failed": failed,
                      "metrics": metrics}))
    return 0


def trace_metrics(passes: list, per_layer: list) -> dict:
    traced = [p for p in passes if "layers" in p]
    untraced = [p for p in passes if not p["traced"] and "wall_s" in p]
    values = {}
    for m in per_layer:
        name = m["name"]
        if name == "trace.overhead_s":
            values[name] = (_median(p["wall_s"] for p in traced)
                            - _median(p["wall_s"] for p in untraced))
        else:
            values[name] = _median(p["layers"][name] for p in traced)
    absent = sorted({a for p in traced for a in p["absent"]})
    if absent:
        print("absent from the package, reported as 0: " + ", ".join(absent))
    idle = sorted(n for n, v in values.items() if v == 0)
    if idle:
        print("zero on this workload (layer not called, or nothing to count): "
              + ", ".join(idle))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in per_layer}


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


if __name__ == "__main__":
    sys.exit(main())
