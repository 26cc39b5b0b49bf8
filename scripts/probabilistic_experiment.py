#!/usr/bin/env python3
"""End-to-end probabilistic-model experiment.

Samples Haar-uniform frames, builds the clean neighborhood graph, rewires a
fraction of edges, runs the multi-frequency pipeline for each rewiring level,
and writes spectra, scatter samples, neighbor lists, and quality metrics.

Example:
    python3 scripts/probabilistic_experiment.py --n-frames 2000 \
        --p-values 1.0,0.5,0.1 --out results/prob
"""

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from mfca import graphs, so3
from mfca.cli import ExperimentConfig, _run_pipeline


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n-frames", type=int, default=2000)
    ap.add_argument("--cos-threshold", type=float, default=0.95)
    ap.add_argument("--p-values", default="1.0,0.5,0.1")
    ap.add_argument("--k-max", type=int, default=10)
    ap.add_argument("--knn-k", type=int, default=50)
    ap.add_argument("--out", default="results/prob")
    args = ap.parse_args(argv)

    p_values = tuple(float(x) for x in args.p_values.split(",") if x)
    cfg = ExperimentConfig(
        seed=args.seed,
        n_frames=args.n_frames,
        cos_threshold=args.cos_threshold,
        p_values=p_values,
        k_max=args.k_max,
        knn_k=args.knn_k,
        output_dir=args.out,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(asdict(cfg), indent=1))

    frames = so3.sample_uniform(cfg.seed, cfg.n_frames)
    with open(out / "frames.csv", "w") as fh:
        frames.write_csv(fh)
    clean = graphs.clean_graph(frames, cfg.cos_threshold)
    print(f"{cfg.n_frames} frames, {clean.n_edges} clean edges", flush=True)

    for p in p_values:
        g = clean if p == 1.0 else graphs.rewire(clean, p, cfg.seed + 1)
        sub = out / f"p{p:g}"
        sub.mkdir(exist_ok=True)
        g.to_csv(sub / "graph.csv")
        _run_pipeline(frames, g, cfg, sub)
        metrics = json.loads((sub / "metrics.json").read_text())
        for name, stats in metrics["methods"].items():
            print(
                f"p={p:g} {name}: mean angle {stats['mean_angle_deg']:.1f} deg, "
                f"frac<=30 {stats['frac_le_30']:.3f}",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
