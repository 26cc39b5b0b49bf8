#!/usr/bin/env python3
"""End-to-end image-surrogate experiment.

Projects the fixed phantom along Haar-uniform viewing directions, optionally
adds noise at several SNR levels, estimates the neighborhood graph and
in-plane alignment angles from the images alone, and runs the
multi-frequency pipeline on each estimated graph.

Example:
    python3 scripts/image_experiment.py --n-frames 500 --snr-values 16,4 \
        --out results/images
"""

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from mfca import graphs, imaging, so3
from mfca.cli import ExperimentConfig, _run_pipeline


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n-frames", type=int, default=500)
    ap.add_argument("--cos-threshold", type=float, default=0.95)
    ap.add_argument("--image-size", type=int, default=65)
    ap.add_argument("--snr-values", default="", help="comma list; empty = noiseless only")
    ap.add_argument("--k-max", type=int, default=5)
    ap.add_argument("--knn-k", type=int, default=10)
    ap.add_argument("--out", default="results/images")
    args = ap.parse_args(argv)

    snrs = tuple(float(x) for x in args.snr_values.split(",") if x)
    cfg = ExperimentConfig(
        seed=args.seed,
        n_frames=args.n_frames,
        cos_threshold=args.cos_threshold,
        k_max=args.k_max,
        knn_k=args.knn_k,
        snr_values=snrs,
        image_size=args.image_size,
        output_dir=args.out,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(asdict(cfg), indent=1))

    frames = so3.sample_uniform(cfg.seed, cfg.n_frames)
    with open(out / "frames.csv", "w") as fh:
        frames.write_csv(fh)
    clean_graph = graphs.clean_graph(frames, cfg.cos_threshold)
    frac = clean_graph.n_edges / (cfg.n_frames * (cfg.n_frames - 1) / 2)
    phantom = imaging.default_phantom()
    clean_images = [
        imaging.project(phantom, r, L=cfg.image_size) for r in frames.frames
    ]

    for snr in snrs or (float("inf"),):
        if np.isinf(snr):
            images, label = clean_images, "inf"
        else:
            images = [
                imaging.add_noise(img, snr, cfg.seed + 10 + idx)
                for idx, img in enumerate(clean_images)
            ]
            label = f"{snr:g}"
        sub = out / f"snr{label}"
        sub.mkdir(exist_ok=True)
        imaging.save_images(sub / "images.bin", images)
        g = imaging.image_graph(images, edge_fraction=frac)
        g.to_csv(sub / "graph.csv")

        true_set = set(zip(clean_graph.edge_i.tolist(), clean_graph.edge_j.tolist()))
        img_set = set(zip(g.edge_i.tolist(), g.edge_j.tolist()))
        match = len(true_set & img_set) / len(true_set)
        print(f"snr={label}: edge match {match:.3f} over {len(true_set)} edges", flush=True)

        _run_pipeline(frames, g, cfg, sub)
        metrics = json.loads((sub / "metrics.json").read_text())
        for name, stats in metrics["methods"].items():
            print(
                f"snr={label} {name}: mean angle {stats['mean_angle_deg']:.1f} deg, "
                f"frac<=30 {stats['frac_le_30']:.3f}",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
