"""Command-line front end: reproducible experiments emitting CSV/JSON
artifacts.

Subcommands: theory, wigner, simulate, run, images, eval.  Every command but
wigner, which prints one entry, is a pure function of (config, seed) to bytes
under --out, else the config's output_dir.  Every CSV is written by
csvio.write_csv, with 17-digit floats that round-trip exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import graphs, imaging, pipeline, spectral, wigner as wig
from .csvio import read_header, read_rows, write_csv
from .eigensolver import EigensolverError
from .so3 import FrameSet, sample_uniform

_INT_FIELDS = ("seed", "n_frames", "k_max", "knn_k", "image_size")
_LIST_FIELDS = ("p_values", "snr_values")
_NEIGHBORS_HEADER = "i,rank,j,affinity,true_angle_deg"


class ConfigError(ValueError):
    pass


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _label(value: float) -> str:
    """The file label of a p or SNR value: graph_p<label>.csv,
    images_snr<label>.bin and the like (inf for a noiseless SNR)."""
    return f"{value:g}"


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    n_frames: int = 2000
    cos_threshold: float = 0.95
    p_values: tuple = (1.0,)
    k_max: int = 10
    knn_k: int = 50
    snr_values: tuple = ()
    image_size: int = 65
    output_dir: str = "out"

    def __post_init__(self):
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if type(value) is not int:  # bool is an int subclass
                raise ConfigError(f"{name} must be an integer")
        for name in _LIST_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)) or not all(map(_is_number, value)):
                raise ConfigError(f"{name} must be a list of numbers")
        if not _is_number(self.cos_threshold):
            raise ConfigError("cos_threshold must be a number")
        if not isinstance(self.output_dir, str):
            raise ConfigError("output_dir must be a string")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if self.n_frames < 2:
            raise ConfigError("n_frames must be >= 2")
        if not -1.0 < self.cos_threshold < 1.0:
            raise ConfigError("cos_threshold must lie in (-1, 1)")
        if any(not 0.0 <= p <= 1.0 for p in self.p_values):
            raise ConfigError("p_values must lie in [0, 1]")
        if self.k_max < 1:
            raise ConfigError("k_max must be >= 1")
        if not 1 <= self.knn_k < self.n_frames:
            raise ConfigError("knn_k must satisfy 1 <= knn_k < n_frames")
        if any(not s > 0 for s in self.snr_values):  # NaN fails too
            raise ConfigError("snr_values must be positive")
        if self.image_size % 2 == 0 or self.image_size < 3:
            raise ConfigError("image_size must be odd and >= 3")
        object.__setattr__(self, "p_values", tuple(float(p) for p in self.p_values))
        object.__setattr__(self, "snr_values", tuple(float(s) for s in self.snr_values))
        for name in _LIST_FIELDS:
            # each value names its own files, so two values with one label
            # would write the second's files over the first's
            seen = {}
            for value in getattr(self, name):
                label = _label(value)
                if label in seen:
                    raise ConfigError(
                        f"{name} {seen[label]!r} and {value!r} both label their files {label!r}"
                    )
                seen[label] = value

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:
                raise ConfigError(f"{path}: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"{path}: unknown config keys: {sorted(unknown)}")
        try:
            return cls(**raw)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None

    def hash(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


def _out_dir(args, config: ExperimentConfig) -> Path:
    """The output directory, --out or else the config's output_dir,
    created; each command calls this only after its inputs are read and
    checked, so a failed command leaves none."""
    d = Path(args.out or config.output_dir)
    d.mkdir(parents=True, exist_ok=True)
    return d


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
    return cfg if args.seed is None else replace(cfg, seed=args.seed)


def _parse_list(flag: str, spec: str, kind, sep: str = ",") -> list:
    """The items of `spec` split at `sep`, each converted by `kind` (int or
    float); an item that does not convert raises ValueError naming `flag`."""
    values = []
    for item in spec.split(sep):
        if item:
            try:
                values.append(kind(item))
            except ValueError:
                what = "an integer" if kind is int else "a number"
                raise ValueError(f"{flag} {spec!r}: {item!r} is not {what}") from None
    return values


def _parse_h_spec(spec: str) -> list:
    """Either a comma list '0.1,0.5' or a range 'start:step:stop' within
    (0, 2] of at most 10,000 steps, checked before any point is built."""
    if ":" not in spec:
        return _parse_list("--h", spec, float)
    parts = _parse_list("--h", spec, float, sep=":")
    if len(parts) != 3:
        raise ValueError(f"--h {spec!r}: a range must be start:step:stop")
    start, step, stop = parts
    if not (step > 0 and 0.0 < start <= stop <= 2.0):  # NaN fails too
        raise ValueError(f"--h {spec!r}: a range needs a step above 0 and 0 < start <= stop <= 2")
    span = (stop - start) / step  # in steps; inf if it overflows
    if span > 10_000:
        raise ValueError(f"--h {spec!r}: the range spans {span:.6g} steps, more than 10,000")
    n = int(round(span)) + 1
    hs = (start + i * step for i in range(n))
    # a point that rounds past stop is stop: 0.18 + 26 * 0.07 > 2.0
    return [min(h, stop) for h in hs if h <= stop + 1e-12]


def cmd_theory(args) -> int:
    ks = _parse_list("--k", args.k, int)
    hs = _parse_h_spec(args.h)
    if not ks or not hs:
        raise ValueError(f"--k {args.k!r} and --h {args.h!r} must each list a value")
    for k in ks:
        if k < 1:
            raise ValueError(f"--k: frequency {k} is below 1")
    for h in hs:
        if not 0.0 < h <= 2.0:  # NaN fails too
            raise ValueError(f"--h: bandwidth {h:g} lies outside (0, 2]")
    if args.n_extra < 0:
        raise ValueError(f"--n-extra: {args.n_extra} is below 0")
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    rows = [
        (k, h, *row)
        for k in ks
        for h in hs
        for row in spectral.eigenvalue_table(k, h, k + args.n_extra)
    ]
    write_csv(
        out / "eigenvalues.csv", "k,h,n,lambda,multiplicity", cfg.hash(),
        "%d,%.17g,%d,%.17g,%d\n", *zip(*rows),
    )
    rows = [(k, h, spectral.spectral_gap(k, h), spectral.delta_k(k)) for k in ks for h in hs]
    write_csv(
        out / "gaps.csv", "k,h,gap,delta_k", cfg.hash(), "%d,%.17g,%.17g,%.17g\n", *zip(*rows)
    )
    return 0


def cmd_wigner(args) -> int:
    # wigner raises IndexError for these, which main does not report as bad input
    if args.ell >= 0 and max(abs(args.m), abs(args.n)) > args.ell:
        raise ValueError(
            f"--m {args.m} and --n {args.n} must each lie in [-ell, ell] for --ell {args.ell}"
        )
    if args.euler is None:
        if not np.isfinite(args.theta):
            raise ValueError(f"--theta {args.theta!r} must be a finite angle")
        print(f"{wig.wigner_d(args.ell, args.m, args.n, args.theta):.17g}")
        return 0
    try:
        phi, theta, psi = (float(x) for x in args.euler.split(","))
    except ValueError:
        raise ValueError(f"--euler {args.euler!r} must be three angles phi,theta,psi") from None
    if not np.isfinite([phi, theta, psi]).all():
        raise ValueError(f"--euler {args.euler!r} must be three finite angles phi,theta,psi")
    val = wig.wigner_D(args.ell, args.m, args.n, phi, theta, psi)
    print(f"{val.real:.17g}{val.imag:+.17g}j")
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    frames = sample_uniform(cfg.seed, cfg.n_frames)
    frames.to_csv(out / "frames.csv", cfg.hash())
    clean = graphs.clean_graph(frames, cfg.cos_threshold)
    for p in cfg.p_values:
        g = clean if p == 1.0 else graphs.rewire(clean, p, cfg.seed + 1)
        g.to_csv(out / f"graph_p{_label(p)}.csv", cfg.hash())
    return 0


def _run_pipeline(
    frames: FrameSet, graph, cfg: ExperimentConfig, out: Path, image_metrics=None
):
    """Embed, take nearest neighbours, and write every artifact under out;
    prints one summary line per method.  Each frequency's spectrum_k and
    scatter_k files are written by embed_all's `then`, in the process that
    solved that frequency, while the other solves run.  `image_metrics`,
    when given, is a dict of entries for metrics.json, such as
    `edge_match`, which is printed too."""
    config = cfg.hash()

    def write_frequency(k: int, block) -> None:
        values = block.eigenvalues
        write_csv(
            out / f"spectrum_k{k}.csv", "rank,eigenvalue", config,
            "%d,%.17g\n", np.arange(values.size), values,
        )
        pts = pipeline.scatter_data(
            block, frames, min(10000, block.n * (block.n - 1) // 2), cfg.seed + 2
        )
        write_csv(
            out / f"scatter_k{k}.csv", "affinity,target", config,
            "%.17g,%.17g\n", pts[:, 0], pts[:, 1],
        )

    blocks = pipeline.embed_all(graph, cfg.k_max, then=write_frequency)
    neighbors, values = pipeline.knn_streamed(blocks, cfg.knn_k)
    angles = {name: pipeline.neighbor_angles(frames, nb) for name, nb in neighbors.items()}
    metrics = {name: pipeline.angle_stats(ang) for name, ang in angles.items()}
    n, K = values.shape
    ii = np.repeat(np.arange(n), K)
    ranks = np.tile(np.arange(K), n)
    write_csv(
        out / "neighbors.csv", _NEIGHBORS_HEADER, config,
        "%d,%d,%d,%.17g,%.17g\n",
        ii, ranks, neighbors["A^All"].ravel(), values.ravel(), angles["A^All"].ravel(),
    )
    result = {"config": config, "methods": metrics, **(image_metrics or {})}
    if "edge_match" in result:
        print(f"{out}: edge match {result['edge_match']:.3f}")
    with open(out / "metrics.json", "w") as fh:
        json.dump(result, fh, indent=1)
    for name, stats in metrics.items():
        print(
            f"{out} {name}: mean angle {stats['mean_angle_deg']:.1f} deg, "
            f"frac<=30 {stats['frac_le_30']:.3f}"
        )


def _check_frame_count(cfg: ExperimentConfig, n: int, source: str) -> None:
    """Reject, before anything is written, a k_max or knn_k that n frames
    cannot serve; `source` says where n came from."""
    need = pipeline.min_vertices(cfg.k_max)
    if n < need:
        raise ConfigError(f"k_max {cfg.k_max} needs 2*k_max+4 = {need} frames; {source}")
    if cfg.knn_k >= n:
        raise ConfigError(f"knn_k {cfg.knn_k} must be below the frame count; {source}")


def cmd_run(args) -> int:
    cfg = _load_config(args)
    frames = FrameSet.from_csv(args.frames)
    _check_frame_count(cfg, len(frames), f"{args.frames} has {len(frames)}")
    graph = graphs.ObservationGraph.from_csv(args.graph, n_vertices=len(frames))
    if graph.n_edges == 0:
        raise ValueError(f"{args.graph}: the graph has no edges")
    out = _out_dir(args, cfg)
    _run_pipeline(frames, graph, cfg, out)
    return 0


def _image_chunks(frames: FrameSet, snr: float, cfg: ExperimentConfig):
    """The images of `frames` at `snr`, one chunk of frames within
    graphs.WORK_BYTES at a time: projected, then image i made noisy in
    place with its own seed cfg.seed + 10 + i, so no stack is ever held."""
    phantom = imaging.default_phantom()
    L = cfg.image_size
    # per frame: its projected pixels and their copy in save_images' records
    for lo, hi in graphs.row_blocks(len(frames), 2 * 8 * L * L):
        imgs = imaging.project(phantom, frames.frames[lo:hi], L=L)
        if not np.isinf(snr):
            for i in range(lo, hi):
                imgs[i - lo] = imaging.add_noise(imgs[i - lo], snr, cfg.seed + 10 + i)
        yield imgs


def cmd_images(args) -> int:
    cfg = _load_config(args)
    n = cfg.n_frames
    _check_frame_count(cfg, n, f"n_frames is {n}")
    frames = sample_uniform(cfg.seed, n)
    geometric = graphs.clean_graph(frames, cfg.cos_threshold)
    if geometric.n_edges == 0:
        # the image graph keeps the same share of pairs, which would be none
        raise ValueError(
            f"geometric graph is empty at cos_threshold {cfg.cos_threshold}: "
            f"no pair of the {n} frames is that close"
        )
    clean_frac = geometric.n_edges / (n * (n - 1) / 2)
    out = _out_dir(args, cfg)
    frames.to_csv(out / "frames.csv", cfg.hash())
    geometric_keys = geometric.edge_i * n + geometric.edge_j
    snrs = cfg.snr_values or (float("inf"),)
    for snr in snrs:
        label = _label(snr)
        path = out / f"images_snr{label}.bin"
        imaging.save_images(path, _image_chunks(frames, snr, cfg))
        idx = np.arange(n)
        write_csv(
            out / f"images_snr{label}.csv", "index,seed,snr", cfg.hash(),
            f"%d,%d,{label}\n", idx, cfg.seed + 10 + idx,
        )
        # both passes of the image graph read the images back from the file
        g, basis = imaging.image_graph(imaging.ImageFile(path), edge_fraction=clean_frac)
        g.to_csv(out / f"image_graph_snr{label}.csv", cfg.hash())
        # share of the geometric graph's edges that the image graph found
        match = float(np.mean(np.isin(geometric_keys, g.edge_i * n + g.edge_j)))
        sub = out / f"snr{label}"
        sub.mkdir(exist_ok=True)
        _run_pipeline(
            frames, g, cfg, sub,
            image_metrics={"edge_match": match, "image_basis": basis.summary()},
        )
    return 0


def _read_neighbors(path, n: int) -> np.ndarray:
    """The (n, K) neighbour array of a neighbors.csv written for n frames.

    The header must be the one _run_pipeline writes, every frame must have
    one row for each rank 0..K-1, and every index must name one of the n
    frames; anything else raises ValueError naming the file.
    """
    with open(path) as fh:
        read_header(fh, path, _NEIGHBORS_HEADER)
        rows = read_rows(fh, path, usecols=(0, 1, 2), dtype=np.int64, ndmin=2)
    if rows.shape[0] == 0:
        raise ValueError(f"{path}: no neighbour rows")
    i, rank, j = rows.T
    for name, col in (("i", i), ("j", j)):
        if col.min() < 0 or col.max() >= n:
            bad = col.min() if col.min() < 0 else col.max()
            raise ValueError(f"{path}: {name} = {bad} is out of range for {n} frames")
    if rank.min() < 0:
        raise ValueError(f"{path}: negative rank {rank.min()}")
    K = int(rank.max()) + 1
    counts = np.bincount(i * K + rank, minlength=n * K)
    for bad, what in ((counts == 0, "no row"), (counts > 1, "more than one row")):
        if bad.any():
            first = int(np.argmax(bad))
            raise ValueError(
                f"{path}: {what} for (i, rank) = ({first // K}, {first % K}); "
                f"expected one row per rank 0..{K - 1} for each of the {n} frames"
            )
    nb = np.empty((n, K), dtype=np.int64)
    nb[i, rank] = j
    return nb


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    frames = FrameSet.from_csv(args.frames)
    nb = _read_neighbors(args.neighbors, len(frames))
    metrics = pipeline.angle_stats(pipeline.neighbor_angles(frames, nb))
    out = _out_dir(args, cfg)
    with open(out / "metrics.json", "w") as fh:
        json.dump({"config": cfg.hash(), "methods": {"input": metrics}}, fh, indent=1)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mfca")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", help="output directory (default: the config's output_dir)")

    p = sub.add_parser("theory", help="emit eigenvalue tables and spectral gaps")
    common(p)
    p.add_argument("--k", required=True, help="comma list of frequencies")
    p.add_argument("--h", required=True, help="comma list or start:step:stop")
    p.add_argument("--n-extra", type=int, default=10, help="rows above n=k per table")
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("wigner", help="evaluate a single d- or D-matrix entry")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    angles = p.add_mutually_exclusive_group()
    angles.add_argument("--theta", type=float, default=0.0)
    angles.add_argument("--euler", help="phi,theta,psi for a full D entry")
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("simulate", help="sample frames and write per-p graphs")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("run", help="run the pipeline on a frames+graph pair")
    common(p)
    p.add_argument("--frames", required=True)
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("images", help="phantom projections, image graph, pipeline")
    common(p)
    p.set_defaults(func=cmd_images)

    p = sub.add_parser("eval", help="evaluate a neighbors.csv against frames")
    common(p)
    p.add_argument("--frames", required=True)
    p.add_argument("--neighbors", required=True)
    p.set_defaults(func=cmd_eval)
    return ap


def _attach_angles(argv: list) -> list:
    """argv with each `--theta X` and `--euler X` joined as `--theta=X`:
    argparse takes a separate X that starts with '-' for an option unless it
    reads as -<digits>[.<digits>], so it would refuse -1e-3, -inf or -0.5,0,0."""
    out = []
    for arg in argv:
        if out and out[-1] in ("--theta", "--euler"):
            arg = out.pop() + "=" + arg
        out.append(arg)
    return out


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(_attach_angles(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (ConfigError, ValueError, OSError, EigensolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
