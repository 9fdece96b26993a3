"""Command-line surface.

Commands: analyze, betti, persistence, project, synth, embed-graph,
preprocess-patches, sliding-window.  Exit codes: 0 success, 1 usage error,
2 data error, 3 non-convergence.  The MORSE_SEED environment variable
overrides any configured seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import ingestion
from .cwcomplex import Cell, MorseFiltration, betti, loop_persistence, superlevel_complex
from .density import PointCloud, _kernel_constants
from .errors import (ConstructionError, DataError, InvalidComplexError,
                     InvalidInputError, MorseCellsError, NoMaximaError)
from .pipeline import PipelineConfig, run

DOCUMENT_VERSION = 1


class UsageError(MorseCellsError):
    pass


# ---------------------------------------------------------------------------
# Config files: flat "key = value" lines with dotted keys.

_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_bool(raw: str) -> bool:
    try:
        return _BOOLEANS[raw.lower()]
    except KeyError:
        raise ValueError(raw) from None


# field type string -> parser
_PARSERS = {"float": float, "int": int, "bool": _parse_bool}

# the nested params dataclasses of PipelineConfig, by field name
_SECTIONS = {f.name: f.default_factory for f in dataclasses.fields(PipelineConfig)
             if dataclasses.is_dataclass(f.default_factory)}

# every PipelineConfig field, nested ones as "section.field"
_CONFIG_KEYS = {
    **{f.name: _PARSERS[f.type] for f in dataclasses.fields(PipelineConfig)
       if f.name not in _SECTIONS},
    **{f"{name}.{f.name}": _PARSERS[f.type] for name, cls in _SECTIONS.items()
       for f in dataclasses.fields(cls)},
}


def parse_config_text(text: str) -> dict:
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise UsageError(f"config line {lineno}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_KEYS[key](raw)
        except ValueError:
            raise UsageError(
                f"config line {lineno}: bad value {raw!r} for key {key!r}"
            ) from None
    return values


def build_pipeline_config(values: dict) -> PipelineConfig:
    kwargs: dict = {name: {} for name in _SECTIONS}
    for key, value in values.items():
        if "." in key:
            section, name = key.split(".", 1)
            kwargs[section][name] = value
        else:
            kwargs[key] = value
    seed_env = os.environ.get("MORSE_SEED")
    if seed_env is not None:
        try:
            kwargs["seed"] = int(seed_env)
        except ValueError:
            raise UsageError(f"MORSE_SEED must be an integer, got {seed_env!r}") from None
    try:
        for name, cls in _SECTIONS.items():
            kwargs[name] = cls(**kwargs[name])
        return PipelineConfig(**kwargs)
    except InvalidInputError as exc:
        raise UsageError(str(exc)) from None


# ---------------------------------------------------------------------------
# Filtration documents

def filtration_to_document(filtration: MorseFiltration, config: PipelineConfig) -> dict:
    return {
        "version": DOCUMENT_VERSION,
        "config": dataclasses.asdict(config),
        "cells": [
            {
                "id": c.id,
                "dim": c.dimension,
                "density": c.density,
                "boundary": list(c.boundary),
                "geometry": c.geometry.tolist(),
            }
            for c in filtration.cells
        ],
    }


def document_to_filtration(doc: dict) -> MorseFiltration:
    try:
        if doc["version"] != DOCUMENT_VERSION:
            raise DataError(f"unsupported filtration document version {doc['version']!r}")
        cells = [
            Cell(id=c["id"], dimension=c["dim"], density=c["density"],
                 boundary=tuple(c["boundary"]), geometry=np.array(c["geometry"]))
            for c in doc["cells"]
        ]
        widths = {c.geometry.shape[1] if c.geometry.ndim == 2 else None for c in cells}
        if None in widths or len(widths) > 1:
            raise DataError("cell geometry must be (m, n) rows of one common width n")
        return MorseFiltration.build(cells)
    except (KeyError, TypeError, ValueError, OverflowError, InvalidComplexError,
            InvalidInputError) as exc:
        raise DataError(f"malformed filtration document: {exc}") from None


def load_document(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: not a valid filtration document ({exc})") from None


# ---------------------------------------------------------------------------
# Commands

def cmd_analyze(args) -> int:
    cloud = ingestion.read_point_cloud(args.input)
    values: dict = {}
    if args.config:
        with open(args.config) as fh:
            values = parse_config_text(fh.read())
    if args.seed is not None:
        values["seed"] = args.seed
    if args.sigma is not None:
        values["sigma"] = args.sigma
    config = build_pipeline_config(values)
    try:
        _kernel_constants(config.sigma, cloud.dimension)
    except InvalidInputError as exc:
        raise UsageError(str(exc)) from None

    filtration, report = run(cloud, config)
    doc = filtration_to_document(filtration, config)
    with open(args.output, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")

    print(f"cells: {len(filtration.cells)} "
          f"({report.counts.get('zero_cells', 0)} zero, "
          f"{report.counts.get('one_cells', 0)} one, "
          f"{report.counts.get('two_cells', 0)} two)")
    print("cell densities:")
    for cell in filtration.cells:
        print(f"  id={cell.id} dim={cell.dimension} density={cell.density:.6g}")
    thresholds = sorted({c.density for c in filtration.cells}, reverse=True)
    print("threshold intervals where the model changes:")
    edges = [float("inf")] + thresholds
    for hi, lo in zip(edges, thresholds):
        label = f"({lo:.6g}, {hi:.6g}]" if hi != float("inf") else f"(>= {lo:.6g})"
        cells_at = [c.id for c in superlevel_complex(filtration, lo)]
        print(f"  a in {label}: {len(cells_at)} cells")
    for note in report.notes:
        print(f"note: {note}")
    return 0


def cmd_betti(args) -> int:
    if math.isnan(args.threshold):
        raise UsageError("threshold must be a number, not nan")
    filtration = document_to_filtration(load_document(args.document))
    cells = superlevel_complex(filtration, args.threshold)
    b0, b1 = betti(cells)
    print(f"b0={b0} b1={b1}")
    return 0


def cmd_persistence(args) -> int:
    filtration = document_to_filtration(load_document(args.document))
    intervals = loop_persistence(filtration)
    if not intervals:
        print("no loops")
    for birth, death, lifespan in intervals:
        print(f"birth={birth:.6g} death={death:.6g} lifespan={lifespan:.6g}")
    return 0


def _pca_projector(points: np.ndarray) -> np.ndarray:
    centered = points - points.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return vt[:2]


def cmd_project(args) -> int:
    if args.basis == "pca":
        indices = None
    else:
        try:
            i, j = (int(x) for x in args.basis.split(","))
        except ValueError:
            raise UsageError("basis must be 'pca' or 'i,j' coordinate indices") from None
        indices = (i, j)

    if args.input.endswith(".json"):
        doc = load_document(args.input)
        filtration = document_to_filtration(doc)
        if not filtration.cells:
            raise DataError("document has no cells to project")
        all_pts = np.vstack([c.geometry for c in filtration.cells])
        proj = _make_projection(all_pts, indices)
        with open(args.output, "w") as fh:
            for cell in filtration.cells:
                for row in cell.geometry @ proj.T:
                    fh.write(f"{cell.dimension},{cell.id},"
                             + ",".join(ingestion.FLOAT_FMT % x for x in row) + "\n")
    else:
        cloud = ingestion.read_point_cloud(args.input)
        pts = cloud.points
        proj = _make_projection(pts, indices)
        coords = pts @ proj.T
        ingestion.write_point_cloud(PointCloud(coords), args.output)
    return 0


def _make_projection(points: np.ndarray, indices: tuple[int, int] | None) -> np.ndarray:
    n = points.shape[1]
    if n < 2:
        raise DataError("projection needs dimension >= 2")
    if indices is None:
        if len(points) < 2:
            raise DataError("PCA projection needs at least 2 points")
        return _pca_projector(points)
    i, j = indices
    if not (0 <= i < n and 0 <= j < n):
        raise UsageError(f"coordinate indices ({i}, {j}) out of range for dimension {n}")
    proj = np.zeros((2, n))
    proj[0, i] = 1.0
    proj[1, j] = 1.0
    return proj


def cmd_synth(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.kind == "gaussian_mixture":
        centers = _parse_centers(args.centers)
        cloud = ingestion.synth_gaussian_mixture(
            centers, args.scale, None, args.count, rng)
    elif args.kind == "noisy_circle":
        cloud = ingestion.synth_noisy_circle(args.radius, args.noise, args.count, rng)
    else:  # bumpy_circle, the last of the parser's choices
        cloud = ingestion.synth_bumpy_circle(
            args.bumps, args.radius, args.count, rng,
            angular_spread=args.angular_spread, radial_noise=args.noise)
    ingestion.write_point_cloud(cloud, args.output)
    return 0


def _parse_centers(spec: str) -> np.ndarray:
    try:
        return np.array([[float(x) for x in c.split(",")]
                         for c in spec.split(";")])
    except ValueError:
        raise UsageError("centers must look like 'x1,y1;x2,y2;...'") from None


def cmd_embed_graph(args) -> int:
    graph = ingestion.read_graph(args.input)
    distances = ingestion.shortest_path_distances(graph)
    result = ingestion.mds_embed(distances, args.dim)
    ingestion.write_point_cloud(result.cloud, args.output)
    print(f"stress={result.stress:.6g} iterations={len(result.stress_history) - 1}")
    return 0


def cmd_preprocess_patches(args) -> int:
    rng = np.random.default_rng(args.seed)
    config = ingestion.PatchConfig(side=args.side, modality=args.modality,
                                   contrast_quantile=args.quantile,
                                   sample_size=args.samples)
    if args.modality == "flow":
        rasters = [
            (ingestion.read_point_cloud(p + ".u").points,
             ingestion.read_point_cloud(p + ".v").points)
            for p in args.rasters
        ]
    else:
        rasters = [ingestion.read_point_cloud(p).points for p in args.rasters]
    cloud = ingestion.preprocess_patches(rasters, config, rng)
    ingestion.write_point_cloud(cloud, args.output)
    return 0


def cmd_sliding_window(args) -> int:
    # one row per variable, columns as time points
    series = ingestion.read_point_cloud(args.input).points
    cloud = ingestion.sliding_window(series, args.window)
    ingestion.write_point_cloud(cloud, args.output)
    return 0


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        raise UsageError(message)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="morsecells",
                     description="Cell-complex models of dense regions in point clouds")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the full pipeline on a point-cloud CSV")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--config")
    p.add_argument("--sigma", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int,
                   help="accepted for interface uniformity; runs are single-threaded")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("betti", help="Betti numbers of a superlevel model")
    p.add_argument("document")
    p.add_argument("threshold", type=float)
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("persistence", help="loop persistence intervals")
    p.add_argument("document")
    p.set_defaults(func=cmd_persistence)

    p = sub.add_parser("project", help="2-D projection of a cloud or document")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--basis", default="pca", help="'pca' or 'i,j' coordinates")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("synth", help="generate a synthetic point cloud")
    p.add_argument("kind", choices=["gaussian_mixture", "noisy_circle", "bumpy_circle"])
    p.add_argument("output")
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--centers", default="0,0", help="gaussian_mixture centers 'x,y;x,y'")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--bumps", type=int, default=3)
    p.add_argument("--angular-spread", type=float, default=0.45)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("embed-graph", help="stress-majorization embedding of a graph")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--dim", type=int, default=5)
    p.set_defaults(func=cmd_embed_graph)

    p = sub.add_parser("preprocess-patches", help="patch statistics preprocessing")
    p.add_argument("output")
    p.add_argument("rasters", nargs="+")
    p.add_argument("--side", type=int, default=3)
    p.add_argument("--modality", choices=["optical", "range", "flow"], default="optical")
    p.add_argument("--quantile", type=float, default=0.2)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_preprocess_patches)

    p = sub.add_parser("sliding-window", help="delay embedding of a time-series CSV")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--window", type=int, default=5)
    p.set_defaults(func=cmd_sliding_window)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError, DataError, InvalidInputError,
            ConstructionError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NoMaximaError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
