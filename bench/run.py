#!/usr/bin/env python3
"""Benchmark of the morsecells pipeline and its ``analyze`` command.

Run from the repository root:

    python3 bench/run.py --workload bumpy_circle --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (setup_s, analyze_s, peak_rss_mb);
``--trace 1`` runs one untraced and one traced round and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Results and span traces are also
written under ``.bench_out/``.  The program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
# Set-up probes per run, half before the timed rounds and half after, so
# that the median samples more than one moment of the host's load.
SETUP_REPEATS = 6
SWEEP_POINTS = 10
# 0-cells must lie this close to a mode of the oracle's grid KDE.  Mean-shift
# stops on a step below 1e-4 and the oracle refines to 1e-4; the distances
# seen on all three workloads are at most 1.8e-4.
MODE_TOLERANCE = 2e-3
# Off-plane residual of the R^8 0-cells: rounding only.
PLANE_TOLERANCE = 1e-12
EXPECTED_COUNTS = {"bumpy_circle": (3, 3, 1), "sphere_circle_r8": (3, 3, 1),
                   "mixture_cli": (2, 1, 0)}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(EXPECTED_COUNTS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="make the inputs and exit; the set-up probe runs this")
    return p.parse_args(argv)


def import_program():
    """Put the checkout's src/ first on the path; refuse to run without it."""
    if not os.path.isfile(os.path.join(SRC, "morsecells", "__init__.py")):
        sys.exit(f"bench: no morsecells sources under {SRC}")
    sys.path.insert(0, SRC)
    import morsecells
    if not os.path.abspath(morsecells.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported morsecells from {morsecells.__file__}, not {SRC}")


def probe_setup(args) -> tuple[float, float]:
    """(corrected, wall) seconds of a fresh process that imports, makes the
    inputs and exits."""
    import hostspeed
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    return hostspeed.corrected(lambda: subprocess.run(cmd, check=True, cwd=ROOT))


# ---------------------------------------------------------------------------
# Rounds: each attempts the same operations, whatever happens

class Round:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.seconds: dict[str, float] = {}
        self.cells = self.betti_at = self.intervals = None
        self.output = b""  # exact bytes of the round's result, compared across rounds

    def op(self, label, fn, *args):
        """Call one program operation; count it; return None when it fails."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failing operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None


class PipelineRunner:
    """bumpy_circle and sphere_circle_r8: ``pipeline.run`` on the cloud, then
    Betti numbers at the sweep thresholds and loop persistence."""

    def __init__(self, workload, workdir, clock):
        from morsecells import cwcomplex, pipeline
        self.wl, self.clock = workload, clock
        self.cwcomplex, self.pipeline = cwcomplex, pipeline

    def round(self, phase) -> Round:
        import oracle
        r = Round()
        with phase("bench.analyze"), self.clock.measure(r.seconds, "analyze"):
            out = r.op("run", self.pipeline.run, self.wl.cloud, self.wl.config)
        if out is None:
            r.attempted += SWEEP_POINTS + 1
            r.failed += SWEEP_POINTS + 1
            return r
        filtration, _ = out
        r.cells = [{"id": c.id, "dim": c.dimension, "density": c.density,
                    "boundary": list(c.boundary), "geometry": c.geometry}
                   for c in filtration.cells]
        r.output = json.dumps([{**c, "geometry": c["geometry"].tolist()} for c in r.cells],
                              sort_keys=True).encode()
        cw = self.cwcomplex
        with phase("bench.query"):
            r.betti_at = {a: r.op("betti", lambda a=a: cw.betti(cw.superlevel_complex(filtration, a)))
                          for a in oracle.sweep_thresholds([c["density"] for c in r.cells],
                                                           SWEEP_POINTS)}
            r.intervals = r.op("persistence", cw.loop_persistence, filtration)
        return r


class CliRunner:
    """mixture_cli: ``morsecells analyze`` at --threads 2 and 1 on the CSV,
    then ``betti`` at the sweep thresholds and ``persistence`` on the document."""

    def __init__(self, workload, workdir, clock):
        from morsecells import cli
        self.wl, self.clock, self.cli, self.workdir = workload, clock, cli, workdir

    def _call(self, argv) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"morsecells {argv[0]} exited {code}")
        return buf.getvalue()

    def _analyze(self, threads: int) -> bytes:
        out = os.path.join(self.workdir, f"model-t{threads}.json")
        self._call(["analyze", self.wl.csv_path, out, "--config", self.wl.config_path,
                    "--threads", str(threads)])
        with open(out, "rb") as fh:
            return fh.read()

    def round(self, phase) -> Round:
        import oracle
        r = Round()
        with phase("bench.analyze"), self.clock.measure(r.seconds, "analyze"):
            r.document = r.op("analyze --threads 2", self._analyze, 2)
        with phase("bench.analyze_threads1"), \
                self.clock.measure(r.seconds, "analyze_threads1"):
            r.document_threads1 = r.op("analyze --threads 1", self._analyze, 1)
        if r.document is None:
            r.attempted += SWEEP_POINTS + 1
            r.failed += SWEEP_POINTS + 1
            return r
        r.output = r.document
        r.cells = json.loads(r.document)["cells"]
        doc = os.path.join(self.workdir, "model-t2.json")
        with phase("bench.query"), self.clock.measure(r.seconds, "query"):
            r.betti_at = {}
            for a in oracle.sweep_thresholds([c["density"] for c in r.cells], SWEEP_POINTS):
                text = r.op("betti", self._call, ["betti", doc, repr(a)])
                r.betti_at[a] = None if text is None else tuple(
                    int(part.split("=")[1]) for part in text.split())
            text = r.op("persistence", self._call, ["persistence", doc])
        if text is not None:
            r.intervals = [] if text.strip() == "no loops" else [
                tuple(float(part.split("=")[1]) for part in line.split())
                for line in text.strip().splitlines()]
        return r


RUNNERS = {"bumpy_circle": PipelineRunner, "sphere_circle_r8": PipelineRunner,
           "mixture_cli": CliRunner}


# ---------------------------------------------------------------------------
# Checks against the independent oracle

def check(workload, rounds: list[Round]) -> list[str]:
    import numpy as np
    import oracle

    problems = []
    sigma = workload.config.sigma
    grid = oracle.Grid(workload.planar_points(), sigma)
    problems += oracle.self_check(grid)
    n = workload.cloud.dimension
    scale = oracle.plane_scale(n, sigma)
    modes = grid.modes()
    for k, r in enumerate(rounds):
        tag = f"round {k}"
        if r.cells is None:
            problems.append(f"{tag}: no output to check")
            continue
        counts = tuple(sum(1 for c in r.cells if c["dim"] == d) for d in (0, 1, 2))
        if counts != EXPECTED_COUNTS[workload.name]:
            problems.append(f"{tag}: cell counts {counts}, "
                            f"expected {EXPECTED_COUNTS[workload.name]}")
        for c in r.cells:
            if c["dim"] != 0:
                continue
            pos = np.asarray(c["geometry"], dtype=float)[0]
            if workload.frame is not None:
                planar = workload.frame.T @ pos
                off = np.linalg.norm(pos - workload.frame @ planar)
                if off > PLANE_TOLERANCE:
                    problems.append(f"{tag}: 0-cell {c['id']} lies {off:.3g} off the data plane")
            else:
                planar = pos
            dist = np.linalg.norm(modes - planar, axis=1).min()
            if dist > MODE_TOLERANCE:
                problems.append(f"{tag}: 0-cell {c['id']} is {dist:.3g} from the nearest grid mode")
        betti_at = {a: b for a, b in r.betti_at.items() if b is not None}
        for a, b in sorted(betti_at.items()):
            try:
                expected = grid.betti(a * scale)
            except oracle.OracleError as exc:
                problems.append(f"{tag}: no oracle at {a:.6g}: {exc}")
                continue
            if tuple(b) != expected:
                problems.append(f"{tag}: betti at {a:.6g} is {tuple(b)}, grid says {expected}")
        problems += [f"{tag}: {p}" for p in oracle.filtration_problems(r.cells, betti_at)]
        problems += [f"{tag}: {p}" for p in persistence_problems(r.cells, r.intervals)]
        if workload.name == "mixture_cli" and r.document != r.document_threads1:
            problems.append(f"{tag}: documents differ between --threads 2 and --threads 1")
    for k, r in enumerate(rounds[1:], start=1):
        if r.output != rounds[0].output:
            problems.append(f"round {k}: output differs from round 0")
    return problems


def persistence_problems(cells, intervals) -> list[str]:
    import oracle
    if intervals is None:
        return ["no persistence output"]
    problems = []
    loops = oracle.loop_count(cells)
    if len(intervals) != loops:
        problems.append(f"{len(intervals)} persistence intervals for {loops} loops")
    # the CLI prints six significant digits
    deaths = [0.0] + [c["density"] for c in cells if c["dim"] == 2]
    for birth, death, life in intervals:
        if not (birth >= death >= 0.0) \
                or not any(abs(death - d) <= 1e-5 * birth for d in deaths) \
                or abs(life - (birth - death)) > 1e-5 * birth:
            problems.append(f"bad interval ({birth:.6g}, {death:.6g}, {life:.6g})")
    return problems


# ---------------------------------------------------------------------------
# Runs

def run_rounds(runner, seconds: float, phase) -> list[Round]:
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(runner.round(phase))
    return rounds


def plain_run(args, workdir) -> dict:
    import hostspeed
    import workloads
    from morsecells.density import KernelDensity
    setups = [probe_setup(args) for _ in range(SETUP_REPEATS // 2)]
    wl = workloads.Workload(args.workload, args.seed, workdir)
    clock = hostspeed.HostClock()
    KernelDensity.gradient_batch = clock.hook(KernelDensity.gradient_batch)
    try:
        rounds = run_rounds(RUNNERS[wl.name](wl, workdir, clock), args.seconds,
                            lambda name: contextlib.nullcontext())
    finally:
        KernelDensity.gradient_batch = KernelDensity.gradient_batch.__wrapped__
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups += [probe_setup(args) for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
    metrics = {
        "setup_s": (statistics.median(c for c, _ in setups), "s"),
        "analyze_s": (statistics.median(r.seconds["analyze"] for r in rounds), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return finish(args, wl, rounds, metrics, extra={
        "setup_samples_s": setups, "round_seconds": [r.seconds for r in rounds]})


def traced_run(args, workdir) -> dict:
    import hostspeed
    import tracing
    import workloads
    tracer = tracing.Tracer()
    tracer.install()
    with tracer.span("bench.setup"):
        wl = workloads.Workload(args.workload, args.seed, workdir)
    tracer.uninstall()
    runner = RUNNERS[wl.name](wl, workdir, hostspeed.HostClock())
    untraced = runner.round(lambda name: contextlib.nullcontext())
    tracer.install()
    try:
        traced = runner.round(tracer.span)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, wl, untraced, traced, workdir)
    result = finish(args, wl, [untraced, traced], metrics)
    write_out(f"trace-{args.workload}-seed{args.seed}.json", {
        "workload": args.workload, "seed": args.seed, "blas": blas_info(),
        "span_fields": ["id", "name", "start_s", "end_s", "parent", "thread", "info"],
        "spans": [list(s) for s in tracer.spans],
        "metrics": result["metrics"],
    })
    return result


def layer_metrics(tracer, wl, untraced: Round, traced: Round, workdir) -> dict:
    import threading
    import tracing
    tree = tracing.SpanTree(tracer.spans, threading.get_ident())
    top = {s[1]: s[0] for s in tracer.spans if s[4] is None and s[1].startswith("bench.")}
    analyze = tree.under(top["bench.analyze"])
    query = tree.under(top["bench.query"]) if "bench.query" in top else []
    setup = tree.under(top["bench.setup"])
    spans = tree.spans

    def dur(ids):
        return sum(tree.duration(i) for i in ids)

    def info(ids):
        return sum(spans[i][6] or 0 for i in ids)

    def div(a, b):
        return a / b if b else 0.0

    def child_kde(parents):
        parent_ids = set(parents)
        return [i for i in tree.named(analyze, "density.gradient_batch")
                if tree.parent[i] in parent_ids]

    grad = tree.named(analyze, "density.gradient_batch")
    values = tree.named(analyze, "density.value_batch")
    shifts = tree.named(analyze, "density.mean_shift")
    finds0 = tree.named(analyze, "maxima.find_zero_cells")
    ascents = tree.named(analyze, "maxima.ascend")
    finds1 = tree.named(analyze, "band.find_one_cells")
    evolves = tree.named(analyze, "band.evolve")
    relaxes = tree.named(analyze, "sheet.relax_sheet")
    band_kde, sheet_kde = child_kde(evolves), child_kde(relaxes)
    ascent_ids = set(ascents)
    runs = tree.named(analyze, "pipeline.run")
    report = spans[runs[0]][6] if runs else {"stage_seconds": {}, "counts": {}}
    stages = report["stage_seconds"]
    builds = tree.named(analyze, "cwcomplex.build")
    traced_s = traced.seconds["analyze_wall"]
    via_cli = wl.csv_path is not None
    doc_path = os.path.join(workdir, "model-t2.json")
    m = {
        "density.gradient_calls": (len(grad), "count"),
        "density.gradient_rows": (info(grad), "count"),
        "density.gradient_s": (dur(grad), "s"),
        "band.gradient_us_per_row": (1e6 * div(dur(band_kde), info(band_kde)), "us"),
        "sheet.gradient_us_per_row": (1e6 * div(dur(sheet_kde), info(sheet_kde)), "us"),
        "density.value_rows": (info(values), "count"),
        "density.value_s": (dur(values), "s"),
        "density.mean_shift_calls": (len(shifts), "count"),
        "density.mean_shift_s": (dur(shifts), "s"),
        "maxima.find_zero_cells_s": (dur(finds0), "s"),
        "maxima.ascents": (len(ascents), "count"),
        "maxima.ascents_converged": (info(ascents), "count"),
        "maxima.steps_per_ascent": (div(sum(1 for i in shifts if tree.parent[i] in ascent_ids),
                                        len(ascents)), "count"),
        "maxima.useful_ratio": (div(info(finds0), len(ascents)), "ratio"),
        "band.find_one_cells_s": (dur(finds1), "s"),
        "band.trials": (len(evolves), "count"),
        "band.trials_converged": (info(evolves), "count"),
        "band.useful_ratio": (div(info(finds1), len(evolves)), "ratio"),
        "band.steps": (len(band_kde), "count"),
        "band.steps_per_s": (div(len(band_kde), dur(evolves)), "1/s"),
        "band.self_s": (sum(tree.self_time(i) for i in evolves), "s"),
        "sheet.relax_s": (dur(relaxes), "s"),
        "sheet.relaxations": (len(relaxes), "count"),
        "sheet.converged": (info(relaxes), "count"),
        "sheet.steps": (len(sheet_kde), "count"),
        "sheet.steps_per_s": (div(len(sheet_kde), dur(relaxes)), "1/s"),
        "sheet.self_s": (sum(tree.self_time(i) for i in relaxes), "s"),
        "pipeline.zero_cells_s": (stages.get("zero_cells", 0.0), "s"),
        "pipeline.one_cells_s": (stages.get("one_cells", 0.0), "s"),
        "pipeline.two_cells_s": (stages.get("two_cells", 0.0), "s"),
        "pipeline.candidate_loops": (report["counts"].get("candidate_loops", 0), "count"),
        "pipeline.other_s": (traced_s - sum(stages.values()), "s"),
        "cwcomplex.build_s": (dur(builds), "s"),
        "cwcomplex.betti_sweep_s": (dur(tree.named(query, "cwcomplex.betti")), "s"),
        "cwcomplex.persistence_s": (dur(tree.named(query, "cwcomplex.loop_persistence")), "s"),
        "cwcomplex.cells": (info(builds), "count"),
        "cli.read_cloud_s": (dur(tree.named(analyze, "ingestion.read_point_cloud")), "s"),
        "cli.write_document_s": (dur(tree.named(analyze, "cli.filtration_to_document"))
                                 + dur(tree.named(analyze, "cli.json_dump")), "s"),
        "cli.document_bytes": (os.path.getsize(doc_path) if via_cli else 0, "bytes"),
        "cli.query_s": (traced.seconds.get("query_wall", 0.0), "s"),
        "cli.analyze_threads1_s": (traced.seconds.get("analyze_threads1_wall", 0.0), "s"),
        "ingestion.synth_s": (dur(tree.named(setup, "ingestion.synth_bumpy_circle"))
                              + dur(tree.named(setup, "ingestion.synth_gaussian_mixture")), "s"),
        "trace.analyze_s": (traced_s, "s"),
        "trace.overhead_s": (traced.seconds["analyze"] - untraced.seconds["analyze"], "s"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    for layer, seconds in tree.layer_self_seconds(analyze + query + setup).items():
        m[f"self.{layer}_s"] = (seconds, "s")
    return m


def finish(args, wl, rounds, metrics, extra=None) -> dict:
    problems = check(wl, rounds)
    for r in rounds:
        for err in r.errors:
            print(f"failed: {err}", file=sys.stderr)
    for p in problems:
        print(f"check: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    write_out(f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              {**result, "rounds": len(rounds), **(extra or {})})
    return result


def write_out(name: str, payload: dict):
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(payload, fh)


def blas_info() -> dict:
    """The BLAS numpy links and its thread count, read from the library."""
    import ctypes
    import glob

    import numpy as np
    info = {"numpy": np.__version__, "threads": None}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get is not None and config is not None:
                    get.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                    info.update(threads=get(), library=config().decode())
                    return info
    return info


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("MORSE_SEED", None)  # would override the configured seed
    import_program()
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        if args.setup_only:
            import workloads
            workloads.Workload(args.workload, args.seed, workdir)
            return 0
        result = (traced_run if args.trace else plain_run)(args, workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
