"""Spans around calls into morsecells' public functions, installed from outside.

Each wrapper is set on the name its caller looks up (``pipeline.find_one_cells``
for the pipeline, ``cli.run`` for the CLI, ``KernelDensity.gradient_batch`` for
every solver).  A span is (id, name, start, end, parent, thread, info), kept in
memory; ``info`` is a small count taken from the call (query rows, converged
or not, cells returned).  Spans opened in a pool thread with no open span of
their own are parented afterwards to the innermost main-thread span that
encloses them, since that span submitted the work.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time

from morsecells import band, cli, cwcomplex, density, ingestion, maxima, pipeline

LAYERS = ("density", "maxima", "band", "sheet", "pipeline", "cwcomplex", "cli", "ingestion")


def _rows(args, kwargs, result):
    return len(args[1])


def _converged(args, kwargs, result):
    return int(result is not None)


def _length(args, kwargs, result):
    return len(result)


def _report(args, kwargs, result):
    report = result[1]
    return {"stage_seconds": dict(report.stage_seconds), "counts": dict(report.counts)}


def _cells(args, kwargs, result):
    return len(result.cells)


# (owner, attribute, span name, info) for every call site the benchmark traces.
_TARGETS = [
    (density.KernelDensity, "value", "density.value", None),
    (density.KernelDensity, "gradient", "density.gradient", None),
    (density.KernelDensity, "value_batch", "density.value_batch", _rows),
    (density.KernelDensity, "gradient_batch", "density.gradient_batch", _rows),
    (density.KernelDensity, "mean_shift", "density.mean_shift", None),
    (pipeline, "find_zero_cells", "maxima.find_zero_cells", _length),
    (maxima, "ascend", "maxima.ascend", _converged),
    (maxima, "single_linkage", "maxima.single_linkage", None),
    (pipeline, "find_one_cells", "band.find_one_cells", _length),
    (band, "evolve", "band.evolve", _converged),
    (band, "initial_band_general", "band.initial_band_general", None),
    (band, "initial_band_sphere", "band.initial_band_sphere", None),
    (band, "band_density", "band.band_density", None),
    (band, "band_distance", "band.band_distance", None),
    (pipeline, "initial_sheet", "sheet.initial_sheet", None),
    (pipeline, "relax_sheet", "sheet.relax_sheet", _converged),
    (pipeline, "sheet_density", "sheet.sheet_density", None),
    (pipeline, "run", "pipeline.run", _report),
    (cli, "run", "pipeline.run", _report),
    (cwcomplex.MorseFiltration, "build", "cwcomplex.build", _cells),
    (cwcomplex, "superlevel_complex", "cwcomplex.superlevel_complex", None),
    (cli, "superlevel_complex", "cwcomplex.superlevel_complex", None),
    (cwcomplex, "betti", "cwcomplex.betti", None),
    (cli, "betti", "cwcomplex.betti", None),
    (cwcomplex, "loop_persistence", "cwcomplex.loop_persistence", _length),
    (cli, "loop_persistence", "cwcomplex.loop_persistence", _length),
    (cli, "main", "cli.main", None),
    (cli, "cmd_analyze", "cli.cmd_analyze", None),
    (cli, "cmd_betti", "cli.cmd_betti", None),
    (cli, "cmd_persistence", "cli.cmd_persistence", None),
    (cli, "build_pipeline_config", "cli.build_pipeline_config", None),
    (cli, "filtration_to_document", "cli.filtration_to_document", None),
    (cli, "document_to_filtration", "cli.document_to_filtration", None),
    (cli, "load_document", "cli.load_document", None),
    (ingestion, "read_point_cloud", "ingestion.read_point_cloud", None),
    (ingestion, "write_point_cloud", "ingestion.write_point_cloud", None),
    (ingestion, "synth_bumpy_circle", "ingestion.synth_bumpy_circle", None),
    (ingestion, "synth_gaussian_mixture", "ingestion.synth_gaussian_mixture", None),
]


class _JsonForCli:
    """Stands in for the ``json`` module inside ``cli`` so that the document
    write (``json.dump``) gets a span of its own."""

    def __init__(self, dump):
        self.dump = dump

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, info):
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, threading.get_ident(),
                              info(args, kwargs, result) if info else None))
        return traced

    def install(self):
        for owner, attr, name, info in _TARGETS:
            raw = vars(owner)[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = self._wrap(name, fn, info)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, staticmethod(wrapped) if isinstance(raw, staticmethod)
                    else wrapped)
        self._saved.append((cli, "json", cli.json))
        cli.json = _JsonForCli(self._wrap("cli.json_dump", json.dump, None))

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-side span around a phase, such as one timed operation."""
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, threading.get_ident(), None))


class SpanTree:
    """Spans indexed by id with parents resolved and self times computed."""

    def __init__(self, spans: list[tuple], main_thread: int):
        self.spans = {s[0]: s for s in spans}
        self.parent = {s[0]: s[4] for s in spans}
        # KDE calls never submit pool work, so they cannot enclose it
        enclosing = [s for s in spans
                     if s[5] == main_thread and not s[1].startswith("density.")]
        for s in spans:
            if s[4] is None and s[5] != main_thread:
                inside = [m for m in enclosing if m[2] <= s[2] and s[3] <= m[3]]
                if inside:
                    self.parent[s[0]] = max(inside, key=lambda m: m[2])[0]
        self.children: dict[int, list[int]] = {}
        for sid, pid in self.parent.items():
            if pid is not None:
                self.children.setdefault(pid, []).append(sid)

    def duration(self, sid: int) -> float:
        s = self.spans[sid]
        return s[3] - s[2]

    def self_time(self, sid: int) -> float:
        """Duration minus the part of the interval that child spans cover."""
        s = self.spans[sid]
        covered, reach = 0.0, s[2]
        for c in sorted((self.spans[c] for c in self.children.get(sid, ())),
                        key=lambda c: c[2]):
            lo, hi = max(c[2], reach), min(c[3], s[3])
            if hi > lo:
                covered += hi - lo
                reach = hi
        return (s[3] - s[2]) - covered

    def under(self, root: int) -> list[int]:
        """Ids of ``root`` and every span below it."""
        out, todo = [], [root]
        while todo:
            sid = todo.pop()
            out.append(sid)
            todo.extend(self.children.get(sid, ()))
        return out

    def named(self, ids, name: str) -> list[int]:
        return [i for i in ids if self.spans[i][1] == name]

    def layer_self_seconds(self, ids) -> dict:
        totals = dict.fromkeys(LAYERS, 0.0)
        for i in ids:
            layer = self.spans[i][1].split(".", 1)[0]
            if layer in totals:
                totals[layer] += self.self_time(i)
        return totals
