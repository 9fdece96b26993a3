"""End-to-end orchestration: point cloud + config -> graded cell complex.

Stages: kernel density estimate, mean-shift maxima (0-cells), elastic-band
paths (1-cells), candidate boundary loops from a cycle basis of the
1-skeleton, sheet relaxation (2-cells), and assembly into a clamped
filtration.  Fully deterministic for a fixed master seed.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .band import NebParams, OneCell, find_one_cells
from .cwcomplex import Cell, MorseFiltration
from .density import KernelDensity, PointCloud, _require_positive
from .errors import InvalidInputError
from .maxima import find_zero_cells
from .sheet import initial_sheet, relax_sheet, sheet_density

MAX_LOOP_LENGTH = 6  # longest cycle, in 1-cells, that gets a sheet


@dataclass(frozen=True)
class PipelineConfig:
    sigma: float = 1.0
    sphere_mode: bool = False
    seed: int = 0
    neb: NebParams = dataclass_field(default_factory=NebParams)

    def __post_init__(self):
        _require_positive(sigma=self.sigma)
        if self.seed < 0:
            raise InvalidInputError("seed must be >= 0")


@dataclass
class RunReport:
    counts: dict = dataclass_field(default_factory=dict)
    stage_seconds: dict = dataclass_field(default_factory=dict)
    notes: list = dataclass_field(default_factory=list)


def _cycle_basis(n_vertices: int, edges: list[tuple[int, int]],
                 max_length: int, counts: dict | None = None) -> list[list[int]]:
    """Cycles of a BFS spanning-forest cycle basis of a multigraph.

    Each cycle is a list of edge indices in walk order: a non-tree edge
    (a, b), then the forest path from a to b, so that ``cycle[:0:-1]`` walks
    from b back to a.  Parallel edges are honored.  Cycles longer than
    max_length edges are dropped and counted in ``counts["loops_dropped"]``.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n_vertices)]
    for idx, (a, b) in enumerate(edges):
        adj[a].append((b, idx))
        adj[b].append((a, idx))

    tree: list[tuple[int, int] | None] = [None] * n_vertices  # (parent, edge)
    for root in range(n_vertices):
        if tree[root] is not None:
            continue
        tree[root] = (-1, -1)
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w, idx in adj[u]:
                if tree[w] is None:
                    tree[w] = (u, idx)
                    queue.append(w)

    def path_to_root_edges(v: int) -> list[int]:
        path = []
        while tree[v][1] >= 0:
            v, idx = tree[v]
            path.append(idx)
        return path

    counts = {} if counts is None else counts
    counts["loops_dropped"] = 0
    cycles = []
    for idx, (a, b) in enumerate(edges):
        if idx in (tree[a][1], tree[b][1]):
            continue
        pa, pb = path_to_root_edges(a), path_to_root_edges(b)
        # strip the common tail up to the lowest common ancestor
        while pa and pb and pa[-1] == pb[-1]:
            pa.pop()
            pb.pop()
        cycle = [idx] + pa + list(reversed(pb))
        if len(cycle) <= max_length:
            cycles.append(cycle)
        else:
            counts["loops_dropped"] += 1
    return cycles


def _loop_polyline(cycle: list[int], one_cells: list[OneCell]) -> np.ndarray:
    """Closed polyline of a cycle from ``_cycle_basis``: the first band from a
    to b, then ``cycle[:0:-1]`` back to a, each band turned to start where the
    last one ended and cut before its own last node."""
    current = one_cells[cycle[0]].endpoint_indices[0]
    points = []
    for idx in cycle[:1] + cycle[:0:-1]:
        nodes = one_cells[idx].band.nodes
        a, b = one_cells[idx].endpoint_indices
        if a == current:
            current = b
        else:
            nodes, current = nodes[::-1], a
        points.append(nodes[:-1])
    return np.vstack(points)


def run(cloud: PointCloud, config: PipelineConfig) -> tuple[MorseFiltration, RunReport]:
    """Build the density-graded cell complex for a point cloud."""
    report = RunReport()
    rng_zero, rng_band = (np.random.default_rng(s)
                          for s in np.random.SeedSequence(config.seed).spawn(2))
    field = KernelDensity(cloud, config.sigma)

    t0 = time.perf_counter()
    zero_cells = find_zero_cells(field, rng_zero, counts=report.counts)
    report.stage_seconds["zero_cells"] = time.perf_counter() - t0
    report.counts["zero_cells"] = len(zero_cells)

    t0 = time.perf_counter()
    if len(zero_cells) >= 2:
        one_cells = find_one_cells(field, zero_cells, config.neb, rng_band,
                                   sphere_mode=config.sphere_mode, counts=report.counts)
    else:
        one_cells = []
        report.notes.append("fewer than two 0-cells; skipped the 1-cell stage")
    report.stage_seconds["one_cells"] = time.perf_counter() - t0
    report.counts["one_cells"] = len(one_cells)

    t0 = time.perf_counter()
    edge_list = [c.endpoint_indices for c in one_cells]
    cycles = _cycle_basis(len(zero_cells), edge_list, MAX_LOOP_LENGTH, report.counts)
    report.counts["candidate_loops"] = len(cycles)

    report.counts.update(sheet_steps=0, sheet_gradient_rows=0, sheet_failed=0,
                         sheet_final_force=0.0)
    two_cells = []
    for cycle in cycles:
        web = initial_sheet(_loop_polyline(cycle, one_cells))
        relaxed = relax_sheet(field, web, report.counts)
        if relaxed is None:
            report.counts["sheet_failed"] += 1
            report.notes.append(f"loop {cycle}: sheet relaxation did not converge")
            continue
        two_cells.append((cycle, relaxed, sheet_density(field, relaxed)))
    report.stage_seconds["two_cells"] = time.perf_counter() - t0
    report.counts["two_cells"] = len(two_cells)

    cells = []
    for i, z in enumerate(zero_cells):
        cells.append(Cell(id=i, dimension=0, density=z.density, boundary=(),
                          geometry=z.position[None, :]))
    base = len(zero_cells)
    for j, oc in enumerate(one_cells):
        cells.append(Cell(id=base + j, dimension=1, density=oc.density,
                          boundary=(oc.endpoint_indices[0], oc.endpoint_indices[1]),
                          geometry=oc.band.nodes))
    base2 = base + len(one_cells)
    for k, (cycle, web, density) in enumerate(two_cells):
        cells.append(Cell(id=base2 + k, dimension=2, density=density,
                          boundary=tuple(base + e for e in cycle),
                          geometry=web.positions))

    return MorseFiltration.build(cells), report
