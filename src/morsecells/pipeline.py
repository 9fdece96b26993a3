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
from .errors import ConstructionError, InvalidInputError
from .maxima import AscentParams, find_zero_cells
from .sheet import SheetParams, initial_sheet, relax_sheet, sheet_density


@dataclass(frozen=True)
class PipelineConfig:
    sigma: float = 1.0
    sphere_mode: bool = False
    seed: int = 0
    cluster_threshold: float = 0.3
    max_loop_length: int = 6
    ascent: AscentParams = dataclass_field(default_factory=AscentParams)
    neb: NebParams = dataclass_field(default_factory=NebParams)
    sheet: SheetParams = dataclass_field(default_factory=SheetParams)

    def __post_init__(self):
        _require_positive(sigma=self.sigma, cluster_threshold=self.cluster_threshold)
        if self.seed < 0 or self.max_loop_length < 1:
            raise InvalidInputError("need seed >= 0 and max_loop_length >= 1")
        if self.sphere_mode != self.neb.sphere_mode:
            object.__setattr__(self, "neb",
                               NebParams(**{**self.neb.__dict__,
                                            "sphere_mode": self.sphere_mode}))


@dataclass
class RunReport:
    counts: dict = dataclass_field(default_factory=dict)
    stage_seconds: dict = dataclass_field(default_factory=dict)
    cell_densities: dict = dataclass_field(default_factory=dict)
    change_thresholds: list = dataclass_field(default_factory=list)
    notes: list = dataclass_field(default_factory=list)


def _cycle_basis(n_vertices: int, edges: list[tuple[int, int]],
                 max_length: int) -> list[list[int]]:
    """Cycles of a BFS spanning-forest cycle basis of a multigraph.

    Each cycle is a list of edge indices; parallel edges are honored.  Cycles
    longer than max_length edges are dropped.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n_vertices)]
    for idx, (a, b) in enumerate(edges):
        adj[a].append((b, idx))
        adj[b].append((a, idx))

    parent_edge = [-1] * n_vertices
    parent_vertex = [-1] * n_vertices
    depth = [-1] * n_vertices
    tree_edges: set[int] = set()
    for root in range(n_vertices):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w, idx in adj[u]:
                if depth[w] < 0:
                    depth[w] = depth[u] + 1
                    parent_edge[w] = idx
                    parent_vertex[w] = u
                    tree_edges.add(idx)
                    queue.append(w)

    def path_to_root_edges(v: int) -> list[int]:
        path = []
        while parent_edge[v] >= 0:
            path.append(parent_edge[v])
            v = parent_vertex[v]
        return path

    cycles = []
    for idx, (a, b) in enumerate(edges):
        if idx in tree_edges:
            continue
        pa, pb = path_to_root_edges(a), path_to_root_edges(b)
        # strip the common tail up to the lowest common ancestor
        while pa and pb and pa[-1] == pb[-1]:
            pa.pop()
            pb.pop()
        cycle = [idx] + pa + list(reversed(pb))
        if len(cycle) <= max_length:
            cycles.append(cycle)
    return cycles


def _loop_polyline(cycle: list[int], one_cells: list[OneCell]) -> np.ndarray:
    """Closed polyline chaining the bands of a cycle, oriented consistently."""
    remaining = list(cycle)
    first = one_cells[remaining.pop(0)]
    points = [first.band.nodes]
    start, current = first.endpoint_indices
    while remaining:
        for pos, idx in enumerate(remaining):
            a, b = one_cells[idx].endpoint_indices
            if a == current or b == current:
                nodes = one_cells[idx].band.nodes
                if b == current:
                    nodes = nodes[::-1]
                    current = a
                else:
                    current = b
                points.append(nodes[1:])
                remaining.pop(pos)
                break
        else:
            raise ConstructionError("cycle edges do not chain into a loop")
    poly = np.vstack(points)
    # drop the closing duplicate of the start vertex
    if np.array_equal(poly[0], poly[-1]):
        poly = poly[:-1]
    return poly


def run(cloud: PointCloud, config: PipelineConfig) -> tuple[MorseFiltration, RunReport]:
    """Build the density-graded cell complex for a point cloud."""
    report = RunReport()
    rng_zero, rng_band = (np.random.default_rng(s)
                          for s in np.random.SeedSequence(config.seed).spawn(2))
    field = KernelDensity(cloud, config.sigma)

    t0 = time.perf_counter()
    zero_cells = find_zero_cells(field, config.ascent, config.cluster_threshold,
                                 rng_zero)
    report.stage_seconds["zero_cells"] = time.perf_counter() - t0
    report.counts["zero_cells"] = len(zero_cells)

    t0 = time.perf_counter()
    if len(zero_cells) >= 2:
        one_cells = find_one_cells(field, zero_cells, config.neb, rng_band)
    else:
        one_cells = []
        report.notes.append("fewer than two 0-cells; skipped the 1-cell stage")
    report.stage_seconds["one_cells"] = time.perf_counter() - t0
    report.counts["one_cells"] = len(one_cells)

    t0 = time.perf_counter()
    edge_list = [c.endpoint_indices for c in one_cells]
    cycles = _cycle_basis(len(zero_cells), edge_list, config.max_loop_length)
    report.counts["candidate_loops"] = len(cycles)

    two_cells = []
    for cycle in cycles:
        try:
            poly = _loop_polyline(cycle, one_cells)
            web = initial_sheet(poly, rings=config.sheet.rings,
                                nodes_per_ring=config.sheet.nodes_per_ring)
        except ConstructionError as exc:
            report.notes.append(f"loop {cycle}: {exc}")
            continue
        relaxed = relax_sheet(field, web, config.sheet)
        if relaxed is None:
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

    filtration = MorseFiltration.build(
        cells,
        metadata={"sigma": config.sigma, "seed": config.seed,
                  "sphere_mode": config.sphere_mode},
    )
    report.cell_densities = {c.id: c.density for c in filtration.cells}
    report.change_thresholds = sorted({c.density for c in filtration.cells},
                                      reverse=True)
    return filtration, report
