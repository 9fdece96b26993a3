"""Cell-complex models of the dense regions of a point cloud.

Density maxima become 0-cells, minimum-energy paths between them become
1-cells, relaxed web sheets become 2-cells, and the density-graded family of
models supports Betti numbers and loop persistence.
"""

from .band import (Band, NebParams, OneCell, band_density, band_distance, evolve,
                   find_one_cells, initial_band_general, initial_band_sphere,
                   smoothing_weight, tangent, total_force)
from .cwcomplex import (Cell, MorseFiltration, betti, loop_persistence,
                        superlevel_complex)
from .density import (DensityField, KernelDensity, PointCloud, gradient_constant)
from .ingestion import (MdsResult, PatchConfig, UnweightedGraph, dct_basis,
                        mds_embed, preprocess_patches, read_graph,
                        read_point_cloud, shortest_path_distances, sliding_window,
                        synth_bumpy_circle, synth_gaussian_mixture,
                        synth_noisy_circle, write_point_cloud)
from .maxima import ZeroCell, ascend, find_zero_cells, single_linkage
from .pipeline import PipelineConfig, RunReport, run
from .sheet import (WebSheet, initial_sheet, relax_sheet, sheet_density, sheet_force,
                    tangent_space)

__all__ = [
    "Band", "Cell", "DensityField", "KernelDensity", "MdsResult",
    "MorseFiltration", "NebParams", "OneCell", "PatchConfig", "PipelineConfig",
    "PointCloud", "RunReport", "UnweightedGraph", "WebSheet", "ZeroCell",
    "ascend", "band_density", "band_distance", "betti", "dct_basis", "evolve",
    "find_one_cells", "find_zero_cells", "gradient_constant",
    "initial_band_general", "initial_band_sphere", "initial_sheet",
    "loop_persistence", "mds_embed", "preprocess_patches", "read_graph",
    "read_point_cloud", "relax_sheet", "run", "sheet_density", "sheet_force",
    "shortest_path_distances", "single_linkage", "sliding_window",
    "smoothing_weight", "superlevel_complex", "synth_bumpy_circle",
    "synth_gaussian_mixture", "synth_noisy_circle", "tangent", "tangent_space",
    "total_force", "write_point_cloud",
]

__version__ = "0.1.0"
