"""The benchmark's three inputs and the configuration each is analyzed with.

Each cloud is the same set of points for every ``--seed``: the seed draws a
permutation of its rows.  A fresh sample per seed would change the amount of
solver work by up to a third between seeds (see README.md), which would hide
any regression smaller than that; a permutation keeps the work per run
steady while still changing the arithmetic order and the mean-shift seed
points, and so the trailing digits of the pipeline's output.

This module is imported by the set-up probe, so it imports only what the
program itself needs: numpy and morsecells.
"""

from __future__ import annotations

import os

import numpy as np

from morsecells import ingestion
from morsecells.band import NebParams
from morsecells.density import PointCloud
from morsecells.pipeline import PipelineConfig

# Criterion 06: 1000 points of a 3-bump circle of radius 2 in R^2.
CIRCLE_SEED = 3
# 500 points of a 3-bump unit circle, carried onto a great circle of S^7.
SPHERE_SEED = 3
SPHERE_FRAME_SEED = 8
SPHERE_DIM = 8
# Criterion 14: 200 points from unit Gaussians at (0, 0) and (5, 0).
MIXTURE_SEED = 14
MIXTURE_CONFIG = "sigma = 1.0\nseed = 14\nneb.trials_per_pair = 4\n"

NAMES = ("bumpy_circle", "sphere_circle_r8", "mixture_cli")


def sphere_frame() -> np.ndarray:
    """(8, 2) matrix with orthonormal columns spanning the data plane."""
    gauss = np.random.default_rng(SPHERE_FRAME_SEED).standard_normal((SPHERE_DIM, 2))
    frame, _ = np.linalg.qr(gauss)
    return frame


def _permuted(points: np.ndarray, seed: int) -> np.ndarray:
    return points[np.random.default_rng(seed).permutation(len(points))]


class Workload:
    """Inputs of one workload: the cloud, the config and, for the CLI, files."""

    def __init__(self, name: str, seed: int, workdir: str):
        if name not in NAMES:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
        self.name = name
        self.seed = seed
        self.frame = None
        self.csv_path = self.config_path = None
        if name == "bumpy_circle":
            base = ingestion.synth_bumpy_circle(
                3, 2.0, 1000, np.random.default_rng(CIRCLE_SEED), angular_spread=0.45)
            self.config = PipelineConfig(sigma=0.8, seed=CIRCLE_SEED,
                                         neb=NebParams(trials_per_pair=6))
            self.cloud = PointCloud(_permuted(base.points, seed))
        elif name == "sphere_circle_r8":
            base = ingestion.synth_bumpy_circle(
                3, 1.0, 500, np.random.default_rng(SPHERE_SEED), angular_spread=0.45)
            self.frame = sphere_frame()
            self.config = PipelineConfig(sigma=0.4, seed=SPHERE_SEED, sphere_mode=True,
                                         neb=NebParams(trials_per_pair=6))
            self.cloud = PointCloud(_permuted(base.points, seed) @ self.frame.T)
        else:
            base = ingestion.synth_gaussian_mixture(
                [[0.0, 0.0], [5.0, 0.0]], 1.0, [1.0, 1.0], 200,
                np.random.default_rng(MIXTURE_SEED))
            # mirrors MIXTURE_CONFIG, for the oracle; the CLI reads the file
            self.config = PipelineConfig(sigma=1.0, seed=MIXTURE_SEED,
                                         neb=NebParams(trials_per_pair=4))
            self.cloud = PointCloud(_permuted(base.points, seed))
            self.csv_path = os.path.join(workdir, "cloud.csv")
            self.config_path = os.path.join(workdir, "run.conf")
            ingestion.write_point_cloud(self.cloud, self.csv_path)
            with open(self.config_path, "w") as fh:
                fh.write(MIXTURE_CONFIG)

    def planar_points(self) -> np.ndarray:
        """The cloud in the coordinates of its data plane, for the grid oracle."""
        if self.frame is None:
            return self.cloud.points
        return self.cloud.points @ self.frame
