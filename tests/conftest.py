"""Shared analytic fields and oracles for the test suite."""

import numpy as np
import pytest

from morsecells.density import DensityField


class FixedStepField(DensityField):
    """A field whose band step is its ``step`` wherever the density is."""

    step: float

    def step_below(self, top):
        return self.step


class ConstantField(FixedStepField):
    """f = const; zero gradient everywhere."""

    def __init__(self, dimension: int, level: float = 1.0, c: float = 1.0,
                 step: float = 0.1):
        self.dimension = dimension
        self.level = level
        self.c = c
        self.step = step

    def gradient_batch(self, ys):
        return np.zeros_like(np.asarray(ys, dtype=float))

    def value_batch(self, ys):
        return np.full(len(ys), self.level)


class LinearField(FixedStepField):
    """f = <w, y> + offset."""

    def __init__(self, w, offset: float = 0.0, c: float = 1.0, step: float = 0.1):
        self.w = np.asarray(w, dtype=float)
        self.dimension = self.w.shape[0]
        self.offset = offset
        self.c = c
        self.step = step

    def gradient_batch(self, ys):
        return np.tile(self.w, (len(ys), 1))

    def value_batch(self, ys):
        return np.asarray(ys) @ self.w + self.offset


class RadialBowlField(FixedStepField):
    """f = -||y||^2; single maximum at the origin."""

    def __init__(self, dimension: int, c: float = 1.0, step: float = 0.1):
        self.dimension = dimension
        self.c = c
        self.step = step

    def gradient_batch(self, ys):
        return -2.0 * np.asarray(ys, dtype=float)

    def value_batch(self, ys):
        ys = np.asarray(ys, dtype=float)
        return -np.einsum("ij,ij->i", ys, ys)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def grid_search_mode(field, center, half_width, resolution=1e-3, coarse=60):
    """Locate a local maximum of field.value near center by refining grids.

    Independent oracle: no gradients, only evaluations on successively finer
    grids down to the requested resolution.
    """
    center = np.asarray(center, dtype=float)
    n = center.shape[0]
    width = half_width
    best = center
    while True:
        axes = [np.linspace(best[d] - width, best[d] + width, coarse)
                for d in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        vals = field.value_batch(pts)
        best = pts[int(np.argmax(vals))]
        step = 2 * width / (coarse - 1)
        if step <= resolution:
            return best
        width = 2 * step
