"""The benchmark's tracer wraps names of the package by attribute lookup, so a
renamed or moved function must fail here and not only in a traced bench run."""

import importlib.util
import pathlib

import numpy as np

from morsecells import KernelDensity, PointCloud

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_every_target():
    tracing = load_tracing()
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in tracing._TARGETS]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(vars(owner)[attr] is not raw for owner, attr, raw in originals)
        field = KernelDensity(PointCloud(np.zeros((3, 2))), 1.0)
        field.gradient_batch(np.ones((4, 2)))
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is raw for owner, attr, raw in originals)
    assert [(s[1], s[6]) for s in tracer.spans] == [("density.gradient_batch", 4)]
