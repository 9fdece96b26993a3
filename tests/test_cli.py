import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from morsecells import (Cell, MorseFiltration, NebParams, PipelineConfig, maxima,
                        read_point_cloud, synth_gaussian_mixture, write_point_cloud)
from morsecells.cli import (_CONFIG_KEYS, UsageError, build_pipeline_config,
                            document_to_filtration, filtration_to_document,
                            main, parse_config_text)
from morsecells.errors import DataError, MorseCellsError


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def two_blob_csv(tmp_path):
    cloud = synth_gaussian_mixture([[0.0, 0.0], [5.0, 0.0]], 1.0, [1.0, 1.0],
                                   200, np.random.default_rng(21))
    path = str(tmp_path / "cloud.csv")
    write_point_cloud(cloud, path)
    return path


@pytest.fixture()
def fast_config(tmp_path):
    path = tmp_path / "fast.conf"
    path.write_text("neb.trials_per_pair = 4\n")
    return str(path)


@pytest.fixture()
def analyzed_doc(tmp_path, two_blob_csv, fast_config):
    out = str(tmp_path / "out.json")
    code = run_cli("analyze", two_blob_csv, out, "--sigma", "1.0",
                   "--seed", "21", "--config", fast_config)
    assert code == 0
    return out


# ---------------------------------------------------------------------------
# config parsing

def test_parse_config_full():
    text = """
    sigma = 0.8        # bandwidth
    seed = 7
    sphere_mode = true
    neb.trials_per_pair = 4
    """
    values = parse_config_text(text)
    assert values == {"sigma": 0.8, "seed": 7, "sphere_mode": True,
                      "neb.trials_per_pair": 4}
    config = build_pipeline_config(values)
    assert config.sigma == 0.8
    assert config.seed == 7
    assert config.neb.trials_per_pair == 4
    assert config.sphere_mode is True


def test_parse_config_unknown_key():
    with pytest.raises(UsageError):
        parse_config_text("wavelength = 3\n")


def test_parse_config_bad_value():
    with pytest.raises(UsageError):
        parse_config_text("sigma = tiny\n")


def test_parse_config_missing_equals():
    with pytest.raises(UsageError):
        parse_config_text("sigma 0.8\n")


def test_morse_seed_env_overrides(monkeypatch):
    monkeypatch.setenv("MORSE_SEED", "99")
    config = build_pipeline_config({"seed": 3})
    assert config.seed == 99


def test_invalid_config_value_is_usage_error():
    with pytest.raises(UsageError):
        build_pipeline_config({"sigma": -1.0})


@pytest.mark.parametrize("raw, value", [
    ("1", True), ("true", True), ("Yes", True), ("TRUE", True),
    ("0", False), ("false", False), ("no", False), ("No", False),
])
def test_parse_config_boolean_spellings(raw, value):
    assert parse_config_text(f"sphere_mode = {raw}\n") == {"sphere_mode": value}


@pytest.mark.parametrize("raw", ["ture", "on", "off", "2", "-1", "y", ""])
def test_parse_config_bad_boolean_is_usage_error(raw):
    with pytest.raises(UsageError, match="sphere_mode"):
        parse_config_text(f"sphere_mode = {raw}\n")


def _flat_fields(config: PipelineConfig) -> dict:
    """Every config value under its config-file key."""
    flat = {}
    for name, value in asdict(config).items():
        if isinstance(value, dict):
            flat.update((f"{name}.{sub}", v) for sub, v in value.items())
        else:
            flat[name] = value
    return flat


def test_every_config_key_sets_its_field():
    defaults = _flat_fields(PipelineConfig())
    assert set(_CONFIG_KEYS) == set(defaults)
    for key, default in defaults.items():
        if isinstance(default, bool):
            value = not default
        elif isinstance(default, int):
            value = default + 1
        else:
            value = default * 2
        config = build_pipeline_config(parse_config_text(f"{key} = {value}\n"))
        assert _flat_fields(config) == {**defaults, key: value}, key


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_lists_every_config_key():
    # the "key = value" section of the README names each key and their count,
    # and its example is a valid config file
    text = README.read_text()
    example = text[text.index("`analyze` also accepts `--config FILE`"):]
    example = example.split("```")[1]
    assert build_pipeline_config(parse_config_text(example)) != PipelineConfig()
    section = text[text.index("The keys are the fields of"):
                   text.index("The CLI reads the keys")]
    keys = set()
    for line in section.split("\n- ")[1:]:
        prefix, names = "", line
        if line.startswith("`") and line.split("`")[1].endswith("."):
            prefix, names = line.split("`")[1], line.split(":", 1)[1]
        keys.update(prefix + name for name in names.split("`")[1::2])
    assert keys == set(_CONFIG_KEYS)
    assert f"{len(keys)} settable values" in " ".join(section.split())


def test_runtime_imports_numpy_only():
    # the package and its CLI must import without any test-only dependency
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, morsecells, morsecells.cli; "
            "print(sorted({'scipy', 'mpmath', 'hypothesis', 'pytest'}"
            " & {name.split('.')[0] for name in sys.modules}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_document_config_is_full_config():
    config = PipelineConfig(sigma=0.7, seed=4, sphere_mode=True,
                            neb=NebParams(trials_per_pair=3))
    filtration = MorseFiltration.build(
        [Cell(id=0, dimension=0, density=1.0, boundary=(), geometry=[[0.0, 1.0]])])
    doc = filtration_to_document(filtration, config)
    assert doc["config"] == asdict(config)
    assert json.loads(json.dumps(doc, sort_keys=True))["config"] == asdict(config)


# ---------------------------------------------------------------------------
# analyze

def test_analyze_writes_valid_document(analyzed_doc, capsys):
    with open(analyzed_doc) as fh:
        doc = json.load(fh)
    assert doc["version"] == 1
    assert doc["config"]["sigma"] == 1.0
    filtration = document_to_filtration(doc)
    dims = sorted(c.dimension for c in filtration.cells)
    assert dims.count(0) == 2  # two modes
    assert dims.count(1) >= 1


def test_analyze_reports_cells_and_thresholds(tmp_path, two_blob_csv,
                                              fast_config, capsys):
    out = str(tmp_path / "o.json")
    assert run_cli("analyze", two_blob_csv, out, "--sigma", "1.0",
                   "--seed", "21", "--config", fast_config) == 0
    text = capsys.readouterr().out
    assert "cells:" in text
    assert "density=" in text
    assert "threshold intervals" in text


def test_analyze_threshold_table_is_the_document_densities(tmp_path, two_blob_csv,
                                                           fast_config, capsys):
    out = tmp_path / "o.json"
    assert run_cli("analyze", two_blob_csv, str(out), "--sigma", "1.0",
                   "--seed", "21", "--config", fast_config) == 0
    table = capsys.readouterr().out.split("where the model changes:\n")[1]
    rows = [row for row in table.splitlines() if row.startswith("  a in ")]
    ends = [re.match(r"  a in \((?:>= )?([^,)]+)", row).group(1) for row in rows]
    densities = [c["density"] for c in json.loads(out.read_text())["cells"]]
    distinct = sorted(set(densities), reverse=True)
    assert ends == [f"{d:.6g}" for d in distinct]
    assert [int(row.split(": ")[1].split()[0]) for row in rows] == [
        sum(d >= lo for d in densities) for lo in distinct]


def test_analyze_rerun_byte_identical(tmp_path, two_blob_csv, fast_config):
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    for out in (out1, out2):
        assert run_cli("analyze", two_blob_csv, out, "--sigma", "1.0",
                       "--seed", "21", "--config", fast_config) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


def test_analyze_byte_identical_across_thread_counts(tmp_path, two_blob_csv,
                                                     fast_config):
    outputs = []
    for threads in ("1", "2", "8"):
        out = str(tmp_path / f"t{threads}.json")
        assert run_cli("analyze", two_blob_csv, out, "--sigma", "1.0",
                       "--seed", "21", "--threads", threads,
                       "--config", fast_config) == 0
        outputs.append(Path(out).read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_analyze_config_file(tmp_path, two_blob_csv):
    cfg = tmp_path / "run.conf"
    cfg.write_text("sigma = 1.0\nseed = 21\nneb.trials_per_pair = 4\n")
    out = str(tmp_path / "o.json")
    assert run_cli("analyze", two_blob_csv, out, "--config", str(cfg)) == 0
    doc = json.loads(Path(out).read_text())
    assert doc["config"]["neb"]["trials_per_pair"] == 4


def test_analyze_prints_the_run_notes(tmp_path, capsys):
    # one Gaussian has one 0-cell: the 1-cell stage is skipped, and said so
    cloud = tmp_path / "one.csv"
    write_point_cloud(synth_gaussian_mixture([[0.0, 0.0]], 1.0, None, 100,
                                             np.random.default_rng(5)), str(cloud))
    assert run_cli("analyze", str(cloud), str(tmp_path / "m.json"), "--sigma", "1.0") == 0
    out = capsys.readouterr().out
    assert "cells: 1 (1 zero, 0 one, 0 two)" in out
    assert "note: fewer than two 0-cells; skipped the 1-cell stage" in out


def test_analyze_missing_input_exit_2(tmp_path, capsys):
    assert run_cli("analyze", str(tmp_path / "absent.csv"),
                   str(tmp_path / "o.json")) == 2
    assert "data error" in capsys.readouterr().err


def test_analyze_cloud_too_spread_for_sigma_exit_2(tmp_path, capsys):
    # squared distances that overflow are a data error, not non-convergence
    cloud = tmp_path / "far.csv"
    cloud.write_text("0,0\n1e300,1e300\n")
    assert run_cli("analyze", str(cloud), str(tmp_path / "o.json"), "--sigma", "0.5") == 2
    assert "data error" in capsys.readouterr().err


def test_analyze_nonconvergence_exit_3(tmp_path, two_blob_csv, capsys, monkeypatch):
    monkeypatch.setattr(maxima, "MAX_ITERATIONS", 2)
    assert run_cli("analyze", two_blob_csv, str(tmp_path / "o.json")) == 3
    assert "non-convergence" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# betti / persistence

def make_document(tmp_path, cells):
    filt = MorseFiltration.build(cells)
    doc = filtration_to_document(filt, PipelineConfig())
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


def three_circle_doc(tmp_path):
    from test_cwcomplex import three_circle_complex
    return make_document(tmp_path, three_circle_complex())


def test_betti_three_circle_document(tmp_path, capsys):
    doc = three_circle_doc(tmp_path)
    assert run_cli("betti", doc, "0.5") == 0
    assert capsys.readouterr().out.strip() == "b0=1 b1=5"


def test_betti_empty_superlevel(tmp_path, capsys):
    doc = three_circle_doc(tmp_path)
    assert run_cli("betti", doc, "2.0") == 0
    assert capsys.readouterr().out.strip() == "b0=0 b1=0"


def test_betti_invalid_document_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("betti", str(bad), "0.5") == 2


def edited_document(tmp_path, edit):
    """Path of a two-vertex, one-edge document after edit(doc) changes it."""
    from test_cwcomplex import edge, vert
    filt = MorseFiltration.build([vert(0), vert(1), edge(2, 0, 1)])
    doc = filtration_to_document(filt, PipelineConfig())
    edit(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_betti_missing_face_exit_2(tmp_path, capsys):
    doc = edited_document(tmp_path,
                          lambda d: d["cells"][2].update(boundary=[0, 7]))
    assert run_cli("betti", doc, "0.1") == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("command", [("betti", "0.1"), ("persistence",)])
@pytest.mark.parametrize("boundary", [[0], [0, 1, 1]])
def test_one_cell_without_two_faces_exit_2(tmp_path, capsys, command, boundary):
    doc = edited_document(tmp_path,
                          lambda d: d["cells"][2].update(boundary=boundary))
    assert run_cli(command[0], doc, *command[1:]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("command", [("betti", "0.1"), ("persistence",)])
def test_face_not_glued_along_a_cycle_exit_2(tmp_path, capsys, command):
    # a 2-cell glued along the single edge 2 = (0, 1), whose endpoints are
    # each met once
    face = {"id": 3, "dim": 2, "density": 0.5, "boundary": [2],
            "geometry": [[0.0, 0.0]]}
    doc = edited_document(tmp_path, lambda d: d["cells"].append(face))
    assert run_cli(command[0], doc, *command[1:]) == 2
    assert "not a cycle" in capsys.readouterr().err


def test_betti_ragged_geometry_exit_2(tmp_path, capsys):
    doc = edited_document(
        tmp_path, lambda d: d["cells"][0].update(geometry=[[0.0, 0.0], [1.0]]))
    assert run_cli("betti", doc, "0.1") == 2
    assert "data error" in capsys.readouterr().err


def test_betti_unknown_version_exit_2(tmp_path, capsys):
    doc = edited_document(tmp_path, lambda d: d.update(version=99))
    assert run_cli("betti", doc, "0.1") == 2
    assert "version" in capsys.readouterr().err


@pytest.mark.parametrize("command", [("betti", "0.1"), ("persistence",)])
@pytest.mark.parametrize("density", [math.nan, math.inf, -math.inf])
def test_non_finite_density_exit_2(tmp_path, capsys, command, density):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_one_cell_document(density=density)))
    assert run_cli(command[0], str(path), *command[1:]) == 2
    assert "density must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", [("project", "--basis", "pca"),
                                     ("project", "--basis", "0,1"), ("betti", "0.1")])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_geometry_exit_2(tmp_path, capsys, command, value):
    # json.load reads NaN and Infinity, so the cell must refuse them
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_one_cell_document(geometry=[[value, 1.0], [0.0, 0.0]])))
    out = tmp_path / "out.csv"
    args = (str(path), str(out)) if command[0] == "project" else (str(path),)
    assert run_cli(command[0], *args, *command[1:]) == 2
    assert "geometry must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_betti_nan_threshold_exit_1(tmp_path, capsys):
    doc = three_circle_doc(tmp_path)
    assert run_cli("betti", doc, "nan") == 1
    assert "usage error" in capsys.readouterr().err


def test_persistence_output(tmp_path, capsys):
    from test_cwcomplex import edge, face, vert
    cells = [vert(0, 1.0), vert(1, 1.0),
             edge(2, 0, 1, 0.9), edge(3, 0, 1, 0.7),
             face(4, (2, 3), 0.3)]
    doc = make_document(tmp_path, cells)
    assert run_cli("persistence", doc) == 0
    out = capsys.readouterr().out
    assert "birth=0.7 death=0.3 lifespan=0.4" in out


def test_persistence_no_loops(tmp_path, capsys):
    from test_cwcomplex import vert
    doc = make_document(tmp_path, [vert(0, 1.0)])
    assert run_cli("persistence", doc) == 0
    assert "no loops" in capsys.readouterr().out


def test_document_with_removed_config_keys_still_loads(tmp_path, analyzed_doc, capsys):
    # documents written before the clustering and discard lengths, the sheet
    # step, the solver tolerances and the fixed discretisation left the config
    # still carry them in their config block
    doc = json.loads(Path(analyzed_doc).read_text())
    doc["config"].update(
        cluster_threshold=0.3, max_loop_length=6,
        ascent={"max_iterations": 10_000, "seed_count": None, "tolerance": 1e-4},
        sheet={"rings": 10, "nodes_per_ring": 20, "max_steps": 200_000,
               "step_size": 1.0, "tolerance": 1e-3})
    doc["config"]["neb"].update(cluster_threshold=0.3, discard_radius=0.5,
                                convergence_tolerance=1e-4, node_count=11,
                                alpha=math.pi / 6, beta=math.pi / 2, max_steps=200_000)
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc))
    for command in (("betti", "0.001"), ("persistence",)):
        assert run_cli(command[0], analyzed_doc, *command[1:]) == 0
        expected = capsys.readouterr().out
        assert run_cli(command[0], str(old), *command[1:]) == 0
        assert capsys.readouterr().out == expected


@pytest.mark.parametrize("config", ["x", ["ab"]])
def test_document_config_block_is_not_read(tmp_path, analyzed_doc, capsys, config):
    doc = json.loads(Path(analyzed_doc).read_text())
    del doc["config"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(doc))
    doc["config"] = config
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(doc))
    for command in (("betti", "0.001"), ("persistence",)):
        assert run_cli(command[0], analyzed_doc, *command[1:]) == 0
        expected = capsys.readouterr().out
        for path in (bare, edited):
            assert run_cli(command[0], str(path), *command[1:]) == 0
            assert capsys.readouterr().out == expected


# ---------------------------------------------------------------------------
# project

def test_project_coords_verbatim(tmp_path, rng):
    pts = rng.normal(size=(20, 4))
    src = str(tmp_path / "in.csv")
    dst = str(tmp_path / "out.csv")
    from morsecells import PointCloud
    write_point_cloud(PointCloud(pts), src)
    assert run_cli("project", src, dst, "--basis", "0,2") == 0
    out = read_point_cloud(dst).points
    assert np.array_equal(out, pts[:, [0, 2]])


def test_project_pca_isometry_for_plane_in_r5(tmp_path, rng):
    # points on a 2-plane in R^5: PCA projection preserves pairwise distances
    q, _ = np.linalg.qr(rng.normal(size=(5, 2)))
    coords = rng.normal(size=(30, 2))
    pts = coords @ q.T
    src = str(tmp_path / "in.csv")
    dst = str(tmp_path / "out.csv")
    from morsecells import PointCloud
    write_point_cloud(PointCloud(pts), src)
    assert run_cli("project", src, dst, "--basis", "pca") == 0
    out = read_point_cloud(dst).points
    orig = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    proj = np.linalg.norm(out[:, None] - out[None, :], axis=2)
    assert np.abs(orig - proj).max() < 1e-10


def test_project_document_rows(tmp_path, analyzed_doc):
    dst = tmp_path / "cells.csv"
    assert run_cli("project", analyzed_doc, str(dst), "--basis", "0,1") == 0
    lines = dst.read_text().strip().splitlines()
    assert lines
    for line in lines:
        fields = line.split(",")
        assert len(fields) == 4  # dim, id, x, y
        assert fields[0] in ("0", "1", "2")


def test_project_bad_basis_exit_1(tmp_path, two_blob_csv, capsys):
    assert run_cli("project", two_blob_csv, str(tmp_path / "o.csv"),
                   "--basis", "first,second") == 1
    assert "usage error" in capsys.readouterr().err


def test_project_out_of_range_index_exit_1(tmp_path, two_blob_csv):
    assert run_cli("project", two_blob_csv, str(tmp_path / "o.csv"),
                   "--basis", "0,9") == 1


# ---------------------------------------------------------------------------
# synth / embed-graph / sliding-window / preprocess-patches

def test_synth_bumpy_circle_roundtrip(tmp_path):
    out = str(tmp_path / "c.csv")
    assert run_cli("synth", "bumpy_circle", out, "--count", "50",
                   "--radius", "2.0", "--seed", "7") == 0
    pts = read_point_cloud(out).points
    assert pts.shape == (50, 2)
    assert np.linalg.norm(pts, axis=1) == pytest.approx(np.full(50, 2.0))


def test_synth_gaussian_mixture_centers(tmp_path):
    out = str(tmp_path / "c.csv")
    assert run_cli("synth", "gaussian_mixture", out, "--centers", "0,0;9,9",
                   "--count", "400", "--scale", "0.5", "--seed", "1") == 0
    pts = read_point_cloud(out).points
    assert pts.shape == (400, 2)
    assert pts[:, 0].min() < 2 and pts[:, 0].max() > 7


def test_synth_bad_centers_exit_1(tmp_path, capsys):
    assert run_cli("synth", "gaussian_mixture", str(tmp_path / "c.csv"),
                   "--centers", "zero;nine") == 1


@pytest.mark.parametrize("kind", ["noisy_circle", "gaussian_mixture", "bumpy_circle"])
def test_synth_negative_count_exit_2(tmp_path, capsys, kind):
    assert run_cli("synth", kind, str(tmp_path / "c.csv"), "--count", "-1") == 2
    assert "count >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("kind, flag", [("gaussian_mixture", "--scale"),
                                        ("bumpy_circle", "--noise"),
                                        ("noisy_circle", "--noise")])
def test_synth_negative_noise_exit_2(tmp_path, capsys, kind, flag):
    out = tmp_path / "c.csv"
    assert run_cli("synth", kind, str(out), flag, "-1") == 2
    assert ">= 0" in capsys.readouterr().err
    assert not out.exists()


def test_embed_graph(tmp_path, capsys):
    g = tmp_path / "g.txt"
    g.write_text("4 4\n0 1\n1 2\n2 3\n3 0\n")
    out = str(tmp_path / "emb.csv")
    assert run_cli("embed-graph", str(g), out, "--dim", "2") == 0
    assert "stress=" in capsys.readouterr().out
    assert read_point_cloud(out).points.shape == (4, 2)


def test_embed_graph_twice_gives_identical_bytes(tmp_path, capsys):
    g = tmp_path / "g.txt"
    g.write_text("6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
    outputs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for out in outputs:
        assert run_cli("embed-graph", str(g), str(out)) == 0
    assert outputs[0].read_bytes() == outputs[1].read_bytes()


def test_embed_graph_has_no_seed_flag(tmp_path, capsys):
    g = tmp_path / "g.txt"
    g.write_text("3 2\n0 1\n1 2\n")
    assert run_cli("embed-graph", str(g), str(tmp_path / "o.csv"), "--seed", "0") == 1
    assert "--seed" in capsys.readouterr().err


def test_embed_graph_disconnected_exit_2(tmp_path, capsys):
    g = tmp_path / "g.txt"
    g.write_text("4 2\n0 1\n2 3\n")
    assert run_cli("embed-graph", str(g), str(tmp_path / "o.csv")) == 2
    assert "component sizes" in capsys.readouterr().err


@pytest.mark.parametrize("header", ["0 0", "-2 0"])
def test_embed_graph_without_vertices_exit_2(tmp_path, capsys, header):
    g = tmp_path / "g.txt"
    g.write_text(header + "\n")
    assert run_cli("embed-graph", str(g), str(tmp_path / "o.csv")) == 2
    assert "at least one vertex" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [("", "empty graph file"),
                                           ("3 2\n0 1\n1 x\n", "edge line must be")])
def test_embed_graph_unreadable_file_exit_2(tmp_path, capsys, text, message):
    g = tmp_path / "g.txt"
    g.write_text(text)
    assert run_cli("embed-graph", str(g), str(tmp_path / "o.csv")) == 2
    assert message in capsys.readouterr().err


def test_sliding_window_cli(tmp_path):
    src = tmp_path / "s.csv"
    rows = [",".join(str(float(v + 10 * g)) for v in range(47)) for g in range(6)]
    src.write_text("\n".join(rows) + "\n")
    out = str(tmp_path / "w.csv")
    assert run_cli("sliding-window", str(src), out, "--window", "5") == 0
    assert read_point_cloud(out).points.shape == (43, 30)


def test_preprocess_patches_cli(tmp_path, rng):
    raster = np.exp(rng.normal(size=(20, 20)))
    src = tmp_path / "img.csv"
    src.write_text("\n".join(",".join("%.17g" % v for v in row)
                             for row in raster) + "\n")
    out = str(tmp_path / "pts.csv")
    assert run_cli("preprocess-patches", out, str(src), "--samples", "200",
                   "--seed", "0") == 0
    pts = read_point_cloud(out).points
    assert pts.shape[1] == 8
    assert np.linalg.norm(pts, axis=1) == pytest.approx(
        np.ones(len(pts)), abs=1e-10)


def test_preprocess_patches_flow_cli(tmp_path, rng):
    base = tmp_path / "flow"
    for suffix in (".u", ".v"):
        arr = rng.normal(size=(15, 15))
        (tmp_path / ("flow" + suffix)).write_text(
            "\n".join(",".join("%.17g" % v for v in row) for row in arr) + "\n")
    out = str(tmp_path / "pts.csv")
    assert run_cli("preprocess-patches", out, str(base), "--modality", "flow",
                   "--samples", "100", "--seed", "0") == 0
    assert read_point_cloud(out).points.shape[1] == 16


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_preprocess_patches_no_samples_exit_2(tmp_path, capsys, samples):
    src = tmp_path / "img.csv"
    src.write_text("1,2,3\n4,5,6\n7,8,9\n")
    assert run_cli("preprocess-patches", str(tmp_path / "pts.csv"), str(src),
                   "--samples", samples) == 2
    assert "sample_size must be >= 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit-code contract

def test_unknown_command_exit_1(capsys):
    assert run_cli("frobnicate") == 1


def test_missing_required_argument_exit_1(capsys):
    assert run_cli("betti") == 1


def test_analyze_unknown_config_key_exit_1(tmp_path, two_blob_csv, capsys):
    cfg = tmp_path / "bad.conf"
    cfg.write_text("wavelength = 3\n")
    assert run_cli("analyze", two_blob_csv, str(tmp_path / "o.json"),
                   "--config", str(cfg)) == 1


@pytest.mark.parametrize("line", ["neb.gradient_constant = 1.0",
                                  "sheet.gradient_constant = 1.0",
                                  "neb.step_size = 0.1",
                                  "sheet.step_size = nan",
                                  "neb.discard_radius = nan",
                                  "cluster_threshold = 0.3",
                                  "neb.cluster_threshold = 0.3",
                                  "neb.convergence_tolerance = nan",
                                  "ascent.tolerance = inf",
                                  "sheet.tolerance = nan",
                                  "threads = 2",
                                  "sheet.rings = 10",
                                  "ascent.max_iterations = 2",
                                  "max_loop_length = 6"])
def test_analyze_gradient_constant_key_is_unknown_exit_1(tmp_path, two_blob_csv,
                                                         capsys, line):
    # the force scale c, the band step, the clustering and discard length and
    # the ascent stop come from the density field, and the sheet step and the
    # band and sheet tolerances are constants: none of them is a config key.
    # Nor are the solver budgets, the seed count, the band and web sizes and
    # the loop cap, which are module constants.  Runs are single-threaded, so
    # threads is not one either (--threads is still accepted)
    cfg = tmp_path / "bad.conf"
    cfg.write_text(line + "\n")
    assert run_cli("analyze", two_blob_csv, str(tmp_path / "o.json"),
                   "--config", str(cfg)) == 1
    assert "unknown key" in capsys.readouterr().err


def test_morse_seed_env_changes_analyze(tmp_path, two_blob_csv, fast_config,
                                        monkeypatch):
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    assert run_cli("analyze", two_blob_csv, out1, "--sigma", "1.0",
                   "--seed", "21", "--config", fast_config) == 0
    monkeypatch.setenv("MORSE_SEED", "21")
    # env seed wins over the flag; with the same effective seed the
    # documents agree byte for byte
    assert run_cli("analyze", two_blob_csv, out2, "--sigma", "1.0",
                   "--seed", "555", "--config", fast_config) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


@pytest.mark.parametrize("line", [
    "sigma = inf",
    "sigma = nan",
    "neb.trials_per_pair = -1",
    "neb.trials_per_pair = 0",
    "seed = -1",
    "sphere_mode = ture",
    "sphere_mode = on",
    "sphere_mode = 2",
])
def test_analyze_invalid_number_in_config_exit_1(tmp_path, two_blob_csv, capsys, line):
    cfg = tmp_path / "bad.conf"
    cfg.write_text(line + "\n")
    assert run_cli("analyze", two_blob_csv, str(tmp_path / "o.json"),
                   "--config", str(cfg)) == 1
    assert "usage error" in capsys.readouterr().err


def test_analyze_bad_morse_seed_exit_1(tmp_path, two_blob_csv, capsys, monkeypatch):
    monkeypatch.setenv("MORSE_SEED", "abc")
    assert run_cli("analyze", two_blob_csv, str(tmp_path / "o.json")) == 1
    assert "MORSE_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("sigma", ["1e-200", "1e-160", "1e200"])
def test_analyze_sigma_out_of_kernel_range_exit_1(tmp_path, two_blob_csv, capsys,
                                                  sigma):
    # sigma^2 underflows to 0, 1 / sigma^2 overflows, or sigma^2 overflows
    assert run_cli("analyze", two_blob_csv, str(tmp_path / "o.json"),
                   "--sigma", sigma) == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("betti", "{dir}", "0.1"),
    ("betti", "{bad}", "0.1"),
    ("persistence", "{dir}"),
    ("persistence", "{bad}"),
    ("project", "{bad}", "{out}"),
    ("analyze", "{dir}", "{out}"),
    ("analyze", "{bad}", "{out}"),
    ("analyze", "{csv}", "{out}", "--config", "{dir}"),
])
def test_unreadable_file_exit_2(tmp_path, two_blob_csv, capsys, argv):
    # a directory where a file is expected, or a file that is not UTF-8 text
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe1,2\n")
    paths = {"dir": str(tmp_path), "bad": str(bad), "csv": two_blob_csv,
             "out": str(tmp_path / "o.out")}
    assert run_cli(*(arg.format(**paths) for arg in argv)) == 2
    assert "data error" in capsys.readouterr().err


def test_project_mixed_geometry_widths_exit_2(tmp_path, capsys):
    doc = edited_document(
        tmp_path, lambda d: d["cells"][0].update(geometry=[[0.0, 0.0, 0.0]]))
    assert run_cli("project", doc, str(tmp_path / "p.csv")) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("basis", ["pca", "0,1"])
@pytest.mark.parametrize("kind", ["cloud", "document"])
def test_project_one_dimensional_input_exit_2(tmp_path, capsys, kind, basis):
    # one dimension check for both inputs, before the index range check
    if kind == "cloud":
        from morsecells import PointCloud
        src = str(tmp_path / "line.csv")
        write_point_cloud(PointCloud(np.arange(5.0)[:, None]), src)
    else:
        def to_1d(doc):
            for cell in doc["cells"]:
                cell["geometry"] = [[0.0]] * len(cell["geometry"])
        src = edited_document(tmp_path, to_1d)
    assert run_cli("project", src, str(tmp_path / "p.csv"), "--basis", basis) == 2
    assert "projection needs dimension >= 2" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("basis", ["pca", "0,1"])
def test_project_document_without_cells_exit_2(tmp_path, capsys, basis):
    # betti and persistence accept this document; project has nothing to stack
    src = tmp_path / "empty.json"
    src.write_text(json.dumps({"version": 1, "cells": []}))
    assert run_cli("project", str(src), str(tmp_path / "p.csv"), "--basis", basis) == 2
    assert "document has no cells to project" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("kind", ["cloud", "document"])
def test_project_pca_of_one_point_exit_2(tmp_path, capsys, kind):
    # a thin SVD of one centered row has one direction, not two
    if kind == "cloud":
        from morsecells import PointCloud
        src = str(tmp_path / "point.csv")
        write_point_cloud(PointCloud(np.array([[1.0, 2.0, 3.0]])), src)
    else:
        src = edited_document(tmp_path, lambda d: d.update(cells=d["cells"][:1]))
    dst = tmp_path / "p.csv"
    assert run_cli("project", src, str(dst), "--basis", "pca") == 2
    assert "PCA projection needs at least 2 points" in capsys.readouterr().err
    assert not dst.exists()
    # a coordinate basis still projects the one point
    assert run_cli("project", src, str(dst), "--basis", "0,1") == 0
    (row,) = dst.read_text().strip().splitlines()
    assert len(row.split(",")) == (2 if kind == "cloud" else 4)


# ---------------------------------------------------------------------------
# fuzzing: malformed input raises the package's own errors, never another

_FUZZ_VALUES = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "0", "-0.0", "-1", "1e-320",
                     "1e308", "1e999", "10" * 40, "-" + "9" * 30, "true", ""]),
    st.integers().map(str),
    st.floats().map(repr),
    st.text(max_size=6),
)


@settings(deadline=None, max_examples=300)
@given(st.lists(st.tuples(st.sampled_from(sorted(_CONFIG_KEYS)), _FUZZ_VALUES),
                max_size=6))
def test_fuzz_config_raises_only_package_errors(lines):
    text = "\n".join(f"{key} = {value}" for key, value in lines)
    try:
        build_pipeline_config(parse_config_text(text))
    except MorseCellsError:
        pass


@settings(deadline=None, max_examples=100)
@given(st.text())
def test_fuzz_config_text_raises_only_package_errors(text):
    try:
        build_pipeline_config(parse_config_text(text))
    except MorseCellsError:
        pass


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
_FUZZ_CELL = st.fixed_dictionaries({
    "id": st.integers(-1, 4) | _JSON,
    "dim": st.integers(-1, 3) | _JSON,
    "density": st.floats() | _JSON,
    "boundary": st.lists(st.integers(-1, 4), max_size=3) | _JSON,
    "geometry": st.lists(st.lists(st.floats() | st.integers(), min_size=1, max_size=3),
                         max_size=3) | _JSON,
})
_FUZZ_DOCUMENT = _JSON | st.fixed_dictionaries(
    {"version": st.just(1) | _JSON, "cells": st.lists(_FUZZ_CELL, max_size=4) | _JSON},
    optional={"config": _JSON},
)


def _one_cell_document(**cell):
    return {"version": 1, "cells": [{"id": 0, "dim": 0, "density": 1.0,
                                     "boundary": [], "geometry": [[0.0, 0.0]], **cell}]}


@settings(deadline=None, max_examples=500)
@given(_FUZZ_DOCUMENT)
@example(_one_cell_document(dim=7))
@example(_one_cell_document(boundary=[0]))
@example(_one_cell_document(geometry=[[10**400, 0.0]]))
@example(_one_cell_document(geometry=5.0))
def test_fuzz_document_raises_only_data_error(doc):
    try:
        filtration = document_to_filtration(doc)
    except DataError:
        return
    assert isinstance(filtration, MorseFiltration)
