import json

import numpy as np
import pytest

from morsecells import (MorseFiltration, PipelineConfig, read_point_cloud,
                        synth_gaussian_mixture, write_point_cloud)
from morsecells.cli import (UsageError, build_pipeline_config,
                            document_to_filtration, filtration_to_document,
                            main, parse_config_text)


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
    sheet.rings = 6
    """
    values = parse_config_text(text)
    assert values == {"sigma": 0.8, "seed": 7, "sphere_mode": True,
                      "neb.trials_per_pair": 4, "sheet.rings": 6}
    config = build_pipeline_config(values)
    assert config.sigma == 0.8
    assert config.neb.trials_per_pair == 4
    assert config.neb.sphere_mode is True
    assert config.sheet.rings == 6


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


def test_analyze_rerun_byte_identical(tmp_path, two_blob_csv, fast_config):
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    for out in (out1, out2):
        assert run_cli("analyze", two_blob_csv, out, "--sigma", "1.0",
                       "--seed", "21", "--config", fast_config) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_analyze_byte_identical_across_thread_counts(tmp_path, two_blob_csv,
                                                     fast_config):
    outputs = []
    for threads in ("1", "2", "8"):
        out = str(tmp_path / f"t{threads}.json")
        assert run_cli("analyze", two_blob_csv, out, "--sigma", "1.0",
                       "--seed", "21", "--threads", threads,
                       "--config", fast_config) == 0
        outputs.append(open(out, "rb").read())
    assert outputs[0] == outputs[1] == outputs[2]


def test_analyze_config_file(tmp_path, two_blob_csv):
    cfg = tmp_path / "run.conf"
    cfg.write_text("sigma = 1.0\nseed = 21\nneb.trials_per_pair = 4\n")
    out = str(tmp_path / "o.json")
    assert run_cli("analyze", two_blob_csv, out, "--config", str(cfg)) == 0
    doc = json.load(open(out))
    assert doc["config"]["neb"]["trials_per_pair"] == 4


def test_analyze_missing_input_exit_2(tmp_path, capsys):
    assert run_cli("analyze", str(tmp_path / "absent.csv"),
                   str(tmp_path / "o.json")) == 2
    assert "data error" in capsys.readouterr().err


def test_analyze_nonconvergence_exit_3(tmp_path, two_blob_csv, capsys):
    cfg = tmp_path / "bad.conf"
    cfg.write_text("ascent.tolerance = 1e-300\nascent.max_iterations = 2\n")
    assert run_cli("analyze", two_blob_csv, str(tmp_path / "o.json"),
                   "--config", str(cfg)) == 3
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


def test_betti_ragged_geometry_exit_2(tmp_path, capsys):
    doc = edited_document(
        tmp_path, lambda d: d["cells"][0].update(geometry=[[0.0, 0.0], [1.0]]))
    assert run_cli("betti", doc, "0.1") == 2
    assert "data error" in capsys.readouterr().err


def test_betti_unknown_version_exit_2(tmp_path, capsys):
    doc = edited_document(tmp_path, lambda d: d.update(version=99))
    assert run_cli("betti", doc, "0.1") == 2
    assert "version" in capsys.readouterr().err


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


def test_embed_graph(tmp_path, capsys):
    g = tmp_path / "g.txt"
    g.write_text("4 4\n0 1\n1 2\n2 3\n3 0\n")
    out = str(tmp_path / "emb.csv")
    assert run_cli("embed-graph", str(g), out, "--dim", "2", "--seed", "0") == 0
    assert "stress=" in capsys.readouterr().out
    assert read_point_cloud(out).points.shape == (4, 2)


def test_embed_graph_disconnected_exit_2(tmp_path, capsys):
    g = tmp_path / "g.txt"
    g.write_text("4 2\n0 1\n2 3\n")
    assert run_cli("embed-graph", str(g), str(tmp_path / "o.csv")) == 2
    assert "component sizes" in capsys.readouterr().err


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
    assert open(out1, "rb").read() == open(out2, "rb").read()
