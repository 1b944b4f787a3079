import json

import numpy as np
import pytest

from cagewarp import meshio
from cagewarp.cli import main
from cagewarp.geometry import (
    TriMesh,
    make_box_mesh,
    make_template_cage,
    normalize_to_unit_box,
    sample_surface,
)
from cagewarp.mvc import MvcMatrix


@pytest.fixture
def source_target(tmp_path):
    src, _ = normalize_to_unit_box(make_box_mesh(4, scale=(0.5, 0.35, 0.25)))
    tgt, _ = normalize_to_unit_box(
        TriMesh(src.vertices @ np.diag([1.3, 1.0, 0.85]).T, src.faces)
    )
    sp = tmp_path / "source.obj"
    tp = tmp_path / "target.obj"
    meshio.save_mesh(src, sp)
    meshio.save_mesh(tgt, tp)
    return sp, tp


def load_report(out_dir):
    with open(out_dir / "report.json") as fh:
        return json.load(fh)


def load_manifest(out_dir):
    with open(out_dir / "manifest.json") as fh:
        return json.load(fh)


class TestMakeCage:
    def test_sphere42_vertex_count(self, source_target, tmp_path):
        sp, _ = source_target
        out = tmp_path / "o1"
        assert main(["make-cage", "--input", str(sp), "--kind", "sphere42",
                     "--out", str(out)]) == 0
        text = (out / "cage.obj").read_text()
        assert sum(1 for li in text.splitlines() if li.startswith("v ")) == 42
        assert load_manifest(out)["status"] == "completed"

    def test_sphere162_flag(self, source_target, tmp_path):
        sp, _ = source_target
        out = tmp_path / "o2"
        assert main(["make-cage", "--input", str(sp), "--kind", "sphere162",
                     "--out", str(out)]) == 0
        text = (out / "cage.obj").read_text()
        assert sum(1 for li in text.splitlines() if li.startswith("v ")) == 162

    def test_missing_input_usage_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["make-cage", "--out", str(tmp_path / "o3")])

    def test_bad_path_exit_code(self, tmp_path):
        assert main(["make-cage", "--input", str(tmp_path / "nope.obj"),
                     "--out", str(tmp_path / "o4")]) == 1


class TestComputeMvc:
    def test_tetra_centroid_csv(self, tetra, tmp_path):
        cage_path = tmp_path / "tetra.obj"
        meshio.save_mesh(tetra, cage_path)
        shape_path = tmp_path / "centroid.csv"
        shape_path.write_text("0,0,0\n")
        out = tmp_path / "mvc"
        assert main(["compute-mvc", "--cage", str(cage_path),
                     "--shape", str(shape_path), "--format", "both",
                     "--out", str(out)]) == 0
        row = np.loadtxt(out / "mvc.csv", delimiter=",")
        assert np.allclose(row, 0.25, atol=1e-12)
        m = MvcMatrix.load_binary(out / "mvc.bin")
        assert np.allclose(m.weights, 0.25, atol=1e-12)

    def test_vertex_indicator_row(self, tetra, tmp_path):
        cage_path = tmp_path / "tetra.obj"
        meshio.save_mesh(tetra, cage_path)
        shape_path = tmp_path / "q.csv"
        v = tetra.vertices[1]
        shape_path.write_text(f"{v[0]},{v[1]},{v[2]}\n")
        out = tmp_path / "mvc2"
        assert main(["compute-mvc", "--cage", str(cage_path),
                     "--shape", str(shape_path), "--format", "csv",
                     "--out", str(out)]) == 0
        row = np.loadtxt(out / "mvc.csv", delimiter=",")
        assert np.array_equal(row, [0.0, 1.0, 0.0, 0.0])

    def test_row_sums_near_one(self, tmp_path):
        cage = make_template_cage("sphere42", scale=(0.6, 0.6, 0.6))
        mesh, _ = normalize_to_unit_box(make_box_mesh(3, scale=(0.5, 0.4, 0.3)))
        cage_path = tmp_path / "cage.obj"
        shape_path = tmp_path / "shape.obj"
        meshio.save_mesh(cage, cage_path)
        meshio.save_mesh(mesh, shape_path)
        out = tmp_path / "mvc3"
        assert main(["compute-mvc", "--cage", str(cage_path),
                     "--shape", str(shape_path), "--format", "csv",
                     "--out", str(out)]) == 0
        rows = np.loadtxt(out / "mvc.csv", delimiter=",")
        assert np.abs(rows.sum(axis=1) - 1.0).max() < 1e-9
        rep = load_report(out)
        assert rep["metrics"]["max_row_sum_error"] < 1e-9

    def test_open_cage_fails(self, tetra, tmp_path):
        open_cage = TriMesh(tetra.vertices, tetra.faces[:3])
        cage_path = tmp_path / "open.obj"
        meshio.save_mesh(open_cage, cage_path)
        shape_path = tmp_path / "q.csv"
        shape_path.write_text("0,0,0\n")
        assert main(["compute-mvc", "--cage", str(cage_path),
                     "--shape", str(shape_path),
                     "--out", str(tmp_path / "mvc4")]) == 1


class TestDeform:
    def test_target_equals_source_fixed_point(self, source_target, tmp_path):
        sp, _ = source_target
        out = tmp_path / "d1"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iters": 60, "n_eval_samples": 1000,
                                   "plateau_window": 30}))
        assert main(["deform", "--source", str(sp), "--target", str(sp),
                     "--config", str(cfg), "--out", str(out)]) == 0
        rep = load_report(out)
        assert rep["metrics"]["final"]["cd_x100"] <= 1e-2
        for name in ("cage.obj", "deformed_cage.obj", "deformed.obj",
                     "cage_offsets.csv"):
            assert (out / name).exists()

    def test_reports_byte_identical_across_runs(self, source_target, tmp_path):
        sp, tp = source_target
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iters": 25, "n_eval_samples": 300}))
        blobs = []
        for run in ("r1", "r2"):
            out = tmp_path / run
            assert main(["deform", "--source", str(sp), "--target", str(tp),
                         "--config", str(cfg), "--seed", "3",
                         "--out", str(out)]) == 0
            payload = load_report(out)
            blobs.append(json.dumps(payload["metrics"], sort_keys=True))
        assert blobs[0] == blobs[1]

    def test_threads_do_not_change_trace(self, source_target, tmp_path):
        sp, tp = source_target
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iters": 20, "n_eval_samples": 200}))
        metrics = []
        for threads in ("1", "8"):
            out = tmp_path / f"t{threads}"
            assert main(["deform", "--source", str(sp), "--target", str(tp),
                         "--config", str(cfg), "--threads", threads,
                         "--out", str(out)]) == 0
            metrics.append(json.dumps(load_report(out)["metrics"],
                                      sort_keys=True))
        assert metrics[0] == metrics[1]


class TestFitTransferEval:
    def test_fit_cage_threshold_stop(self, tmp_path):
        shape = make_template_cage("sphere162", scale=(0.3, 0.22, 0.25))
        pts = sample_surface(shape, 120, seed=3)
        cage = make_template_cage("sphere42", scale=(0.35, 0.27, 0.3))
        cage_path = tmp_path / "cage.obj"
        meshio.save_mesh(cage, cage_path)
        src_path = tmp_path / "src.csv"
        meshio.save_points(pts, src_path)
        lm_path = tmp_path / "lm.csv"
        meshio.save_landmarks(
            np.stack([np.arange(80), np.arange(80)], axis=1), lm_path
        )
        out = tmp_path / "fit"
        assert main(["fit-cage", "--template", str(cage_path),
                     "--source-shape", str(src_path),
                     "--novel-shape", str(src_path),
                     "--landmarks", str(lm_path), "--out", str(out)]) == 0
        rep = load_report(out)
        assert rep["metrics"]["stop_reason"] == "threshold"
        fitted = meshio.load_mesh(out / "fitted_cage.obj")
        assert np.abs(fitted.vertices - cage.vertices).max() < 1e-6

    def test_transfer_zero_offsets(self, source_target, tmp_path):
        sp, _ = source_target
        cage = make_template_cage("sphere42", scale=(0.8, 0.8, 0.8))
        cage_path = tmp_path / "cage.obj"
        meshio.save_mesh(cage, cage_path)
        off_path = tmp_path / "off.csv"
        meshio.save_offsets(np.zeros((42, 3)), off_path)
        out = tmp_path / "tr"
        assert main(["transfer", "--cage", str(cage_path),
                     "--offsets", str(off_path), "--shape", str(sp),
                     "--out", str(out)]) == 0
        src = meshio.load_mesh(sp)
        moved = meshio.load_mesh(out / "deformed.obj")
        assert np.abs(moved.vertices - src.vertices).max() < 1e-7

    def test_eval_identical_meshes(self, source_target, tmp_path):
        sp, _ = source_target
        out = tmp_path / "ev"
        assert main(["eval", "--deformed", str(sp), "--target", str(sp),
                     "--source", str(sp), "--out", str(out)]) == 0
        rep = load_report(out)
        assert rep["metrics"]["cd_x100"] == 0.0
        assert abs(rep["metrics"]["dcotlap_x1000"]) < 1e-9


class TestGradcheckCommand:
    def test_single_op_report_schema(self, tmp_path):
        out = tmp_path / "gc"
        assert main(["gradcheck", "--op", "l2", "--n-configs", "3",
                     "--out", str(out)]) == 0
        rep = load_report(out)
        assert rep["metrics"]["pass"] is True
        check = rep["metrics"]["checks"][0]
        assert set(check) == {"op", "n_configs", "max_rel_err", "pass",
                              "rtol", "fd_step"}
        assert check["op"] == "l2" and check["n_configs"] == 3


class TestTrainToyCommand:
    def test_train_and_reload(self, tmp_path):
        out = tmp_path / "toy"
        assert main(["train-toy", "--epochs", "300", "--holdout", "4",
                     "--out", str(out)]) == 0
        rep = load_report(out)
        assert rep["metrics"]["eval"]["l2_ratio"] < 1.0
        from cagewarp.toy import OffsetPredictor

        pred = OffsetPredictor.from_json(out / "predictor.json")
        assert pred.cage is not None


    def test_epochs_below_one_rejected(self, tmp_path, capsys):
        out = tmp_path / "toy0"
        assert main(["train-toy", "--epochs", "0", "--out", str(out)]) == 1
        assert "step budget must be at least 1, got 0" in capsys.readouterr().err


class TestManifest:
    def test_records_hashes_and_outputs(self, source_target, tmp_path):
        sp, _ = source_target
        out = tmp_path / "m1"
        assert main(["make-cage", "--input", str(sp),
                     "--out", str(out)]) == 0
        man = load_manifest(out)
        assert man["command"] == "make-cage"
        assert man["status"] == "completed"
        assert len(man["inputs"]["input"]["sha256"]) == 64
        assert any(p.endswith("cage.obj") for p in man["outputs"])
        assert "config" in man and man["config"]["cage_scale"] == 1.05
