import json
import time

import numpy as np
import pytest

from cagewarp import cli, meshio, optim, runtime
from cagewarp.cli import main
from cagewarp.geometry import (
    TriMesh,
    make_box_mesh,
    make_template_cage,
    normalize_to_unit_box,
    sample_surface,
)
from cagewarp.mvc import MvcMatrix
from conftest import collapsed_face_box, finned_box


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

    def test_step_size_zero_rejected(self, source_target, tmp_path, capsys):
        sp, tp = source_target
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"step_size": 0, "max_iters": 2}))
        assert main(["deform", "--source", str(sp), "--target", str(tp),
                     "--config", str(cfg), "--out", str(tmp_path / "z")]) == 1
        assert ("step size must be positive and finite, got 0"
                in capsys.readouterr().err)

    def test_threads_do_not_change_trace(self, source_target, tmp_path):
        sp, tp = source_target
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iters": 20, "n_eval_samples": 200}))
        metrics = []
        for threads in ("1", "2", "8"):
            out = tmp_path / f"t{threads}"
            assert main(["deform", "--source", str(sp), "--target", str(tp),
                         "--config", str(cfg), "--threads", threads,
                         "--out", str(out)]) == 0
            metrics.append(json.dumps(load_report(out)["metrics"],
                                      sort_keys=True))
        assert metrics[0] == metrics[1] == metrics[2]


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

    def test_fit_cage_no_landmarks(self, tmp_path, capsys):
        cage_path = tmp_path / "cage.obj"
        meshio.save_mesh(make_template_cage("sphere42"), cage_path)
        src_path = tmp_path / "src.csv"
        meshio.save_points(sample_surface(make_template_cage("sphere162",
                                                             scale=0.5),
                                          20, seed=3), src_path)
        lm_path = tmp_path / "lm.csv"
        lm_path.write_text("")
        assert main(["fit-cage", "--template", str(cage_path),
                     "--source-shape", str(src_path),
                     "--novel-shape", str(src_path),
                     "--landmarks", str(lm_path),
                     "--out", str(tmp_path / "fit")]) == 1
        assert "no landmarks" in capsys.readouterr().err

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


class TestNonFiniteInputs:
    """A NaN or infinite input value fails before any output is written."""

    def _fails(self, argv, out, capsys, message):
        assert main(argv + ["--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_transfer_nan_offset(self, source_target, tmp_path, capsys):
        cage_path = tmp_path / "cage.obj"
        meshio.save_mesh(make_template_cage("sphere42", scale=0.8), cage_path)
        off_path = tmp_path / "off.csv"
        off_path.write_text("0,0,0\n" * 5 + "0.1,nan,0\n" + "0,0,0\n" * 36)
        self._fails(["transfer", "--cage", str(cage_path), "--offsets",
                     str(off_path), "--shape", str(source_target[0])],
                    tmp_path / "tr", capsys, "line 6: non-finite value")

    def test_compute_mvc_nan_vertex(self, tetra, tmp_path, capsys):
        cage_path = tmp_path / "tetra.obj"
        meshio.save_mesh(tetra, cage_path)
        shape_path = tmp_path / "shape.obj"
        shape_path.write_text("v 0 0 0\nv nan 0 1\n")
        self._fails(["compute-mvc", "--cage", str(cage_path),
                     "--shape", str(shape_path)],
                    tmp_path / "mvc", capsys,
                    "line 2: non-finite vertex coordinate")

    def test_make_cage_infinite_scale(self, source_target, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"cage_scale": Infinity}')
        self._fails(["make-cage", "--input", str(source_target[0]),
                     "--config", str(cfg)], tmp_path / "mc", capsys,
                    "cage scale must be positive and finite and its center "
                    "finite, got scale [inf, inf, inf]")


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

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_no_configuration_fails(self, tmp_path, capsys, n):
        out = tmp_path / "gc"
        assert main(["gradcheck", "--n-configs", n, "--out", str(out)]) == 1
        assert "no configuration" in capsys.readouterr().err
        assert not (out / "report.json").exists()


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


    def test_wall_time_includes_the_evaluation(self, tmp_path, monkeypatch):
        # the command's own timer, not the training loop's, sets wall_time_s
        def slow_eval(*args, **kwargs):
            time.sleep(0.2)
            return {}

        monkeypatch.setattr(cli, "eval_toy", slow_eval)
        out = tmp_path / "toy"
        assert main(["train-toy", "--epochs", "2", "--holdout", "1",
                     "--out", str(out)]) == 0
        assert load_report(out)["provenance"]["wall_time_s"] >= 0.2

    def test_epochs_below_one_rejected(self, tmp_path, capsys):
        out = tmp_path / "toy0"
        assert main(["train-toy", "--epochs", "0", "--out", str(out)]) == 1
        assert "step budget must be at least 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("holdout", ["0", "-2"])
    def test_empty_holdout_rejected_before_training(self, tmp_path, capsys,
                                                    monkeypatch, holdout):
        def no_training(*args, **kwargs):
            raise AssertionError("train-toy trained")

        monkeypatch.setattr(cli, "train_toy", no_training)
        out = tmp_path / "toy0"
        assert main(["train-toy", "--epochs", "2", "--holdout", holdout,
                     "--out", str(out)]) == 1
        assert (f"n_holdout must be at least 1, got {holdout}"
                in capsys.readouterr().err)


class TestNegativeSeed:
    def test_train_toy_rejects_it_before_training(self, tmp_path, capsys,
                                                  monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("train-toy trained")

        monkeypatch.setattr(cli, "train_toy", no_training)
        out = tmp_path / "toy"
        assert main(["train-toy", "--epochs", "2", "--seed", "-1",
                     "--out", str(out)]) == 1
        assert "seed must be at least 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_rejects_it_before_sampling(self, source_target, tmp_path,
                                             capsys, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("eval sampled")

        monkeypatch.setattr(cli, "eval_metrics", no_sampling)
        sp, tp = source_target
        out = tmp_path / "ev"
        assert main(["eval", "--deformed", str(tp), "--target", str(tp),
                     "--source", str(sp), "--seed", "-1",
                     "--out", str(out)]) == 1
        assert "seed must be at least 0, got -1" in capsys.readouterr().err
        assert not out.exists()


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


class TestFailedRun:
    """A command that raises exits 1, writes no report and marks its
    manifest failed; a config value of the wrong type fails first."""

    def _fails(self, argv, out, capsys, message):
        assert main(argv + ["--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("config, message", [
        ('{"align_mode": "chamfr"}', "unknown align_mode 'chamfr'"),
        ('{"max_iters": 0}', "step budget must be at least 1, got 0"),
        ('{"alpha_shape": -1.0}', "loss weights must be non-negative, got "
                                  "alpha_mvc=1.0, alpha_shape=-1.0"),
        ('{"shape_mode": "freeform"}', "unknown shape_mode 'freeform'"),
        ('{"align_mode": "l2", "n_sample_points": 64}',
         "l2 alignment needs dense correspondence"),
    ])
    def test_deform_error_marks_the_manifest_failed(
            self, source_target, tmp_path, capsys, config, message):
        sp, tp = source_target
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        out = tmp_path / "d"
        self._fails(["deform", "--source", str(sp), "--target", str(tp),
                     "--config", str(cfg)], out, capsys, message)
        man = load_manifest(out)
        assert man["status"] == "failed" and man["outputs"] == []
        assert message in man["error"] and "finished" in man

    @pytest.mark.parametrize("command, config, message", [
        ("deform", '{"alpha_mvc": Infinity}', "loss weights must be finite, "
         "got alpha_mvc=inf, alpha_shape=0.1"),
        ("deform", '{"alpha_shape": Infinity}', "loss weights must be "
         "finite, got alpha_mvc=1.0, alpha_shape=inf"),
        ("fit-cage", '{"clap_weight": Infinity}',
         "clap_weight must be finite, got inf"),
    ])
    def test_infinite_weight_fails_before_a_step(
            self, source_target, tmp_path, capsys, monkeypatch, command,
            config, message):
        # json reads Infinity; it used to fail at step 0, after the setup
        def no_step(*args, **kwargs):
            raise AssertionError(f"{command} took a step")

        monkeypatch.setattr(optim, "run_adam", no_step)
        sp, tp = source_target
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        if command == "deform":
            argv = ["deform", "--source", str(sp), "--target", str(tp)]
        else:
            lm = tmp_path / "lm.csv"
            meshio.save_landmarks(np.array([[0, 0], [1, 1]]), lm)
            argv = ["fit-cage", "--template", str(sp), "--source-shape",
                    str(sp), "--novel-shape", str(tp), "--landmarks", str(lm)]
        out = tmp_path / "d"
        self._fails(argv + ["--config", str(cfg)], out, capsys, message)
        man = load_manifest(out)
        assert man["status"] == "failed" and message in man["error"]

    def test_non_manifold_source_fails_before_the_loop(
            self, source_target, tmp_path, capsys, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("deform took a step")

        monkeypatch.setattr(optim, "run_adam", no_step)
        src = tmp_path / "fin.obj"
        meshio.save_mesh(finned_box(), src)
        out = tmp_path / "d"
        self._fails(["deform", "--source", str(src), "--target",
                     str(source_target[1])], out, capsys,
                    "non-manifold edges: [(0, 1)]")
        assert load_manifest(out)["status"] == "failed"

    def test_zero_area_source_fails_eval(self, tmp_path, capsys):
        # the reader names the zero-area faces before any Laplacian is built
        mesh = tmp_path / "collapsed.obj"
        meshio.save_mesh(collapsed_face_box(), mesh)
        out = tmp_path / "e"
        self._fails(["eval", "--deformed", str(mesh), "--target", str(mesh),
                     "--source", str(mesh)], out, capsys,
                    "degenerate faces (area < 1e-12): [0, 7]")
        assert load_manifest(out)["status"] == "failed"

    @pytest.mark.parametrize("count", [0, -5])
    def test_eval_rejects_too_few_samples_before_sampling(
            self, source_target, tmp_path, capsys, monkeypatch, count):
        def no_sampling(*args, **kwargs):
            raise AssertionError("eval sampled")

        monkeypatch.setattr(cli, "eval_metrics", no_sampling)
        sp, tp = source_target
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_eval_samples": count}))
        out = tmp_path / "e"
        message = f"n_eval_samples must be at least 1, got {count}"
        self._fails(["eval", "--deformed", str(tp), "--target", str(tp),
                     "--source", str(sp), "--config", str(cfg)], out, capsys,
                    message)
        man = load_manifest(out)
        assert man["status"] == "failed" and message in man["error"]

    @pytest.mark.parametrize("config, message", [
        ('{"threads": 1.5}', "'threads' must be an integer or null, got 1.5"),
        ('{"max_iters": 2.5}',
         "'max_iters' must be an integer or null, got 2.5"),
        ('{"seed": 1.5}', "'seed' must be an integer, got 1.5"),
    ])
    def test_wrong_config_type_fails_naming_the_key(
            self, source_target, tmp_path, capsys, config, message):
        sp, tp = source_target
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        out = tmp_path / "d"
        self._fails(["deform", "--source", str(sp), "--target", str(tp),
                     "--config", str(cfg)], out, capsys, message)
        assert not out.exists()

    def test_failed_gradcheck_keeps_a_completed_manifest(
            self, tmp_path, capsys, monkeypatch):
        class Failed:
            passed = False

            def to_dict(self):
                return {"op": "l2", "pass": False}

        monkeypatch.setattr(cli, "builtin_check", lambda *a, **k: Failed())
        out = tmp_path / "gc"
        assert main(["gradcheck", "--op", "l2", "--out", str(out)]) == 1
        assert "gradient check failed" in capsys.readouterr().err
        assert load_report(out)["metrics"]["pass"] is False
        assert load_manifest(out)["status"] == "completed"


class TestThreadCap:
    @pytest.fixture
    def seen(self, monkeypatch):
        """Thread counts the command body saw."""
        seen = []
        cage_around = cli.cage_around

        def spy(*args):
            seen.append(runtime.thread_count())
            return cage_around(*args)

        monkeypatch.setattr(cli, "cage_around", spy)
        return seen

    @pytest.mark.parametrize("caller, flag, inside", [
        (None, "1", 1),
        (1, None, 1),
        (1, "2", 2),
    ])
    def test_command_runs_under_its_cap_and_restores_the_callers(
            self, source_target, tmp_path, seen, caller, flag, inside):
        argv = ["make-cage", "--input", str(source_target[0]),
                "--out", str(tmp_path / "o")]
        if flag is not None:
            argv += ["--threads", flag]
        with runtime.thread_cap(caller):
            before = runtime.thread_count()
            assert main(argv) == 0
            assert seen == [inside]
            assert runtime.thread_count() == before

    def test_fresh_default_uses_all_cores(self, source_target, tmp_path,
                                          seen):
        assert main(["make-cage", "--input", str(source_target[0]),
                     "--out", str(tmp_path / "o")]) == 0
        with runtime.thread_cap(0):
            assert seen == [runtime.thread_count()]

    def test_report_records_the_thread_count(self, source_target, tmp_path):
        # provenance.threads is the count the command ran under; the
        # metrics bytes are the same under any count
        src = str(source_target[0])
        assert main(["make-cage", "--input", src,
                     "--out", str(tmp_path / "c")]) == 0
        reports = []
        for extra in ([], ["--threads", "1"]):
            out = tmp_path / f"m{len(extra)}"
            assert main(["compute-mvc", "--cage", str(tmp_path / "c" /
                                                      "cage.obj"),
                         "--shape", src, "--out", str(out)] + extra) == 0
            reports.append(load_report(out))
        with runtime.thread_cap(0):
            cores = runtime.thread_count()
        assert [r["provenance"]["threads"] for r in reports] == [cores, 1]
        assert (json.dumps(reports[0]["metrics"], sort_keys=True)
                == json.dumps(reports[1]["metrics"], sort_keys=True))

    def test_negative_threads_rejected(self, source_target, tmp_path, seen,
                                       capsys):
        out = tmp_path / "o"
        with runtime.thread_cap(1):
            assert main(["make-cage", "--input", str(source_target[0]),
                         "--threads", "-2", "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err == ("cagewarp make-cage: error: thread count must be "
                           "0 or more, got -2\n")
            assert seen == [] and not out.exists()
            assert runtime.thread_count() == 1
