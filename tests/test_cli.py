import errno
import os
import subprocess
import sys
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

import msfacedet
import msfacedet.checks
from msfacedet import DetectConfig, ModelConfig, MultiScaleDetector, TrainConfig, train
from msfacedet.annotations import AnnotationRecord, format_annotations
from msfacedet.checkpoint import MAGIC, CheckpointError, save_checkpoint
from msfacedet.checks import LAYER_CHECKS
from msfacedet.cli import run_cli
from msfacedet.evaluation import evaluate_detector, proposal_recall
from msfacedet.imageio import read_pnm, write_pgm, write_ppm

DATA = Path(__file__).parent / "data"


def _checkpoint(tmp_path):
    path = tmp_path / "model.msfr"
    MultiScaleDetector(ModelConfig(), seed=0).save(path)
    return path


def _nan_checkpoint(tmp_path):
    model = MultiScaleDetector(ModelConfig(), seed=0)
    model.params()["det.cls.bias"].data[1] = np.nan
    path = tmp_path / "nan.msfr"
    model.save(path)
    return path


def _gray(seed, size=64):
    return np.random.default_rng(seed).uniform(size=(size, size))


def _detect(ckpt, data_dir, out_dir):
    args = ["detect", "--checkpoint", str(ckpt), "--data", str(data_dir), "--out", str(out_dir)]
    return run_cli(args + ["--score-thresh", "0"])


def test_detect_on_ppm_matches_the_same_pgm(tmp_path):
    ckpt = _checkpoint(tmp_path)
    gray = _gray(0)
    q = np.clip(np.rint(gray * 255.0), 0, 255).astype(np.uint8)
    (tmp_path / "ppm").mkdir()
    (tmp_path / "pgm").mkdir()
    write_ppm(tmp_path / "ppm" / "scene.ppm", np.repeat(q[:, :, None], 3, axis=2))
    write_pgm(tmp_path / "pgm" / "scene.pgm", gray)
    assert _detect(ckpt, tmp_path / "ppm", tmp_path / "out_ppm") == 0
    assert _detect(ckpt, tmp_path / "pgm", tmp_path / "out_pgm") == 0
    from_ppm = (tmp_path / "out_ppm" / "scene.txt").read_text()
    assert from_ppm
    assert from_ppm == (tmp_path / "out_pgm" / "scene.txt").read_text()


def test_detect_overlay_draws_every_detected_box(tmp_path):
    data, out = tmp_path / "data", tmp_path / "out"
    data.mkdir()
    for i in range(2):
        write_pgm(data / f"scene{i}.pgm", _gray(10 + i))
    args = ["detect", "--checkpoint", str(_checkpoint(tmp_path)), "--data", str(data), "--out", str(out)]
    assert run_cli(args + ["--score-thresh", "0", "--overlay"]) == 0
    for i in range(2):
        boxes = [[float(v) for v in line.split()[:4]] for line in (out / f"scene{i}.txt").read_text().splitlines()]
        assert boxes
        # 1-px borders through the first and last pixel row and column each box covers
        border = np.zeros((64, 64), dtype=bool)
        for x1, y1, x2, y2 in boxes:
            c1, c2 = np.clip([np.floor(x1), np.ceil(x2) - 1], 0, 63).astype(int)
            r1, r2 = np.clip([np.floor(y1), np.ceil(y2) - 1], 0, 63).astype(int)
            border[[r1, r2], c1 : c2 + 1] = True
            border[r1 : r2 + 1, [c1, c2]] = True
        rgb = read_pnm(out / f"scene{i}_overlay.ppm")
        assert rgb.shape == (64, 64, 3)
        assert np.array_equal((rgb == [255, 32, 32]).all(axis=2), border)
        gray = np.clip(np.rint(_gray(10 + i) * 255.0), 0, 255)
        assert (rgb[~border] == gray[~border][:, None]).all()


def test_detect_on_truncated_image_leaves_no_output(tmp_path):
    ckpt = _checkpoint(tmp_path)
    data = tmp_path / "data"
    data.mkdir()
    write_pgm(data / "a_good.pgm", _gray(1))
    write_pgm(data / "b_cut.pgm", _gray(2))
    raw = (data / "b_cut.pgm").read_bytes()
    (data / "b_cut.pgm").write_bytes(raw[: len(raw) // 2])
    out = tmp_path / "out" / "dets"
    assert _detect(ckpt, data, out) == 1
    assert not (tmp_path / "out").exists()


def test_eval_matches_golden_report(tmp_path):
    report = tmp_path / "report.txt"
    args = ["eval", "--detections", str(DATA / "golden_dets"), "--annotations", str(DATA / "golden_annotations.txt")]
    assert run_cli(args + ["--out", str(report)]) == 0
    assert report.read_bytes() == (DATA / "golden_report.txt").read_bytes()


@pytest.mark.parametrize("bad", ["10 10 30 30 nan", "0 0 inf 5 0.5", "0 0 5 five 0.5", "0 0 5 5"])
def test_eval_rejects_malformed_detection_line_without_report(bad, tmp_path, capsys):
    dets = tmp_path / "dets"
    dets.mkdir()
    (dets / "img_00.txt").write_text(f"1 1 20 20 0.9\n\n{bad}\n")
    report = tmp_path / "report.txt"
    args = ["eval", "--detections", str(dets), "--annotations", str(DATA / "golden_annotations.txt")]
    assert run_cli(args + ["--out", str(report)]) == 1
    assert f"{dets / 'img_00.txt'}:3:" in capsys.readouterr().err
    assert not report.exists()


def test_load_rejects_non_finite_checkpoint(tmp_path):
    path = _nan_checkpoint(tmp_path)
    with pytest.raises(CheckpointError, match="det.cls.bias"):
        MultiScaleDetector(ModelConfig(), seed=0).load(path)


def test_load_checks_every_shape_before_it_writes_any_parameter(tmp_path):
    stored = OrderedDict((name, t.data) for name, t in MultiScaleDetector(ModelConfig(), seed=1).params().items())
    assert list(stored)[-1] == "det.bbox.bias"
    stored["det.bbox.bias"] = np.zeros(3)
    path = tmp_path / "short.msfr"
    save_checkpoint(path, stored)
    model = MultiScaleDetector(ModelConfig(), seed=0)
    before = {name: t.data.tobytes() for name, t in model.params().items()}
    with pytest.raises(CheckpointError, match=r"det.bbox.bias: stored shape \(3,\) != model shape \(4,\)"):
        model.load(path)
    assert {name: t.data.tobytes() for name, t in model.params().items()} == before


def test_load_rejects_a_parameter_stored_twice(tmp_path):
    stored = OrderedDict((name, t.data) for name, t in MultiScaleDetector(ModelConfig(), seed=1).params().items())
    path, extra = tmp_path / "twice.msfr", tmp_path / "extra.msfr"
    save_checkpoint(path, stored)
    save_checkpoint(extra, {"backbone.s1.c1.weight": np.full_like(stored["backbone.s1.c1.weight"], 7.0)})
    offset = path.stat().st_size
    path.write_bytes(path.read_bytes() + extra.read_bytes()[len(MAGIC) :])
    model = MultiScaleDetector(ModelConfig(), seed=0)
    before = {name: t.data.tobytes() for name, t in model.params().items()}
    with pytest.raises(CheckpointError, match=rf"parameter backbone.s1.c1.weight at byte {offset} is stored already"):
        model.load(path)
    assert {name: t.data.tobytes() for name, t in model.params().items()} == before


def test_detect_with_non_finite_checkpoint_leaves_no_output(tmp_path):
    ckpt = _nan_checkpoint(tmp_path)
    data = tmp_path / "data"
    data.mkdir()
    write_pgm(data / "scene.pgm", _gray(3))
    assert _detect(ckpt, data, tmp_path / "out" / "dets") == 1
    assert not (tmp_path / "out").exists()


def test_every_public_name_resolves():
    assert [name for name in msfacedet.__all__ if not hasattr(msfacedet, name)] == []


def test_module_entry_point_runs_the_command():
    env = dict(os.environ, PYTHONPATH=str(Path(msfacedet.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "msfacedet.cli", "gradcheck", "--seeds", "1", "--skip-model"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == [name for name, _ in LAYER_CHECKS]
    assert all(line.split()[-1] == "ok" for line in lines)


def test_gradcheck_reports_the_end_to_end_rows_in_both_fusion_modes(monkeypatch, capsys):
    # the per-element end-to-end value is pinned at seed 0 by tests/test_checks.py;
    # stubbing it here spares 7 s, and both directional checks run for real
    monkeypatch.setattr(msfacedet.checks, "check_multitask_loss", lambda seed: 0.0)
    assert run_cli(["gradcheck", "--seeds", "1"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    model_rows = ["multitask_loss_end_to_end", "multitask_loss_directional_multi", "multitask_loss_directional_tap5"]
    assert [row[0] for row in rows] == [name for name, _ in LAYER_CHECKS] + model_rows
    assert all(row[-1] == "ok" for row in rows)


@pytest.mark.parametrize("count", ["0", "-1"])
def test_gradcheck_rejects_seed_count_below_one(count, capsys):
    assert run_cli(["gradcheck", "--seeds", count]) == 2
    assert "argument --seeds" in capsys.readouterr().err


def test_round_trip_gen_data_train_detect_eval(tmp_path, capsys):
    data, run, dets = tmp_path / "data", tmp_path / "run", tmp_path / "dets"
    gen = ["gen-data", "--out", str(data), "--n-images", "3", "--image-size", "64"]
    assert run_cli(gen + ["--face-min", "16", "--face-max", "32"]) == 0
    assert run_cli(["train", "--data", str(data), "--out", str(run), "--iterations", "20"]) == 0
    assert _detect(run / "checkpoint.msfr", data, dets) == 0
    capsys.readouterr()
    assert run_cli(["eval", "--detections", str(dets), "--annotations", str(data / "annotations.txt")]) == 0
    key, value = capsys.readouterr().out.splitlines()[0].split()
    assert key == "ap_overall"
    assert 0.0 <= float(value) <= 1.0


SHARED_STEMS = [pytest.param(("x.pgm", "x.pgm"), id="same-path"), pytest.param(("a/x.pgm", "b/x.pgm"), id="two-dirs")]


def _annotate(data, paths):
    """annotations.txt under ``data`` listing ``paths`` in order, one face each
    (``0 0 10 10``, then ``20 20 10 10``), and each image written once."""
    data.mkdir()
    faces = [[0.0, 0.0, 10.0, 10.0], [20.0, 20.0, 30.0, 30.0]]
    records = [AnnotationRecord(image_path=p, boxes=np.array([f])) for p, f in zip(paths, faces)]
    (data / "annotations.txt").write_text(format_annotations(records))
    for p in set(paths):
        (data / p).parent.mkdir(parents=True, exist_ok=True)
        write_pgm(data / p, _gray(6))


@pytest.mark.parametrize("paths", SHARED_STEMS)
def test_eval_rejects_two_annotated_images_with_one_id(paths, tmp_path, capsys):
    # before, the last of the two won: n_gt 1 and ap_overall 0 for a detection of the first face
    data, dets, report = tmp_path / "data", tmp_path / "dets", tmp_path / "report.txt"
    _annotate(data, paths)
    dets.mkdir()
    (dets / "x.txt").write_text("0 0 10 10 0.9\n")
    args = ["eval", "--detections", str(dets), "--annotations", str(data / "annotations.txt")]
    assert run_cli(args + ["--out", str(report)]) == 1
    out = capsys.readouterr()
    assert f"images {paths[0]} and {paths[1]} share the image id 'x'" in out.err
    assert out.out == "" and not report.exists()


@pytest.mark.parametrize("paths", SHARED_STEMS)
def test_train_data_with_two_images_of_one_id_leaves_no_output(paths, tmp_path, capsys):
    data, out = tmp_path / "data", tmp_path / "out" / "run"
    _annotate(data, paths)
    assert run_cli(["train", "--data", str(data), "--out", str(out), "--iterations", "1"]) == 1
    assert f"images {paths[0]} and {paths[1]} share the image id 'x'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_detect_rejects_two_images_with_one_id(tmp_path, capsys):
    data, out = tmp_path / "data", tmp_path / "out" / "dets"
    data.mkdir()
    write_pgm(data / "face.pgm", _gray(7))
    write_ppm(data / "face.ppm", np.zeros((64, 64, 3), dtype=np.uint8))
    assert _detect(_checkpoint(tmp_path), data, out) == 1
    assert f"images {data / 'face.pgm'} and {data / 'face.ppm'} share the image id 'face'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spelling", ["same", "through-parent"])
def test_detect_overlay_rejects_overwriting_an_input_image(spelling, tmp_path, capsys):
    ckpt = _checkpoint(tmp_path)
    data = tmp_path / "data"
    data.mkdir()
    write_pgm(data / "x.pgm", _gray(3))
    write_ppm(data / "x_overlay.ppm", np.random.default_rng(4).integers(0, 256, (64, 64, 3), dtype=np.uint8))
    before = {p.name: p.read_bytes() for p in data.iterdir()}
    out = data if spelling == "same" else data / ".." / "data"
    args = ["detect", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(out), "--overlay"]
    assert run_cli(args) == 1
    err = capsys.readouterr().err
    assert f"the overlay of {data / 'x.pgm'} would overwrite the input image {data / 'x_overlay.ppm'}" in err
    assert {p.name: p.read_bytes() for p in data.iterdir()} == before


def test_train_on_missing_image_leaves_no_output(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    record = AnnotationRecord(image_path="gone.pgm", boxes=np.array([[4.0, 4.0, 20.0, 20.0]]))
    (data / "annotations.txt").write_text(format_annotations([record]))
    out = tmp_path / "out" / "run"
    assert run_cli(["train", "--data", str(data), "--out", str(out), "--iterations", "2"]) == 1
    assert not (tmp_path / "out").exists()


def test_train_failing_inside_a_text_write_leaves_no_output(tmp_path, monkeypatch, capsys):
    # the write creates the loss trace before it fails, so the tracker must know the path first
    assert _gen_data(tmp_path / "data") == 0
    real_write_text = Path.write_text

    def write_then_fail(self, text, *args, **kwargs):
        if self.name == "loss_trace.txt":
            real_write_text(self, text[:5], *args, **kwargs)
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_write_text(self, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", write_then_fail)
    run = tmp_path / "run"
    assert run_cli(["train", "--data", str(tmp_path / "data"), "--out", str(run), "--iterations", "2"]) == 1
    assert "No space left" in capsys.readouterr().err
    assert not run.exists()


@pytest.mark.parametrize("thresh", ["7", "-3"])
def test_detect_rejects_out_of_range_score_thresh_flag(thresh, tmp_path, capsys):
    ckpt = _checkpoint(tmp_path)
    data = tmp_path / "data"
    data.mkdir()
    write_pgm(data / "scene.pgm", _gray(4))
    out = tmp_path / "out" / "dets"
    args = ["detect", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(out)]
    assert run_cli(args + ["--score-thresh", thresh]) == 1
    assert "score_thresh" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_flag_overrides_config_file_value(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("score_thresh = 0.5\n")
    data = tmp_path / "data"
    data.mkdir()
    write_pgm(data / "scene.pgm", _gray(5))
    args = ["detect", "--checkpoint", str(_checkpoint(tmp_path)), "--data", str(data), "--config", str(config)]
    assert run_cli(args + ["--out", str(tmp_path / "cfg")]) == 0
    assert run_cli(args + ["--out", str(tmp_path / "flag"), "--score-thresh", "0"]) == 0
    from_config = (tmp_path / "cfg" / "scene.txt").read_text().splitlines()
    from_flag = (tmp_path / "flag" / "scene.txt").read_text().splitlines()
    assert all(float(line.split()[4]) >= 0.5 for line in from_config)
    assert len(from_flag) > len(from_config)


def test_train_and_detect_take_their_paths_from_the_config_file(tmp_path):
    data, run = tmp_path / "data", tmp_path / "run"
    assert _gen_data(data) == 0
    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text(f"data_dir = {data}\nout_dir = {run}\niterations = 2\n")
    assert run_cli(["train", "--config", str(train_cfg)]) == 0
    assert (run / "loss_trace.txt").read_text().startswith("2 ")
    assert (run / "checkpoint.msfr").is_file()
    detect_cfg = tmp_path / "detect.cfg"
    lines = [f"checkpoint = {run / 'checkpoint.msfr'}", f"data_dir = {data}", f"out_dir = {tmp_path / 'cfg'}"]
    detect_cfg.write_text("\n".join(lines + ["score_thresh = 0"]) + "\n")
    assert run_cli(["detect", "--config", str(detect_cfg)]) == 0
    assert _detect(run / "checkpoint.msfr", data, tmp_path / "flags") == 0
    written = sorted(p.name for p in (tmp_path / "cfg").iterdir())
    assert written == sorted(f"{p.stem}.txt" for p in data.glob("*.pgm"))
    for name in written:
        assert (tmp_path / "cfg" / name).read_text() == (tmp_path / "flags" / name).read_text()


@pytest.mark.parametrize("count", ["0", "-2"])
def test_gen_data_rejects_image_count_below_one(count, tmp_path, capsys):
    assert run_cli(["gen-data", "--out", str(tmp_path / "data"), "--n-images", count]) == 2
    assert "argument --n-images" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


def _gen_data(out, n="2", seed="0"):
    args = ["gen-data", "--out", str(out), "--n-images", n, "--image-size", "64", "--seed", seed]
    return run_cli(args + ["--face-min", "16", "--face-max", "32"])


def test_loaded_scenes_propose_within_the_unpadded_extent(tmp_path, monkeypatch):
    # 100 px images load padded to 112 px; train, scoring and recall must clip to 100
    args = ["gen-data", "--out", str(tmp_path), "--n-images", "2", "--image-size", "100", "--face-max", "32"]
    assert run_cli(args) == 0
    scenes = msfacedet.cli._load_scenes(tmp_path)
    assert {s.image.shape for s in scenes} == {(1, 1, 112, 112)}
    extents = []

    def recording(real):
        def propose(*args):
            extents.append(args[3:5])
            return real(*args)

        return propose

    for module in (msfacedet.training, msfacedet.model, msfacedet.evaluation):
        monkeypatch.setattr(module, "propose", recording(module.propose))
    result = train(scenes, TrainConfig(iterations=2))
    evaluate_detector(result.model, scenes)
    proposal_recall(result.model, scenes, DetectConfig())
    assert extents == [(100, 100)] * 6


def test_gen_data_failing_mid_write_leaves_no_output(tmp_path, monkeypatch, capsys):
    real_write_pgm = msfacedet.cli.write_pgm
    written = []

    def write_first_only(path, image):
        if written:
            raise OSError("no space left on device")
        written.append(path)
        real_write_pgm(path, image)

    monkeypatch.setattr(msfacedet.cli, "write_pgm", write_first_only)
    assert _gen_data(tmp_path / "out" / "data", n="3") == 1
    assert "no space left" in capsys.readouterr().err
    assert len(written) == 1
    assert not (tmp_path / "out").exists()


def test_gen_data_into_existing_directory_removes_only_its_files(tmp_path):
    data = tmp_path / "data"
    (data / "annotations.txt").mkdir(parents=True)  # the annotation write fails
    (data / "keep.txt").write_text("mine")
    assert _gen_data(data) == 1
    assert sorted(p.name for p in data.iterdir()) == ["annotations.txt", "keep.txt"]


def test_ablate_failing_in_second_mode_leaves_no_output(tmp_path, monkeypatch, capsys):
    assert _gen_data(tmp_path / "train") == 0
    assert _gen_data(tmp_path / "held", seed="1") == 0
    real_train = msfacedet.cli.train

    def diverge_in_tap5(scenes, cfg, model_cfg, **kwargs):
        if model_cfg.fusion_mode == "tap5":
            raise RuntimeError("training diverged at iteration 1")
        return real_train(scenes, cfg, model_cfg, **kwargs)

    monkeypatch.setattr(msfacedet.cli, "train", diverge_in_tap5)
    out = tmp_path / "out" / "ablate"
    args = ["ablate", "--data", str(tmp_path / "train"), "--eval-data", str(tmp_path / "held")]
    assert run_cli(args + ["--out", str(out), "--iterations", "2"]) == 1
    captured = capsys.readouterr()
    assert "multi ap_overall" in captured.out
    assert "training diverged" in captured.err
    assert not (tmp_path / "out").exists()


def test_ablate_writes_both_reports_and_their_margin(tmp_path, monkeypatch, capsys):
    assert _gen_data(tmp_path / "train") == 0
    assert _gen_data(tmp_path / "held", seed="1") == 0
    real_evaluate = msfacedet.cli.evaluate_detector
    # two untrained models both score AP 0 here: give each mode its own AP so
    # that a margin taken from the wrong terms shows
    known_ap = iter([0.625, 0.25])

    def evaluate_with_known_ap(*args):
        report = real_evaluate(*args)
        report.overall.ap = next(known_ap)
        return report

    monkeypatch.setattr(msfacedet.cli, "evaluate_detector", evaluate_with_known_ap)
    out = tmp_path / "out"
    args = ["ablate", "--data", str(tmp_path / "train"), "--eval-data", str(tmp_path / "held")]
    capsys.readouterr()
    assert run_cli(args + ["--out", str(out), "--iterations", "2"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["report_multi.txt", "report_tap5.txt"]
    assert (out / "report_multi.txt").read_text().startswith("ap_overall 0.625000\n")
    assert (out / "report_tap5.txt").read_text().startswith("ap_overall 0.250000\n")
    lines = capsys.readouterr().out.splitlines()
    assert [line.rsplit(" ", 1)[0] for line in lines] == ["multi ap_overall", "tap5 ap_overall", "multi-scale margin"]
    multi, tap5, margin = (float(line.split()[-1]) for line in lines)
    assert margin == multi - tap5 == 0.375
