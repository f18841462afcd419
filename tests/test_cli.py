import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import msfacedet
from msfacedet import ModelConfig, MultiScaleDetector
from msfacedet.annotations import AnnotationRecord, format_annotations
from msfacedet.checkpoint import CheckpointError
from msfacedet.checks import LAYER_CHECKS
from msfacedet.cli import run_cli
from msfacedet.imageio import write_pgm, write_ppm

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


def test_load_rejects_non_finite_checkpoint(tmp_path):
    path = _nan_checkpoint(tmp_path)
    with pytest.raises(CheckpointError, match="det.cls.bias"):
        MultiScaleDetector(ModelConfig(), seed=0).load(path)


def test_detect_with_non_finite_checkpoint_leaves_no_output(tmp_path):
    ckpt = _nan_checkpoint(tmp_path)
    data = tmp_path / "data"
    data.mkdir()
    write_pgm(data / "scene.pgm", _gray(3))
    assert _detect(ckpt, data, tmp_path / "out" / "dets") == 1
    assert not (tmp_path / "out").exists()


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


def test_train_on_missing_image_leaves_no_output(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    record = AnnotationRecord(image_path="gone.pgm", boxes=np.array([[4.0, 4.0, 20.0, 20.0]]))
    (data / "annotations.txt").write_text(format_annotations([record]))
    out = tmp_path / "out" / "run"
    assert run_cli(["train", "--data", str(data), "--out", str(out), "--iterations", "2"]) == 1
    assert not (tmp_path / "out").exists()
