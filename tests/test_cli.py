from pathlib import Path

import numpy as np

from msfacedet import ModelConfig, MultiScaleDetector
from msfacedet.cli import run_cli
from msfacedet.imageio import write_pgm, write_ppm

DATA = Path(__file__).parent / "data"


def _checkpoint(tmp_path):
    path = tmp_path / "model.msfr"
    MultiScaleDetector(ModelConfig(), seed=0).save(path)
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
