"""Self-tests of the benchmark harness at tiny sizes.

    python3 -m pytest benchmark -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import outputcheck  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from msfacedet.detector import Detection  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(w):
    """A seconds-scale variant of a workload."""
    size = 64 if w.image_size == 128 else 96
    return replace(
        w,
        image_size=size,
        face_range=(8, size // 2),
        n_eval=3,
        n_train=4 if w.n_train else 0,
        iterations=4 if w.iterations else 0,
        min_ops=3,
        setup_repeats=2,
        warmup_ops=1,
        weights=workloads.WeightSpec(n_scenes=4, iterations=3, image_size=64, face_range=(8, 32)),
    )


@pytest.fixture(scope="module")
def build_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("build")


def tiny_run(name, seed, trace, build_dir, out_prefix=None):
    w = tiny(workloads.WORKLOADS[name])
    return workloads.run(w, seed, 0.2, trace, out_prefix, build_dir)


def test_benchmark_json_matches_workloads():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [(x["name"], x["why"]) for x in SPEC["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_and_reports_every_metric(name, trace, build_dir, tmp_path):
    res = tiny_run(name, 1, trace, build_dir, tmp_path / "run")
    assert res.correct, res.problems
    assert res.attempted >= 1 and res.failed == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    for m in declared:
        value, unit = res.metrics[m["name"]]
        assert unit == m["unit"], m["name"]
        assert np.isfinite(value), m["name"]
    if trace:
        assert res.info["fidelity"]["identical"]
        assert (tmp_path / "run.spans.tsv").is_file()


def test_second_seed_runs_and_same_seed_repeats(build_dir):
    a = tiny_run("detect-128", 1, False, build_dir)
    b = tiny_run("detect-128", 2, False, build_dir)
    again = tiny_run("detect-128", 1, False, build_dir)
    assert a.correct and b.correct
    assert a.info["detections_digest"] != b.info["detections_digest"]
    assert a.info["detections_digest"] == again.info["detections_digest"]


def test_trace_wrappers_are_removed_afterwards():
    import msfacedet.fusion
    from msfacedet.model import MultiScaleDetector

    before = (msfacedet.fusion.roi_pool, MultiScaleDetector.__dict__["detect"])
    with tracer.installed(tracer.Tracer()):
        assert msfacedet.fusion.roi_pool is not before[0]
    assert (msfacedet.fusion.roi_pool, MultiScaleDetector.__dict__["detect"]) == before


def test_self_time_excludes_children():
    tr = tracer.Tracer()
    tr.begin_op()
    outer = tr.enter("outer")
    inner = tr.enter("inner")
    tr.exit(inner)
    tr.exit(outer)
    own = tr.self_ns()
    assert own["outer"] + own["inner"] == tr.end[outer] - tr.start[outer] == tr.top_level_ns()


def _dets(*rows):
    return [Detection(box=np.array(r[:4], dtype=np.float64), score=r[4]) for r in rows]


def test_output_checks_accept_valid_detections():
    dets = _dets((1, 1, 20, 20, 0.9), (40, 40, 60, 60, 0.5))
    assert outputcheck.check_detections(dets, 64, 64, 0.05, 0.3) == []


@pytest.mark.parametrize(
    "dets",
    [
        _dets((1, 1, 80, 20, 0.9)),  # past the right edge
        _dets((1, 1, np.nan, 20, 0.9)),
        _dets((1, 1, 20, 20, 0.01)),  # below score_thresh
        _dets((1, 1, 20, 20, 0.5), (40, 40, 60, 60, 0.9)),  # ascending scores
        _dets((1, 1, 20, 20, 0.9), (2, 2, 21, 21, 0.8)),  # overlap above det_nms_thresh
    ],
)
def test_output_checks_catch_corrupted_detections(dets):
    assert outputcheck.check_detections(dets, 64, 64, 0.05, 0.3)


def test_corrupted_detection_fails_the_run(build_dir, monkeypatch):
    from msfacedet.model import MultiScaleDetector

    detect = MultiScaleDetector.detect

    def shifted(self, image, orig_w, orig_h, **kw):
        dets = detect(self, image, orig_w, orig_h, **kw)
        return dets + _dets((orig_w - 4, 0, orig_w + 10, 10, min(d.score for d in dets) if dets else 0.5))

    monkeypatch.setattr(MultiScaleDetector, "detect", shifted)
    res = tiny_run("detect-128", 1, False, build_dir)
    assert not res.correct
    assert res.failed == res.attempted


def test_skipped_train_iterations_count_as_failed(build_dir, monkeypatch):
    import msfacedet.training
    from msfacedet.rpn import TargetAssignmentError

    def refuse(*args, **kwargs):
        raise TargetAssignmentError("no anchors")

    monkeypatch.setattr(msfacedet.training, "assign_rpn_targets", refuse)
    res = tiny_run("train-128", 1, False, build_dir)
    assert not res.correct
    assert res.failed >= tiny(workloads.WORKLOADS["train-128"]).iterations


def test_result_line_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the
    command exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "detect-128", "--seed", "1", "--seconds", "1",
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_result_line_has_exactly_the_contract_keys(build_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    monkeypatch.setattr(workloads, "WORKLOADS", {k: tiny(w) for k, w in workloads.WORKLOADS.items()})
    monkeypatch.setattr(run, "SRC", ROOT / "src")
    code = run.main(["--workload", "detect-256-top50", "--seed", "3", "--seconds", "0.2", "--trace", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
