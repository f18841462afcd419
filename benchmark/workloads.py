"""The msfacedet benchmark workloads and the runs that measure them.

One closed-loop caller in one process: each operation (a train iteration or
a detect call on one image) starts only after the previous one returned, and
the harness starts no threads of its own.  Every input scene comes from
``msfacedet.generate_toy_dataset`` with a seed derived from the workload
seed; the program only ever receives the generated scenes.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import outputcheck
import tracer as tracing

SCORE_THRESH = 0.05  # the evaluation threshold of calibrate.py and `ablate`
DET_NMS_THRESH = 0.3  # MultiScaleDetector.detect default
TRAIN_STREAM, HELDOUT_STREAM = 1, 2


@dataclass(frozen=True)
class WeightSpec:
    """Detector weights trained by the repo's own ``train`` for the detect workloads.

    They are trained once per checkout and kept under the build directory,
    keyed by this spec and a digest of the msfacedet sources, like a
    compiled artifact.
    """

    n_scenes: int = 256
    iterations: int = 400
    image_size: int = 128
    face_range: tuple = (16, 64)
    seed: int = 1612


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "detect"
    why: str
    image_size: int
    face_range: tuple
    post_nms_top_n: int
    n_eval: int  # held-out scenes scored for AP
    n_train: int = 0  # training scenes (train kind)
    iterations: int = 0  # timed train iterations (train kind); a traced run makes 3 passes of a third
    min_ops: int = 100  # timed detect calls at least, so that 10 lie beyond p90
    setup_repeats: int = 3
    warmup_ops: int = 2
    weights: WeightSpec = field(default_factory=WeightSpec)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-128",
            kind="train",
            why=(
                "Only workload with backward passes and the SGD step, keeping every forward "
                "cache alive; ROI head and backbone split the time."
            ),
            image_size=128,
            face_range=(16, 64),
            post_nms_top_n=300,
            n_eval=24,
            n_train=64,
            iterations=110,
        ),
        Workload(
            name="detect-128",
            kind="detect",
            why=(
                "About 300 ROIs per image reach the ROI head, which takes most of the time; "
                "batched ROI pooling or an inference-only path must show its gain here."
            ),
            image_size=128,
            face_range=(16, 64),
            post_nms_top_n=300,
            n_eval=100,
        ),
        Workload(
            name="detect-256-top50",
            kind="detect",
            why=(
                "Backbone and propose/NMS over ~1500 anchors dominate and at most 50 ROIs reach "
                "the ROI head, so an ROI-pooling change should not move it."
            ),
            image_size=256,
            face_range=(16, 128),
            post_nms_top_n=50,
            n_eval=100,
        ),
    )
}


@dataclass
class RunResult:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    samples: dict = field(default_factory=dict)  # name -> sample count
    info: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def put(self, name: str, value: float, unit: str, samples: int | None = None):
        self.metrics[name] = (float(value), unit)
        if samples is not None:
            self.samples[name] = samples


def derive_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def _scenes(w: Workload, n: int, seed: int, stream: int):
    from msfacedet import generate_toy_dataset

    return generate_toy_dataset(n, w.image_size, w.face_range, seed=derive_seed(seed, stream))


def _detect(model, scene, top_n: int):
    img = scene.image
    return model.detect(
        img, img.shape[3], img.shape[2], score_thresh=SCORE_THRESH, det_nms_thresh=DET_NMS_THRESH,
        post_nms_top_n=top_n,
    )


def detections_ap(dets_list, scenes) -> float:
    from msfacedet import EvalConfig, evaluate_dataset

    dets = {
        s.name: (np.array([d.box for d in ds]).reshape(-1, 4), np.array([d.score for d in ds]))
        for s, ds in zip(scenes, dets_list)
    }
    ap = evaluate_dataset(dets, {s.name: s.gt_boxes for s in scenes}, EvalConfig()).overall.ap
    return float(ap) if ap is not None else 0.0


def digest_detections(dets_list) -> str:
    h = hashlib.sha256()
    for ds in dets_list:
        h.update(len(ds).to_bytes(4, "little"))
        for d in ds:
            h.update(np.asarray(d.box, dtype="<f8").tobytes())
            h.update(np.float64(d.score).tobytes())
    return h.hexdigest()


def digest_training(result) -> str:
    h = hashlib.sha256(np.asarray(result.trace, dtype="<f8").tobytes())
    for name, t in result.model.params().items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    return h.hexdigest()


def source_digest() -> str:
    import msfacedet

    h = hashlib.sha256()
    for p in sorted(Path(msfacedet.__file__).parent.glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


_rng = np.random.default_rng(0)
_REF_A, _REF_B = _rng.standard_normal((128, 576)), _rng.standard_normal((576, 64))  # a conv-sized matmul
_REF_SWEEP = _rng.standard_normal(500_000)  # 4 MB, past the per-core caches


def reference_probe() -> int:
    """Nanoseconds a fixed mix of interpreter loop, single-thread matmul and
    memory sweep takes.

    A shared 2-CPU machine's speed can drift by a quarter over tens of seconds, and
    not every kind of work slows alike: the probe mixes the program's three
    kinds of work so that, run between operations, it gauges the drift the
    operations see.  It touches no program code, so no change to the
    program can make it faster.
    """
    t0 = time.perf_counter_ns()
    s = 0.0
    for i in range(20_000):
        s += i * i
    for _ in range(3):
        s += float((_REF_A @ _REF_B)[0, 0]) + float(_REF_SWEEP.sum())
    return time.perf_counter_ns() - t0


def probe_cost(op_ns: np.ndarray, ref_ns: list) -> np.ndarray:
    """Each operation's time over the mean of the two probes that bracket it."""
    ref = np.asarray(ref_ns, dtype=np.float64)
    return op_ns / (0.5 * (ref[:-1] + ref[1:]))


def put_timings(res: RunResult, op_ns: np.ndarray, ref_ns: list):
    """Raw wall-clock timings plus the same in reference-probe units.

    ``ref_ns`` holds one probe before the first operation and one after
    each, so the ``op_cost_*`` metrics (see :func:`probe_cost`) hold still
    while the machine's speed drifts.
    """
    n = len(op_ns)
    ms = op_ns / 1e6
    res.put("op_ms_p50", np.percentile(ms, 50), "ms", n)
    res.put("op_ms_p90", np.percentile(ms, 90), "ms", n)
    res.put("ops_per_s", n / (op_ns.sum() / 1e9), "1/s", n)
    cost = probe_cost(op_ns, ref_ns)
    res.put("op_cost_p50", np.percentile(cost, 50), "ref", n)
    res.put("op_cost_p90", np.percentile(cost, 90), "ref", n)
    res.put("ops_per_kref", 1000.0 * n / cost.sum(), "1/kref", n)
    res.put("ref_probe_ms", np.median(ref_ns) / 1e6, "ms", len(ref_ns))


NOMINAL_PROBE_S = 0.004  # the probe's duration that defines nominal machine speed


def repeat_setup(setup, repeats: int, res: RunResult):
    """Run ``setup`` ``repeats`` times; return its last (value, generation
    seconds) and the median set-up time in nominal seconds.

    Each repeat's wall time is scaled by NOMINAL_PROBE_S over the mean of
    the two probes that bracket it, so ``setup_s`` does not follow the
    machine's speed drift; the raw seconds go to the report.
    """
    raw, nominal = [], []
    for _ in range(repeats):
        before = reference_probe()
        t0 = time.perf_counter_ns()
        value, gen_s = setup()
        ns = time.perf_counter_ns() - t0
        after = reference_probe()
        raw.append(round(ns / 1e9, 4))
        nominal.append(ns / (0.5 * (before + after)) * NOMINAL_PROBE_S)
    res.info["setup_s_raw"] = raw
    return value, gen_s, statistics.median(nominal)


# ----------------------------------------------------------------------
# detect weights


def ensure_weights(spec: WeightSpec, build_dir: Path) -> tuple[Path, float | None]:
    """Path of trained detector weights, training them first if absent.

    Returns the build time in seconds when this call trained them.
    """
    import msfacedet

    key = hashlib.sha256((source_digest() + repr(spec)).encode()).hexdigest()[:16]
    path = build_dir / f"detect-weights-{key}.msfr"
    if path.is_file():
        return path, None
    t0 = time.perf_counter()
    build_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    env = dict(os.environ, PYTHONPATH=str(Path(msfacedet.__file__).parent.parent))
    script = Path(__file__).with_name("build_weights.py")
    try:
        subprocess.run([sys.executable, str(script), str(tmp), json.dumps(asdict(spec))], env=env, check=True)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path, time.perf_counter() - t0


# ----------------------------------------------------------------------
# train-128


def _train_setup(w: Workload, seed: int):
    """Scene generation plus a short warm-up training run (model
    construction and the ROI gather cache)."""
    from msfacedet import TrainConfig, train

    t0 = time.perf_counter()
    train_scenes = _scenes(w, w.n_train, seed, TRAIN_STREAM)
    held = _scenes(w, w.n_eval, seed, HELDOUT_STREAM)
    t_gen = time.perf_counter() - t0
    train(train_scenes, TrainConfig(iterations=w.warmup_ops), trace_every=w.warmup_ops)
    return (train_scenes, held), t_gen


@dataclass
class TrainPass:
    result: object  # TrainResult, or None when training stopped
    op_ns: np.ndarray  # per completed iteration
    ref_ns: list  # reference probes bracketing the iterations
    problems: list
    bad_loss: int  # iterations whose loss failed the check


def _timed_train(scenes, iterations: int, on_iteration=None, probe: bool = False) -> TrainPass:
    """One ``train`` call.

    Iteration i lasts from the return of progress callback i-1 (or the
    call) to the entry of callback i, so work done inside the callback,
    such as the reference probe, is not counted.
    """
    from msfacedet import TrainConfig, train

    op_ns, problems, bad_loss = [], [], [0]
    ref_ns = [reference_probe()] if probe else []
    resumed = [time.perf_counter_ns()]

    def progress(it, comps):
        op_ns.append(time.perf_counter_ns() - resumed[0])
        bad = outputcheck.check_loss(it, comps)
        bad_loss[0] += bool(bad)
        problems.extend(bad)
        if on_iteration is not None:
            on_iteration()
        if probe:
            ref_ns.append(reference_probe())
        resumed[0] = time.perf_counter_ns()

    try:
        result = train(scenes, TrainConfig(iterations=iterations), trace_every=1, progress=progress)
    except RuntimeError as e:  # divergence or a non-finite gradient
        result = None
        problems.append(f"training stopped: {e}")
    return TrainPass(result, np.asarray(op_ns, dtype=np.int64), ref_ns, problems, bad_loss[0])


def _count_train(p: TrainPass, n_iters: int, res: RunResult) -> int:
    """Count a pass's iterations; skipped, diverged or bad-loss ones fail."""
    res.attempted += n_iters
    res.problems.extend(p.problems)
    if p.result is None:
        res.failed += n_iters
        return 0
    res.failed += p.result.skipped + p.bad_loss
    if p.result.skipped:
        res.problems.append(f"{p.result.skipped} training iterations skipped")
    return len(p.result.trace)


def _checked_detect(model, scene, w: Workload, res: RunResult) -> tuple[list, int]:
    """One detect call counted as an operation: (detections, nanoseconds).

    A call that raises or fails the output checks counts as failed.
    """
    res.attempted += 1
    t0 = time.perf_counter_ns()
    try:
        dets = _detect(model, scene, w.post_nms_top_n)
    except Exception as e:  # noqa: BLE001 - any raise is a failed operation
        ns = time.perf_counter_ns() - t0
        res.failed += 1
        res.problems.append(f"detect on {scene.name} raised {type(e).__name__}: {e}")
        return [], ns
    ns = time.perf_counter_ns() - t0
    img_h, img_w = scene.image.shape[2:]
    bad = outputcheck.check_detections(dets, img_w, img_h, SCORE_THRESH, DET_NMS_THRESH)
    if bad:
        res.failed += 1
        res.problems.extend(f"{scene.name}: {p}" for p in bad)
    return dets, ns


def _heldout(model, held, w: Workload, res: RunResult) -> list:
    return [_checked_detect(model, s, w, res)[0] for s in held]


def run_train(w: Workload, seed: int, trace: bool, res: RunResult, out_prefix: Path | None):
    repeats = 1 if trace else w.setup_repeats
    (train_scenes, held), gen_s, setup_s = repeat_setup(lambda: _train_setup(w, seed), repeats, res)
    if not trace:
        res.put("setup_s", setup_s, "s", repeats)
        p = _timed_train(train_scenes, w.iterations, probe=True)
        if not _count_train(p, w.iterations, res):
            return
        put_timings(res, p.op_ns, p.ref_ns)
        dets = _heldout(p.result.model, held, w, res)
        res.put("ap", detections_ap(dets, held), "AP", len(held))
        res.put("peak_rss_mb", peak_rss_mb(), "MB")
        res.info["training_digest"] = digest_training(p.result)
        return

    res.put("toydata.generate_toy_dataset.s", gen_s, "s", 1)
    # An untraced warm-up pass, then the traced and the untraced pass that
    # are compared, so both start with equally warm caches.
    n = max(w.iterations // 3, 1)
    warm = _timed_train(train_scenes, n)
    tr = tracing.Tracer()
    tr.begin_op()
    with tracing.installed(tr):
        traced = _timed_train(train_scenes, n, on_iteration=tr.begin_op, probe=True)
    plain = _timed_train(train_scenes, n, probe=True)
    passes = {"untraced warm-up": warm, "traced": traced, "untraced": plain}
    if not all([_count_train(p, n, res) for p in passes.values()]):
        return

    def outputs(result):
        dets = _heldout(result.model, held, w, res)
        return digest_training(result), digest_detections(dets), detections_ap(dets, held)

    _fidelity(res, {name: outputs(p.result) for name, p in passes.items()})
    _trace_metrics(res, tr, (plain.op_ns, plain.ref_ns), (traced.op_ns, traced.ref_ns), out_prefix)


# ----------------------------------------------------------------------
# detect workloads


def _detect_setup(w: Workload, seed: int, weights: Path):
    """Model construction and weight loading, scene generation and warm-up calls."""
    from msfacedet import ModelConfig, MultiScaleDetector

    model = MultiScaleDetector(ModelConfig(), seed=0)
    model.load(weights)
    t0 = time.perf_counter()
    scenes = _scenes(w, w.n_eval, seed, HELDOUT_STREAM)
    t_gen = time.perf_counter() - t0
    for s in scenes[: w.warmup_ops]:
        _detect(model, s, w.post_nms_top_n)
    return (model, scenes), t_gen


def _detect_loop(model, scenes, w: Workload, res: RunResult, seconds: float, min_ops: int, n_ops=None,
                 before_op=None, probe: bool = False):
    """Closed-loop detect calls over the scene pool, cycling when it runs out.

    Runs ``n_ops`` calls when given; otherwise for ``seconds`` and at least
    ``min_ops`` calls, but never past three times ``seconds``.  With
    ``probe`` the reference probe runs before each call and after the last.
    """
    times, ref_ns, dets_list = [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        if n_ops is not None:
            if i >= n_ops:
                break
        else:
            now = time.perf_counter() - start
            if (now >= seconds and i >= min_ops) or now >= 3 * seconds:
                break
        s = scenes[i % len(scenes)]
        if probe:
            ref_ns.append(reference_probe())
        if before_op is not None:
            before_op(s.gt_boxes)
        dets, ns = _checked_detect(model, s, w, res)
        times.append(ns)
        if i < len(scenes):
            dets_list.append(dets)
        i += 1
    if probe:
        ref_ns.append(reference_probe())
    return np.asarray(times, dtype=np.int64), ref_ns, dets_list


def run_detect(w: Workload, seed: int, seconds: float, trace: bool, res: RunResult, out_prefix: Path | None,
               build_dir: Path):
    weights, build_s = ensure_weights(w.weights, build_dir)
    res.info["weights"] = {"file": weights.name, "spec": repr(w.weights), "built_here_s": build_s}
    repeats = 1 if trace else w.setup_repeats
    (model, scenes), gen_s, setup_s = repeat_setup(lambda: _detect_setup(w, seed, weights), repeats, res)
    if not trace:
        res.put("setup_s", setup_s, "s", repeats)
        times, ref_ns, dets = _detect_loop(model, scenes, w, res, seconds, w.min_ops, probe=True)
        put_timings(res, times, ref_ns)
        res.put("ap", detections_ap(dets, scenes[: len(dets)]), "AP", len(dets))
        res.put("peak_rss_mb", peak_rss_mb(), "MB")
        res.info["detections_digest"] = digest_detections(dets)
        return

    res.put("toydata.generate_toy_dataset.s", gen_s, "s", 1)
    # An untraced warm-up pass, then the traced and the untraced pass that
    # are compared, so both start with equally warm caches.
    _, _, warm_dets = _detect_loop(model, scenes, w, res, seconds / 3, 1)
    k = len(warm_dets)
    tr = tracing.Tracer()
    with tracing.installed(tr):
        traced_ns, traced_ref, traced_dets = _detect_loop(
            model, scenes, w, res, 0, 0, n_ops=k, before_op=tr.begin_op, probe=True
        )
    plain_ns, plain_ref, plain_dets = _detect_loop(model, scenes, w, res, 0, 0, n_ops=k, probe=True)

    def outputs(dets):
        return digest_detections(dets), detections_ap(dets, scenes[: len(dets)])

    _fidelity(res, {"untraced warm-up": outputs(warm_dets), "traced": outputs(traced_dets),
                    "untraced": outputs(plain_dets)})
    _trace_metrics(res, tr, (plain_ns, plain_ref), (traced_ns, traced_ref), out_prefix)


# ----------------------------------------------------------------------
# traced-run bookkeeping


def _fidelity(res: RunResult, outputs: dict):
    """Every pass, traced or not, must give bit-identical outputs."""
    identical = len(set(outputs.values())) == 1
    res.info["fidelity"] = {"passes": outputs, "identical": identical}
    if not identical:
        res.problems.append(f"traced and untraced passes differ: {outputs}")


def _trace_metrics(res: RunResult, tr, plain: tuple, traced: tuple, out_prefix: Path | None):
    """Per-layer metrics of the traced pass.

    ``plain`` and ``traced`` are each pass's (op_ns, ref_ns).  The passes run
    one after the other, so their ratio is taken in probe units, which the
    machine's drift does not move.
    """
    traced_ns = int(traced[0].sum())
    n_ops = len(traced[0])
    for name, (value, unit) in tracing.layer_metrics(tr, n_ops, traced_ns).items():
        res.put(name, value, unit, n_ops)
    slowdown = probe_cost(*traced).sum() / probe_cost(*plain).sum()
    res.put("trace.overhead_frac", slowdown - 1.0, "ratio", n_ops)
    res.put("trace.self_sum_frac", tr.top_level_ns() / traced_ns * slowdown, "ratio", n_ops)
    res.info["traced_ops"] = n_ops
    res.info["spans"] = len(tr.name)
    if out_prefix is not None:
        path = out_prefix.with_name(out_prefix.name + ".spans.tsv")
        tr.write(path)
        res.info["spans_file"] = str(path)


def run(w: Workload, seed: int, seconds: float, trace: bool, out_prefix: Path | None, build_dir: Path) -> RunResult:
    res = RunResult()
    if w.kind == "train":
        run_train(w, seed, trace, res, out_prefix)
    else:
        run_detect(w, seed, seconds, trace, res, out_prefix, build_dir)
    return res
