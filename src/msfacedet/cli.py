"""Command-line entry points: data generation, training, detection,
evaluation, gradient checking and the fusion-vs-single-tap ablation."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .annotations import AnnotationRecord, format_annotations, load_annotations
from .checks import MODEL_CHECK_SEEDS, TOLERANCE, run_suite
from .config import RunConfig, load_run_config
from .evaluation import EvalConfig, evaluate_dataset, evaluate_detector, format_report
from .imageio import load_image, overlay_boxes, write_pgm, write_ppm
from .model import FUSED_TAPS, ModelConfig, MultiScaleDetector
from .rpn import DetectConfig
from .toydata import ToyScene, generate_toy_dataset
from .training import TrainConfig, format_trace, train


class _OutputTracker:
    """Records files and directories created by a command so failures leave
    no partial output."""

    def __init__(self):
        self.paths = []
        self.dirs = []

    def write_text(self, path, text: str):
        self.note(Path(path)).write_text(text)

    def note(self, path):
        self.paths.append(Path(path))
        return path

    def mkdir(self, path):
        path = Path(path)
        self.dirs += reversed([p for p in (path, *path.parents) if not p.exists()])
        path.mkdir(parents=True, exist_ok=True)
        return path

    def discard_all(self):
        for p in self.paths:
            try:
                p.unlink()
            except OSError:
                pass
        for d in reversed(self.dirs):
            try:
                d.rmdir()
            except OSError:
                pass


def _image_ids(paths, source) -> list:
    """The image id (file stem) of each path, in order; raise ``ValueError``
    naming both paths when two share an id."""
    seen = {}
    for path in paths:
        stem = Path(path).stem
        if stem in seen:
            raise ValueError(f"{source}: images {seen[stem]} and {path} share the image id {stem!r}")
        seen[stem] = path
    return list(seen)


def _load_scenes(data_dir: Path):
    """Scenes from a directory holding images plus annotations.txt."""
    ann_path = data_dir / "annotations.txt"
    if not ann_path.is_file():
        raise FileNotFoundError(f"{ann_path} not found")
    records = load_annotations(ann_path)
    scenes = []
    for image_id, rec in zip(_image_ids([rec.image_path for rec in records], ann_path), records):
        img_path = data_dir / rec.image_path
        if not img_path.is_file():
            raise FileNotFoundError(f"annotated image {img_path} not found")
        tensor, orig_w, orig_h = load_image(img_path)
        scenes.append(
            ToyScene(
                name=image_id,
                image=tensor,
                gt_boxes=rec.boxes,
                width=orig_w,
                height=orig_h,
                requested_faces=len(rec.boxes),
            )
        )
    return scenes


def _write_dataset(out_dir: Path, scenes, tracker: _OutputTracker):
    tracker.mkdir(out_dir)
    records = []
    for scene in scenes:
        name = f"{scene.name}.pgm"
        write_pgm(tracker.note(out_dir / name), scene.image[0, 0])
        records.append(AnnotationRecord(image_path=name, boxes=scene.gt_boxes))
    tracker.write_text(out_dir / "annotations.txt", format_annotations(records))


def cmd_gen_data(args, tracker) -> int:
    scenes = generate_toy_dataset(
        n_images=args.n_images,
        image_size=args.image_size,
        face_scale_range=(args.face_min, args.face_max),
        seed=args.seed,
    )
    _write_dataset(Path(args.out), scenes, tracker)
    short = sum(1 for s in scenes if len(s.gt_boxes) < s.requested_faces)
    print(f"wrote {len(scenes)} scenes to {args.out}" + (f" ({short} with reduced face count)" if short else ""))
    return 0


def _config_from_args(args) -> RunConfig:
    """The --config file (or the defaults) with every given flag that stores
    into a config key (``--data`` into ``data_dir``, say) applied on top,
    validated together."""
    cfg = load_run_config(args.config) if getattr(args, "config", None) else RunConfig()
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value not in (None, ""):
            setattr(cfg, f.name, value)
    cfg.validate()
    return cfg


def cmd_train(args, tracker) -> int:
    cfg = _config_from_args(args)
    out_dir = Path(cfg.out_dir)
    scenes = _load_scenes(Path(cfg.data_dir))
    tracker.mkdir(out_dir)
    result = train(
        scenes,
        cfg.component(TrainConfig),
        cfg.component(ModelConfig),
        detect_cfg=cfg.component(DetectConfig),
        progress=lambda it, c: print(f"iter {it}: total {c['total']:.4f}") if it % 200 == 0 else None,
    )
    tracker.write_text(out_dir / "loss_trace.txt", format_trace(result.trace))
    ckpt_path = tracker.note(out_dir / "checkpoint.msfr")
    result.model.save(ckpt_path)
    print(
        f"trained {cfg.iterations} iterations ({result.skipped} skipped for lack of anchor "
        f"targets); checkpoint at {ckpt_path}"
    )
    return 0


def _detections_to_text(dets) -> str:
    lines = [
        f"{d.box[0]:.6f} {d.box[1]:.6f} {d.box[2]:.6f} {d.box[3]:.6f} {d.score:.6f}"
        for d in dets
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def cmd_detect(args, tracker) -> int:
    cfg = _config_from_args(args)
    data_dir, out_dir = Path(cfg.data_dir), Path(cfg.out_dir)
    ckpt = Path(cfg.checkpoint)
    if not ckpt.is_file():
        raise FileNotFoundError(f"checkpoint {ckpt} not found")
    images = sorted(p for p in data_dir.iterdir() if p.suffix in (".pgm", ".ppm"))
    if not images:
        raise FileNotFoundError(f"no .pgm/.ppm images in {data_dir}")
    image_ids = _image_ids(images, data_dir)
    if args.overlay:
        inputs = {p.resolve(): p for p in images}
        for image_id, img_path in zip(image_ids, images):
            overlay = (out_dir / f"{image_id}_overlay.ppm").resolve()
            if overlay in inputs:
                raise ValueError(f"the overlay of {img_path} would overwrite the input image {inputs[overlay]}")
    model = MultiScaleDetector(cfg.component(ModelConfig), seed=0)
    model.load(ckpt)
    detect_cfg = cfg.component(DetectConfig)
    tracker.mkdir(out_dir)
    for image_id, img_path in zip(image_ids, images):
        tensor, orig_w, orig_h = load_image(img_path)
        dets = model.detect(tensor, orig_w, orig_h, detect_cfg)
        tracker.write_text(out_dir / f"{image_id}.txt", _detections_to_text(dets))
        if args.overlay:
            rgb = overlay_boxes(tensor[0, 0, :orig_h, :orig_w], [d.box for d in dets])
            write_ppm(tracker.note(out_dir / f"{image_id}_overlay.ppm"), rgb)
    print(f"detections for {len(images)} images written to {out_dir}")
    return 0


def _parse_detection_file(path: Path):
    """Boxes (N, 4) and scores (N,) from lines ``x1 y1 x2 y2 score`` of five
    finite numbers; :func:`evaluate_dataset` holds the boxes to
    :func:`~msfacedet.boxes.check_boxes`, which rejects one without x2 > x1
    and y2 > y1."""
    rows = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            vals = [float(v) for v in line.split()]
        except ValueError:
            vals = []
        if len(vals) != 5 or not np.isfinite(vals).all():
            raise ValueError(f"{path}:{lineno}: expected 5 finite numbers, got {line!r}")
        rows.append(vals)
    rows = np.array(rows).reshape(-1, 5)
    return rows[:, :4], rows[:, 4]


def cmd_eval(args, tracker) -> int:
    cfg = _config_from_args(args)
    ann_path = Path(cfg.annotations)
    det_dir = Path(cfg.detections)
    if not ann_path.is_file():
        raise FileNotFoundError(f"annotation file {ann_path} not found")
    if not det_dir.is_dir():
        raise FileNotFoundError(f"detection directory {det_dir} not found")
    records = load_annotations(ann_path)
    gts = dict(zip(_image_ids([rec.image_path for rec in records], ann_path), [rec.boxes for rec in records]))
    dets = {p.stem: _parse_detection_file(p) for p in sorted(det_dir.glob("*.txt"))}
    report = evaluate_dataset(dets, gts, cfg.component(EvalConfig))
    text = format_report(report)
    if args.out:
        tracker.write_text(args.out, text)
    sys.stdout.write(text)
    return 0


def cmd_gradcheck(args, tracker) -> int:
    seeds = tuple(range(args.seeds))
    results = run_suite(
        seeds=seeds,
        model_seeds=MODEL_CHECK_SEEDS[: args.seeds],
        include_model=not args.skip_model,
    )
    width = max(len(name) for name, _ in results)
    failed = False
    for name, err in results:
        ok = err <= TOLERANCE
        failed |= not ok
        print(f"{name:<{width}}  max_rel_err={err:.3e}  {'ok' if ok else 'FAIL'}")
    return 1 if failed else 0


def cmd_ablate(args, tracker) -> int:
    cfg = _config_from_args(args)
    train_scenes = _load_scenes(Path(cfg.data_dir))
    eval_scenes = _load_scenes(Path(args.eval_data))
    out_dir = Path(cfg.out_dir)
    tracker.mkdir(out_dir)
    detect_cfg = cfg.component(DetectConfig)
    aps = {}
    for mode in FUSED_TAPS:
        cfg.fusion_mode = mode
        result = train(train_scenes, cfg.component(TrainConfig), cfg.component(ModelConfig), detect_cfg=detect_cfg)
        report = evaluate_detector(result.model, eval_scenes, cfg.component(EvalConfig), detect_cfg)
        tracker.write_text(out_dir / f"report_{mode}.txt", format_report(report))
        aps[mode] = report.overall.ap if report.overall.ap is not None else float("nan")
        print(f"{mode} ap_overall {aps[mode]:.6f}")
    print(f"multi-scale margin {aps['multi'] - aps['tap5']:+.6f}")
    return 0


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="msfacedet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic scene dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n-images", type=positive_int, default=100)
    p.add_argument("--image-size", type=int, default=128)
    p.add_argument("--face-min", type=int, default=16)
    p.add_argument("--face-max", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train on a generated dataset")
    p.add_argument("--data", dest="data_dir", metavar="DATA", help="dataset directory (images + annotations.txt)")
    p.add_argument("--out", dest="out_dir", metavar="OUT", help="output directory for checkpoint + loss trace")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--iterations", type=int)
    p.add_argument("--fusion-mode", choices=tuple(FUSED_TAPS))
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("detect", help="run a checkpoint over images")
    p.add_argument("--checkpoint")
    p.add_argument("--data", dest="data_dir", metavar="DATA", help="directory of .pgm/.ppm images")
    p.add_argument("--out", dest="out_dir", metavar="OUT", help="output directory for detection files")
    p.add_argument("--config")
    p.add_argument("--score-thresh", type=float)
    p.add_argument("--overlay", action="store_true", help="also write box-overlay PPMs")
    p.add_argument("--fusion-mode", choices=tuple(FUSED_TAPS))
    p.set_defaults(fn=cmd_detect)

    p = sub.add_parser("eval", help="score detection files against annotations")
    p.add_argument(
        "--detections", help="directory of <image id>.txt files of 'x1 y1 x2 y2 score' lines, x2 > x1 and y2 > y1"
    )
    p.add_argument("--annotations", help="annotation file")
    p.add_argument("--out", help="report file (also printed)")
    p.add_argument("--config")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of every backward pass")
    p.add_argument("--seeds", type=positive_int, default=2, help="number of seeds per check")
    p.add_argument("--skip-model", action="store_true", help="skip the end-to-end model check")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("ablate", help="train multi-scale and tap5-only on the same data, report both")
    p.add_argument("--data", dest="data_dir", metavar="DATA", required=True, help="training dataset directory")
    p.add_argument("--eval-data", required=True, help="held-out dataset directory")
    p.add_argument("--out", dest="out_dir", metavar="OUT", help="output directory for the two reports")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--iterations", type=int)
    p.set_defaults(fn=cmd_ablate)
    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    tracker = _OutputTracker()
    try:
        return args.fn(args, tracker)
    except Exception as e:  # runtime failure: report, remove partial outputs
        tracker.discard_all()
        print(f"error: {e}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
