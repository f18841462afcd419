"""Calibration: held-out AP vs iteration count on the standard toy task."""

import sys
import time

from msfacedet.evaluation import evaluate_detector, proposal_recall
from msfacedet.rpn import DetectConfig
from msfacedet.toydata import generate_toy_dataset
from msfacedet.training import TrainConfig, train


def main():
    iters = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 7
    lr = float(sys.argv[3]) if len(sys.argv) > 3 else 1e-3
    train_scenes = generate_toy_dataset(500, 128, (16, 64), seed=seed)
    held = generate_toy_dataset(100, 128, (16, 64), seed=999)
    t0 = time.time()
    cfg = TrainConfig(iterations=iters, seed=seed, learning_rate=lr)
    res = train(
        train_scenes,
        cfg,
        progress=lambda it, c: print(f"iter {it} total {c['total']:.4f}", flush=True)
        if it % 200 == 0
        else None,
    )
    t_train = time.time() - t0
    detect_cfg = DetectConfig()
    rec = proposal_recall(res.model, held[:40], detect_cfg)
    ap = evaluate_detector(res.model, held, detect_cfg=detect_cfg).overall.ap
    print(
        f"seed={seed} iters={iters} lr={lr} train_time={t_train/60:.1f}min "
        f"recall@{detect_cfg.post_nms_top_n}={rec:.3f} AP={ap:.4f}",
        flush=True,
    )


if __name__ == "__main__":
    main()
