"""Calibration on the standard toy task, or an overfit check on a few scenes.

    python scripts/calibrate.py [ITERS [SEED [LR [N]]]]

Without N, trains on 500 scenes and reports proposal recall@300 on 40
held-out scenes and AP on 100.  With N, trains on N scenes and reports
recall@50 on the first 20 of them and AP on the first 30: the training set
itself, which a working pipeline should overfit.  Defaults: 2000
iterations, seed 7, learning rate 1e-3.
"""

import sys
import time

from msfacedet.evaluation import evaluate_detector, proposal_recall
from msfacedet.rpn import DetectConfig
from msfacedet.toydata import generate_toy_dataset
from msfacedet.training import TrainConfig, train


def progress(it, c):
    if it % 100 == 0:
        print(
            f"it {it}: tot {c['total']:.3f} rpn_cls {c['rpn_cls']:.3f} "
            f"rpn_reg {c['rpn_reg']:.3f} det_cls {c['det_cls']:.3f} det_reg {c['det_reg']:.3f}",
            flush=True,
        )


def main():
    iters = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 7
    lr = float(sys.argv[3]) if len(sys.argv) > 3 else 1e-3
    if len(sys.argv) > 4:
        train_scenes = generate_toy_dataset(int(sys.argv[4]), 128, (16, 64), seed=seed)
        recall_scenes, ap_scenes = train_scenes[:20], train_scenes[:30]
        recall_cfg = DetectConfig(post_nms_top_n=50)
    else:
        train_scenes = generate_toy_dataset(500, 128, (16, 64), seed=seed)
        ap_scenes = generate_toy_dataset(100, 128, (16, 64), seed=999)
        recall_scenes = ap_scenes[:40]
        recall_cfg = DetectConfig()
    t0 = time.time()
    res = train(train_scenes, TrainConfig(iterations=iters, seed=seed, learning_rate=lr), progress=progress)
    t_train = time.time() - t0
    rec = proposal_recall(res.model, recall_scenes, recall_cfg)
    ap = evaluate_detector(res.model, ap_scenes).overall.ap
    print(
        f"seed={seed} iters={iters} lr={lr} train_time={t_train/60:.1f}min "
        f"recall@{recall_cfg.post_nms_top_n}={rec:.3f} AP={ap:.4f}",
        flush=True,
    )


if __name__ == "__main__":
    main()
