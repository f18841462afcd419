"""Diagnostics: overfit a small set, inspect loss components and RPN recall."""

import sys
import time

from msfacedet.evaluation import evaluate_detector, proposal_recall
from msfacedet.rpn import DetectConfig
from msfacedet.toydata import generate_toy_dataset
from msfacedet.training import TrainConfig, train


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 50
    iters = int(sys.argv[2]) if len(sys.argv) > 2 else 1500
    lr = float(sys.argv[3]) if len(sys.argv) > 3 else 1e-3
    scenes = generate_toy_dataset(n, 128, (16, 64), seed=7)
    cfg = TrainConfig(iterations=iters, seed=7, learning_rate=lr)
    t0 = time.time()

    def prog(it, c):
        if it % 100 == 0:
            print(
                f"it {it}: tot {c['total']:.3f} rpn_cls {c['rpn_cls']:.3f} "
                f"rpn_reg {c['rpn_reg']:.3f} det_cls {c['det_cls']:.3f} det_reg {c['det_reg']:.3f}",
                flush=True,
            )

    res = train(scenes, cfg, progress=prog)
    print(f"time {(time.time()-t0)/60:.1f} min")
    recall = proposal_recall(res.model, scenes[:20], DetectConfig(post_nms_top_n=50))
    print(f"rpn recall@50 on train: {recall:.3f}")
    print(f"train-set AP: {evaluate_detector(res.model, scenes[:30]).overall.ap:.3f}")


if __name__ == "__main__":
    main()
