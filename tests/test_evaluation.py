from msfacedet import DetectConfig, ModelConfig, MultiScaleDetector, generate_toy_dataset
from msfacedet.evaluation import evaluate_detector, proposal_recall


def test_model_level_helpers():
    scenes = generate_toy_dataset(2, 64, (16, 32), seed=3)
    model = MultiScaleDetector(ModelConfig(), seed=0)
    recalls = [proposal_recall(model, scenes, DetectConfig(post_nms_top_n=k)) for k in (1, 5, 50, 300)]
    assert recalls == sorted(recalls) and recalls[-1] <= 1.0
    report = evaluate_detector(model, scenes)
    assert report.overall.n_gt == sum(len(s.gt_boxes) for s in scenes)
    assert report.overall.n_det == sum(len(model.detect(s.image, 64, 64, score_thresh=0.05)) for s in scenes)
