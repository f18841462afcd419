import inspect
import math
from dataclasses import fields, is_dataclass, replace

import pytest

import msfacedet.evaluation
import msfacedet.model
import msfacedet.training
from msfacedet import generate_toy_dataset
from msfacedet.config import ConfigError, RunConfig, parse_run_config
from msfacedet.detector import postprocess_detections
from msfacedet.evaluation import EvalConfig, evaluate_detector, proposal_recall
from msfacedet.model import ModelConfig, MultiScaleDetector
from msfacedet.rpn import DetectConfig, propose
from msfacedet.training import TrainConfig, train

DEFAULTS = {
    "learning_rate": 1e-3,
    "momentum": 0.9,
    "weight_decay": 5e-4,
    "iterations": 2000,
    "seed": 7,
    "loss_lambda": 1.0,
    "lr_drop": False,
    "pre_nms_top_n": 2000,
    "post_nms_top_n": 300,
    "rpn_nms_thresh": 0.7,
    "min_size": 4.0,
    "anchor_scales": (1.0, 2.0, 4.0),
    "anchor_ratios": (1.0, 1.3),
    "roi_pool_size": 7,
    "gamma_init": 10.0,
    "fusion_mode": "multi",
    "iou_threshold": 0.5,
    "split_small_max": 24.0,
    "split_medium_max": 64.0,
    "score_thresh": 0.8,
    "det_nms_thresh": 0.3,
    "data_dir": "",
    "out_dir": "",
    "checkpoint": "",
    "annotations": "",
    "detections": "",
}


class TestRunConfigKeys:
    def test_exact_key_set_and_defaults(self):
        cfg = RunConfig()
        assert {f.name for f in fields(RunConfig)} == set(DEFAULTS)
        for key, value in DEFAULTS.items():
            got = getattr(cfg, key)
            assert type(got) is type(value), key
            assert got == value, key

    def test_each_setting_is_declared_once(self):
        components = [c for c in RunConfig.__mro__[1:] if is_dataclass(c)]
        assert set(components) == {DetectConfig, TrainConfig, EvalConfig, ModelConfig}
        names = [f.name for c in components for f in fields(c)]
        assert len(names) == len(set(names))
        detect_keys = {f.name for f in fields(DetectConfig)}
        entries = (propose, postprocess_detections, MultiScaleDetector.detect, train, evaluate_detector, proposal_recall)
        for fn in entries:
            assert not detect_keys & set(inspect.signature(fn).parameters), fn.__name__

    def test_detect_config_reaches_propose_from_every_caller(self, monkeypatch):
        seen = []

        def recording_propose(*args):
            seen.append(args[5])
            return propose(*args)

        for module in (msfacedet.training, msfacedet.model, msfacedet.evaluation):
            monkeypatch.setattr(module, "propose", recording_propose)
        cfg = DetectConfig(pre_nms_top_n=500, post_nms_top_n=20, rpn_nms_thresh=0.6, min_size=2.0, det_nms_thresh=0.4)
        scenes = generate_toy_dataset(1, 64, (16, 32), seed=3)
        model = train(scenes, TrainConfig(iterations=1), detect_cfg=cfg).model
        proposal_recall(model, scenes, cfg)
        evaluate_detector(model, scenes, detect_cfg=cfg)
        assert seen == [cfg, cfg, replace(cfg, score_thresh=0.05)]

    def test_empty_text_gives_defaults(self):
        assert parse_run_config("# only a comment\n\n") == RunConfig()

    def test_component_configs_carry_the_values(self):
        cfg = parse_run_config("iterations = 5\nseed = 3\niou_threshold = 0.4\nroi_pool_size = 5\nmin_size = 2\n")
        train_cfg, eval_cfg, model_cfg = (cfg.component(c) for c in (TrainConfig, EvalConfig, ModelConfig))
        assert type(train_cfg) is TrainConfig and type(eval_cfg) is EvalConfig and type(model_cfg) is ModelConfig
        assert cfg.component(DetectConfig) == DetectConfig(min_size=2.0)
        assert (train_cfg.iterations, train_cfg.seed) == (5, 3)
        assert train_cfg.learning_rate == DEFAULTS["learning_rate"]
        assert eval_cfg.iou_threshold == 0.4
        assert eval_cfg.split_medium_max == DEFAULTS["split_medium_max"]
        assert model_cfg.roi_pool_size == 5
        assert model_cfg.gamma_init == DEFAULTS["gamma_init"]


class TestRoundTrip:
    def test_every_key_type(self):
        text = "\n".join(
            [
                "iterations = 17  # int",
                "learning_rate = 0.0025",
                "lr_drop = yes",
                "anchor_scales = 1.5, 3,",
                "fusion_mode = tap5",
                "data_dir = some/dir",
            ]
        )
        cfg = parse_run_config(text)
        assert cfg.iterations == 17
        assert cfg.learning_rate == 0.0025
        assert cfg.lr_drop is True
        assert cfg.anchor_scales == (1.5, 3.0)
        assert cfg.fusion_mode == "tap5"
        assert cfg.data_dir == "some/dir"
        assert cfg.component(ModelConfig).fusion_mode == "tap5"
        assert cfg.component(ModelConfig).anchor_scales == (1.5, 3.0)

    @pytest.mark.parametrize("raw,expected", [("true", True), ("1", True), ("No", False), ("false", False)])
    def test_bool_spellings(self, raw, expected):
        assert parse_run_config(f"lr_drop={raw}").lr_drop is expected


class TestRejected:
    @pytest.mark.parametrize(
        "text",
        [
            "no_such_key = 1",
            "iterations = many",
            "lr_drop = maybe",
            "learning_rate = fast",
            "score_thresh = 1.0",
            "det_nms_thresh = 0",
            "gamma_init = 0",
            "anchor_ratios = ,",
            "fusion_mode = tap4",
            "shrink_channels = 32",
            "just some words",
        ],
    )
    def test_config_error(self, text):
        with pytest.raises(ConfigError):
            parse_run_config(text)

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match=r"cfg:2: unknown key 'bogus'"):
            parse_run_config("seed = 1\nbogus = 2\n", source="cfg")

    def test_key_set_twice_names_both_lines(self):
        text = "score_thresh = 0.9\nseed = 3\n# later\nscore_thresh = 0.1\n"
        with pytest.raises(ConfigError, match=r"cfg:4: key 'score_thresh' is set again, first at line 1"):
            parse_run_config(text, source="cfg")

    def test_missing_equals_names_line(self):
        with pytest.raises(ConfigError, match=r"cfg:1: expected key=value"):
            parse_run_config("iterations 5", source="cfg")

    @pytest.mark.parametrize("key", ["image_size", "base_stride", "shrink_channels"])
    def test_removed_key_is_unknown(self, key):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_run_config(f"{key} = 16")

    @pytest.mark.parametrize(
        "text", ["iterations = 0", "roi_pool_size = 0", "iou_threshold = 2", "split_small_max = 80"]
    )
    def test_out_of_range_component_value(self, text):
        with pytest.raises(ValueError):
            parse_run_config(text)

    def test_model_rejects_invalid_config(self):
        with pytest.raises(ValueError, match="gamma_init"):
            MultiScaleDetector(ModelConfig(gamma_init=0))


@pytest.mark.parametrize(
    "text", ["gamma_init = nan", "learning_rate = inf", "min_size = -inf", "anchor_scales = 1,nan", "anchor_ratios = inf"]
)
def test_non_finite_value_names_the_key(text):
    key = text.split(" ")[0]
    with pytest.raises(ConfigError, match=f"config key {key}: .* is not finite"):
        parse_run_config(text)


def _numeric_fields(cls):
    return [f.name for f in fields(cls) if type(f.default) in (int, float, tuple)]


@pytest.mark.parametrize(
    "cls,key", [(cls, key) for cls in (ModelConfig, TrainConfig, DetectConfig) for key in _numeric_fields(cls)]
)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_component_config_rejects_non_finite_field(cls, key, bad):
    cls().validate()
    value = (1.0, bad) if type(getattr(cls(), key)) is tuple else bad
    with pytest.raises(ValueError):
        cls(**{key: value}).validate()


@pytest.mark.parametrize(
    "cls,key",
    [(cls, f.name) for cls in (ModelConfig, TrainConfig, DetectConfig) for f in fields(cls) if type(f.default) is int],
)
@pytest.mark.parametrize("bad", [2.5, True])
def test_component_config_rejects_non_integer_int_field(cls, key, bad):
    with pytest.raises(ValueError, match=f"^{key} {bad!r}: only integers"):
        cls(**{key: bad}).validate()
