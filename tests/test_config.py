import inspect
import json
import math
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace

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
    "stage_channels": (8, 16, 32, 64, 64),
    "rpn_channels": 256,
    "head_width": 256,
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
        assert RunConfig.__bases__ == (TrainConfig, EvalConfig)
        assert TrainConfig.__bases__ == (ModelConfig, DetectConfig)
        assert EvalConfig.__bases__ == (DetectConfig,)
        components = [c for c in RunConfig.__mro__ if is_dataclass(c)]
        assert set(components) == {RunConfig, DetectConfig, TrainConfig, EvalConfig, ModelConfig}
        # fields() of a subclass holds its bases' fields too: count each class's own declarations
        names = [name for c in components for name in inspect.get_annotations(c)]
        assert sorted(names) == sorted(f.name for f in fields(RunConfig))
        detect_keys = {f.name for f in fields(DetectConfig)}
        entries = (propose, postprocess_detections, MultiScaleDetector.detect, train, evaluate_detector, proposal_recall)
        for fn in entries:
            assert not detect_keys & set(inspect.signature(fn).parameters), fn.__name__
        assert list(inspect.signature(MultiScaleDetector).parameters) == ["cfg", "seed"]
        # one config each, read whole
        assert list(inspect.signature(train).parameters) == ["scenes", "cfg", "trace_every", "progress"]
        assert list(inspect.signature(evaluate_detector).parameters) == ["model", "scenes", "cfg"]

    def test_detect_config_reaches_propose_from_every_caller(self, monkeypatch):
        seen = []

        def recording_propose(*args):
            seen.append(args[5])
            return propose(*args)

        for module in (msfacedet.training, msfacedet.model, msfacedet.evaluation):
            monkeypatch.setattr(module, "propose", recording_propose)
        cfg = DetectConfig(pre_nms_top_n=500, post_nms_top_n=20, rpn_nms_thresh=0.6, min_size=2.0, det_nms_thresh=0.4)
        detect_fields = {f.name: getattr(cfg, f.name) for f in fields(DetectConfig)}
        scenes = generate_toy_dataset(1, 64, (16, 32), seed=3)
        model = train(scenes, TrainConfig(iterations=1, **detect_fields)).model
        proposal_recall(model, scenes, cfg)
        evaluate_detector(model, scenes, EvalConfig(**detect_fields))
        # train and evaluate_detector pass on their own config: compare its DetectConfig fields
        seen = [DetectConfig(**{key: getattr(c, key) for key in detect_fields}) for c in seen]
        assert seen == [cfg, cfg, replace(cfg, score_thresh=0.05)]

    def test_empty_text_gives_defaults(self):
        assert parse_run_config("# only a comment\n\n") == RunConfig()

    def test_parsed_config_passed_whole_gives_each_consumer_its_values(self, monkeypatch):
        text = "iterations = 5\nseed = 3\niou_threshold = 0.4\nroi_pool_size = 5\nmin_size = 2\n"
        cfg = parse_run_config(text + 'fusion_mode = "tap5"\npost_nms_top_n = 20\n')
        assert MultiScaleDetector(cfg).cfg.roi_pool_size == 5
        seen = {}
        real_evaluate_dataset = msfacedet.evaluation.evaluate_dataset

        def recording(module):
            def recording_propose(*args):
                limits = (args[5].min_size, args[5].post_nms_top_n, args[5].score_thresh)
                seen.setdefault(module.__name__, set()).add(limits)
                return propose(*args)

            return recording_propose

        def recording_evaluate_dataset(dets, gts, eval_cfg):
            seen["split_max"] = (eval_cfg.split_small_max, eval_cfg.split_medium_max)
            seen["iou_threshold"] = eval_cfg.iou_threshold
            return real_evaluate_dataset(dets, gts, eval_cfg)

        for module in (msfacedet.training, msfacedet.model):
            monkeypatch.setattr(module, "propose", recording(module))
        monkeypatch.setattr(msfacedet.evaluation, "evaluate_dataset", recording_evaluate_dataset)
        scenes = generate_toy_dataset(1, 64, (16, 32), seed=3)
        result = train(scenes, cfg)
        evaluate_detector(result.model, scenes, cfg)
        assert result.trace[-1][0] == 5
        assert (result.model.cfg.roi_pool_size, result.model.cfg.gamma_init) == (5, DEFAULTS["gamma_init"])
        assert result.model.fused_taps == ("tap5",)
        assert seen == {
            "msfacedet.training": {(2.0, 20, DEFAULTS["score_thresh"])},
            "msfacedet.model": {(2.0, 20, 0.05)},
            "split_max": (24.0, 64.0),
            "iou_threshold": 0.4,
        }


class TestRoundTrip:
    def test_every_key_type(self):
        lines = [
            "iterations = 17  # int",
            "learning_rate = 0.0025",
            "lr_drop = true",
            "anchor_scales = [1.5, 3]",
            "stage_channels = [4, 4, 8, 8, 8]",
            'fusion_mode = "tap5"',
            "data_dir = 'some/dir'",
        ]
        cfg = parse_run_config("\n".join(lines))
        # the other 22 keys spelled out at their defaults (JSON writes each of these values as TOML)
        set_keys = {line.split()[0] for line in lines}
        rest = [f"{key} = {json.dumps(value)}" for key, value in DEFAULTS.items() if key not in set_keys]
        assert len(lines + rest) == len(DEFAULTS)
        assert parse_run_config("\n".join(lines + rest)) == cfg
        assert cfg.iterations == 17
        assert cfg.learning_rate == 0.0025
        assert cfg.lr_drop is True
        assert cfg.anchor_scales == (1.5, 3.0)
        assert cfg.stage_channels == (4, 4, 8, 8, 8)
        assert all(type(c) is int for c in cfg.stage_channels)
        assert cfg.fusion_mode == "tap5"
        assert cfg.data_dir == "some/dir"
        model = MultiScaleDetector(cfg)
        assert model.fused_taps == ("tap5",)
        assert model.cfg.anchor_scales == (1.5, 3.0)
        assert model.params()["backbone.s5.c2.weight"].data.shape == (8, 8, 3, 3)

    @pytest.mark.parametrize("raw,expected", [("true", True), ("false", False)])
    def test_bool_spellings(self, raw, expected):
        assert parse_run_config(f"lr_drop={raw}").lr_drop is expected

    def test_an_integer_widens_to_a_float(self):
        cfg = parse_run_config("learning_rate = 1\nanchor_ratios = [1, 2.5]")
        assert (cfg.learning_rate, cfg.anchor_ratios) == (1.0, (1.0, 2.5))
        assert all(type(v) is float for v in (cfg.learning_rate, *cfg.anchor_ratios))


class TestRejected:
    @pytest.mark.parametrize(
        "text,message",
        [
            ("no_such_key = 1", "^cfg: unknown key 'no_such_key'$"),
            ('iterations = "many"', "^cfg: config key iterations: 'many' is not an integer$"),
            ("seed = true", "^cfg: config key seed: True is not an integer$"),
            ('lr_drop = "maybe"', "^cfg: config key lr_drop: 'maybe' is not true or false$"),
            ("lr_drop = 1", "^cfg: config key lr_drop: 1 is not true or false$"),
            ('learning_rate = "fast"', "^cfg: config key learning_rate: 'fast' is not a number$"),
            pytest.param(
                "learning_rate = 1" + "0" * 400,
                "^cfg: config key learning_rate: 10{400} is too large for a float$",
                id="learning_rate = 1e400 as an integer",
            ),
            ("score_thresh = 1.0", r"^cfg: config key score_thresh: 1.0 outside \[0, 1\)$"),
            ("det_nms_thresh = 0", r"^cfg: config key det_nms_thresh: 0.0 outside \(0, 1\)$"),
            ("gamma_init = 0", r"^cfg: config key gamma_init: 0.0 outside \(0, inf\)$"),
            ("anchor_ratios = []", r"^cfg: config key anchor_ratios: \(\): at least one element is needed"),
            ("anchor_scales = 2.0", r"^cfg: config key anchor_scales: 2.0 is not an array$"),
            ("anchor_scales = [[1.0]]", r"^cfg: config key anchor_scales: \[1.0\] is not a number$"),
            ('fusion_mode = "tap4"', "^cfg: config key fusion_mode: 'tap4' is not one of 'multi', 'tap5'$"),
            ("shrink_channels = 32", "^cfg: unknown key 'shrink_channels'$"),
            ("[train]\nseed = 1", "^cfg: unknown key 'train'$"),
            ("seed.value = 1", r"^cfg: config key seed: \{'value': 1\} is not an integer$"),
            ('checkpoint = {path = "x"}', r"^cfg: config key checkpoint: \{'path': 'x'\} is not a quoted string$"),
            ("data_dir = 1979-05-27", r"^cfg: config key data_dir: datetime.date\(1979, 5, 27\) is not a quoted"),
            ("just some words", r"^cfg: .* \(at line 1, column \d+\) \(config files are TOML: quote strings"),
            pytest.param("a = " + "[" * 3000 + "]" * 3000, "^cfg: values are nested too deeply$", id="a nested 3000 deep"),
            ("stage_channels = [8, 16, 32, 64]", r"^cfg: config key stage_channels: \(8, 16, 32, 64\): exactly five stage"),
            ("stage_channels = [8, 16, 32, 64, 64.5]", "^cfg: config key stage_channels: 64.5 is not an integer$"),
            ("head_width = 0", "^cfg: config key head_width: 0: only integers of at least 1 are allowed$"),
        ],
    )
    def test_config_error(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_run_config(text, source="cfg")

    @pytest.mark.parametrize(
        "old,new",
        [
            ("fusion_mode = tap5", 'fusion_mode = "tap5"'),
            ("stage_channels = 4, 4, 8, 8, 8", "stage_channels = [4, 4, 8, 8, 8]"),
            ("lr_drop = yes", "lr_drop = true"),
        ],
    )
    def test_old_spelling_fails_with_a_hint_to_its_toml_spelling(self, old, new):
        hint = r"\(config files are TOML: quote strings, write tuples as \[a, b\]\)$"
        with pytest.raises(ConfigError, match=f"^cfg: .*{hint}"):
            parse_run_config(old, source="cfg")
        assert parse_run_config(new) != RunConfig()

    def test_unknown_key_names_source_and_key(self):
        with pytest.raises(ConfigError, match=r"^cfg: unknown key 'bogus'$"):
            parse_run_config("seed = 1\nbogus = 2\n", source="cfg")

    def test_key_set_twice_names_its_second_line(self):
        text = "score_thresh = 0.9\nseed = 3\n# later\nscore_thresh = 0.1\n"
        with pytest.raises(ConfigError, match=r"^cfg: .*\(at line 4, column \d+\)"):
            parse_run_config(text, source="cfg")

    def test_missing_equals_names_line(self):
        with pytest.raises(ConfigError, match=r"^cfg: .*\(at line 1, column \d+\)"):
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

    def test_out_of_range_value_is_named_as_the_file_key_only_when_it_is_the_files(self):
        with pytest.raises(ConfigError, match=r"^cfg: config key iou_threshold: 2.0 outside \(0, 1\)$"):
            parse_run_config("iou_threshold = 2", source="cfg")
        assert parse_run_config("iou_threshold = 2", source="cfg", iou_threshold=0.4).iou_threshold == 0.4
        with pytest.raises(ConfigError, match=r"^iou_threshold 3 outside \(0, 1\)$"):
            parse_run_config("iou_threshold = 2", source="cfg", iou_threshold=3)
        # split_medium_max fails its range, but its value is the default, not the file's
        with pytest.raises(ConfigError, match=r"^split_medium_max 64.0 outside \(split_small_max 80.0, inf\)$"):
            parse_run_config("split_small_max = 80", source="cfg")

    def test_model_rejects_invalid_config(self):
        with pytest.raises(ValueError, match="gamma_init"):
            MultiScaleDetector(ModelConfig(gamma_init=0))


@pytest.mark.parametrize(
    "text",
    ["gamma_init = nan", "learning_rate = inf", "min_size = -inf", "anchor_scales = [1, nan]", "anchor_ratios = [inf]"],
)
def test_non_finite_value_names_the_key(text):
    key = text.split(" ")[0]
    with pytest.raises(ConfigError, match=f"config key {key}: .* is not finite"):
        parse_run_config(text)


def _numeric_fields(cls):
    return [f.name for f in fields(cls) if type(f.default) in (int, float, tuple)]


@pytest.mark.parametrize(
    "cls,key",
    [(cls, key) for cls in (ModelConfig, TrainConfig, DetectConfig, EvalConfig) for key in _numeric_fields(cls)],
)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_component_config_rejects_non_finite_field(cls, key, bad):
    default = getattr(cls(), key)
    # a tuple keeps its length, so only the element check can reject it
    value = default[:-1] + (bad,) if type(default) is tuple else bad
    with pytest.raises(ValueError, match=f"^{key} "):
        cls(**{key: value})


def _toy_dataset(**given):
    return generate_toy_dataset(**{"n_images": 1, "image_size": 64, "face_scale_range": (16, 32), "seed": 0, **given})


@pytest.mark.parametrize(
    "cls,key",
    [(cls, f.name) for cls in (ModelConfig, TrainConfig, DetectConfig) for f in fields(cls) if type(f.default) is int]
    + [(_toy_dataset, key) for key in ("n_images", "image_size", "seed")],
)
@pytest.mark.parametrize("bad", [2.5, True])
def test_component_config_rejects_non_integer_int_field(cls, key, bad):
    with pytest.raises(ValueError, match=f"^{key} {bad!r}: only integers"):
        cls(**{key: bad})


def test_toy_dataset_rejects_a_negative_image_count():
    with pytest.raises(ValueError, match="^n_images -2: only integers of at least 0"):
        _toy_dataset(n_images=-2)


# one out-of-range value per config class, on a field whose message names it
OUT_OF_RANGE = {
    DetectConfig: ("rpn_nms_thresh", 1.0),
    ModelConfig: ("roi_pool_size", 0),
    TrainConfig: ("iterations", 0),
    EvalConfig: ("iou_threshold", 1.5),
    RunConfig: ("post_nms_top_n", 0),
}


@pytest.mark.parametrize("cls", list(OUT_OF_RANGE), ids=lambda cls: cls.__name__)
def test_config_cannot_change_after_it_is_built(cls):
    cfg = cls()
    for f in fields(cls):
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, f.name, getattr(cfg, f.name))
    assert cfg == cls()
    key, bad = OUT_OF_RANGE[cls]
    with pytest.raises(ConfigError if cls is RunConfig else ValueError, match=f"^{key} "):
        replace(cfg, **{key: bad})


@pytest.mark.parametrize("cls", [ModelConfig, RunConfig], ids=lambda cls: cls.__name__)
def test_config_built_from_lists_is_the_value_built_from_tuples(cls):
    seqs = {"anchor_scales": (1.0, 2.0), "anchor_ratios": (1.0,), "stage_channels": (4, 4, 8, 8, 8)}
    from_lists = cls(**{key: list(value) for key, value in seqs.items()})
    from_tuples = cls(**seqs)
    assert from_lists == from_tuples
    assert hash(from_lists) == hash(from_tuples)
