import pytest

from msfacedet import ModelConfig, TrainConfig, generate_toy_dataset, train


@pytest.mark.parametrize("mode", ["multi", "tap5"])
def test_same_seed_gives_bit_identical_trace_and_checkpoint(mode, tmp_path):
    scenes = generate_toy_dataset(3, 64, (16, 32), seed=1)
    cfg = TrainConfig(iterations=4, seed=5)
    runs = []
    for name in ("a", "b"):
        result = train(scenes, cfg, ModelConfig(fusion_mode=mode), trace_every=1)
        path = tmp_path / f"{name}.msfr"
        result.model.save(path)
        runs.append((result.trace, path.read_bytes()))
    (trace_a, ckpt_a), (trace_b, ckpt_b) = runs
    assert len(trace_a) == cfg.iterations
    assert trace_a == trace_b
    assert ckpt_a == ckpt_b
