"""Architecture assembly: config plumbing, shapes, SE/residual behavior."""

import numpy as np
import pytest

from segforge.errors import ConfigError, ShapeError
from segforge.model import (PRESETS, Bottleneck, ModelConfig, SEBlock,
                            SegmentationModel, build_model, init_parameters)
from segforge.tensor import Tensor, _tape, backward, no_grad

from oracles import (closure_arrays, grad_check, he_init_module, root_array,
                     screened_bottleneck_instances, tape_bytes)


def randx(seed, *dims, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor((rng.normal(0, 1, dims) * scale).astype(np.float64),
                  requires_grad=True)


class TestModelConfig:
    def test_defaults_are_full_width(self):
        cfg = ModelConfig()
        assert cfg.stem_width == 64
        assert cfg.stage_depths == (3, 8, 36, 3)
        assert cfg.tap_channels == (64, 256, 512, 1024, 2048)

    def test_desk_preset_taps(self):
        cfg = PRESETS["desk"]
        assert cfg.stage_depths == (1, 1, 1, 1)
        assert cfg.tap_channels == (16, 64, 128, 256, 512)

    def test_dict_round_trip(self):
        cfg = PRESETS["desk"]
        again = ModelConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_from_dict_rejects_unknown_keys(self):
        d = ModelConfig().to_dict()
        d["stem_widht"] = 32
        with pytest.raises(ConfigError):
            ModelConfig.from_dict(d)

    def test_from_dict_wrong_types_are_config_errors(self):
        for d in (5, "ab", [["seed", 1]], {"stage_depths": 5}, {"decoder_channels": None},
                  {"stage_depths": "abcd"}, {"stem_width": "x"}, {"reduction": 0}):
            with pytest.raises(ConfigError):
                ModelConfig.from_dict(d)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ModelConfig(stage_depths=(1, 1, 1))
        with pytest.raises(ConfigError):
            ModelConfig(stage_depths=(1, 1, 0, 1))
        with pytest.raises(ConfigError):
            ModelConfig(decoder_channels=(64, 32, 16))
        with pytest.raises(ConfigError):
            ModelConfig(stem_width=30, reduction=16)


class TestForwardShapes:
    def test_desk_forward_and_taps(self):
        model = build_model(PRESETS["desk"])
        x = Tensor(np.random.default_rng(0).normal(0, 1, (2, 3, 64, 64)).astype(np.float32))
        with no_grad():
            taps = model.encoder(x)
            out = model(x)
        assert [t.shape for t in taps] == [
            (2, 16, 32, 32), (2, 64, 16, 16), (2, 128, 8, 8),
            (2, 256, 4, 4), (2, 512, 2, 2)]
        assert out.shape == (2, 4, 64, 64)

    def test_input_validation(self):
        model = SegmentationModel(PRESETS["desk"])
        with pytest.raises(ShapeError):
            model(Tensor(np.zeros((3, 64, 64), dtype=np.float32)))
        with pytest.raises(ShapeError):
            model(Tensor(np.zeros((1, 2, 64, 64), dtype=np.float32)))
        with pytest.raises(ShapeError):
            model(Tensor(np.zeros((1, 3, 48, 64), dtype=np.float32)))

    def test_training_forward_updates_running_stats(self):
        model = build_model(PRESETS["desk"])
        before = {n: b.copy() for n, b in model.named_buffers()}
        x = Tensor(np.random.default_rng(1).normal(0, 1, (2, 3, 64, 64)).astype(np.float32))
        with no_grad():
            model(x, training=True)
        changed = [n for n, b in model.named_buffers() if not np.array_equal(b, before[n])]
        assert changed, "training forward should move batch-norm running stats"


class TestTapeMemory:
    def test_training_forward_keeps_each_activation_once(self):
        model = build_model(PRESETS["desk"])
        x = Tensor(np.random.default_rng(2).normal(0, 1, (4, 3, 64, 64)).astype(np.float32))
        try:
            model(x, training=True)
            nodes = list(_tape())
        finally:
            _tape().clear()
        # 30.4 MB when batch norm kept xhat, relu its mask and conv2d its lowering
        assert tape_bytes(nodes, model.parameters()) <= 13e6
        for node in nodes:
            if node.op not in ("conv2d", "batch_norm"):
                continue
            own = {id(root_array(t.data)) for t in node.inputs + (node.output,)}
            extra = [a.shape for a in closure_arrays(node.grad_fn)
                     if id(root_array(a)) not in own and a.size > node.output.shape[1]]
            assert not extra, f"{node.op} rule keeps {extra}"


class TestSEBlock:
    def test_gate_strictly_between_zero_and_one(self):
        se = SEBlock(8, 4)
        rng = np.random.default_rng(0)
        for p in se.parameters():
            p.data[...] = rng.normal(0, 0.5, p.shape)
        x = Tensor(np.abs(rng.normal(0, 1, (3, 8, 5, 5))) + 0.1)
        with no_grad():
            y = se(x)
        gate = y.data / x.data
        assert np.all(gate > 0.0) and np.all(gate < 1.0)

    def test_zeroed_second_dense_halves_activations_exactly(self):
        # fc2 weight and bias both zero -> sigmoid(0) = 0.5 gate everywhere
        se = SEBlock(8, 4)
        rng = np.random.default_rng(1)
        se.fc1.weight.data[...] = rng.normal(0, 0.5, se.fc1.weight.shape)
        se.fc1.bias.data[...] = rng.normal(0, 0.5, se.fc1.bias.shape)
        x = Tensor(rng.normal(0, 1, (2, 8, 4, 4)).astype(np.float32))
        with no_grad():
            y = se(x)
        np.testing.assert_array_equal(y.data, x.data * np.float32(0.5))

    def test_channel_mismatch_raises(self):
        se = SEBlock(8, 4)
        with pytest.raises(ShapeError):
            se(Tensor(np.zeros((1, 6, 4, 4), dtype=np.float32)))

    def test_bad_reduction_raises(self):
        with pytest.raises(ConfigError):
            SEBlock(6, 4)

    def test_gradients(self):
        for seed in range(5):
            se = SEBlock(4, 2)
            rng = np.random.default_rng(seed)
            for p in se.parameters():
                p.data = rng.normal(0, 0.5, p.shape)
                p.requires_grad = True
            x = randx(seed + 50, 2, 4, 3, 3)
            params = [x] + list(se.parameters())
            assert grad_check(lambda: (se(x) * se(x)).sum(), params) < 1e-4


class TestBottleneck:
    def test_zero_residual_branch_equals_relu_input(self):
        # freshly built block has all-zero conv weights; identity shortcut
        block = Bottleneck(16, 4, stride=1, reduction=4)
        assert block.down_conv is None
        x = Tensor(np.random.default_rng(0).normal(0, 1, (2, 16, 6, 6)).astype(np.float32))
        with no_grad():
            y = block(x, training=False)
        np.testing.assert_array_equal(y.data, np.maximum(x.data, 0.0))

    def test_downsample_path_built_when_needed(self):
        assert Bottleneck(16, 4, stride=2, reduction=4).down_conv is not None
        assert Bottleneck(8, 4, stride=1, reduction=4).down_conv is not None

    def test_gradients(self):
        for block, x, params in screened_bottleneck_instances(3):
            err = grad_check(lambda: (block(x, training=True) * 1.0).sum(), [x] + params)
            assert err < 1e-4, f"rel err {err}"


class TestInitAndGrads:
    def test_init_is_deterministic_per_seed(self):
        a = build_model(PRESETS["desk"])
        b = build_model(PRESETS["desk"])
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seed_changes_weights(self):
        import dataclasses
        a = build_model(PRESETS["desk"])
        b = build_model(dataclasses.replace(PRESETS["desk"], seed=7))
        diffs = [n for (n, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters())
                 if not np.array_equal(pa.data, pb.data)]
        assert diffs

    def test_init_leaves_bn_affine_at_defaults(self):
        model = build_model(PRESETS["desk"])
        gammas = [p for n, p in model.named_parameters() if n.endswith(".gamma")]
        betas = [p for n, p in model.named_parameters() if n.endswith(".beta")]
        assert gammas and betas
        assert all(np.array_equal(g.data, np.ones_like(g.data)) for g in gammas)
        assert all(np.array_equal(b.data, np.zeros_like(b.data)) for b in betas)

    def test_zero_grad_clears_everything(self):
        model = build_model(PRESETS["desk"])
        x = Tensor(np.random.default_rng(0).normal(0, 1, (1, 3, 64, 64)).astype(np.float32))
        out = model(x, training=True)
        backward((out * out).mean())
        grads = [p.grad for _, p in model.named_parameters() if p.grad is not None]
        assert grads
        model.zero_grad()
        assert all(p.grad is None for _, p in model.named_parameters())
