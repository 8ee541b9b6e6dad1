"""Tests for repro.nn.models, repro.nn.weights and repro.nn.functional."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import reduce_network
from repro.nn.functional import classify, forward
from repro.nn.layers import Conv2d, Linear
from repro.nn.models import (
    MODEL_ZOO,
    PUBLISHED_ACCURACY,
    build_model,
    custom_mnist_cnn,
)
from repro.nn.weights import (
    WeightGenerationConfig,
    attach_synthetic_weights,
    load_weights_npz,
    save_weights_npz,
    synthesize_layer_bias,
    synthesize_layer_weights,
    weight_statistics,
)


class TestModelZoo:
    def test_all_models_build(self):
        for name in MODEL_ZOO:
            network = build_model(name)
            assert network.parameter_count > 0

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            build_model("resnet9000")

    def test_alexnet_parameter_count(self):
        # The published single-tower AlexNet has ~61.1M parameters.
        assert build_model("alexnet").parameter_count == pytest.approx(61.1e6, rel=0.01)

    def test_vgg16_parameter_count(self):
        assert build_model("vgg16").parameter_count == pytest.approx(138.36e6, rel=0.01)

    def test_googlenet_parameter_count(self):
        # Inception-v1 main branch: ~7M parameters (~27 MB at float32).
        assert build_model("googlenet").parameter_count == pytest.approx(7.0e6, rel=0.05)

    def test_resnet152_parameter_count(self):
        assert build_model("resnet152").parameter_count == pytest.approx(60.2e6, rel=0.02)

    def test_fig1_size_ordering(self):
        sizes = {name: build_model(name).model_size_mb()
                 for name in ("alexnet", "googlenet", "vgg16", "resnet152")}
        # VGG-16 is by far the largest; GoogLeNet by far the smallest (Fig. 1a).
        assert sizes["vgg16"] > sizes["alexnet"] > sizes["googlenet"]
        assert sizes["vgg16"] > sizes["resnet152"] > sizes["googlenet"]

    def test_published_accuracy_available_for_fig1_models(self):
        for name in ("alexnet", "googlenet", "vgg16", "resnet152"):
            top1, top5 = PUBLISHED_ACCURACY[name]
            assert 50.0 < top1 < top5 < 100.0

    def test_all_networks_propagate_shapes(self):
        for name in MODEL_ZOO:
            network = build_model(name)
            assert network.output_shape()[0] in (10, 1000)

    def test_custom_mnist_matches_paper_spec(self):
        # CONV(16,1,5,5), CONV(50,16,5,5), FC(256,800), FC(10,256).
        network = custom_mnist_cnn()
        conv1, conv2 = network.conv_layers()
        fc1, fc2 = network.linear_layers()
        assert conv1.weight_shape == (16, 1, 5, 5)
        assert conv2.weight_shape == (50, 16, 5, 5)
        assert fc1.weight_shape == (256, 800)
        assert fc2.weight_shape == (10, 256)

    def test_custom_mnist_weight_count(self):
        network = custom_mnist_cnn()
        assert network.weight_count == 16 * 25 + 50 * 16 * 25 + 256 * 800 + 10 * 256


class TestSyntheticWeights:
    def test_attach_fills_all_layers(self, mnist_network):
        assert mnist_network.has_weights_attached
        for layer in mnist_network.weight_layers():
            assert layer.weights.shape == layer.weight_shape
            assert layer.weights.dtype == np.float32

    def test_deterministic_per_seed(self):
        first = attach_synthetic_weights(custom_mnist_cnn(), seed=11)
        second = attach_synthetic_weights(custom_mnist_cnn(), seed=11)
        assert np.array_equal(first.flat_weights(), second.flat_weights())

    def test_different_seeds_differ(self):
        first = attach_synthetic_weights(custom_mnist_cnn(), seed=1)
        second = attach_synthetic_weights(custom_mnist_cnn(), seed=2)
        assert not np.array_equal(first.flat_weights(), second.flat_weights())

    def test_trained_like_statistics(self, mnist_network):
        stats = weight_statistics(mnist_network)
        for layer_stats in stats.values():
            # Zero-mean-ish, small scale, both signs present.
            assert abs(layer_stats["mean"]) < 0.1
            assert 0 < layer_stats["std"] < 1.0
            assert 0.2 < layer_stats["fraction_negative"] < 0.8

    def test_scale_follows_fan_in(self, mnist_network):
        stats = weight_statistics(mnist_network)
        # fc1 has a much larger fan-in (800) than conv1 (25), so its weights
        # must be substantially smaller.
        assert stats["fc1"]["std"] < stats["conv1"]["std"]

    def test_skew_produces_asymmetric_range(self, mnist_network):
        stats = weight_statistics(mnist_network)
        asymmetry = [abs(s["max"]) != pytest.approx(abs(s["min"]), rel=0.01)
                     for s in stats.values()]
        assert any(asymmetry)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            WeightGenerationConfig(outlier_fraction=1.5)
        with pytest.raises(ValueError):
            WeightGenerationConfig(gain=-1.0)

    def test_checkpoint_roundtrip(self, tmp_path, mnist_network):
        path = tmp_path / "weights.npz"
        save_weights_npz(mnist_network, path)
        fresh = load_weights_npz(custom_mnist_cnn(), path)
        assert np.array_equal(fresh.flat_weights(), mnist_network.flat_weights())

    def test_checkpoint_missing_layer_raises(self, tmp_path, mnist_network):
        path = tmp_path / "weights.npz"
        np.savez_compressed(path, **{"conv1.weight": np.zeros((16, 1, 5, 5), np.float32)})
        with pytest.raises(KeyError):
            load_weights_npz(custom_mnist_cnn(), path)


def _reference_weights(layer, rng, config, layer_index):
    """The generator's original three-full-draw formulation, kept as an oracle."""
    shape = layer.weight_shape
    sigma = config.gain * np.sqrt(2.0 / max(layer.fan_in, 1))
    values = rng.normal(0.0, sigma, size=shape)
    if config.outlier_fraction > 0:
        outlier_mask = rng.random(shape) < config.outlier_fraction
        outliers = rng.normal(0.0, sigma * config.outlier_scale, size=shape)
        values = np.where(outlier_mask, outliers, values)
    if config.skew:
        values = np.where(values > 0, values * (1.0 + config.skew), values)
    if config.mean_shift_fraction:
        shift_sign = 1.0 if layer_index % 2 == 0 else -1.0
        values = values + shift_sign * config.mean_shift_fraction * sigma
    return values.astype(np.float32)


_CONFIGS = [
    WeightGenerationConfig(),
    WeightGenerationConfig(outlier_fraction=0.0),
    WeightGenerationConfig(skew=0.0),
    WeightGenerationConfig(mean_shift_fraction=0.0),
    WeightGenerationConfig(outlier_fraction=0.3, skew=0.0, mean_shift_fraction=0.0),
]

_BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox]


@st.composite
def _layers(draw):
    out = draw(st.integers(1, 24))
    if draw(st.booleans()):
        kernel = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
        return Conv2d(name="c", out_channels=out, in_channels=draw(st.integers(1, 8)),
                      kernel_size=kernel)
    return Linear(name="fc", out_features=out, in_features=draw(st.integers(1, 64)))


class TestPrefixSynthesis:
    """Synthesizing the first ``keep`` filters equals trimming the full draw."""

    @settings(max_examples=60, deadline=None)
    @given(layer=_layers(), keep_fraction=st.floats(0.0, 1.0),
           config=st.sampled_from(_CONFIGS), bit_generator=st.sampled_from(_BIT_GENERATORS),
           seed=st.integers(0, 2**32 - 1), layer_index=st.integers(0, 3))
    def test_prefix_equals_full_slice(self, layer, keep_fraction, config, bit_generator,
                                      seed, layer_index):
        out = layer.weight_shape[0]
        keep = 1 + int(keep_fraction * (out - 1))

        def rng():
            return np.random.Generator(bit_generator(seed))

        full_rng = rng()
        full = synthesize_layer_weights(layer, full_rng, config, layer_index=layer_index)
        prefix = synthesize_layer_weights(layer, rng(), config, layer_index=layer_index,
                                          keep=keep)
        assert prefix.shape == (keep,) + layer.weight_shape[1:]
        assert np.array_equal(prefix, full[:keep])

        # keep=None is the original full draw and leaves the generator where
        # the original left it: the bias drawn next is unchanged.
        reference_rng = rng()
        assert np.array_equal(full, _reference_weights(layer, reference_rng, config,
                                                       layer_index))
        assert np.array_equal(synthesize_layer_bias(layer, full_rng, config),
                              synthesize_layer_bias(layer, reference_rng, config))

    @pytest.mark.parametrize("keep", [0, 5])
    def test_keep_out_of_range_rejected(self, keep):
        layer = Linear(name="fc", out_features=4, in_features=3)
        with pytest.raises(ValueError, match="keep must lie in"):
            synthesize_layer_weights(layer, np.random.default_rng(0), keep=keep)

    @pytest.mark.parametrize("name", [
        pytest.param(name, marks=pytest.mark.slow)
        if name in ("alexnet", "vgg16", "resnet152") else name
        for name in sorted(MODEL_ZOO)])
    def test_reduce_network_matches_two_step_path(self, name):
        full = attach_synthetic_weights(build_model(name), seed=4)
        for cap in (1, 10_000, 1_000_000, None):
            expected = reduce_network(full, cap, seed=4)
            streamed = reduce_network(build_model(name), cap, seed=4)
            pairs = list(zip(expected.weight_layers(), streamed.weight_layers()))
            assert len(pairs) == len(full.weight_layers())
            for want, got in pairs:
                assert got.weight_shape == want.weight_shape
                assert np.array_equal(got.weights, want.weights), (name, cap, got.name)

    def test_capped_reduce_leaves_input_without_weights(self):
        network = custom_mnist_cnn()
        reduced = reduce_network(network, 1000, seed=0)
        assert reduced.has_weights_attached
        assert not network.has_weights_attached


class TestFunctionalForward:
    def test_output_shape_and_normalisation(self, mnist_network, rng):
        inputs = rng.normal(size=(3, 1, 28, 28))
        outputs = forward(mnist_network, inputs)
        assert outputs.shape == (3, 10)
        assert np.allclose(outputs.sum(axis=1), 1.0)
        assert np.all(outputs >= 0)

    def test_classify_returns_indices(self, mnist_network, rng):
        labels = classify(mnist_network, rng.normal(size=(4, 1, 28, 28)))
        assert labels.shape == (4,)
        assert set(labels).issubset(set(range(10)))

    def test_deterministic(self, mnist_network, rng):
        inputs = rng.normal(size=(2, 1, 28, 28))
        assert np.array_equal(forward(mnist_network, inputs), forward(mnist_network, inputs))

    def test_partial_forward(self, mnist_network, rng):
        inputs = rng.normal(size=(1, 1, 28, 28))
        conv1_out = forward(mnist_network, inputs, upto_layer="conv1")
        assert conv1_out.shape == (1, 16, 24, 24)

    def test_input_shape_checked(self, mnist_network, rng):
        with pytest.raises(ValueError):
            forward(mnist_network, rng.normal(size=(1, 3, 28, 28)))

    def test_lenet_forward(self, lenet_network, rng):
        outputs = forward(lenet_network, rng.normal(size=(2, 1, 28, 28)))
        assert outputs.shape == (2, 10)

    def test_conv_matches_manual_dot_product(self, rng):
        from repro.nn.functional import conv2d
        from repro.nn.layers import Conv2d

        layer = Conv2d(name="c", out_channels=1, in_channels=1, kernel_size=(3, 3))
        layer.weights = rng.normal(size=(1, 1, 3, 3)).astype(np.float32)
        layer.bias = np.zeros(1, dtype=np.float32)
        inputs = rng.normal(size=(1, 1, 3, 3))
        expected = float(np.sum(inputs[0, 0] * layer.weights[0, 0]))
        assert conv2d(inputs, layer)[0, 0, 0, 0] == pytest.approx(expected)
