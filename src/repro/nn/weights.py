"""Synthetic *trained-like* weight generation and checkpoint loading.

The original paper extracts the weights of pre-trained AlexNet / VGG-16 models
from a deep-learning framework.  In this offline reproduction no framework or
checkpoint download is available, so networks are populated with *synthetic
trained-like* weights instead (see DESIGN.md, "Substitutions"):

* zero-mean, approximately Gaussian bulk with standard deviation scaled by the
  layer fan-in (trained DNN layers follow this to first order);
* heavier-than-Gaussian tails (a small fraction of weights several sigma out),
  which is what makes range-linear quantization concentrate most weights in a
  narrow band of integer levels;
* a small, layer-dependent asymmetry (mean shift and asymmetric tails) so that
  the asymmetric-quantization zero-point is not exactly mid-range — the
  property responsible for the biased bit distributions the paper observes for
  asymmetric 8-bit quantization.

The aging analysis only depends on these distributional properties, not on the
exact weight values.  Real checkpoints can still be used through
:func:`load_weights_npz`.

Prefix synthesis.  The experiments stream at most ``max_weights_per_layer``
weights per layer, i.e. the first ``keep`` output filters of each layer.
:func:`synthesize_layer_weights` can produce just those filters, and the
result equals ``full[:keep]`` of the full draw bit for bit, so no stream or
golden depends on which path built it.  This follows from the generator's
draw order: ``Generator.normal`` and ``Generator.random`` fill their output
sequentially, so the first ``n`` values of a size-``N`` draw are a size-``n``
draw.  After each component's prefix the generator must reach the state the
full draw leaves behind:

* ``random`` (the outlier mask) takes exactly one 64-bit output per double,
  so its unused tail is skipped in O(1) with ``bit_generator.advance``;
* ``normal`` is a ziggurat with occasional rejections, so the number of
  outputs its tail consumes is not known in advance: the base draw's tail is
  drawn in bounded chunks and dropped (capping memory at one chunk);
* the outlier-component ``normal`` is the layer's last weight draw; with a
  prefix its tail is left undrawn and the generator must not be used
  afterwards (the reduced networks carry no biases).

With ``keep=None`` every tail is empty and the call is the full draw, leaving
the generator where the bias draw expects it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.nn.layers import Layer
from repro.nn.network import Network
from repro.utils.rng import as_rng, deterministic_hash_seed
from repro.utils.validation import check_probability


@dataclass(frozen=True)
class WeightGenerationConfig:
    """Knobs of the synthetic trained-like weight generator.

    Attributes
    ----------
    gain:
        Multiplier on the He-style ``sqrt(2 / fan_in)`` standard deviation.
        Trained networks typically end up slightly below their initialisation
        scale, hence the default of 0.8.
    outlier_fraction:
        Fraction of weights drawn from a wider (``outlier_scale`` x) Gaussian,
        producing the heavy tails seen in trained models.
    outlier_scale:
        Scale multiplier of the outlier component.
    skew:
        Relative asymmetry of the positive/negative tails.  ``0`` gives a
        symmetric distribution; ``0.15`` (default) makes the positive tail
        slightly longer, so min(w) != -max(w) and asymmetric quantization gets
        a zero-point away from mid-range.
    mean_shift_fraction:
        Per-layer mean shift expressed as a fraction of the layer sigma.  The
        sign alternates between layers, mimicking the small but non-zero means
        of trained layers.
    """

    gain: float = 0.8
    outlier_fraction: float = 0.02
    outlier_scale: float = 3.5
    skew: float = 0.15
    mean_shift_fraction: float = 0.1

    def __post_init__(self) -> None:
        check_probability(self.outlier_fraction, "outlier_fraction")
        if self.gain <= 0 or self.outlier_scale <= 0:
            raise ValueError("gain and outlier_scale must be positive")


DEFAULT_CONFIG = WeightGenerationConfig()


def synthesize_layer_weights(layer: Layer, rng: np.random.Generator,
                             config: WeightGenerationConfig = DEFAULT_CONFIG,
                             layer_index: int = 0,
                             keep: Optional[int] = None) -> np.ndarray:
    """Generate a trained-like weight tensor for one layer.

    Parameters
    ----------
    layer:
        A weight-carrying layer (its ``weight_shape`` and ``fan_in`` are used).
    rng:
        Generator driving this layer's randomness.
    layer_index:
        Position of the layer in the network; used to alternate the sign of
        the small per-layer mean shift.
    keep:
        Number of leading output filters (neurons) to generate; ``None``
        generates all of them.  The result is bit-identical to the first
        ``keep`` filters of the full tensor (see the module docstring); with
        ``keep`` below the filter count ``rng`` is left mid-stream and must
        not be drawn from again.
    """
    shape = layer.weight_shape
    if shape is None:
        raise ValueError(f"layer '{layer.name}' has no weights")
    filters = shape[0] if keep is None else keep
    if not 1 <= filters <= shape[0]:
        raise ValueError(f"keep must lie in [1, {shape[0]}] for layer "
                         f"'{layer.name}', got {keep}")
    prefix = (filters,) + tuple(shape[1:])
    skipped = int(np.prod(shape)) - int(np.prod(prefix))
    fan_in = max(layer.fan_in, 1)
    sigma = config.gain * np.sqrt(2.0 / fan_in)

    values = rng.normal(0.0, sigma, size=prefix)
    _discard(rng.standard_normal, skipped)

    # Heavy tails: replace a small fraction with wider-Gaussian draws.
    if config.outlier_fraction > 0:
        outlier_mask = rng.random(prefix) < config.outlier_fraction
        if skipped and isinstance(rng.bit_generator, np.random.PCG64):
            rng.bit_generator.advance(skipped)  # one 64-bit output per double
        else:
            _discard(rng.random, skipped)
        outliers = rng.normal(0.0, sigma * config.outlier_scale, size=prefix)
        np.copyto(values, outliers, where=outlier_mask)

    # Asymmetric tails: stretch the positive side by (1 + skew).
    if config.skew:
        np.multiply(values, 1.0 + config.skew, out=values, where=values > 0)

    # Small per-layer mean shift with alternating sign.
    if config.mean_shift_fraction:
        shift_sign = 1.0 if layer_index % 2 == 0 else -1.0
        values += shift_sign * config.mean_shift_fraction * sigma

    return values.astype(np.float32)


#: Values per chunk when a draw's unused tail is generated and dropped.
_DISCARD_CHUNK = 1 << 18


def _discard(draw, count: int) -> None:
    """Advance a generator past ``count`` float64 draws of ``draw``."""
    buffer = np.empty(min(count, _DISCARD_CHUNK))
    while count > 0:
        step = min(count, buffer.size)
        draw(out=buffer[:step])
        count -= step


def synthesize_layer_bias(layer: Layer, rng: np.random.Generator,
                          config: WeightGenerationConfig = DEFAULT_CONFIG) -> Optional[np.ndarray]:
    """Generate a small bias vector (biases do not transit the weight memory)."""
    shape = layer.bias_shape
    if shape is None:
        return None
    fan_in = max(layer.fan_in, 1)
    sigma = config.gain * np.sqrt(1.0 / fan_in)
    return rng.normal(0.0, sigma, size=shape).astype(np.float32)


def attach_synthetic_weights(network: Network, seed: Optional[int] = 0,
                             config: WeightGenerationConfig = DEFAULT_CONFIG) -> Network:
    """Populate every weight-carrying layer of ``network`` with synthetic weights.

    The generation is deterministic per (seed, network name, layer name), so
    two calls with the same seed produce identical weights even if the caller
    rebuilds the network object.
    Returns the same network for chaining.
    """
    for index, layer in enumerate(network.weight_layers()):
        layer_rng = synthetic_layer_rng(network, layer, seed)
        layer.weights = synthesize_layer_weights(layer, layer_rng, config, layer_index=index)
        layer.bias = synthesize_layer_bias(layer, layer_rng, config)
    network.validate_weights()
    return network


def synthetic_layer_rng(network: Network, layer: Layer,
                        seed: Optional[int] = 0) -> np.random.Generator:
    """The generator :func:`attach_synthetic_weights` draws ``layer`` from."""
    return as_rng(deterministic_hash_seed(seed, network.name, layer.name))


def weight_statistics(network: Network) -> Dict[str, Dict[str, float]]:
    """Per-layer summary statistics of the attached weights."""
    stats: Dict[str, Dict[str, float]] = {}
    for layer in network.weight_layers():
        if layer.weights is None:
            continue
        values = np.asarray(layer.weights, dtype=np.float64).reshape(-1)
        stats[layer.name] = {
            "count": float(values.size),
            "mean": float(values.mean()),
            "std": float(values.std()),
            "min": float(values.min()),
            "max": float(values.max()),
            "abs_max": float(np.abs(values).max()),
            "fraction_negative": float((values < 0).mean()),
        }
    return stats


def save_weights_npz(network: Network, path) -> None:
    """Save attached weights (and biases) to an ``.npz`` checkpoint."""
    arrays: Dict[str, np.ndarray] = {}
    for layer in network.weight_layers():
        if layer.weights is None:
            raise ValueError(f"layer '{layer.name}' has no weights to save")
        arrays[f"{layer.name}.weight"] = np.asarray(layer.weights, dtype=np.float32)
        if layer.bias is not None:
            arrays[f"{layer.name}.bias"] = np.asarray(layer.bias, dtype=np.float32)
    np.savez_compressed(path, **arrays)


def load_weights_npz(network: Network, path) -> Network:
    """Load weights from an ``.npz`` checkpoint (e.g. exported from PyTorch).

    Array names must be ``<layer name>.weight`` / ``<layer name>.bias`` and
    shapes must match the declared layer shapes.
    """
    with np.load(path) as data:
        for layer in network.weight_layers():
            key = f"{layer.name}.weight"
            if key not in data:
                raise KeyError(f"checkpoint is missing '{key}'")
            layer.weights = np.asarray(data[key], dtype=np.float32)
            bias_key = f"{layer.name}.bias"
            if bias_key in data:
                layer.bias = np.asarray(data[bias_key], dtype=np.float32)
    network.validate_weights()
    return network
