"""Shared runner for the aging experiments (Figs. 9 and 11).

Besides the policy-evaluation helpers this module hosts the process-local
*weight-stream cache*: building a workload stream means re-quantizing the
network and (for the packed fast engine) bit-unpacking every block, which is
by far the most expensive part of an aging design point.  Sweep jobs that
share a (network, format, memory geometry, scale, seed) therefore reuse one
:class:`~repro.accelerator.scheduler.CachedWeightStream` — and its packed bit
tensor — instead of rebuilding it per job.  The cache lives per process, so
every worker of a :class:`~repro.orchestration.sweep.SweepRunner` pool warms
its own copy once and serves all subsequent jobs with stream affinity from
memory.

Behind the LRU sits the cross-process *stream store*
(:mod:`repro.streamstore`): on an LRU miss the packed tensor is
memory-mapped from disk when a previous process already built the same
stream, and cold builds are persisted for the next process.  The LRU and
the store are independent layers — ``DNN_LIFE_STREAM_CACHE=0`` disables
only the in-memory LRU, ``DNN_LIFE_STREAM_STORE=0`` only the on-disk
store; ``reuse=False`` bypasses both.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import asdict
from typing import Any, Dict, Iterable, List, Optional, Union

import numpy as np

from repro.accelerator.scheduler import CachedWeightStream
from repro.aging.snm import SnmDegradationModel, default_degradation_bins, default_snm_model
from repro.core.policies import MitigationPolicy
from repro.core.simulation import AgingSimulator
from repro.experiments.common import ExperimentScale, reduce_network
from repro.nn.models import build_model
# Kept as a module attribute: perfbench/tracing.py probes it by name.
from repro.nn.weights import attach_synthetic_weights  # noqa: F401
from repro.streamstore import (StoredWeightStream, StreamStore,
                               resolve_stream_store, stream_store_key)
from repro.utils.serialization import canonical_json
from repro.utils.tables import format_histogram

#: Environment variable bounding the number of cached streams per process.
STREAM_CACHE_SIZE_ENV = "DNN_LIFE_STREAM_CACHE"

#: Default number of (network, format, geometry, scale, seed) streams kept.
_DEFAULT_STREAM_CACHE_SIZE = 4

#: A workload stream as served by :func:`build_workload_stream`: freshly
#: built, or memory-mapped back from the on-disk stream store.
WorkloadStream = Union[CachedWeightStream, "StoredWeightStream"]

#: Process-local LRU of workload streams, keyed by the workload signature.
_STREAM_CACHE: "OrderedDict[str, WorkloadStream]" = OrderedDict()


def _stream_cache_size() -> int:
    """Configured stream-cache capacity (0 disables caching)."""
    override = os.environ.get(STREAM_CACHE_SIZE_ENV)
    if override is None or override == "":
        return _DEFAULT_STREAM_CACHE_SIZE
    return max(int(override), 0)


def clear_stream_cache() -> int:
    """Drop every cached stream; returns how many were held."""
    held = len(_STREAM_CACHE)
    _STREAM_CACHE.clear()
    return held


def _workload_identity(network_name: str, accelerator, data_format: str,
                       scale: ExperimentScale, seed: int) -> Dict[str, Any]:
    """The stream-defining parameters of one workload, as a plain mapping."""
    return {
        "network": network_name,
        "data_format": data_format,
        "accelerator_type": type(accelerator).__name__,
        "accelerator_config": asdict(accelerator.config),
        "max_weights_per_layer": scale.max_weights_per_layer,
        "seed": int(seed),
    }


def _workload_signature(network_name: str, accelerator, data_format: str,
                        scale: ExperimentScale, seed: int) -> str:
    """Canonical cache key of one workload stream."""
    return canonical_json(_workload_identity(
        network_name, accelerator, data_format, scale, seed))


def evaluate_policies_on_stream(stream, policies: Iterable[MitigationPolicy],
                                num_inferences: int, seed: int = 0,
                                snm_model: Optional[SnmDegradationModel] = None
                                ) -> Dict[str, Dict[str, object]]:
    """Evaluate each policy on a (cached) weight stream.

    Returns a mapping from policy display name to its histogram and summary.
    """
    snm_model = snm_model or default_snm_model()
    bins = default_degradation_bins(snm_model)
    results: Dict[str, Dict[str, object]] = {}
    for policy in policies:
        simulator = AgingSimulator(stream, policy, num_inferences=num_inferences,
                                   seed=seed, snm_model=snm_model)
        result = simulator.run()
        percentages, edges, labels = result.histogram(bins)
        results[policy.display_name] = {
            "policy": policy.name,
            "policy_config": policy.describe(),
            "summary": result.summary(),
            "histogram_percent": np.asarray(percentages).tolist(),
            "histogram_bin_edges": np.asarray(edges).tolist(),
            "histogram_bin_labels": labels,
        }
    return results


def build_workload_stream(network_name: str, accelerator, data_format: str,
                          scale: ExperimentScale, seed: int = 0,
                          reuse: bool = True,
                          store: Union[str, StreamStore, None] = "auto"
                          ) -> WorkloadStream:
    """Build (or fetch) the cached weight stream for one workload.

    With ``reuse`` (the default) the stream is served from the process-local
    LRU when an identical workload was built before, so consecutive design
    points sharing a (network, format, geometry, scale, seed) — e.g. a policy
    sweep — quantize and bit-unpack the network exactly once per process.
    Set ``DNN_LIFE_STREAM_CACHE=0`` to disable, or a higher value to keep
    more workloads resident.

    On an LRU miss the cross-process stream store is consulted: an entry
    written by any earlier process (or an earlier sweep batch whose LRU was
    disabled) is memory-mapped instead of rebuilt, and a cold build is
    persisted for the next consumer.  ``store="auto"`` resolves
    ``DNN_LIFE_STREAM_STORE``; a :class:`StreamStore` pins one explicitly;
    ``None`` skips the store.  ``reuse=False`` bypasses both layers and
    always builds fresh (and never persists).
    """
    capacity = _stream_cache_size() if reuse else 0
    identity = _workload_identity(network_name, accelerator, data_format,
                                  scale, seed)
    key = canonical_json(identity)
    if capacity:
        cached = _STREAM_CACHE.get(key)
        if cached is not None:
            _STREAM_CACHE.move_to_end(key)
            return cached

    resolved_store: Optional[StreamStore] = None
    store_key: Optional[str] = None
    if reuse and store is not None:
        resolved_store = (resolve_stream_store(None) if store == "auto"
                          else store if isinstance(store, StreamStore)
                          else resolve_stream_store(store))
        if resolved_store is not None:
            store_key = stream_store_key("workload", identity)
            stored = resolved_store.load_stream(store_key)
            if stored is not None:
                if capacity:
                    _insert_cached(key, stored, capacity)
                return stored

    # Synthesizes only the streamed filters (bit-identical to trimming the
    # full draw); the full network is drawn only when nothing is capped.
    network = reduce_network(build_model(network_name),
                             scale.max_weights_per_layer, seed=seed)
    scheduler = accelerator.build_scheduler(network, data_format)
    stream = CachedWeightStream(scheduler, store=resolved_store,
                                store_key=store_key)
    if capacity:
        _insert_cached(key, stream, capacity)
    return stream


def _insert_cached(key: str, stream: WorkloadStream, capacity: int) -> None:
    """LRU insert with eviction down to ``capacity`` entries."""
    _STREAM_CACHE[key] = stream
    _STREAM_CACHE.move_to_end(key)
    while len(_STREAM_CACHE) > capacity:
        _STREAM_CACHE.popitem(last=False)


def render_policy_histograms(results: Dict[str, Dict[str, object]], title: str) -> str:
    """Render the Fig. 9 / Fig. 11 style histograms of one panel."""
    sections: List[str] = [title]
    for label, entry in results.items():
        sections.append(format_histogram(
            entry["histogram_bin_labels"], entry["histogram_percent"],
            title=f"-- {label} "
                  f"(mean SNM deg. {entry['summary']['mean_snm_degradation_percent']:.2f}%)",
        ))
    return "\n\n".join(sections)
