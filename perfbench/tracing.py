"""In-memory span tracer wrapped around the simulator's public functions.

The traced run patches the layer entry points listed in :func:`probes` for
the duration of one replay, records one span (name, start, end, parent,
attributes) per call, and restores the originals afterwards.  Nothing under
``src/`` is edited: spans are taken at the boundaries a caller sees.  A
layer's self time is its span time minus the time its direct child spans
cover.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional

POLICIES = ("none", "inversion", "barrel_shifter", "dnn_life")
LEVELERS = ("none", "rotation", "start_gap", "wear_swap")


class Tracer:
    """Spans kept in memory; nesting follows the call stack of one thread."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        """Record ``name`` around the ``with`` body."""
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None,
                  "attrs": attrs}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


@dataclass(frozen=True)
class Probe:
    """One patched entry point: ``owner.attribute`` traced as ``span``.

    ``before(args, kwargs)`` runs ahead of the call and its value is handed
    to ``after(record, args, kwargs, result, state)``, which annotates the
    span with counts.
    """

    owner: Any
    attribute: str
    span: str
    before: Optional[Callable[..., Any]] = None
    after: Optional[Callable[..., None]] = None


def _weights(network) -> int:
    return int(sum(layer.weight_count for layer in network.weight_layers()))


def _put_before(args, kwargs):
    store, key = args[0], args[1]
    return key in store


def _put_after(record, args, kwargs, result, existed):
    store, key = args[0], args[1]
    wrote = not existed and key in store
    record["attrs"]["wrote"] = wrote
    record["attrs"]["bytes"] = (int(store.payload_path(key).stat().st_size)
                                if wrote else 0)


def _load_after(record, args, kwargs, result, state):
    record["attrs"]["hit"] = result is not None


def _run_after(record, args, kwargs, result, state):
    simulator = args[0]
    record["attrs"]["policy"] = simulator.policy.name
    record["attrs"]["leveler"] = getattr(simulator.leveler, "name", "none")


def probes() -> List[Probe]:
    """Every layer boundary the traced run records."""
    import repro.experiments.aging_point as aging_point
    import repro.experiments.aging_runner as aging_runner
    import repro.workloads as workloads
    from repro.accelerator.baseline import BaselineAccelerator
    from repro.accelerator.scheduler import CachedWeightStream
    from repro.core.simulation import AgingResult, AgingSimulator
    from repro.fleet import FleetSimulator
    from repro.orchestration.sweep import SweepRunner
    from repro.scenario.driver import ScenarioAgingSimulator
    from repro.streamstore import StreamStore

    def annotate(key, measure):
        def after(record, args, kwargs, result, state):
            record["attrs"][key] = measure(args, kwargs, result)
        return after

    return [
        Probe(SweepRunner, "run", "orchestration.sweep"),
        # The aging experiment binds build_workload_stream at import time;
        # the scenario stream factory looks it up in aging_runner per call.
        Probe(aging_point, "build_workload_stream", "stream.build"),
        Probe(aging_runner, "build_workload_stream", "stream.build"),
        Probe(aging_runner, "attach_synthetic_weights", "nn.synth",
              after=annotate("weights", lambda a, k, r: _weights(r))),
        Probe(aging_runner, "reduce_network", "nn.reduce",
              after=annotate("weights", lambda a, k, r: _weights(r))),
        Probe(BaselineAccelerator, "build_scheduler", "accelerator.schedule"),
        Probe(CachedWeightStream, "packed_bits", "accelerator.pack",
              after=annotate("tensor", lambda a, k, r: (id(r), int(r.nbytes)))),
        Probe(StreamStore, "put", "streamstore.put",
              before=_put_before, after=_put_after),
        Probe(StreamStore, "load_stream", "streamstore.load", after=_load_after),
        Probe(StreamStore, "get", "streamstore.load", after=_load_after),
        Probe(AgingSimulator, "run", "core.run", after=_run_after),
        Probe(AgingResult, "summary", "aging.report"),
        Probe(AgingResult, "histogram", "aging.report"),
        Probe(ScenarioAgingSimulator, "run", "scenario.run"),
        Probe(FleetSimulator, "run", "fleet.run",
              after=annotate("size", lambda a, k, r: (int(r.num_devices),
                                                      len(r.cohorts)))),
        Probe(workloads, "compile_fleet_spec", "workloads.compile",
              after=annotate("share", lambda a, k, r: (
                  len(r.scenarios), int(k.get("histories", a[1] if len(a) > 1 else 0))))),
    ]


def _traced(tracer: Tracer, probe: Probe, function: Callable) -> Callable:
    @functools.wraps(function)
    def traced(*args, **kwargs):
        with tracer.span(probe.span) as record:
            state = probe.before(args, kwargs) if probe.before else None
            result = function(*args, **kwargs)
            if probe.after:
                probe.after(record, args, kwargs, result, state)
            return result
    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Patch every probe for the ``with`` body; originals are restored after."""
    originals = []
    try:
        for probe in probes():
            function = getattr(probe.owner, probe.attribute)
            originals.append((probe.owner, probe.attribute, function))
            setattr(probe.owner, probe.attribute, _traced(tracer, probe, function))
        yield tracer
    finally:
        for owner, attribute, function in reversed(originals):
            setattr(owner, attribute, function)


def self_times(spans: List[Dict[str, Any]]) -> List[float]:
    """Per-span duration minus the durations of its direct children."""
    durations = [span["end"] - span["start"] for span in spans]
    own = list(durations)
    for span, duration in zip(spans, durations):
        if span["parent"] is not None:
            own[span["parent"]] -= duration
    return own


def layer_metrics(spans: List[Dict[str, Any]], cells: int = 0) -> Dict[str, float]:
    """Per-layer times and counts derived from one traced replay.

    ``cells`` is the number of weight-memory cells each fleet device models.
    """
    own = self_times(spans)
    durations = [span["end"] - span["start"] for span in spans]
    has_children = {span["parent"] for span in spans if span["parent"] is not None}

    def total(*names: str, values=own) -> float:
        return float(sum(value for span, value in zip(spans, values)
                         if span["name"] in names))

    def of(name: str) -> List[Dict[str, Any]]:
        return [span for span in spans if span["name"] == name]

    synthesized = sum(span["attrs"]["weights"] for span in of("nn.synth"))
    streamed = sum(span["attrs"]["weights"] for span in of("nn.reduce"))
    tensors = dict(span["attrs"]["tensor"] for span in of("accelerator.pack"))
    builds = [index for index, span in enumerate(spans)
              if span["name"] == "stream.build"]
    puts = [span for span in of("streamstore.put") if span["attrs"]["wrote"]]
    hits = sum(1 for span in of("streamstore.load") if span["attrs"]["hit"])
    metrics: Dict[str, float] = {
        "nn.synth_s": total("nn.synth", "nn.reduce"),
        "nn.weights_synthesized": float(synthesized),
        "nn.weights_streamed": float(streamed),
        "nn.useful_ratio": streamed / synthesized if synthesized else 0.0,
        "accelerator.pack_s": total("accelerator.schedule", "accelerator.pack"),
        "accelerator.packed_bytes": float(sum(tensors.values())),
        "stream.build_s": total("stream.build"),
        "stream.build_total_s": total("stream.build", values=durations),
        "stream.calls": float(len(builds)),
        "stream.lru_hits": float(sum(1 for index in builds
                                     if index not in has_children)),
        "streamstore.put_s": total("streamstore.put"),
        "streamstore.bytes_written": float(sum(span["attrs"]["bytes"]
                                               for span in puts)),
        "streamstore.puts": float(len(puts)),
        "streamstore.load_s": total("streamstore.load"),
        "streamstore.hits": float(hits),
        "streamstore.hit_ratio": hits / (hits + len(puts)) if hits + len(puts) else 0.0,
    }
    runs = [(span, value) for span, value in zip(spans, own)
            if span["name"] == "core.run"]
    for policy in POLICIES:
        for leveler in LEVELERS:
            metrics[f"core.run_s.{policy}.{leveler}"] = float(sum(
                value for span, value in runs
                if span["attrs"]["policy"] == policy
                and span["attrs"]["leveler"] == leveler))
    metrics["core.runs"] = float(len(runs))
    for policy in POLICIES:
        base = metrics[f"core.run_s.{policy}.none"]
        for leveler in LEVELERS[1:]:
            leveled = metrics[f"core.run_s.{policy}.{leveler}"]
            metrics[f"leveling.overhead.{policy}.{leveler}"] = (
                leveled / base if base and leveled else 0.0)
    metrics["aging.report_s"] = total("aging.report")
    metrics["scenario.run_s"] = total("scenario.run")
    metrics["scenario.runs"] = float(len(of("scenario.run")))
    metrics["fleet.self_s"] = total("fleet.run")
    devices = sum(span["attrs"]["size"][0] for span in of("fleet.run"))
    fleet_wall = total("fleet.run", values=durations)
    metrics["fleet.cohorts"] = float(sum(span["attrs"]["size"][1]
                                         for span in of("fleet.run")))
    metrics["fleet.devices"] = float(devices)
    metrics["fleet.cells"] = float(cells if devices else 0)
    metrics["fleet.device_cells_per_s"] = (devices * cells / fleet_wall
                                           if fleet_wall else 0.0)
    metrics["workloads.compile_s"] = total("workloads.compile")
    shares = [span["attrs"]["share"] for span in of("workloads.compile")]
    unique = sum(share[0] for share in shares)
    histories = sum(share[1] for share in shares)
    metrics["workloads.share_ratio"] = unique / histories if histories else 0.0
    return metrics


def span_records(spans: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """JSON-safe copies of the spans (tensor identities dropped)."""
    records = []
    for span in spans:
        attrs = {key: value for key, value in span["attrs"].items()
                 if key != "tensor"}
        records.append({"name": span["name"], "start": span["start"],
                        "end": span["end"], "parent": span["parent"],
                        "attrs": attrs})
    return records


def span_cost_seconds(count: int = 20_000) -> float:
    """Host seconds one empty span costs (the tracer's own overhead)."""
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(count):
        with tracer.span("calibration"):
            pass
    return (time.perf_counter() - start) / count
