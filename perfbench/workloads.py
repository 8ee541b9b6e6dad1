"""The benchmark workloads, driven through the simulator's public API.

Each workload has a repeatable ``setup`` (its declared warm-up), one timed
``operation`` that the closed loop in ``run.py`` issues back to back, and
correctness ``checks`` run outside the timed region.  Every input is derived
from the run's ``--seed``.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import shutil
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, Iterator, List

import numpy as np

from repro.accelerator.baseline import BaselineAccelerator
from repro.accelerator.config import baseline_config
from repro.aging.snm import default_degradation_bins, default_snm_model
from repro.core.policies import make_policy
from repro.core.simulation import AgingSimulator, ExplicitAgingSimulator
from repro.experiments.aging_runner import clear_stream_cache
import repro.experiments.aging_runner as aging_runner
from repro.experiments.common import ExperimentScale
from repro.fleet import FleetSimulator, failure_times_from_scenario_result
from repro.leveling import make_leveler
from repro.orchestration.runner import run_experiment
from repro.orchestration.sweep import SweepRunner
from repro.quantization.formats import get_format
from repro.scenario.driver import ScenarioAgingSimulator, scenario_stream_factory
from repro.scenario.phases import Phase
from repro.streamstore import STREAM_STORE_ENV
from repro.utils.serialization import canonical_json
from repro.utils.units import KB
import repro.workloads as traffic

from perfbench.tracing import LEVELERS, POLICIES

#: Grid policies the explicit engine reproduces bit for bit.
DETERMINISTIC = ("none", "inversion", "barrel_shifter")

#: Leveler options of the leveled grid (the ``dnn-life bench`` settings).
LEVELER_OPTIONS = {
    "none": {},
    "rotation": {"period": 8, "step": 1},
    "start_gap": {"interval": 2},
    "wear_swap": {"interval": 5, "swap_fraction": 0.25},
}


@dataclass
class Context:
    """Per-run settings shared by every workload."""

    seed: int
    workdir: Path
    workers: int
    _stores: int = 0

    def persist_store(self) -> None:
        """Flush the current store to disk, so write-back does not overlap timing."""
        for path in (self.workdir / f"store-{self._stores}").rglob("*"):
            if path.is_file():
                with open(path, "rb") as handle:
                    os.fsync(handle.fileno())

    def fresh_store(self, drop_previous: bool = False) -> Path:
        """Point ``DNN_LIFE_STREAM_STORE`` at a new, empty directory."""
        if drop_previous and self._stores:
            shutil.rmtree(self.workdir / f"store-{self._stores}",
                          ignore_errors=True)
        self._stores += 1
        path = self.workdir / f"store-{self._stores}"
        path.mkdir(parents=True)
        os.environ[STREAM_STORE_ENV] = str(path)
        return path

    def rng(self, purpose: str) -> np.random.Generator:
        """A generator for one sampling decision of this seed."""
        digest = hashlib.sha256(f"{purpose}:{self.seed}".encode()).digest()
        return np.random.default_rng(int.from_bytes(digest[:8], "little"))


@dataclass
class OpResult:
    """One timed operation: its host time and the work it completed."""

    seconds: float
    points: int
    evals: int
    devices: int
    eval_samples: List[float]
    attempted: int
    failed: int
    detail: Any = None


@contextlib.contextmanager
def store_disabled() -> Iterator[None]:
    """Run the body with the stream store off and an empty stream LRU."""
    previous = os.environ.get(STREAM_STORE_ENV)
    os.environ[STREAM_STORE_ENV] = "0"
    clear_stream_cache()
    try:
        yield
    finally:
        clear_stream_cache()
        if previous is None:
            del os.environ[STREAM_STORE_ENV]
        else:
            os.environ[STREAM_STORE_ENV] = previous


def explicit_match(policy: str, data_format: str, leveler: str, seed: int) -> bool:
    """Packed vs write-by-write engine on the reduced custom_mnist case."""
    tiles = 1 if leveler == "none" else 4
    config = replace(baseline_config(), name="perfbench_explicit",
                     weight_memory_bytes=4 * KB, weight_fifo_depth_tiles=tiles)
    inferences = 6
    scale = ExperimentScale(num_inferences=inferences, max_weights_per_layer=10_000)
    stream = aging_runner.build_workload_stream(
        "custom_mnist", BaselineAccelerator(config=config), data_format, scale,
        seed=seed, reuse=False)
    word_bits = get_format(data_format).word_bits

    def remap():
        if leveler == "none":
            return None
        return make_leveler(leveler, stream.geometry, tiles,
                            **LEVELER_OPTIONS[leveler])

    fast = AgingSimulator(stream, make_policy(policy, word_bits, seed=seed),
                          num_inferences=inferences, seed=seed,
                          leveler=remap()).run()
    exact = ExplicitAgingSimulator(stream, make_policy(policy, word_bits, seed=seed),
                                   num_inferences=inferences, leveler=remap()).run()
    return bool(np.array_equal(fast.duty_cycles, exact.duty_cycles))


def _mean_by(pairs) -> Dict[str, float]:
    grouped: Dict[str, List[float]] = {}
    for key, value in pairs:
        grouped.setdefault(key, []).append(float(value))
    return {key: float(np.mean(values)) for key, values in sorted(grouped.items())}


class Workload:
    """Interface of one benchmark workload."""

    name = ""
    #: Cells of one simulated memory (fleet workloads; 0 otherwise).
    cells = 0
    #: Whether operations run in worker processes.
    uses_workers = False
    #: Warm-ups per measured run (``setup_s`` reports their median).
    setup_repeats = 3

    def setup(self, ctx: Context) -> None:
        raise NotImplementedError

    def operation(self, ctx: Context, serial: bool = False) -> OpResult:
        """One timed operation; ``serial`` keeps sweeps in this process."""
        raise NotImplementedError

    def checks(self, ctx: Context, last: OpResult) -> Dict[str, bool]:
        raise NotImplementedError

    def statistics(self, last: OpResult) -> Dict[str, Any]:
        raise NotImplementedError

    def fingerprint(self) -> str:
        """Hash of the generated inputs (differs between seeds)."""
        raise NotImplementedError


class CountingExecutor:
    """The default process-pool executor, counting the batches it is handed."""

    def __init__(self, max_workers: int):
        from repro.orchestration.sweep import ProcessPoolSweepExecutor

        self.inner = ProcessPoolSweepExecutor(max_workers=max_workers)
        self.name = self.inner.name
        self.batches = 0

    def submit_batches(self, experiment, batches):
        batches = list(batches)
        self.batches += len(batches)
        return self.inner.submit_batches(experiment, batches)


class SweepWorkload(Workload):
    """An ``aging`` design-space sweep; ``warm`` reads a pre-filled store."""

    uses_workers = True

    def __init__(self, warm: bool, smoke: bool):
        self.warm = warm
        self.name = "warm_sweep" if warm else "cold_sweep"
        if warm:  # a warm-up cold-builds every stream into a new store
            self.setup_repeats = 2
        if smoke:
            self.grid = {"network": ["lenet5", "custom_mnist"],
                         "data_format": ["int8_symmetric"],
                         "policy": ["none", "dnn_life"],
                         "weight_memory_kb": [32], "num_inferences": [4],
                         "quick": [True]}
        else:
            self.grid = {"network": ["alexnet", "googlenet", "lenet5"],
                         "data_format": ["int8_symmetric", "float32"],
                         "policy": list(POLICIES),
                         "weight_memory_kb": [512], "num_inferences": [100],
                         "quick": [True]}
        self.streams = len(self.grid["network"]) * len(self.grid["data_format"])
        self.jobs: list = []

    def setup(self, ctx: Context) -> None:
        self.jobs = SweepRunner(cache=None).build_jobs("aging", self.grid,
                                                       base_seed=ctx.seed)
        if self.warm:
            ctx.fresh_store(drop_previous=True)
            prefill = {**self.grid, "policy": self.grid["policy"][:1]}
            report = SweepRunner(cache=None, max_workers=ctx.workers).run(
                "aging", prefill, base_seed=ctx.seed)
            if report.num_failed:
                error = next(result.error for result in report.results if result.failed)
                raise RuntimeError(f"store pre-fill failed: {error}")
            ctx.persist_store()
        clear_stream_cache()

    def run_sweep(self, ctx: Context, backend: Any) -> OpResult:
        """One sweep of the grid on ``backend``; cold sweeps get a new store."""
        if not self.warm:
            ctx.fresh_store(drop_previous=True)
        clear_stream_cache()
        runner = SweepRunner(cache=None, max_workers=ctx.workers, backend=backend)
        start = time.perf_counter()
        report = runner.run("aging", self.grid, base_seed=ctx.seed)
        seconds = time.perf_counter() - start
        done = report.num_jobs - report.num_failed
        return OpResult(seconds=seconds, points=done, evals=done, devices=done,
                        eval_samples=[result.seconds for result in report.results
                                      if not result.failed],
                        attempted=report.num_jobs, failed=report.num_failed,
                        detail=report)

    def operation(self, ctx: Context, serial: bool = False) -> OpResult:
        return self.run_sweep(ctx, "serial" if serial else None)

    def checks(self, ctx: Context, last: OpResult) -> Dict[str, bool]:
        report = last.detail
        store = report.stream_store or {}
        if self.warm:
            accounting = store.get("puts") == 0 and store.get("hits") == self.streams
        else:
            accounting = store.get("puts") == self.streams and store.get("hits") == 0
        checks = {"store_accounting": bool(accounting)}
        deterministic = [job for job in self.jobs
                         if job.params["policy"] in DETERMINISTIC]
        job = deterministic[ctx.rng("explicit").integers(len(deterministic))]
        checks["explicit_engine"] = explicit_match(
            job.params["policy"], job.params["data_format"], "none", ctx.seed)
        if self.warm:
            job = self.jobs[ctx.rng("store_off").integers(len(self.jobs))]
            with store_disabled():
                recomputed = run_experiment("aging", job.params, cache=None).payload
            stored = report.results[job.index].payload
            checks["store_off_payload"] = canonical_json(recomputed) == canonical_json(stored)
        return checks

    def statistics(self, last: OpResult) -> Dict[str, Any]:
        pairs = []
        for result in last.detail.results:
            for entry in (result.payload or {}).get("results", {}).values():
                pairs.append((entry["policy"],
                              entry["summary"]["mean_snm_degradation_percent"]))
        return {"mean_snm_degradation_percent": _mean_by(pairs)}

    def fingerprint(self) -> str:
        return canonical_json([job.params for job in self.jobs])


class LeveledGrid(Workload):
    """Every policy under every wear leveler on one in-memory stream."""

    name = "leveled_grid"
    setup_repeats = 2  # each warm-up is a cold AlexNet stream build

    def __init__(self, smoke: bool):
        self.smoke = smoke
        self.num_inferences = 4 if smoke else 25
        self.stream = None
        self.bins = default_degradation_bins(default_snm_model())

    def setup(self, ctx: Context) -> None:
        if self.smoke:
            network, kb, cap = "custom_mnist", 4, 10_000
        else:
            network, kb, cap = "alexnet", 256, 1_000_000
        config = replace(baseline_config(), name="perfbench_fifo",
                         weight_memory_bytes=kb * KB, weight_fifo_depth_tiles=4)
        scale = ExperimentScale(num_inferences=self.num_inferences,
                                max_weights_per_layer=cap)
        self.stream = aging_runner.build_workload_stream(
            network, BaselineAccelerator(config=config), "int8_symmetric",
            scale, seed=ctx.seed, reuse=False)
        self.stream.packed_bits()

    def operation(self, ctx: Context, serial: bool = False) -> OpResult:
        geometry = self.stream.geometry
        samples: List[float] = []
        summaries: Dict[str, Dict[str, Any]] = {}
        start = time.perf_counter()
        for policy in POLICIES:
            for leveler in LEVELERS:
                begin = time.perf_counter()
                remap = (None if leveler == "none" else
                         make_leveler(leveler, geometry, 4, **LEVELER_OPTIONS[leveler]))
                result = AgingSimulator(
                    self.stream, make_policy(policy, geometry.word_bits, seed=ctx.seed),
                    num_inferences=self.num_inferences, seed=ctx.seed,
                    leveler=remap).run()
                summaries[f"{policy}.{leveler}"] = result.summary()
                result.histogram(self.bins)
                samples.append(time.perf_counter() - begin)
        seconds = time.perf_counter() - start
        count = len(samples)
        return OpResult(seconds=seconds, points=count, evals=count, devices=count,
                        eval_samples=samples, attempted=count, failed=0,
                        detail=summaries)

    def checks(self, ctx: Context, last: OpResult) -> Dict[str, bool]:
        rng = ctx.rng("explicit")
        policy = DETERMINISTIC[rng.integers(len(DETERMINISTIC))]
        leveler = LEVELERS[rng.integers(len(LEVELERS))]
        return {"explicit_engine": explicit_match(policy, "int8_symmetric",
                                                  leveler, ctx.seed)}

    def statistics(self, last: OpResult) -> Dict[str, Any]:
        return {"mean_snm_degradation_percent": {
            label: summary["mean_snm_degradation_percent"]
            for label, summary in last.detail.items()}}

    def fingerprint(self) -> str:
        from repro.streamstore import packed_content_sha256

        return packed_content_sha256(self.stream.packed_bits())


class GenFleet(Workload):
    """A generated fleet: traffic model -> fleet spec -> fleet Monte Carlo."""

    name = "gen_fleet"
    models = "0.6*lenet5:int8:dnn_life|0.4*custom_mnist:int8:inversion"

    def __init__(self, smoke: bool):
        self.histories, self.devices = (4, 32) if smoke else (64, 4096)
        self.model = None
        self.factory = None
        self.simulator = None

    def setup(self, ctx: Context) -> None:
        mix, weights = traffic.parse_model_mix(self.models)
        self.model = traffic.TrafficModel(
            models=mix, model_weights=weights, burst_probability=0.25,
            diurnal_amplitude=0.6, night_corner=(0.7, 0.2),
            ota_interval_days=2.0, idle_threshold=2, horizon_days=7,
            seed=ctx.seed)
        config = replace(baseline_config(), name="perfbench_fleet",
                         weight_memory_bytes=4 * KB, weight_fifo_depth_tiles=4)
        self.factory = scenario_stream_factory(
            BaselineAccelerator(config=config),
            scale=ExperimentScale(num_inferences=100, max_weights_per_layer=10_000),
            seed=ctx.seed)
        clear_stream_cache()
        ctx.fresh_store(drop_previous=True)
        for network, data_format, policy in mix:
            stream = self.factory(Phase.active(network, data_format, policy, 1))
            stream.packed_bits()
            self.cells = stream.geometry.num_cells

    def operation(self, ctx: Context, serial: bool = False) -> OpResult:
        start = time.perf_counter()
        spec = traffic.compile_fleet_spec(
            self.model, histories=self.histories, devices=self.devices,
            usage_sigma=0.3, thermal_sigma_c=5.0, seed_groups=2)
        simulator = FleetSimulator(spec, stream_factory=self.factory)
        result = simulator.run()
        seconds = time.perf_counter() - start
        self.simulator = simulator
        return OpResult(seconds=seconds, points=len(result.cohorts), evals=1,
                        devices=result.num_devices, eval_samples=[seconds],
                        attempted=1, failed=0, detail=result)

    def checks(self, ctx: Context, last: OpResult) -> Dict[str, bool]:
        result, simulator = last.detail, self.simulator
        sample = result.sample
        chosen = ctx.rng("devices").choice(sample.num_devices,
                                           size=min(8, sample.num_devices),
                                           replace=False)
        matches = []
        for device in sorted(int(index) for index in chosen):
            run = ScenarioAgingSimulator(
                simulator.device_scenario(sample, device),
                stream_factory=self.factory,
                seed=simulator.device_seed(sample, device)).run()
            reference = failure_times_from_scenario_result(
                run, usage=float(sample.usage[device]),
                max_degradation_percent=simulator.max_degradation_percent,
                reference_years=simulator.reference_years)
            matches.append(
                _close(result.snm_years[device], reference["snm_years"])
                and _close(result.retention_years[device], reference["retention_years"])
                and str(result.modes[device]) == reference["mode"])
        return {"per_device_loop": all(matches)}

    def statistics(self, last: OpResult) -> Dict[str, Any]:
        result = last.detail
        return {"fleet_p50_years": result.failure_quantiles((0.5,))["p50"],
                "failure_modes": result.mode_summary(),
                "cohorts": len(result.cohorts),
                "unique_scenarios": len(result.spec.scenarios)}

    def fingerprint(self) -> str:
        spec = traffic.compile_fleet_spec(self.model, histories=self.histories)
        return canonical_json(list(spec.scenarios))


def _close(value: float, reference: float) -> bool:
    value = float(value)
    if np.isinf(value) and np.isinf(reference):
        return True
    return bool(np.isclose(value, reference, rtol=1e-9, atol=0.0))


def make_workload(name: str, smoke: bool = False) -> Workload:
    """The workload called ``name``."""
    if name in ("cold_sweep", "warm_sweep"):
        return SweepWorkload(warm=name == "warm_sweep", smoke=smoke)
    if name == "leveled_grid":
        return LeveledGrid(smoke)
    if name == "gen_fleet":
        return GenFleet(smoke)
    raise ValueError(f"unknown workload '{name}'")


WORKLOADS = ("cold_sweep", "warm_sweep", "leveled_grid", "gen_fleet")
