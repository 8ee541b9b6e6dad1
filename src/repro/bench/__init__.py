"""Performance-regression benchmark harness (``dnn-life bench``).

Times the packed aging engine on AlexNet/VGG-class weight-memory
configurations, checks it against the explicit write-by-write simulator and
writes the machine-readable trajectory file ``BENCH_aging.json``, so
engine-performance regressions show up as data instead of anecdotes.
"""

from repro.bench.aging_bench import (
    BENCH_SCHEMA,
    DEFAULT_OUTPUT,
    DVFS_BENCH_SPEC,
    FLEET_BENCH_MIX,
    LEVELING_OVERHEAD_LIMIT,
    WEAR_SWAP_OVERHEAD_LIMIT,
    WORKLOAD_BENCH_MODELS,
    BenchCase,
    SyntheticWeightStream,
    bench_dvfs,
    bench_fleet,
    bench_leveling,
    bench_scenario,
    bench_workloads,
    check_leveling_overheads,
    default_bench_cases,
    default_leveling_case,
    render_bench_report,
    run_aging_bench,
    verify_leveling_against_explicit,
    verify_scenario_against_explicit,
)

__all__ = [
    "BENCH_SCHEMA",
    "DEFAULT_OUTPUT",
    "DVFS_BENCH_SPEC",
    "FLEET_BENCH_MIX",
    "LEVELING_OVERHEAD_LIMIT",
    "WEAR_SWAP_OVERHEAD_LIMIT",
    "WORKLOAD_BENCH_MODELS",
    "BenchCase",
    "SyntheticWeightStream",
    "bench_dvfs",
    "bench_fleet",
    "bench_leveling",
    "bench_scenario",
    "bench_workloads",
    "check_leveling_overheads",
    "default_bench_cases",
    "default_leveling_case",
    "render_bench_report",
    "run_aging_bench",
    "verify_leveling_against_explicit",
    "verify_scenario_against_explicit",
]
