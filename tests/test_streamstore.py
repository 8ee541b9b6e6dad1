"""Tests for the content-addressed on-disk stream store.

The invariants pinned here are the store's reason to exist: a loaded entry
is *bitwise identical* to the build it replaces (golden SHA-256 digests),
every memory-mapped array honours the read-only aliasing contract, corrupt
or truncated entries degrade to a rebuild instead of an error, and two
processes racing on the same key settle on one valid entry.
"""

import json
import multiprocessing
import os

import numpy as np
import pytest

from repro.accelerator.scheduler import CachedWeightStream, PackedBitTensor
from repro.bench.aging_bench import SyntheticWeightStream
from repro.experiments.aging_runner import build_workload_stream, clear_stream_cache
from repro.experiments.common import ExperimentScale
from repro.memory.geometry import MemoryGeometry
from repro.streamstore import (
    ORPHAN_AGE_GUARD_SECONDS,
    STORE_SCHEMA,
    STREAM_STORE_ENV,
    StoredWeightStream,
    StreamStore,
    packed_content_sha256,
    resolve_stream_store,
    stream_code_version,
    stream_store_key,
    stream_store_stats,
    stream_store_stats_delta,
)
from repro.utils.units import KB


def synthetic_stream(memory_kb=1, word_bits=8, num_blocks=6, fifo_depth_tiles=1,
                     seed=0):
    geometry = MemoryGeometry(capacity_bytes=memory_kb * KB, word_bits=word_bits)
    return SyntheticWeightStream(geometry, num_blocks,
                                 fifo_depth_tiles=fifo_depth_tiles, seed=seed)


@pytest.fixture
def store(tmp_path):
    return StreamStore(tmp_path / "streams")


# --------------------------------------------------------------------------- #
# Keying
# --------------------------------------------------------------------------- #
class TestKeying:
    IDENTITY = {"network": "lenet5", "data_format": "int8_symmetric",
                "memory_kb": 16, "seed": 0}

    def test_key_is_stable(self):
        assert stream_store_key("workload", self.IDENTITY) \
            == stream_store_key("workload", self.IDENTITY)

    def test_key_changes_with_identity(self):
        for field, value in [("network", "alexnet"), ("memory_kb", 32),
                             ("seed", 1), ("data_format", "float32")]:
            changed = dict(self.IDENTITY, **{field: value})
            assert stream_store_key("workload", changed) \
                != stream_store_key("workload", self.IDENTITY), field

    def test_kind_namespaces_the_identity(self):
        assert stream_store_key("workload", self.IDENTITY) \
            != stream_store_key("synthetic", self.IDENTITY)

    def test_key_folds_in_stream_code_version(self, monkeypatch):
        from repro.streamstore import store as store_module

        baseline = stream_store_key("workload", self.IDENTITY)
        monkeypatch.setattr(store_module, "stream_code_version",
                            lambda: "deadbeefdeadbeef")
        assert stream_store_key("workload", self.IDENTITY) != baseline

    def test_stream_code_version_shape(self):
        version = stream_code_version()
        assert len(version) == 16
        int(version, 16)  # hex digest prefix


# --------------------------------------------------------------------------- #
# Round-trip identity
# --------------------------------------------------------------------------- #
class TestRoundTrip:
    def test_bitwise_identity_and_manifest_sha(self, store):
        stream = synthetic_stream()
        packed = stream.packed_bits()
        built_sha = packed_content_sha256(packed)
        key = stream_store_key("synthetic", {"case": "roundtrip"})
        manifest_path = store.put(key, packed, describe=stream.describe())

        manifest = json.loads(manifest_path.read_text())
        assert manifest["schema"] == STORE_SCHEMA
        assert manifest["payload_sha256"] == built_sha

        loaded = store.get(key)
        assert loaded is not None
        assert packed_content_sha256(loaded) == built_sha
        assert np.array_equal(loaded.bits, packed.bits)
        assert np.array_equal(loaded.valid_mask(), packed.valid_mask())
        assert np.array_equal(loaded.regions, packed.regions)
        assert np.array_equal(loaded.valid_words, packed.valid_words)
        assert loaded.geometry == packed.geometry
        assert loaded.fifo_depth_tiles == packed.fifo_depth_tiles

    def test_loaded_arrays_are_read_only_memmaps(self, store):
        packed = synthetic_stream().packed_bits()
        key = stream_store_key("synthetic", {"case": "readonly"})
        store.put(key, packed)
        loaded = store.get(key)
        for array in (loaded.bits, loaded.valid_mask(), loaded.regions,
                      loaded.valid_words):
            assert array.flags.writeable is False
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 1
        # the bits array is a zero-copy view over the file mapping
        import mmap

        base = loaded.bits
        while getattr(base, "base", None) is not None:
            base = base.base
        assert isinstance(base, (mmap.mmap, np.memmap))

    def test_loaded_stream_reconstructs_blocks(self, store):
        stream = synthetic_stream(fifo_depth_tiles=4, num_blocks=8)
        key = stream_store_key("synthetic", {"case": "blocks"})
        store.put(key, stream.packed_bits(), describe=stream.describe())
        loaded = store.load_stream(key)
        assert isinstance(loaded, StoredWeightStream)
        assert loaded.describe()["network"] == "synthetic"
        built_blocks = list(stream.iter_blocks())
        loaded_blocks = list(loaded.iter_blocks())
        assert len(built_blocks) == len(loaded_blocks)
        for built, reloaded in zip(built_blocks, loaded_blocks):
            assert np.array_equal(built.words, reloaded.words)
            assert built.region == reloaded.region
            assert reloaded.words.flags.writeable is False

    def test_network_stream_roundtrip(self, store, tiny_scheduler):
        stream = CachedWeightStream(tiny_scheduler)
        packed = stream.packed_bits()
        key = stream_store_key("workload", {"case": "tiny_cnn"})
        store.put(key, packed, describe=stream.describe())
        loaded = store.get(key)
        assert packed_content_sha256(loaded) == packed_content_sha256(packed)

    def test_put_is_idempotent(self, store):
        packed = synthetic_stream().packed_bits()
        key = stream_store_key("synthetic", {"case": "idempotent"})
        store.put(key, packed)
        store.put(key, packed)  # second writer discards
        assert store.puts == 1
        assert key in store
        assert packed_content_sha256(store.get(key)) \
            == packed_content_sha256(packed)

    def test_missing_key_is_a_plain_miss(self, store):
        assert store.get("0" * 64) is None
        assert store.misses == 1 and store.corrupt == 0


# --------------------------------------------------------------------------- #
# Golden digests across the benchmark-style geometries
# --------------------------------------------------------------------------- #
class TestGoldenShas:
    """Pinned payload digests of seeded synthetic streams.

    Mini versions of the bench-case geometries (the paper's 64-bit datapath
    word, int8 words, and the 4-tile FIFO organisation).  A digest change
    means the packed stream *content* changed — which must be deliberate,
    and invalidates stored entries via :func:`stream_code_version`.
    """

    GOLDEN = [
        ("mini_64bit", 2, 64, 4, 1,
         "d811fe82722032ea1aa4358a7f2302561df6e09eec4c6e6e0587bf2af5245017"),
        ("mini_8bit", 1, 8, 6, 1,
         "47eb359c94aa0f8724701b9e00e08554a9634ef49ccec116345451849c518045"),
        ("mini_8bit_fifo4", 1, 8, 8, 4,
         "74cdc10340c195dfbc0205ffc09a97f6da293668a7f612627d0a309c922b7c0e"),
    ]

    @pytest.mark.parametrize("name,memory_kb,word_bits,num_blocks,fifo,sha",
                             GOLDEN, ids=[row[0] for row in GOLDEN])
    def test_built_and_loaded_match_golden(self, tmp_path, name, memory_kb,
                                           word_bits, num_blocks, fifo, sha):
        stream = synthetic_stream(memory_kb=memory_kb, word_bits=word_bits,
                                  num_blocks=num_blocks, fifo_depth_tiles=fifo)
        packed = stream.packed_bits()
        assert packed_content_sha256(packed) == sha

        store = StreamStore(tmp_path / "golden")
        key = stream_store_key("synthetic", {"case": name})
        manifest_path = store.put(key, packed)
        assert json.loads(manifest_path.read_text())["payload_sha256"] == sha
        assert packed_content_sha256(store.get(key)) == sha


# --------------------------------------------------------------------------- #
# Corruption fallback
# --------------------------------------------------------------------------- #
class TestCorruption:
    def _put_one(self, store):
        stream = synthetic_stream()
        packed = stream.packed_bits()
        key = stream_store_key("synthetic", {"case": "corrupt"})
        store.put(key, packed)
        return key, packed

    def test_truncated_payload_is_a_counted_miss(self, store):
        key, _packed = self._put_one(store)
        payload_path = store.payload_path(key)
        payload_path.write_bytes(payload_path.read_bytes()[:100])
        assert store.get(key) is None
        assert store.corrupt == 1 and store.misses == 1

    def test_mangled_manifest_is_a_counted_miss(self, store):
        key, _packed = self._put_one(store)
        store.manifest_path(key).write_text("{not json")
        assert store.get(key) is None
        assert store.corrupt == 1

    def test_schema_drift_reads_as_miss(self, store):
        key, _packed = self._put_one(store)
        manifest = json.loads(store.manifest_path(key).read_text())
        manifest["schema"] = "dnn-life-streamstore/v999"
        store.manifest_path(key).write_text(json.dumps(manifest))
        assert store.get(key) is None
        assert store.corrupt == 1

    def test_corrupt_entry_is_repaired_by_rebuild(self, store):
        key, packed = self._put_one(store)
        payload_path = store.payload_path(key)
        payload_path.write_bytes(payload_path.read_bytes()[:10])
        assert store.get(key) is None  # drops the manifest...
        assert key not in store
        store.put(key, packed)  # ...so the rebuild's put repairs the entry
        assert packed_content_sha256(store.get(key)) \
            == packed_content_sha256(packed)


# --------------------------------------------------------------------------- #
# Concurrency
# --------------------------------------------------------------------------- #
def _race_put(root, barrier, sha_queue):
    """Child-process body of the write race (module-level: spawn-picklable)."""
    from repro.streamstore import StreamStore, packed_content_sha256, stream_store_key

    stream = synthetic_stream(num_blocks=8)
    packed = stream.packed_bits()
    store = StreamStore(root)
    key = stream_store_key("synthetic", {"case": "race"})
    barrier.wait(timeout=60)  # maximise overlap of the two writers
    store.put(key, packed)
    sha_queue.put(packed_content_sha256(store.get(key)))


class TestConcurrency:
    @pytest.mark.slow
    def test_two_process_write_race_settles_on_one_valid_entry(self, tmp_path):
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(2)
        sha_queue = context.Queue()
        root = str(tmp_path / "race")
        workers = [context.Process(target=_race_put,
                                   args=(root, barrier, sha_queue))
                   for _ in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0

        shas = {sha_queue.get(timeout=10) for _ in range(2)}
        expected = packed_content_sha256(
            synthetic_stream(num_blocks=8).packed_bits())
        assert shas == {expected}  # both processes read one intact entry

        store = StreamStore(root)
        key = stream_store_key("synthetic", {"case": "race"})
        assert packed_content_sha256(store.get(key)) == expected
        assert not list(store.root.glob("**/*.tmp"))  # losers cleaned up


# --------------------------------------------------------------------------- #
# Maintenance: entries / stats / clear / gc
# --------------------------------------------------------------------------- #
class TestMaintenance:
    def test_entries_and_stats(self, store):
        stream = synthetic_stream()
        key = stream_store_key("synthetic", {"case": "stats"})
        store.put(key, stream.packed_bits(), describe=stream.describe())
        records = store.entries()
        assert len(records) == 1
        record = records[0]
        assert record["key"] == key
        assert record["nbytes"] == store.payload_path(key).stat().st_size
        assert record["geometry"]["word_bits"] == 8
        assert record["describe"]["network"] == "synthetic"
        stats = store.stats()
        assert stats["entries"] == 1 and stats["bytes"] == record["nbytes"]
        assert stats["puts"] == 1

    def test_clear_removes_everything(self, store):
        for seed in range(3):
            stream = synthetic_stream(seed=seed)
            store.put(stream_store_key("synthetic", {"seed": seed}),
                      stream.packed_bits())
        assert store.clear() == 3
        assert store.stats()["entries"] == 0
        assert not list(store.root.glob("??/*.bin"))

    def test_gc_removes_only_cold_entries(self, store):
        old_key = stream_store_key("synthetic", {"case": "old"})
        new_key = stream_store_key("synthetic", {"case": "new"})
        store.put(old_key, synthetic_stream(seed=1).packed_bits())
        store.put(new_key, synthetic_stream(seed=2).packed_bits())
        reference = 1_000_000.0
        os.utime(store.manifest_path(old_key), times=(reference - 500,
                                                      reference - 500))
        os.utime(store.manifest_path(new_key), times=(reference - 5,
                                                      reference - 5))
        assert store.gc(unused_seconds=100, now=reference) == 1
        assert old_key not in store and new_key in store

    def test_load_refreshes_last_used(self, store):
        key = stream_store_key("synthetic", {"case": "touch"})
        store.put(key, synthetic_stream().packed_bits())
        reference = 1_000_000.0
        os.utime(store.manifest_path(key), times=(reference - 500,
                                                  reference - 500))
        assert store.get(key) is not None  # load touches the manifest
        assert store.manifest_path(key).stat().st_mtime > reference - 500
        assert store.gc(unused_seconds=100, now=reference) == 0


# --------------------------------------------------------------------------- #
# Orphan reclamation (manifest-less payloads, crashed writers' temp files)
# --------------------------------------------------------------------------- #
def _race_gc(root, barrier):
    """Child-process body of the gc race (module-level: spawn-picklable)."""
    from repro.streamstore import StreamStore

    store = StreamStore(root)
    barrier.wait(timeout=60)  # maximise overlap of the two sweeps
    store.gc(unused_seconds=0.0, now=2_000_000.0)


class TestOrphanReclamation:
    REFERENCE = 1_000_000.0

    def _put_one(self, store, case="orphan"):
        stream = synthetic_stream()
        packed = stream.packed_bits()
        key = stream_store_key("synthetic", {"case": case})
        store.put(key, packed)
        return key, packed

    def _age(self, path, seconds_before_reference):
        stamp = self.REFERENCE - seconds_before_reference
        os.utime(path, times=(stamp, stamp))

    def test_corrupt_self_heal_drops_the_payload_too(self, store):
        # Regression: the self-heal used to unlink only the manifest,
        # stranding a payload no maintenance pass would ever reclaim.
        key, _packed = self._put_one(store)
        payload_path = store.payload_path(key)
        payload_path.write_bytes(payload_path.read_bytes()[:100])
        assert store.get(key) is None
        assert not store.manifest_path(key).exists()
        assert not payload_path.exists()
        assert store.stats()["orphan_bytes"] == 0

    def test_stats_reports_orphaned_footprint(self, store):
        key, _packed = self._put_one(store)
        nbytes = store.payload_path(key).stat().st_size
        store.manifest_path(key).unlink()  # strand the payload
        stats = store.stats()
        assert stats["entries"] == 0 and stats["bytes"] == 0
        assert stats["orphan_bytes"] == nbytes

    def test_clear_ends_with_zero_bytes_under_the_root(self, store):
        # The acceptance battery: a live entry, a stranded payload, and
        # crashed-writer temp files must all be gone after clear().
        live_key, _ = self._put_one(store, case="live")
        stranded_key, _ = self._put_one(store, case="stranded")
        store.manifest_path(stranded_key).unlink()
        bucket = store.manifest_path(live_key).parent
        (bucket / "dead.bin.tmp").write_bytes(b"x" * 512)
        (bucket / "dead.json.tmp").write_text("{}")
        for path in store._orphan_paths():
            self._age(path, 2 * ORPHAN_AGE_GUARD_SECONDS)
        assert store.clear(now=self.REFERENCE) == 1  # only the live entry
        leftovers = [path for path in store.root.rglob("*")
                     if path.is_file() and path.name != "manifest.json"]
        assert leftovers == []
        assert store.stats()["bytes"] == 0
        assert store.stats()["orphan_bytes"] == 0

    def test_gc_collects_aged_tmp_but_spares_inflight_writers(self, store):
        key, _packed = self._put_one(store)
        bucket = store.manifest_path(key).parent
        old_tmp = bucket / "old.bin.tmp"
        fresh_tmp = bucket / "fresh.bin.tmp"
        old_tmp.write_bytes(b"x" * 256)
        fresh_tmp.write_bytes(b"y" * 256)
        self._age(store.manifest_path(key), 5.0)  # keep the live entry warm
        self._age(old_tmp, 2 * ORPHAN_AGE_GUARD_SECONDS)
        self._age(fresh_tmp, 10.0)  # inside the age guard: in-flight writer
        assert store.gc(unused_seconds=100, now=self.REFERENCE) == 0
        assert not old_tmp.exists()
        assert fresh_tmp.exists()
        assert key in store

    def test_sweep_counters_accumulate(self, store):
        bucket = store.root / "ab"
        bucket.mkdir(parents=True)
        for index in range(3):
            path = bucket / f"junk{index}.bin.tmp"
            path.write_bytes(b"z" * 100)
            self._age(path, 2 * ORPHAN_AGE_GUARD_SECONDS)
        swept = store.sweep_orphans(now=self.REFERENCE)
        assert swept == {"files": 3, "bytes": 300}
        assert store.orphan_files_reclaimed == 3
        assert store.orphan_bytes_reclaimed == 300
        assert store.sweep_orphans(now=self.REFERENCE) \
            == {"files": 0, "bytes": 0}

    @pytest.mark.slow
    def test_two_process_gc_race_tolerates_concurrent_deletion(self, tmp_path):
        root = tmp_path / "gc-race"
        store = StreamStore(root)
        self._put_one(store)
        bucket = next(iter(store._manifest_paths())).parent
        for index in range(64):
            path = bucket / f"orphan{index}.bin.tmp"
            path.write_bytes(b"r" * 64)
            os.utime(path, times=(self.REFERENCE, self.REFERENCE))
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(2)
        workers = [context.Process(target=_race_gc, args=(str(root), barrier))
                   for _ in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0  # neither sweep tripped on the other
        assert not list(root.glob("??/*.tmp"))


# --------------------------------------------------------------------------- #
# Environment resolution and counter accounting
# --------------------------------------------------------------------------- #
class TestResolution:
    @pytest.mark.parametrize("value", ["0", "off", "none", "disabled",
                                       "false", " OFF "])
    def test_disabled_values(self, monkeypatch, value):
        monkeypatch.setenv(STREAM_STORE_ENV, value)
        assert resolve_stream_store() is None
        assert stream_store_stats() is None

    def test_explicit_path_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv(STREAM_STORE_ENV, "0")
        store = resolve_stream_store(tmp_path / "explicit")
        assert store is not None  # explicit root overrides the disable

    def test_env_path_is_used(self, monkeypatch, tmp_path):
        monkeypatch.setenv(STREAM_STORE_ENV, str(tmp_path / "from-env"))
        assert resolve_stream_store().root == tmp_path / "from-env"

    def test_default_follows_cache_dir_isolation(self, tmp_path, monkeypatch):
        monkeypatch.delenv(STREAM_STORE_ENV, raising=False)
        monkeypatch.setenv("DNN_LIFE_CACHE_DIR", str(tmp_path / "cache"))
        assert resolve_stream_store().root == tmp_path / "cache" / "streams"

    def test_stores_are_memoized_per_root(self, tmp_path):
        assert resolve_stream_store(tmp_path / "a") \
            is resolve_stream_store(tmp_path / "a")
        assert resolve_stream_store(tmp_path / "a") \
            is not resolve_stream_store(tmp_path / "b")

    def test_stats_delta(self, store):
        before = stream_store_stats(store)
        stream = synthetic_stream()
        key = stream_store_key("synthetic", {"case": "delta"})
        assert store.get(key) is None  # miss
        store.put(key, stream.packed_bits())
        assert store.get(key) is not None  # hit
        delta = stream_store_stats_delta(before, stream_store_stats(store))
        assert delta == {"root": str(store.root), "hits": 1, "misses": 1,
                         "puts": 1, "corrupt": 0}

    def test_stats_delta_resets_on_root_change(self, tmp_path):
        before = stream_store_stats(StreamStore(tmp_path / "a"))
        other = StreamStore(tmp_path / "b")
        other.hits = 3
        delta = stream_store_stats_delta(before, stream_store_stats(other))
        assert delta["hits"] == 3  # absolute counters: different store


# --------------------------------------------------------------------------- #
# build_workload_stream integration (LRU x store layering)
# --------------------------------------------------------------------------- #
class TestWorkloadStreamIntegration:
    SCALE = ExperimentScale(num_inferences=2, max_weights_per_layer=2_000)

    @pytest.fixture(autouse=True)
    def _fresh_lru(self):
        clear_stream_cache()
        yield
        clear_stream_cache()

    def _build(self, accelerator, store):
        return build_workload_stream("custom_mnist", accelerator,
                                     "int8_symmetric", self.SCALE, seed=0,
                                     store=store)

    def test_lru_disabled_store_still_serves(self, monkeypatch, tmp_path,
                                             tiny_accelerator):
        """Regression: ``DNN_LIFE_STREAM_CACHE=0`` used to force a full
        rebuild per affinity batch; the store must now absorb those."""
        monkeypatch.setenv("DNN_LIFE_STREAM_CACHE", "0")
        store = StreamStore(tmp_path / "streams")
        first = self._build(tiny_accelerator, store)
        assert isinstance(first, CachedWeightStream)
        built_sha = packed_content_sha256(first.packed_bits())  # lazy offer
        assert store.puts == 1

        second = self._build(tiny_accelerator, store)
        assert isinstance(second, StoredWeightStream)  # no rebuild
        assert second is not first  # the LRU really was off
        assert packed_content_sha256(second.packed_bits()) == built_sha
        assert store.puts == 1 and store.hits >= 1

    def test_cold_build_looks_the_store_up_once(self, tmp_path,
                                               tiny_accelerator):
        """Regression: the cold stream's ``packed_bits`` used to repeat the
        store lookup ``build_workload_stream`` had just missed, counting
        two misses per cold build."""
        store = StreamStore(tmp_path / "streams")
        stream = self._build(tiny_accelerator, store)
        stream.packed_bits()
        assert store.misses == 1
        assert store.puts == 1 and store.hits == 0

    def test_lru_hit_short_circuits_the_store(self, tmp_path, tiny_accelerator):
        store = StreamStore(tmp_path / "streams")
        first = self._build(tiny_accelerator, store)
        first.packed_bits()
        counters = (store.hits, store.misses)
        assert self._build(tiny_accelerator, store) is first
        assert (store.hits, store.misses) == counters  # untouched

    def test_reuse_false_bypasses_the_store(self, tmp_path, tiny_accelerator):
        store = StreamStore(tmp_path / "streams")
        stream = build_workload_stream("custom_mnist", tiny_accelerator,
                                       "int8_symmetric", self.SCALE, seed=0,
                                       reuse=False, store=store)
        stream.packed_bits()
        assert store.stats()["entries"] == 0  # never persisted

    def test_store_none_disables_persistence(self, tiny_accelerator,
                                             monkeypatch, tmp_path):
        monkeypatch.setenv(STREAM_STORE_ENV, str(tmp_path / "unused"))
        stream = self._build(tiny_accelerator, None)
        stream.packed_bits()
        assert not (tmp_path / "unused").exists()

    def test_store_env_auto_resolution(self, monkeypatch, tmp_path,
                                       tiny_accelerator):
        monkeypatch.setenv(STREAM_STORE_ENV, str(tmp_path / "auto"))
        monkeypatch.setenv("DNN_LIFE_STREAM_CACHE", "0")
        self._build(tiny_accelerator, "auto").packed_bits()
        reloaded = self._build(tiny_accelerator, "auto")
        assert isinstance(reloaded, StoredWeightStream)

    def test_loaded_stream_drives_the_simulator_identically(
            self, monkeypatch, tmp_path, tiny_accelerator):
        """An aging run on the memmapped stream must agree bit-for-bit with
        the same run on the freshly-built stream."""
        from repro.core.policies import make_policy
        from repro.core.simulation import AgingSimulator

        monkeypatch.setenv("DNN_LIFE_STREAM_CACHE", "0")
        store = StreamStore(tmp_path / "streams")
        built = self._build(tiny_accelerator, store)
        built.packed_bits()
        loaded = self._build(tiny_accelerator, store)
        assert isinstance(loaded, StoredWeightStream)

        def run(stream):
            policy = make_policy("inversion", stream.geometry.word_bits)
            return AgingSimulator(stream, policy, num_inferences=3, seed=0).run()

        assert np.array_equal(run(built).duty_cycles, run(loaded).duty_cycles)
