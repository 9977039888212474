"""Tests for the persistent content-addressed result store.

The acceptance bar of the cross-run cache: a warm re-run must merge
stored (k, E) results **bitwise-identically** to a cold run while
solving nothing (zero ledger flops), keys must be sensitive to every
input that determines the bitwise value (device content, applied
potential, energy, k, solver, OBC configuration), corrupt objects must
degrade to misses, eviction must be LRU, and under ``backend="process"``
concurrently publishing workers must leave a store a warm re-run reads
back bitwise.
"""

import errno
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.cache import (
    RECORD_SCHEMA_VERSION,
    ResultStore,
    as_result_store,
    canonical_float,
    device_content_hash,
    pack_result,
    result_key,
    unpack_result,
)
from repro.cache import store as store_mod
from repro.cache.store import decode_record, encode_record
from repro.core.runner import SpectrumUnitSpec, _solve_unit, compute_spectrum
from repro.hamiltonian import build_device
from repro.linalg import ledger_scope
from repro.observability.spans import SpanTracer, tracing
from repro.pipeline import TransportPipeline
from repro.structure import linear_chain
from repro.utils.errors import ConfigurationError
from tests.test_hamiltonian import single_s_basis

ENERGIES = [-0.55, -0.45, -0.35, -0.25]


def _spectrum(energies=ENERGIES, **kwargs):
    return compute_spectrum(linear_chain(6, 0.25), single_s_basis(), 6,
                            energies, obc_method="dense", solver="rgf",
                            **kwargs)


def _device(potential=None):
    dev = build_device(linear_chain(6, 0.25), single_s_basis(), 6)
    if potential is not None:
        dev = dev.with_potential(np.asarray(potential, dtype=float))
    return dev


def _key(device_hash, **overrides):
    kw = dict(obc_method="dense", obc_kwargs=None, solver="rgf",
              num_partitions=1, kz=0.0, energy=-0.45)
    kw.update(overrides)
    return result_key(device_hash, **kw)


def _payload(seed=0):
    rng = np.random.default_rng(seed)
    return {"a": rng.standard_normal((3, 3)),
            "b": np.float64(seed + 0.5),
            "c": rng.integers(0, 9, 4)}


def _assert_bitwise_results(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.energy == w.energy
        assert g.transmission_lr == w.transmission_lr
        assert g.transmission_rl == w.transmission_rl
        assert g.num_prop_left == w.num_prop_left
        assert np.array_equal(g.mode_transmissions, w.mode_transmissions)
        assert np.array_equal(g.psi, w.psi)
        assert np.array_equal(g.from_left, w.from_left)
        assert np.array_equal(g.velocities, w.velocities)


class TestKeys:
    def test_canonical_float_is_exact_hex(self):
        assert canonical_float(0.1) == (0.1).hex()
        assert canonical_float(np.float64(-2.5)) == (-2.5).hex()
        # one-ulp differences survive the canonical form
        assert canonical_float(0.1) != canonical_float(
            np.nextafter(0.1, 1.0))

    def test_device_hash_stable_and_potential_sensitive(self):
        assert device_content_hash(_device()) \
            == device_content_hash(_device())
        pot = 0.01 * np.arange(6, dtype=float)
        assert device_content_hash(_device(pot)) \
            != device_content_hash(_device())

    def test_key_sensitive_to_every_input(self):
        dh = device_content_hash(_device())
        base = _key(dh)
        assert base == _key(dh)   # deterministic
        others = [
            _key(dh, energy=-0.35),
            _key(dh, kz=0.25),
            _key(dh, solver="splitsolve"),
            _key(dh, obc_method="feast"),
            _key(dh, obc_kwargs={"seed": 3}),
            _key(dh, num_partitions=2),
            _key(device_content_hash(
                _device(0.01 * np.arange(6, dtype=float)))),
        ]
        assert base not in others
        assert len(set(others)) == len(others)

    def test_obc_kwargs_order_independent(self):
        dh = device_content_hash(_device())
        assert _key(dh, obc_kwargs={"seed": 3, "r_outer": 3.0}) \
            == _key(dh, obc_kwargs={"r_outer": 3.0, "seed": 3})


class TestStoreIO:
    def test_put_get_roundtrip_bitwise(self, tmp_path):
        store = ResultStore(tmp_path)
        payload = _payload(1)
        assert store.put("ab" * 32, payload) is True
        assert store.contains("ab" * 32)
        assert store.put("ab" * 32, payload) is False   # idempotent
        rec = store.get("ab" * 32)
        assert set(rec) == set(payload)
        for name in payload:
            assert np.array_equal(rec[name], np.asarray(payload[name]))
            assert rec[name].dtype == np.asarray(payload[name]).dtype

    def test_missing_key_is_miss(self, tmp_path):
        assert ResultStore(tmp_path).get("cd" * 32) is None

    def test_object_dtype_payload_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ConfigurationError, match="object dtype"):
            store.put("ef" * 32, {"bad": np.asarray([{}, {}])})

    def test_corrupt_object_is_counted_miss_and_removed(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "12" * 32
        store.put(key, _payload(2))
        path = store._object_path(key)
        with open(path, "r+b") as fh:
            fh.seek(60)
            fh.write(b"\xff\xff\xff\xff")
        tracer = SpanTracer()
        with tracing(tracer):
            assert store.get(key) is None
        assert not os.path.exists(path)   # discarded, not retried
        assert tracer.metrics.counter("result_store_corrupt").value == 1
        assert tracer.metrics.counter("result_store_misses").value == 1

    def test_verify_reports_corruption(self, tmp_path):
        store = ResultStore(tmp_path)
        good, bad = "aa" * 32, "bb" * 32
        store.put(good, _payload(3))
        store.put(bad, _payload(4))
        with open(store._object_path(bad), "r+b") as fh:
            fh.seek(70)
            fh.write(b"\x00\x00\x00\x00")
        report = store.verify()
        assert report["checked"] == 2
        assert report["corrupt"] == [bad]

    def test_schema_bump_invalidates_records(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        store.put("cc" * 32, _payload(5))
        import repro.cache.store as store_mod
        monkeypatch.setattr(store_mod, "RECORD_SCHEMA_VERSION",
                            RECORD_SCHEMA_VERSION + 1)
        assert store.get("cc" * 32) is None

    def test_lru_eviction_drops_oldest_first(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = ["%02d" % i * 32 for i in range(3)]
        for i, key in enumerate(keys):
            store.put(key, _payload(i))
            os.utime(store._object_path(key), (1000.0 + i, 1000.0 + i))
        size = os.path.getsize(store._object_path(keys[0]))
        tracer = SpanTracer()
        with tracing(tracer):
            out = store.prune(2 * size)
        assert out["removed"] == 1
        assert not store.contains(keys[0])   # oldest evicted
        assert store.contains(keys[1]) and store.contains(keys[2])
        assert tracer.metrics.counter(
            "result_store_evictions").value == 1
        evicts = [sp for sp in tracer.records()
                  if sp.name == "result-store-evict"]
        assert len(evicts) == 1 and evicts[0].attrs["removed"] == 1

    def test_get_touch_updates_recency(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = ["%02d" % i * 32 for i in range(2)]
        for i, key in enumerate(keys):
            store.put(key, _payload(i))
            os.utime(store._object_path(key), (1000.0 + i, 1000.0 + i))
        store.get(keys[0])   # touch: now most recently used
        size = os.path.getsize(store._object_path(keys[1]))
        store.prune(size)
        assert store.contains(keys[0])
        assert not store.contains(keys[1])

    def test_max_bytes_budget_enforced_on_put(self, tmp_path):
        store = ResultStore(tmp_path, max_bytes=1)
        store.put("dd" * 32, _payload(6))
        store.put("ee" * 32, _payload(7))
        # the freshly published object is protected; older ones go
        assert store.stats()["objects"] == 1
        assert store.contains("ee" * 32)

    def test_stats_and_calibrations(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("ff" * 32, _payload(8))
        # a calibration area an earlier version left behind is not the
        # store's business any more: neither counted nor in the way
        (tmp_path / "calibration").mkdir()
        (tmp_path / "calibration" / "dispatch-host.json").write_text("{}")
        s = ResultStore(tmp_path).stats()
        assert s["objects"] == 1 and s["total_bytes"] > 0
        assert "calibrations" not in s

    def test_as_result_store_coercion(self, tmp_path):
        assert as_result_store(None) is None
        store = as_result_store(tmp_path / "s")
        assert isinstance(store, ResultStore)
        assert as_result_store(store) is store
        with pytest.raises(ConfigurationError):
            as_result_store(42)


KEY = "5a" * 32

_DTYPES = st.sampled_from([
    np.bool_, np.int8, np.int32, np.int64, np.uint8, np.uint16,
    np.uint64, np.float32, np.float64, np.complex64, np.complex128,
    np.dtype(">f8"), np.dtype(">c16")])


@st.composite
def _array(draw):
    """0-3 dimensional arrays, zero-size ones included, handed over
    contiguous, transposed or strided."""
    a = draw(hnp.arrays(_DTYPES, hnp.array_shapes(
        min_dims=0, max_dims=3, min_side=0, max_side=4)))
    view = draw(st.sampled_from(["as-is", "transposed", "strided"]))
    if view == "transposed":
        return a.T
    if view == "strided" and a.ndim:
        return a[..., ::2]
    return a


def _forge(fields, body=bytes(64), **header):
    """A record with a valid checksum over whatever field table it is
    given: what decoding must refuse on the table alone."""
    header = dict({"schema": RECORD_SCHEMA_VERSION, "kind": "result",
                   "key": KEY, "fields": fields}, **header)
    size = len(store_mod._header_bytes(dict(header, checksum="0" * 64)))
    prefix = store_mod._PREFIX
    tail = bytes(store_mod._aligned(prefix + size) - prefix - size) + body
    header["checksum"] = store_mod._checksum(header, tail)
    return bytearray(store_mod._MAGIC + size.to_bytes(4, "little")
                     + store_mod._header_bytes(header) + tail)


def _write(store, key, blob):
    path = store._object_path(key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(blob)
    return path


def _assert_counted_corrupt_miss(store, key):
    path = store._object_path(key)
    tracer = SpanTracer()
    with tracing(tracer):
        assert store.get(key) is None
    assert not os.path.exists(path)
    assert tracer.metrics.counter("result_store_misses").value == 1
    assert tracer.metrics.counter("result_store_corrupt").value == 1


class TestRecordCodec:
    """The record file read back from hostile bytes: every array comes
    back bitwise and writable, or the record is a miss."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(payload=st.dictionaries(st.text(min_size=1, max_size=8),
                                   _array(), max_size=5))
    def test_any_numeric_payload_round_trips_bitwise(self, payload):
        with tempfile.TemporaryDirectory() as root:
            store = ResultStore(root)
            assert store.put(KEY, payload) is True
            rec = store.get(KEY)
        assert set(rec) == set(payload)
        for name, want in payload.items():
            got = rec[name]
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()
            assert got.flags.writeable

    def test_zero_size_psi_round_trips(self, tmp_path):
        store = ResultStore(tmp_path)
        payload = {"psi": np.zeros((12, 0), dtype=complex),
                   "from_left": np.zeros(0, dtype=bool)}
        store.put(KEY, payload)
        rec = store.get(KEY)
        assert rec["psi"].shape == (12, 0) and rec["psi"].dtype == complex
        assert rec["from_left"].shape == (0,)

    def test_every_single_byte_corruption_is_refused(self):
        # a non-ASCII name is escaped in the header, where 0x20 turns
        # \u03c8 into the same name spelt \u03C8
        payload = dict(pack_result(_spectrum().results[1]),
                       **{"\u03c8": np.arange(3)})
        record = encode_record(KEY, payload)
        assert decode_record(bytearray(record), KEY) is not None
        for pos in range(len(record)):
            for flip in (0x01, 0x20, 0xFF):
                bad = bytearray(record)
                bad[pos] ^= flip
                assert decode_record(bad, KEY) is None, (pos, flip)
        for size in range(len(record)):
            assert decode_record(record[:size], KEY) is None, size

    def test_corruption_in_each_region_is_a_counted_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        record = encode_record(KEY, _payload(1))
        size = int.from_bytes(record[8:12], "little")
        # magic, header length, header, body
        for pos in (3, 9, 12 + size // 2, len(record) - 5):
            bad = bytearray(record)
            bad[pos] ^= 0x20
            _write(store, KEY, bad)
            _assert_counted_corrupt_miss(store, KEY)

    def test_forged_header_is_decoded_only_when_sound(self):
        assert decode_record(_forge([["x", "<f8", [8], 0]]), KEY)["x"] \
            .shape == (8,)
        for fields in ([["x", "|O", [8], 0]],        # object
                       [["x", "|V8", [8], 0]],       # void
                       [["x", "<U1", [16], 0]],      # not a number
                       [["x", "<f8", [9], 0]],       # past the end
                       [["x", "<f8", [1], 64]],
                       [["x", "<f8", [1], -8]],
                       [["x", "<f8", [-1], 0]],
                       [["x", "<f8", [8]]]):
            assert decode_record(_forge(fields), KEY) is None, fields
        # a sound table under another key or schema is not this record
        assert decode_record(_forge([["x", "<f8", [8], 0]], key="ab"),
                             KEY) is None
        assert decode_record(_forge([["x", "<f8", [8], 0]], schema=1),
                             KEY) is None

    def test_forged_object_dtype_is_a_counted_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        _write(store, KEY, _forge([["x", "|O", [8], 0]]))
        _assert_counted_corrupt_miss(store, KEY)

    def test_eviction_racing_a_get_is_a_plain_miss(self, tmp_path,
                                                   monkeypatch):
        store = ResultStore(tmp_path)
        store.put(KEY, _payload(1))

        def evicted(path):
            raise FileNotFoundError(errno.ENOENT, "evicted", path)
        monkeypatch.setattr(store_mod, "_read", evicted)
        tracer = SpanTracer()
        with tracing(tracer):
            assert store.get(KEY) is None
        assert tracer.metrics.counter("result_store_misses").value == 1
        assert tracer.metrics.counter("result_store_corrupt").value == 0
        assert os.path.exists(store._object_path(KEY))

    def test_schema_1_npz_is_never_read_and_verify_names_it(self,
                                                           tmp_path):
        store = ResultStore(tmp_path)
        old = os.path.join(str(tmp_path), "objects", KEY[:2],
                           KEY + ".npz")
        os.makedirs(os.path.dirname(old))
        meta = {"schema": 1, "kind": "result", "key": KEY}
        np.savez(old, __meta__=np.asarray(json.dumps(meta)),
                 **_payload(1))
        tracer = SpanTracer()
        with tracing(tracer):
            assert store.get(KEY) is None
        assert tracer.metrics.counter("result_store_misses").value == 1
        assert tracer.metrics.counter("result_store_corrupt").value == 0
        assert os.path.exists(old) and not store.contains(KEY)
        assert store.stats()["objects"] == 1
        assert store.verify() == {"checked": 1, "corrupt": [KEY]}
        assert store.prune(0)["removed"] == 1
        assert not os.path.exists(old)


class TestPackUnpack:
    def test_pack_unpack_roundtrip_bitwise(self):
        res = _spectrum().results[1]
        rebuilt = unpack_result(pack_result(res))
        _assert_bitwise_results([rebuilt], [res])
        assert res.seconds > 0
        assert rebuilt.seconds == 0.0 and rebuilt.boundary is None
        assert "seconds" not in pack_result(res)

    def test_record_with_an_extra_array_stays_readable(self, tmp_path):
        # FEAST records used to carry the solve's Ritz block next to
        # the result; such a record still loads and unpacks
        spec = compute_spectrum(linear_chain(6, 0.25), single_s_basis(),
                                6, ENERGIES[:2], obc_method="feast",
                                solver="rgf", obc_kwargs={"seed": 3})
        payload = pack_result(spec.results[0])
        assert set(payload) == set(pack_result(_spectrum().results[0]))
        store = ResultStore(tmp_path)
        store.put("99" * 32, dict(payload, ritz_block=np.ones((4, 2))))
        _assert_bitwise_results([unpack_result(store.get("99" * 32))],
                                [spec.results[0]])


class TestSpectrumIntegration:
    def test_cold_run_publishes_every_point(self, tmp_path):
        tracer = SpanTracer()
        with tracing(tracer):
            _spectrum(result_store=tmp_path / "store")
        store = ResultStore(tmp_path / "store")
        assert store.stats()["objects"] == len(ENERGIES)
        assert store.verify()["corrupt"] == []
        m = tracer.metrics
        assert m.counter("result_store_misses").value == len(ENERGIES)
        assert m.counter("result_store_puts").value == len(ENERGIES)

    def test_warm_run_bitwise_identical_with_zero_solve_flops(
            self, tmp_path):
        ref = _spectrum()
        cold = _spectrum(result_store=tmp_path / "store",
                         energy_batch_size=2)
        assert np.array_equal(ref.transmission, cold.transmission)
        tracer = SpanTracer()
        with tracing(tracer):
            with ledger_scope() as led:
                warm = _spectrum(result_store=tmp_path / "store",
                                 energy_batch_size=2)
        assert np.array_equal(ref.transmission, warm.transmission)
        assert np.array_equal(ref.mode_counts, warm.mode_counts)
        _assert_bitwise_results(warm.results, ref.results)
        # hits re-solve nothing: no flops, no stage spans, no time
        assert led.total_flops == 0
        assert all(r.seconds == 0.0 for r in warm.results)
        assert not warm.seconds.any()
        assert not any(sp.category == "stage" for sp in tracer.records())
        probes = [sp for sp in tracer.records()
                  if sp.name == "result-store-probe"]
        assert len(probes) == 1
        assert probes[0].attrs["hits"] == len(ENERGIES)
        assert probes[0].attrs["hit_rate"] == 1.0

    def test_partial_hits_rebucket_bitwise(self, tmp_path):
        ref = _spectrum()
        # pre-populate only the alternate energies, then run the full
        # grid batched: partially-hit units re-bucket to their misses
        _spectrum(energies=ENERGIES[::2], result_store=tmp_path / "store")
        tracer = SpanTracer()
        with tracing(tracer):
            mixed = _spectrum(result_store=tmp_path / "store",
                              energy_batch_size=2)
        assert np.array_equal(ref.transmission, mixed.transmission)
        _assert_bitwise_results(mixed.results, ref.results)
        probes = [sp for sp in tracer.records()
                  if sp.name == "result-store-probe"]
        assert probes[0].attrs["hits"] == len(ENERGIES[::2])
        assert probes[0].attrs["misses"] == len(ENERGIES) \
            - len(ENERGIES[::2])
        # the store now holds the full grid
        store = ResultStore(tmp_path / "store")
        assert store.stats()["objects"] == len(ENERGIES)

    def test_thread_runner_warm_run_bitwise(self, tmp_path):
        from repro.parallel import ThreadTaskRunner

        cold = _spectrum(result_store=tmp_path / "store",
                         backend="thread", num_workers=2,
                         energy_batch_size=2)
        warm = _spectrum(result_store=tmp_path / "store",
                         backend="thread", num_workers=2,
                         energy_batch_size=2)
        assert np.array_equal(cold.transmission, warm.transmission)
        _assert_bitwise_results(warm.results, cold.results)

    def test_thread_run_publishes_each_unit_as_it_returns(
            self, tmp_path, monkeypatch):
        """Regression: behind a thread runner the parent put the results
        in the store only after every unit had returned, so a run that
        died in its last unit left nothing to resume from."""
        from repro.parallel import ThreadTaskRunner
        from repro.utils.errors import TaskExecutionError

        energies = np.linspace(-0.6, -0.2, 6)
        solve_batch = TransportPipeline.solve_batch

        def last_unit_dies(self, cache, unit_energies, **kw):
            if list(kw["energy_indices"]) == [4, 5]:
                raise RuntimeError("killed in the last unit")
            return solve_batch(self, cache, unit_energies, **kw)

        monkeypatch.setattr(TransportPipeline, "solve_batch",
                            last_unit_dies)
        with pytest.raises(TaskExecutionError):
            _spectrum(energies, energy_batch_size=2,
                      task_runner=ThreadTaskRunner(2),
                      result_store=tmp_path / "store")
        assert ResultStore(tmp_path / "store").stats()["objects"] == 4
        monkeypatch.setattr(TransportPipeline, "solve_batch", solve_batch)
        tracer = SpanTracer()
        with tracing(tracer):
            _spectrum(energies, energy_batch_size=2,
                      task_runner=ThreadTaskRunner(2),
                      result_store=tmp_path / "store")
        assert tracer.metrics.counter("result_store_hits").value == 4


def _process_spectrum(store_root):
    return _spectrum(backend="process", num_workers=2,
                     energy_batch_size=2, result_store=store_root)


def _hex(spectrum):
    return [t.hex() for t in spectrum.transmission.ravel()]


class TestProcessBackendStore:
    """Store round-trip under ``backend="process"``: workers publish
    concurrently, and the warm re-run is bitwise the cold run."""

    def test_warm_rerun_is_bitwise(self, tmp_path):
        store_root = tmp_path / "store"
        cold = _process_spectrum(store_root)
        assert _hex(cold) == _hex(_spectrum())
        store = ResultStore(store_root)
        assert store.stats()["objects"] == len(ENERGIES)

        tracer = SpanTracer()
        with tracing(tracer):
            warm = _process_spectrum(store_root)
        assert _hex(warm) == _hex(cold)
        _assert_bitwise_results(warm.results, cold.results)
        probes = [sp for sp in tracer.records()
                  if sp.name == "result-store-probe"]
        assert probes[0].attrs["hits"] == len(ENERGIES)


class TestInRunCacheCounters:
    def test_boundary_point_memo_counts_hits_and_misses(self):
        pipe = TransportPipeline(obc_method="dense", solver="rgf")
        cache = pipe.cache(_device())
        tracer = SpanTracer()
        with tracing(tracer):
            a = cache.boundary(-0.45, "dense")
            b = cache.boundary(-0.45, "dense")
            cache.boundary(-0.35, "dense")
        assert a is b
        m = tracer.metrics
        assert m.counter("obc_point_cache_misses").value == 2
        assert m.counter("obc_point_cache_hits").value == 1

    def test_worker_cache_counts_builds_and_reuses(self):
        spec = SpectrumUnitSpec(
            structure=linear_chain(6, 0.25), basis=single_s_basis(),
            num_cells=6, kz=0.0, potential=None, obc_method="dense",
            solver="rgf", num_partitions=1, obc_kwargs=None,
            energies=(-0.45, -0.35), kpoint_index=0,
            energy_indices=(0, 1), run_token="store-test-token")
        tracer = SpanTracer()
        with tracing(tracer):
            _solve_unit(spec)
            _solve_unit(spec)
        m = tracer.metrics
        assert m.counter("worker_cache_misses").value == 1
        assert m.counter("worker_cache_hits").value == 1


class TestCacheCli:
    def test_stats_verify_prune(self, tmp_path, capsys):
        from repro.__main__ import main

        root = str(tmp_path / "store")
        store = ResultStore(root)
        for i in range(2):
            store.put("%02d" % i * 32, _payload(i))
        assert main(["cache", "stats", root]) == 0
        assert "2 objects" in capsys.readouterr().out
        assert main(["cache", "verify", root]) == 0
        path = store._object_path("00" * 32)
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 64)
        assert main(["cache", "verify", root]) == 1
        assert main(["cache", "prune", root]) == 2   # needs --max-bytes
        assert main(["cache", "prune", root, "--max-bytes", "0"]) == 0
        assert ResultStore(root).stats()["objects"] == 0
