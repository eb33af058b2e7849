"""Envelope edge cases: checksums, truncation, drift, races, crash debris."""

import os
import pickle
import time
import zlib

from repro.platforms import ArtifactStore
from repro.platforms.store import _MAGIC, STORE_SCHEMA_VERSION


def make_entry(store, payload="payload", schema=None):
    key = store.key_for("t4", "rgcn", "acm", "d0")
    store.save(key, payload, schema=schema)
    return key, store._path(key)


def quarantined_files(store):
    if not store.quarantine_root.is_dir():
        return []
    return [
        p for p in store.quarantine_root.iterdir() if p.name != ".lock"
    ]


class TestChecksum:
    def test_payload_bit_flip_is_detected_and_quarantined(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key, path = make_entry(store, {"time_ms": 1.5})
        envelope = pickle.loads(path.read_bytes())
        payload = bytearray(envelope["payload"])
        payload[len(payload) // 2] ^= 0x01
        envelope["payload"] = bytes(payload)
        path.write_bytes(pickle.dumps(envelope))
        assert store.load(key) is None
        assert store.stats.quarantined == 1
        assert not path.exists()
        assert len(quarantined_files(store)) == 1

    def test_forged_checksum_does_not_help(self, tmp_path):
        """A checksum matching corrupt bytes still fails payload parse."""
        store = ArtifactStore(tmp_path)
        key, path = make_entry(store)
        envelope = pickle.loads(path.read_bytes())
        envelope["payload"] = b"\x80\x04garbage"
        envelope["crc32"] = zlib.crc32(envelope["payload"])
        path.write_bytes(pickle.dumps(envelope))
        assert store.load(key) is None
        assert store.stats.quarantined == 1

    def test_wrong_payload_type_is_corrupt(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key, path = make_entry(store)
        envelope = pickle.loads(path.read_bytes())
        envelope["payload"] = "not-bytes"
        path.write_bytes(pickle.dumps(envelope))
        assert store.load(key) is None
        assert store.stats.quarantined == 1


class TestTruncation:
    def test_truncated_at_every_byte_offset_never_leaks_data(self, tmp_path):
        """A torn write of any length reads as a miss, never as data."""
        store = ArtifactStore(tmp_path)
        key, path = make_entry(store, {"time_ms": 1.5, "tag": "x" * 32})
        pristine = path.read_bytes()
        for offset in range(len(pristine)):
            path.parent.mkdir(exist_ok=True)
            path.write_bytes(pristine[:offset])
            assert store.load(key) is None, f"offset {offset} leaked data"
            assert not path.exists()  # quarantined, not left to rot
        # The full prefix is the only valid read.
        path.write_bytes(pristine)
        assert store.load(key) == {"time_ms": 1.5, "tag": "x" * 32}
        assert store.stats.quarantined == len(pristine)

    def test_quarantine_names_never_collide(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key, path = make_entry(store)
        pristine = path.read_bytes()
        for _ in range(3):
            path.write_bytes(pristine[: len(pristine) // 2])
            assert store.load(key) is None
        corpses = quarantined_files(store)
        assert len(corpses) == 3
        assert len({p.name for p in corpses}) == 3


class TestSchemaDrift:
    def test_schema_tag_mismatch_evicts(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key, path = make_entry(store, schema=("cell-result", 1))
        assert store.load(key, schema=("cell-result", 2)) is None
        assert store.stats.evicted == 1
        assert store.stats.quarantined == 0
        assert not path.exists()
        assert not quarantined_files(store)  # stale is not corrupt

    def test_store_version_drift_evicts(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key, path = make_entry(store)
        envelope = pickle.loads(path.read_bytes())
        envelope["store_version"] = STORE_SCHEMA_VERSION + 1
        path.write_bytes(pickle.dumps(envelope))
        assert store.load(key) is None
        assert store.stats.evicted == 1

    def test_pre_envelope_entry_is_corrupt(self, tmp_path):
        """A bare pickled payload (the v0 format) never parses as data."""
        store = ArtifactStore(tmp_path)
        key = store.key_for("t4", "rgcn", "acm", "d0")
        path = store._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps({"time_ms": 1.5}))
        assert store.load(key) is None
        assert store.stats.quarantined == 1

    def test_magic_mismatch_is_corrupt(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key, path = make_entry(store)
        envelope = pickle.loads(path.read_bytes())
        assert envelope["magic"] == _MAGIC
        envelope["magic"] = "other-tool"
        path.write_bytes(pickle.dumps(envelope))
        assert store.load(key) is None
        assert store.stats.quarantined == 1


class TestReadRaces:
    def test_concurrent_delete_during_load_is_a_clean_miss(self, tmp_path):
        """First read sees garbage, locked re-read finds the file gone
        (a concurrent delete won the race): miss, no quarantine."""
        store = ArtifactStore(tmp_path)
        key, path = make_entry(store)
        reads = {"n": 0}
        real_read = store._read

        def racing_read(p, k):
            reads["n"] += 1
            if reads["n"] == 1:
                return b"garbage"
            raise FileNotFoundError(p)

        store._read = racing_read
        try:
            assert store.load(key) is None
        finally:
            store._read = real_read
        assert reads["n"] == 2
        assert store.stats.misses == 1
        assert store.stats.quarantined == 0
        assert path.exists()  # the (real) entry was never condemned

    def test_concurrent_replace_during_load_serves_fresh_entry(self, tmp_path):
        """First read sees a torn state, locked re-read sees the
        writer's completed replacement: served, nothing destroyed."""
        store = ArtifactStore(tmp_path)
        key, path = make_entry(store, {"fresh": True})
        reads = {"n": 0}
        real_read = store._read

        def racing_read(p, k):
            reads["n"] += 1
            if reads["n"] == 1:
                return b"garbage"
            return real_read(p, k)

        store._read = racing_read
        try:
            assert store.load(key) == {"fresh": True}
        finally:
            store._read = real_read
        assert store.stats.hits == 1
        assert store.stats.quarantined == 0
        assert path.exists()


class TestCrashDebris:
    def make_tmp(self, store, *, age_s=0.0, shard="ab"):
        shard_dir = store.root / shard
        shard_dir.mkdir(parents=True, exist_ok=True)
        tmp = shard_dir / "orphan.tmp"
        tmp.write_bytes(b"partial write")
        if age_s:
            past = time.time() - age_s
            os.utime(tmp, (past, past))
        return tmp

    def test_len_ignores_orphaned_tmp_files(self, tmp_path):
        store = ArtifactStore(tmp_path)
        make_entry(store)
        self.make_tmp(store)
        assert len(store) == 1

    def test_clear_counts_entries_but_sweeps_tmps(self, tmp_path):
        store = ArtifactStore(tmp_path)
        make_entry(store)
        tmp = self.make_tmp(store)
        assert store.clear() == 1
        assert not tmp.exists()
        assert len(store) == 0

    def test_gc_respects_tmp_age(self, tmp_path):
        store = ArtifactStore(tmp_path)
        fresh = self.make_tmp(store, shard="aa")
        stale = self.make_tmp(store, age_s=7200.0, shard="bb")
        report = store.gc()
        assert report["tmp_removed"] == 1
        assert fresh.exists() and not stale.exists()
        assert store.gc(tmp_max_age_s=0.0)["tmp_removed"] == 1
        assert not fresh.exists()

    def test_gc_purges_quarantine_on_request(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key, path = make_entry(store)
        path.write_bytes(b"garbage")
        assert store.load(key) is None
        assert len(quarantined_files(store)) == 1
        assert store.gc()["quarantine_removed"] == 0  # opt-in only
        report = store.gc(purge_quarantine=True)
        assert report["quarantine_removed"] == 1
        assert not quarantined_files(store)


class TestVerify:
    def test_scrubs_mixed_store(self, tmp_path):
        store = ArtifactStore(tmp_path)
        ok_key = store.key_for("t4", "rgcn", "acm", "good")
        store.save(ok_key, {"ok": True}, schema=("s", 1))
        bad_key = store.key_for("t4", "rgcn", "acm", "bad")
        store.save(bad_key, {"ok": False})
        store._path(bad_key).write_bytes(b"garbage")
        stale_key = store.key_for("t4", "rgcn", "acm", "stale")
        store.save(stale_key, {"ok": False})
        stale_path = store._path(stale_key)
        envelope = pickle.loads(stale_path.read_bytes())
        envelope["store_version"] = STORE_SCHEMA_VERSION + 1
        stale_path.write_bytes(pickle.dumps(envelope))

        report = store.verify()
        assert report == {
            "checked": 3,
            "ok": 1,
            "quarantined": 1,
            "evicted": 1,
        }
        # Schema tags are opaque to the scrub: the ok entry survives
        # with its tag intact and still loads through the typed path.
        assert store.load(ok_key, schema=("s", 1)) == {"ok": True}
        assert store.verify() == {
            "checked": 1,
            "ok": 1,
            "quarantined": 0,
            "evicted": 0,
        }

    def test_disk_stats_inventory(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key, path = make_entry(store)
        size = path.stat().st_size
        # exist_ok: the entry's own shard is a digest prefix of the
        # source tree, so it can be "cc" too.
        (store.root / "cc").mkdir(exist_ok=True)
        (store.root / "cc" / "x.tmp").write_bytes(b"junk")
        bad_key = store.key_for("t4", "rgcn", "acm", "bad")
        store.save(bad_key, "x")
        store._path(bad_key).write_bytes(b"garbage")
        assert store.load(bad_key) is None
        stats = store.disk_stats()
        assert stats["root"] == str(store.root)
        assert stats["entries"] == 1
        assert stats["bytes"] == size
        assert stats["tmp_files"] == 1
        assert stats["quarantined"] == 1


class TestFootprint:
    def assert_only_shards(self, store):
        for child in store.root.iterdir():
            assert child.is_dir(), child
            assert child.name == "quarantine" or len(child.name) == 2, child

    def test_mutations_touch_nothing_outside_their_shard(self, tmp_path):
        """The entry files are the only catalog: no mutation writes a
        file at the store root."""
        store = ArtifactStore(tmp_path)
        keys = [store.key_for("t4", "rgcn", "acm", str(i)) for i in range(3)]
        for key in keys:
            store.save(key, {"key": key}, schema="s")
        self.assert_only_shards(store)

        store._path(keys[0]).write_bytes(b"garbage")
        assert store.load(keys[0], schema="s") is None
        assert store.stats.quarantined == 1
        self.assert_only_shards(store)

        assert store.load(keys[1], schema="other") is None
        assert store.stats.evicted == 1
        self.assert_only_shards(store)

        assert store.delete(keys[2])
        self.assert_only_shards(store)

        store.save(keys[0], {"key": keys[0]}, schema="s")
        assert store.verify()["ok"] == 1
        self.assert_only_shards(store)

        assert store.clear() == 1
        self.assert_only_shards(store)
        assert set(store.disk_stats()) == {
            "root", "entries", "bytes", "tmp_files", "quarantined",
        }


class TestDurabilityKnob:
    def test_fsync_disabled_still_round_trips(self, tmp_path):
        store = ArtifactStore(tmp_path, fsync=False)
        key, _ = make_entry(store, {"time_ms": 2.0})
        assert store.load(key) == {"time_ms": 2.0}
