"""Store index: the committed entry files are the store's only catalog.

There is no separate catalog file. What is committed is exactly the set
of ``<shard>/<key>.pkl`` entry files: ``len()``, ``disk_stats()`` and
``verify()`` walk them, every mutation updates the catalog by writing or
removing one entry file, the catalog's content is a pure function of the
committed payloads (so stores filled in different orders are
byte-identical), and an ``index.json`` left at the root by an older
version of the store is ignored, whatever it holds.
"""

from __future__ import annotations

import json
import sys

import pytest

from repro.platforms import ArtifactStore

pytestmark = pytest.mark.skipif(
    sys.platform == "win32", reason="POSIX store semantics"
)


def make_store(tmp_path, **kwargs):
    kwargs.setdefault("fsync", False)
    return ArtifactStore(tmp_path / "store", **kwargs)


def catalog(store) -> dict[str, bytes]:
    """Every committed entry file, by path relative to the store root."""
    return {
        str(path.relative_to(store.root)): path.read_bytes()
        for path in store._entries()
    }


def legacy_index(store):
    """Where an older version of the store kept its catalog copy."""
    return store.root / "index.json"


class TestIndexBasics:
    def test_save_indexes_entry(self, tmp_path):
        store = make_store(tmp_path)
        key = store.key_for("t4", "rgcn", "acm", "x")
        store.save(key, {"v": 1}, schema="schema-a")
        assert list(catalog(store)) == [
            str(store._path(key).relative_to(store.root))
        ]
        assert len(store) == 1
        assert store.disk_stats()["entries"] == 1
        assert store.load(key, schema="schema-a") == {"v": 1}

    def test_delete_drops_entry(self, tmp_path):
        store = make_store(tmp_path)
        key = store.key_for("t4", "rgcn", "acm", "x")
        store.save(key, {"v": 1})
        assert store.delete(key)
        assert catalog(store) == {}
        assert len(store) == 0
        assert store.load(key) is None
        assert not store.delete(key)

    def test_clear_empties_index(self, tmp_path):
        store = make_store(tmp_path)
        for i in range(3):
            store.save(store.key_for("t4", "rgcn", "acm", str(i)), i)
        assert len(catalog(store)) == 3
        assert store.clear() == 3
        assert catalog(store) == {}
        assert store.disk_stats()["entries"] == 0

    def test_index_content_is_order_independent(self, tmp_path):
        keys = [f"k{i}" for i in range(4)]
        store_a = make_store(tmp_path / "a")
        for key in keys:
            store_a.save(key, key)
        store_b = make_store(tmp_path / "b")
        for key in reversed(keys):
            store_b.save(key, key)
        assert catalog(store_a) == catalog(store_b)
        assert sorted(catalog(store_a)) == sorted(
            str(store_a._path(key).relative_to(store_a.root)) for key in keys
        )

    def test_corrupt_index_reads_as_empty(self, tmp_path):
        """A corrupt legacy ``index.json`` neither hides nor adds
        entries, and the store never rewrites it."""
        store = make_store(tmp_path)
        store.save("k", 1)
        legacy_index(store).write_text("{not json")
        assert store.load("k") == 1
        store.save("k2", 2)
        assert store.load("k2") == 2
        assert len(store) == 2
        assert store.verify() == {
            "checked": 2, "ok": 2, "quarantined": 0, "evicted": 0,
        }
        assert legacy_index(store).read_text() == "{not json"

    def test_foreign_document_reads_as_empty(self, tmp_path):
        """A legacy ``index.json`` naming keys that have no entry file
        catalogs nothing: the entry files alone decide what exists."""
        store = make_store(tmp_path)
        legacy_index(store).write_text(
            json.dumps({"version": 3, "entries": {"ghost": {"schema": "None"}}})
        )
        assert len(store) == 0
        assert store.load("ghost") is None
        assert store.disk_stats()["entries"] == 0
        assert store.verify()["checked"] == 0

    def test_verify_rebuilds_index_from_entries(self, tmp_path):
        """``verify`` needs nothing but the entry files: with no catalog
        file at the root it still finds and validates every entry."""
        store = make_store(tmp_path)
        keys = [store.key_for("t4", "rgcn", "acm", str(i)) for i in range(3)]
        for key in keys:
            store.save(key, {"k": key}, schema="s")
        assert not legacy_index(store).exists()
        report = store.verify()
        assert report["checked"] == report["ok"] == 3
        for key in keys:
            assert store.load(key, schema="s") == {"k": key}

    def test_verify_drops_evicted_entries_from_index(self, tmp_path):
        store = make_store(tmp_path)
        key = store.key_for("t4", "rgcn", "acm", "x")
        store.save(key, {"v": 1})
        store._path(key).write_bytes(b"garbage" * 10)
        assert store.verify()["quarantined"] == 1
        assert catalog(store) == {}
        assert len(store) == 0
        assert store.load(key) is None
