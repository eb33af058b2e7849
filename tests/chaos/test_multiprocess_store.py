"""Cross-process store stress: concurrent writers, readers, scrubbers.

Several worker *processes* hammer one store directory — overwriting
the same keys, deleting them, scrubbing and garbage-collecting in the
middle of it all — and every read must return a complete, valid
payload for its key. Afterwards the store must verify clean: the
advisory shard locks and fsync-before-rename discipline leave no torn
or corrupt entry behind.
"""

from __future__ import annotations

import multiprocessing
import pickle

from repro.platforms import ArtifactStore

#: Keys contended by every worker; small so collisions are constant.
SLOTS = 4
OPS_PER_WORKER = 120


def _keys(store: ArtifactStore) -> list[str]:
    return [
        store.key_for("t4", "rgcn", "acm", f"slot{i}") for i in range(SLOTS)
    ]


def _writer(root: str, worker: int, failures) -> None:
    store = ArtifactStore(root, fsync=False)
    keys = _keys(store)
    for n in range(OPS_PER_WORKER):
        slot = (worker + n) % SLOTS
        payload = {"slot": slot, "worker": worker, "n": n}
        try:
            store.save(keys[slot], payload)
            if n % 17 == 0:
                store.delete(keys[(slot + 1) % SLOTS])
        except Exception as exc:  # pragma: no cover - failure reporting
            failures.put(f"writer {worker}: {type(exc).__name__}: {exc}")
            return


def _reader(root: str, worker: int, failures) -> None:
    store = ArtifactStore(root, fsync=False)
    keys = _keys(store)
    for n in range(OPS_PER_WORKER):
        slot = (worker + n) % SLOTS
        try:
            value = store.load(keys[slot])
        except Exception as exc:  # pragma: no cover
            failures.put(f"reader {worker}: {type(exc).__name__}: {exc}")
            return
        if value is not None and value.get("slot") != slot:
            failures.put(  # pragma: no cover
                f"reader {worker}: slot {slot} served {value!r}"
            )
            return
    if store.stats.quarantined:  # pragma: no cover
        failures.put(
            f"reader {worker}: quarantined {store.stats.quarantined} "
            "entries of a healthy store"
        )


def _scrubber(root: str, worker: int, failures) -> None:
    store = ArtifactStore(root, fsync=False)
    for _ in range(OPS_PER_WORKER // 10):
        try:
            report = store.verify()
            store.gc(tmp_max_age_s=3600.0)
        except Exception as exc:  # pragma: no cover
            failures.put(f"scrubber: {type(exc).__name__}: {exc}")
            return
        if report["quarantined"] or report["evicted"]:  # pragma: no cover
            failures.put(f"scrubber: dirty mid-run verify {report}")
            return


def _run_to_completion(procs, *, timeout_s: float) -> None:
    """Start, join with a hang-fast deadline, and never leak a child."""
    for p in procs:
        p.start()
    try:
        for p in procs:
            p.join(timeout=timeout_s)
            assert p.exitcode == 0, (
                f"worker hung or died (exitcode={p.exitcode})"
            )
    finally:
        for p in procs:
            if p.is_alive():  # pragma: no cover - hang cleanup
                p.terminate()
                p.join(timeout=5)


def test_two_process_writer_reader_stress(tmp_path):
    ctx = multiprocessing.get_context("fork")
    failures = ctx.Queue()
    _run_to_completion(
        [
            ctx.Process(target=_writer, args=(str(tmp_path), 0, failures)),
            ctx.Process(target=_reader, args=(str(tmp_path), 1, failures)),
        ],
        timeout_s=60,
    )
    assert failures.empty(), failures.get()
    assert ArtifactStore(tmp_path).verify()["quarantined"] == 0


def test_many_process_mixed_stress_ends_verify_clean(tmp_path):
    ctx = multiprocessing.get_context("fork")
    failures = ctx.Queue()
    _run_to_completion(
        [
            ctx.Process(target=_writer, args=(str(tmp_path), 0, failures)),
            ctx.Process(target=_writer, args=(str(tmp_path), 1, failures)),
            ctx.Process(target=_reader, args=(str(tmp_path), 2, failures)),
            ctx.Process(target=_reader, args=(str(tmp_path), 3, failures)),
            ctx.Process(target=_scrubber, args=(str(tmp_path), 4, failures)),
        ],
        timeout_s=120,
    )
    assert failures.empty(), failures.get()

    survivor = ArtifactStore(tmp_path)
    report = survivor.verify()
    assert report["quarantined"] == 0 and report["evicted"] == 0
    assert report["ok"] == report["checked"]
    # Every surviving entry is a complete payload for its own key.
    keys = _keys(survivor)
    for slot, key in enumerate(keys):
        value = survivor.load(key)
        if value is not None:
            assert value["slot"] == slot
    assert survivor.disk_stats()["tmp_files"] == 0


def _distinct_writer(root: str, worker: int, count: int) -> None:
    store = ArtifactStore(root, fsync=False)
    for n in range(count):
        store.save(f"w{worker}-k{n}", {"worker": worker, "n": n})


def test_forked_writers_of_distinct_keys_lose_no_entries(tmp_path):
    """N processes saving distinct keys: every save is committed, loads
    its own payload and verifies ok."""
    workers, per_worker = 4, 12
    ctx = multiprocessing.get_context("fork")
    _run_to_completion(
        [
            ctx.Process(
                target=_distinct_writer, args=(str(tmp_path), w, per_worker)
            )
            for w in range(workers)
        ],
        timeout_s=120,
    )
    store = ArtifactStore(tmp_path, fsync=False)
    assert len(store) == workers * per_worker
    for w in range(workers):
        for n in range(per_worker):
            assert store.load(f"w{w}-k{n}") == {"worker": w, "n": n}
    assert store.verify()["ok"] == workers * per_worker


def test_torn_write_simulation_round_trip(tmp_path):
    """A writer killed mid-write (tmp file left, no rename) leaves the
    previous committed entry fully readable — the atomic-replace
    contract a crash depends on."""
    store = ArtifactStore(tmp_path)
    key = _keys(store)[0]
    store.save(key, {"slot": 0, "generation": 1})
    path = store._path(key)
    # Simulate the crash: a half-written envelope next to the entry.
    (path.parent / "killed-writer.tmp").write_bytes(
        pickle.dumps({"partial": True})[:10]
    )
    assert store.load(key) == {"slot": 0, "generation": 1}
    assert len(store) == 1
    assert store.gc(tmp_max_age_s=0.0)["tmp_removed"] == 1
