"""Content-addressed, crash-safe on-disk store for simulation reports.

Every grid cell is addressed by the SHA-256 of
``(code version, platform, model, dataset, config digest)``:

- *code version* is a digest over the contents of every ``repro``
  source file, so editing any simulator invalidates the whole store
  without manual cache busting;
- *config digest* covers the ``repr`` of the configuration objects the
  platform actually reads (plus dataset seed/scale), so changing a
  buffer size or the model width misses cleanly while unrelated
  platforms keep their entries.

Crash-safety and concurrency guarantees
---------------------------------------

Payloads are pickled under ``$REPRO_ARTIFACT_DIR`` (default
``~/.cache/repro/artifacts``), sharded by key prefix, inside a
schema-versioned envelope that carries a CRC32 checksum of the
payload bytes. The store is safe against:

- **Torn writes / power loss**: writes go to a temp file that is
  fsynced before an atomic ``os.replace``, followed by a directory
  fsync — after a crash the entry is either the complete old payload
  or the complete new one, never a prefix. Orphaned ``*.tmp`` files
  left by a killed writer are ignored by ``len()``/iteration and
  collected by :meth:`ArtifactStore.gc`.
- **Bit rot / corruption**: a payload whose checksum (or envelope)
  does not validate is never returned. It is moved to
  ``quarantine/`` (counted in :attr:`StoreStats.quarantined`) for
  post-mortem instead of being silently unlinked; schema- or
  version-drifted entries (valid but stale) are evicted and counted
  in :attr:`StoreStats.evicted`.
- **Cross-process races**: mutations (replace, delete, quarantine)
  take an advisory ``fcntl`` lock on a per-shard lockfile, and a
  reader that sees an invalid entry re-reads it under the lock before
  quarantining — so a concurrent writer's freshly replaced entry is
  served, not destroyed (the historical delete-vs-replace race).
- **Transient I/O errors** (including injected
  :class:`~repro.faults.errors.InjectedIOError`): a failed *read* is
  a plain miss that leaves the file untouched (counted in
  :attr:`StoreStats.read_errors`); a failed *write* raises to the
  caller, who treats the cache write as best-effort.

The entry files are the store's only catalog: ``len()``,
:meth:`ArtifactStore.disk_stats` and :meth:`ArtifactStore.verify`
walk the shard directories. :meth:`ArtifactStore.verify` scrubs every
entry with the same validation the read path uses;
``repro store {stats,verify,gc}`` exposes it on the command line.
Fault-injection hooks (:func:`repro.faults.inject` at
``store.load``/``store.save``, byte-corruption variants at
``store.load.bytes``/``store.save.bytes``) let the chaos suite prove
these guarantees under seeded failure schedules.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

try:  # pragma: no cover - absent only on non-POSIX platforms
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None

from repro.faults import inject, inject_bytes

__all__ = [
    "ArtifactStore",
    "StoreStats",
    "config_digest",
    "code_version",
    "STORE_SCHEMA_VERSION",
]

ENV_STORE_DIR = "REPRO_ARTIFACT_DIR"
_PICKLE_PROTOCOL = 4

#: On-disk envelope marker + version. Entries written by an older (or
#: pre-envelope) library read as misses, never as wrong data. Version
#: 2 added the CRC32 payload checksum (payloads are stored as bytes).
_MAGIC = "repro-artifact"
STORE_SCHEMA_VERSION = 2

#: Quarantine subdirectory for corrupt entries (kept for post-mortem).
QUARANTINE_DIR = "quarantine"

#: Default age after which an orphaned ``*.tmp`` file is collectable:
#: long enough that no live writer still owns it.
DEFAULT_TMP_MAX_AGE_S = 3600.0

_code_version: str | None = None


def code_version() -> str:
    """Digest of the ``repro`` package sources (cached per process)."""
    global _code_version
    if _code_version is None:
        import repro

        pkg_root = Path(repro.__file__).resolve().parent
        h = hashlib.sha256()
        for path in sorted(pkg_root.rglob("*.py")):
            h.update(str(path.relative_to(pkg_root)).encode())
            h.update(b"\0")
            # repro: lint-ok[REP002] hashes our own installed sources to
            # key cache entries; not part of any artifact's fault surface
            h.update(path.read_bytes())
        _code_version = h.hexdigest()[:16]
    return _code_version


def config_digest(*sources: object) -> str:
    """Digest of configuration objects via their canonical ``repr``.

    All configuration types involved (frozen dataclasses, tuples,
    numbers, strings) have deterministic reprs, which keeps the digest
    stable across processes without custom serialization.
    """
    h = hashlib.sha256()
    for source in sources:
        h.update(repr(source).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


@dataclass
class StoreStats:
    """Live counters of one :class:`ArtifactStore` instance.

    ``quarantined`` counts corrupt entries moved to ``quarantine/``,
    ``evicted`` counts stale (schema/version-drifted) entries removed,
    ``read_errors`` counts I/O failures on the read path (misses that
    leave the file in place).
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    quarantined: int = 0
    evicted: int = 0
    read_errors: int = 0

    def as_dict(self) -> dict[str, int]:
        """JSON-friendly counter snapshot."""
        return asdict(self)


class ArtifactStore:
    """Persistent, content-addressed, multi-process-safe report cache.

    Args:
        root: store directory. Defaults to ``$REPRO_ARTIFACT_DIR`` or
            ``~/.cache/repro/artifacts``.
        fsync: when True (default) every write is fsynced before its
            atomic rename (crash-safe); set False only for throwaway
            stores where durability does not matter.
    """

    def __init__(
        self, root: str | Path | None = None, *, fsync: bool = True
    ) -> None:
        if root is None:
            root = os.environ.get(ENV_STORE_DIR) or (
                Path.home() / ".cache" / "repro" / "artifacts"
            )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.fsync = bool(fsync)
        self.stats = StoreStats()
        # Grid workers call load/save concurrently; counter updates are
        # read-modify-write and need the lock to stay exact.
        self._stats_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------

    def key_for(
        self, platform: str, model: str, dataset: str, digest: str
    ) -> str:
        """The content address of one grid cell's report."""
        raw = "|".join((code_version(), platform, model, dataset, digest))
        return hashlib.sha256(raw.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    @property
    def quarantine_root(self) -> Path:
        return self.root / QUARANTINE_DIR

    # ------------------------------------------------------------------
    # Cross-process locking (advisory, per shard)
    # ------------------------------------------------------------------

    @contextmanager
    def _shard_lock(self, shard: Path):
        """Advisory exclusive lock serializing mutations of one shard.

        ``flock`` works across processes (and across threads, since
        every acquisition opens its own descriptor). On platforms
        without ``fcntl`` the lock degrades to a no-op — single-process
        atomicity still holds via ``os.replace``.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        shard.mkdir(parents=True, exist_ok=True)
        fd = os.open(shard / ".lock", os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)

    # ------------------------------------------------------------------
    # Envelope parsing (shared by load and verify)
    # ------------------------------------------------------------------

    def _parse(self, data: bytes, *, schema: object, check_schema: bool = True):
        """Classify raw entry bytes.

        Returns ``(verdict, payload)`` where verdict is ``"ok"``
        (payload valid), ``"corrupt"`` (unparseable envelope, checksum
        mismatch or unreadable payload — quarantine material) or
        ``"stale"`` (well-formed but version/schema-drifted — evict).
        """
        try:
            envelope = pickle.loads(data)
        except Exception:
            return "corrupt", None
        if (
            not isinstance(envelope, dict)
            or envelope.get("magic") != _MAGIC
            or not isinstance(envelope.get("payload"), bytes)
            or not isinstance(envelope.get("crc32"), int)
        ):
            return "corrupt", None
        if envelope.get("store_version") != STORE_SCHEMA_VERSION or (
            check_schema and envelope.get("schema") != schema
        ):
            return "stale", None
        payload_bytes = envelope["payload"]
        if zlib.crc32(payload_bytes) != envelope["crc32"]:
            return "corrupt", None
        try:
            return "ok", pickle.loads(payload_bytes)
        except Exception:
            return "corrupt", None

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------

    def _count(self, **deltas: int) -> None:
        with self._stats_lock:
            for name, delta in deltas.items():
                setattr(self.stats, name, getattr(self.stats, name) + delta)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def _read(self, path: Path, key: str) -> bytes:
        """Read entry bytes, with injected read-error/corruption sites."""
        inject("store.load", key=key)
        with path.open("rb") as fh:
            data = fh.read()
        return inject_bytes("store.load.bytes", data, key=key)

    def _quarantine(self, path: Path) -> None:
        """Move one invalid entry to ``quarantine/`` (caller holds lock)."""
        self.quarantine_root.mkdir(parents=True, exist_ok=True)
        target = self.quarantine_root / path.name
        suffix = 0
        while target.exists():
            suffix += 1
            target = self.quarantine_root / f"{path.name}.{suffix}"
        try:
            # repro: lint-ok[REP002] quarantine runs while a fault plan
            # is armed; the scrub path must not itself be injectable or
            # it could fail under the very faults it cleans up after
            os.replace(path, target)
        except FileNotFoundError:
            return
        self._count(quarantined=1)

    def load(self, key: str, *, schema: object = None):
        """The stored payload, or ``None`` on a miss (counted).

        Never returns untrusted data: the envelope, its schema tag and
        the CRC32 payload checksum must all validate. Invalid entries
        are re-read under the shard lock (so a concurrent writer's
        fresh replacement is served rather than destroyed) and then
        quarantined (corrupt) or evicted (stale). I/O errors reading
        the file are a plain miss that leaves the entry in place — a
        flaky read is not evidence of corruption.
        """
        path = self._path(key)
        try:
            data = self._read(path, key)
        except FileNotFoundError:
            self._count(misses=1)
            return None
        except Exception:
            self._count(misses=1, read_errors=1)
            return None
        verdict, payload = self._parse(data, schema=schema)
        if verdict == "ok":
            self._count(hits=1)
            return payload
        # The fast-path read is lock-free, so an invalid result may
        # just mean we raced a writer (or hit a transient injected
        # read corruption). Re-read under the shard lock before
        # condemning the file.
        with self._shard_lock(path.parent):
            try:
                data = self._read(path, key)
            except FileNotFoundError:
                self._count(misses=1)
                return None
            except Exception:
                self._count(misses=1, read_errors=1)
                return None
            verdict, payload = self._parse(data, schema=schema)
            if verdict == "ok":
                self._count(hits=1)
                return payload
            if verdict == "corrupt":
                self._quarantine(path)
            else:
                path.unlink(missing_ok=True)
                self._count(evicted=1)
        self._count(misses=1)
        return None

    def save(self, key: str, payload: object, *, schema: object = None) -> None:
        """Persist one payload atomically and durably.

        The envelope carries a CRC32 of the payload bytes (computed
        before the write, so any later corruption — torn write, bit
        rot, injected fault — is detected on read). The temp file is
        fsynced before the atomic rename and the shard directory is
        fsynced after it, so a crash leaves either the old or the new
        complete entry. Raises on I/O failure: callers treat cache
        writes as best-effort.
        """
        inject("store.save", key=key)
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload_bytes = pickle.dumps(payload, protocol=_PICKLE_PROTOCOL)
        envelope = {
            "magic": _MAGIC,
            "store_version": STORE_SCHEMA_VERSION,
            "schema": schema,
            "crc32": zlib.crc32(payload_bytes),
            # The corruption site sits between checksum and write, so
            # injected corruption lands on disk but never validates.
            "payload": inject_bytes(
                "store.save.bytes", payload_bytes, key=key
            ),
        }
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(envelope, fh, protocol=_PICKLE_PROTOCOL)
                fh.flush()
                if self.fsync:
                    os.fsync(fh.fileno())
            with self._shard_lock(path.parent):
                os.replace(tmp, path)
            if self.fsync:
                self._fsync_dir(path.parent)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._count(puts=1)

    @staticmethod
    def _fsync_dir(directory: Path) -> None:
        """Make a rename durable (directory entry fsync)."""
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - exotic filesystems
            return
        try:
            # repro: lint-ok[REP002] best-effort durability tail; every
            # OSError is swallowed, so injection could prove nothing
            os.fsync(fd)
        except OSError:  # pragma: no cover
            pass
        finally:
            os.close(fd)

    def delete(self, key: str) -> bool:
        """Drop one entry; returns whether a file existed."""
        path = self._path(key)
        with self._shard_lock(path.parent):
            existed = path.exists()
            path.unlink(missing_ok=True)
        return existed

    # ------------------------------------------------------------------
    # Maintenance: iteration, GC, scrubbing
    # ------------------------------------------------------------------

    def _entries(self):
        """Every committed entry file (orphaned ``*.tmp`` excluded)."""
        for path in self.root.glob("*/*.pkl"):
            if path.parent.name != QUARANTINE_DIR:
                yield path

    def _tmp_files(self):
        yield from self.root.glob("*/*.tmp")

    def __len__(self) -> int:
        """Committed entries only — never counts writer temp files."""
        return sum(1 for _ in self._entries())

    def clear(self) -> int:
        """Delete every entry; returns how many entries were removed.

        Also sweeps orphaned ``*.tmp`` files (not counted — they were
        never committed entries), so the total is accurate even after
        a crashed writer.
        """
        removed = 0
        for path in self._entries():
            with self._shard_lock(path.parent):
                try:
                    path.unlink()
                except FileNotFoundError:
                    continue
            removed += 1
        for tmp in self._tmp_files():
            tmp.unlink(missing_ok=True)
        return removed

    def gc(
        self,
        *,
        tmp_max_age_s: float = DEFAULT_TMP_MAX_AGE_S,
        purge_quarantine: bool = False,
    ) -> dict[str, int]:
        """Collect crash debris; returns removal counts.

        Removes ``*.tmp`` files older than ``tmp_max_age_s`` (left by
        writers killed between ``mkstemp`` and ``os.replace``) and,
        when ``purge_quarantine`` is set, the quarantined corpses.
        """
        # repro: lint-ok[REP001] tmp-file age is genuinely wall-clock:
        # gc sweeps debris left behind by *other* crashed processes
        now = time.time()
        tmp_removed = 0
        for tmp in self._tmp_files():
            try:
                age = now - tmp.stat().st_mtime
            except FileNotFoundError:
                continue
            if age >= tmp_max_age_s:
                tmp.unlink(missing_ok=True)
                tmp_removed += 1
        quarantine_removed = 0
        if purge_quarantine and self.quarantine_root.is_dir():
            for corpse in self.quarantine_root.iterdir():
                if corpse.name == ".lock":
                    continue
                corpse.unlink(missing_ok=True)
                quarantine_removed += 1
        return {
            "tmp_removed": tmp_removed,
            "quarantine_removed": quarantine_removed,
        }

    def verify(self) -> dict[str, int]:
        """Scrub every entry with the read path's validation.

        Corrupt entries (bad envelope/checksum) are quarantined, stale
        ones (store-version drift) evicted; the returned counts make
        ``repro store verify`` scriptable. Schema *tags* are opaque to
        the scrub (they belong to the writing layer), so entries with
        any tag count as ok when their bytes validate.
        """
        checked = ok = quarantined = evicted = 0
        for path in sorted(self._entries()):
            checked += 1
            with self._shard_lock(path.parent):
                try:
                    # repro: lint-ok[REP002] the scrubber must keep
                    # reading raw bytes while a fault plan is armed;
                    # real read failures land in read_errors below
                    data = path.read_bytes()
                except FileNotFoundError:
                    checked -= 1
                    continue
                except OSError:
                    self._count(read_errors=1)
                    continue
                verdict, _ = self._parse(
                    data, schema=None, check_schema=False
                )
                if verdict == "ok":
                    ok += 1
                elif verdict == "corrupt":
                    self._quarantine(path)
                    quarantined += 1
                else:
                    path.unlink(missing_ok=True)
                    self._count(evicted=1)
                    evicted += 1
        return {
            "checked": checked,
            "ok": ok,
            "quarantined": quarantined,
            "evicted": evicted,
        }

    def disk_stats(self) -> dict[str, object]:
        """On-disk inventory (as opposed to the live :attr:`stats`)."""
        entries = 0
        total_bytes = 0
        for path in self._entries():
            try:
                total_bytes += path.stat().st_size
            except FileNotFoundError:
                continue
            entries += 1
        quarantined = 0
        if self.quarantine_root.is_dir():
            quarantined = sum(
                1
                for p in self.quarantine_root.iterdir()
                if p.name != ".lock"
            )
        return {
            "root": str(self.root),
            "entries": entries,
            "bytes": total_bytes,
            "tmp_files": sum(1 for _ in self._tmp_files()),
            "quarantined": quarantined,
        }
