"""Content-addressed trial cache.

A finished trial is a pure function of its :class:`TrialSpec` (victim
program + config + scheme + secret + seed — all folded into
``spec.digest()``) and of the simulator build.  The cache keys
memoized :class:`~repro.runner.spec.TrialOutcome`s on the SHA-256 of
the spec digest and :func:`build_fingerprint`, a hash of every source
file of the :mod:`repro` package, so a re-run of the same sweep on the
same build returns byte-identical results without simulating, and any
source edit turns every older entry into a miss.

Entries are JSON files (the checkpoint journal's codec, one outcome
per file) sharded into 256 two-hex-character subdirectories.  Writes
are atomic (temp file + ``os.replace``) so concurrent sweep workers
can share one cache directory without locks.  Only ``ok`` outcomes are
cached: failures re-run.

Multi-reader hardening (the shared service tier builds on all four):

* **Best-effort publish** — a failed publish (full disk, permission
  change, injected ENOSPC) never fails the sweep: it is counted in
  ``stats()['put_errors']``, logged once per cache instance, and the
  outcome simply is not memoized.
* **Crash-safe publish** — ``durable=True`` fsyncs the entry before the
  rename (and the shard directory after), so a published entry can
  never read back torn after a power cut.  Off by default: the
  benchmarks measure honest non-durable throughput.
* **Corruption quarantine** — an undecodable entry (torn non-durable
  publish, cosmic bit flip) is renamed ``*.corrupt`` on first read and
  re-executed; it is never served and never read again.
* **Size-bounded GC** — :meth:`gc` evicts least-recently-used entries
  (hits refresh an entry's mtime) down to ``max_bytes`` and sweeps
  quarantined/orphaned-temp debris; with ``max_bytes`` set, GC also
  runs opportunistically every few hundred publishes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
import tempfile
import time
from typing import Optional

from repro.runner import faults
from repro.runner.journal import JOURNAL_VERSION, outcome_from_json, outcome_to_json
from repro.runner.spec import TrialOutcome, TrialSpec

logger = logging.getLogger(__name__)

#: Successful publishes between opportunistic GC passes (when
#: ``max_bytes`` is set on the cache).
_GC_EVERY = 256

#: Seconds an orphaned ``.tmp-*`` file (a publisher died between temp
#: write and rename) must be old before :meth:`TrialCache.gc` removes
#: it — generous enough that no live publisher is still mid-rename.
TMP_GRACE_SECONDS = 300.0


@functools.cache
def build_fingerprint() -> str:
    """Hex digest of this build: SHA-256 over the relative path, size
    and bytes of every ``.py`` file of the :mod:`repro` package, in
    sorted order.  Computed once per process: the sources do not change
    under a running process."""
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            digest.update(f"{rel}\0{len(data)}\0".encode())
            digest.update(data)
    return digest.hexdigest()[:16]


def cache_key(spec: TrialSpec, build: Optional[str] = None) -> str:
    """SHA-256 over the spec digest and the build fingerprint."""
    if build is None:
        build = build_fingerprint()
    payload = f"{spec.digest()}:{build}".encode()
    return hashlib.sha256(payload).hexdigest()


class TrialCache:
    """Digest-keyed, build-versioned store of finished trial outcomes.

    ``durable=True`` makes publishes crash-safe (fsync before rename);
    ``max_bytes`` bounds the store, with least-recently-hit entries
    evicted first (see :meth:`gc`).
    """

    def __init__(
        self,
        cache_dir,
        *,
        durable: bool = False,
        max_bytes: Optional[int] = None,
    ) -> None:
        self.cache_dir = os.fspath(cache_dir)
        self.durable = durable
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        #: Writes refused because the outcome was not ``ok`` (failures
        #: re-run rather than memoize).
        self.bypasses = 0
        #: Publishes that failed at the I/O layer (disk full, EIO,
        #: permissions).  Best-effort: the sweep continues uncached.
        self.put_errors = 0
        #: Undecodable entries renamed ``*.corrupt`` on read.
        self.quarantined = 0
        #: Entries removed by :meth:`gc` (LRU size bound).
        self.evictions = 0
        self._puts_since_gc = 0
        self._put_error_logged = False

    # ------------------------------------------------------------------
    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, key[:2], key + ".json")

    def _quarantine(self, path: str) -> None:
        """Move a torn/undecodable entry aside so it is re-executed and
        never consulted again.  Racing readers may both try; one wins,
        the loser's rename fails benignly."""
        try:
            os.replace(path, path + ".corrupt")
            self.quarantined += 1
            logger.warning("quarantined corrupt cache entry: %s", path)
        except OSError:
            pass

    def get(self, spec: TrialSpec) -> Optional[TrialOutcome]:
        """The memoized outcome for ``spec``, or None (counted as hit
        or miss).  Undecodable entries are quarantined (renamed
        ``*.corrupt`` and re-executed — never served, never retried);
        relocated entries read as plain misses."""
        build = build_fingerprint()
        path = self._path(cache_key(spec, build))
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, OSError):
            # Torn or garbled bytes: quarantine, then re-run.
            self._quarantine(path)
            self.misses += 1
            return None
        try:
            # Belt and braces: the build is already part of the key, but
            # validating the recorded copy keeps a manually relocated or
            # tampered entry from resurfacing.
            if data["build"] != build or data["digest"] != spec.digest():
                self.misses += 1
                return None
            outcome = outcome_from_json(data["outcome"])
        except (KeyError, TypeError, ValueError):
            # Valid JSON but not a valid entry: structurally corrupt.
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        try:
            # Refresh recency so LRU eviction spares hot entries.
            os.utime(path)
        except OSError:
            pass
        return outcome

    def put(self, spec: TrialSpec, outcome: TrialOutcome) -> bool:
        """Store an ``ok`` outcome (atomic publish); returns True if
        stored.  I/O failure is best-effort: counted in
        ``stats()['put_errors']`` and logged once, never raised — a
        full disk degrades the cache, not the sweep."""
        if not outcome.ok:
            self.bypasses += 1
            return False
        build = build_fingerprint()
        path = self._path(cache_key(spec, build))
        payload = json.dumps(
            {
                "v": JOURNAL_VERSION,
                "build": build,
                "digest": spec.digest(),
                "outcome": outcome_to_json(outcome),
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode()
        tmp = None
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=os.path.dirname(path), prefix=".tmp-", suffix=".json"
            )
            try:
                faults.fs_write(fd, payload, faults.OP_CACHE_PUBLISH)
                if self.durable:
                    os.fsync(fd)
            finally:
                os.close(fd)
            faults.fs_guard(faults.OP_CACHE_RENAME)
            os.replace(tmp, path)
            tmp = None
            if self.durable:
                self._fsync_dir(os.path.dirname(path))
        except OSError as exc:
            self.put_errors += 1
            if not self._put_error_logged:
                self._put_error_logged = True
                logger.warning(
                    "trial-cache publish failed (suppressing further "
                    "publish-failure logs for this cache): %s",
                    exc,
                )
            return False
        except BaseException:
            raise
        finally:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
        self._puts_since_gc += 1
        if self.max_bytes is not None and self._puts_since_gc >= _GC_EVERY:
            self.gc()
        return True

    @staticmethod
    def _fsync_dir(dirname: str) -> None:
        try:
            dfd = os.open(dirname, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(dfd)
        except OSError:
            pass
        finally:
            os.close(dfd)

    # ------------------------------------------------------------------
    def gc(
        self,
        max_bytes: Optional[int] = None,
        *,
        tmp_grace: float = TMP_GRACE_SECONDS,
    ) -> int:
        """Sweep debris and enforce the size bound; returns entries
        evicted.

        Removes quarantined ``*.corrupt`` entries and orphaned
        ``.tmp-*`` files older than ``tmp_grace`` seconds (a publisher
        that died between temp write and rename), then — when a bound
        is configured — evicts least-recently-used ``.json`` entries
        until the store fits ``max_bytes``.  Hits refresh mtime, so
        recently served entries survive.
        """
        bound = max_bytes if max_bytes is not None else self.max_bytes
        self._puts_since_gc = 0
        now = time.time()
        entries = []  # (mtime, size, path)
        total = 0
        try:
            shards = os.listdir(self.cache_dir)
        except OSError:
            return 0
        for shard in shards:
            shard_dir = os.path.join(self.cache_dir, shard)
            try:
                names = os.listdir(shard_dir)
            except (OSError, NotADirectoryError):
                continue
            for name in names:
                path = os.path.join(shard_dir, name)
                try:
                    st = os.stat(path)
                except OSError:
                    continue  # racing eviction/publish
                if name.endswith(".corrupt") or (
                    name.startswith(".tmp-") and now - st.st_mtime >= tmp_grace
                ):
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
                    continue
                if name.endswith(".json"):
                    entries.append((st.st_mtime, st.st_size, path))
                    total += st.st_size
        evicted = 0
        if bound is not None and total > bound:
            entries.sort()  # oldest mtime first
            for _, size, path in entries:
                if total <= bound:
                    break
                try:
                    os.unlink(path)
                except OSError:
                    continue
                total -= size
                evicted += 1
        self.evictions += evicted
        return evicted

    # ------------------------------------------------------------------
    def __contains__(self, spec: TrialSpec) -> bool:
        return os.path.exists(self._path(cache_key(spec)))

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "bypasses": self.bypasses,
            "put_errors": self.put_errors,
            "quarantined": self.quarantined,
            "evictions": self.evictions,
        }
