"""The OS-independent storage API (Section 4.1).

"The V-ABI defines a standard, OS-independent storage API with a set of
routines that enables LLEE to read, write, and validate data in offline
storage ... the basic storage API includes routines to create, delete,
and query the size of an offline cache, read or write a vector of N
bytes tagged by a unique string name from/to a cache, and check a
timestamp on an LLVA program or on a cached vector."

Implementations are *strictly optional*: "they are strictly optional and
the system will operate correctly in their absence" — LLEE falls back to
pure online translation when constructed without one.

Two implementations are provided, mirroring the paper's user-level
prototype: an in-memory store (tests, and the "no OS support" baseline
for cache-behaviour experiments) and a POSIX-directory store, one file
per vector (``root/<cache>/<entry>``).  A disk write is atomic: the
bytes and the timestamp land in a dot-prefixed temp file that
``os.replace`` then publishes, so a reader — in this process or
another — sees the old vector or the new one, whole and with its
timestamp, never a torn mix.

:func:`load_entry` and :func:`store_entry` are the one lookup and
write-back path of both persistent translation caches (``llee-native``
and ``llee-tier2``): they decide what counts as a hit, a miss, a stale
or an invalid entry, and they record every such decision as an
``llee.cache.*`` counter and an ``llee.cache`` trace event.
"""

from __future__ import annotations

import hashlib
import os
import re
import shutil
import threading
import time
from typing import Callable, Dict, Optional, Tuple

from repro import observe


def _note_io(op: str, cache: str, name: str,
             data: Optional[bytes]) -> None:
    """One ``llee.storage`` event per read/write."""
    if observe.enabled():
        observe.event("llee.storage", op=op, cache=cache, name=name,
                      hit=data is not None,
                      bytes=len(data) if data is not None else 0)


def note_cache(event: str, cache: str, key, target: str,
               **fields) -> None:
    """One ``llee.cache`` event (hit/miss/invalid/store)."""
    if observe.enabled():
        observe.event("llee.cache", cache=cache, event=event, key=key,
                      target=target, **fields)


class StorageAPI:
    """Abstract OS-provided offline storage."""

    def create_cache(self, cache: str) -> None:
        raise NotImplementedError

    def delete_cache(self, cache: str) -> None:
        raise NotImplementedError

    def cache_size(self, cache: str) -> int:
        """Total bytes stored under *cache* (0 if absent)."""
        raise NotImplementedError

    def read(self, cache: str, name: str) -> Optional[bytes]:
        """Read the vector tagged *name*, or None."""
        raise NotImplementedError

    def write(self, cache: str, name: str, data: bytes,
              timestamp: Optional[float] = None) -> None:
        """Write a vector (creating the cache if needed)."""
        raise NotImplementedError

    def timestamp(self, cache: str, name: str) -> Optional[float]:
        """The stored vector's timestamp, or None."""
        raise NotImplementedError


class InMemoryStorage(StorageAPI):
    """Volatile storage — behaves like the paper's DAISY/Crusoe scenario
    when discarded between 'boots', and like an OS cache when kept."""

    def __init__(self):
        self._caches: Dict[str, Dict[str, Tuple[bytes, float]]] = {}
        self.reads = 0
        self.writes = 0

    def create_cache(self, cache: str) -> None:
        self._caches.setdefault(cache, {})

    def delete_cache(self, cache: str) -> None:
        self._caches.pop(cache, None)

    def cache_size(self, cache: str) -> int:
        entries = self._caches.get(cache, {})
        return sum(len(data) for data, _ts in entries.values())

    def read(self, cache: str, name: str) -> Optional[bytes]:
        self.reads += 1
        entry = self._caches.get(cache, {}).get(name)
        data = entry[0] if entry is not None else None
        _note_io("read", cache, name, data)
        return data

    def write(self, cache: str, name: str, data: bytes,
              timestamp: Optional[float] = None) -> None:
        self.writes += 1
        self.create_cache(cache)
        self._caches[cache][name] = (
            bytes(data), timestamp if timestamp is not None
            else time.time())
        _note_io("write", cache, name, data)

    def timestamp(self, cache: str, name: str) -> Optional[float]:
        entry = self._caches.get(cache, {}).get(name)
        return entry[1] if entry is not None else None


class DiskStorage(StorageAPI):
    """POSIX-directory-backed storage, like the paper's user-level LLEE
    ("executes the cached native translations from the disk, using a
    user-level version of our storage API").

    Layout: ``root/<cache>/<entry>``, one file per vector, its mtime
    the vector's timestamp.  Dot-prefixed files are in-flight writes,
    not stored vectors.  Concurrent writers of one entry (threads or
    processes) each publish a whole vector, and the last rename wins."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _cache_dir(self, cache: str) -> str:
        return os.path.join(self.root, _sanitize(cache))

    def _entry_path(self, cache: str, name: str) -> str:
        return os.path.join(self._cache_dir(cache), _sanitize(name))

    def create_cache(self, cache: str) -> None:
        os.makedirs(self._cache_dir(cache), exist_ok=True)

    def delete_cache(self, cache: str) -> None:
        shutil.rmtree(self._cache_dir(cache), ignore_errors=True)

    def cache_size(self, cache: str) -> int:
        """Bytes of the vectors :meth:`read` can return: the files
        named the way :func:`_sanitize` names entries.  In-flight temp
        files and what an older layout left behind (``index.json``)
        are not cached data."""
        try:
            with os.scandir(self._cache_dir(cache)) as entries:
                return sum(entry.stat().st_size for entry in entries
                           if _ENTRY_NAME.match(entry.name)
                           and entry.is_file())
        except (FileNotFoundError, NotADirectoryError):
            return 0

    def read(self, cache: str, name: str) -> Optional[bytes]:
        try:
            with open(self._entry_path(cache, name), "rb") as handle:
                data = handle.read()
        except (FileNotFoundError, NotADirectoryError, IsADirectoryError):
            data = None
        _note_io("read", cache, name, data)
        return data

    def write(self, cache: str, name: str, data: bytes,
              timestamp: Optional[float] = None) -> None:
        data = bytes(data)
        directory = self._cache_dir(cache)
        os.makedirs(directory, exist_ok=True)
        entry = _sanitize(name)
        # The temp name is unique per process and thread, so no two
        # writers share one; it is stamped before the rename, so the
        # vector and its timestamp are published together.
        tmp = os.path.join(directory, ".{0}.{1}.{2}.tmp".format(
            entry, os.getpid(), threading.get_ident()))
        with open(tmp, "wb") as handle:
            handle.write(data)
        if timestamp is not None:
            os.utime(tmp, (timestamp, timestamp))
        os.replace(tmp, os.path.join(directory, entry))
        _note_io("write", cache, name, data)

    def timestamp(self, cache: str, name: str) -> Optional[float]:
        try:
            return os.stat(self._entry_path(cache, name)).st_mtime
        except (FileNotFoundError, NotADirectoryError):
            return None


#: The shape of every name :func:`_sanitize` returns.
_ENTRY_NAME = re.compile(r".+-[0-9a-f]{8}\Z")


def _sanitize(name: str) -> str:
    """A filesystem-safe, collision-free filename for *name*: the
    printable prefix keeps listings readable, the stable hash suffix
    keeps distinct names distinct (``a/b`` vs ``a_b`` used to collide
    when unsafe characters were simply replaced)."""
    safe = "".join(c if c.isalnum() or c in "._-" else "_" for c in name)
    digest = hashlib.sha256(name.encode("utf-8")).hexdigest()[:8]
    return "{0}-{1}".format(safe[:64] or "_", digest)


# -- the translation caches' lookup and write-back --------------------------

def load_entry(storage: Optional[StorageAPI], cache: str, key: str,
               target: str, decode: Callable[[bytes], object],
               executable_timestamp: Optional[float] = None
               ) -> Optional[object]:
    """Look up one persisted translation: read it, check that it is no
    older than the executable, and decode it.

    Returns the decoded entry, or None on a miss.  No storage, or no
    (or an empty) entry, is a plain miss.  An entry that cannot be read
    (reason ``read-error``), is older than ``executable_timestamp``
    (``stale``) or that *decode* rejects (the error's message) first
    counts as ``llee.cache.invalid``, then as a miss: the storage API
    is strictly optional, so nothing here may break execution.  Every
    count is labelled ``target``."""
    value = reason = None
    try:
        data = storage.read(cache, key) if storage is not None else None
        if data and executable_timestamp is not None:
            cached_at = storage.timestamp(cache, key)
            if cached_at is None or cached_at < executable_timestamp:
                data, reason = None, "stale"
    except Exception:
        data, reason = None, "read-error"
    if data:
        try:
            value = decode(data)
        except Exception as error:
            reason = str(error)[:60] or type(error).__name__
    if reason is not None:
        observe.counter("llee.cache.invalid", 1, target=target,
                        reason=reason)
        note_cache("invalid", cache, key, target, reason=reason)
    hit = value is not None
    observe.counter("llee.cache.hit" if hit else "llee.cache.miss", 1,
                    target=target)
    note_cache("hit" if hit else "miss", cache, key, target)
    return value


def store_entry(storage: StorageAPI, cache: str, key: str, target: str,
                data: bytes) -> bool:
    """Write one translation back, best-effort: a failing storage
    implementation costs the next run a cold start, never this run its
    result.  Returns True, and counts ``llee.cache.store``, only when
    the write succeeded."""
    try:
        storage.write(cache, key, data)
    except Exception:
        return False
    observe.counter("llee.cache.store", 1, target=target)
    note_cache("store", cache, key, target)
    return True
