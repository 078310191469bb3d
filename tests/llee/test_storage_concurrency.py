"""The POSIX directory store under concurrency, and its layout.

Every disk write is a temp file published by ``os.replace``, so
concurrent writers (threads of one engine, or separate interpreter
processes sharing a disk root) never let a reader observe a torn
vector, a vector published without its timestamp, or stray temp
files; a cache directory in an older layout reads as empty and costs
a cold start, never a wrong result.
"""

import hashlib
import json
import multiprocessing
import os
import threading
import time

import pytest

from repro import observe
from repro.bitcode import read_module, write_module
from repro.execution import Interpreter
from repro.execution.tier2 import TIER2_CACHE_NAME, Tier2Cache
from repro.llee import LLEE
from repro.llee.storage import DiskStorage, InMemoryStorage, _sanitize
from repro.minic import compile_source
from repro.targets import make_target

CACHE = "llee-tier2"


class TestSanitize:
    def test_distinct_names_stay_distinct(self):
        # "a/b" and "a_b" used to collide when unsafe characters were
        # simply replaced; the hash suffix keeps them apart.
        assert _sanitize("a/b") != _sanitize("a_b")
        assert _sanitize("mod:one") != _sanitize("mod_one")

    def test_long_names_stay_distinct(self):
        left = "x" * 200 + "left"
        right = "x" * 200 + "right"
        assert _sanitize(left) != _sanitize(right)
        assert len(_sanitize(left)) <= 80

    def test_sanitize_is_stable(self):
        assert _sanitize("a/b") == _sanitize("a/b")

    def test_colliding_names_roundtrip_through_disk(self, tmp_path):
        storage = DiskStorage(str(tmp_path))
        storage.write(CACHE, "a/b", b"slash")
        storage.write(CACHE, "a_b", b"underscore")
        assert storage.read(CACHE, "a/b") == b"slash"
        assert storage.read(CACHE, "a_b") == b"underscore"


class TestAtomicWrites:
    def test_concurrent_writers_never_tear_a_vector(self, tmp_path):
        """Readers racing rewrites of one entry must always see one
        complete payload, never a mix."""
        storage = DiskStorage(str(tmp_path))
        payloads = [bytes([i]) * 4096 for i in range(4)]
        storage.write(CACHE, "entry", payloads[0])
        stop = threading.Event()
        torn = []

        def writer():
            i = 0
            while not stop.is_set():
                storage.write(CACHE, "entry", payloads[i % 4])
                i += 1

        def reader():
            while not stop.is_set():
                data = storage.read(CACHE, "entry")
                if data not in payloads:
                    torn.append(data)
                    return

        threads = [threading.Thread(target=writer) for _ in range(2)] \
            + [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        threading.Event().wait(0.5)
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not torn
        assert storage.read(CACHE, "entry") in payloads

    def test_crash_mid_write_leaves_no_visible_debris(self, tmp_path):
        # Temp files are dot-prefixed: invisible to reads and
        # cache_size even if a crash strands one.
        storage = DiskStorage(str(tmp_path))
        storage.write(CACHE, "real", b"x" * 100)
        cache_dir = os.path.dirname(storage._entry_path(CACHE, "real"))
        stranded = os.path.join(cache_dir, ".stranded.123.tmp")
        with open(stranded, "wb") as handle:
            handle.write(b"half a vec")
        assert storage.cache_size(CACHE) == 100
        assert storage.read(CACHE, "real") == b"x" * 100

    def test_timestamp_is_published_with_the_vector(self, tmp_path,
                                                    monkeypatch):
        """The entry carries its timestamp the moment it appears, so
        a concurrent reader never validates new bytes against the
        previous vector's timestamp."""
        storage = DiskStorage(str(tmp_path))
        published = []
        replace = os.replace

        def recording_replace(source, destination):
            published.append(os.stat(source).st_mtime)
            replace(source, destination)

        monkeypatch.setattr(os, "replace", recording_replace)
        storage.write(CACHE, "entry", b"vector", timestamp=100.0)
        assert published == [pytest.approx(100.0)]
        assert storage.timestamp(CACHE, "entry") == pytest.approx(100.0)

    def test_threaded_writers_distinct_names(self, tmp_path):
        storage = DiskStorage(str(tmp_path))
        errors = []

        def writer(base):
            try:
                for i in range(20):
                    name = "mod-{0}-{1}".format(base, i)
                    storage.write(CACHE, name,
                                  name.encode("utf-8") * 50)
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        for t in range(4):
            for i in range(20):
                name = "mod-{0}-{1}".format(t, i)
                assert storage.read(CACHE, name) \
                    == name.encode("utf-8") * 50


def _process_writer(root, base):
    storage = DiskStorage(root)
    for i in range(10):
        name = "proc-{0}-{1}".format(base, i)
        storage.write("llee-tier2", name, name.encode("utf-8") * 100)


def _process_rewriter(root, payload):
    storage = DiskStorage(root)
    for _ in range(200):
        storage.write(CACHE, "shared", payload)


class TestCrossProcess:
    def test_two_processes_share_one_root(self, tmp_path):
        """The bench's warm-sharing shape: N interpreter processes
        writing one disk cache, every blob intact afterwards."""
        root = str(tmp_path)
        workers = [multiprocessing.Process(target=_process_writer,
                                           args=(root, base))
                   for base in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60.0)
        assert all(worker.exitcode == 0 for worker in workers)
        storage = DiskStorage(root)
        for base in range(2):
            for i in range(10):
                name = "proc-{0}-{1}".format(base, i)
                assert storage.read(CACHE, name) \
                    == name.encode("utf-8") * 100

    def test_two_processes_rewrite_one_entry(self, tmp_path):
        """Two processes race to rewrite one entry while this one
        reads it: every read is one whole payload, the last rename
        wins, and no temp file is left behind."""
        root = str(tmp_path)
        payloads = [bytes([fill]) * 65536 for fill in (1, 2)]
        storage = DiskStorage(root)
        storage.write(CACHE, "shared", payloads[0])
        workers = [multiprocessing.Process(target=_process_rewriter,
                                           args=(root, payload))
                   for payload in payloads]
        for worker in workers:
            worker.start()
        torn = []
        deadline = time.monotonic() + 60.0
        while any(worker.is_alive() for worker in workers) \
                and time.monotonic() < deadline:
            data = storage.read(CACHE, "shared")
            if data not in payloads:
                torn.append(data)
        for worker in workers:
            worker.join(timeout=60.0)
        assert not any(worker.is_alive() for worker in workers)
        assert all(worker.exitcode == 0 for worker in workers)
        assert not torn
        assert storage.read(CACHE, "shared") in payloads
        cache_dir = os.path.dirname(storage._entry_path(CACHE, "shared"))
        assert not [name for name in os.listdir(cache_dir)
                    if name.endswith(".tmp")]


PROGRAM = r"""
int square(int x) { return x * x; }
int main() {
    int total = 0;
    int i;
    for (i = 0; i < 30; i++) { total += square(i); }
    print_int(total);
    return total & 32767;
}
"""

KEY = "blob-test"


def _object_code():
    module = compile_source(PROGRAM, "storage-conc",
                            optimization_level=2)
    return write_module(module)


def _forced_run(module, cache):
    interpreter = Interpreter(module, engine="fast", tier2=True,
                              tier2_threshold=0, tier2_cache=cache)
    result = interpreter.run("main", [])
    return (result.return_value, result.output, result.steps)


class TestInvalidBlobFallsBackOnline:
    def _populate(self, storage):
        code = _object_code()
        module = read_module(code)
        cache = Tier2Cache(module, module.target_data, threshold=0)
        cache.attach_storage(storage, KEY)
        outcome = _forced_run(module, cache)
        assert cache.flush_storage()
        return code, outcome

    def test_corrupt_blob_logs_invalid_and_recompiles(self, tmp_path):
        storage = DiskStorage(str(tmp_path))
        code, cold_outcome = self._populate(storage)
        blob = storage.read(TIER2_CACHE_NAME, KEY)
        storage.write(TIER2_CACHE_NAME, KEY, blob[: len(blob) // 2])
        module = read_module(code)
        cache = Tier2Cache(module, module.target_data, threshold=0)
        observe.configure()
        try:
            assert not cache.attach_storage(storage, KEY)
            invalid = observe.registry().counters("llee.cache.invalid")
            assert invalid, "llee.cache.invalid was not recorded"
        finally:
            observe.disable()
        assert _forced_run(module, cache) == cold_outcome
        assert cache.stats.warm_compiles == 0


class TestOlderLayout:
    def test_sharded_cache_directory_starts_cold(self, tmp_path):
        """A root left in the older sharded layout — entries under
        ``<cache>/<2-hex shard>/``, an ``index.json`` and ``.lock``
        files — reads as empty and counts no stored bytes: the run
        translates from a cold start, returns the right result, and the
        next run hits."""
        code = _object_code()
        expected = Interpreter(read_module(code)).run("main", [])
        seeded = InMemoryStorage()
        key = LLEE(make_target("x86"), seeded)._cache_key(code)
        LLEE(make_target("x86"), seeded).run_executable(code)
        blob = seeded.read("llee-native", key)
        cache_dir = tmp_path / _sanitize("llee-native")
        shard = hashlib.sha256(key.encode("utf-8")).hexdigest()[:2]
        entry = shard + "/" + _sanitize(key)
        (cache_dir / shard).mkdir(parents=True)
        (cache_dir / entry).write_bytes(blob)
        (cache_dir / shard / ".lock").write_bytes(b"")
        (cache_dir / ".index.lock").write_bytes(b"")
        (cache_dir / "index.json").write_text(json.dumps(
            {"version": 1, "entries": {entry: [len(blob), 0.0]}}))
        storage = DiskStorage(str(tmp_path))
        assert storage.cache_size("llee-native") == 0
        llee = LLEE(make_target("x86"), storage)
        cold = llee.run_executable(code)
        assert not cold.cache_hit and cold.functions_jitted > 0
        assert (cold.return_value, cold.output) == (
            expected.return_value, expected.output)
        warm = llee.run_executable(code)
        assert warm.cache_hit and warm.functions_jitted == 0
