"""Persistent tier-2 translations through the storage API.

The offline half of the tiered translator: tier-2 source (plus
.pyc-style marshalled bytecode) is serialized through the Section 4.1
storage API so a fresh process warm-starts.  Every failure mode —
corrupt, truncated, version-mismatched, stale, wrong module, wrong
target — must log ``llee.cache.invalid`` and fall back to online
translation without ever breaking execution.
"""

import base64
import json
import os
import sys
import time

import pytest

from helpers import SMC_PROGRAM
from repro import observe
from repro.asm import parse_module
from repro.bitcode import read_module, write_module
from repro.execution import Interpreter
from repro.execution.tier2 import TIER2_CACHE_NAME, Tier2Cache, cache_key
from repro.llee import LLEE, DiskStorage, InMemoryStorage
from repro.minic import compile_source
from repro.targets import make_target
from repro.tools import main

PROGRAM = r"""
int helper(int x) { return x * x + 1; }
int main() {
    int total = 0;
    int i;
    for (i = 0; i < 40; i++) {
        if (i % 3 == 0) {
            total += helper(i);
        } else {
            total -= i;
        }
    }
    print_int(total);
    return total & 32767;
}
"""

KEY = "test-module"


@pytest.fixture(scope="module")
def object_code():
    module = compile_source(PROGRAM, "tier2-test", optimization_level=2)
    return write_module(module)


def _fresh_module(object_code):
    return read_module(object_code)


def _run_forced(module, cache):
    interpreter = Interpreter(module, engine="fast", tier2=True,
                              tier2_threshold=0, tier2_cache=cache)
    result = interpreter.run("main", [])
    return (result.return_value, result.output, result.steps,
            result.exit_status)


def _populated_storage(object_code):
    """One cold tier-2 run, flushed to an in-memory store."""
    storage = InMemoryStorage()
    module = _fresh_module(object_code)
    cache = Tier2Cache(module, module.target_data, threshold=0)
    cache.attach_storage(storage, KEY)
    outcome = _run_forced(module, cache)
    assert cache.flush_storage()
    return storage, outcome


class TestWarmStart:
    def test_cold_flush_then_warm_hit(self, object_code):
        storage, cold_outcome = _populated_storage(object_code)
        module = _fresh_module(object_code)
        warm = Tier2Cache(module, module.target_data, threshold=0)
        assert warm.attach_storage(storage, KEY)
        assert warm.translation_cache_hit
        outcome = _run_forced(module, warm)
        assert outcome == cold_outcome
        # Every compile was served from the persisted translation:
        # codegen ran zero times.
        assert warm.stats.warm_compiles == warm.stats.functions_compiled
        assert warm.stats.warm_compiles > 0
        assert warm.stats.codegen_seconds == 0.0

    def test_warm_blob_carries_marshalled_bytecode(self, object_code):
        storage, _ = _populated_storage(object_code)
        blob = json.loads(storage.read(TIER2_CACHE_NAME, KEY))
        assert blob["cache_tag"] == sys.implementation.cache_tag
        assert any("code" in entry
                   for entry in blob["functions"].values())

    def test_foreign_cache_tag_falls_back_to_source(self, object_code):
        # A blob from a different Python build still warm-starts — the
        # source is recompiled, only the marshalled bytecode is skipped.
        storage, cold_outcome = _populated_storage(object_code)
        blob = json.loads(storage.read(TIER2_CACHE_NAME, KEY))
        blob["cache_tag"] = "cpython-00"
        storage.write(TIER2_CACHE_NAME, KEY,
                      json.dumps(blob).encode("utf-8"))
        module = _fresh_module(object_code)
        warm = Tier2Cache(module, module.target_data, threshold=0)
        assert warm.attach_storage(storage, KEY)
        assert _run_forced(module, warm) == cold_outcome
        assert warm.stats.warm_compiles > 0

    def test_flush_is_noop_when_nothing_new(self, object_code):
        storage, _ = _populated_storage(object_code)
        writes_before = storage.writes
        module = _fresh_module(object_code)
        warm = Tier2Cache(module, module.target_data, threshold=0)
        warm.attach_storage(storage, KEY)
        _run_forced(module, warm)
        assert not warm.flush_storage()  # nothing dirty
        assert storage.writes == writes_before


class TestInvalidBlobs:
    """Corruption in any shape degrades to online translation and logs
    the ``llee.cache.invalid`` metric — never an exception."""

    def _attach_expect_miss(self, object_code, storage, reason_check
                            =None, key=KEY):
        module = _fresh_module(object_code)
        cache = Tier2Cache(module, module.target_data, threshold=0)
        observe.configure()
        try:
            assert not cache.attach_storage(storage, key)
            invalid = [(labels, value) for name, labels, value
                       in observe.registry().counters(
                           "llee.cache.invalid")]
            assert invalid, "llee.cache.invalid was not recorded"
            if reason_check is not None:
                reasons = [dict(labels).get("reason", "")
                           for labels, _v in invalid]
                assert any(reason_check in reason
                           for reason in reasons), reasons
        finally:
            observe.disable()
        # Execution still works: everything compiles online.
        outcome = _run_forced(module, cache)
        assert cache.stats.warm_compiles == 0
        return outcome

    def test_corrupt_json(self, object_code):
        storage, outcome = _populated_storage(object_code)
        storage.write(TIER2_CACHE_NAME, KEY, b"{not json at all")
        assert self._attach_expect_miss(object_code, storage,
                                        "corrupt") == outcome

    def test_truncated_blob(self, object_code):
        storage, outcome = _populated_storage(object_code)
        data = storage.read(TIER2_CACHE_NAME, KEY)
        storage.write(TIER2_CACHE_NAME, KEY, data[:len(data) // 2])
        assert self._attach_expect_miss(object_code, storage,
                                        "corrupt") == outcome

    def test_version_mismatch(self, object_code):
        storage, outcome = _populated_storage(object_code)
        blob = json.loads(storage.read(TIER2_CACHE_NAME, KEY))
        blob["version"] = 999
        storage.write(TIER2_CACHE_NAME, KEY,
                      json.dumps(blob).encode("utf-8"))
        assert self._attach_expect_miss(object_code, storage,
                                        "version") == outcome

    def test_wrong_module_key(self, object_code):
        storage, outcome = _populated_storage(object_code)
        data = storage.read(TIER2_CACHE_NAME, KEY)
        storage.write(TIER2_CACHE_NAME, "other-module", data)
        assert self._attach_expect_miss(object_code, storage,
                                        "different module",
                                        key="other-module") == outcome

    def test_corrupt_marshalled_code(self, object_code):
        storage, outcome = _populated_storage(object_code)
        blob = json.loads(storage.read(TIER2_CACHE_NAME, KEY))
        for entry in blob["functions"].values():
            if "code" in entry:
                entry["code"] = "bm90IG1hcnNoYWw="  # not marshal data
        storage.write(TIER2_CACHE_NAME, KEY,
                      json.dumps(blob).encode("utf-8"))
        assert self._attach_expect_miss(object_code, storage,
                                        "corrupt") == outcome

    def test_reading_storage_that_raises(self, object_code):
        class ExplodingStorage(InMemoryStorage):
            def read(self, cache, name):
                raise OSError("disk on fire")

        assert self._attach_expect_miss(
            object_code, ExplodingStorage(), "read-error")

    def test_flush_through_failing_storage_is_best_effort(
            self, object_code):
        class ReadOnlyStorage(InMemoryStorage):
            def write(self, cache, name, data, timestamp=None):
                raise OSError("read-only filesystem")

        module = _fresh_module(object_code)
        cache = Tier2Cache(module, module.target_data, threshold=0)
        cache.attach_storage(ReadOnlyStorage(), KEY)
        _run_forced(module, cache)
        assert not cache.flush_storage()  # swallowed, not raised


class TestBlobIntegrity:
    """A blob altered on disk never runs: its SHA-256 over the
    ``functions`` payload fails, so the next run compiles cold and
    prints what a clean run prints."""

    SQUARES = r"""
    int sq(int x) { return x * x + 7; }
    int main() {
        int total = 0;
        int i;
        for (i = 0; i < 50; i++) { total += sq(i); }
        print_int(total);
        return 0;
    }
    """

    def _run_after_tampering(self, tmp_path, tamper):
        code = write_module(compile_source(self.SQUARES, "squares",
                                           optimization_level=2))
        root = str(tmp_path / "cache")

        def run():
            llee = LLEE(make_target("x86"), DiskStorage(root))
            return llee, llee.run_interpreted(code, tier2=True,
                                              tier2_threshold=0)

        _, cold = run()
        assert cold.output == "40775"
        storage = DiskStorage(root)
        key = cache_key(code)
        blob = json.loads(storage.read(TIER2_CACHE_NAME, key))
        tamper(blob["functions"])
        storage.write(TIER2_CACHE_NAME, key,
                      json.dumps(blob).encode("utf-8"))
        _, warm = run()
        assert not warm.translation_cache_hit
        assert warm.output == "40775"

    def test_edited_source_is_rejected(self, tmp_path):
        def tamper(functions):
            for entry in functions.values():
                entry.pop("code", None)
            source = functions["sq"]["source"]
            assert "(r1 + 7)" in source
            functions["sq"]["source"] = source.replace("(r1 + 7)",
                                                       "(r1 + 8)")

        self._run_after_tampering(tmp_path, tamper)

    def test_flipped_bytecode_bit_is_rejected(self, tmp_path):
        def tamper(functions):
            code = bytearray(base64.b64decode(functions["sq"]["code"]))
            code[len(code) // 2] ^= 1
            functions["sq"]["code"] = base64.b64encode(
                bytes(code)).decode("ascii")

        self._run_after_tampering(tmp_path, tamper)


class TestTimestampInvalidation:
    """POSIX directory store: a translation older than the executable
    is stale and must be discarded."""

    def test_stale_translation_is_discarded(self, object_code,
                                            tmp_path):
        storage = DiskStorage(str(tmp_path / "cache"))
        module = _fresh_module(object_code)
        cold = Tier2Cache(module, module.target_data, threshold=0)
        cold.attach_storage(storage, KEY)
        outcome = _run_forced(module, cold)
        assert cold.flush_storage()
        # Backdate the cache entry, then present a newer executable.
        storage.write(TIER2_CACHE_NAME, KEY,
                      storage.read(TIER2_CACHE_NAME, KEY),
                      timestamp=100.0)
        module = _fresh_module(object_code)
        warm = Tier2Cache(module, module.target_data, threshold=0)
        assert not warm.attach_storage(
            storage, KEY, executable_timestamp=time.time())
        assert _run_forced(module, warm) == outcome
        assert warm.stats.warm_compiles == 0

    def test_fresh_translation_is_accepted(self, object_code,
                                           tmp_path):
        storage = DiskStorage(str(tmp_path / "cache"))
        module = _fresh_module(object_code)
        cold = Tier2Cache(module, module.target_data, threshold=0)
        cold.attach_storage(storage, KEY)
        outcome = _run_forced(module, cold)
        assert cold.flush_storage()
        module = _fresh_module(object_code)
        warm = Tier2Cache(module, module.target_data, threshold=0)
        assert warm.attach_storage(
            storage, KEY, executable_timestamp=100.0)
        assert _run_forced(module, warm) == outcome
        assert warm.stats.warm_compiles > 0


class TestLLEEIntegration:
    """`LLEE.run_interpreted(tier2=True)` — the full warm-start loop."""

    def test_cross_process_warm_start(self, object_code):
        storage = InMemoryStorage()
        first = LLEE(make_target("x86"), storage)
        cold = first.run_interpreted(object_code, tier2=True,
                                     tier2_threshold=0)
        assert not cold.translation_cache_hit
        assert cold.tier2_functions_compiled > 0
        assert cold.tier2_steps == cold.steps

        # A fresh LLEE instance models a fresh process.
        second = LLEE(make_target("x86"), storage)
        warm = second.run_interpreted(object_code, tier2=True,
                                      tier2_threshold=0)
        assert warm.translation_cache_hit
        assert warm.tier2_warm_compiles == warm.tier2_functions_compiled
        assert (warm.return_value, warm.output, warm.steps,
                warm.exit_status) == (cold.return_value, cold.output,
                                      cold.steps, cold.exit_status)

    def test_same_instance_reuses_compiled_units(self, object_code):
        llee = LLEE(make_target("x86"))
        first = llee.run_interpreted(object_code, tier2=True,
                                     tier2_threshold=0)
        again = llee.run_interpreted(object_code, tier2=True,
                                     tier2_threshold=0)
        assert again.cache_hit
        assert again.tier2_compile_seconds == 0.0
        assert (again.return_value, again.steps) == (
            first.return_value, first.steps)

    def test_tier2_report_matches_reference_engine(self, object_code):
        llee = LLEE(make_target("x86"))
        tiered = llee.run_interpreted(object_code, tier2=True,
                                      tier2_threshold=0)
        reference = llee.run_interpreted(object_code,
                                         engine="reference")
        assert (tiered.return_value, tiered.output, tiered.steps,
                tiered.exit_status) == (
            reference.return_value, reference.output, reference.steps,
            reference.exit_status)

    def test_corrupt_persisted_blob_degrades_gracefully(
            self, object_code):
        storage = InMemoryStorage()
        first = LLEE(make_target("x86"), storage)
        cold = first.run_interpreted(object_code, tier2=True,
                                     tier2_threshold=0)
        for name in list(storage._caches.get(TIER2_CACHE_NAME, {})):
            storage.write(TIER2_CACHE_NAME, name, b"\x00garbage")
        second = LLEE(make_target("x86"), storage)
        warm = second.run_interpreted(object_code, tier2=True,
                                      tier2_threshold=0)
        assert not warm.translation_cache_hit
        assert (warm.return_value, warm.steps) == (cold.return_value,
                                                   cold.steps)

    def test_sanitized_run_reports_no_tier2_activity(self, object_code):
        # Tier 2 with llva-san is rejected, not silently run in tier 1;
        # a sanitized run reports no tier-2 activity.
        llee = LLEE(make_target("x86"))
        with pytest.raises(ValueError, match="pins execution"):
            llee.run_interpreted(object_code, tier2=True,
                                 tier2_threshold=0, sanitize=True)
        report = llee.run_interpreted(object_code, sanitize=True)
        assert report.sanitized
        assert report.tier2_steps == 0
        assert report.tier2_functions_compiled == 0


class TestNativeCacheInvalidMetric:
    """The pre-existing native translation cache now reports invalid
    entries through the same ``llee.cache.invalid`` metric."""

    def test_corrupt_native_entry_logs_and_retranslates(
            self, object_code):
        storage = InMemoryStorage()
        llee = LLEE(make_target("x86"), storage)
        first = llee.run_executable(object_code)
        assert not first.cache_hit
        for name in list(storage._caches.get("llee-native", {})):
            storage.write("llee-native", name, b"\x00garbage")
        observe.configure()
        try:
            second = llee.run_executable(object_code)
            assert observe.registry().counters("llee.cache.invalid")
        finally:
            observe.disable()
        assert not second.cache_hit
        assert second.return_value == first.return_value

    def test_stale_native_entry_logs_stale_reason(self, object_code):
        storage = InMemoryStorage()
        llee = LLEE(make_target("x86"), storage)
        llee.run_executable(object_code)
        for name in list(storage._caches.get("llee-native", {})):
            data = storage.read("llee-native", name)
            storage.write("llee-native", name, data, timestamp=100.0)
        observe.configure()
        try:
            report = llee.run_executable(
                object_code, executable_timestamp=time.time())
            reasons = [dict(labels).get("reason") for _n, labels, _v
                       in observe.registry().counters(
                           "llee.cache.invalid")]
            assert "stale" in reasons
        finally:
            observe.disable()
        assert not report.cache_hit


class TestSelfModifyingCodeDoesNotPoisonTheCache:
    """A launch that fires ``llva.smc.replace`` stores the unit it
    compiled from ``f``'s new body under the name ``f``.  A later
    process whose ``f`` has its original body must compile it cold,
    not start warm from that unit."""

    @pytest.fixture(scope="class")
    def smc_code(self):
        return write_module(parse_module(SMC_PROGRAM))

    def test_through_the_llee(self, smc_code):
        storage = InMemoryStorage()

        def launch(n):
            return LLEE(make_target("x86"), storage).run_interpreted(
                smc_code, args=[n], engine="fast", tier2=True,
                tier2_threshold=0)

        assert launch(1).return_value == 100
        after_smc = launch(0)
        assert after_smc.return_value == 3
        assert after_smc.translation_cache_hit
        # ``main`` starts warm; ``f``'s stored body is ``g``'s.
        assert (after_smc.tier2_functions_compiled,
                after_smc.tier2_warm_compiles) == (2, 1)
        again = launch(0)
        assert again.return_value == 3
        assert again.tier2_warm_compiles == 2

    def test_through_the_cli(self, tmp_path, capsys):
        source = tmp_path / "smc.ll"
        source.write_text(SMC_PROGRAM)
        program = str(tmp_path / "smc.bc")
        assert main(["as", str(source), "-o", program]) == 0
        flags = ["--tier2", "--tier2-threshold", "0",
                 "--translation-cache", str(tmp_path / "cache")]
        assert main(["run", program, "1"] + flags) == 100
        assert main(["run", program, "0"] + flags) == 3

    @pytest.mark.parametrize("target_name", ("x86", "sparc"))
    def test_native_path_is_unaffected(self, smc_code, target_name):
        """A native translation carries its ``smc_version``, so the
        stored vector never serves the original body."""
        storage = InMemoryStorage()
        for n, expected in ((1, 100), (0, 3)):
            report = LLEE(make_target(target_name), storage) \
                .run_executable(smc_code, args=[n])
            assert report.return_value == expected


class TestOneBlobKey:
    """The CLI and an LLEE of either target key a program's tier-2 blob
    by its object-code digest alone, so they share one entry."""

    def test_cli_blob_serves_both_targets(self, object_code, tmp_path,
                                          capsys):
        program = tmp_path / "p.bc"
        program.write_bytes(object_code)
        root = str(tmp_path / "cache")
        assert main(["run", str(program), "--tier2", "--tier2-threshold",
                     "0", "--translation-cache", root]) == 6878 & 0xFF
        capsys.readouterr()
        for target_name in ("x86", "sparc"):
            report = LLEE(make_target(target_name),
                          DiskStorage(root)).run_interpreted(
                object_code, tier2=True, tier2_threshold=0)
            assert report.output == "6878"
            assert report.translation_cache_hit
            assert report.tier2_functions_compiled == 2
            assert report.tier2_warm_compiles == 2
        assert DiskStorage(root).read(TIER2_CACHE_NAME,
                                      cache_key(object_code))
        [directory] = [name for name in os.listdir(root)
                       if name.startswith(TIER2_CACHE_NAME + "-")]
        assert len(os.listdir(os.path.join(root, directory))) == 1
