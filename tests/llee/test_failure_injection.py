"""Failure injection: broken storage, corrupted caches and object code.

Section 4.1 makes the storage API "strictly optional and the system
will operate correctly in their absence" — so LLEE must degrade to
online translation under every storage failure mode, and a corrupted
cached translation must never execute.
"""

import pytest

from repro.bitcode import BitcodeError, read_module, write_module
from repro.llee import LLEE, DiskStorage, InMemoryStorage, StorageAPI
from repro.minic import compile_source
from repro.targets import make_target

PROGRAM = """
int main() {
    int total = 0;
    int i;
    for (i = 0; i < 10; i++) total += i * i;
    return total;
}
"""

EXPECTED = sum(i * i for i in range(10))

SQUARES = """
int sq(int x) { return x * x + 7; }
int main() {
    int total = 0;
    int i;
    for (i = 0; i < 50; i++) total += sq(i);
    print_int(total);
    return 0;
}
"""


@pytest.fixture(scope="module")
def object_code():
    return write_module(compile_source(PROGRAM, "fi",
                                       optimization_level=2))


class _ExplodingStorage(StorageAPI):
    """Every operation raises."""

    def create_cache(self, cache):
        raise IOError("disk on fire")

    delete_cache = create_cache

    def cache_size(self, cache):
        raise IOError("disk on fire")

    def read(self, cache, name):
        raise IOError("disk on fire")

    def write(self, cache, name, data, timestamp=None):
        raise IOError("disk on fire")

    def timestamp(self, cache, name):
        raise IOError("disk on fire")


class _CorruptingStorage(InMemoryStorage):
    """Returns garbage for every cached vector."""

    def read(self, cache, name):
        data = super().read(cache, name)
        if data is None:
            return None
        return b"\x00garbage\xff" + data[:10]


class TestStorageFailures:
    def test_exploding_storage_degrades_to_online(self, object_code):
        llee = LLEE(make_target("x86"), _ExplodingStorage())
        report = llee.run_executable(object_code)
        assert report.return_value == EXPECTED
        assert not report.cache_hit
        assert report.functions_jitted > 0
        # And again — still works, still online.
        report2 = llee.run_executable(object_code)
        assert report2.return_value == EXPECTED

    def test_corrupted_cache_entry_is_rejected(self, object_code):
        storage = _CorruptingStorage()
        llee = LLEE(make_target("x86"), storage)
        first = llee.run_executable(object_code)
        assert first.return_value == EXPECTED
        # The cache now holds a corrupted vector; the second run must
        # reject it and retranslate rather than execute garbage.
        second = llee.run_executable(object_code)
        assert second.return_value == EXPECTED
        assert not second.cache_hit
        assert second.functions_jitted > 0

    def test_wrong_target_cache_rejected(self, object_code):
        storage = InMemoryStorage()
        x86 = LLEE(make_target("x86"), storage)
        x86.run_executable(object_code)
        # Manually cross-wire the sparc key to the x86 payload.
        sparc = LLEE(make_target("sparc"), storage)
        x86_key = x86._cache_key(object_code)
        sparc_key = sparc._cache_key(object_code)
        payload = storage.read("llee-native", x86_key)
        storage.write("llee-native", sparc_key, payload)
        report = sparc.run_executable(object_code)
        assert report.return_value == EXPECTED
        assert not report.cache_hit  # target mismatch detected

    def test_edited_native_entry_is_rejected(self, tmp_path):
        """An entry whose code was edited on disk still parses as a
        well-formed translation; only its checksum tells it apart."""
        object_code = write_module(compile_source(SQUARES, "sq"))
        root = str(tmp_path)
        first = LLEE(make_target("x86"),
                     DiskStorage(root)).run_executable(object_code)
        assert first.output == "40775"
        storage = DiskStorage(root)
        llee = LLEE(make_target("x86"), storage)
        key = llee._cache_key(object_code)
        blob = storage.read("llee-native", key)
        assert b'["i",7]' in blob
        storage.write("llee-native", key,
                      blob.replace(b'["i",7]', b'["i",8]', 1))
        report = llee.run_executable(object_code)
        assert report.output == "40775"
        assert not report.cache_hit
        assert report.functions_jitted > 0


class TestCorruptObjectCode:
    def test_truncation_raises_bitcode_error(self, object_code):
        for cut in (4, 10, len(object_code) // 2):
            with pytest.raises(BitcodeError):
                read_module(object_code[:cut])

    def test_bad_magic(self, object_code):
        with pytest.raises(BitcodeError):
            read_module(b"XXXX" + object_code[4:])

    def test_single_byte_flips_never_hang_or_crash_host(self,
                                                        object_code):
        """Flipping all bits, the lowest bit or the highest bit of any
        early byte must yield a clean, typed failure (BitcodeError from
        the reader, VerificationError from the verifier) or a still-
        valid module — never an unhandled host exception type."""
        from repro.ir.verifier import VerificationError, verify_module

        flipped = 0
        for mask in (0xFF, 0x01, 0x80):
            for position in range(8, min(len(object_code), 160)):
                mutated = bytearray(object_code)
                mutated[position] ^= mask
                try:
                    module = read_module(bytes(mutated))
                    verify_module(module)
                except (BitcodeError, VerificationError):
                    flipped += 1
        assert flipped > 0  # corruption is generally detected
