"""The command-line toolchain, driven through its public main()."""

import io
import os
import sys

import pytest

from repro.tools import main

PROGRAM = """
int square(int x) { return x * x; }
int main() {
    print_int(square(6));
    print_newline();
    return square(6) % 100;
}
"""

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

ASSEMBLY = """
int %main() {
entry:
        %v = add int 40, 2
        ret int %v
}
"""


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    source = tmp_path / "prog.c"
    source.write_text(PROGRAM)
    assembly = tmp_path / "prog.ll"
    assembly.write_text(ASSEMBLY)
    return tmp_path


def _capture(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestToolchain:
    def test_cc_run_interpreter(self, workdir, capsys):
        bc = str(workdir / "prog.bc")
        code, _out, _err = _capture(
            ["cc", str(workdir / "prog.c"), "-o", bc, "-O", "2"],
            capsys)
        assert code == 0 and os.path.getsize(bc) > 0
        code, out, err = _capture(["run", bc, "--stats"], capsys)
        assert out.strip() == "36"
        assert code == 36
        assert "steps=" in err

    def test_run_native_targets(self, workdir, capsys):
        bc = str(workdir / "prog.bc")
        _capture(["cc", str(workdir / "prog.c"), "-o", bc], capsys)
        for target in ("x86", "sparc"):
            code, out, err = _capture(
                ["run", bc, "--target", target, "--stats"], capsys)
            assert out.strip() == "36"
            assert code == 36
            assert "cycles=" in err

    def test_as_dis_round_trip(self, workdir, capsys):
        bc = str(workdir / "asm.bc")
        code, _o, _e = _capture(
            ["as", str(workdir / "prog.ll"), "-o", bc], capsys)
        assert code == 0
        ll = str(workdir / "back.ll")
        code, _o, _e = _capture(["dis", bc, "-o", ll], capsys)
        assert code == 0
        text = open(ll).read()
        assert "add int 40, 2" in text
        code, _out, _err = _capture(["run", bc], capsys)
        assert code == 42

    def test_opt_shrinks(self, workdir, capsys):
        bc = str(workdir / "prog.bc")
        opt = str(workdir / "prog-opt.bc")
        _capture(["cc", str(workdir / "prog.c"), "-o", bc], capsys)
        code, _o, _e = _capture(["opt", bc, "-o", opt, "--link-time"],
                                capsys)
        assert code == 0
        assert os.path.getsize(opt) < os.path.getsize(bc)
        code, out, _err = _capture(["run", opt], capsys)
        assert out.strip() == "36" and code == 36

    def test_llc_listing(self, workdir, capsys):
        bc = str(workdir / "prog.bc")
        _capture(["cc", str(workdir / "prog.c"), "-o", bc], capsys)
        code, out, err = _capture(["llc", bc, "--target", "sparc"],
                                  capsys)
        assert code == 0
        assert ".entry" in out or "main:" in out
        assert "sparc instructions" in err

    def test_link(self, workdir, capsys):
        a = workdir / "a.ll"
        a.write_text("""
        declare int %helper(int)
        int %main() {
        entry:
                %r = call int %helper(int 5)
                ret int %r
        }
        """)
        b = workdir / "b.ll"
        b.write_text("""
        int %helper(int %x) {
        entry:
                %r = mul int %x, 9
                ret int %r
        }
        """)
        out_bc = str(workdir / "linked.bc")
        code, _o, _e = _capture(
            ["link", str(a), str(b), "-o", out_bc], capsys)
        assert code == 0
        code, _out, _err = _capture(["run", out_bc], capsys)
        assert code == 45

    def test_trap_exit_code(self, workdir, capsys):
        bad = workdir / "bad.ll"
        bad.write_text("""
        int %main() {
        entry:
                %q = div int 1, 0
                ret int %q
        }
        """)
        code, _out, err = _capture(["run", str(bad)], capsys)
        assert code == 128 + 2  # divide-by-zero
        assert "trap" in err


class TestTierFlagNormalization:
    """The flag implication (--tier2 => --engine fast) resolves before
    the shared conflict check, and run and stats reject the same
    combinations."""

    IMPLYING_FLAGS = ("--tier2",)

    @pytest.fixture()
    def prog(self, workdir, capsys):
        bc = str(workdir / "prog.bc")
        assert main(["cc", str(workdir / "prog.c"), "-o", bc]) == 0
        capsys.readouterr()
        return bc

    @pytest.mark.parametrize("flag", IMPLYING_FLAGS)
    def test_run_rejects_tiered_with_target(self, prog, capsys, flag):
        code, _out, err = _capture(
            ["run", prog, flag, "--target", "x86"], capsys)
        assert code == 2
        assert "--tier2" in err and "--target" in err

    @pytest.mark.parametrize("flag", IMPLYING_FLAGS)
    def test_run_rejects_tiered_with_sanitize(self, prog, capsys,
                                              flag):
        code, _out, err = _capture(
            ["run", prog, flag, "--sanitize"], capsys)
        assert code == 2
        assert "--sanitize" in err

    @pytest.mark.parametrize("flag", IMPLYING_FLAGS)
    def test_stats_rejects_tiered_with_target(self, prog, capsys,
                                              flag):
        code, _out, err = _capture(
            ["stats", prog, flag, "--target", "sparc"], capsys)
        assert code == 2
        assert "--tier2" in err

    @pytest.mark.parametrize("flag", IMPLYING_FLAGS)
    def test_stats_rejects_tiered_with_sanitize(self, prog, capsys,
                                                flag):
        code, _out, err = _capture(
            ["stats", prog, flag, "--sanitize"], capsys)
        assert code == 2

    @pytest.mark.parametrize("flag", IMPLYING_FLAGS)
    def test_run_implied_tier2_overrides_reference_engine(
            self, prog, capsys, flag):
        argv = ["run", prog, flag, "--engine", "reference", "--stats"]
        code, out, err = _capture(argv, capsys)
        assert out.strip() == "36"
        assert code == 36
        assert "tier2.steps=" in err


class TestMalformedInput:
    """Unreadable or malformed input ends in one stderr line naming the
    command, the path and the reason, with exit status 1."""

    @pytest.fixture()
    def squares_bc(self, workdir, capsys):
        source = workdir / "sq.c"
        source.write_text(SQUARES)
        bc = workdir / "sq.bc"
        assert main(["cc", str(source), "-o", str(bc)]) == 0
        capsys.readouterr()
        return bc.read_bytes()

    @staticmethod
    def _write(path, data):
        path.write_bytes(data)
        return str(path)

    def _argv(self, case, workdir, squares_bc):
        if case == "missing":
            return "run", str(workdir / "missing.bc")
        if case == "truncated":
            return "run", self._write(workdir / "cut.bc", squares_bc[:40])
        if case == "flipped":
            mutated = bytearray(squares_bc)
            mutated[len(mutated) // 2] ^= 0xFF
            return "run", self._write(workdir / "flip.bc", bytes(mutated))
        if case == "minic-syntax":
            return "cc", self._write(workdir / "bad.c",
                                     b"int main( { return 0; }")
        if case == "minic-undecodable":
            return "cc", self._write(workdir / "bin.c",
                                     b"int main() { return 0; }\xff")
        assert case == "asm-garbage"
        return "run", self._write(workdir / "bad.ll", b"garbage here\n")

    @pytest.mark.parametrize("case", ["missing", "truncated", "flipped",
                                      "minic-syntax", "minic-undecodable",
                                      "asm-garbage"])
    def test_reported_in_one_line(self, workdir, squares_bc, capsys,
                                  case):
        command, path = self._argv(case, workdir, squares_bc)
        argv = [command, path]
        if command == "cc":
            argv += ["-o", str(workdir / "out.bc")]
        code, out, err = _capture(argv, capsys)
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1, err
        assert err.startswith(command + ": cannot read " + path + ": ")


class TestUnusablePaths:
    """A path the command cannot read or write — an output that is a
    directory or sits in a missing one, a cache directory that is a
    file, a --load file that is missing or not a metrics snapshot —
    ends in one stderr line naming the command, the path and the
    reason, with exit status 1."""

    @pytest.fixture()
    def prog(self, workdir, capsys):
        bc = str(workdir / "prog.bc")
        assert main(["cc", str(workdir / "prog.c"), "-o", bc]) == 0
        capsys.readouterr()
        return bc

    @staticmethod
    def _assert_one_line(code, err, command, verb, path):
        assert code == 1
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1, err
        assert err.startswith("{0}: cannot {1} {2}: ".format(
            command, verb, path)), err

    @pytest.mark.parametrize("argv", [
        ["run", "{prog}", "--tier2", "--translation-cache", "{file}"],
        ["stats", "{prog}", "--target", "x86", "--cache", "{file}"],
    ])
    def test_cache_directory_is_a_file(self, workdir, prog, capsys,
                                       argv):
        path = workdir / "not-a-dir"
        path.write_text("x")
        argv = [a.format(prog=prog, file=path) for a in argv]
        code, out, err = _capture(argv, capsys)
        assert out == ""
        self._assert_one_line(code, err, argv[0], "write", str(path))

    @pytest.mark.parametrize("command", ["cc", "as", "dis", "opt",
                                         "link", "llc"])
    def test_output_is_a_directory(self, workdir, prog, capsys,
                                   command):
        source = str(workdir / "prog.c") if command == "cc" else (
            str(workdir / "prog.ll") if command == "as" else prog)
        outdir = workdir / "outdir"
        outdir.mkdir()
        code, out, err = _capture([command, source, "-o", str(outdir)],
                                  capsys)
        assert out == ""
        self._assert_one_line(code, err, command, "write", str(outdir))

    def test_output_in_missing_directory(self, workdir, prog, capsys):
        path = str(workdir / "no" / "such" / "x.bc")
        code, out, err = _capture(["opt", prog, "-o", path], capsys)
        assert out == ""
        self._assert_one_line(code, err, "opt", "write", path)

    def test_speedscope_is_a_directory(self, workdir, prog, capsys):
        outdir = workdir / "scope"
        outdir.mkdir()
        code, _out, err = _capture(
            ["profile", prog, "--speedscope", str(outdir)], capsys)
        self._assert_one_line(code, err, "profile", "write",
                              str(outdir))

    @pytest.mark.parametrize("content", [None, "garbage", "[]",
                                         '{"counters": 5}'])
    def test_load_rejects_non_snapshot(self, workdir, capsys, content):
        path = workdir / "metrics.json"
        if content is not None:
            path.write_text(content)
        code, out, err = _capture(["stats", "--load", str(path)],
                                  capsys)
        assert out == ""
        self._assert_one_line(code, err, "stats", "read", str(path))
