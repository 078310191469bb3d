"""The perf-regression guard (benchmarks/compare_bench.py)."""

import importlib.util
import io
import os

_PATH = os.path.join(os.path.dirname(__file__), "..", "..",
                     "benchmarks", "compare_bench.py")
_spec = importlib.util.spec_from_file_location("compare_bench", _PATH)
compare_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_bench)


def _doc(speedups, scale=0.2, diverged=False):
    return {
        "diverged": diverged,
        "programs": [{"program": name, "speedup": speedup,
                      "scale": scale}
                     for name, speedup in speedups.items()],
    }


def _run(current, baseline, tolerance=0.15):
    out = io.StringIO()
    code = compare_bench.compare(current, baseline,
                                 tolerance=tolerance, out=out)
    return code, out.getvalue()


class TestCompareBench:
    def test_within_tolerance_passes(self):
        code, text = _run(_doc({"ft": 10.0, "ks": 9.0}),
                          _doc({"ft": 11.0, "ks": 9.5}))
        assert code == 0
        assert "OK: within tolerance" in text

    def test_regression_fails(self):
        code, text = _run(_doc({"ft": 5.0, "ks": 5.0}),
                          _doc({"ft": 10.0, "ks": 10.0}))
        assert code == 1
        assert "FAIL: speedup regressed" in text

    def test_improvement_warns_but_passes(self):
        code, text = _run(_doc({"ft": 20.0, "ks": 20.0}),
                          _doc({"ft": 10.0, "ks": 10.0}))
        assert code == 0
        assert "WARN" in text and "refreshing" in text

    def test_gate_is_on_geomean_not_single_programs(self):
        # One noisy program dips >15% but the geomean holds.
        code, _text = _run(_doc({"ft": 14.0, "ks": 7.5}),
                           _doc({"ft": 12.0, "ks": 10.0}))
        assert code == 0

    def test_divergence_always_fails(self):
        code, text = _run(_doc({"ft": 10.0}, diverged=True),
                          _doc({"ft": 10.0}))
        assert code == 1
        assert "diverged" in text

    def test_scale_mismatch_is_an_error(self):
        code, text = _run(_doc({"ft": 10.0}, scale=0.05),
                          _doc({"ft": 10.0}, scale=0.2))
        assert code == 1
        assert "scale differs" in text

    def test_restricts_to_common_programs(self):
        current = _doc({"ft": 10.0})
        baseline = _doc({"ft": 10.0, "mystery": 100.0})
        code, text = _run(current, baseline)
        assert code == 0
        assert "mystery" not in text

    def test_no_common_programs_fails(self):
        code, text = _run(_doc({"a": 1.0}), _doc({"b": 1.0}))
        assert code == 1
        assert "no programs in common" in text
