"""The experiment harness plumbing: tables, cache, workload builders."""

import pytest

from repro.bench import harness
from repro.bench.harness import (ResultTable, cached, clear_recording_cache,
                                 geomean)
from repro.bench.workloads import (board_for_family, build_stack,
                                   model_input, saxpy_ir, vecadd_ir)
from repro.core.cache import LruCache
from repro.errors import ReproError
from repro.obs.metrics import global_registry


class TestResultTable:
    def make(self):
        table = ResultTable("t", ["a", "b"])
        table.add_row(a=1, b=2.5)
        table.add_row(a="x", b=0.125)
        return table

    def test_add_row_requires_all_columns(self):
        table = ResultTable("t", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(a=1)

    def test_column_extraction(self):
        assert self.make().column("a") == [1, "x"]

    def test_row_for(self):
        table = self.make()
        assert table.row_for("a", "x")["b"] == 0.125
        with pytest.raises(KeyError):
            table.row_for("a", "missing")

    def test_render_contains_everything(self):
        table = self.make()
        table.notes.append("a note")
        text = table.render()
        assert "t" in text.splitlines()[0]
        assert "2.500" in text  # floats formatted
        assert "note: a note" in text

    def test_render_aligns_columns(self):
        lines = self.make().render().splitlines()
        header, divider = lines[1], lines[2]
        assert len(header) == len(divider)

    def test_json_round_trip(self):
        table = self.make()
        table.notes.append("a note")
        restored = ResultTable.from_json(table.to_json())
        assert restored.title == table.title
        assert list(restored.columns) == list(table.columns)
        assert restored.rows == table.rows
        assert restored.notes == table.notes

    def test_to_dict_coerces_numpy_scalars(self):
        import numpy as np
        table = ResultTable("t", ["a"])
        table.add_row(a=np.float64(1.5))
        value = table.to_dict()["rows"][0]["a"]
        assert type(value) is float
        ResultTable.from_json(table.to_json())  # must be serializable


class TestCache:
    def test_cached_produces_once(self):
        calls = []

        def produce():
            calls.append(1)
            return "value"

        key = ("unit-test", "cache", 1)
        assert cached(key, produce) == "value"
        assert cached(key, produce) == "value"
        assert len(calls) == 1

    def test_clear(self):
        calls = []
        key = ("unit-test", "cache", 2)
        cached(key, lambda: calls.append(1))
        clear_recording_cache()
        cached(key, lambda: calls.append(1))
        assert len(calls) == 2

    @pytest.fixture
    def cache(self, monkeypatch):
        """A fresh two-entry ``RECORDING_CACHE`` behind ``cached``."""
        fresh = LruCache(capacity=2)
        monkeypatch.setattr(harness, "RECORDING_CACHE", fresh)
        return fresh

    @staticmethod
    def counts():
        registry = global_registry()
        return tuple(registry.counter(f"bench.recording_cache.{name}").value
                     for name in ("hits", "misses", "evictions"))

    def test_hit_miss_accounting(self, cache):
        before = self.counts()
        cached(("k",), lambda: "v")
        cached(("k",), lambda: "v")
        cached(("k2",), lambda: "v2")
        assert len(cache) == 2
        assert tuple(b - a for a, b in zip(before, self.counts())) \
            == (1, 2, 0)

    def test_clear_keeps_counters(self, cache):
        cached(("k",), lambda: "v")
        misses = self.counts()[1]
        clear_recording_cache()
        assert len(cache) == 0
        assert self.counts()[1] == misses
        cached(("k",), lambda: "v")
        assert self.counts()[1] == misses + 1

    def test_capacity_evicts_least_recently_used(self, cache):
        before = self.counts()
        for key in ("a", "b", "a", "c"):
            cached((key,), lambda k=key: k)
        assert len(cache) == 2
        assert tuple(b - a for a, b in zip(before, self.counts())) \
            == (1, 3, 1)
        # "b" was the least recently used: producing it again misses.
        produced = []
        cached(("b",), lambda: produced.append("b") or "b")
        assert produced == ["b"]
        assert self.counts()[1] - before[1] == 4


class TestGeomean:
    def test_basic(self):
        assert abs(geomean([1.0, 4.0]) - 2.0) < 1e-9
        assert geomean([]) == 0.0
        assert geomean([3.0]) == 3.0

    def test_no_overflow_with_huge_values(self):
        # A naive running product hits inf after two of these.
        values = [1e308] * 20
        result = geomean(values)
        assert result != float("inf")
        assert abs(result - 1e308) / 1e308 < 1e-12

    def test_no_underflow_with_tiny_values(self):
        values = [1e-308] * 20
        result = geomean(values)
        assert result != 0.0
        assert abs(result - 1e-308) / 1e-308 < 1e-12

    def test_non_positive_values_yield_zero(self):
        assert geomean([1.0, 0.0, 4.0]) == 0.0
        assert geomean([2.0, -3.0]) == 0.0


class TestWorkloadBuilders:
    def test_board_for_family(self):
        assert board_for_family("mali") == "hikey960"
        assert board_for_family("v3d") == "raspberrypi4"
        assert board_for_family("adreno") == "pixel4"
        with pytest.raises(ReproError):
            board_for_family("nvidia")

    def test_model_input_deterministic(self):
        import numpy as np
        assert np.array_equal(model_input("mnist", seed=3),
                              model_input("mnist", seed=3))
        assert model_input("mnist").shape == (1, 16, 16)

    def test_math_kernel_irs_validate(self):
        vecadd_ir(128).validate()
        ir = saxpy_ir(64)
        ir.validate()
        assert ir.external_inputs() == ["x", "y"]
        assert ir.final_outputs() == ["out"]

    def test_build_stack_adreno(self):
        stack = build_stack("adreno", "mnist", seed=901)
        assert stack.machine.gpu.family == "adreno"
        assert stack.net.configured


class TestReportTool:
    def test_report_runs_a_cheap_experiment(self, capsys):
        from repro.bench.report import run
        run(["tab05"])
        out = capsys.readouterr().out
        assert "[tab05]" in out
        assert "CVE-2019-20577" in out

    def test_report_prefix_matching(self, capsys):
        from repro.bench.report import run
        run(["tab04"])
        out = capsys.readouterr().out
        assert "codebase comparison" in out

    def test_report_unknown_name(self, capsys):
        from repro.bench.report import run
        run(["fig99"])
        assert "unknown experiment" in capsys.readouterr().out
