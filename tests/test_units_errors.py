"""Top-level utility modules: units and the error hierarchy."""

import pytest

from repro import errors
from repro.tools.grr import fmt_bytes, fmt_ns
from repro.units import (GIB, KIB, MIB, MS, NS, SEC, US, align_down,
                         align_up)


class TestUnits:
    def test_time_constants(self):
        assert US == 1000 * NS
        assert MS == 1000 * US
        assert SEC == 1000 * MS

    def test_size_constants(self):
        assert MIB == 1024 * KIB
        assert GIB == 1024 * MIB

    def test_fmt_ns_picks_scale(self):
        assert fmt_ns(5) == "5 ns"
        assert fmt_ns(1500) == "1.500 us"
        assert fmt_ns(2 * MS) == "2.000 ms"
        assert fmt_ns(3 * SEC) == "3.000 s"

    def test_fmt_bytes_picks_scale(self):
        assert fmt_bytes(100) == "100 B"
        assert fmt_bytes(2048) == "2.00 KiB"
        assert fmt_bytes(3 * MIB) == "3.00 MiB"
        assert fmt_bytes(GIB) == "1.00 GiB"

    def test_align(self):
        assert align_up(1, 4096) == 4096
        assert align_up(4096, 4096) == 4096
        assert align_down(4100, 4096) == 4096
        with pytest.raises(ValueError):
            align_up(5, 0)
        with pytest.raises(ValueError):
            align_down(5, -1)


class TestErrorHierarchy:
    def test_everything_is_a_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError), name

    def test_replay_error_carries_context(self):
        error = errors.ReplayError("boom", action_index=7,
                                   source="kbase.c:42")
        assert error.action_index == 7
        assert error.source == "kbase.c:42"
        assert "#7" in str(error)
        assert "kbase.c:42" in str(error)

    def test_replay_error_without_context(self):
        error = errors.ReplayError("boom")
        assert "action" not in str(error)

    def test_gpu_page_fault_fields(self):
        fault = errors.GpuPageFault(0x1234, "w", "permission denied")
        assert fault.va == 0x1234
        assert fault.access == "w"
        assert "0x1234" in str(fault)

    def test_subclass_relationships(self):
        assert issubclass(errors.ReplayTimeout, errors.ReplayError)
        assert issubclass(errors.ReplayDivergence, errors.ReplayError)
        assert issubclass(errors.TaintError, errors.RecordingError)
        assert issubclass(errors.CompileError, errors.RuntimeApiError)
        assert issubclass(errors.GpuPageFault, errors.GpuFault)

    def test_catching_base_catches_all_replay_failures(self):
        for cls in (errors.ReplayTimeout, errors.ReplayDivergence,
                    errors.ReplayAborted):
            with pytest.raises(errors.ReplayError):
                raise cls("x")
