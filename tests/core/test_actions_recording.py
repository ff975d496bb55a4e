"""Replay actions and the recording file format."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import actions as act
from repro.core.dumps import MemoryDump
from repro.core.encoder import zero_page_ratio
from repro.core.recorder import coalesce_pages
from repro.core.recording import IoBuffer, Recording, RecordingMeta
from repro.errors import SerializationError
from repro.soc.memory import PAGE_SIZE


def sample_recording():
    meta = RecordingMeta(
        gpu_model="mali-g71", family="mali", pte_format="mali",
        board="hikey960", workload="unit", api="opencl", framework="acl",
        memattr=0x4C, n_jobs=2, reg_io=17, prologue_len=3,
        inputs=[IoBuffer("input", 0x100000, 256, (8, 8))],
        outputs=[IoBuffer("out", 0x200000, 64, (16,), optional=False)],
        power_sequence=[(0x28001, 10, 1)],
    )
    actions = [
        act.SetGpuPgtable(memattr=0x4C, src="recorder:prologue"),
        act.MapGpuMem(addr=0x100000, num_pages=2, raw_pte_flags=0x7,
                      src="recorder:map"),
        act.MapGpuMem(addr=0x200000, num_pages=1, raw_pte_flags=0xF),
        act.Upload(addr=0x100000, dump_index=0, min_interval_ns=10,
                   recorded_interval_ns=99, job_index=1),
        act.RegWrite(reg="JS0_COMMAND", mask=0xFF, val=1,
                     is_job_kick=True, src="kick"),
        act.WaitIrq(timeout_ns=1000000, src="wait"),
        act.IrqEnter(src="irq"),
        act.RegReadOnce(reg="JOB_IRQ_STATUS", val=1, ignore=False),
        act.RegReadWait(reg="GPU_IRQ_RAWSTAT", mask=2, val=2,
                        timeout_ns=5000),
        act.IrqExit(),
        act.UnmapGpuMem(addr=0x200000, num_pages=1),
        act.CopyToGpu(gaddr=0x100000, size=64, buffer_name="input"),
        act.CopyFromGpu(gaddr=0x200000, size=64, buffer_name="out"),
    ]
    dumps = [MemoryDump(0x100000, b"\x42" * 600)]
    return Recording(meta, actions, dumps)


class TestSerialization:
    def test_roundtrip_preserves_everything(self):
        original = sample_recording()
        decoded = Recording.from_bytes(original.to_bytes())
        assert decoded.actions == original.actions
        assert decoded.dumps == original.dumps
        assert decoded.meta.__dict__ == original.meta.__dict__

    def test_uncompressed_roundtrip(self):
        original = sample_recording()
        blob = original.to_bytes(compress=False)
        assert Recording.from_bytes(blob).actions == original.actions

    def test_compression_shrinks(self):
        recording = sample_recording()
        assert recording.size_zipped() < recording.size_unzipped()

    def test_bad_magic_rejected(self):
        with pytest.raises(SerializationError):
            Recording.from_bytes(b"NOPE" + b"\x00" * 20)

    def test_truncated_rejected(self):
        blob = sample_recording().to_bytes()
        with pytest.raises(SerializationError):
            Recording.from_bytes(blob[:20])

    def test_corrupt_body_rejected(self):
        blob = bytearray(sample_recording().to_bytes())
        blob[30] ^= 0xFF
        with pytest.raises(SerializationError):
            Recording.from_bytes(bytes(blob))

    def test_save_load_file(self, tmp_path):
        path = str(tmp_path / "rec.grr")
        original = sample_recording()
        size = original.save(path)
        assert size > 0
        loaded = Recording.load(path)
        assert loaded.actions == original.actions

    def test_string_table_deduplicates(self):
        shared = Recording(RecordingMeta(), [
            act.RegWrite(reg="SAME_REGISTER", val=i,
                         src="same/source.c:here")
            for i in range(100)], [])
        distinct = Recording(RecordingMeta(), [
            act.RegWrite(reg=f"REGISTER_{i:03d}", val=i,
                         src=f"file_{i:03d}.c:line")
            for i in range(100)], [])
        # Interning makes repeated strings nearly free.
        assert shared.size_unzipped() < \
            distinct.size_unzipped() - 100 * 20


class TestAccounting:
    def test_peak_gpu_pages(self):
        recording = sample_recording()
        # 2 + 1 pages mapped concurrently before the unmap.
        assert recording.peak_gpu_pages() == 3

    def test_dump_bytes(self):
        assert sample_recording().dump_bytes() == 600

    def test_summary(self):
        summary = sample_recording().summary()
        assert summary["jobs"] == 2
        assert summary["gpu_mem_bytes"] == 3 * PAGE_SIZE


class TestDumps:
    def test_coalesce_adjacent_pages(self):
        pages = [(0x2000, b"b" * PAGE_SIZE), (0x1000, b"a" * PAGE_SIZE),
                 (0x5000, b"c" * PAGE_SIZE)]
        dumps = coalesce_pages(pages)
        assert [(d.va, d.size) for d in dumps] == [
            (0x1000, 2 * PAGE_SIZE), (0x5000, PAGE_SIZE)]
        assert dumps[0].data[:PAGE_SIZE] == b"a" * PAGE_SIZE

    def test_coalesce_empty(self):
        assert coalesce_pages([]) == []

    def test_zero_page_ratio(self):
        dumps = [MemoryDump(0, b"\x00" * PAGE_SIZE * 3),
                 MemoryDump(0x10000, b"\x01" * PAGE_SIZE)]
        assert zero_page_ratio(dumps) == 0.75
        assert zero_page_ratio([]) == 0.0


# Property: arbitrary well-formed recordings survive the wire format.
_action_strategy = st.one_of(
    st.builds(act.RegWrite,
              reg=st.sampled_from(["A", "B", "LONG_REGISTER_NAME"]),
              mask=st.integers(0, 2 ** 32 - 1),
              val=st.integers(0, 2 ** 32 - 1),
              is_job_kick=st.booleans(),
              min_interval_ns=st.integers(0, 2 ** 40),
              src=st.text(max_size=20)),
    st.builds(act.RegReadOnce, reg=st.sampled_from(["A", "B"]),
              val=st.integers(0, 2 ** 32 - 1), ignore=st.booleans()),
    st.builds(act.WaitIrq, timeout_ns=st.integers(0, 2 ** 40)),
    st.builds(act.MapGpuMem, addr=st.integers(0, 2 ** 30),
              num_pages=st.integers(1, 1000),
              raw_pte_flags=st.integers(0, 0xFFF)),
    st.builds(act.IrqEnter),
    st.builds(act.IrqExit),
)


@settings(max_examples=50, deadline=None)
@given(st.lists(_action_strategy, min_size=1, max_size=20),
       st.lists(st.binary(min_size=1, max_size=200), max_size=4))
def test_recording_roundtrip_property(actions, blobs):
    dumps = [MemoryDump(i * PAGE_SIZE, blob)
             for i, blob in enumerate(blobs)]
    recording = Recording(RecordingMeta(workload="prop", family="mali",
                                        gpu_model="mali-g31",
                                        board="odroid-c4"),
                          actions, dumps)
    decoded = Recording.from_bytes(recording.to_bytes())
    assert decoded.actions == actions
    assert decoded.dumps == dumps
