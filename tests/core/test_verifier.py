"""Static verification of recording security properties (§5.1)."""

import pytest

from repro.core import actions as act
from repro.core.dumps import MemoryDump
from repro.core.recording import IoBuffer, Recording, RecordingMeta
from repro.core.verifier import verify_recording
from repro.errors import VerificationError
from repro.soc.memory import PAGE_SIZE
from repro.units import MIB

REGISTERS = {"GPU_COMMAND", "JS0_COMMAND", "JOB_IRQ_STATUS"}


def recording(actions, dumps=(), inputs=(), outputs=()):
    meta = RecordingMeta(inputs=list(inputs), outputs=list(outputs))
    return Recording(meta, actions, list(dumps))


class TestRegisterWhitelist:
    def test_known_registers_pass(self):
        report = verify_recording(recording([
            act.RegWrite(reg="GPU_COMMAND", val=1),
            act.RegReadOnce(reg="JOB_IRQ_STATUS", val=0),
            act.RegReadWait(reg="JOB_IRQ_STATUS", mask=1, val=1,
                            timeout_ns=100),
        ]), REGISTERS)
        assert report.registers_used == {"GPU_COMMAND", "JOB_IRQ_STATUS"}

    @pytest.mark.parametrize("action", [
        act.RegWrite(reg="SECRET_FUSE", val=1),
        act.RegReadOnce(reg="SECRET_FUSE", val=0),
        act.RegReadWait(reg="SECRET_FUSE", mask=1, val=1, timeout_ns=1),
    ])
    def test_unknown_register_rejected(self, action):
        with pytest.raises(VerificationError):
            verify_recording(recording([action]), REGISTERS)


class TestMemoryChecks:
    def test_upload_must_land_in_mapped_range(self):
        rec = recording(
            [act.MapGpuMem(addr=0x100000, num_pages=1, raw_pte_flags=7),
             act.Upload(addr=0x900000, dump_index=0)],
            dumps=[MemoryDump(0x900000, b"x" * 16)])
        with pytest.raises(VerificationError):
            verify_recording(rec, REGISTERS)

    def test_upload_inside_mapping_passes(self):
        rec = recording(
            [act.MapGpuMem(addr=0x100000, num_pages=1, raw_pte_flags=7),
             act.Upload(addr=0x100000, dump_index=0)],
            dumps=[MemoryDump(0x100000, b"x" * 16)])
        verify_recording(rec, REGISTERS)

    def test_upload_dump_index_bounds(self):
        rec = recording(
            [act.MapGpuMem(addr=0x100000, num_pages=1, raw_pte_flags=7),
             act.Upload(addr=0x100000, dump_index=5)])
        with pytest.raises(VerificationError):
            verify_recording(rec, REGISTERS)

    def test_overlapping_mappings_rejected(self):
        rec = recording([
            act.MapGpuMem(addr=0x100000, num_pages=4, raw_pte_flags=7),
            act.MapGpuMem(addr=0x102000, num_pages=1, raw_pte_flags=7),
        ])
        with pytest.raises(VerificationError):
            verify_recording(rec, REGISTERS)

    def test_identical_remap_is_session_legal(self):
        rec = recording([
            act.MapGpuMem(addr=0x100000, num_pages=4, raw_pte_flags=7),
        ])
        verify_recording(rec, REGISTERS,
                         preexisting_maps={0x100000: 4})

    def test_unmap_of_unmapped_rejected(self):
        with pytest.raises(VerificationError):
            verify_recording(recording([
                act.UnmapGpuMem(addr=0x100000, num_pages=1)]), REGISTERS)

    @pytest.mark.parametrize("num_pages", [1, 63, 65])
    def test_unmap_must_name_the_mapped_size(self, num_pages):
        """An unmap of part of a mapping is refused: the replay would
        free all of it."""
        with pytest.raises(VerificationError, match="which maps 64"):
            verify_recording(recording([
                act.MapGpuMem(addr=0x100000, num_pages=64, raw_pte_flags=7),
                act.UnmapGpuMem(addr=0x100000, num_pages=num_pages)]),
                REGISTERS)
        verify_recording(recording([
            act.MapGpuMem(addr=0x100000, num_pages=64, raw_pte_flags=7),
            act.UnmapGpuMem(addr=0x100000, num_pages=64)]), REGISTERS)

    def test_unaligned_map_rejected(self):
        with pytest.raises(VerificationError):
            verify_recording(recording([
                act.MapGpuMem(addr=0x100007, num_pages=1,
                              raw_pte_flags=7)]), REGISTERS)

    def test_map_outside_va_space_rejected(self):
        with pytest.raises(VerificationError):
            verify_recording(recording([
                act.MapGpuMem(addr=0x3FFFF000, num_pages=10,
                              raw_pte_flags=7)]), REGISTERS)

    def test_empty_map_rejected(self):
        with pytest.raises(VerificationError):
            verify_recording(recording([
                act.MapGpuMem(addr=0x100000, num_pages=0,
                              raw_pte_flags=7)]), REGISTERS)


class TestPolicies:
    def test_peak_memory_policy(self):
        rec = recording([
            act.MapGpuMem(addr=0x100000, num_pages=512,
                          raw_pte_flags=7)])
        verify_recording(rec, REGISTERS, max_gpu_bytes=4 * MIB)
        with pytest.raises(VerificationError):
            verify_recording(rec, REGISTERS, max_gpu_bytes=1 * MIB)

    def test_peak_counts_concurrent_not_total(self):
        rec = recording([
            act.MapGpuMem(addr=0x100000, num_pages=256, raw_pte_flags=7),
            act.UnmapGpuMem(addr=0x100000, num_pages=256),
            act.MapGpuMem(addr=0x300000, num_pages=256, raw_pte_flags=7),
        ])
        report = verify_recording(rec, REGISTERS)
        assert report.peak_mapped_bytes == 256 * PAGE_SIZE

    def test_waitirq_needs_timeout(self):
        with pytest.raises(VerificationError):
            verify_recording(recording([act.WaitIrq(timeout_ns=0)]),
                             REGISTERS)

    def test_io_buffers_must_be_mapped(self):
        rec = recording(
            [act.MapGpuMem(addr=0x100000, num_pages=1, raw_pte_flags=7)],
            inputs=[IoBuffer("input", 0x100000, 64)],
            outputs=[IoBuffer("out", 0x700000, 64)])
        with pytest.raises(VerificationError):
            verify_recording(rec, REGISTERS)

    def test_empty_io_buffer_rejected(self):
        rec = recording(
            [act.MapGpuMem(addr=0x100000, num_pages=1, raw_pte_flags=7)],
            inputs=[IoBuffer("input", 0x100000, 0)])
        with pytest.raises(VerificationError):
            verify_recording(rec, REGISTERS)

    def test_copy_ranges_checked(self):
        rec = recording([
            act.MapGpuMem(addr=0x100000, num_pages=1, raw_pte_flags=7),
            act.CopyToGpu(gaddr=0x100000, size=2 * PAGE_SIZE,
                          buffer_name="input"),
        ])
        with pytest.raises(VerificationError):
            verify_recording(rec, REGISTERS)

    def test_report_counts(self):
        rec = recording(
            [act.MapGpuMem(addr=0x100000, num_pages=2, raw_pte_flags=7),
             act.Upload(addr=0x100000, dump_index=0)],
            dumps=[MemoryDump(0x100000, b"z" * 100)])
        report = verify_recording(rec, REGISTERS)
        assert report.actions == 2
        assert report.dump_bytes == 100


#: Each family's page-table root registers, named here rather than
#: imported so that the probe does not lean on the declaration it tests.
ROOTS = {"mali": ("AS0_TRANSTAB_LO", "AS0_TRANSTAB_HI"),
         "adreno": ("SMMU_TTBR0_LO", "SMMU_TTBR0_HI"),
         "v3d": ("MMU_PT_PA_BASE",)}


class TestPageTableRoot:
    """Only SetGpuPgtable may move the GPU page-table root: a RegWrite
    naming a root register is refused at load, whatever its value."""

    @pytest.mark.parametrize("family", sorted(ROOTS))
    def test_replayer_refuses_a_root_redirect(self, family):
        from repro.core.replayer import Replayer
        from repro.soc.machine import fresh_replay_machine

        replayer = Replayer(fresh_replay_machine(family, seed=31))
        replayer.init()
        gpu = replayer.machine.require_gpu()
        meta = RecordingMeta(gpu_model=gpu.model_name, family=family,
                             pte_format=gpu.mmu.fmt.name,
                             board=replayer.machine.board.name,
                             workload="probe", prologue_len=2)
        probe = Recording(meta, [
            act.SetGpuPgtable(),
            act.MapGpuMem(addr=0x100000, num_pages=1, raw_pte_flags=7),
        ] + [act.RegWrite(reg=reg, val=0x1000 if i == 0 else 0)
             for i, reg in enumerate(ROOTS[family])], [])
        with pytest.raises(VerificationError, match="page-table root"):
            replayer.load(probe)
        replayer.cleanup()

    def test_reads_of_a_root_stay_legal(self):
        verify_recording(recording([
            act.RegReadOnce(reg="AS0_TRANSTAB_LO", val=0, ignore=True),
        ]), REGISTERS | {"AS0_TRANSTAB_LO"})

    def test_the_driver_and_the_verifier_share_one_declaration(self):
        """The nano driver, the verifier and the attack suite read the
        roots off the family table, and none of them spells one out."""
        import inspect

        from repro.analysis import security
        from repro.core import nano_driver, verifier
        from repro.gpu import FAMILIES
        from repro.soc.machine import fresh_replay_machine

        assert {name: family.root_regs
                for name, family in FAMILIES.items()} == ROOTS
        assert verifier._ROOTS == set(sum(ROOTS.values(), ()))
        for family in ROOTS:
            driver = nano_driver.NanoGpuDriver(
                fresh_replay_machine(family, seed=3))
            assert driver.table is FAMILIES[family]
        for module in (nano_driver, verifier, security):
            source = inspect.getsource(module)
            assert "FAMILIES" in source
            assert [reg for reg in verifier._ROOTS if reg in source] == []
