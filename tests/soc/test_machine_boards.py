"""Boards and the machine composition root."""

import tracemalloc

import pytest

from repro.errors import SocError
from repro.soc import BOARDS, Machine, board_by_name
from repro.soc.memory import PAGE_SIZE
from repro.soc.boards import HIKEY960, RASPBERRY_PI4


class TestBoards:
    def test_all_evaluation_boards_exist(self):
        assert set(BOARDS) == {"hikey960", "odroid-n2", "odroid-c4",
                               "raspberrypi4", "pixel4"}

    def test_board_by_name(self):
        assert board_by_name("hikey960") is HIKEY960
        with pytest.raises(KeyError):
            board_by_name("pixel9")

    def test_gpu_models_match_paper(self):
        assert BOARDS["hikey960"].gpu_model == "mali-g71"
        assert BOARDS["odroid-n2"].gpu_model == "mali-g52"
        assert BOARDS["odroid-c4"].gpu_model == "mali-g31"
        assert BOARDS["raspberrypi4"].gpu_model == "v3d"

    def test_only_pi_uses_firmware_power(self):
        assert RASPBERRY_PI4.firmware_managed_power
        assert not HIKEY960.firmware_managed_power


class TestMachine:
    def test_create_mounts_the_right_gpu(self):
        machine = Machine.create("hikey960", seed=1)
        assert machine.gpu.model_name == "mali-g71"
        assert machine.gpu.core_count == 8
        v3d = Machine.create("raspberrypi4", seed=1)
        assert v3d.gpu.family == "v3d"

    def test_gpu_registers_mapped_at_board_base(self):
        machine = Machine.create("hikey960", seed=1)
        base = machine.board.gpu_mmio_base
        assert machine.mmio.read(base) == machine.gpu.regs.peek("GPU_ID")

    def test_seed_changes_physical_allocation_order(self):
        a = Machine.create("hikey960", seed=1).gpu_allocator.alloc_pages(8)
        b = Machine.create("hikey960", seed=2).gpu_allocator.alloc_pages(8)
        assert a != b

    @pytest.mark.parametrize("board", sorted(BOARDS))
    def test_boot_cost_does_not_scale_with_gpu_memory(self, board):
        """A machine pays for pages a session allocates, not for the
        region the board advertises: boot leaves no per-page state."""
        Machine.create(board, seed=1)  # imports and caches, untraced
        tracemalloc.start()
        try:
            machine = Machine.create(board, seed=2)
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        allocator = machine.gpu_allocator
        assert allocator.page_count == \
            machine.board.gpu_mem_bytes // PAGE_SIZE
        assert allocator.pages_free == allocator.page_count
        assert allocator.pages_in_use == 0
        assert not allocator._displaced and not allocator._recycled
        assert machine.memory.touched_pages() == 0

    def test_attach_second_gpu_rejected(self):
        machine = Machine.create("hikey960", seed=1)
        with pytest.raises(SocError):
            machine.attach_gpu(object())

    def test_require_gpu_without_gpu(self):
        from repro.soc.boards import HIKEY960 as board
        machine = Machine(board, seed=1)
        with pytest.raises(SocError):
            machine.require_gpu()

    def test_interference_validation(self):
        machine = Machine.create("hikey960", seed=1)
        machine.interference.mem_contention = 0.5
        with pytest.raises(SocError):
            machine.interference.validate()
        machine.interference.mem_contention = 1.5
        machine.interference.thermal_throttle = 1.1
        machine.interference.validate()

    def test_now_tracks_clock(self):
        machine = Machine.create("hikey960", seed=1)
        machine.clock.advance(123)
        assert machine.now() == 123
