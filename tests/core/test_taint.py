"""Magic-value taint discovery."""

import numpy as np
import pytest

from repro.core.taint import (intersect_matches, make_magic_input,
                              resolve_unique, scan_regions)
from repro.errors import TaintError


class TestMagicInput:
    def test_high_entropy(self):
        magic = make_magic_input((64, 64), seed=0)
        assert magic.dtype == np.float32
        assert len(np.unique(magic)) > 4000

    def test_seed_changes_values(self):
        a = make_magic_input((16,), seed=1)
        b = make_magic_input((16,), seed=2)
        assert not np.array_equal(a, b)

    def test_deterministic(self):
        assert np.array_equal(make_magic_input((16,), 5),
                              make_magic_input((16,), 5))


class TestScan:
    def test_finds_pattern_at_offset(self):
        magic = make_magic_input((8,), 0).tobytes()
        region = (0x1000, b"\x00" * 256 + magic + b"\x00" * 64)
        assert scan_regions([region], magic) == [0x1000 + 256]

    def test_multiple_regions_and_matches(self):
        magic = make_magic_input((8,), 0).tobytes()
        regions = [(0x1000, magic + b"\x00" * 32),
                   (0x9000, b"\x00" * 64 + magic)]
        assert scan_regions(regions, magic) == [0x1000, 0x9000 + 64]

    def test_unaligned_match_ignored(self):
        magic = make_magic_input((4,), 0).tobytes()
        region = (0x1000, b"\x00" * 3 + magic)
        assert scan_regions([region], magic) == []

    def test_alignment_is_on_the_absolute_va(self):
        """A span that starts mid-word (the recorder cuts by-value
        ranges out of a region) still finds an aligned tensor."""
        magic = make_magic_input((4,), 0).tobytes()
        assert scan_regions([(0x1002, b"\x00" * 2 + magic)], magic) \
            == [0x1004]
        assert scan_regions([(0x1002, magic)], magic) == []

    def test_no_match(self):
        assert scan_regions([(0, b"\x00" * 128)], b"\x01\x02\x03\x04") \
            == []

    def test_empty_pattern_rejected(self):
        with pytest.raises(TaintError):
            scan_regions([(0, b"abc")], b"")


class TestResolution:
    def test_intersection_removes_coincidences(self):
        assert intersect_matches([[0x100, 0x200], [0x200, 0x300]]) == \
            [0x200]

    def test_unique_resolution(self):
        assert resolve_unique([[0x100, 0x200], [0x200]], "input") == 0x200

    def test_no_match_raises(self):
        with pytest.raises(TaintError):
            resolve_unique([[]], "input")

    def test_ambiguous_raises_with_candidates(self):
        with pytest.raises(TaintError) as info:
            resolve_unique([[0x100, 0x200]], "output")
        assert "0x100" in str(info.value)

    def test_empty_run_list(self):
        assert intersect_matches([]) == []
