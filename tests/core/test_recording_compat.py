"""Recording-format stability: the on-disk format is a contract.

A replayer deployed in a TEE or baremetal image cannot be updated in
lockstep with developer tooling, so the wire format must stay stable:
these tests pin the header layout and the rejection of future
versions.
"""

import struct
import zlib

import pytest

from repro.core import actions as act
from repro.core.recording import (MAGIC, VERSION, Recording,
                                  RecordingMeta, decode_skeleton,
                                  encode_skeleton)
from repro.errors import SerializationError


def tiny_recording():
    return Recording(RecordingMeta(workload="compat"),
                     [act.SetGpuPgtable(memattr=1)], [])


class TestFormatContract:
    def test_header_layout_is_pinned(self):
        blob = tiny_recording().to_bytes()
        assert blob[:4] == MAGIC == b"GRRC"
        version, flags = struct.unpack_from("<HI", blob, 4)
        assert version == VERSION == 1
        assert flags & 1  # compressed by default

    def test_future_version_rejected(self):
        blob = bytearray(tiny_recording().to_bytes())
        struct.pack_into("<H", blob, 4, VERSION + 1)
        with pytest.raises(SerializationError) as info:
            Recording.from_bytes(bytes(blob))
        assert "version" in str(info.value)

    def test_uncompressed_flag_respected(self):
        blob = tiny_recording().to_bytes(compress=False)
        _version, flags = struct.unpack_from("<HI", blob, 4)
        assert not flags & 1
        decoded = Recording.from_bytes(blob)
        assert decoded.meta.workload == "compat"

    def test_unknown_flag_bits_are_tolerated(self):
        """Forward-compat: reserved flag bits must not break loading."""
        blob = bytearray(tiny_recording().to_bytes())
        _version, flags = struct.unpack_from("<HI", blob, 4)
        struct.pack_into("<I", blob, 6, flags | 0x80)
        decoded = Recording.from_bytes(bytes(blob))
        assert decoded.meta.workload == "compat"

    def test_known_good_blob_still_decodes(self):
        """A recording serialized by this exact code decodes to the
        same structure after a write/read through a file."""
        import tempfile, os
        recording = tiny_recording()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "c.grr")
            recording.save(path)
            loaded = Recording.load(path)
        assert loaded.actions == recording.actions
        assert loaded.meta.workload == "compat"

    def test_empty_recording_is_rejected(self):
        """A recording replays at least one action: an empty action
        stream is what an all-zero body decodes to, not a recording."""
        empty = Recording(RecordingMeta(), [], [])
        for compress in (True, False):
            with pytest.raises(SerializationError, match="no actions"):
                Recording.from_bytes(empty.to_bytes(compress=compress))


class TestStrictDecode:
    """Every byte of a ``.grr`` file belongs to its one body: the
    loader refuses an empty body and bytes after the body."""

    def test_zlib_of_64_zero_bytes_is_rejected(self):
        blob = MAGIC + struct.pack("<HI", VERSION, 1) + zlib.compress(
            bytes(64))
        with pytest.raises(SerializationError):
            Recording.from_bytes(blob)

    @pytest.mark.parametrize("compress", (True, False))
    def test_trailing_bytes_after_a_valid_file_are_rejected(
            self, compress):
        blob = real_recording().to_bytes(compress=compress)
        assert Recording.from_bytes(blob).digest() == \
            real_recording().digest()
        with pytest.raises(SerializationError):
            Recording.from_bytes(blob + bytes(1000))
        with pytest.raises(SerializationError):
            Recording.from_bytes(blob + b"\x01")

    def test_trailing_bytes_after_a_skeleton_are_rejected(self):
        recording = real_recording()
        skeleton = encode_skeleton(recording)
        payloads = [dump.data for dump in recording.dumps]
        assert decode_skeleton(skeleton, payloads).digest() == \
            recording.digest()
        with pytest.raises(SerializationError, match="after the body"):
            decode_skeleton(skeleton + bytes(1000), payloads)


def real_recording():
    """A recording with actions, dumps and metadata -- enough body that
    truncation can land in every section."""
    from repro.core.recording import MemoryDump
    meta = RecordingMeta(workload="trunc", gpu_model="mali-g31",
                         family="mali", board="odroid-c4",
                         n_jobs=2, reg_io=7)
    actions = [act.SetGpuPgtable(memattr=1),
               act.MapGpuMem(addr=0x1000, num_pages=2,
                             raw_pte_flags=0x3),
               act.Upload(dump_index=0, addr=0x1000),
               act.RegWrite(reg="JOB_HEAD", val=0x1000,
                            is_job_kick=True)] * 8
    dumps = [MemoryDump(0x1000, bytes(range(256)) * 32),
             MemoryDump(0x9000, b"\xAA" * 4096)]
    return Recording(meta, actions, dumps)


class TestCorruptBlobRejection:
    """Satellite contract: a truncated or garbage blob must raise
    SerializationError (the grr exit-2 path), never a raw
    struct.error / EOFError / UnicodeDecodeError leaking out of the
    decoder."""

    def _assert_structured(self, blob):
        with pytest.raises(SerializationError):
            Recording.from_bytes(blob)

    @pytest.mark.parametrize("compress", (True, False))
    def test_truncation_at_every_region(self, compress):
        blob = real_recording().to_bytes(compress=compress)
        # Magic, header, and a sweep of body offsets: section
        # boundaries are format details, so cut everywhere.
        offsets = sorted({0, 1, 3, 4, 6, 9, 10, 11}
                         | {len(blob) * k // 23 for k in range(1, 23)}
                         | {len(blob) - 1})
        for offset in offsets:
            self._assert_structured(blob[:offset])

    @pytest.mark.parametrize("compress", (True, False))
    def test_garbage_tail_variants(self, compress):
        """Valid header, garbage body: decode must stay structured."""
        import random
        blob = real_recording().to_bytes(compress=compress)
        rng = random.Random(7)
        for _ in range(50):
            cut = rng.randrange(10, len(blob))
            garbage = blob[:cut] + rng.randbytes(len(blob) - cut)
            try:
                Recording.from_bytes(garbage)
            except SerializationError:
                pass  # the only acceptable failure
            # (decoding successfully is fine too: the damage may sit
            # in redundant padding)

    def test_pure_garbage(self):
        self._assert_structured(b"")
        self._assert_structured(b"\x00" * 64)
        self._assert_structured(b"GRRC")  # magic alone
        self._assert_structured(b"not a recording at all........")

    def test_grr_exits_2_on_truncated_file(self, tmp_path):
        from repro.tools.grr import main
        blob = real_recording().to_bytes()
        for offset in (5, len(blob) // 3, len(blob) - 2):
            path = tmp_path / f"trunc{offset}.grr"
            path.write_bytes(blob[:offset])
            assert main(["info", str(path)]) == 2
