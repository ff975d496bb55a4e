"""Recording-format stability: the on-disk format is a contract.

A replayer deployed in a TEE or baremetal image cannot be updated in
lockstep with developer tooling, so the wire format must stay stable:
these tests pin the header layout, the rejection of future
versions, and that a version 1 file still reads.
"""

import base64
import random
import struct
import zlib

import pytest

from repro.core import actions as act
from repro.core.dumps import MemoryDump
from repro.core.encoder import decode_skeleton, encode_skeleton
from repro.core.recording import MAGIC, VERSION, Recording, RecordingMeta
from repro.errors import SerializationError


def tiny_recording():
    return Recording(RecordingMeta(workload="compat", family="mali",
                                   gpu_model="mali-g31",
                                   board="odroid-c4"),
                     [act.SetGpuPgtable(memattr=1)], [])


class TestFormatContract:
    def test_header_layout_is_pinned(self):
        blob = tiny_recording().to_bytes()
        assert blob[:4] == MAGIC == b"GRRC"
        version, flags = struct.unpack_from("<HI", blob, 4)
        assert version == VERSION == 2
        assert flags & 1  # compressed by default
        # Version 2 declares the logical body's and the stream's length.
        logical, stream = struct.unpack_from("<QQ", blob, 10)
        assert logical == tiny_recording().size_unzipped() - 10
        assert stream == len(zlib.decompress(blob[26:]))

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
        body = zlib.compress(bytes(64))
        for header in (struct.pack("<HI", 1, 1),
                       struct.pack("<HIQQ", VERSION, 1, 64, 64)):
            with pytest.raises(SerializationError):
                Recording.from_bytes(MAGIC + header + body)

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


#: ``real_recording()`` as version 1 wrote it (zlib'd), and its digest.
V1_FILE = base64.b64decode("""
R1JSQwEAAQAAAHic42DITczJ1E03NmQBsxgYOBnyU4ryM1N0k01YGUqKSvOSGaCA
CYjZGZABE5jkYPDyd4r3cHV0UQDymBlwAEYozYJLAYMAwlSYKWyEFCOcgcPK/0CA
rIFx1IGjDhx14KgDaexAJmTdCmARZhZWNnYOTi5uHl4+fgFBIWERUTFxCUkpaRlZ
OXkFRSVlFVU1dQ1NLW0dXT19A0MjYxNTM3MLSytrG1s7ewdHJ2cXVzd3D08vbx9f
P/+AwKDgkNCw8IjIqOiY2Lj4hMSk5JTUtPSMzKzsnNy8/ILCouKS0rLyisqq6pra
uvqGxqbmlta29o7Oru6e3r7+CRMnTZ4yddr0GTNnzZ4zd978BQsXLV6ydNnyFStX
rV6zdt36DRs3bd6yddv2HTt37d6zd9/+AwcPHT5y9NjxEydPnT5z9tz5CxcvXb5y
9dr1Gzdv3b5z9979Bw8fPX7y9NnzFy9fvX7z9t37Dx8/ff7y9dv3Hz9//f7z99//
Uf+P+n/U/6P+H/X/qP9H/T/q/1H/j/p/1P+j/h/1/6j/R/0/6v9R/4/6f9T/o/4f
9f+o/0f9P+r/Uf+P+n/U/6P+H/X/qP+Hhf8nIFYUrBoFo2AUjIJRMApGwSgYBaNg
FIyCUTAKRsGwBwC9R8C5""")
V1_DIGEST = "f0f756169d143132c1b9d4ec1f6a191a18f5e090664e6e3642dc06f39c7728bf"


class TestVersions:
    def test_version_1_file_still_decodes(self):
        assert V1_FILE[4:6] == b"\x01\x00"
        decoded = Recording.from_bytes(V1_FILE)
        assert decoded.digest() == V1_DIGEST == real_recording().digest()
        assert decoded.to_bytes() == real_recording().to_bytes()

    def test_uncompressed_is_version_1_and_the_logical_body(self):
        recording = real_recording()
        blob = recording.to_bytes(compress=False)
        assert struct.unpack_from("<HI", blob, 4) == (1, 0)
        assert len(blob) == recording.size_unzipped()
        assert Recording.from_bytes(blob).digest() == recording.digest()

    def test_zero_pages_are_left_out_of_the_stream(self):
        from repro.core.recording import MemoryDump
        page = bytes(range(256)) * 16
        recording = real_recording()
        recording.dumps = [MemoryDump(0x1000, bytes(4096) * 3 + page +
                                      bytes(100))]
        blob = recording.to_bytes()
        logical, stream = struct.unpack_from("<QQ", blob, 10)
        assert logical == recording.size_unzipped() - 10
        # One bitmap byte; the short zero tail page is left out too.
        assert stream == logical - 3 * 4096 - 100 + 1
        decoded = Recording.from_bytes(blob)
        assert decoded.digest() == recording.digest()
        assert bytes(decoded.dumps[0].data) == bytes(recording.dumps[0].data)

    def test_an_incompressible_stream_is_stored_raw(self):
        """Stored raw when deflate saves less than a tenth: the dump is
        a view of the file buffer."""
        from repro.core.recording import MemoryDump
        recording = real_recording()
        recording.dumps = [MemoryDump(0x1000,
                                      random.Random(5).randbytes(20000))]
        blob = recording.to_bytes()
        assert not struct.unpack_from("<HI", blob, 4)[1] & 1
        decoded = Recording.from_bytes(blob)
        assert isinstance(decoded.dumps[0].data, memoryview)
        assert decoded.dumps[0].data.obj is blob
        assert decoded.digest() == recording.digest()
        assert decoded.to_bytes() == blob

    def test_a_changed_recording_encodes_as_it_is_now(self):
        """An encode keeps nothing on the recording: a change made
        after it shows in the next file and skeleton."""
        recording = real_recording()
        recording.to_bytes()
        encode_skeleton(recording)
        recording.meta.workload = "changed"
        recording.dumps = recording.dumps[:1]
        decoded = Recording.from_bytes(recording.to_bytes())
        assert (decoded.meta.workload, len(decoded.dumps)) == ("changed", 1)
        skeleton = encode_skeleton(recording)
        assert decode_skeleton(skeleton, [recording.dumps[0].data]
                               ).meta.workload == "changed"

    def test_other_dumps_share_the_decoded_head(self):
        decoded = Recording.from_bytes(real_recording().to_bytes())
        dumps = [MemoryDump(d.va, bytes(d.size)) for d in decoded.dumps]
        other = decoded.with_dumps(dumps)
        assert other._head is decoded._head is not None
        assert other.digest() == Recording(decoded.meta, decoded.actions,
                                           dumps).digest()
        with pytest.raises(ValueError):
            decoded.with_dumps(dumps[1:])


class TestRequiredMetadata:
    @pytest.mark.parametrize("field,value", [
        ("family", "nvidia"), ("family", ""), ("gpu_model", ""),
        ("board", "")])
    def test_unknown_family_or_empty_metadata_is_refused(self, field,
                                                         value):
        recording = real_recording()
        setattr(recording.meta, field, value)
        for compress in (True, False):
            with pytest.raises(SerializationError):
                Recording.from_bytes(recording.to_bytes(compress))


ZOO = [(family, model) for family in ("mali", "v3d", "adreno")
       for model in ("alexnet", "autoencoder", "dense-serve",
                     "googlenet-lite", "har", "kws", "lenet5", "mnist",
                     "mobilenet", "resnet12", "resnet18", "squeezenet",
                     "vgg16", "yolov4-tiny")]


@pytest.fixture(scope="module")
def zoo_files():
    """Every zoo recording as a version 2 file, with its digest."""
    import numpy as np
    from repro.bench.workloads import build_stack
    from repro.core.harness import record_inference
    files = {}
    for family, model in ZOO:
        stack = build_stack(family, model)
        stack.net.run(np.zeros(stack.net.model.input_shape, np.float32))
        recording = record_inference(stack.net).recording
        files[family, model] = recording.to_bytes(), recording.digest()
    return files


def mutants(blob: bytes, seed: int):
    """Flipped, truncated and extended copies of ``blob``: bit flips in
    the header, the declared lengths and the body, cuts at the header
    and across the body, and bytes after it."""
    rng = random.Random(seed)
    for at in list(range(4, 26)) + [rng.randrange(26, len(blob))
                                    for _ in range(6)]:
        flipped = bytearray(blob)
        flipped[at] ^= 1 << rng.randrange(8)
        yield f"flip@{at}", bytes(flipped)
    for cut in (9, 25, 26, len(blob) // 2, len(blob) - 1):
        yield f"cut@{cut}", blob[:cut]
    for tail in (b"\x00", bytes(1000), zlib.compress(bytes(4096))):
        yield f"tail+{len(tail)}", blob + tail


#: Decoding a file holds its bytes, the stored stream and the dumps,
#: each once: a decode's traced peak stays under this many times the
#: file's size plus its declared lengths.
PEAK_OVER_FILE_AND_DECLARED = 2


def traced_outcome(blob: bytes, register_names, want_digest: str):
    """(outcome, traced peak): what ``from_bytes`` and the verifier say
    of ``blob`` -- refused, or decoded to a visible change or to the
    same recording."""
    import tracemalloc
    from repro.core.verifier import verify_recording
    from repro.errors import VerificationError
    tracemalloc.start()
    try:
        recording = Recording.from_bytes(blob)
        verify_recording(recording, register_names)
        outcome = "same" if recording.digest() == want_digest else "changed"
    except (SerializationError, VerificationError) as error:
        outcome = type(error).__name__
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return outcome, peak


class TestMutatedZooFiles:
    """Every zoo ``.grr``, damaged: each copy is refused with a
    :class:`SerializationError` or :class:`VerificationError`, or decodes
    to a recording whose digest shows the change (a flipped byte of a
    dump stored raw) or that is the same one (a reserved flag bit);
    and no decode holds more than its bound."""

    @pytest.mark.parametrize("family,model", ZOO,
                             ids=["/".join(pair) for pair in ZOO])
    def test_damaged_files_are_refused_or_visible(self, zoo_files, family,
                                                  model):
        from repro.core.replayer import Replayer
        from repro.soc.machine import fresh_replay_machine
        blob, digest = zoo_files[family, model]
        names = Replayer(fresh_replay_machine(family)).nano.register_names()
        assert traced_outcome(blob, names, digest)[0] == "same"
        deflated = struct.unpack_from("<HI", blob, 4)[1] & 1
        declared = max(struct.unpack_from("<QQ", blob, 10))
        for name, mutant in mutants(blob, zlib.crc32(model.encode())):
            outcome, peak = traced_outcome(mutant, names, digest)
            assert peak <= PEAK_OVER_FILE_AND_DECLARED * (
                len(mutant) + declared) + (1 << 20), (name, peak)
            if name.startswith(("cut", "tail")) or deflated and \
                    name.startswith("flip@") and int(name[5:]) >= 26:
                assert outcome in ("SerializationError",
                                   "VerificationError"), name
            elif outcome == "same":
                assert Recording.from_bytes(mutant).to_bytes() == blob

    @pytest.mark.parametrize("declared", (64 << 10, 16 << 20, 1 << 40))
    def test_a_zlib_bomb_inflates_no_more_than_it_declares(self, declared):
        """A 16-KiB file of zlib'd zeros that would inflate to 16 MiB:
        refused, having inflated at most its declared stream length."""
        body = zlib.compress(bytes(16 << 20), 9)
        blob = MAGIC + struct.pack("<HIQQ", VERSION, 1, declared,
                                   declared) + body
        outcome, peak = traced_outcome(blob, set(), "")
        assert outcome == "SerializationError"
        assert peak <= PEAK_OVER_FILE_AND_DECLARED * (
            len(blob) + min(declared, 16 << 20)) + (1 << 20)
        if declared > 16 << 20:     # over the cap: nothing inflated
            assert peak < 4 * len(blob) + (1 << 20)

    def test_a_version_1_bomb_stops_at_the_cap(self, monkeypatch):
        body = zlib.compress(bytes(16 << 20), 9)
        blob = MAGIC + struct.pack("<HI", 1, 1) + body
        monkeypatch.setattr("repro.core.recording.MAX_BODY", 4 << 20)
        with pytest.raises(SerializationError, match="too long"):
            Recording.from_bytes(blob)

    def test_zero_pages_are_decoded_into_one_buffer(self):
        """A few hundred bytes whose bitmap says every page of a 16-MiB
        dump is zero: the decode holds that dump once, not its pages
        and then their join."""
        declared = 16 << 20
        rec = tiny_recording()
        rec.dumps = [MemoryDump(0x1000, bytes(declared))]
        blob = rec.to_bytes()
        assert len(blob) < 1000
        import tracemalloc
        tracemalloc.start()
        try:
            decoded = Recording.from_bytes(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert decoded.dumps[0].data == bytes(declared)
        assert declared <= peak < declared * 5 // 4

    def test_a_declared_length_over_the_cap_is_refused(self, monkeypatch):
        rec = tiny_recording()
        rec.dumps = [MemoryDump(0x1000, bytes(8 << 20))]
        blob = rec.to_bytes()
        monkeypatch.setattr("repro.core.recording.MAX_BODY", 4 << 20)
        with pytest.raises(SerializationError, match="over"):
            Recording.from_bytes(blob)
