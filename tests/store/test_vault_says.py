"""The vault says the same things: for each kind of damage, what a
verified fetch raises and what an unverified one returns, pinned from
the commit before the fetch loop took its happy path inline, and three
kinds only a content check sees from the commit before a verified
fetch checked the recording digest alone.

``observe`` is the whole protocol; ``PARENT`` holds what it returned
there (``python tests/store/test_vault_says.py`` prints the table for
the tree it runs in).
"""

import hashlib
import json
import os
import random
import zlib
from dataclasses import replace

import pytest

from repro.core.dumps import MemoryDump
from repro.core.encoder import encode_skeleton
from repro.core.recording import IoBuffer, Recording
from repro.store import Vault
from repro.store.vault import _PackWriter, _load_index
from repro.tools.smoke import flip_object_byte
from tests.serve.test_recording_fuzz import synthetic_recording


def damaged_recording() -> Recording:
    """Two multi-chunk dumps of equal size, one deflated dump, one
    dump repeating the first's chunks, one optional input."""
    rng = random.Random(23)
    base = synthetic_recording(3)
    base.meta.inputs[:] = [IoBuffer(name="in0", gaddr=0x5000, size=64,
                                    shape=(16,), optional=True)]
    first = rng.randbytes(9000)
    return Recording(base.meta, base.actions, [
        MemoryDump(0x10000, first),
        MemoryDump(0x20000, bytes(range(256)) * 24),
        MemoryDump(0x30000, first),
        MemoryDump(0x40000, rng.randbytes(9000))])


def _rewrite_manifest(vault, digest, edit):
    path = vault._manifest_path(digest)
    with open(path) as handle:
        data = json.load(handle)
    edit(data)
    with open(path, "w") as handle:
        json.dump(data, handle)


def _chunk(manifest, dump_index, position):
    return manifest.dumps[dump_index][2][position][0]


def _stored_as(vault, manifest, deflated):
    """A chunk of dump 0 / dump 1 stored raw / deflated."""
    for _va, _size, refs in manifest.dumps:
        for digest, size in refs:
            if (vault.object_location(digest)[2] != size) == deflated:
                return digest
    raise AssertionError("no such chunk")


def absent_from_index(vault, manifest):
    where = _load_index(vault._packs_file(manifest.digest, ".idx")).where()
    del where[_chunk(manifest, 3, 1)]
    vault._write_index(manifest.digest, where)


def pack_deleted(vault, manifest):
    os.remove(vault.object_location(manifest.skeleton_digest)[0])


def pack_truncated(vault, manifest):
    path, offset, length = vault.object_location(_chunk(manifest, 3, 2))
    os.truncate(path, offset + length // 2)


def zlib_garbage(vault, manifest):
    path, offset, length = vault.object_location(
        _stored_as(vault, manifest, deflated=True))
    with open(path, "r+b") as handle:
        handle.seek(offset)
        handle.write(b"\xa5" * length)


def flipped_byte(vault, manifest):
    flip_object_byte(vault, _stored_as(vault, manifest, deflated=False))


def lying_size_on_a_later_reference(vault, manifest):
    def edit(data):
        data["dumps"][2]["chunks"][1][1] -= 1   # dump 0's ref is honest
    _rewrite_manifest(vault, manifest.digest, edit)


def swapped_chunk_lists(vault, manifest):
    def edit(data):
        dumps = data["dumps"]
        dumps[0]["chunks"], dumps[3]["chunks"] = \
            dumps[3]["chunks"], dumps[0]["chunks"]
    _rewrite_manifest(vault, manifest.digest, edit)


def _non_canonical_skeleton(recording) -> bytes:
    """The skeleton with the input's ``optional`` byte 2, not 1:
    decodes to the same recording, re-encodes differently."""
    skeleton = bytearray(encode_skeleton(recording))
    recording.meta.inputs[0] = replace(recording.meta.inputs[0],
                                       optional=False)
    other = encode_skeleton(recording)
    at, = [i for i, (a, b) in enumerate(zip(skeleton, other)) if a != b]
    skeleton[at] = 2
    return bytes(skeleton)


def _install_skeleton(vault, manifest, skeleton, as_digest):
    """Store ``skeleton`` and point a manifest named ``as_digest`` (and
    its index) at it."""
    with _PackWriter(vault._packs_dir) as writer:
        address, _new = writer.put(skeleton, ())
    where = _load_index(vault._packs_file(manifest.digest, ".idx")).where()
    where.pop(manifest.skeleton_digest)
    where.update(writer.located)

    def edit(data):
        data["digest"] = as_digest
        data["skeleton"] = {"digest": address, "size": len(skeleton)}
    _rewrite_manifest(vault, manifest.digest, edit)
    os.rename(vault._manifest_path(manifest.digest),
              vault._manifest_path(as_digest))
    os.remove(vault._packs_file(manifest.digest, ".idx"))
    vault._write_index(as_digest, where)
    return as_digest


def non_canonical_skeleton(vault, manifest):
    """Same recording, honest manifest digest: nothing is wrong."""
    return _install_skeleton(
        vault, manifest, _non_canonical_skeleton(damaged_recording()),
        manifest.digest)


def non_canonical_skeleton_and_its_own_digest(vault, manifest):
    """The manifest names the hash of the body *as stored*: not what
    ``Recording.digest()`` of the recording it decodes to says."""
    recording = damaged_recording()
    skeleton = _non_canonical_skeleton(recording)
    body = hashlib.sha256(skeleton[:len(skeleton) - 12 * 4])
    for at, dump in zip(range(len(skeleton) - 48, len(skeleton), 12),
                        recording.dumps):
        body.update(skeleton[at:at + 12])
        body.update(dump.data)
    return _install_skeleton(vault, manifest, skeleton, body.hexdigest())


def _twins(vault):
    """Pack, beside the damaged recording, one whose last two dumps are
    single raw chunks of equal length; returns its manifest and their
    two chunk digests. Damage only a content check sees."""
    rng = random.Random(29)
    base = synthetic_recording(3)
    twins = vault.pack(Recording(base.meta, base.actions, [
        MemoryDump(0x10000, rng.randbytes(9000)),
        MemoryDump(0x20000, rng.randbytes(200)),
        MemoryDump(0x30000, rng.randbytes(200))]))
    return twins, _chunk(twins, 1, 0), _chunk(twins, 2, 0)


def swapped_records_of_equal_length(vault, manifest):
    twins, one, other = _twins(vault)
    path, at_one, length = vault.object_location(one)
    _path, at_other, _length = vault.object_location(other)
    with open(path, "r+b") as handle:
        handle.seek(at_one)
        first = handle.read(length)
        handle.seek(at_other)
        second = handle.read(length)
        handle.seek(at_one)
        handle.write(second)
        handle.seek(at_other)
        handle.write(first)
    return twins.digest


def index_entry_on_another_record(vault, manifest):
    twins, one, other = _twins(vault)
    where = _load_index(vault._packs_file(twins.digest, ".idx")).where()
    where[one] = where[other]
    vault._write_index(twins.digest, where)
    return twins.digest


def deflated_chunk_of_other_bytes(vault, manifest):
    """Dump 1's first chunk, a 4096-byte ramp, replaced by the zlib of
    the ramp turned by one byte: valid, as long, and as long inflated."""
    path, offset, length = vault.object_location(
        _stored_as(vault, manifest, deflated=True))
    ramp = bytes(range(1, 256)) + bytes(1)
    other = zlib.compress(ramp * 16, 6)
    assert len(other) == length
    with open(path, "r+b") as handle:
        handle.seek(offset)
        handle.write(other)


DAMAGE = (absent_from_index, pack_deleted, pack_truncated, zlib_garbage,
          flipped_byte, lying_size_on_a_later_reference,
          swapped_chunk_lists, non_canonical_skeleton,
          non_canonical_skeleton_and_its_own_digest,
          swapped_records_of_equal_length, index_entry_on_another_record,
          deflated_chunk_of_other_bytes)


def observe(root, damage):
    """What both kinds of fetch say about one damaged vault."""
    vault = Vault(os.path.join(root, "vault"))
    manifest = vault.pack(damaged_recording())
    assert [len(refs) for _va, _size, refs in manifest.dumps][0] > 3
    digest = damage(vault, manifest) or manifest.digest
    seen = {}
    for verify in (True, False):
        try:
            recording = Vault.open(vault.root).fetch(digest, verify=verify)
            seen[verify] = ("ok", hashlib.sha256(
                recording.to_bytes(compress=False)).hexdigest(),
                recording.digest())
        except Exception as error:
            seen[verify] = (
                type(error).__name__, str(error).replace(root, "<root>"),
                tuple(getattr(error, field, None) for field in (
                    "chunk_digest", "dump_index", "dump_va",
                    "dump_offset", "recording_digest")))
    return seen


#: ``observe`` of every damage at the parent commit: 26aa112, and for
#: the last three kinds b1a4f34, before fetch checked at the root.
PARENT = {'absent_from_index': {False: ('ok',
                               '49fa3edc364c3f3bfac03ad5a36b6ce4e5583cf71e014f4a616791fadf03189e',
                               '60b73e8f8f1caf8e00d142635165e71cbf7aef2f7634b560055ecd7d548e879b'),
                       True: ('StoreNotFoundError',
                              'missing object f610175f9074 (not in the '
                              'index, or its pack is gone from '
                              '<root>/vault/packs)',
                              (None, None, None, None, None))},
 'deflated_chunk_of_other_bytes': {False: ('ok',
                                           'e7e15bdff206c07e40b09eae6fd2796bf535602b4811506f8266e4040bed5aa2',
                                           'b8594d2adb4723d762733c01e568dc66a62506685bad4e68bdbc353363f4b79b'),
                                   True: ('StoreCorruptionError',
                                          'object content does not match its '
                                          'address [recording 0a67c833d1c5] '
                                          '[chunk c8f5d0341d54] [dump #1 va '
                                          '0x20000 offset 0]',
                                          ('c8f5d0341d54d951a71b136e6e2afcb14d11ed8489a7ae126a8fee0df6ecf193',
                                           1,
                                           131072,
                                           0,
                                           '0a67c833d1c5db9baf3da4e8353deff7912268c4abf56a36f1e3fcd86d8dec2f'))},
 'flipped_byte': {False: ('ok',
                          '46c3c6871f4354a63405b8d7f337f66302c919e17e475979580a73866dd7c81d',
                          'c8435e315702b0bbc9d959f036e14b692717aece843c16b4cc75fcc3b41bba8c'),
                  True: ('StoreCorruptionError',
                         'object content does not match its address '
                         '[recording 0a67c833d1c5] [chunk 2a21215c51d0] '
                         '[dump #0 va 0x10000 offset 0]',
                         ('2a21215c51d0835045aaaeec4c92a0e594e030092560c80f25cdefe0f387aa04',
                          0,
                          65536,
                          0,
                          '0a67c833d1c5db9baf3da4e8353deff7912268c4abf56a36f1e3fcd86d8dec2f'))},
 'index_entry_on_another_record': {False: ('ok',
                                           'e09828e6df6b5890c33bc49711119e60c1bb06d2d765b6f8225d7d5c0ec407d1',
                                           '747ae53914a2d3a85053f85113a89cf13383dbee61079f6f1142b98166e8e4e8'),
                                   True: ('StoreCorruptionError',
                                          'object content does not match its '
                                          'address [recording 96ddbe72b5b6] '
                                          '[chunk c2db7b80f0cf] [dump #1 va '
                                          '0x20000 offset 0]',
                                          ('c2db7b80f0cf56d401742939950cedd2e889d543439349bcc51fa6a5decc0186',
                                           1,
                                           131072,
                                           0,
                                           '96ddbe72b5b66352e03be1cd28908eff4ab2ff4e602be99682facc30819f669f'))},
 'lying_size_on_a_later_reference': {False: ('StoreCorruptionError',
                                             'dump reassembled to 8999 '
                                             'bytes, manifest says 9000 '
                                             '[recording 0a67c833d1c5] [dump '
                                             '#2 va 0x30000 offset -1]',
                                             ('',
                                              2,
                                              196608,
                                              -1,
                                              '0a67c833d1c5db9baf3da4e8353deff7912268c4abf56a36f1e3fcd86d8dec2f')),
                                     True: ('StoreCorruptionError',
                                            'object 65eb877a42fc has 1559 '
                                            'bytes, manifest says 1558 '
                                            '[recording 0a67c833d1c5] [chunk '
                                            '65eb877a42fc] [dump #2 va '
                                            '0x30000 offset 608]',
                                            ('65eb877a42fc278498bf41d245a29bedbc1a1b352a513a33e6e98239592aedf2',
                                             2,
                                             196608,
                                             608,
                                             '0a67c833d1c5db9baf3da4e8353deff7912268c4abf56a36f1e3fcd86d8dec2f'))},
 'non_canonical_skeleton': {False: ('ok',
                                    '146792dc297a74367c558fc2363a309e61ef44aa5e22cc46afdde04cb37da695',
                                    '0a67c833d1c5db9baf3da4e8353deff7912268c4abf56a36f1e3fcd86d8dec2f'),
                            True: ('ok',
                                   '146792dc297a74367c558fc2363a309e61ef44aa5e22cc46afdde04cb37da695',
                                   '0a67c833d1c5db9baf3da4e8353deff7912268c4abf56a36f1e3fcd86d8dec2f')},
 'non_canonical_skeleton_and_its_own_digest': {False: ('ok',
                                                       '146792dc297a74367c558fc2363a309e61ef44aa5e22cc46afdde04cb37da695',
                                                       '0a67c833d1c5db9baf3da4e8353deff7912268c4abf56a36f1e3fcd86d8dec2f'),
                                               True: ('StoreCorruptionError',
                                                      'reassembled recording '
                                                      'does not hash back to '
                                                      'the manifest digest '
                                                      '[recording '
                                                      '837c59512d73]',
                                                      ('',
                                                       -1,
                                                       -1,
                                                       -1,
                                                       '837c59512d7358ce434c94ec8be7a46828bf62f4fd54ead92570debafd57ab78'))},
 'pack_deleted': {False: ('StoreNotFoundError',
                          'missing object 30d36ed6a0fb (not in the index, or '
                          'its pack is gone from <root>/vault/packs)',
                          (None, None, None, None, None)),
                  True: ('StoreNotFoundError',
                         'missing object 30d36ed6a0fb (not in the index, or '
                         'its pack is gone from <root>/vault/packs)',
                         (None, None, None, None, None))},
 'pack_truncated': {False: ('ok',
                            '123b987bb821e3c4613a7a55602bfd7165c51e4862f618d0921974b52f271323',
                            '32d4e5bc43ac17db25fbf756384b1c859a2d2ac21998f40e1a3365358e7794a6'),
                    True: ('StoreCorruptionError',
                           'object 5df8126cb161 is cut short: truncated pack '
                           '[recording 0a67c833d1c5] [chunk 5df8126cb161] '
                           '[dump #3 va 0x40000 offset 3776]',
                           ('5df8126cb161c1bfc6e8dddb793c2e05cdbe63f4dcc83512d5e36017ad7d3e0e',
                            3,
                            262144,
                            3776,
                            '0a67c833d1c5db9baf3da4e8353deff7912268c4abf56a36f1e3fcd86d8dec2f'))},
 'swapped_chunk_lists': {False: ('ok',
                                 '1dfe526289e5404cecd2ff24faac33c2898df9fc2fce3063b3df0b6f73778e7a',
                                 '5ea2d906b82304cd1649fbbf3979d086883a1be587a89d595f29dad5735f9bc8'),
                         True: ('StoreCorruptionError',
                                'reassembled recording does not hash back to '
                                'the manifest digest [recording '
                                '0a67c833d1c5]',
                                ('',
                                 -1,
                                 -1,
                                 -1,
                                 '0a67c833d1c5db9baf3da4e8353deff7912268c4abf56a36f1e3fcd86d8dec2f'))},
 'swapped_records_of_equal_length': {False: ('ok',
                                             'a4bc9f6ce777933f5ef00d65477a8f4cdb124513232bb0350858e80e49f081c5',
                                             '632c5f49bbb5fb0c7574c44e8057d4191249f9e0bba9f48369b094caec6440d5'),
                                     True: ('StoreCorruptionError',
                                            'object content does not match '
                                            'its address [recording '
                                            '96ddbe72b5b6] [chunk '
                                            'c2db7b80f0cf] [dump #1 va '
                                            '0x20000 offset 0]',
                                            ('c2db7b80f0cf56d401742939950cedd2e889d543439349bcc51fa6a5decc0186',
                                             1,
                                             131072,
                                             0,
                                             '96ddbe72b5b66352e03be1cd28908eff4ab2ff4e602be99682facc30819f669f'))},
 'zlib_garbage': {False: ('ok',
                          '7f1d594d05353453a5e12ee63448146e47e5c54c55ebbe0a6793d49fef1066f2',
                          '1d229a350233862e08d3c14c9c99be9b8e36b2711cce8d73972f163d27c66f02'),
                  True: ('StoreCorruptionError',
                         'object c8f5d0341d54 is not valid zlib: Error -3 '
                         'while decompressing data: incorrect header check '
                         '[recording 0a67c833d1c5] [chunk c8f5d0341d54] '
                         '[dump #1 va 0x20000 offset 0]',
                         ('c8f5d0341d54d951a71b136e6e2afcb14d11ed8489a7ae126a8fee0df6ecf193',
                          1,
                          131072,
                          0,
                          '0a67c833d1c5db9baf3da4e8353deff7912268c4abf56a36f1e3fcd86d8dec2f'))}}


@pytest.mark.parametrize("damage", DAMAGE, ids=lambda d: d.__name__)
def test_fetch_says_what_the_parent_said(tmp_path, damage):
    assert observe(str(tmp_path), damage) == PARENT[damage.__name__]


def _digest_cases():
    for seed in range(40):
        yield synthetic_recording(seed)
    base = synthetic_recording(7)
    repeated = bytes(range(256)) * 40
    for dumps in ([],                                  # zero dumps
                  [MemoryDump(0x1000, b"")],           # an empty dump
                  [MemoryDump(0x1000, b""), MemoryDump(0x2000, b"x")],
                  [MemoryDump(0x1000 * (i + 1), repeated)
                   for i in range(3)]):                # repeated chunks
        yield Recording(base.meta, base.actions, dumps)


def test_streamed_digest_is_the_hash_of_the_body(tmp_path):
    """``Recording.digest()`` never builds the body it hashes; it must
    still be the SHA-256 of exactly the bytes ``to_bytes`` writes after
    the 10-byte header -- before the vault, and of what comes back."""
    vault = Vault(str(tmp_path / "vault"))
    for recording in _digest_cases():
        body = recording.to_bytes(compress=False)[10:]
        want = hashlib.sha256(body).hexdigest()
        assert recording.digest() == want
        assert vault.pack(recording).digest == want
        fetched = vault.fetch(want, verify=True)
        fetched._digest = None      # what fetch checked; hash it afresh
        assert fetched.digest() == want
        assert fetched.to_bytes(compress=False)[10:] == body


def test_fetch_interface_reads_the_skeleton_alone(tmp_path, monkeypatch):
    """The degrade rung's source: it reads the skeleton's record, not
    the span of every object, and answers with every chunk corrupt and
    the pack cut off right behind the skeleton."""
    import repro.store.vault as vault_module
    vault = Vault(str(tmp_path / "vault"))
    recording = damaged_recording()
    manifest = vault.pack(recording)
    path, offset, length = vault.object_location(manifest.skeleton_digest)
    pack_reads = []

    class CountingReads:
        def __init__(self, file, *args, **kwargs):
            self.handle = open(file, *args, **kwargs)
            self.counted = file == path

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def __getattr__(self, name):
            return getattr(self.handle, name)

        def read(self, size=-1):
            data = self.handle.read(size)
            if self.counted:
                pack_reads.append(len(data))
            return data
    monkeypatch.setattr(vault_module, "open", CountingReads, raising=False)
    interface = vault.fetch_interface(manifest.digest)
    assert pack_reads == [length]
    assert interface.meta.inputs == recording.meta.inputs
    assert [(d.va, d.size) for d in interface.dumps] == \
        [(d.va, d.size) for d in recording.dumps]
    for digest in set(manifest.chunk_refs()):
        flip_object_byte(vault, digest)
    os.truncate(path, offset + length)   # the skeleton is packed first
    assert len(vault.verify()) == 1
    again = Vault.open(vault.root).fetch_interface(manifest.digest)
    assert again.actions == interface.actions


if __name__ == "__main__":
    import pprint
    import tempfile
    table = {}
    for case in DAMAGE:
        with tempfile.TemporaryDirectory() as scratch:
            table[case.__name__] = observe(scratch, case)
    pprint.pprint(table, width=78)
