"""Mega-batch execution: N identical job chains as one pass.

The batch dimension never lives in GPU memory. Member 0 of the batch
executes exactly like an unbatched replay (loads and stores go through
the MMU, so the post-replay machine state equals a solo replay of the
head request), while members 1..N-1 live only in a :class:`BatchEnv`
overlay keyed by exact VA. An instruction whose inputs are all
batch-independent runs unbatched once -- its result is identical for
every member by construction. Anything that only *partially* overlaps
a batched tensor raises :class:`MegaBatchDivergence`, and the caller
falls back to per-request replay.

Nothing in ``repro.gpu`` imports this module: the device runs a
retiring job's programs through whatever overlay is armed on it
(:meth:`BatchEnv.run`), and only :mod:`repro.core.mega` arms one.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import MegaBatchDivergence, ShaderDecodeError
from repro.gpu.isa import Instruction, Op, Program, TensorRef
from repro.gpu.mmu import GpuMmu
from repro.gpu.shader_exec import (_load, _store, compute_op,
                                   execute_instruction, output_arity)

# Ops whose semantics are elementwise over operands of one logical
# shape: stacking members along a leading axis and evaluating once is
# bitwise identical per slice (no reductions, no axis-sensitive
# broadcast). Everything else is evaluated per member via
# :func:`compute_op` and stacked, which is trivially bitwise identical.
_ELEMENTWISE_OPS = frozenset({
    Op.COPY, Op.ADD, Op.SUB, Op.MUL, Op.SCALE, Op.RELU, Op.RELU6,
    Op.LEAKY_RELU, Op.SIGMOID, Op.TANH, Op.SELECT, Op.RELU_GRAD,
    Op.SGD_UPDATE,
})


class BatchEnv:
    """Per-member tensor overlay for a fused mega-batch replay.

    Maps VA -> a ``(n, elements)`` float32 array holding every member's
    value for the tensor that an unbatched replay would keep at that
    VA. Entries are keyed by *exact* (va, nbytes); any partial overlap
    is a divergence, because byte-level aliasing cannot be represented
    along the batch axis.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ShaderDecodeError(f"batch of {n} members")
        self.n = n
        self._values: dict = {}   # va -> (n, elements) float32, C-contiguous
        self._sizes: dict = {}    # va -> nbytes

    def __len__(self) -> int:
        return len(self._values)

    def seed(self, va: int, stacked: np.ndarray) -> None:
        """Install a batched tensor (shape ``(n, ...)``) at ``va``."""
        flat = np.ascontiguousarray(stacked, dtype=np.float32)
        flat = flat.reshape(self.n, -1)
        self._check_overlap(va, flat.shape[1] * 4)
        self._values[va] = flat
        self._sizes[va] = flat.shape[1] * 4

    def overlap(self, va: int, nbytes: int) -> str:
        """Classify [va, va+nbytes) against the overlay: exact/none/partial."""
        size = self._sizes.get(va)
        if size == nbytes:
            return "exact"
        for other_va, other_size in self._sizes.items():
            if va < other_va + other_size and other_va < va + nbytes:
                return "partial"
        return "none"

    def _check_overlap(self, va: int, nbytes: int) -> None:
        if self.overlap(va, nbytes) == "partial":
            raise MegaBatchDivergence(
                f"range {va:#x}+{nbytes} partially overlaps a batched "
                f"tensor")

    def get(self, ref: TensorRef) -> np.ndarray:
        """The batched value for ``ref``, shaped ``(n, *ref.shape)``."""
        return self._values[ref.va].reshape((self.n,) + tuple(ref.shape))

    def put(self, ref: TensorRef, stacked: np.ndarray) -> None:
        self._check_overlap(ref.va, ref.nbytes)
        flat = np.ascontiguousarray(stacked, dtype=np.float32)
        flat = flat.reshape(self.n, -1)
        if flat.shape[1] != ref.elements:
            raise ShaderDecodeError(
                f"{flat.shape[1]} elements computed for output of "
                f"{ref.elements}")
        self._values[ref.va] = flat
        self._sizes[ref.va] = ref.nbytes

    def forget(self, va: int, nbytes: int) -> None:
        """Drop an entry an unbatched write just made batch-independent."""
        self._check_overlap(va, nbytes)
        self._values.pop(va, None)
        self._sizes.pop(va, None)

    def fetch(self, va: int, nbytes: int):
        """The raw ``(n, elements)`` array at (va, nbytes), or None."""
        kind = self.overlap(va, nbytes)
        if kind == "partial":
            raise MegaBatchDivergence(
                f"range {va:#x}+{nbytes} partially overlaps a batched "
                f"tensor")
        return self._values.get(va) if kind == "exact" else None

    def run(self, program: Program, mmu: GpuMmu) -> int:
        """Run a whole program for every batch member; returns the
        instruction count (chain length, not multiplied by the batch
        size). What the device calls on the overlay armed on it."""
        for instr in program.instructions:
            execute_instruction_batched(instr, mmu, self)
        return len(program.instructions)


def compute_op_batched(op: Op, inputs: Sequence[np.ndarray],
                       batched: Sequence[bool], params: Tuple[float, ...],
                       n: int) -> List[np.ndarray]:
    """Semantics of one opcode over a batch of ``n`` member inputs.

    ``inputs[i]`` is ``(n, ...)``-stacked when ``batched[i]``, otherwise
    the shared unbatched array. Returns ``(n, ...)``-stacked outputs
    whose per-member slices are bitwise identical to ``n`` separate
    :func:`compute_op` calls.
    """
    if op in _ELEMENTWISE_OPS and all(batched):
        # Equal-shape elementwise math broadcasts over the leading batch
        # axis without changing any per-element computation.
        return [r for r in compute_op(op, inputs, params)]
    outs: List[List[np.ndarray]] = []
    for k in range(n):
        member = [x[k] if b else x for x, b in zip(inputs, batched)]
        outs.append(compute_op(op, member, params))
    return [np.stack([m[j] for m in outs])
            for j in range(len(outs[0]))]


def execute_instruction_batched(instr: Instruction, mmu: GpuMmu,
                                env: BatchEnv) -> None:
    """Execute one instruction for every batch member at once.

    Member 0 is stored through the MMU (keeping machine state equal to
    a solo head replay); members 1..n-1 land in ``env``.
    """
    n_out = output_arity(instr.op)
    in_refs = instr.operands[:-n_out]
    out_refs = instr.operands[-n_out:]
    batched = [env.overlap(ref.va, ref.nbytes) == "exact" for ref in in_refs]
    for ref in in_refs:
        if env.overlap(ref.va, ref.nbytes) == "partial":
            raise MegaBatchDivergence(
                f"{instr.op.name} input at {ref.va:#x} partially overlaps "
                f"a batched tensor")
    if instr.op == Op.FILL or not any(batched):
        # Batch-independent: one unbatched execution is correct for all
        # members. Its outputs supersede any stale batched value.
        for ref in out_refs:
            env.forget(ref.va, ref.nbytes)
        execute_instruction(instr, mmu)
        return
    inputs = [env.get(ref) if hit else _load(mmu, ref)
              for ref, hit in zip(in_refs, batched)]
    results = compute_op_batched(instr.op, inputs, batched, instr.params,
                                 env.n)
    if len(results) != len(out_refs):
        raise ShaderDecodeError(
            f"{instr.op.name}: {len(results)} results for "
            f"{len(out_refs)} output operands")
    for ref, value in zip(out_refs, results):
        env.put(ref, value)
        _store(mmu, ref, value[0])
