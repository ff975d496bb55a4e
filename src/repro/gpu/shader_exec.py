"""Numpy execution semantics of the shader ISA.

Split in two layers:

- :func:`compute_op` -- pure op semantics on numpy arrays. Shared with
  the CPU reference executor (:mod:`repro.stack.reference`), so GPU
  results and CPU reference results are bit-comparable, which is what
  makes the Section 7.2 replay-output validation meaningful.
- :func:`execute_program` -- "what the shader cores do": loads operands
  through the GPU MMU, computes, stores back through the MMU. Every
  access uses the proper access type, so permission bugs (LPAE bit
  mismatches, corrupted PTEs, unmapped scratch) surface as genuine GPU
  page faults.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import MegaBatchDivergence, ShaderDecodeError
from repro.gpu.isa import Instruction, Op, Program, TensorRef
from repro.gpu.mmu import GpuMmu


def output_arity(op: Op) -> int:
    """How many trailing operands of an instruction are outputs."""
    return 2 if op == Op.SOFTMAX_XENT_GRAD else 1


# --------------------------------------------------------------------------
# Pure op semantics.
# --------------------------------------------------------------------------


def _conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray,
            stride: int, pad: int) -> np.ndarray:
    ic, h, wd = x.shape
    oc, _, kh, kw = w.shape
    del ic
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((oc, oh, ow), dtype=np.float32)
    for i in range(kh):
        for j in range(kw):
            patch = xp[:, i:i + stride * oh:stride, j:j + stride * ow:stride]
            out += np.einsum("oi,ihw->ohw", w[:, :, i, j], patch,
                             dtype=np.float32)
    return out + b[:, None, None]


def _dwconv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray,
              stride: int, pad: int) -> np.ndarray:
    c, h, wd = x.shape
    del c
    _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((x.shape[0], oh, ow), dtype=np.float32)
    for i in range(kh):
        for j in range(kw):
            patch = xp[:, i:i + stride * oh:stride, j:j + stride * ow:stride]
            out += w[:, i, j][:, None, None] * patch
    return out + b[:, None, None]


def _pool(x: np.ndarray, k: int, stride: int, mode: str) -> np.ndarray:
    c, h, w = x.shape
    oh = (h - k) // stride + 1
    ow = (w - k) // stride + 1
    if mode == "max":
        out = np.full((c, oh, ow), -np.inf, dtype=np.float32)
    else:
        out = np.zeros((c, oh, ow), dtype=np.float32)
    for i in range(k):
        for j in range(k):
            patch = x[:, i:i + stride * oh:stride, j:j + stride * ow:stride]
            if mode == "max":
                np.maximum(out, patch, out=out)
            else:
                out += patch
    if mode == "avg":
        out /= np.float32(k * k)
    return out


def _lrn(x: np.ndarray, n: int, alpha: float, beta: float,
         k: float) -> np.ndarray:
    c = x.shape[0]
    sq = x * x
    denom = np.empty_like(x)
    half = n // 2
    for ch in range(c):
        lo, hi = max(0, ch - half), min(c, ch + half + 1)
        denom[ch] = sq[lo:hi].sum(axis=0)
    return x / np.power(k + (alpha / n) * denom, beta)


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _channelwise(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Broadcast a per-channel vector over channel-first 3D (or last axis)."""
    if x.ndim == 3:
        return v[:, None, None]
    return v


def compute_op(op: Op, inputs: Sequence[np.ndarray],
               params: Tuple[float, ...]) -> List[np.ndarray]:
    """Pure semantics of one opcode; returns the output array list."""
    p = params
    if op == Op.FILL:
        raise ShaderDecodeError("FILL needs an output shape; use "
                                "compute_fill")
    if op in (Op.COPY, Op.FLATTEN):
        return [inputs[0]]
    if op == Op.ADD:
        return [inputs[0] + inputs[1]]
    if op == Op.SUB:
        return [inputs[0] - inputs[1]]
    if op == Op.MUL:
        return [inputs[0] * inputs[1]]
    if op == Op.SCALE:
        return [inputs[0] * np.float32(p[0])]
    if op == Op.SELECT:
        return [np.where(inputs[0] > 0, inputs[1], inputs[2])]
    if op == Op.MATMUL:
        return [inputs[0] @ inputs[1]]
    if op == Op.DENSE:
        return [inputs[0] @ inputs[1] + inputs[2]]
    if op == Op.CONV2D:
        return [_conv2d(inputs[0], inputs[1], inputs[2],
                        int(p[0]), int(p[1]))]
    if op == Op.DWCONV2D:
        return [_dwconv2d(inputs[0], inputs[1], inputs[2],
                          int(p[0]), int(p[1]))]
    if op == Op.RELU:
        return [np.maximum(inputs[0], 0)]
    if op == Op.RELU6:
        return [np.clip(inputs[0], 0, 6)]
    if op == Op.LEAKY_RELU:
        slope = np.float32(p[0] if p else 0.1)
        return [np.where(inputs[0] > 0, inputs[0], inputs[0] * slope)]
    if op == Op.SIGMOID:
        return [(1.0 / (1.0 + np.exp(-inputs[0]))).astype(np.float32)]
    if op == Op.TANH:
        return [np.tanh(inputs[0])]
    if op == Op.SOFTMAX:
        return [_softmax(inputs[0])]
    if op == Op.LRN:
        return [_lrn(inputs[0], int(p[0]), p[1], p[2], p[3])]
    if op == Op.BIASADD:
        return [inputs[0] + _channelwise(inputs[0], inputs[1])]
    if op == Op.BATCHNORM:
        scale = _channelwise(inputs[0], inputs[1])
        bias = _channelwise(inputs[0], inputs[2])
        return [inputs[0] * scale + bias]
    if op == Op.MAXPOOL:
        return [_pool(inputs[0], int(p[0]), int(p[1]), "max")]
    if op == Op.AVGPOOL:
        return [_pool(inputs[0], int(p[0]), int(p[1]), "avg")]
    if op == Op.GLOBALAVGPOOL:
        return [inputs[0].mean(axis=(1, 2), dtype=np.float32)]
    if op == Op.PAD:
        pad = int(p[0])
        return [np.pad(inputs[0], ((0, 0), (pad, pad), (pad, pad)))]
    if op == Op.CONCAT:
        return [np.concatenate(list(inputs), axis=0)]
    if op == Op.UPSAMPLE2X:
        return [inputs[0].repeat(2, axis=1).repeat(2, axis=2)]
    if op == Op.SOFTMAX_XENT_GRAD:
        logits, onehot = inputs[0], inputs[1]
        probs = _softmax(logits)
        batch = logits.shape[0] if logits.ndim > 1 else 1
        dlogits = ((probs - onehot) / batch).astype(np.float32)
        loss = -(onehot * np.log(probs + 1e-12)).sum() / batch
        return [dlogits, np.array([loss], dtype=np.float32)]
    if op == Op.DENSE_GRAD_W:
        return [inputs[0].T @ inputs[1]]
    if op == Op.DENSE_GRAD_X:
        return [inputs[0] @ inputs[1].T]
    if op == Op.DENSE_GRAD_B:
        return [inputs[0].sum(axis=0)]
    if op == Op.RELU_GRAD:
        return [inputs[1] * (inputs[0] > 0)]
    if op == Op.SGD_UPDATE:
        return [inputs[0] - np.float32(p[0]) * inputs[1]]
    raise ShaderDecodeError(f"unimplemented opcode {op!r}")


def compute_fill(shape: Tuple[int, ...],
                 params: Tuple[float, ...]) -> np.ndarray:
    return np.full(shape, params[0] if params else 0.0, dtype=np.float32)


# --------------------------------------------------------------------------
# MMU-backed execution (the shader cores).
# --------------------------------------------------------------------------


def _load(mmu: GpuMmu, ref: TensorRef) -> np.ndarray:
    raw = mmu.gather_va(ref.va, ref.nbytes, access="r")
    return np.frombuffer(raw, dtype=np.float32).reshape(ref.shape)


def _store(mmu: GpuMmu, ref: TensorRef, value: np.ndarray) -> None:
    value = np.ascontiguousarray(value, dtype=np.float32)
    if value.size != ref.elements:
        raise ShaderDecodeError(
            f"{value.size} elements computed for output of {ref.elements}")
    mmu.write_va(ref.va, value.tobytes())


def execute_instruction(instr: Instruction, mmu: GpuMmu) -> None:
    """Execute one shader instruction against GPU memory."""
    n_out = output_arity(instr.op)
    in_refs = instr.operands[:-n_out]
    out_refs = instr.operands[-n_out:]
    if instr.op == Op.FILL:
        results = [compute_fill(out_refs[0].shape, instr.params)]
    else:
        inputs = [_load(mmu, ref) for ref in in_refs]
        results = compute_op(instr.op, inputs, instr.params)
    if len(results) != len(out_refs):
        raise ShaderDecodeError(
            f"{instr.op.name}: {len(results)} results for "
            f"{len(out_refs)} output operands")
    for ref, value in zip(out_refs, results):
        _store(mmu, ref, value)


def execute_program(program: Program, mmu: GpuMmu) -> int:
    """Run a whole program; returns the number of instructions executed."""
    for instr in program.instructions:
        execute_instruction(instr, mmu)
    return len(program.instructions)


# --------------------------------------------------------------------------
# Mega-batch execution: N identical job chains as one pass.
# --------------------------------------------------------------------------
#
# The batch dimension never lives in GPU memory. Member 0 of the batch
# executes exactly like an unbatched replay (loads and stores go through
# the MMU, so the post-replay machine state equals a solo replay of the
# head request), while members 1..N-1 live only in a :class:`BatchEnv`
# overlay keyed by exact VA. An instruction whose inputs are all
# batch-independent runs unbatched once — its result is identical for
# every member by construction. Anything that only *partially* overlaps
# a batched tensor raises :class:`MegaBatchDivergence`, and the caller
# falls back to per-request replay.

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


def execute_program_batched(program: Program, mmu: GpuMmu,
                            env: BatchEnv) -> int:
    """Run a whole program for every batch member; returns instruction
    count (chain length, not multiplied by the batch size)."""
    for instr in program.instructions:
        execute_instruction_batched(instr, mmu, env)
    return len(program.instructions)
