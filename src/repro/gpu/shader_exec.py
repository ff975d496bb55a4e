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

Width 1 only: a fused mega-batch replay's overlay and its evaluation
are :mod:`repro.gpu.shader_batch`, which a default replay never loads.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ShaderDecodeError
from repro.gpu.isa import Instruction, Op, Program, TensorRef
from repro.gpu.mmu import GpuMmu


def output_arity(op: Op) -> int:
    """How many trailing operands of an instruction are outputs."""
    return 2 if op == Op.SOFTMAX_XENT_GRAD else 1


# --------------------------------------------------------------------------
# Pure op semantics.
# --------------------------------------------------------------------------


def pad_hw(x: np.ndarray, pad: int) -> np.ndarray:
    """``np.pad(x, ((0, 0), (pad, pad), (pad, pad)))``, same dtype and
    bytes, as one zero-filled copy (``np.pad`` costs more in argument
    handling than in copying at these sizes)."""
    c, h, w = x.shape
    out = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    out[:, pad:pad + h, pad:pad + w] = x
    return out


def _conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray,
            stride: int, pad: int) -> np.ndarray:
    ic, h, wd = x.shape
    oc, _, kh, kw = w.shape
    del ic
    xp = pad_hw(x, pad)
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
    xp = pad_hw(x, pad)
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
        return [pad_hw(inputs[0], int(p[0]))]
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
