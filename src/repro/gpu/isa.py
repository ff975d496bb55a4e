"""The GPU shader bytecode ISA.

Shader binaries are what the proprietary GPU runtime emits and what the
GPU executes. They are deliberately *opaque to GPUReplay*: a serialized
program is a byte blob whose operands embed absolute GPU virtual
addresses, so it is position-dependent and cannot be relocated or
interpreted without this module -- which only the runtime (JIT
compiler) and the GPU device model import. The recorder and the
replayer never decode shader bytes; they treat them as memory contents,
exactly as the paper requires.

A program is a sequence of instructions. Each instruction names an
opcode, tensor operands (GPU VA + shape) and scalar parameters. The
last operand of every instruction is its output tensor.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Tuple

from repro.errors import ShaderDecodeError

PROGRAM_MAGIC = 0x47525348  # "GRSH"
INSTR_MAGIC = 0x53484401

MAX_DIMS = 5


class Op(enum.IntEnum):
    """Shader opcodes.

    Covers the inference and training workloads of the paper's Table 6
    plus the math kernels (vecadd). SELECT provides data-dependent
    branching *inside* a job binary, which Section 3.1 explicitly
    permits (all branches ship inside the dumped binary).
    """

    # Element-wise / vector math.
    COPY = 1
    FILL = 2
    ADD = 3
    SUB = 4
    MUL = 5
    SCALE = 6
    SELECT = 7  # out = where(cond > 0, a, b)

    # Dense linear algebra.
    MATMUL = 10
    DENSE = 11  # x @ W + bias

    # Convolutions.
    CONV2D = 20
    DWCONV2D = 21

    # Activations / normalization.
    RELU = 30
    RELU6 = 31
    LEAKY_RELU = 32
    SIGMOID = 33
    TANH = 34
    SOFTMAX = 35
    LRN = 36
    BIASADD = 37
    BATCHNORM = 38

    # Spatial ops.
    MAXPOOL = 40
    AVGPOOL = 41
    GLOBALAVGPOOL = 42
    PAD = 43
    CONCAT = 44
    UPSAMPLE2X = 45
    FLATTEN = 46

    # Training.
    SOFTMAX_XENT_GRAD = 60  # (logits, onehot) -> (dlogits, loss)
    DENSE_GRAD_W = 61  # (x, dy) -> dW
    DENSE_GRAD_X = 62  # (dy, W) -> dx
    DENSE_GRAD_B = 63  # dy -> db
    RELU_GRAD = 64  # (x, dy) -> dx
    SGD_UPDATE = 65  # (w, g) -> w  (params: lr)


@dataclass(frozen=True)
class TensorRef:
    """A tensor operand: GPU virtual address + logical shape (float32)."""

    va: int
    shape: Tuple[int, ...]

    # Derived from frozen fields, so computed once per operand.
    @cached_property
    def elements(self) -> int:
        n = 1
        for d in self.shape:
            n *= d
        return n

    @cached_property
    def nbytes(self) -> int:
        return self.elements * 4

    def end_va(self) -> int:
        return self.va + self.nbytes


@dataclass(frozen=True)
class Instruction:
    """One shader instruction. The final operand is the output tensor."""

    op: Op
    operands: Tuple[TensorRef, ...]
    params: Tuple[float, ...] = ()

    @property
    def inputs(self) -> Tuple[TensorRef, ...]:
        return self.operands[:-1]

    @property
    def output(self) -> TensorRef:
        return self.operands[-1]


@dataclass
class Program:
    """A decoded shader program."""

    instructions: List[Instruction] = field(default_factory=list)
    #: :func:`kernel_cost` of the instructions, filled in only by an
    #: owner that never edits them afterwards (the GPU's kernel cache).
    cost: Optional[Tuple[float, int, str]] = field(
        default=None, init=False, compare=False, repr=False)

    def referenced_ranges(self) -> List[Tuple[int, int]]:
        """All (va, size) ranges any instruction touches."""
        return [(ref.va, ref.nbytes)
                for instr in self.instructions
                for ref in instr.operands]


# --------------------------------------------------------------------------
# Serialization. Little-endian throughout, mirroring the SoC.
# --------------------------------------------------------------------------

_HEADER = struct.Struct("<II")  # magic, n_instructions
_INSTR_HEAD = struct.Struct("<IHHH")  # magic, opcode, n_operands, n_params
_OPERAND_HEAD = struct.Struct("<QB")  # va, ndim
_DIM = struct.Struct("<I")
_PARAM = struct.Struct("<d")


def encode_program(program: Program) -> bytes:
    """Serialize a program to its binary shader form."""
    chunks = [_HEADER.pack(PROGRAM_MAGIC, len(program.instructions))]
    for instr in program.instructions:
        if not instr.operands:
            raise ShaderDecodeError("instruction needs at least one operand")
        chunks.append(_INSTR_HEAD.pack(
            INSTR_MAGIC, int(instr.op), len(instr.operands),
            len(instr.params)))
        for ref in instr.operands:
            if len(ref.shape) > MAX_DIMS:
                raise ShaderDecodeError(
                    f"tensor rank {len(ref.shape)} exceeds {MAX_DIMS}")
            chunks.append(_OPERAND_HEAD.pack(ref.va, len(ref.shape)))
            for dim in ref.shape:
                chunks.append(_DIM.pack(dim))
        for param in instr.params:
            chunks.append(_PARAM.pack(param))
    return b"".join(chunks)


def decode_program(blob: bytes) -> Program:
    """Parse a binary shader back into a :class:`Program`."""
    if len(blob) < _HEADER.size:
        raise ShaderDecodeError("shader blob too short for header")
    magic, count = _HEADER.unpack_from(blob, 0)
    if magic != PROGRAM_MAGIC:
        raise ShaderDecodeError(f"bad program magic {magic:#x}")
    offset = _HEADER.size
    instructions: List[Instruction] = []
    for _ in range(count):
        if offset + _INSTR_HEAD.size > len(blob):
            raise ShaderDecodeError("truncated instruction header")
        imagic, opcode, n_ops, n_params = _INSTR_HEAD.unpack_from(blob, offset)
        offset += _INSTR_HEAD.size
        if imagic != INSTR_MAGIC:
            raise ShaderDecodeError(f"bad instruction magic {imagic:#x}")
        try:
            op = Op(opcode)
        except ValueError:
            raise ShaderDecodeError(f"unknown opcode {opcode}")
        operands: List[TensorRef] = []
        for _ in range(n_ops):
            if offset + _OPERAND_HEAD.size > len(blob):
                raise ShaderDecodeError("truncated operand header")
            va, ndim = _OPERAND_HEAD.unpack_from(blob, offset)
            offset += _OPERAND_HEAD.size
            if ndim > MAX_DIMS:
                raise ShaderDecodeError(f"operand rank {ndim} too large")
            dims = []
            for _ in range(ndim):
                if offset + _DIM.size > len(blob):
                    raise ShaderDecodeError("truncated operand dims")
                dims.append(_DIM.unpack_from(blob, offset)[0])
                offset += _DIM.size
            operands.append(TensorRef(va, tuple(dims)))
        params = []
        for _ in range(n_params):
            if offset + _PARAM.size > len(blob):
                raise ShaderDecodeError("truncated parameters")
            params.append(_PARAM.unpack_from(blob, offset)[0])
            offset += _PARAM.size
        instructions.append(Instruction(op, tuple(operands), tuple(params)))
    return Program(instructions)


def program_size(program: Program) -> int:
    """Size in bytes of the encoded program without encoding it."""
    size = _HEADER.size
    for instr in program.instructions:
        size += _INSTR_HEAD.size
        for ref in instr.operands:
            size += _OPERAND_HEAD.size + _DIM.size * len(ref.shape)
        size += _PARAM.size * len(instr.params)
    return size


def flops_estimate(instr: Instruction) -> float:
    """Rough floating-point-operation count for the cost model."""
    out = instr.output
    if instr.op in (Op.MATMUL, Op.DENSE):
        k = instr.operands[0].shape[-1]
        return 2.0 * out.elements * k
    if instr.op == Op.CONV2D:
        w = instr.operands[1]
        # out: (oc, oh, ow); w: (oc, ic, kh, kw)
        _, ic, kh, kw = w.shape
        return 2.0 * out.elements * ic * kh * kw
    if instr.op == Op.DWCONV2D:
        w = instr.operands[1]
        kh, kw = w.shape[-2], w.shape[-1]
        return 2.0 * out.elements * kh * kw
    if instr.op in (Op.MAXPOOL, Op.AVGPOOL):
        k = instr.params[0] if instr.params else 2
        return out.elements * k * k
    if instr.op == Op.LRN:
        return out.elements * 10.0
    if instr.op == Op.SOFTMAX:
        return out.elements * 5.0
    if instr.op == Op.DENSE_GRAD_W:
        return 2.0 * instr.operands[0].elements * out.shape[-1]
    if instr.op == Op.DENSE_GRAD_X:
        return 2.0 * out.elements * instr.operands[0].shape[-1]
    # Element-wise default.
    return float(out.elements)


def bytes_touched(instr: Instruction) -> int:
    """Total memory traffic of one instruction (for bandwidth costing)."""
    return sum(ref.nbytes for ref in instr.operands)


def kernel_cost(program: Program) -> Tuple[float, int, str]:
    """``(FLOPs, bytes touched, label)`` of a whole program.

    The one walk over a kernel's instructions that the cost model, the
    counter tape and the profiler's frame names all read, each summed
    in instruction order. The label is the dominant op (most modeled
    FLOPs, earliest on a tie) plus the count of other instructions:
    ``conv2d+5``, ``relu``, ``empty``.
    """
    if program.cost is not None:
        return program.cost
    flops = 0.0
    traffic = 0
    best = None
    best_flops = -1.0
    for instr in program.instructions:
        estimate = flops_estimate(instr)
        flops += estimate
        traffic += bytes_touched(instr)
        if estimate > best_flops:
            best_flops = estimate
            best = instr
    if best is None:
        return flops, traffic, "empty"
    name = best.op.name.lower()
    rest = len(program.instructions) - 1
    return flops, traffic, f"{name}+{rest}" if rest else name
