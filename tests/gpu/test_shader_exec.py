"""Shader op semantics and MMU-backed execution."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.errors import ShaderDecodeError
from repro.gpu import PERM_R, PERM_W, PERM_X, PTE_FORMATS, PageTableBuilder
from repro.gpu.isa import Instruction, Op, Program, TensorRef
from repro.gpu.mmu import GpuMmu
from repro.gpu.shader_exec import (compute_fill, compute_op,
                                   execute_program, output_arity, pad_hw)
from repro.soc.memory import PAGE_SIZE, PageAllocator, PhysicalMemory
from repro.units import MIB


def f32(*shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape).astype(
        np.float32)


class TestElementwiseOps:
    def test_add_sub_mul(self):
        a, b = f32(8, seed=1), f32(8, seed=2)
        assert np.array_equal(compute_op(Op.ADD, [a, b], ())[0], a + b)
        assert np.array_equal(compute_op(Op.SUB, [a, b], ())[0], a - b)
        assert np.array_equal(compute_op(Op.MUL, [a, b], ())[0], a * b)

    def test_scale(self):
        a = f32(8)
        out = compute_op(Op.SCALE, [a], (3.0,))[0]
        assert np.array_equal(out, a * np.float32(3.0))

    def test_select_branches_inside_a_job(self):
        cond = np.array([1.0, -1.0, 0.0, 2.0], np.float32)
        a = np.full(4, 10.0, np.float32)
        b = np.full(4, 20.0, np.float32)
        out = compute_op(Op.SELECT, [cond, a, b], ())[0]
        assert out.tolist() == [10.0, 20.0, 20.0, 10.0]

    def test_copy_and_flatten(self):
        a = f32(2, 3)
        assert np.array_equal(compute_op(Op.COPY, [a], ())[0], a)
        assert np.array_equal(compute_op(Op.FLATTEN, [a], ())[0], a)

    def test_fill(self):
        assert np.array_equal(compute_fill((3,), (7.0,)),
                              np.full(3, 7.0, np.float32))


class TestLinearOps:
    def test_matmul(self):
        a, b = f32(3, 4, seed=1), f32(4, 5, seed=2)
        assert np.array_equal(compute_op(Op.MATMUL, [a, b], ())[0], a @ b)

    def test_dense(self):
        x, w, bias = f32(1, 4), f32(4, 6, seed=1), f32(6, seed=2)
        assert np.array_equal(compute_op(Op.DENSE, [x, w, bias], ())[0],
                              x @ w + bias)


class TestConvAndPool:
    def test_conv2d_against_naive_loops(self):
        x = f32(2, 6, 6, seed=1)
        w = f32(3, 2, 3, 3, seed=2)
        b = f32(3, seed=3)
        out = compute_op(Op.CONV2D, [x, w, b], (1.0, 1.0))[0]
        assert out.shape == (3, 6, 6)
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
        naive = np.zeros((3, 6, 6), np.float32)
        for oc in range(3):
            for i in range(6):
                for j in range(6):
                    naive[oc, i, j] = np.float32(
                        (xp[:, i:i + 3, j:j + 3] * w[oc]).sum() + b[oc])
        assert np.allclose(out, naive, atol=1e-4)

    def test_conv2d_stride(self):
        x = f32(1, 8, 8)
        w = f32(2, 1, 3, 3, seed=1)
        b = np.zeros(2, np.float32)
        out = compute_op(Op.CONV2D, [x, w, b], (2.0, 1.0))[0]
        assert out.shape == (2, 4, 4)

    def test_dwconv2d(self):
        x = f32(3, 6, 6, seed=1)
        w = f32(3, 3, 3, seed=2)
        b = np.zeros(3, np.float32)
        out = compute_op(Op.DWCONV2D, [x, w, b], (1.0, 1.0))[0]
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
        naive = np.zeros_like(out)
        for c in range(3):
            for i in range(6):
                for j in range(6):
                    naive[c, i, j] = (xp[c, i:i + 3, j:j + 3] * w[c]).sum()
        assert np.allclose(out, naive, atol=1e-4)

    def test_maxpool(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        out = compute_op(Op.MAXPOOL, [x], (2.0, 2.0))[0]
        assert out.reshape(-1).tolist() == [5, 7, 13, 15]

    def test_avgpool(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        out = compute_op(Op.AVGPOOL, [x], (2.0, 2.0))[0]
        assert out.reshape(-1).tolist() == [2.5, 4.5, 10.5, 12.5]

    def test_globalavgpool(self):
        x = f32(3, 4, 4, seed=4)
        out = compute_op(Op.GLOBALAVGPOOL, [x], ())[0]
        assert np.allclose(out, x.mean(axis=(1, 2)))

    def test_pad_upsample_concat(self):
        x = f32(2, 3, 3)
        padded = compute_op(Op.PAD, [x], (1.0,))[0]
        assert padded.shape == (2, 5, 5)
        up = compute_op(Op.UPSAMPLE2X, [x], ())[0]
        assert up.shape == (2, 6, 6)
        assert up[0, 0, 0] == up[0, 1, 1] == x[0, 0, 0]
        cat = compute_op(Op.CONCAT, [x, x], ())[0]
        assert cat.shape == (4, 3, 3)


class TestActivations:
    def test_relu_family(self):
        x = np.array([-2.0, -0.5, 0.0, 3.0, 10.0], np.float32)
        assert compute_op(Op.RELU, [x], ())[0].tolist() == \
            [0, 0, 0, 3, 10]
        assert compute_op(Op.RELU6, [x], ())[0].tolist() == \
            [0, 0, 0, 3, 6]
        leaky = compute_op(Op.LEAKY_RELU, [x], (0.1,))[0]
        assert np.allclose(leaky, [-0.2, -0.05, 0, 3, 10])

    def test_sigmoid_tanh(self):
        x = f32(10, seed=5)
        assert np.allclose(compute_op(Op.SIGMOID, [x], ())[0],
                           1 / (1 + np.exp(-x)))
        assert np.allclose(compute_op(Op.TANH, [x], ())[0], np.tanh(x))

    def test_softmax_rows_sum_to_one(self):
        x = f32(1, 10, seed=6) * 5
        out = compute_op(Op.SOFTMAX, [x], ())[0]
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-6)
        assert out.argmax() == x.argmax()

    def test_lrn_shape_and_effect(self):
        x = np.abs(f32(5, 4, 4, seed=7)) + 1
        out = compute_op(Op.LRN, [x], (5.0, 1e-4, 0.75, 2.0))[0]
        assert out.shape == x.shape
        assert (out < x).all()  # normalization shrinks positive values

    def test_biasadd_batchnorm_channelwise(self):
        x = f32(3, 2, 2, seed=8)
        b = f32(3, seed=9)
        out = compute_op(Op.BIASADD, [x, b], ())[0]
        assert np.allclose(out, x + b[:, None, None])
        scale = f32(3, seed=10)
        bn = compute_op(Op.BATCHNORM, [x, scale, b], ())[0]
        assert np.allclose(bn, x * scale[:, None, None] + b[:, None, None])


class TestTrainingOps:
    def test_softmax_xent_grad_numerical(self):
        logits = f32(4, 5, seed=11)
        onehot = np.zeros((4, 5), np.float32)
        onehot[np.arange(4), [0, 2, 4, 1]] = 1.0
        dlogits, loss = compute_op(Op.SOFTMAX_XENT_GRAD,
                                   [logits, onehot], ())
        # Numerical gradient check on one element.
        eps = 1e-3

        def loss_at(lg):
            p = compute_op(Op.SOFTMAX, [lg], ())[0]
            return float(-(onehot * np.log(p + 1e-12)).sum() / 4)

        bumped = logits.copy()
        bumped[1, 2] += eps
        numeric = (loss_at(bumped) - loss_at(logits)) / eps
        assert abs(numeric - dlogits[1, 2]) < 1e-2
        assert loss.shape == (1,)

    def test_dense_grads(self):
        x, dy, w = f32(4, 3, seed=1), f32(4, 5, seed=2), f32(3, 5, seed=3)
        assert np.allclose(compute_op(Op.DENSE_GRAD_W, [x, dy], ())[0],
                           x.T @ dy)
        assert np.allclose(compute_op(Op.DENSE_GRAD_X, [dy, w], ())[0],
                           dy @ w.T)
        assert np.allclose(compute_op(Op.DENSE_GRAD_B, [dy], ())[0],
                           dy.sum(axis=0))

    def test_relu_grad(self):
        x = np.array([-1.0, 2.0], np.float32)
        dy = np.array([5.0, 7.0], np.float32)
        assert compute_op(Op.RELU_GRAD, [x, dy], ())[0].tolist() == [0, 7]

    def test_sgd_update(self):
        w = np.ones(3, np.float32)
        g = np.full(3, 2.0, np.float32)
        out = compute_op(Op.SGD_UPDATE, [w, g], (0.5,))[0]
        assert out.tolist() == [0, 0, 0]

    def test_output_arity(self):
        assert output_arity(Op.SOFTMAX_XENT_GRAD) == 2
        assert output_arity(Op.ADD) == 1


class TestMmuBackedExecution:
    def make_env(self):
        memory = PhysicalMemory(16 * MIB)
        allocator = PageAllocator(memory, 0, 4096, seed=5)
        fmt = PTE_FORMATS["mali"]
        pt = PageTableBuilder(memory, allocator, fmt)
        mmu = GpuMmu(memory, fmt)
        mmu.set_base(pt.root_pa)
        return memory, allocator, pt, mmu

    def test_execute_program_reads_writes_via_mmu(self):
        _memory, allocator, pt, mmu = self.make_env()
        for i in range(3):
            pt.map_page(0x100000 + i * PAGE_SIZE, allocator.alloc_page(),
                        PERM_R | PERM_W)
        a = f32(16, seed=1)
        b = f32(16, seed=2)
        mmu.write_va(0x100000, a.tobytes())
        mmu.write_va(0x100100, b.tobytes())
        program = Program([Instruction(Op.ADD, (
            TensorRef(0x100000, (16,)), TensorRef(0x100100, (16,)),
            TensorRef(0x100200, (16,))))])
        assert execute_program(program, mmu) == 1
        out = np.frombuffer(mmu.read_va(0x100200, 64), np.float32)
        assert np.array_equal(out, a + b)

    def test_unmapped_operand_faults(self):
        _memory, allocator, pt, mmu = self.make_env()
        pt.map_page(0x100000, allocator.alloc_page(), PERM_R | PERM_W)
        program = Program([Instruction(Op.COPY, (
            TensorRef(0x100000, (4,)), TensorRef(0x500000, (4,))))])
        from repro.errors import GpuPageFault
        with pytest.raises(GpuPageFault):
            execute_program(program, mmu)

    def test_shape_mismatch_detected(self):
        _memory, allocator, pt, mmu = self.make_env()
        pt.map_page(0x100000, allocator.alloc_page(), PERM_R | PERM_W)
        program = Program([Instruction(Op.ADD, (
            TensorRef(0x100000, (4,)), TensorRef(0x100000, (4,)),
            TensorRef(0x100100, (9,))))])
        with pytest.raises(ShaderDecodeError):
            execute_program(program, mmu)


@settings(max_examples=40, deadline=None)
@given(arrays(np.float32, (8,), elements=st.floats(-100, 100, width=32)),
       arrays(np.float32, (8,), elements=st.floats(-100, 100, width=32)))
def test_add_commutes_property(a, b):
    assert np.array_equal(compute_op(Op.ADD, [a, b], ())[0],
                          compute_op(Op.ADD, [b, a], ())[0])


@settings(max_examples=40, deadline=None)
@given(arrays(np.float32, (2, 6), elements=st.floats(-10, 10, width=32)))
def test_softmax_is_probability_distribution(x):
    out = compute_op(Op.SOFTMAX, [x], ())[0]
    assert (out >= 0).all()
    assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-5)


@settings(max_examples=60, deadline=None)
@given(arrays(np.float32, array_shapes(min_dims=3, max_dims=3, max_side=5),
              elements=st.floats(width=32)),
       st.integers(0, 3))
def test_pad_helper_is_np_pad_bitwise(x, pad):
    """The convolutions and the PAD op pad with ``pad_hw``; it must be
    ``np.pad`` byte for byte (NaN payloads and -0.0 included), or the
    GPU would stop matching the CPU reference that shares it."""
    want = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    for got in (pad_hw(x, pad), compute_op(Op.PAD, [x], (float(pad),))[0]):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
