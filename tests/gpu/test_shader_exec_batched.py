"""Batched shader execution: the mega-batch replay's batch dimension.

The contract under test: for every opcode and every overlay state,
``compute_op_batched`` / ``execute_instruction_batched`` produce
per-member results bitwise identical to N separate unbatched
evaluations, and anything the overlay cannot represent (partial VA
aliasing) raises ``MegaBatchDivergence`` instead of approximating.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MegaBatchDivergence, ShaderDecodeError
from repro.gpu.isa import Op, TensorRef
from repro.gpu.shader_batch import (_ELEMENTWISE_OPS, BatchEnv,
                                    compute_op_batched)
from repro.gpu.shader_exec import compute_op


def members(n, *shape, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(shape).astype(np.float32)
            for _ in range(n)]


class TestBatchEnv:
    def test_exact_overlap_round_trips(self):
        env = BatchEnv(3)
        ref = TensorRef(0x1000, (2, 4))
        stacked = np.stack(members(3, 2, 4, seed=1))
        env.put(ref, stacked)
        assert env.overlap(0x1000, ref.nbytes) == "exact"
        assert np.array_equal(env.get(ref), stacked)
        fetched = env.fetch(0x1000, ref.nbytes)
        assert fetched.shape == (3, 8)
        assert np.array_equal(fetched.reshape(3, 2, 4), stacked)

    def test_disjoint_range_is_none(self):
        env = BatchEnv(2)
        env.seed(0x1000, np.zeros((2, 8), np.float32))
        assert env.overlap(0x2000, 32) == "none"
        assert env.fetch(0x2000, 32) is None

    def test_partial_overlap_is_divergence(self):
        env = BatchEnv(2)
        env.seed(0x1000, np.zeros((2, 8), np.float32))  # 32 bytes
        # same start, different size; straddling; and inside-the-range
        assert env.overlap(0x1000, 16) == "partial"
        assert env.overlap(0xff0, 64) == "partial"
        assert env.overlap(0x1010, 16) == "partial"
        with pytest.raises(MegaBatchDivergence):
            env.fetch(0x1010, 16)
        with pytest.raises(MegaBatchDivergence):
            env.put(TensorRef(0x1000, (4,)), np.zeros((2, 4), np.float32))
        with pytest.raises(MegaBatchDivergence):
            env.forget(0xff0, 64)

    def test_forget_makes_range_unbatched(self):
        env = BatchEnv(2)
        env.seed(0x1000, np.ones((2, 8), np.float32))
        env.forget(0x1000, 32)
        assert env.overlap(0x1000, 32) == "none"
        assert len(env) == 0

    def test_put_validates_element_count(self):
        env = BatchEnv(2)
        with pytest.raises(ShaderDecodeError):
            env.put(TensorRef(0x1000, (8,)), np.zeros((2, 4), np.float32))

    def test_rejects_empty_batch(self):
        with pytest.raises(ShaderDecodeError):
            BatchEnv(0)


#: (op, member-input shapes, params) cases spanning the vectorized
#: element-wise set and the per-member loop (reshape/reduce/linear).
OP_CASES = [
    (Op.ADD, [(3, 4), (3, 4)], ()),
    (Op.MUL, [(8,), (8,)], ()),
    (Op.SCALE, [(5,)], (2.5,)),
    (Op.RELU, [(4, 4)], ()),
    (Op.SIGMOID, [(6,)], ()),
    (Op.TANH, [(6,)], ()),
    (Op.SELECT, [(7,), (7,), (7,)], ()),
    (Op.FLATTEN, [(2, 6)], ()),
    (Op.MATMUL, [(3, 4), (4, 5)], ()),
    (Op.DENSE, [(1, 4), (4, 6), (6,)], ()),
    (Op.SOFTMAX, [(1, 10)], ()),
    (Op.BIASADD, [(2, 6), (6,)], ()),
]


class TestComputeOpBatched:
    @pytest.mark.parametrize("op,shapes,params", OP_CASES,
                             ids=lambda c: getattr(c, "name", None))
    def test_bitwise_equal_to_member_loop(self, op, shapes, params):
        n = 4
        per_input = [members(n, *shape, seed=11 + i)
                     for i, shape in enumerate(shapes)]
        stacked = [np.stack(vals) for vals in per_input]
        got = compute_op_batched(op, stacked, [True] * len(shapes),
                                 params, n)
        for k in range(n):
            want = compute_op(op, [vals[k] for vals in per_input], params)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g[k].tobytes() == w.tobytes()

    @pytest.mark.parametrize("op,shapes,params", OP_CASES,
                             ids=lambda c: getattr(c, "name", None))
    def test_mixed_batched_and_shared_inputs(self, op, shapes, params):
        # first input batched, the rest shared -- the common case of an
        # activation flowing into recorded weights
        n = 3
        first = members(n, *shapes[0], seed=21)
        shared = [members(1, *shape, seed=31 + i)[0]
                  for i, shape in enumerate(shapes[1:])]
        batched = [True] + [False] * len(shared)
        got = compute_op_batched(op, [np.stack(first)] + shared,
                                 batched, params, n)
        for k in range(n):
            want = compute_op(op, [first[k]] + shared, params)
            for g, w in zip(got, want):
                assert g[k].tobytes() == w.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(op=st.sampled_from(sorted(_ELEMENTWISE_OPS & {
               Op.ADD, Op.SUB, Op.MUL, Op.RELU, Op.RELU6, Op.LEAKY_RELU,
               Op.SIGMOID, Op.TANH}, key=lambda o: o.value)),
           n=st.integers(1, 5), seed=st.integers(0, 999))
    def test_elementwise_fast_path_is_bitwise(self, op, n, seed):
        arity = 2 if op in (Op.ADD, Op.SUB, Op.MUL) else 1
        inputs = [members(n, 6, seed=seed + i) for i in range(arity)]
        got = compute_op_batched(op, [np.stack(v) for v in inputs],
                                 [True] * arity, (), n)
        for k in range(n):
            want = compute_op(op, [v[k] for v in inputs], ())
            assert got[0][k].tobytes() == want[0].tobytes()

    def test_flatten_is_not_vectorized(self):
        # FLATTEN reshapes, so lockstep numpy over (n, ...) would be
        # wrong; it must take the per-member loop.
        assert Op.FLATTEN not in _ELEMENTWISE_OPS
        assert Op.FILL not in _ELEMENTWISE_OPS
