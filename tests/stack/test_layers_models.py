"""Layer specs, shape inference, weights, the model zoo."""

import dataclasses
import sys

import numpy as np
import pytest

from repro.errors import FrameworkError
from repro.stack.framework import layers
from repro.stack.framework.layers import (LayerSpec, ModelSpec,
                                          draw_weights, gpu_memory_estimate,
                                          infer_shapes, init_weights,
                                          resolve_inputs, weight_shapes)
from repro.stack.framework.models import MODEL_ZOO, build_model


class TestShapeInference:
    def test_conv_shapes(self):
        model = ModelSpec("m", (3, 8, 8), [
            LayerSpec("c1", "conv", {"out_channels": 4, "k": 3,
                                     "stride": 1, "pad": 1}),
            LayerSpec("c2", "conv", {"out_channels": 8, "k": 3,
                                     "stride": 2, "pad": 1}),
        ])
        shapes = infer_shapes(model)
        assert shapes["c1"] == (4, 8, 8)
        assert shapes["c2"] == (8, 4, 4)

    def test_pool_and_gap(self):
        model = ModelSpec("m", (4, 8, 8), [
            LayerSpec("p", "maxpool", {"k": 2, "stride": 2}),
            LayerSpec("g", "gap", {}),
        ])
        shapes = infer_shapes(model)
        assert shapes["p"] == (4, 4, 4)
        assert shapes["g"] == (1, 4)

    def test_dense_needs_flat_input(self):
        model = ModelSpec("m", (3, 4, 4), [
            LayerSpec("fc", "dense", {"units": 10}),
        ])
        with pytest.raises(FrameworkError):
            infer_shapes(model)

    def test_flatten_then_dense(self):
        model = ModelSpec("m", (3, 4, 4), [
            LayerSpec("flat", "flatten"),
            LayerSpec("fc", "dense", {"units": 10}),
        ])
        shapes = infer_shapes(model)
        assert shapes["flat"] == (1, 48)
        assert shapes["fc"] == (1, 10)

    def test_concat_channels(self):
        model = ModelSpec("m", (2, 4, 4), [
            LayerSpec("a", "conv", {"out_channels": 3, "k": 1, "pad": 0},
                      ("input",)),
            LayerSpec("b", "conv", {"out_channels": 5, "k": 1, "pad": 0},
                      ("input",)),
            LayerSpec("cat", "concat", {}, ("a", "b")),
        ])
        assert infer_shapes(model)["cat"] == (8, 4, 4)

    def test_concat_spatial_mismatch_rejected(self):
        model = ModelSpec("m", (2, 4, 4), [
            LayerSpec("a", "maxpool", {"k": 2, "stride": 2}, ("input",)),
            LayerSpec("cat", "concat", {}, ("a", "input")),
        ])
        with pytest.raises(FrameworkError):
            infer_shapes(model)

    def test_add_shape_mismatch_rejected(self):
        model = ModelSpec("m", (2, 4, 4), [
            LayerSpec("a", "conv", {"out_channels": 3, "k": 1, "pad": 0}),
            LayerSpec("sum", "add", {}, ("a", "input")),
        ])
        with pytest.raises(FrameworkError):
            infer_shapes(model)

    def test_spatial_collapse_rejected(self):
        model = ModelSpec("m", (1, 2, 2), [
            LayerSpec("c", "conv", {"out_channels": 1, "k": 5, "pad": 0}),
        ])
        with pytest.raises(FrameworkError):
            infer_shapes(model)

    def test_upsample_pad(self):
        model = ModelSpec("m", (2, 3, 3), [
            LayerSpec("up", "upsample"),
            LayerSpec("pd", "pad", {"pad": 2}),
        ])
        shapes = infer_shapes(model)
        assert shapes["up"] == (2, 6, 6)
        assert shapes["pd"] == (2, 10, 10)


class TestModelValidation:
    def test_duplicate_layer_name(self):
        model = ModelSpec("m", (1, 4, 4), [
            LayerSpec("x", "relu"), LayerSpec("x", "relu")])
        with pytest.raises(FrameworkError):
            model.validate()

    def test_forward_reference_rejected(self):
        model = ModelSpec("m", (1, 4, 4), [
            LayerSpec("a", "add", {}, ("b",)), LayerSpec("b", "relu")])
        with pytest.raises(FrameworkError):
            model.validate()

    def test_resolve_implicit_previous(self):
        model = ModelSpec("m", (1, 4, 4), [
            LayerSpec("a", "relu"), LayerSpec("b", "relu")])
        inputs = resolve_inputs(model)
        assert inputs == {"a": ("input",), "b": ("a",)}

    def test_bad_activation_rejected(self):
        layer = LayerSpec("c", "conv", {"out_channels": 1, "k": 1,
                                        "pad": 0, "act": "swish"})
        with pytest.raises(FrameworkError):
            _ = layer.activation

    def test_missing_param(self):
        layer = LayerSpec("c", "conv", {})
        with pytest.raises(FrameworkError):
            layer.param("out_channels")


class TestWeights:
    def test_weight_shapes(self):
        model = build_model("mnist")
        shapes = weight_shapes(model)
        assert shapes["conv1.w"] == (8, 1, 3, 3)
        assert shapes["conv1.b"] == (8,)
        assert shapes["fc2.w"][1] == 10

    def test_init_deterministic_per_seed(self):
        model = build_model("mnist")
        memo = init_weights(model)
        drawn = draw_weights(model.seed, weight_shapes(model).items())
        assert list(memo) == list(drawn)
        for name in memo:
            assert np.array_equal(memo[name], drawn[name])

    def test_biases_start_zero(self):
        weights = init_weights(build_model("mnist"))
        assert not weights["conv1.b"].any()

    def test_memo_arrays_are_read_only(self):
        weights = init_weights(build_model("mnist"))
        with pytest.raises(ValueError):
            weights["conv1.w"][0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            weights["fc2.b"] += 1.0

    def test_each_call_returns_a_new_dict(self):
        model = build_model("mnist")
        first = init_weights(model)
        first["fc2.b"] = np.ones_like(first["fc2.b"])
        second = init_weights(model)
        assert second is not first
        assert not second["fc2.b"].any()
        assert second["conv1.w"] is first["conv1.w"]

    def test_another_seed_gets_its_own_weights(self):
        model = build_model("mnist")
        reseeded = dataclasses.replace(model, seed=model.seed + 1)
        base, other = init_weights(model), init_weights(reseeded)
        assert not np.array_equal(base["conv1.w"], other["conv1.w"])
        drawn = draw_weights(reseeded.seed, weight_shapes(reseeded).items())
        assert np.array_equal(other["conv1.w"], drawn["conv1.w"])
        assert np.array_equal(init_weights(model)["conv1.w"],
                              base["conv1.w"])

    def test_gpu_memory_estimate_positive(self):
        small = gpu_memory_estimate(build_model("mnist"))
        big = gpu_memory_estimate(build_model("vgg16"))
        assert 0 < small < big


def test_one_model_draws_its_weights_once(monkeypatch):
    """Sixteen CPU ground-truth answers and one stack build of a model
    draw its weights from the seed once, not once per call."""
    from repro.bench.workloads import build_stack, get_recorded
    from repro.serve import RecordingStore

    workload, _stack = get_recorded("mali", "mnist")
    store = RecordingStore()
    store.add("mali", "mnist", workload.recording)
    monkeypatch.setattr(layers, "_WEIGHTS", {})
    draws = []
    default_rng = np.random.default_rng

    def counting_rng(*args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == layers.__name__:
            draws.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    for input_seed in range(16):
        store.reference_outputs("mali", "mnist", input_seed)
    build_stack("mali", "mnist")
    assert len(draws) == 1


class TestZoo:
    def test_zoo_has_the_table6_models(self):
        for name in ("mnist", "alexnet", "mobilenet", "squeezenet",
                     "resnet12", "resnet18", "vgg16", "yolov4-tiny"):
            assert name in MODEL_ZOO

    @pytest.mark.parametrize("name", sorted(MODEL_ZOO))
    def test_every_model_validates_and_infers(self, name):
        model = build_model(name)
        shapes = infer_shapes(model)
        assert shapes[model.output_layer().name]

    def test_weighted_depths_match_names(self):
        def weighted(name):
            return sum(1 for layer in build_model(name).layers
                       if layer.kind in ("conv", "dwconv", "dense"))

        assert weighted("alexnet") == 8
        assert weighted("vgg16") == 16
        assert weighted("resnet12") == 12
        assert weighted("resnet18") == 18

    def test_unknown_model(self):
        with pytest.raises(FrameworkError):
            build_model("gpt4")

    def test_layer_lookup(self):
        model = build_model("mnist")
        assert model.layer("conv1").kind == "conv"
        with pytest.raises(FrameworkError):
            model.layer("nope")
