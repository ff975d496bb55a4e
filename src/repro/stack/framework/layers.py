"""Layer and model specifications plus shape/weight inference.

A :class:`ModelSpec` is a DAG of :class:`LayerSpec` nodes (the "job
graph" of Section 3.1): every layer executes unconditionally, which is
the property that makes a workload recordable in one recording. Routes
(SqueezeNet fire modules, ResNet skips, YOLO concats) are expressed as
explicit multi-input layers -- "branches" in the NN sense that are
*not* conditional branches.

Shapes are channel-first: spatial tensors are ``(c, h, w)``; vectors
flow as ``(1, n)`` batch-of-one rows into dense layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import FrameworkError

Shape = Tuple[int, ...]

#: Layer kinds with trainable weights.
WEIGHTED_KINDS = ("conv", "dwconv", "dense")

#: Activation names that can be attached to weighted layers.
ACTIVATIONS = ("relu", "relu6", "leaky", "sigmoid", "tanh")


@dataclass(frozen=True)
class LayerSpec:
    """One layer of a network."""

    name: str
    kind: str
    params: Dict[str, float] = field(default_factory=dict)
    #: Names of producer layers ("input" = the network input). None
    #: means "the previous layer in the list".
    inputs: Optional[Tuple[str, ...]] = None

    def param(self, key: str, default=None):
        if key in self.params:
            return self.params[key]
        if default is None:
            raise FrameworkError(f"layer {self.name}: missing param {key!r}")
        return default

    @property
    def activation(self) -> Optional[str]:
        act = self.params.get("act")
        if act is not None and act not in ACTIVATIONS:
            raise FrameworkError(f"layer {self.name}: bad activation {act}")
        return act


@dataclass
class ModelSpec:
    """A whole network: input shape plus an ordered layer list."""

    name: str
    input_shape: Shape
    layers: List[LayerSpec]
    seed: int = 7
    #: Documentation: what workload family this model represents.
    description: str = ""

    def layer(self, name: str) -> LayerSpec:
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise FrameworkError(f"{self.name}: no layer named {name!r}")

    def output_layer(self) -> LayerSpec:
        if not self.layers:
            raise FrameworkError(f"{self.name}: model has no layers")
        return self.layers[-1]

    def validate(self) -> None:
        seen = {"input"}
        for layer in self.layers:
            if layer.name in seen:
                raise FrameworkError(
                    f"{self.name}: duplicate layer name {layer.name!r}")
            for src in layer.inputs or ():
                if src not in seen:
                    raise FrameworkError(
                        f"{self.name}: layer {layer.name} consumes "
                        f"{src!r} before it is produced")
            seen.add(layer.name)


def resolve_inputs(model: ModelSpec) -> Dict[str, Tuple[str, ...]]:
    """Producer names for each layer (resolving the implicit 'previous')."""
    out: Dict[str, Tuple[str, ...]] = {}
    previous = "input"
    for layer in model.layers:
        out[layer.name] = layer.inputs if layer.inputs is not None \
            else (previous,)
        previous = layer.name
    return out


def _conv_out(h: int, w: int, k: int, stride: int, pad: int) -> Tuple[int, int]:
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    if oh <= 0 or ow <= 0:
        raise FrameworkError(f"spatial collapse: {h}x{w} k={k} s={stride} "
                             f"p={pad}")
    return oh, ow


def infer_shapes(model: ModelSpec) -> Dict[str, Shape]:
    """Output shape of 'input' and of every layer."""
    model.validate()
    inputs = resolve_inputs(model)
    shapes: Dict[str, Shape] = {"input": model.input_shape}

    for layer in model.layers:
        srcs = [shapes[s] for s in inputs[layer.name]]
        x = srcs[0]
        kind = layer.kind
        if kind == "conv":
            c, h, w = x
            k = int(layer.param("k"))
            oh, ow = _conv_out(h, w, k, int(layer.param("stride", 1)),
                               int(layer.param("pad", 0)))
            shapes[layer.name] = (int(layer.param("out_channels")), oh, ow)
        elif kind == "dwconv":
            c, h, w = x
            k = int(layer.param("k"))
            oh, ow = _conv_out(h, w, k, int(layer.param("stride", 1)),
                               int(layer.param("pad", 0)))
            shapes[layer.name] = (c, oh, ow)
        elif kind == "dense":
            if len(x) != 2 or x[0] != 1:
                raise FrameworkError(
                    f"{layer.name}: dense input must be (1, n), got {x}")
            shapes[layer.name] = (1, int(layer.param("units")))
        elif kind in ("maxpool", "avgpool"):
            c, h, w = x
            k = int(layer.param("k"))
            stride = int(layer.param("stride", k))
            oh = (h - k) // stride + 1
            ow = (w - k) // stride + 1
            if oh <= 0 or ow <= 0:
                raise FrameworkError(f"{layer.name}: pool collapses {x}")
            shapes[layer.name] = (c, oh, ow)
        elif kind == "gap":
            shapes[layer.name] = (1, x[0])
        elif kind == "flatten":
            shapes[layer.name] = (1, int(np.prod(x)))
        elif kind == "concat":
            if any(s[1:] != x[1:] for s in srcs):
                raise FrameworkError(f"{layer.name}: concat spatial mismatch")
            shapes[layer.name] = (sum(s[0] for s in srcs),) + tuple(x[1:])
        elif kind == "add":
            if any(s != x for s in srcs):
                raise FrameworkError(f"{layer.name}: add shape mismatch")
            shapes[layer.name] = x
        elif kind == "upsample":
            c, h, w = x
            shapes[layer.name] = (c, 2 * h, 2 * w)
        elif kind == "pad":
            c, h, w = x
            p = int(layer.param("pad"))
            shapes[layer.name] = (c, h + 2 * p, w + 2 * p)
        elif kind in ("lrn", "softmax") or kind in ACTIVATIONS:
            shapes[layer.name] = x
        else:
            raise FrameworkError(f"{layer.name}: unknown kind {kind!r}")
    return shapes


def weight_shapes(model: ModelSpec) -> Dict[str, Shape]:
    """Shapes of every trainable parameter buffer, named '{layer}.w/.b'."""
    shapes = infer_shapes(model)
    inputs = resolve_inputs(model)
    out: Dict[str, Shape] = {}
    for layer in model.layers:
        if layer.kind not in WEIGHTED_KINDS:
            continue
        x = shapes[inputs[layer.name][0]]
        if layer.kind == "conv":
            k = int(layer.param("k"))
            oc = int(layer.param("out_channels"))
            out[f"{layer.name}.w"] = (oc, x[0], k, k)
            out[f"{layer.name}.b"] = (oc,)
        elif layer.kind == "dwconv":
            k = int(layer.param("k"))
            out[f"{layer.name}.w"] = (x[0], k, k)
            out[f"{layer.name}.b"] = (x[0],)
        elif layer.kind == "dense":
            units = int(layer.param("units"))
            out[f"{layer.name}.w"] = (x[1], units)
            out[f"{layer.name}.b"] = (units,)
    return out


#: (seed, ordered weight shapes) -> the drawn arrays, read-only. No
#: cap: the weights of the whole 14-model zoo are 6.3 MB.
_WEIGHTS: Dict[tuple, Dict[str, np.ndarray]] = {}


def init_weights(model: ModelSpec) -> Dict[str, np.ndarray]:
    """Deterministic He-style initialization from the model seed.

    Drawn once per process per (seed, weight shapes): each call returns
    a new dict of the same read-only arrays, so a caller may replace an
    entry but not write into one."""
    shapes = tuple(weight_shapes(model).items())
    key = (model.seed, shapes)
    weights = _WEIGHTS.get(key)
    if weights is None:
        weights = _WEIGHTS[key] = draw_weights(model.seed, shapes)
        for array in weights.values():
            array.flags.writeable = False
    return dict(weights)


def draw_weights(seed: int, shapes: Iterable[Tuple[str, Shape]]
                 ) -> Dict[str, np.ndarray]:
    """The uncached draw behind :func:`init_weights` (writable arrays)."""
    rng = np.random.default_rng(seed)
    out: Dict[str, np.ndarray] = {}
    for name, shape in shapes:
        if name.endswith(".b"):
            out[name] = np.zeros(shape, dtype=np.float32)
        else:
            fan_in = int(np.prod(shape[1:])) or shape[0]
            scale = np.sqrt(2.0 / fan_in)
            out[name] = (rng.standard_normal(shape) * scale).astype(
                np.float32)
    return out


def gpu_memory_estimate(model: ModelSpec) -> int:
    """Bytes of GPU memory the model's buffers occupy (Table 6 column)."""
    total = 4 * int(np.prod(model.input_shape))
    for shape in infer_shapes(model).values():
        total += 4 * int(np.prod(shape))
    for shape in weight_shapes(model).values():
        total += 4 * int(np.prod(shape))
    return total
