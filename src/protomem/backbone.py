"""Feature extractor and projection layer with analytic backpropagation.

The extractor is a stack of dense layers over flattened inputs; the last
layer is the projection ("reductor") that maps the d_a-dimensional
intermediate feature to the d_p-dimensional prototype feature, d_p < d_a.
Weights are stored (in_dim, out_dim) so a batch X of shape (B, in) maps
to X @ W + b.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from .data import check_end, read_frame, write_frame
from .errors import LayerWidthError, MalformedFileError, NoForwardRecordedError, ShapeMismatchError
from .numerics import matmul, relu

PARAMS_MAGIC = b"OFSC"
PARAMS_VERSION = 1


@dataclass
class DenseLayer:
    weight: np.ndarray  # (in_dim, out_dim), float64
    bias: np.ndarray  # (out_dim,), float64

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2 or self.bias.ndim != 1:
            raise ShapeMismatchError("dense layer expects 2-D weight and 1-D bias")
        if self.weight.shape[1] != self.bias.shape[0]:
            raise ShapeMismatchError(
                f"bias length {self.bias.shape[0]} != weight cols {self.weight.shape[1]}"
            )


@dataclass
class ModelParams:
    """Dense layers: layers[:-1] are the extractor, layers[-1] the projection.

    This is the one model shape, and the one OFSC stores: every extractor
    layer applies relu and the projection none. d_a is the projection's
    fan-in; a one-layer model (the pretraining head) has an
    empty extractor and its only layer is its projection. forward_calls
    counts samples seen by the extractor; it instruments the single-pass
    contract of online learning and is not model state.
    """

    layers: list
    forward_calls: int = field(default=0, compare=False)

    def __post_init__(self):
        if not self.layers:
            raise ShapeMismatchError("model needs at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.weight.shape[1] != nxt.weight.shape[0]:
                raise ShapeMismatchError("layer shapes do not chain")

    @property
    def d_a(self) -> int:
        return self.layers[-1].weight.shape[0]

    @property
    def d_p(self) -> int:
        return self.layers[-1].weight.shape[1]


class GradientTape:
    """Forward-pass cache plus the gradients of the layers it recorded.

    One tape records one forward chain; create a fresh tape per batch. A
    tape trains exactly the layers it recorded: `backward` fills grad_w /
    grad_b for those and `sgd_step` updates those, so a tape that records
    only `forward_fcr` leaves the extractor untouched.
    """

    def __init__(self):
        self.records = []  # (layer_index, input batch, preactivation batch)
        self.grad_w = {}
        self.grad_b = {}


def _as_batch(x):
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        return arr[None, :], True
    if arr.ndim == 2:
        return arr, False
    raise ShapeMismatchError(f"expected vector or batch matrix, got shape {arr.shape}")


def _run_layers(params, x, start, stop, tape=None):
    a, squeeze = _as_batch(x)
    if a.shape[1] != params.layers[start].weight.shape[0]:
        raise ShapeMismatchError(
            f"input dim {a.shape[1]} != layer {start} fan-in "
            f"{params.layers[start].weight.shape[0]}"
        )
    for idx in range(start, stop):
        layer = params.layers[idx]
        z = matmul(a, layer.weight) + layer.bias
        if tape is not None:
            tape.records.append((idx, a, z))
        a = relu(z) if idx < len(params.layers) - 1 else z
    return a[0] if squeeze else a


def forward_backbone(params: ModelParams, x, tape: GradientTape | None = None):
    """Map input(s) to the intermediate feature theta_a through layers[:-1].

    Accepts one vector or a (B, in_dim) batch; bumps the sample counter
    by the number of rows processed.
    """
    batch, _ = _as_batch(x)
    params.forward_calls += batch.shape[0]
    return _run_layers(params, x, 0, len(params.layers) - 1, tape)


def forward_fcr(params: ModelParams, theta_a, tape: GradientTape | None = None):
    """Project the intermediate feature theta_a to theta_p through layers[-1]."""
    return _run_layers(params, theta_a, len(params.layers) - 1, len(params.layers), tape)


def backward(params, tape, upstream):
    """Backpropagate upstream d(loss)/d(output) through the recorded chain.

    Sets tape.grad_w / tape.grad_b (summed over the batch) for exactly the
    layers the tape recorded, walking down to the lowest of them, and
    returns the tape. A second backward on the same tape replaces its
    gradients rather than adding to them. A layer's gradient is carried
    through its weight only when a lower recorded layer needs it, so no
    gradient with respect to the lowest layer's input is formed.
    """
    if not tape.records:
        raise NoForwardRecordedError("no forward pass recorded on this tape")
    g, _ = _as_batch(upstream)
    if g.shape != tape.records[-1][2].shape:
        raise ShapeMismatchError(
            f"upstream shape {g.shape} != last output shape {tape.records[-1][2].shape}"
        )
    weight = None  # weight of the layer just walked, not yet applied to g
    for idx, a_in, z in reversed(tape.records):
        if weight is not None:
            g = matmul(g, weight.T)
        layer = params.layers[idx]
        if idx < len(params.layers) - 1:  # an extractor layer's relu
            g = g * (z > 0)
        tape.grad_w[idx] = matmul(a_in.T, g)
        tape.grad_b[idx] = g.sum(axis=0)
        weight = layer.weight
    return tape


def sgd_step(params, tape, lr: float):
    """Apply w <- w - lr * grad to each layer the tape holds gradients for."""
    if not tape.grad_w:
        raise NoForwardRecordedError("tape holds no gradients; run backward first")
    for idx, grad_w in tape.grad_w.items():
        layer = params.layers[idx]
        layer.weight -= lr * grad_w
        layer.bias -= lr * tape.grad_b[idx]
    return params


def init_model(layer_dims, seed, *, split_point=None) -> ModelParams:
    """Glorot-uniform initialised network from a seeded generator.

    layer_dims = [in, h1, ..., d_a, d_p]; the final layer is the
    projection.
    """
    # split_point stays only for benchmarks/lifecycle.py; it goes with its next revision
    if split_point not in (None, len(layer_dims) - 2):
        raise LayerWidthError(f"the projection is the last layer, got split_point={split_point}")
    if len(layer_dims) < 3:
        raise LayerWidthError("need at least [input, d_a, d_p] dims")
    if min(layer_dims) < 1:
        raise LayerWidthError(f"every layer width must be >= 1, got {list(layer_dims)}")
    n_layers = len(layer_dims) - 1
    rng = np.random.default_rng(seed)
    layers = []
    for i in range(n_layers):
        fan_in, fan_out = layer_dims[i], layer_dims[i + 1]
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        layers.append(DenseLayer(w, np.zeros(fan_out)))
    params = ModelParams(layers)
    if params.d_p >= params.d_a:
        raise LayerWidthError(f"d_p ({params.d_p}) must be < d_a ({params.d_a})")
    return params


def params_checksum(params: ModelParams) -> bytes:
    """Concatenated little-endian bytes of all weights; equality = bitwise equality."""
    chunks = []
    for layer in params.layers:
        chunks.append(layer.weight.astype("<f8").tobytes())
        chunks.append(layer.bias.astype("<f8").tobytes())
    return b"".join(chunks)


def save_params(params: ModelParams, path):
    """`data.write_frame` with the layer count as header, then the layer
    table (rows u32, cols u32, activation u8 per layer) and the float64
    weights and biases; round-trips bit-exactly. The activation byte is
    fixed by position: 1 (relu) below the projection, 0 (none) at it."""
    last = len(params.layers) - 1
    table = b"".join(
        struct.pack("<IIB", *layer.weight.shape, i < last) for i, layer in enumerate(params.layers)
    )
    head = (len(params.layers),)
    write_frame(path, PARAMS_MAGIC, PARAMS_VERSION, "I", head, table, params_checksum(params))


def load_params(path) -> ModelParams:
    """Inverse of save_params. Refuses an activation byte other than the
    one its layer's position fixes."""
    (n_layers,), blob, off = read_frame(path, PARAMS_MAGIC, PARAMS_VERSION, "I")
    if n_layers == 0:
        raise MalformedFileError(f"{path}: 0 layers")
    # a table cut short parses in part, and its payload then ends past the file
    table_end = off + 9 * n_layers
    ends = range(off + 9, min(table_end, len(blob)) + 1, 9)
    shapes = [struct.unpack_from("<IIB", blob, end - 9) for end in ends]
    check_end(path, blob, table_end + sum((rows + 1) * cols * 8 for rows, cols, _ in shapes))
    if any(0 in (rows, cols) for rows, cols, _ in shapes):
        raise MalformedFileError(f"{path}: a layer of width 0")
    if any(out != into for (_, out, _), (into, _, _) in zip(shapes, shapes[1:])):
        raise MalformedFileError(f"{path}: layer shapes do not chain")
    if [act for _, _, act in shapes] != [1] * (n_layers - 1) + [0]:
        raise MalformedFileError(f"{path}: activation codes other than relu below the projection")
    layers, off = [], table_end
    for rows, cols, _ in shapes:
        wb = np.frombuffer(blob, dtype="<f8", count=(rows + 1) * cols, offset=off)
        off += wb.nbytes
        weight, bias = wb[: rows * cols].reshape(rows, cols), wb[rows * cols :]
        layers.append(DenseLayer(weight.copy(), bias.copy()))
    return ModelParams(layers)
