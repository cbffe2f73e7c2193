"""Two-layer bidirectional LSTM encoder with analytic gradients, plus the
two affine classification heads, all in plain numpy.

The gate block layout inside every 4H-wide weight slab is [input, forget,
cell, output]. Layer 1 reads the 5-channel minute features; layer 2 reads
the concatenated forward/backward outputs of layer 1 (after inverted
dropout in train mode). The window representation is the concatenation of
the two final hidden states of layer 2 (the forward direction's last step
and the backward direction's first step), or the mean over time of the
concatenated outputs when mean pooling is selected.

Each layer runs through ``_layer_forward`` and ``_layer_backward``, which
loop over its two directions, or units (``enc1_fwd`` ...): a unit's cache
is keyed by its name and its arrays and gradients are ``<unit>_wx``,
``<unit>_wh`` and ``<unit>_b``. The model pass applies the two heads.

Each direction allocates one (B, W, 4H) slab per forward pass, and the
slab holds three things in turn. The forward pass computes ``x @ wx + b``
into it for every step at once and writes each step's activated gates over
the pre-activations that step has just read. The backward pass writes each
step's ``dz`` over the gates that step has just read, and the final GEMMs
read ``dz`` from the slab. A step computes the three sigmoid gates in one
branch-free pass over the whole (B, 4H) pre-activation, ``e = exp(-|z|)``
then ``max(e, z >= 0) / (1 + e)``, which is exactly ``1/(1+e)`` for z >= 0
and ``e/(1+e)`` otherwise, and then overwrites the cell block with its
tanh. The step loops allocate nothing: their scratch buffers are made once
per call and filled with ``out=``.

The backward pass therefore consumes its cache: ``_layer_backward`` pops
each direction's cache before it backpropagates through it, layer 2
before layer 1, so a direction's slabs are freed before the next
direction runs, and a second backward pass on the same cache is an error.
Results are bit-identical to the earlier per-gate kernel (four gate caches
and a masked sigmoid per gate), which the tests keep as a reference.

Everything runs in float64: the backward pass is checked coordinate by
coordinate against central finite differences, and that comparison needs
the headroom.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

N_LEVEL1 = 3

GATE_BLOCKS = 4  # input, forget, cell, output

POOLING_MODES = ("final", "mean")

#: The encoder layers, the directions of each as (name, reverse) and the
#: heads, one per taxonomy level; ``enc1_fwd`` is a unit, one direction.
_LAYERS = ("enc1", "enc2")
_DIRECTIONS = (("fwd", False), ("bwd", True))
_HEADS = ("head1", "head2")


def _check_size(name: str, value) -> None:
    # bool is a subclass of int, so the kind is compared exactly
    if type(value) is not int or value <= 0:
        raise ValueError(f"field {name!r} must be a positive int, got {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    """The network's shape settings: the LSTM hidden size, the inverted
    dropout rate between the two layers and the pooling mode."""

    hidden_size: int = 32
    dropout: float = 0.1
    pooling: str = "final"

    def __post_init__(self) -> None:
        _check_size("hidden_size", self.hidden_size)
        if isinstance(self.dropout, bool) or not isinstance(self.dropout, (int, float)):
            raise ValueError(f"field 'dropout' must be a real number, got {self.dropout!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout!r}")
        if self.pooling not in POOLING_MODES:
            raise ValueError(f"pooling must be one of {POOLING_MODES}, got {self.pooling!r}")


@dataclass
class ModelParams:
    """All weight arrays plus the shape and behaviour metadata.

    The arrays dict is keyed by the names in _ARRAY_ORDER. Treat instances
    as value objects: use copy() before mutating the arrays in place.
    """

    arrays: dict[str, np.ndarray]
    input_size: int
    n_level1: int
    n_level2: int
    config: ModelConfig

    def __post_init__(self) -> None:
        for name in ("input_size", "n_level1", "n_level2"):
            _check_size(name, getattr(self, name))

    def copy(self) -> "ModelParams":
        return replace(self, arrays={k: v.copy() for k, v in self.arrays.items()})


def _array_shapes(
    input_size: int, hidden_size: int, n_level1: int, n_level2: int
) -> dict[str, tuple[int, ...]]:
    h = hidden_size
    shapes = {}
    for layer, d_in in zip(_LAYERS, (input_size, 2 * h)):
        for direction, _ in _DIRECTIONS:
            unit = f"{layer}_{direction}"
            shapes |= {f"{unit}_wx": (d_in, 4 * h), f"{unit}_wh": (h, 4 * h), f"{unit}_b": (4 * h,)}
    for head, n_out in zip(_HEADS, (n_level1, n_level2)):
        shapes |= {f"{head}_w": (2 * h, n_out), f"{head}_b": (n_out,)}
    return shapes


#: Construction order of the parameter arrays. Initialization draws follow
#: this order, which pins the random stream for a given seed.
_ARRAY_ORDER = tuple(_array_shapes(1, 1, 1, 1))


def _fan_in(name: str, shape: tuple[int, ...], hidden_size: int) -> int:
    if name.endswith("_b"):
        # biases share the fan of the matrix they accompany
        return hidden_size if name.startswith("enc") else 2 * hidden_size
    return shape[0]


def init_params(
    input_size: int,
    hidden_size: int,
    n_level2: int,
    *,
    n_level1: int = N_LEVEL1,
    seed: int = 0,
    dropout: float = ModelConfig.dropout,
    pooling: str = ModelConfig.pooling,
) -> ModelParams:
    """Seeded uniform initialization, each array in (-1, 1)/sqrt(fan_in).
    The metadata is checked before anything is drawn."""
    params = ModelParams(
        arrays={},
        input_size=input_size,
        n_level1=n_level1,
        n_level2=n_level2,
        config=ModelConfig(hidden_size, dropout, pooling),
    )
    rng = np.random.default_rng(seed)
    for name, shape in _array_shapes(input_size, hidden_size, n_level1, n_level2).items():
        bound = 1.0 / np.sqrt(_fan_in(name, shape, hidden_size))
        params.arrays[name] = rng.uniform(-bound, bound, size=shape)
    return params


def _gate_blocks(slab: np.ndarray) -> tuple[np.ndarray, ...]:
    """Views of the input, forget, cell and output blocks of a (B, 4H) slab."""
    h_dim = slab.shape[1] // GATE_BLOCKS
    return tuple(slab[:, k * h_dim : (k + 1) * h_dim] for k in range(GATE_BLOCKS))


def _lstm_forward(x, wx, wh, b, reverse: bool):
    """Run one direction of one layer over a (B, W, D) batch.

    Returns the per-step hidden states in time order and the cache needed
    by the backward pass: the activated (B, W, 4H) gate slab, the cell
    states and the hidden states. The gates are written over the
    pre-activation slab they come from: step t reads ``pre[:, t]`` once,
    before it stores its gates there. ``_lstm_backward`` consumes the cache.
    """
    batch, width, _ = x.shape
    h_dim = wh.shape[0]
    pre = x @ wx  # input contribution for every step at once
    pre += b
    gates = pre
    c_seq = np.empty((batch, width, h_dim))
    h_seq = np.empty((batch, width, h_dim))
    # per-step scratch, filled in place so the loop allocates nothing
    z = np.empty((batch, 4 * h_dim))
    e = np.empty_like(z)
    act = np.empty_like(z)
    h = np.zeros((batch, h_dim))
    c = np.zeros((batch, h_dim))
    tmp = np.empty_like(c)
    i_t, f_t, g_t, o_t = _gate_blocks(act)
    z_g = _gate_blocks(z)[2]
    steps = range(width - 1, -1, -1) if reverse else range(width)
    for t in steps:
        np.matmul(h, wh, out=z)
        z += pre[:, t]
        # sigmoid of the whole slab without branches: with e = exp(-|z|) it
        # is exactly 1/(1+e) where z >= 0 and e/(1+e) elsewhere
        np.abs(z, out=e)
        np.negative(e, out=e)
        np.exp(e, out=e)
        np.greater_equal(z, 0.0, out=act)
        np.maximum(e, act, out=act)
        e += 1.0
        np.divide(act, e, out=act)
        np.tanh(z_g, out=g_t)
        gates[:, t] = act
        c *= f_t
        np.multiply(i_t, g_t, out=tmp)
        c += tmp
        np.tanh(c, out=tmp)
        np.multiply(o_t, tmp, out=h)
        c_seq[:, t] = c
        h_seq[:, t] = h
    cache = {"x": x, "gates": gates, "c": c_seq, "h": h_seq, "reverse": reverse}
    return h_seq, cache


def _lstm_backward(dh_seq, cache, wx, wh):
    """Backpropagate through one direction. dh_seq holds the gradient
    arriving at every per-step hidden output. The input gradient ``dx`` is
    None when the cache holds ``input_grad=False``.

    The pass consumes the cache: step t reads ``gates[:, t]`` once and then
    stores its ``dz`` there, so afterwards the gate slab holds ``dz``."""
    x, gates = cache["x"], cache["gates"]
    c_seq, h_seq = cache["c"], cache["h"]
    reverse = cache["reverse"]
    batch, width, h_dim = h_seq.shape

    dz_seq = gates
    d_wh = np.zeros_like(wh)
    # per-step scratch, filled in place so the loop allocates nothing
    dh_carry = np.zeros((batch, h_dim))
    dc_carry = np.zeros((batch, h_dim))
    zeros = np.zeros((batch, h_dim))
    tanh_c = np.empty((batch, h_dim))
    dh = np.empty_like(tanh_c)
    dc = np.empty_like(tanh_c)
    dz = np.zeros((batch, 4 * h_dim))
    slope = np.empty_like(dz)
    d_wh_t = np.empty_like(wh)
    dz_i, dz_f, dz_g, dz_o = _gate_blocks(dz)
    slope_g = _gate_blocks(slope)[2]
    steps = range(width) if reverse else range(width - 1, -1, -1)
    for t in steps:
        prev_t = t + 1 if reverse else t - 1
        in_range = 0 <= prev_t < width
        h_prev = h_seq[:, prev_t] if in_range else zeros
        c_prev = c_seq[:, prev_t] if in_range else zeros
        act = gates[:, t]
        i_t, f_t, g_t, o_t = _gate_blocks(act)
        np.tanh(c_seq[:, t], out=tanh_c)

        np.add(dh_seq[:, t], dh_carry, out=dh)
        np.multiply(dh, tanh_c, out=dz_o)
        np.multiply(dh, o_t, out=dc)
        np.square(tanh_c, out=tanh_c)
        np.subtract(1.0, tanh_c, out=tanh_c)
        dc *= tanh_c
        dc += dc_carry
        # dz is (upstream * gate) * (1 - gate) on the sigmoid blocks and
        # upstream * (1 - g^2) on the cell block, rounded in that order;
        # the cell block is written after the slab-wide gate product
        np.multiply(dc, g_t, out=dz_i)
        np.multiply(dc, c_prev, out=dz_f)
        dz *= act
        np.multiply(dc, i_t, out=dz_g)
        np.subtract(1.0, act, out=slope)
        np.square(g_t, out=slope_g)
        np.subtract(1.0, slope_g, out=slope_g)
        dz *= slope
        # f_t is a view of the slab row that the store below overwrites
        np.multiply(dc, f_t, out=dc_carry)
        dz_seq[:, t] = dz

        np.matmul(h_prev.T, dz, out=d_wh_t)
        d_wh += d_wh_t
        np.matmul(dz, wh.T, out=dh_carry)

    flat_x = x.reshape(batch * width, -1)
    flat_dz = dz_seq.reshape(batch * width, 4 * h_dim)
    d_wx = flat_x.T @ flat_dz
    d_b = flat_dz.sum(axis=0)
    dx = (flat_dz @ wx.T).reshape(x.shape) if cache.get("input_grad", True) else None
    return dx, d_wx, d_wh, d_b


def _check_input(x: np.ndarray, params: ModelParams) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != params.input_size:
        raise ValueError(
            f"expected input of shape (batch, width, {params.input_size}), "
            f"got {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite values in model input")
    return x


def make_dropout_mask(
    shape: tuple[int, ...], dropout: float, rng: np.random.Generator
) -> np.ndarray:
    """Inverted dropout mask: zeros with probability ``dropout``, survivors
    scaled by 1/(1-dropout) so the expected activation is unchanged."""
    keep = rng.random(shape) >= dropout
    return np.divide(keep, 1.0 - dropout, dtype=np.float64)


def _layer_forward(layer: str, x: np.ndarray, arrays: dict[str, np.ndarray]):
    """Run both directions of one layer over x. Returns their hidden
    sequences in direction order and their caches keyed by unit name."""
    h_seqs, caches = [], {}
    for direction, reverse in _DIRECTIONS:
        unit = f"{layer}_{direction}"
        wx, wh, b = (arrays[f"{unit}_{part}"] for part in ("wx", "wh", "b"))
        h_seq, caches[unit] = _lstm_forward(x, wx, wh, b, reverse)
        h_seqs.append(h_seq)
    return h_seqs, caches


def _layer_backward(layer: str, dh_seqs, cache, arrays, **flags):
    """Backpropagate both directions of one layer, popping each unit's cache
    (joined by ``flags``) as it goes. Returns the input gradients in
    direction order and the units' gradients keyed by array name."""
    dxs, grads = [], {}
    for (direction, _), dh_seq in zip(_DIRECTIONS, dh_seqs):
        unit = f"{layer}_{direction}"
        wx, wh = arrays[f"{unit}_wx"], arrays[f"{unit}_wh"]
        dx, *unit_grads = _lstm_backward(dh_seq, cache.pop(unit) | flags, wx, wh)
        grads |= zip((f"{unit}_wx", f"{unit}_wh", f"{unit}_b"), unit_grads)
        dxs.append(dx)
    return dxs, grads


def encoder_forward(
    x: np.ndarray,
    params: ModelParams,
    *,
    train_mode: bool = False,
    dropout_mask: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
):
    """Encode a batch of windows into fixed-size feature vectors.

    In train mode, inter-layer dropout uses ``dropout_mask`` when given
    (fixed per call, which keeps gradient checks exact) or draws one from
    ``rng``; with neither it is a ValueError, so no mask comes from an
    unseeded generator. Returns (features, cache).
    """
    x = _check_input(x, params)
    a = params.arrays
    (h1f, h1b), cache = _layer_forward("enc1", x, a)
    out1 = np.concatenate([h1f, h1b], axis=2)

    dropout = params.config.dropout
    mask = None
    if train_mode and dropout > 0.0:
        if dropout_mask is not None:
            mask = np.asarray(dropout_mask, dtype=np.float64)
            if mask.shape != out1.shape:
                raise ValueError(f"dropout mask shape {mask.shape} != {out1.shape}")
        elif rng is not None:
            mask = make_dropout_mask(out1.shape, dropout, rng)
        else:
            raise ValueError("train-mode dropout needs a dropout_mask or an rng")
        out1 *= mask

    (h2f, h2b), caches2 = _layer_forward("enc2", out1, a)

    if params.config.pooling == "final":
        features = np.concatenate([h2f[:, -1], h2b[:, 0]], axis=1)
    else:
        features = np.concatenate([h2f, h2b], axis=2).mean(axis=1)

    cache |= caches2 | {"mask": mask, "width": x.shape[1], "pooling": params.config.pooling}
    return features, cache


def encoder_backward(dfeatures: np.ndarray, cache, params: ModelParams):
    """Gradients of every encoder array given dLoss/dfeatures.

    The pass consumes ``cache``: it pops each direction's cache before
    backpropagating through it, so that direction's slabs are freed before
    the next one runs. A second backward pass on the same cache raises
    ValueError; run the forward pass again instead."""
    if "enc2_fwd" not in cache:
        raise ValueError(
            "the forward cache was consumed by an earlier backward pass; "
            "run the forward pass again"
        )
    a = params.arrays
    h = params.config.hidden_size
    batch = dfeatures.shape[0]
    width = cache["width"]

    dh2f = np.zeros((batch, width, h))
    dh2b = np.zeros((batch, width, h))
    if cache["pooling"] == "final":
        dh2f[:, -1] = dfeatures[:, :h]
        dh2b[:, 0] = dfeatures[:, h:]
    else:
        dh2f += dfeatures[:, None, :h] / width
        dh2b += dfeatures[:, None, h:] / width

    (dout1, dx2b), grads2 = _layer_backward("enc2", (dh2f, dh2b), cache, a)
    dout1 += dx2b
    if cache["mask"] is not None:
        dout1 *= cache["mask"]
    # nothing takes the gradient of the model input, so layer 1 skips it
    _, grads1 = _layer_backward(
        "enc1", (dout1[:, :, :h], dout1[:, :, h:]), cache, a, input_grad=False
    )
    return grads1 | grads2


def model_forward(
    x: np.ndarray,
    params: ModelParams,
    *,
    train_mode: bool = False,
    dropout_mask: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
):
    """Full forward pass: (logits1, logits2, cache)."""
    features, cache = encoder_forward(
        x, params, train_mode=train_mode, dropout_mask=dropout_mask, rng=rng
    )
    a = params.arrays
    logits1, logits2 = (features @ a[f"{head}_w"] + a[f"{head}_b"] for head in _HEADS)
    cache["features"] = features
    return logits1, logits2, cache


def model_backward(dlogits1, dlogits2, cache, params: ModelParams):
    """Gradients for every parameter array given the logit gradients.

    The pass consumes ``cache`` (see ``encoder_backward``): a second
    backward pass on the same cache raises ValueError."""
    a, features = params.arrays, cache["features"]
    head_grads = {}
    for head, dlogits in zip(_HEADS, (dlogits1, dlogits2)):
        head_grads[f"{head}_w"] = features.T @ dlogits
        head_grads[f"{head}_b"] = dlogits.sum(axis=0)
    dfeatures = dlogits1 @ a["head1_w"].T + dlogits2 @ a["head2_w"].T
    return encoder_backward(dfeatures, cache, params) | head_grads
