"""Two-layer bidirectional LSTM encoder with analytic gradients, plus the
two affine classification heads, all in plain numpy.

The gate block layout inside every 4H-wide weight slab is [input, forget,
cell, output]. Layer 1 reads the 5-channel minute features; layer 2 reads
the concatenated forward/backward outputs of layer 1 (after inverted
dropout in train mode). The window representation is the concatenation of
the two final hidden states of layer 2 (the forward direction's last step
and the backward direction's first step), or the mean over time of the
concatenated outputs when mean pooling is selected.

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

The backward pass therefore consumes its cache: ``encoder_backward`` pops
each direction's cache before it backpropagates through it, so a
direction's slabs are freed before the next direction runs, and a second
backward pass on the same cache is an error. Results are bit-identical to
the earlier per-gate kernel (four gate caches and a masked sigmoid per
gate), which the tests keep as a reference.

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

    @property
    def feature_size(self) -> int:
        return 2 * self.config.hidden_size

    def copy(self) -> "ModelParams":
        return replace(self, arrays={k: v.copy() for k, v in self.arrays.items()})


def _array_shapes(
    input_size: int, hidden_size: int, n_level1: int, n_level2: int
) -> dict[str, tuple[int, ...]]:
    h = hidden_size
    return {
        "enc1_fwd_wx": (input_size, 4 * h),
        "enc1_fwd_wh": (h, 4 * h),
        "enc1_fwd_b": (4 * h,),
        "enc1_bwd_wx": (input_size, 4 * h),
        "enc1_bwd_wh": (h, 4 * h),
        "enc1_bwd_b": (4 * h,),
        "enc2_fwd_wx": (2 * h, 4 * h),
        "enc2_fwd_wh": (h, 4 * h),
        "enc2_fwd_b": (4 * h,),
        "enc2_bwd_wx": (2 * h, 4 * h),
        "enc2_bwd_wh": (h, 4 * h),
        "enc2_bwd_b": (4 * h,),
        "head1_w": (2 * h, n_level1),
        "head1_b": (n_level1,),
        "head2_w": (2 * h, n_level2),
        "head2_b": (n_level2,),
    }


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
    ``rng``. Returns (features, cache).
    """
    x = _check_input(x, params)
    a = params.arrays
    h1f, cache1f = _lstm_forward(x, a["enc1_fwd_wx"], a["enc1_fwd_wh"], a["enc1_fwd_b"], False)
    h1b, cache1b = _lstm_forward(x, a["enc1_bwd_wx"], a["enc1_bwd_wh"], a["enc1_bwd_b"], True)
    out1 = np.concatenate([h1f, h1b], axis=2)

    dropout = params.config.dropout
    mask = None
    if train_mode and dropout > 0.0:
        if dropout_mask is not None:
            mask = np.asarray(dropout_mask, dtype=np.float64)
            if mask.shape != out1.shape:
                raise ValueError(f"dropout mask shape {mask.shape} != {out1.shape}")
        else:
            mask = make_dropout_mask(out1.shape, dropout, rng or np.random.default_rng())
        out1 *= mask

    h2f, cache2f = _lstm_forward(out1, a["enc2_fwd_wx"], a["enc2_fwd_wh"], a["enc2_fwd_b"], False)
    h2b, cache2b = _lstm_forward(out1, a["enc2_bwd_wx"], a["enc2_bwd_wh"], a["enc2_bwd_b"], True)

    if params.config.pooling == "final":
        features = np.concatenate([h2f[:, -1], h2b[:, 0]], axis=1)
    else:
        features = np.concatenate([h2f, h2b], axis=2).mean(axis=1)

    cache = {
        "cache1f": cache1f,
        "cache1b": cache1b,
        "cache2f": cache2f,
        "cache2b": cache2b,
        "mask": mask,
        "width": x.shape[1],
        "pooling": params.config.pooling,
    }
    return features, cache


def encoder_backward(dfeatures: np.ndarray, cache, params: ModelParams):
    """Gradients of every encoder array given dLoss/dfeatures.

    The pass consumes ``cache``: it pops each direction's cache before
    backpropagating through it, so that direction's slabs are freed before
    the next one runs. A second backward pass on the same cache raises
    ValueError; run the forward pass again instead."""
    if "cache2f" not in cache:
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

    dx2f, dwx2f, dwh2f, db2f = _lstm_backward(dh2f, cache.pop("cache2f"), a["enc2_fwd_wx"], a["enc2_fwd_wh"])
    dx2b, dwx2b, dwh2b, db2b = _lstm_backward(dh2b, cache.pop("cache2b"), a["enc2_bwd_wx"], a["enc2_bwd_wh"])
    dout1 = dx2f
    dout1 += dx2b
    if cache["mask"] is not None:
        dout1 *= cache["mask"]

    dh1f = dout1[:, :, :h]
    dh1b = dout1[:, :, h:]
    # nothing takes the gradient of the model input, so layer 1 skips it
    _, dwx1f, dwh1f, db1f = _lstm_backward(
        dh1f, cache.pop("cache1f") | {"input_grad": False}, a["enc1_fwd_wx"], a["enc1_fwd_wh"]
    )
    _, dwx1b, dwh1b, db1b = _lstm_backward(
        dh1b, cache.pop("cache1b") | {"input_grad": False}, a["enc1_bwd_wx"], a["enc1_bwd_wh"]
    )

    return {
        "enc1_fwd_wx": dwx1f,
        "enc1_fwd_wh": dwh1f,
        "enc1_fwd_b": db1f,
        "enc1_bwd_wx": dwx1b,
        "enc1_bwd_wh": dwh1b,
        "enc1_bwd_b": db1b,
        "enc2_fwd_wx": dwx2f,
        "enc2_fwd_wh": dwh2f,
        "enc2_fwd_b": db2f,
        "enc2_bwd_wx": dwx2b,
        "enc2_bwd_wh": dwh2b,
        "enc2_bwd_b": db2b,
    }


def heads_forward(features: np.ndarray, params: ModelParams):
    """Affine logits for both taxonomy levels."""
    a = params.arrays
    if features.ndim != 2 or features.shape[1] != params.feature_size:
        raise ValueError(
            f"expected features of shape (batch, {params.feature_size}), "
            f"got {features.shape}"
        )
    logits1 = features @ a["head1_w"] + a["head1_b"]
    logits2 = features @ a["head2_w"] + a["head2_b"]
    return logits1, logits2


def heads_backward(features, dlogits1, dlogits2, params: ModelParams):
    """Head gradients plus the gradient flowing back into the features."""
    a = params.arrays
    grads = {
        "head1_w": features.T @ dlogits1,
        "head1_b": dlogits1.sum(axis=0),
        "head2_w": features.T @ dlogits2,
        "head2_b": dlogits2.sum(axis=0),
    }
    dfeatures = dlogits1 @ a["head1_w"].T + dlogits2 @ a["head2_w"].T
    return grads, dfeatures


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
    logits1, logits2 = heads_forward(features, params)
    cache["features"] = features
    return logits1, logits2, cache


def model_backward(dlogits1, dlogits2, cache, params: ModelParams):
    """Gradients for every parameter array given the logit gradients.

    The pass consumes ``cache`` (see ``encoder_backward``): a second
    backward pass on the same cache raises ValueError."""
    head_grads, dfeatures = heads_backward(cache["features"], dlogits1, dlogits2, params)
    grads = encoder_backward(dfeatures, cache, params)
    grads.update(head_grads)
    return grads
