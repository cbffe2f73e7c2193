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
``<unit>_wh`` and ``<unit>_b``. Each direction writes its hidden states
straight into its half of the (B, W, 2H) layer output, so layer 1's output
is built without a concatenation; layer 2 writes an output only under mean
pooling, and final pooling reads the last step each direction returns. The
model pass applies the two heads.

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

A direction's cache holds only what the backward pass cannot recompute bit
for bit: its input, its gate slab and its (B, W, H) cell states. It holds
no hidden states: step t of the backward pass recomputes
``h_{t-1} = o_{t-1} * tanh(c_{t-1})`` with the forward pass's two ufunc
calls, from slab row t-1, which still holds its gates because only rows t
and later hold ``dz`` yet, and that tanh is step t-1's ``tanh(c)``. The
cell states are dropped when the step loop ends, before the final GEMMs.
A forward pass keeps its cache only when asked (``keep_cache``); an
inference pass keeps none, so it holds one pre-activation slab at a time
plus layer 1's output, the input of layer 2.

The inverted-dropout mask between the layers is the boolean keep array
(one byte per entry) that ``make_dropout_mask`` draws and ``dropout_mask=``
takes. ``_apply_dropout`` multiplies by it and then by 1/(1-p), in place:
the same IEEE products as a float mask of 1/(1-p) and 0.0, down to the
-0.0 of a dropped negative.

The backward pass consumes its cache: ``_layer_backward`` pops each
direction's cache before it backpropagates through it, layer 2 before
layer 1, so a direction's slabs are freed before the next direction runs,
and a second backward pass on the same cache is an error. Under final
pooling the gradient reaches each direction of layer 2 at its last step
only, so it arrives as one (B, H) array, and under mean pooling as a
broadcast view of one (B, H) array; neither needs a (B, W, H) slab.
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


def _lstm_forward(x, wx, wh, b, reverse: bool, h_seq=None, keep_cache: bool = True):
    """Run one direction of one layer over a (B, W, D) batch.

    Writes each step's hidden state into ``h_seq``, a (B, W, H) array or
    view, when it is given. Returns the last step's hidden state and the
    cache needed by the backward pass: the input, the activated (B, W, 4H)
    gate slab and the cell states, or None when ``keep_cache`` is False.
    The gates are written over the pre-activation slab they come from:
    step t reads ``pre[:, t]`` once, before it stores its gates there.
    ``_lstm_backward`` consumes the cache.
    """
    batch, width, _ = x.shape
    h_dim = wh.shape[0]
    pre = x @ wx  # input contribution for every step at once
    pre += b
    c_seq = np.empty((batch, width, h_dim)) if keep_cache else None
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
        c *= f_t
        np.multiply(i_t, g_t, out=tmp)
        c += tmp
        np.tanh(c, out=tmp)
        np.multiply(o_t, tmp, out=h)
        if keep_cache:
            pre[:, t] = act
            c_seq[:, t] = c
        if h_seq is not None:
            h_seq[:, t] = h
    if not keep_cache:
        return h, None
    return h, {"x": x, "gates": pre, "c": c_seq, "reverse": reverse}


def _lstm_backward(dh_seq, cache, wx, wh):
    """Backpropagate through one direction. dh_seq holds the gradient
    arriving at every per-step hidden output; a (B, H) array is the
    gradient at the direction's last step alone (final pooling). The input
    gradient ``dx`` is None when the cache holds ``input_grad=False``.

    The pass consumes the cache: step t reads ``gates[:, t]`` once and then
    stores its ``dz`` there, so afterwards the gate slab holds ``dz``. The
    hidden state ``h_{t-1} = o_{t-1} * tanh(c_{t-1})`` that step t needs is
    recomputed with the forward pass's two ufunc calls from slab row t-1,
    which still holds its gates, and that tanh is step t-1's ``tanh(c)``.
    The cell states are dropped once the step loop is done."""
    x, gates, c_seq = cache.pop("x"), cache.pop("gates"), cache.pop("c")
    reverse = cache["reverse"]
    batch, width, h_dim = c_seq.shape

    dz_seq = gates
    d_wh = np.zeros_like(wh)
    # per-step scratch, filled in place so the loop allocates nothing
    dh_carry = np.zeros((batch, h_dim))
    dc_carry = np.zeros((batch, h_dim))
    zeros = np.zeros((batch, h_dim))
    if dh_seq.ndim == 2:
        # the last step's gradient starts the carry: 0.0 + v is v + 0.0, so
        # every step adds what a zero-filled (B, W, H) slab would
        dh_carry[...] = dh_seq
        dh_seq = np.broadcast_to(zeros[:, None], (batch, width, h_dim))
    tanh_c = np.empty((batch, h_dim))
    tanh_prev = np.empty_like(tanh_c)
    h_prev = np.empty_like(tanh_c)
    dh = np.empty_like(tanh_c)
    dc = np.empty_like(tanh_c)
    dz = np.zeros((batch, 4 * h_dim))
    slope = np.empty_like(dz)
    d_wh_t = np.empty_like(wh)
    dz_i, dz_f, dz_g, dz_o = _gate_blocks(dz)
    slope_g = _gate_blocks(slope)[2]
    steps = range(width) if reverse else range(width - 1, -1, -1)
    np.tanh(c_seq[:, steps[0]], out=tanh_prev)
    for t in steps:
        prev_t = t + 1 if reverse else t - 1
        tanh_c, tanh_prev = tanh_prev, tanh_c
        act = gates[:, t]
        i_t, f_t, g_t, o_t = _gate_blocks(act)
        if 0 <= prev_t < width:
            c_prev = c_seq[:, prev_t]
            np.tanh(c_prev, out=tanh_prev)
            np.multiply(_gate_blocks(gates[:, prev_t])[3], tanh_prev, out=h_prev)
            h_in = h_prev
        else:
            c_prev = h_in = zeros

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

        np.matmul(h_in.T, dz, out=d_wh_t)
        d_wh += d_wh_t
        np.matmul(dz, wh.T, out=dh_carry)
    del c_seq

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
    """Inverted dropout's boolean keep array: False with probability
    ``dropout``. ``_apply_dropout`` scales the kept entries by
    1/(1-dropout), so the expected activation is unchanged."""
    return rng.random(shape) >= dropout


def _apply_dropout(a: np.ndarray, keep: np.ndarray, dropout: float) -> None:
    """Multiply ``a`` in place by ``keep`` (as 1.0 and 0.0), then by
    1/(1-dropout). These are the IEEE products of ``a`` and a float mask of
    1/(1-dropout) and 0.0, the -0.0 of a dropped negative included: v * 1.0
    is v, and a signed zero times a positive factor keeps its sign. (Two
    multiplies masked with ``where=`` give the same bits about 5x slower.)"""
    a *= keep
    a *= 1.0 / (1.0 - dropout)


def _layer_forward(layer: str, x: np.ndarray, arrays, out, keep_cache: bool):
    """Run both directions of one layer over x, writing their hidden states
    into the two halves of ``out`` (B, W, 2H) when it is given. Returns the
    last-step hidden states in direction order and the caches keyed by unit
    name, which is empty without ``keep_cache``."""
    lasts, caches = [], {}
    for k, (direction, reverse) in enumerate(_DIRECTIONS):
        unit = f"{layer}_{direction}"
        wx, wh, b = (arrays[f"{unit}_{part}"] for part in ("wx", "wh", "b"))
        h_dim = wh.shape[0]
        h_seq = None if out is None else out[:, :, k * h_dim : (k + 1) * h_dim]
        last, cache = _lstm_forward(x, wx, wh, b, reverse, h_seq, keep_cache)
        lasts.append(last)
        if keep_cache:
            caches[unit] = cache
    return lasts, caches


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
    keep_cache: bool = False,
    dropout_mask: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
):
    """Encode a batch of windows into fixed-size feature vectors.

    In train mode, inter-layer dropout uses the boolean keep array
    ``dropout_mask`` when given (fixed per call, which keeps gradient checks
    exact) or draws one from ``rng``; with neither it is a ValueError, so no
    mask comes from an unseeded generator. Returns (features, cache); the
    cache is None unless ``keep_cache`` is set, and then it serves one
    ``encoder_backward``.
    """
    x = _check_input(x, params)
    a = params.arrays
    config = params.config
    batch, width, _ = x.shape
    out1 = np.empty((batch, width, 2 * config.hidden_size))
    keep = None
    if train_mode and config.dropout > 0.0:
        if dropout_mask is not None:
            keep = np.asarray(dropout_mask)
            if keep.dtype != np.bool_:
                raise ValueError(f"dropout mask must be a boolean keep array, not {keep.dtype}")
            if keep.shape != out1.shape:
                raise ValueError(f"dropout mask shape {keep.shape} != {out1.shape}")
        elif rng is not None:
            keep = make_dropout_mask(out1.shape, config.dropout, rng)
        else:
            raise ValueError("train-mode dropout needs a dropout_mask or an rng")

    _, cache = _layer_forward("enc1", x, a, out1, keep_cache)
    if keep is not None:
        _apply_dropout(out1, keep, config.dropout)
    # final pooling reads each direction's last step; mean pooling every step
    out2 = np.empty_like(out1) if config.pooling == "mean" else None
    lasts, caches2 = _layer_forward("enc2", out1, a, out2, keep_cache)
    features = np.concatenate(lasts, axis=1) if out2 is None else out2.mean(axis=1)
    if not keep_cache:
        return features, None
    cache |= caches2 | {"keep": keep, "width": width, "pooling": config.pooling}
    return features, cache


def _check_cache(cache) -> None:
    if cache is None:
        raise ValueError(
            "the forward pass kept no cache; run it with keep_cache=True to backpropagate"
        )
    if "enc2_fwd" not in cache:
        raise ValueError(
            "the forward cache was consumed by an earlier backward pass; "
            "run the forward pass again"
        )


def encoder_backward(dfeatures: np.ndarray, cache, params: ModelParams):
    """Gradients of every encoder array given dLoss/dfeatures.

    The pass consumes ``cache``: it pops each direction's cache before
    backpropagating through it, so that direction's slabs are freed before
    the next one runs. A second backward pass on the same cache, or one on
    the None cache of an inference pass, raises ValueError; run the forward
    pass again with ``keep_cache=True`` instead."""
    _check_cache(cache)
    a = params.arrays
    h = params.config.hidden_size
    width = cache["width"]

    if cache["pooling"] == "final":
        # each direction's last step alone reaches the features
        dh2 = (dfeatures[:, :h], dfeatures[:, h:])
    else:
        # every step gets dfeatures / width; adding 0.0 makes a -0.0 +0.0,
        # so each step adds what a zero-filled slab holding the sum would
        per_step = np.add(dfeatures / width, 0.0)[:, None]
        shape = (dfeatures.shape[0], width, h)
        dh2 = tuple(np.broadcast_to(half, shape) for half in (per_step[..., :h], per_step[..., h:]))

    (dout1, dx2b), grads2 = _layer_backward("enc2", dh2, cache, a)
    dout1 += dx2b
    del dx2b
    if cache["keep"] is not None:
        _apply_dropout(dout1, cache["keep"], params.config.dropout)
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
    keep_cache: bool = False,
    dropout_mask: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
):
    """Full forward pass: (logits1, logits2, cache). The cache is None
    unless ``keep_cache`` is set: an inference pass holds one
    pre-activation slab per direction at a time, plus layer 1's outputs."""
    features, cache = encoder_forward(
        x, params, train_mode=train_mode, keep_cache=keep_cache, dropout_mask=dropout_mask, rng=rng
    )
    a = params.arrays
    logits1, logits2 = (features @ a[f"{head}_w"] + a[f"{head}_b"] for head in _HEADS)
    if cache is not None:
        cache["features"] = features
    return logits1, logits2, cache


def model_backward(dlogits1, dlogits2, cache, params: ModelParams):
    """Gradients for every parameter array given the logit gradients.

    The pass consumes ``cache`` (see ``encoder_backward``): a second
    backward pass on the same cache, or one on an inference pass's None
    cache, raises ValueError."""
    _check_cache(cache)
    a, features = params.arrays, cache["features"]
    head_grads = {}
    for head, dlogits in zip(_HEADS, (dlogits1, dlogits2)):
        head_grads[f"{head}_w"] = features.T @ dlogits
        head_grads[f"{head}_b"] = dlogits.sum(axis=0)
    dfeatures = dlogits1 @ a["head1_w"].T + dlogits2 @ a["head2_w"].T
    return encoder_backward(dfeatures, cache, params) | head_grads
