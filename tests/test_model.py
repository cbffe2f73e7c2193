"""Network forward/backward correctness, loss math, optimizer, scheduler,
and the training loop."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from harforge.model import (
    LossConfig,
    ModelConfig,
    ModelParams,
    PlateauScheduler,
    TrainConfig,
    TrainingDivergedError,
    adamw_step,
    cross_entropy,
    encoder_backward,
    encoder_forward,
    focal_transform,
    hierarchical_focal_loss,
    hierarchical_focal_loss_grads,
    hierarchical_loss,
    init_optim_state,
    init_params,
    load_checkpoint,
    log_softmax,
    loss_and_grads,
    loss_value,
    make_dropout_mask,
    model_backward,
    model_forward,
    predict,
    save_checkpoint,
    softmax,
    train,
    windows_to_arrays,
)
from harforge.model.losses import focal_grad_wrt_ce
import harforge.model.network as network
from harforge.model.network import (
    _ARRAY_ORDER,
    POOLING_MODES,
    _lstm_backward,
    _lstm_forward,
)


class TestInit:
    def test_shapes(self):
        p = init_params(5, 4, 13)
        h = 4
        assert p.arrays["enc1_fwd_wx"].shape == (5, 4 * h)
        assert p.arrays["enc1_fwd_wh"].shape == (h, 4 * h)
        assert p.arrays["enc1_fwd_b"].shape == (4 * h,)
        assert p.arrays["enc2_fwd_wx"].shape == (2 * h, 4 * h)
        assert p.arrays["enc2_bwd_wh"].shape == (h, 4 * h)
        assert p.arrays["head1_w"].shape == (2 * h, 3)
        assert p.arrays["head1_b"].shape == (3,)
        assert p.arrays["head2_w"].shape == (2 * h, 13)
        assert p.arrays["head2_b"].shape == (13,)
        assert set(p.arrays) == set(_ARRAY_ORDER)

    def test_bounds_follow_fan_in(self):
        p = init_params(5, 32, 13, seed=3)
        assert np.abs(p.arrays["enc1_fwd_wx"]).max() <= 1.0 / math.sqrt(5)
        assert np.abs(p.arrays["enc1_fwd_wh"]).max() <= 1.0 / math.sqrt(32)
        assert np.abs(p.arrays["enc2_fwd_wx"]).max() <= 1.0 / math.sqrt(64)
        assert np.abs(p.arrays["head2_w"]).max() <= 1.0 / math.sqrt(64)
        # bounds are tight enough that draws actually approach them
        assert np.abs(p.arrays["enc1_fwd_wx"]).max() > 0.9 / math.sqrt(5)

    def test_draw_order_is_pinned(self):
        # replaying the documented array order on a fresh generator must
        # reproduce the exact parameter values
        p = init_params(5, 6, 13, seed=11)
        rng = np.random.default_rng(11)
        fan_in = {
            "enc1_fwd_wx": 5, "enc1_fwd_wh": 6, "enc1_fwd_b": 6,
            "enc1_bwd_wx": 5, "enc1_bwd_wh": 6, "enc1_bwd_b": 6,
            "enc2_fwd_wx": 12, "enc2_fwd_wh": 6, "enc2_fwd_b": 6,
            "enc2_bwd_wx": 12, "enc2_bwd_wh": 6, "enc2_bwd_b": 6,
            "head1_w": 12, "head1_b": 12, "head2_w": 12, "head2_b": 12,
        }
        for name in _ARRAY_ORDER:
            bound = 1.0 / math.sqrt(fan_in[name])
            want = rng.uniform(-bound, bound, size=p.arrays[name].shape)
            np.testing.assert_array_equal(p.arrays[name], want)

    def test_array_order_is_the_literal_sixteen_names(self):
        # the draw-order test above replays _ARRAY_ORDER itself, so this
        # literal is what pins the random stream behind every checkpoint
        assert _ARRAY_ORDER == (
            "enc1_fwd_wx", "enc1_fwd_wh", "enc1_fwd_b",
            "enc1_bwd_wx", "enc1_bwd_wh", "enc1_bwd_b",
            "enc2_fwd_wx", "enc2_fwd_wh", "enc2_fwd_b",
            "enc2_bwd_wx", "enc2_bwd_wh", "enc2_bwd_b",
            "head1_w", "head1_b", "head2_w", "head2_b",
        )

    def test_seed_determines_values(self):
        a = init_params(5, 8, 13, seed=4)
        b = init_params(5, 8, 13, seed=4)
        c = init_params(5, 8, 13, seed=5)
        for name in _ARRAY_ORDER:
            np.testing.assert_array_equal(a.arrays[name], b.arrays[name])
        assert not np.array_equal(a.arrays["head1_w"], c.arrays["head1_w"])

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            init_params(0, 8, 13)
        with pytest.raises(ValueError, match="pooling"):
            init_params(5, 8, 13, pooling="max")
        with pytest.raises(ValueError, match="dropout"):
            init_params(5, 8, 13, dropout=1.0)

    def test_copy_is_deep(self):
        p = init_params(5, 4, 13)
        q = p.copy()
        q.arrays["head1_b"][0] = 99.0
        assert p.arrays["head1_b"][0] != 99.0


def lstm_oracle(x, wx, wh, b, reverse):
    """Step-by-step scalar-loop reimplementation of one LSTM direction."""
    batch, width, _ = x.shape
    h_dim = wh.shape[0]
    h_seq = np.zeros((batch, width, h_dim))
    h = np.zeros((batch, h_dim))
    c = np.zeros((batch, h_dim))
    order = reversed(range(width)) if reverse else range(width)
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    for t in order:
        z = x[:, t] @ wx + h @ wh + b
        i = sig(z[:, 0 * h_dim : 1 * h_dim])
        f = sig(z[:, 1 * h_dim : 2 * h_dim])
        g = np.tanh(z[:, 2 * h_dim : 3 * h_dim])
        o = sig(z[:, 3 * h_dim : 4 * h_dim])
        c = f * c + i * g
        h = o * np.tanh(c)
        h_seq[:, t] = h
    return h_seq


def hidden_states(x, wx, wh, b, reverse, keep_cache=True):
    """Every step's hidden state of one production-kernel direction."""
    h_seq = np.empty(x.shape[:2] + (wh.shape[0],))
    _lstm_forward(x, wx, wh, b, reverse, h_seq, keep_cache)
    return h_seq


def ref_sigmoid(x):
    """The masked two-branch sigmoid of the per-gate reference kernel."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ref_lstm_forward(x, wx, wh, b, reverse):
    """Per-gate reference kernel: one masked sigmoid per gate and four gate
    caches. The production kernel must match it bit for bit."""
    batch, width, _ = x.shape
    h_dim = wh.shape[0]
    pre = x @ wx + b
    h = np.zeros((batch, h_dim))
    c = np.zeros((batch, h_dim))
    gates_i = np.empty((batch, width, h_dim))
    gates_f = np.empty((batch, width, h_dim))
    gates_g = np.empty((batch, width, h_dim))
    gates_o = np.empty((batch, width, h_dim))
    c_seq = np.empty((batch, width, h_dim))
    h_seq = np.empty((batch, width, h_dim))
    steps = range(width - 1, -1, -1) if reverse else range(width)
    for t in steps:
        z = pre[:, t] + h @ wh
        i_t = ref_sigmoid(z[:, :h_dim])
        f_t = ref_sigmoid(z[:, h_dim : 2 * h_dim])
        g_t = np.tanh(z[:, 2 * h_dim : 3 * h_dim])
        o_t = ref_sigmoid(z[:, 3 * h_dim :])
        c = f_t * c + i_t * g_t
        h = o_t * np.tanh(c)
        gates_i[:, t] = i_t
        gates_f[:, t] = f_t
        gates_g[:, t] = g_t
        gates_o[:, t] = o_t
        c_seq[:, t] = c
        h_seq[:, t] = h
    cache = {
        "x": x,
        "i": gates_i,
        "f": gates_f,
        "g": gates_g,
        "o": gates_o,
        "c": c_seq,
        "h": h_seq,
        "reverse": reverse,
    }
    return h_seq, cache


def ref_lstm_backward(dh_seq, cache, wx, wh):
    """Backward pass of the per-gate reference kernel."""
    x = cache["x"]
    gates_i, gates_f = cache["i"], cache["f"]
    gates_g, gates_o = cache["g"], cache["o"]
    c_seq, h_seq = cache["c"], cache["h"]
    reverse = cache["reverse"]
    batch, width, h_dim = h_seq.shape
    dz_seq = np.empty((batch, width, 4 * h_dim))
    d_wh = np.zeros_like(wh)
    dh_carry = np.zeros((batch, h_dim))
    dc_carry = np.zeros((batch, h_dim))
    zeros = np.zeros((batch, h_dim))
    steps = range(width) if reverse else range(width - 1, -1, -1)
    for t in steps:
        prev_t = t + 1 if reverse else t - 1
        in_range = 0 <= prev_t < width
        h_prev = h_seq[:, prev_t] if in_range else zeros
        c_prev = c_seq[:, prev_t] if in_range else zeros
        i_t, f_t = gates_i[:, t], gates_f[:, t]
        g_t, o_t = gates_g[:, t], gates_o[:, t]
        tanh_c = np.tanh(c_seq[:, t])
        dh = dh_seq[:, t] + dh_carry
        do = dh * tanh_c
        dc = dh * o_t * (1.0 - tanh_c**2) + dc_carry
        di = dc * g_t
        dg = dc * i_t
        df = dc * c_prev
        dz = dz_seq[:, t]
        dz[:, :h_dim] = di * i_t * (1.0 - i_t)
        dz[:, h_dim : 2 * h_dim] = df * f_t * (1.0 - f_t)
        dz[:, 2 * h_dim : 3 * h_dim] = dg * (1.0 - g_t**2)
        dz[:, 3 * h_dim :] = do * o_t * (1.0 - o_t)
        d_wh += h_prev.T @ dz
        dh_carry = dz @ wh.T
        dc_carry = dc * f_t
    flat_x = x.reshape(batch * width, -1)
    flat_dz = dz_seq.reshape(batch * width, 4 * h_dim)
    d_wx = flat_x.T @ flat_dz
    d_b = flat_dz.sum(axis=0)
    dx = (flat_dz @ wx.T).reshape(x.shape)
    return dx, d_wx, d_wh, d_b


def ref_unit_forward(x, wx, wh, b, reverse, h_seq=None, keep_cache=True):
    """The reference kernel behind the production kernel's signature."""
    h_ref, cache = ref_lstm_forward(x, wx, wh, b, reverse)
    if h_seq is not None:
        h_seq[...] = h_ref
    return h_ref[:, 0 if reverse else -1].copy(), cache if keep_cache else None


def ref_unit_backward(dh_seq, cache, wx, wh):
    """The reference backward pass, given the gradient of a (B, H) last step
    as the zero-filled (B, W, H) slab that carried it before."""
    if dh_seq.ndim == 2:
        h_seq = cache["h"]
        last = 0 if cache["reverse"] else -1
        dh_seq, dh_last = np.zeros_like(h_seq), dh_seq
        dh_seq[:, last] = dh_last
    return ref_lstm_backward(dh_seq, cache, wx, wh)


class TestLstmForward:
    def test_matches_recurrence_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 7, 5))
        wx = rng.normal(scale=0.4, size=(5, 8))
        wh = rng.normal(scale=0.4, size=(2, 8))
        b = rng.normal(scale=0.2, size=(8,))
        for reverse in (False, True):
            np.testing.assert_allclose(
                hidden_states(x, wx, wh, b, reverse), lstm_oracle(x, wx, wh, b, reverse), atol=1e-12
            )

    def test_single_step_hand_computation(self):
        # one unit, one step: every gate reduces to a scalar formula
        x = np.array([[[2.0]]])
        wx = np.array([[0.5, -0.25, 1.0, 0.75]])
        wh = np.zeros((1, 4))
        b = np.array([0.1, 0.2, -0.3, 0.0])
        h_seq = hidden_states(x, wx, wh, b, False)
        sig = lambda v: 1.0 / (1.0 + math.exp(-v))
        i = sig(2.0 * 0.5 + 0.1)
        f = sig(2.0 * -0.25 + 0.2)
        g = math.tanh(2.0 * 1.0 - 0.3)
        o = sig(2.0 * 0.75 + 0.0)
        c = i * g  # no previous cell
        assert h_seq[0, 0, 0] == pytest.approx(o * math.tanh(c), abs=1e-15)

    def test_zero_parameters_give_zero_output(self):
        p = init_params(5, 4, 13)
        for arr in p.arrays.values():
            arr[...] = 0.0
        x = np.random.default_rng(0).normal(size=(2, 6, 5))
        logits1, logits2, _ = model_forward(x, p)
        np.testing.assert_array_equal(logits1, np.zeros((2, 3)))
        np.testing.assert_array_equal(logits2, np.zeros((2, 13)))


def kernel_case(shape, hidden, reverse):
    """Input and weights whose first step sees gate pre-activations of
    exactly 0.0, of |z| > 40 and of |z| > 745 (see TestKernelMatchesReference)."""
    rng = np.random.default_rng(sum(shape) + hidden)
    scale = np.resize([0.0, 1.0, 60.0, 1500.0, 1e4], 4 * hidden)
    x = rng.normal(size=shape)
    wx = rng.normal(scale=0.5, size=(shape[2], 4 * hidden)) * scale
    wh = rng.normal(scale=0.5, size=(hidden, 4 * hidden)) * scale
    b = rng.normal(scale=0.2, size=4 * hidden) * scale
    first = x[:, -1 if reverse else 0] @ wx + b  # the first step has h = 0
    assert (first == 0.0).any()
    assert (np.abs(first) > 40.0).any()
    assert (np.abs(first) > 745.0).any()
    return rng, x, wx, wh, b


#: Widths 1 and 2 put every step of the backward pass at an edge of the
#: recomputed h_{t-1}: no previous step, or a previous step that is the first.
KERNEL_SHAPES = [
    ((1, 1, 5), 3), ((3, 7, 5), 4), ((256, 60, 64), 32), ((4, 1, 5), 3), ((4, 2, 5), 3)
]


class TestKernelMatchesReference:
    """The fused kernel is bit-identical to the per-gate reference, including
    saturated and underflowing gates. Each weight column is scaled by one of
    0, 1, 60, 1500 or 10^4, so the gate blocks see pre-activations of exactly
    0.0 (zero column, zero bias), of |z| > 40 and of |z| beyond 745, where
    exp(-|z|) underflows to 0. (z = -0.0 cannot reach the gates: a
    BLAS sum of zero products is +0.0.) The production cache holds no
    hidden states: the backward pass recomputes them from the gates and the
    cell states."""

    @pytest.mark.parametrize("shape, hidden", KERNEL_SHAPES)
    @pytest.mark.parametrize("reverse", [False, True])
    def test_forward_and_backward_are_bit_identical(self, shape, hidden, reverse):
        rng, x, wx, wh, b = kernel_case(shape, hidden, reverse)
        h_ref, cache_ref = ref_lstm_forward(x, wx, wh, b, reverse)
        h_new = np.empty_like(h_ref)
        last, cache_new = _lstm_forward(x, wx, wh, b, reverse, h_new)
        np.testing.assert_array_equal(h_new, h_ref)
        assert np.array_equal(last, h_ref[:, 0 if reverse else -1])
        assert sorted(cache_new) == ["c", "gates", "reverse", "x"]
        # an inference pass keeps no cache and computes the same states
        last_inf, no_cache = _lstm_forward(x, wx, wh, b, reverse, keep_cache=False)
        assert no_cache is None
        assert np.array_equal(last_inf, last)
        assert np.array_equal(hidden_states(x, wx, wh, b, reverse, keep_cache=False), h_ref)

        dh_seq = rng.normal(size=h_ref.shape)
        want = ref_lstm_backward(dh_seq, cache_ref, wx, wh)
        got = _lstm_backward(dh_seq, cache_new, wx, wh)
        for name, g, w in zip(("dx", "d_wx", "d_wh", "d_b"), got, want):
            assert np.array_equal(g, w), name

    @pytest.mark.parametrize("shape, hidden", KERNEL_SHAPES)
    @pytest.mark.parametrize("reverse", [False, True])
    def test_last_step_gradient_matches_a_zero_filled_slab(self, shape, hidden, reverse):
        # final pooling hands the backward pass the (B, H) gradient of the
        # direction's last step; signed zeros included, it must act as the
        # zero-filled (B, W, H) slab that carried it before
        rng, x, wx, wh, b = kernel_case(shape, hidden, reverse)
        dh_last = rng.normal(size=(shape[0], hidden))
        dh_last[:, ::3] = -0.0
        dh_slab = np.zeros(shape[:2] + (hidden,))
        dh_slab[:, 0 if reverse else -1] = dh_last
        want = ref_lstm_backward(dh_slab, ref_lstm_forward(x, wx, wh, b, reverse)[1], wx, wh)
        got = _lstm_backward(dh_last, _lstm_forward(x, wx, wh, b, reverse)[1], wx, wh)
        for name, g, w in zip(("dx", "d_wx", "d_wh", "d_b"), got, want):
            assert np.array_equal(g, w), name


def benchmark_batch(pooling="final", dropout=0.1, batch=256):
    """A batch at the train benchmark's shape: 256 windows of width 60,
    hidden size 32 and dropout 0.1."""
    rng = np.random.default_rng(21)
    x = rng.normal(size=(batch, 60, 5))
    y1 = rng.integers(0, 3, size=batch)
    y2 = rng.integers(0, 13, size=batch)
    return init_params(5, 32, 13, seed=6, dropout=dropout, pooling=pooling), x, y1, y2


def traced_peak(run) -> int:
    """The tracemalloc peak of one call, in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBenchmarkShape:
    @pytest.mark.parametrize(
        "pooling, dropout",
        [
            pytest.param("final", 0.1, id="final"),
            pytest.param("mean", 0.1, id="mean"),
            pytest.param("final", 0.0, id="final-no-dropout"),
            pytest.param("mean", 0.0, id="mean-no-dropout"),
        ],
    )
    def test_loss_and_grads_match_the_reference_kernel(self, pooling, dropout, monkeypatch):
        params, x, y1, y2 = benchmark_batch(pooling, dropout)
        fused = loss_and_grads(params, x, y1, y2, rng=np.random.default_rng(8))
        # the same draws as a keep array; without dropout nothing is drawn
        keep = np.random.default_rng(8).random((256, 60, 64)) >= 0.1 if dropout else None
        monkeypatch.setattr(network, "_lstm_forward", ref_unit_forward)
        monkeypatch.setattr(network, "_lstm_backward", ref_unit_backward)
        reference = loss_and_grads(params, x, y1, y2, dropout_mask=keep)
        assert fused[0] == reference[0]
        for name in _ARRAY_ORDER:
            assert np.array_equal(fused[1][name], reference[1][name]), name
        for name, part in reference[2].items():
            assert np.array_equal(fused[2][name], part), name

    def test_loss_and_grads_peak_memory_is_bounded(self):
        """Each direction's cache holds one (B, W, 4H) slab, 15 MiB here,
        which holds its pre-activations, then its gates, then dz, and its
        cell states, 3.75 MiB; the backward pass recomputes the hidden
        states and frees each direction's cache once it is through. One more
        such slab per pass takes the traced peak (89 MiB) over the bound."""
        params, x, y1, y2 = benchmark_batch()
        peak = traced_peak(lambda: loss_and_grads(params, x, y1, y2, rng=np.random.default_rng(8)))
        assert peak < 100 * 2**20

    @pytest.mark.parametrize(
        "batch, run, bound_mib",
        [
            pytest.param(879, lambda p, x: model_forward(x, p), 100, id="validation-forward"),
            pytest.param(1024, lambda p, x: predict(p, x), 105, id="predict"),
        ],
    )
    def test_inference_peak_memory_is_bounded(self, batch, run, bound_mib):
        """An inference pass keeps no cache: each direction holds one
        (B, W, 4H) pre-activation slab at a time (51.5 MiB for the 879
        windows of the default cohort's width-60 validation set, 60 MiB for
        a predict batch of 1024), and the layer-1 outputs (a quarter of that)
        are the input of layer 2. Traced peaks 81 and 95 MiB; a gate slab kept
        past its direction takes them over the bound."""
        params, x, _, _ = benchmark_batch(batch=batch)
        assert traced_peak(lambda: run(params, x)) < bound_mib * 2**20


class TestBackwardConsumesCache:
    """A backward pass writes dz over the gate slabs of its cache, so a
    second one on the same cache must fail instead of using them."""

    def test_second_model_backward_raises(self):
        params = init_params(5, 4, 6, seed=1, dropout=0.2)
        x = np.random.default_rng(3).normal(size=(3, 5, 5))
        logits1, logits2, cache = model_forward(
            x, params, train_mode=True, keep_cache=True, rng=np.random.default_rng(0)
        )
        model_backward(np.ones_like(logits1), np.ones_like(logits2), cache, params)
        assert cache["width"] == 5  # the traced benchmark names its spans by it
        with pytest.raises(ValueError, match="consumed by an earlier backward pass"):
            model_backward(np.ones_like(logits1), np.ones_like(logits2), cache, params)

    def test_second_encoder_backward_raises(self):
        params = init_params(5, 4, 6, seed=1, dropout=0.0, pooling="mean")
        x = np.random.default_rng(3).normal(size=(3, 5, 5))
        features, cache = encoder_forward(x, params, train_mode=True, keep_cache=True)
        encoder_backward(np.ones_like(features), cache, params)
        with pytest.raises(ValueError, match="consumed by an earlier backward pass"):
            encoder_backward(np.ones_like(features), cache, params)

    @pytest.mark.parametrize("train_mode", [False, True])
    def test_backward_on_an_inference_pass_raises(self, train_mode):
        params = init_params(5, 4, 6, seed=1, dropout=0.2)
        x = np.random.default_rng(3).normal(size=(3, 5, 5))
        logits1, logits2, cache = model_forward(
            x, params, train_mode=train_mode, rng=np.random.default_rng(0)
        )
        assert cache is None
        with pytest.raises(ValueError, match="kept no cache"):
            model_backward(np.ones_like(logits1), np.ones_like(logits2), cache, params)
        features, cache = encoder_forward(x, params)
        with pytest.raises(ValueError, match="kept no cache"):
            encoder_backward(np.ones_like(features), cache, params)


class TestInferencePass:
    @pytest.mark.parametrize("pooling", POOLING_MODES)
    @pytest.mark.parametrize("train_mode", [False, True])
    def test_logits_match_a_caching_forward(self, pooling, train_mode):
        params = init_params(5, 6, 13, seed=2, dropout=0.3, pooling=pooling)
        x = np.random.default_rng(4).normal(size=(9, 11, 5))
        keep = make_dropout_mask((9, 11, 12), 0.3, np.random.default_rng(5))
        kwargs = {"train_mode": train_mode, "dropout_mask": keep}
        *cached, cache = model_forward(x, params, keep_cache=True, **kwargs)
        *inferred, no_cache = model_forward(x, params, **kwargs)
        assert cache is not None and no_cache is None
        for got, want in zip(inferred, cached):
            assert np.array_equal(got, want)

    def test_keep_array_applies_the_float_mask_products(self):
        # the scaled float mask the keep array replaced, -0.0 of a dropped
        # negative included
        rng = np.random.default_rng(6)
        a = rng.normal(size=(50, 7, 6))
        keep = make_dropout_mask(a.shape, 0.4, rng)
        assert keep.dtype == np.bool_ and keep.any() and not keep.all()
        want = a * (keep.astype(np.float64) / (1.0 - 0.4))
        got = a.copy()
        network._apply_dropout(got, keep, 0.4)
        assert np.signbit(got[~keep & (a < 0)]).all()
        assert got.tobytes() == want.tobytes()

    def test_float_dropout_mask_rejected(self):
        params = init_params(5, 4, 6, dropout=0.2)
        x = np.random.default_rng(3).normal(size=(3, 5, 5))
        with pytest.raises(ValueError, match="boolean keep array"):
            model_forward(x, params, train_mode=True, dropout_mask=np.ones((3, 5, 8)))
        with pytest.raises(ValueError, match=r"shape \(3, 5, 6\) != \(3, 5, 8\)"):
            model_forward(x, params, train_mode=True, dropout_mask=np.ones((3, 5, 6), bool))


class TestPoolingAndInput:
    def test_final_pooling_concatenates_end_states(self):
        p = init_params(5, 4, 13, seed=9, dropout=0.0)
        x = np.random.default_rng(1).normal(size=(2, 6, 5))
        from harforge.model import encoder_forward

        feats, cache = encoder_forward(x, p)
        a = p.arrays
        h2f = hidden_states(
            np.concatenate(
                [
                    hidden_states(x, a["enc1_fwd_wx"], a["enc1_fwd_wh"], a["enc1_fwd_b"], False),
                    hidden_states(x, a["enc1_bwd_wx"], a["enc1_bwd_wh"], a["enc1_bwd_b"], True),
                ],
                axis=2,
            ),
            a["enc2_fwd_wx"],
            a["enc2_fwd_wh"],
            a["enc2_fwd_b"],
            False,
        )
        np.testing.assert_allclose(feats[:, :4], h2f[:, -1], atol=1e-12)

    def test_mean_pooling_averages_over_time(self):
        from harforge.model import encoder_forward

        p = init_params(5, 4, 13, seed=9, dropout=0.0, pooling="mean")
        x = np.random.default_rng(1).normal(size=(2, 8, 5))
        feats, _ = encoder_forward(x, p)
        a = p.arrays
        out1 = np.concatenate(
            [
                hidden_states(x, a["enc1_fwd_wx"], a["enc1_fwd_wh"], a["enc1_fwd_b"], False),
                hidden_states(x, a["enc1_bwd_wx"], a["enc1_bwd_wh"], a["enc1_bwd_b"], True),
            ],
            axis=2,
        )
        h2f = hidden_states(out1, a["enc2_fwd_wx"], a["enc2_fwd_wh"], a["enc2_fwd_b"], False)
        h2b = hidden_states(out1, a["enc2_bwd_wx"], a["enc2_bwd_wh"], a["enc2_bwd_b"], True)
        want = np.concatenate([h2f, h2b], axis=2).mean(axis=1)
        np.testing.assert_allclose(feats, want, atol=1e-12)

    def test_input_shape_and_finiteness_checked(self):
        p = init_params(5, 4, 13)
        with pytest.raises(ValueError, match="shape"):
            model_forward(np.zeros((2, 6, 4)), p)
        bad = np.zeros((2, 6, 5))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            model_forward(bad, p)

    def test_train_mode_dropout_needs_a_mask_or_an_rng(self):
        # an unseeded draw would break the same-seeds promise
        p = init_params(5, 4, 13, dropout=0.2)
        x = np.random.default_rng(1).normal(size=(2, 6, 5))
        with pytest.raises(ValueError, match="needs a dropout_mask or an rng"):
            model_forward(x, p, train_mode=True)
        # nothing is drawn without dropout or outside train mode
        model_forward(x, init_params(5, 4, 13, dropout=0.0), train_mode=True)
        model_forward(x, p)


class TestLossMath:
    def test_log_softmax_matches_naive(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(scale=3.0, size=(50, 7))
        naive = np.log(np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True))
        np.testing.assert_allclose(log_softmax(logits), naive, atol=1e-12)

    def test_log_softmax_stable_for_huge_logits(self):
        out = log_softmax(np.array([[1e6, 0.0, -1e6]]))
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_cross_entropy_matches_naive(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(scale=2.0, size=(40, 13))
        labels = rng.integers(0, 13, size=40)
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        naive = -np.log(probs[np.arange(40), labels])
        np.testing.assert_allclose(cross_entropy(logits, labels), naive, atol=1e-12)

    def test_cross_entropy_single_row(self):
        got = cross_entropy(np.array([1.0, 2.0, 3.0]), 2)
        want = -math.log(math.exp(3.0) / sum(math.exp(v) for v in (1.0, 2.0, 3.0)))
        assert got == pytest.approx(want, abs=1e-12)
        assert isinstance(got, float)

    def test_cross_entropy_label_range(self):
        with pytest.raises(ValueError, match="outside"):
            cross_entropy(np.array([1.0, 2.0]), 2)
        with pytest.raises(ValueError, match="class range"):
            cross_entropy(np.zeros((2, 3)), np.array([0, 3]))

    def test_focal_transform_reference_value(self):
        # ce = ln 2 puts the true-class probability at exactly 1/2
        got = focal_transform(math.log(2.0), alpha=2.0, gamma=2.0)
        assert got == pytest.approx(0.34657359, abs=1e-6)

    def test_focal_gamma_zero_is_scaled_identity(self):
        ce = np.array([0.0, 0.3, 2.5])
        np.testing.assert_array_equal(focal_transform(ce, alpha=1.5, gamma=0.0), 1.5 * ce)

    def test_focal_damps_confident_samples(self):
        assert focal_transform(0.01) < 0.01 * 2.0 * 0.01
        assert focal_transform(5.0) == pytest.approx(2.0 * (1 - math.exp(-5.0)) ** 2 * 5.0)

    def test_focal_rejects_negative_ce(self):
        with pytest.raises(ValueError, match="non-negative"):
            focal_transform(-0.1)

    def test_focal_grad_matches_finite_differences(self):
        for gamma in (0.0, 1.0, 2.0, 3.5):
            for ce in (1e-4, 0.1, 0.7, 3.0):
                h = 1e-7
                num = (
                    focal_transform(ce + h, 2.0, gamma)
                    - focal_transform(ce - h, 2.0, gamma)
                ) / (2 * h)
                ana = focal_grad_wrt_ce(ce, 2.0, gamma)
                assert ana == pytest.approx(num, rel=1e-5, abs=1e-7)

    def test_focal_grad_finite_at_zero_ce(self):
        assert focal_grad_wrt_ce(0.0, 2.0, 2.0) == 0.0
        assert focal_grad_wrt_ce(0.0, 2.0, 0.5) == 0.0

    def test_hierarchical_total_arithmetic(self):
        cfg = LossConfig(lambda1=0.3, lambda2=1.0)
        assert hierarchical_loss(2.0, 5.0, cfg) == pytest.approx(0.3 * 2.0 + 5.0)

    def test_hierarchical_focal_loss_reduces_each_level(self):
        rng = np.random.default_rng(5)
        logits1 = rng.normal(size=(8, 3))
        logits2 = rng.normal(size=(8, 13))
        y1 = rng.integers(0, 3, size=8)
        y2 = rng.integers(0, 13, size=8)
        cfg = LossConfig(lambda1=0.3, lambda2=1.0, alpha=2.0, gamma=2.0)
        total, parts = hierarchical_focal_loss(logits1, logits2, y1, y2, cfg)
        f1 = focal_transform(cross_entropy(logits1, y1), 2.0, 2.0)
        f2 = focal_transform(cross_entropy(logits2, y2), 2.0, 2.0)
        assert parts["level1"] == pytest.approx(float(np.mean(f1)), abs=1e-15)
        assert parts["level2"] == pytest.approx(float(np.mean(f2)), abs=1e-15)
        assert total == pytest.approx(0.3 * parts["level1"] + parts["level2"], abs=1e-15)

    def test_alpha_one_gamma_zero_equals_weighted_cross_entropy(self):
        rng = np.random.default_rng(6)
        logits1 = rng.normal(size=(16, 3))
        logits2 = rng.normal(size=(16, 13))
        y1 = rng.integers(0, 3, size=16)
        y2 = rng.integers(0, 13, size=16)
        cfg = LossConfig(lambda1=0.3, lambda2=1.0, alpha=1.0, gamma=0.0)
        total, _ = hierarchical_focal_loss(logits1, logits2, y1, y2, cfg)
        want = 0.3 * float(np.mean(cross_entropy(logits1, y1))) + float(
            np.mean(cross_entropy(logits2, y2))
        )
        assert abs(total - want) < 1e-12

    def test_mean_is_unchanged_by_duplication(self):
        rng = np.random.default_rng(7)
        logits1 = rng.normal(size=(4, 3))
        logits2 = rng.normal(size=(4, 13))
        y1 = rng.integers(0, 3, size=4)
        y2 = rng.integers(0, 13, size=4)
        mean_once, _ = hierarchical_focal_loss(logits1, logits2, y1, y2)
        mean_twice, _ = hierarchical_focal_loss(
            np.vstack([logits1, logits1]),
            np.vstack([logits2, logits2]),
            np.concatenate([y1, y1]),
            np.concatenate([y2, y2]),
        )
        assert mean_twice == pytest.approx(mean_once, rel=1e-12)

    def test_loss_grads_match_finite_differences_on_logits(self):
        rng = np.random.default_rng(8)
        logits1 = rng.normal(size=(3, 3))
        logits2 = rng.normal(size=(3, 5))
        y1 = np.array([0, 2, 1])
        y2 = np.array([4, 0, 3])
        cfg = LossConfig()
        total, d1, d2, _ = hierarchical_focal_loss_grads(logits1, logits2, y1, y2, cfg)
        h = 1e-6
        for arr, darr in ((logits1, d1), (logits2, d2)):
            for i in range(arr.shape[0]):
                for j in range(arr.shape[1]):
                    arr[i, j] += h
                    up, _ = hierarchical_focal_loss(logits1, logits2, y1, y2, cfg)
                    arr[i, j] -= 2 * h
                    dn, _ = hierarchical_focal_loss(logits1, logits2, y1, y2, cfg)
                    arr[i, j] += h
                    assert darr[i, j] == pytest.approx((up - dn) / (2 * h), abs=1e-8)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="gamma"):
            LossConfig(gamma=-1.0)
        with pytest.raises(ValueError, match="alpha"):
            LossConfig(alpha=-0.5)


def scalar_params(value: float) -> ModelParams:
    return ModelParams(
        arrays={"w": np.array([[value]])},
        input_size=1,
        n_level1=3,
        n_level2=13,
        config=ModelConfig(hidden_size=1, dropout=0.0),
    )


class TestAdamW:
    def test_ten_step_scalar_trajectory(self):
        cfg = TrainConfig(learning_rate=0.05, weight_decay=0.02)
        params = scalar_params(2.0)
        state = init_optim_state(params)
        w = 2.0
        m = v = 0.0
        for k in range(1, 11):
            g = math.sin(k) + 0.3
            adamw_step(params, {"w": np.array([[g]])}, state, cfg)
            w -= 0.05 * 0.02 * w
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            bc1 = 1.0 - 0.9**k
            bc2 = 1.0 - 0.999**k
            w -= 0.05 * (m / bc1) / (math.sqrt(v / bc2) + 1e-8)
            assert params.arrays["w"][0, 0] == pytest.approx(w, abs=1e-12)
        assert state.step == 10

    def test_zero_gradient_leaves_pure_decay(self):
        cfg = TrainConfig(learning_rate=0.1, weight_decay=0.05)
        params = scalar_params(4.0)
        state = init_optim_state(params)
        for _ in range(7):
            adamw_step(params, {"w": np.zeros((1, 1))}, state, cfg)
        assert params.arrays["w"][0, 0] == pytest.approx(4.0 * (1 - 0.1 * 0.05) ** 7, rel=1e-12)

    def test_no_decay_when_disabled(self):
        cfg = TrainConfig(learning_rate=0.1, weight_decay=0.0)
        params = scalar_params(4.0)
        adamw_step(params, {"w": np.zeros((1, 1))}, init_optim_state(params), cfg)
        assert params.arrays["w"][0, 0] == 4.0

    def test_lr_override_wins(self):
        cfg = TrainConfig(learning_rate=0.1, weight_decay=0.0)
        a = scalar_params(1.0)
        b = scalar_params(1.0)
        g = {"w": np.array([[0.5]])}
        adamw_step(a, g, init_optim_state(a), cfg)
        adamw_step(b, g, init_optim_state(b), cfg, lr=0.01)
        moved_a = 1.0 - a.arrays["w"][0, 0]
        moved_b = 1.0 - b.arrays["w"][0, 0]
        assert moved_b == pytest.approx(moved_a * 0.1, rel=1e-9)

    def test_divergence_detected(self):
        cfg = TrainConfig(learning_rate=0.1)
        params = scalar_params(1.0)
        with np.errstate(invalid="ignore"), pytest.raises(TrainingDivergedError, match="w"):
            adamw_step(params, {"w": np.array([[np.inf]])}, init_optim_state(params), cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError, match="betas"):
            TrainConfig(beta1=1.0)


class TestPlateauScheduler:
    def test_constant_losses_halve_once_after_patience(self):
        sched = PlateauScheduler(lr=0.8, factor=0.5, patience=3)
        rates = [sched.step(1.0) for _ in range(4)]
        assert rates == [0.8, 0.8, 0.8, 0.4]

    def test_improvement_resets_counter(self):
        sched = PlateauScheduler(lr=1.0, factor=0.5, patience=2, threshold=1e-4)
        assert sched.step(1.0) == 1.0
        assert sched.step(1.0) == 1.0  # bad 1
        assert sched.step(0.5) == 1.0  # big improvement resets
        assert sched.step(0.5) == 1.0  # bad 1
        assert sched.step(0.5) == 0.5  # bad 2 -> halve

    def test_improvement_must_clear_threshold(self):
        sched = PlateauScheduler(lr=1.0, factor=0.5, patience=1, threshold=0.01)
        sched.step(1.0)
        # 0.995 is within 1% of the best, so it does not count
        assert sched.step(0.995) == 0.5

    def test_min_lr_floor(self):
        sched = PlateauScheduler(lr=1e-3, factor=0.5, patience=1, min_lr=4e-4)
        sched.step(1.0)
        assert sched.step(1.0) == pytest.approx(5e-4)
        assert sched.step(1.0) == pytest.approx(4e-4)
        assert sched.step(1.0) == pytest.approx(4e-4)


def fd_gradient(params, x, y1, y2, name, index, mask, h=1e-5):
    arr = params.arrays[name]
    flat = arr.ravel()
    old = flat[index]
    flat[index] = old + h
    up = loss_value(params, x, y1, y2, train_mode=mask is not None, dropout_mask=mask)
    flat[index] = old - h
    dn = loss_value(params, x, y1, y2, train_mode=mask is not None, dropout_mask=mask)
    flat[index] = old
    return (up - dn) / (2 * h)


class TestGradientCheck:
    @pytest.mark.parametrize("pooling", ["final", "mean"])
    def test_analytic_gradients_match_finite_differences(self, pooling):
        rng = np.random.default_rng(12)
        params = init_params(5, 3, 6, seed=1, dropout=0.0, pooling=pooling)
        x = rng.normal(size=(2, 5, 5))
        y1 = rng.integers(0, 3, size=2)
        y2 = rng.integers(0, 6, size=2)
        _, grads, _ = loss_and_grads(params, x, y1, y2, train_mode=False)
        for name in _ARRAY_ORDER:
            arr = params.arrays[name]
            for index in range(arr.size):
                num = fd_gradient(params, x, y1, y2, name, index, None)
                ana = grads[name].ravel()[index]
                denom = max(1.0, abs(num), abs(ana))
                assert abs(num - ana) / denom <= 1e-6, (name, index)

    def test_gradients_through_fixed_dropout_mask(self):
        rng = np.random.default_rng(13)
        params = init_params(5, 3, 6, seed=2, dropout=0.4)
        x = rng.normal(size=(2, 4, 5))
        y1 = rng.integers(0, 3, size=2)
        y2 = rng.integers(0, 6, size=2)
        mask = make_dropout_mask((2, 4, 6), 0.4, rng)
        _, grads, _ = loss_and_grads(params, x, y1, y2, dropout_mask=mask)
        for name in ("enc1_fwd_wx", "enc2_bwd_wh", "head2_w", "enc1_bwd_b"):
            arr = params.arrays[name]
            for index in range(0, arr.size, max(1, arr.size // 10)):
                num = fd_gradient(params, x, y1, y2, name, index, mask)
                ana = grads[name].ravel()[index]
                denom = max(1.0, abs(num), abs(ana))
                assert abs(num - ana) / denom <= 1e-6, (name, index)

    def test_batch_order_does_not_change_mean_loss(self):
        rng = np.random.default_rng(14)
        params = init_params(5, 4, 6, seed=3, dropout=0.0)
        x = rng.normal(size=(6, 5, 5))
        y1 = rng.integers(0, 3, size=6)
        y2 = rng.integers(0, 6, size=6)
        base = loss_value(params, x, y1, y2)
        perm = rng.permutation(6)
        shuffled = loss_value(params, x[perm], y1[perm], y2[perm])
        assert shuffled == pytest.approx(base, abs=1e-12)


def separable_data(n_per_class, width=6, seed=0):
    """Two level-2 classes with far-apart constant features."""
    rng = np.random.default_rng(seed)
    xs, y1s, y2s = [], [], []
    for cls, (level, mean) in enumerate((((0), -2.0), ((1), 2.0))):
        x = rng.normal(mean, 0.1, size=(n_per_class, width, 5))
        xs.append(x)
        y1s.append(np.full(n_per_class, level))
        y2s.append(np.full(n_per_class, cls))
    return (
        np.concatenate(xs),
        np.concatenate(y1s).astype(np.int64),
        np.concatenate(y2s).astype(np.int64),
    )


class TestTrainLoop:
    def test_learns_a_separable_problem(self):
        x, y1, y2 = separable_data(24)
        params = init_params(5, 6, 2, seed=0, dropout=0.1)
        cfg = TrainConfig(batch_size=16, learning_rate=0.01, max_epochs=25, seed=0)
        best, history = train(params, (x, y1, y2), (x, y1, y2), cfg)
        assert history[-1].get("diverged") is None
        assert max(h["val_acc_l1"] for h in history) == 1.0
        preds = predict(best, x)
        assert (preds.pred1 == y1).mean() == 1.0
        assert (preds.pred2 == y2).mean() == 1.0

    def test_same_seeds_reproduce_history_exactly(self):
        x, y1, y2 = separable_data(12)
        params = init_params(5, 4, 2, seed=1)
        cfg = TrainConfig(batch_size=8, learning_rate=0.005, max_epochs=6, seed=3)
        _, h1 = train(params, (x, y1, y2), (x, y1, y2), cfg)
        _, h2 = train(params, (x, y1, y2), (x, y1, y2), cfg)
        assert h1 == h2

    def test_repeated_training_writes_identical_checkpoints(self, tmp_path):
        x, y1, y2 = separable_data(12)
        params = init_params(5, 4, 2, seed=1, dropout=0.2)
        cfg = TrainConfig(batch_size=7, learning_rate=0.005, max_epochs=3, seed=3)
        for name in ("first.json", "second.json"):
            best, _ = train(params, (x, y1, y2), (x, y1, y2), cfg)
            save_checkpoint(best, tmp_path / name, seed=3)
        assert (tmp_path / "first.json").read_bytes() == (tmp_path / "second.json").read_bytes()

    def test_input_params_untouched(self):
        x, y1, y2 = separable_data(8)
        params = init_params(5, 4, 2, seed=1)
        before = {k: v.copy() for k, v in params.arrays.items()}
        train(params, (x, y1, y2), (x, y1, y2), TrainConfig(max_epochs=2, batch_size=8))
        for name, arr in params.arrays.items():
            np.testing.assert_array_equal(arr, before[name])

    def test_empty_train_set_stops_after_patience(self):
        x, y1, y2 = separable_data(4)
        empty = (np.zeros((0, 6, 5)), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        params = init_params(5, 4, 2, seed=1)
        cfg = TrainConfig(max_epochs=50, early_stopping_patience=3, batch_size=8)
        best, history = train(params, empty, (x, y1, y2), cfg)
        # epoch 0 sets the best; identical losses then stall the run
        assert len(history) == 4
        for name in params.arrays:
            np.testing.assert_array_equal(best.arrays[name], params.arrays[name])

    def test_divergence_is_recorded_not_raised(self):
        x, y1, y2 = separable_data(8)
        params = init_params(5, 4, 2, seed=1)
        cfg = TrainConfig(learning_rate=1e200, max_epochs=10, batch_size=8)
        with np.errstate(over="ignore", invalid="ignore"):
            best, history = train(params, (x, y1, y2), (x, y1, y2), cfg)
        assert history[-1]["diverged"] is True
        assert "error" in history[-1]
        # the returned snapshot predates the blow-up
        assert all(np.all(np.isfinite(a)) for a in best.arrays.values())

    def test_best_snapshot_beats_final_epoch(self):
        x, y1, y2 = separable_data(16)
        params = init_params(5, 5, 2, seed=2)
        cfg = TrainConfig(batch_size=8, learning_rate=0.01, max_epochs=15, seed=1)
        best, history = train(params, (x, y1, y2), (x, y1, y2), cfg)
        best_val = min(h["val_loss"] for h in history)
        from harforge.model import loss_value as lv

        got = lv(best, x, y1, y2)
        assert got == pytest.approx(best_val, rel=1e-9)

    def test_training_is_bit_identical_to_the_reference_kernel(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 12, 5)) * rng.choice([0.1, 1.0, 30.0], size=(40, 1, 5))
        y1 = rng.integers(0, 3, size=40)
        y2 = rng.integers(0, 6, size=40)
        params = init_params(5, 8, 6, seed=4, dropout=0.3)
        cfg = TrainConfig(batch_size=16, learning_rate=0.01, max_epochs=2, seed=2)

        def run(name):
            best, history = train(params, (x, y1, y2), (x[:16], y1[:16], y2[:16]), cfg)
            path = tmp_path / name
            save_checkpoint(best, path, seed=4)
            return path.read_bytes(), history

        fused = run("fused.json")
        calls = []

        def counted_reference(*args):
            calls.append(args[0].shape)
            return ref_unit_forward(*args)

        monkeypatch.setattr(network, "_lstm_forward", counted_reference)
        monkeypatch.setattr(network, "_lstm_backward", ref_unit_backward)
        reference = run("reference.json")
        assert calls
        assert len(fused[1]) == 2
        assert fused == reference


class TestPredict:
    def test_probabilities_sum_to_one(self):
        params = init_params(5, 4, 13, seed=0)
        x = np.random.default_rng(0).normal(size=(9, 6, 5))
        preds = predict(params, x)
        np.testing.assert_allclose(preds.probs1.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(preds.probs2.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_array_equal(preds.pred1, preds.probs1.argmax(axis=1))

    def test_batching_does_not_change_results(self):
        params = init_params(5, 4, 13, seed=0)
        x = np.random.default_rng(1).normal(size=(10, 6, 5))
        a = predict(params, x, batch_size=3)
        b = predict(params, x, batch_size=1024)
        np.testing.assert_allclose(a.probs1, b.probs1, atol=1e-12)
        np.testing.assert_allclose(a.probs2, b.probs2, atol=1e-12)


#: A bad value of each kind for the model's metadata, with the message that
#: rejects it.
BAD_MODEL_FIELDS = [
    ("hidden_size", 4.0, "field 'hidden_size' must be a positive int, got 4.0"),
    ("input_size", True, "field 'input_size' must be a positive int, got True"),
    ("n_level1", 0, "field 'n_level1' must be a positive int, got 0"),
    ("dropout", "0.1", "field 'dropout' must be a real number, got '0.1'"),
    ("dropout", 1.5, "dropout must be in [0, 1), got 1.5"),
    ("pooling", "max", "pooling must be one of ('final', 'mean'), got 'max'"),
]


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        params = init_params(5, 8, 13, seed=7, dropout=0.2, pooling="mean")
        path = tmp_path / "model.json"
        save_checkpoint(
            params, path, seed=7, taxonomy_hash="abc123", config={"width": 30}
        )
        loaded, meta = load_checkpoint(path)
        for name in _ARRAY_ORDER:
            np.testing.assert_array_equal(loaded.arrays[name], params.arrays[name])
        assert (loaded.input_size, loaded.config.hidden_size) == (5, 8)
        assert (loaded.n_level1, loaded.n_level2) == (3, 13)
        assert (loaded.config.dropout, loaded.config.pooling) == (0.2, "mean")
        assert meta == {"seed": 7, "taxonomy_hash": "abc123", "config": {"width": 30}}

    def test_rewriting_a_loaded_model_is_identical(self, tmp_path):
        params = init_params(5, 6, 13, seed=3)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_checkpoint(params, p1, seed=3)
        loaded, _ = load_checkpoint(p1)
        save_checkpoint(loaded, p2, seed=3)
        assert p1.read_bytes() == p2.read_bytes()

    def test_foreign_json_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"kind": "something-else"}')
        with pytest.raises(ValueError, match="not a model checkpoint"):
            load_checkpoint(path)

    @staticmethod
    def _assert_rejected(tmp_path, edit, problem):
        """A width-4 checkpoint with ``edit`` applied to its JSON payload
        fails to load with ``problem`` after its path."""
        path = tmp_path / "model.json"
        save_checkpoint(init_params(5, 4, 13, seed=1), path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: {problem}"

    def test_missing_array_rejected(self, tmp_path):
        def drop_head2_b(payload):
            payload["arrays"] = [a for a in payload["arrays"] if a["name"] != "head2_b"]

        self._assert_rejected(tmp_path, drop_head2_b, "checkpoint has no array 'head2_b'")

    def test_unknown_array_rejected(self, tmp_path):
        def add_head3_b(payload):
            payload["arrays"].append({"name": "head3_b", "shape": [1], "values": [0.0]})

        self._assert_rejected(tmp_path, add_head3_b, "unexpected array 'head3_b' in checkpoint")

    def test_arrays_of_another_width_rejected(self, tmp_path):
        self._assert_rejected(
            tmp_path,
            lambda payload: payload["model"].update(hidden_size=8),
            "array 'enc1_bwd_b' has shape [16] and 16 values, the model needs shape [32]",
        )

    def test_values_not_filling_the_shape_rejected(self, tmp_path):
        self._assert_rejected(
            tmp_path,
            lambda payload: payload["arrays"][0]["values"].pop(),
            "array 'enc1_bwd_b' has shape [16] and 15 values, the model needs shape [16]",
        )

    def test_missing_model_field_rejected(self, tmp_path):
        self._assert_rejected(
            tmp_path,
            lambda payload: payload["model"].pop("pooling"),
            "checkpoint model has no 'pooling'",
        )

    def test_unknown_model_field_rejected(self, tmp_path):
        self._assert_rejected(
            tmp_path,
            lambda payload: payload["model"].update(depth=3),
            "checkpoint model has unknown field 'depth'",
        )


    @pytest.mark.parametrize("field, value, problem", BAD_MODEL_FIELDS)
    def test_model_field_of_the_wrong_kind_rejected(self, tmp_path, field, value, problem):
        self._assert_rejected(
            tmp_path,
            lambda payload: payload["model"].update({field: value}),
            f"checkpoint model {problem}",
        )

    @pytest.mark.parametrize("field, value, problem", BAD_MODEL_FIELDS)
    def test_model_config_and_init_params_reject_the_same_values(self, field, value, problem):
        """The checkpoint's model fields are checked where a model is built,
        so a bad value gets the same message there as in a checkpoint."""
        with pytest.raises(ValueError) as err:
            init_params(**{"input_size": 5, "hidden_size": 4, "n_level2": 13, field: value})
        assert str(err.value) == problem
        if field in {f.name for f in dataclasses.fields(ModelConfig)}:
            with pytest.raises(ValueError) as err:
                ModelConfig(**{field: value})
            assert str(err.value) == problem


class TestWindowsToArrays:
    def test_maps_labels_to_taxonomy_indices(self, taxonomy, window_factory):
        windows = window_factory(
            l1=["Activity", "Sleep"], l2=["Running Exercise", "Sleep"], features=np.ones((4, 5))
        )
        x, y1, y2 = windows_to_arrays(windows, taxonomy)
        assert x.shape == (2, 4, 5)
        assert x is windows.features
        assert y1.tolist() == [
            taxonomy.level1_classes.index("Activity"),
            taxonomy.level1_classes.index("Sleep"),
        ]
        assert y2.tolist() == [
            taxonomy.level2_classes.index("Running Exercise"),
            taxonomy.level2_classes.index("Sleep"),
        ]
        assert y1.dtype == y2.dtype == np.int64

    def test_unknown_label_rejected(self, taxonomy, window_factory):
        with pytest.raises(KeyError):
            windows_to_arrays(window_factory(1, l1="Activity", l2="Juggling"), taxonomy)

    def test_empty_rejected(self, taxonomy, window_factory):
        with pytest.raises(ValueError, match="no windows"):
            windows_to_arrays(window_factory(0), taxonomy)
