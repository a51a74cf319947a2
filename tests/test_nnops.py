import math

import numpy as np
import pytest

from memefuse import nnops
from fdcheck import check_grads, numeric_grad, rel_err


def test_sigmoid_keeps_float32():
    z = np.linspace(-6, 6, 25, dtype=np.float32)
    assert nnops.sigmoid(z).dtype == np.float32


def test_sigmoid_symmetry():
    z = np.linspace(-30, 30, 601)
    np.testing.assert_allclose(nnops.sigmoid(-z), 1.0 - nnops.sigmoid(z), rtol=0, atol=1e-7)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_saturates_without_warnings(dtype):
    z = np.array([-1e4, -100.0, 0.0, 100.0, 1e4], dtype=dtype)
    with np.errstate(all="raise"):
        s = nnops.sigmoid(z)
    assert np.all((s >= 0) & (s <= 1))
    assert s[0] == 0.0 and s[2] == 0.5 and s[-1] == 1.0


def test_sigmoid_matches_exp_form():
    z = np.linspace(-12, 12, 481)
    np.testing.assert_allclose(nnops.sigmoid(z), 1.0 / (1.0 + np.exp(-z)), rtol=0, atol=1e-7)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(42)
    x = rng.normal(size=(5, 7))
    p = nnops.softmax(x)
    np.testing.assert_allclose(p.sum(axis=-1), np.ones(5), atol=1e-12)
    assert np.all(p > 0)


def test_softmax_shift_invariant():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 4))
    np.testing.assert_allclose(nnops.softmax(x), nnops.softmax(x + 100.0), atol=1e-12)


def test_gelu_known_points():
    # gelu(0) = 0, and gelu(x) - gelu(-x) = x for the tanh form
    assert nnops.gelu(np.array(0.0)) == 0.0
    x = np.linspace(-3, 3, 13)
    np.testing.assert_allclose(nnops.gelu(x) - nnops.gelu(-x), x, atol=1e-12)
    # large positive inputs pass through, large negative die off
    np.testing.assert_allclose(nnops.gelu(np.array([10.0])), [10.0], atol=1e-6)
    np.testing.assert_allclose(nnops.gelu(np.array([-10.0])), [0.0], atol=1e-6)


def test_gelu_grad():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 3))
    d = rng.normal(size=(4, 3))

    def loss():
        return float(np.sum(nnops.gelu(x) * d)), {"x": nnops.gelu_backward(d, x)}

    check_grads(loss, {"x": x})


def _power_form_gelu(x):
    c = float(np.sqrt(2.0 / np.pi))  # a Python float keeps float32 input in float32
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))


def _power_form_gelu_backward(d_out, x):
    c = float(np.sqrt(2.0 / np.pi))  # a Python float keeps float32 input in float32
    t = np.tanh(c * (x + 0.044715 * x**3))
    du = c * (1.0 + 3.0 * 0.044715 * x**2)
    return d_out * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * du)


def test_gelu_matches_power_form():
    # products (x * x * x) in place of numpy's slow float32 power change rounding only
    rng = np.random.default_rng(13)
    x = np.concatenate([np.linspace(-10, 10, 20001), rng.normal(scale=3, size=1000)])
    d = rng.normal(size=x.shape)
    np.testing.assert_allclose(nnops.gelu(x), _power_form_gelu(x), rtol=0, atol=1e-12)
    np.testing.assert_allclose(nnops.gelu_backward(d, x), _power_form_gelu_backward(d, x),
                               rtol=0, atol=1e-12)
    # float32 on [-10, 10]; the backward pass with a unit upstream gradient
    x32, ones = x.astype(np.float32), np.ones(x.shape, dtype=np.float32)
    assert nnops.gelu(x32).dtype == np.float32
    assert nnops.gelu_backward(ones, x32).dtype == np.float32
    np.testing.assert_allclose(nnops.gelu(x32), _power_form_gelu(x32), rtol=0, atol=1e-6)
    np.testing.assert_allclose(nnops.gelu_backward(ones, x32),
                               _power_form_gelu_backward(ones, x32), rtol=0, atol=1e-6)


def test_linear_grads():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 4))
    w = rng.normal(size=(4, 6))
    b = rng.normal(size=(6,))
    d = rng.normal(size=(5, 6))

    def loss():
        y, cache = nnops.linear_forward(x, w, b)
        dx, dw, db = nnops.linear_backward(d, cache)
        return float(np.sum(y * d)), {"x": dx, "w": dw, "b": db}

    check_grads(loss, {"x": x, "w": w, "b": b})


def test_layernorm_forward_normalizes():
    rng = np.random.default_rng(11)
    x = rng.normal(loc=3.0, scale=2.0, size=(6, 16))
    y, _ = nnops.layernorm_forward(x, np.ones(16), np.zeros(16))
    np.testing.assert_allclose(y.mean(axis=-1), np.zeros(6), atol=1e-12)
    np.testing.assert_allclose(y.var(axis=-1), np.ones(6), atol=1e-3)


def test_layernorm_grads():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 8))
    g = rng.normal(size=(8,))
    b = rng.normal(size=(8,))
    d = rng.normal(size=(4, 8))

    def loss():
        y, cache = nnops.layernorm_forward(x, g, b)
        dx, dg, db = nnops.layernorm_backward(d, cache)
        return float(np.sum(y * d)), {"x": dx, "g": dg, "b": db}

    check_grads(loss, {"x": x, "g": g, "b": b})


def test_attention_output_shape_and_rows():
    rng = np.random.default_rng(9)
    q = rng.normal(size=(5, 8))
    k = rng.normal(size=(7, 8))
    v = rng.normal(size=(7, 3))
    out, _ = nnops.attention_forward(q, k, v)
    assert out.shape == (5, 3)
    # each output row is a convex combination of value rows
    lo = v.min(axis=0) - 1e-12
    hi = v.max(axis=0) + 1e-12
    assert np.all(out >= lo) and np.all(out <= hi)


def test_attention_uniform_when_keys_equal():
    rng = np.random.default_rng(10)
    q = rng.normal(size=(4, 6))
    k = np.tile(rng.normal(size=(1, 6)), (5, 1))
    v = rng.normal(size=(5, 2))
    out, _ = nnops.attention_forward(q, k, v)
    np.testing.assert_allclose(out, np.tile(v.mean(axis=0), (4, 1)), atol=1e-12)


def test_attention_shape_mismatch_raises():
    with pytest.raises(ValueError):
        nnops.attention_forward(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros((4, 2)))
    with pytest.raises(ValueError):
        nnops.attention_forward(np.zeros((2, 3)), np.zeros((4, 3)), np.zeros((5, 2)))


def test_attention_grads():
    rng = np.random.default_rng(13)
    q = rng.normal(size=(4, 5))
    k = rng.normal(size=(6, 5))
    v = rng.normal(size=(6, 3))
    d = rng.normal(size=(4, 3))

    def loss():
        out, cache = nnops.attention_forward(q, k, v)
        dq, dk, dv = nnops.attention_backward(d, cache)
        return float(np.sum(out * d)), {"q": dq, "k": dk, "v": dv}

    check_grads(loss, {"q": q, "k": k, "v": v})


def _mha_params(rng, d):
    p = {}
    for name in ("wq", "wk", "wv", "wo"):
        p[name] = rng.normal(size=(d, d)) / np.sqrt(d)
        p["b" + name[1]] = rng.normal(size=(d,)) * 0.1
    return p


def test_mha_grads_self_attention():
    rng = np.random.default_rng(19)
    d_model = 6
    x = rng.normal(size=(5, d_model))
    p = _mha_params(rng, d_model)
    d = rng.normal(size=(5, d_model))

    def loss():
        out, cache = nnops.mha_forward(x, x, p, n_heads=2)
        dq, dkv, dp = nnops.mha_backward(d, cache)
        grads = {"x": dq + dkv}
        grads.update(dp)
        return float(np.sum(out * d)), grads

    check_grads(loss, {"x": x, **p})


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_keeps_input_dtype(dtype):
    # the scale is a Python float: a numpy float64 scalar would promote
    # float32 scores, and so every encoder step after the first attention
    rng = np.random.default_rng(37)
    q, k, v = (rng.normal(size=(2, 3, 4)).astype(dtype) for _ in range(3))
    out, cache = nnops.attention_forward(q, k, v)
    assert out.dtype == dtype
    assert all(g.dtype == dtype for g in nnops.attention_backward(np.ones_like(out), cache))
    x = rng.normal(size=(5, 4)).astype(dtype)
    p = {name: value.astype(dtype) for name, value in _mha_params(rng, 4).items()}
    out, cache = nnops.mha_forward(x, x, p, n_heads=2)
    assert out.dtype == dtype
    dq, dkv, dp = nnops.mha_backward(np.ones_like(out), cache)
    assert dq.dtype == dkv.dtype == dtype
    assert all(g.dtype == dtype for g in dp.values())


def test_mha_grads_cross_attention():
    rng = np.random.default_rng(23)
    d_model = 4
    xq = rng.normal(size=(3, d_model))
    xkv = rng.normal(size=(6, d_model))
    p = _mha_params(rng, d_model)
    d = rng.normal(size=(3, d_model))

    def loss():
        out, cache = nnops.mha_forward(xq, xkv, p, n_heads=2)
        dq, dkv, dp = nnops.mha_backward(d, cache)
        return float(np.sum(out * d)), {"xq": dq, "xkv": dkv}

    check_grads(loss, {"xq": xq, "xkv": xkv})


def _plain_forwards(x, gain, bias, w, q, k, v):
    """The expressions the in-place forward passes reproduce bit for bit."""
    c = float(np.sqrt(2.0 / np.pi))
    mu = x.mean(axis=-1, keepdims=True)
    xhat = (x - mu) * (1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + nnops.LAYERNORM_EPS))
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    scores = (q @ np.swapaxes(k, -1, -2)) * (1.0 / math.sqrt(q.shape[-1]))
    p = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
    return {"gelu": 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * (x * x * x)))),
            "softmax": e / np.sum(e, axis=-1, keepdims=True),
            "layernorm": xhat * gain + bias,
            "linear": x @ w + bias,
            "attention": (p / np.sum(p, axis=-1, keepdims=True)) @ v}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_passes_match_plain_expressions_and_write_no_input(dtype):
    rng = np.random.default_rng(11)
    # thousands of values, so an operation out of order shows in some last bit
    x, q, k, v = (rng.normal(size=shape).astype(dtype)
                  for shape in ((4, 16, 64), (4, 16, 32), (4, 24, 32), (4, 24, 8)))
    gain, bias = rng.normal(size=64).astype(dtype), rng.normal(size=64).astype(dtype)
    w = rng.normal(size=(64, 64)).astype(dtype)
    inputs = (x, gain, bias, w, q, k, v)
    before = [a.copy() for a in inputs]
    got = {"gelu": nnops.gelu(x), "softmax": nnops.softmax(x),
           "layernorm": nnops.layernorm_forward(x, gain, bias)[0],
           "linear": nnops.linear_forward(x, w, bias)[0],
           "attention": nnops.attention_forward(q, k, v)[0]}
    for a, b in zip(inputs, before):
        assert np.array_equal(a, b)
    for name, want in _plain_forwards(*inputs).items():
        assert got[name].dtype == dtype, name
        assert np.array_equal(got[name], want), name
        assert not any(np.shares_memory(got[name], a) for a in inputs), name


def test_split_merge_heads_roundtrip():
    rng = np.random.default_rng(29)
    x = rng.normal(size=(7, 12))
    np.testing.assert_array_equal(nnops.merge_heads(nnops.split_heads(x, 3)), x)
    with pytest.raises(ValueError):
        nnops.split_heads(x, 5)


def test_split_merge_heads_leading_axes():
    rng = np.random.default_rng(31)
    x = rng.normal(size=(7, 12)).astype(np.float32)
    heads = nnops.split_heads(x, 3)
    # the 2-D case is the former reshape-then-transpose, bit for bit
    old = x.reshape(7, 3, 4).transpose(1, 0, 2)
    assert heads.shape == old.shape == (3, 7, 4)
    assert heads.tobytes() == old.tobytes()
    merged = nnops.merge_heads(heads)
    assert merged.tobytes() == old.transpose(1, 0, 2).reshape(7, 12).tobytes()
    for shape in ((5, 7, 12), (2, 5, 7, 12)):
        batch = rng.normal(size=shape)
        split = nnops.split_heads(batch, 3)
        assert split.shape == shape[:-2] + (3, 7, 4)
        np.testing.assert_array_equal(nnops.merge_heads(split), batch)
        # every item splits exactly as it would alone
        for idx in np.ndindex(*shape[:-2]):
            np.testing.assert_array_equal(split[idx], nnops.split_heads(batch[idx], 3))
    with pytest.raises(ValueError):
        nnops.split_heads(np.zeros((2, 7, 12)), 5)
