"""Low-level neural net ops as forward/backward pairs over numpy arrays.

Every ``*_forward`` returns (output, cache) and the matching
``*_backward`` consumes (upstream gradient, cache).  All functions work
in the dtype of their inputs, so float64 for gradient checking and
float32 for the training pipeline use the same code path.  The
element-wise forward passes the frozen encoders run (``gelu``,
``softmax``, ``layernorm_forward``, ``linear_forward`` and the attention
scale) do their steps in place on the fresh arrays they return, in the
order of the plain expressions, so the bytes are those of the
expressions; they never write an input.
"""

from __future__ import annotations

import math

import numpy as np

_GELU_C = float(np.sqrt(2.0 / np.pi))
LAYERNORM_EPS = 1e-5


def sub_params(params: dict, prefix: str) -> dict:
    """Slice a flat {dotted name: array} dict down to one component's view."""
    pre = prefix + "."
    return {k[len(pre):]: v for k, v in params.items() if k.startswith(pre)}


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function as 0.5 * (1 + tanh(z / 2)), in the dtype of z.

    Without boolean masks it costs a few element-wise passes, and tanh
    saturates instead of overflowing at any z.
    """
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    e = x - np.max(x, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.sum(e, axis=-1, keepdims=True)
    return e


def softmax_backward(d_out: np.ndarray, probs: np.ndarray) -> np.ndarray:
    inner = np.sum(d_out * probs, axis=-1, keepdims=True)
    return probs * (d_out - inner)


def gelu(x: np.ndarray) -> np.ndarray:
    """tanh-form GELU.  ``x * x * x``, not ``x**3``: numpy's power is 15-40x
    slower than two products, and it dominated the batched encoders.

    ``0.5 * x * (1 + tanh(c * (x + 0.044715 * x * x * x)))`` in two buffers.
    They are given as ``out=``, so a 0-d input's steps also write arrays, not
    the scalars a ufunc returns for it."""
    u = np.multiply(x, x, out=np.empty_like(x))
    u *= x
    u *= 0.044715
    u += x
    u *= _GELU_C
    np.tanh(u, out=u)
    u += 1.0
    y = np.multiply(x, 0.5, out=np.empty_like(x))
    y *= u
    return y


def gelu_backward(d_out: np.ndarray, x: np.ndarray) -> np.ndarray:
    u = _GELU_C * (x + 0.044715 * (x * x * x))
    t = np.tanh(u)
    du = _GELU_C * (1.0 + 3.0 * 0.044715 * (x * x))
    return d_out * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)


def linear_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    y = x @ w
    y += b
    return y, (x, w)


def linear_backward(d_y: np.ndarray, cache):
    x, w = cache
    dx = d_y @ w.T
    dw = x.T @ d_y
    db = d_y.sum(axis=0)
    return dx, dw, db


def layernorm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    mu = x.mean(axis=-1, keepdims=True)
    inv_std = x.var(axis=-1, keepdims=True)
    inv_std += LAYERNORM_EPS
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    xhat = x - mu
    xhat *= inv_std
    y = xhat * gain
    y += bias
    return y, (xhat, inv_std, gain)


def layernorm_backward(d_y: np.ndarray, cache):
    xhat, inv_std, gain = cache
    d = xhat.shape[-1]
    d_xhat = d_y * gain
    # standard per-row reduction of the mean/variance paths
    dx = inv_std * (
        d_xhat
        - d_xhat.mean(axis=-1, keepdims=True)
        - xhat * (d_xhat * xhat).mean(axis=-1, keepdims=True)
    )
    d_gain = (d_y * xhat).reshape(-1, d).sum(axis=0)
    d_bias = d_y.reshape(-1, d).sum(axis=0)
    return dx, d_gain, d_bias


def attention_forward(q: np.ndarray, k: np.ndarray, v: np.ndarray):
    """Scaled dot-product attention, softmax over key positions.

    q: L x dk, k: M x dk, v: M x dv (leading head axes broadcast).
    """
    if q.shape[-1] != k.shape[-1]:
        raise ValueError(f"query width {q.shape[-1]} != key width {k.shape[-1]}")
    if k.shape[-2] != v.shape[-2]:
        raise ValueError(f"key count {k.shape[-2]} != value count {v.shape[-2]}")
    # a Python float: a numpy float64 scalar would promote float32 scores
    scale = 1.0 / math.sqrt(q.shape[-1])
    scores = q @ np.swapaxes(k, -1, -2)
    scores *= scale
    probs = softmax(scores)
    out = probs @ v
    return out, (q, k, v, probs, scale)


def attention_backward(d_out: np.ndarray, cache):
    q, k, v, probs, scale = cache
    dv = np.swapaxes(probs, -1, -2) @ d_out
    d_probs = d_out @ np.swapaxes(v, -1, -2)
    d_scores = softmax_backward(d_probs, probs)
    dq = (d_scores @ k) * scale
    dk = (np.swapaxes(d_scores, -1, -2) @ q) * scale
    return dq, dk, dv


def split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """(..., L, d) -> (..., n_heads, L, d / n_heads); leading axes are batch axes."""
    width = x.shape[-1]
    if width % n_heads:
        raise ValueError(f"width {width} not divisible by {n_heads} heads")
    return x.reshape(*x.shape[:-1], n_heads, width // n_heads).swapaxes(-2, -3)


def merge_heads(x: np.ndarray) -> np.ndarray:
    """(..., n_heads, L, dh) -> (..., L, n_heads * dh), the inverse of split_heads."""
    n_heads, length, dh = x.shape[-3:]
    return x.swapaxes(-2, -3).reshape(*x.shape[:-3], length, n_heads * dh)


def mha_kv(x_kv: np.ndarray, p: dict, n_heads: int):
    """Key and value heads of x_kv, plus their linear caches.

    Split out of mha_forward so a decoder can project fixed memory once
    and attend to it at every step, and append each new row's keys and
    values to a cache (see mha_attend).
    """
    k, ck = linear_forward(x_kv, p["wk"], p["bk"])
    v, cv = linear_forward(x_kv, p["wv"], p["bv"])
    return (split_heads(k, n_heads), split_heads(v, n_heads)), (ck, cv)


def mha_attend(x_q: np.ndarray, kv: tuple, p: dict, n_heads: int):
    """Queries projected from x_q attend over the (keys, values) heads of mha_kv."""
    q, cq = linear_forward(x_q, p["wq"], p["bq"])
    heads, ca = attention_forward(split_heads(q, n_heads), *kv)
    out, co = linear_forward(merge_heads(heads), p["wo"], p["bo"])
    return out, (cq, ca, co)


def mha_forward(x_q: np.ndarray, x_kv: np.ndarray, p: dict, n_heads: int):
    """Multi-head attention with learned projections.

    ``p`` carries wq/bq, wk/bk, wv/bv, wo/bo.  Queries come from x_q and
    keys/values from x_kv, so the same code serves self and cross
    attention; in the forward pass leading axes are batch axes.
    """
    kv, (ck, cv) = mha_kv(x_kv, p, n_heads)
    out, (cq, ca, co) = mha_attend(x_q, kv, p, n_heads)
    return out, (cq, ck, cv, ca, co, n_heads)


def mha_backward(d_out: np.ndarray, cache):
    cq, ck, cv, ca, co, n_heads = cache
    d_merged, dwo, dbo = linear_backward(d_out, co)
    dq_h, dk_h, dv_h = attention_backward(split_heads(d_merged, n_heads), ca)
    dq, dwq, dbq = linear_backward(merge_heads(dq_h), cq)
    dk, dwk, dbk = linear_backward(merge_heads(dk_h), ck)
    dv, dwv, dbv = linear_backward(merge_heads(dv_h), cv)
    d_p = {"wq": dwq, "bq": dbq, "wk": dwk, "bk": dbk,
           "wv": dwv, "bv": dbv, "wo": dwo, "bo": dbo}
    return dq, dk + dv, d_p
