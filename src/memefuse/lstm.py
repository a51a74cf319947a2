"""LSTM cell and bidirectional sequence layer with explicit backward passes.

Gate layout inside the packed 4H weight matrices is input, forget,
candidate, output.  Sequence functions run batched over (B, L, d).
"""

from __future__ import annotations

import numpy as np

from .nnops import sigmoid, sub_params


def init_lstm_params(d_in: int, hidden: int, rng: np.random.Generator,
                     dtype=np.float32) -> dict:
    scale = 1.0 / np.sqrt(d_in + hidden)
    p = {
        "wx": (rng.normal(size=(d_in, 4 * hidden)) * scale).astype(dtype),
        "wh": (rng.normal(size=(hidden, 4 * hidden)) * scale).astype(dtype),
        "b": np.zeros(4 * hidden, dtype=dtype),
    }
    p["b"][hidden:2 * hidden] = 1.0  # forget gate starts open
    return p


def lstm_cell_forward(x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray, p: dict):
    hidden = h_prev.shape[-1]
    z = x @ p["wx"] + h_prev @ p["wh"] + p["b"]
    i = sigmoid(z[..., :hidden])
    f = sigmoid(z[..., hidden:2 * hidden])
    g = np.tanh(z[..., 2 * hidden:3 * hidden])
    o = sigmoid(z[..., 3 * hidden:])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    return h, c, (x, h_prev, c_prev, i, f, g, o, tc, p)


def lstm_cell_backward(d_h: np.ndarray, d_c: np.ndarray, cache):
    x, h_prev, c_prev, i, f, g, o, tc, p = cache
    dc = d_c + d_h * o * (1.0 - tc**2)
    d_gates = np.concatenate(
        [
            dc * g * i * (1.0 - i),
            dc * c_prev * f * (1.0 - f),
            dc * i * (1.0 - g**2),
            d_h * tc * o * (1.0 - o),
        ],
        axis=-1,
    )
    dx = d_gates @ p["wx"].T
    dh_prev = d_gates @ p["wh"].T
    dc_prev = dc * f
    dp = {
        "wx": x.T @ d_gates,
        "wh": h_prev.T @ d_gates,
        "b": d_gates.sum(axis=0),
    }
    return dx, dh_prev, dc_prev, dp


def lstm_seq_forward(x: np.ndarray, p: dict):
    """x: (B, L, d) -> hidden states (B, L, H), zero initial state."""
    batch, length, _ = x.shape
    hidden = p["wh"].shape[0]
    h = np.zeros((batch, hidden), dtype=x.dtype)
    c = np.zeros((batch, hidden), dtype=x.dtype)
    hs = np.empty((batch, length, hidden), dtype=x.dtype)
    caches = []
    for t in range(length):
        h, c, cache = lstm_cell_forward(x[:, t, :], h, c, p)
        hs[:, t, :] = h
        caches.append(cache)
    return hs, caches


def lstm_seq_backward(d_hs: np.ndarray, caches):
    batch, length, hidden = d_hs.shape
    p = caches[0][-1]
    dx = np.empty((batch, length, p["wx"].shape[0]), dtype=d_hs.dtype)
    dp = {k: np.zeros_like(v, dtype=d_hs.dtype) for k, v in p.items()}
    dh = np.zeros((batch, hidden), dtype=d_hs.dtype)
    dc = np.zeros((batch, hidden), dtype=d_hs.dtype)
    for t in reversed(range(length)):
        dxt, dh, dc, step_dp = lstm_cell_backward(d_hs[:, t, :] + dh, dc, caches[t])
        dx[:, t, :] = dxt
        for k in dp:
            dp[k] += step_dp[k]
    return dx, dp


def init_bilstm_params(d_in: int, hidden: int, rng: np.random.Generator,
                       dtype=np.float32) -> dict:
    params = {}
    for direction in ("fwd", "bwd"):
        for k, v in init_lstm_params(d_in, hidden, rng, dtype).items():
            params[f"{direction}.{k}"] = v
    return params


def bilstm_forward(x: np.ndarray, params: dict):
    """x: (B, L, d) -> (B, L, 2H): forward states beside backward states.

    Row t holds the forward pass's state after reading x[..t] and the
    backward pass's state after reading x[t..] (input reversed in time).
    """
    hs_f, caches_f = lstm_seq_forward(x, sub_params(params, "fwd"))
    hs_b_rev, caches_b = lstm_seq_forward(x[:, ::-1, :], sub_params(params, "bwd"))
    out = np.concatenate([hs_f, hs_b_rev[:, ::-1, :]], axis=-1)
    return out, (caches_f, caches_b)


def bilstm_backward(d_out: np.ndarray, cache):
    caches_f, caches_b = cache
    hidden = d_out.shape[-1] // 2
    dx_f, dp_f = lstm_seq_backward(np.ascontiguousarray(d_out[..., :hidden]), caches_f)
    dx_b_rev, dp_b = lstm_seq_backward(np.ascontiguousarray(d_out[:, ::-1, hidden:]), caches_b)
    dx = dx_f + dx_b_rev[:, ::-1, :]
    d_params = {f"fwd.{k}": v for k, v in dp_f.items()}
    d_params.update({f"bwd.{k}": v for k, v in dp_b.items()})
    return dx, d_params


def sequence_feature(out: np.ndarray) -> np.ndarray:
    """Summarize a (.., L, 2H) output: final forward state + final backward state.

    The backward direction finishes at row 0, so the feature is
    concat(out[.., -1, :H], out[.., 0, H:]).
    """
    hidden = out.shape[-1] // 2
    return np.concatenate([out[..., -1, :hidden], out[..., 0, hidden:]], axis=-1)
