"""LSTM cell and bidirectional sequence layer with explicit backward passes.

Gate layout inside the packed 4H weight matrices is input, forget,
candidate, output.  Sequence functions take and return batch-major
(B, L, .) arrays and keep their caches time-major (L, B, .).
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


def _gates(a: np.ndarray) -> tuple:
    """The i, f, g, o blocks of a packed (.., 4H) array, as views."""
    hidden = a.shape[-1] // 4
    return tuple(a[..., k * hidden:(k + 1) * hidden] for k in range(4))


def _cell_step(z, c_prev, gates, c, tc, h) -> None:
    """The forward gate math of one step, shared by the cell and the sequence path.

    Activates the packed pre-activations z (.., 4H) into ``gates`` and writes
    c = f * c_prev + i * g, tc = tanh(c) and h = o * tc into ``c``, ``tc``
    and ``h``.
    """
    gates[...] = sigmoid(z)
    i, f, g, o = _gates(gates)
    np.tanh(_gates(z)[2], out=g)
    np.multiply(f, c_prev, out=c)
    c += i * g
    np.tanh(c, out=tc)
    np.multiply(o, tc, out=h)


def _gate_grads(d_h, d_c, c_prev, gates, tc, d_gates):
    """The backward gate math of one step, shared by the cell and the sequence path.

    Writes the gradient of the packed pre-activations into ``d_gates``
    (.., 4H) and returns the gradient of c_prev.
    """
    i, f, g, o = _gates(gates)
    d_i, d_f, d_g, d_o = _gates(d_gates)
    dc = d_c + d_h * o * (1.0 - tc**2)
    np.multiply(dc * g * i, 1.0 - i, out=d_i)
    np.multiply(dc * c_prev * f, 1.0 - f, out=d_f)
    np.multiply(dc * i, 1.0 - g**2, out=d_g)
    np.multiply(d_h * tc * o, 1.0 - o, out=d_o)
    return dc * f


def lstm_cell_forward(x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray, p: dict):
    z = x @ p["wx"] + p["b"] + h_prev @ p["wh"]
    state_shape = z.shape[:-1] + (h_prev.shape[-1],)
    gates = np.empty_like(z)
    c, tc, h = (np.empty(state_shape, dtype=z.dtype) for _ in range(3))
    _cell_step(z, c_prev, gates, c, tc, h)
    return h, c, (x, h_prev, c_prev, gates, tc, p)


def lstm_cell_backward(d_h: np.ndarray, d_c: np.ndarray, cache):
    x, h_prev, c_prev, gates, tc, p = cache
    d_gates = np.empty_like(gates)
    dc_prev = _gate_grads(d_h, d_c, c_prev, gates, tc, d_gates)
    dx = d_gates @ p["wx"].T
    dh_prev = d_gates @ p["wh"].T
    dp = {
        "wx": x.T @ d_gates,
        "wh": h_prev.T @ d_gates,
        "b": d_gates.sum(axis=0),
    }
    return dx, dh_prev, dc_prev, dp


def _steps(length: int, reverse: bool):
    """The time order of the step loop, and where a step's state sits in a
    padded (L + 1, ..) buffer relative to the state it follows.

    h_t lives at row t + cur and its predecessor at row t + prev; the pad
    row (0 forward, L reversed) holds the zero initial state.
    """
    if reverse:
        return range(length - 1, -1, -1), 0, 1
    return range(length), 1, 0


def lstm_seq_forward(x: np.ndarray, p: dict, reverse: bool = False):
    """x: (B, L, d) -> hidden states (B, L, H) from a zero initial state, and a cache.

    With ``reverse`` the cell reads x[:, L-1] first, so row t holds the state
    after reading x[:, t:].  The input projection x @ wx + b runs as one GEMM
    over all L*B rows; the step loop keeps only the recurrent GEMM and the
    gate math.  States, cells, gates and tanh(c) go to time-major (L, B, .)
    buffers, and the returned states are a (B, L, H) view of one of them.
    """
    batch, length, d_in = x.shape
    hidden = p["wh"].shape[0]
    xt = np.ascontiguousarray(x.transpose(1, 0, 2))
    zx = (xt.reshape(length * batch, d_in) @ p["wx"]).reshape(length, batch, 4 * hidden)
    zx += p["b"]  # in place: a second L*B-row temporary costs more than the add
    hs = np.zeros((length + 1, batch, hidden), dtype=zx.dtype)
    cs = np.zeros_like(hs)
    gates = np.empty_like(zx)
    tc = np.empty((length, batch, hidden), dtype=zx.dtype)
    steps, cur, prev = _steps(length, reverse)
    for t in steps:
        z = hs[t + prev] @ p["wh"]
        z += zx[t]
        _cell_step(z, cs[t + prev], gates[t], cs[t + cur], tc[t], hs[t + cur])
    cache = (xt, hs, cs, gates, tc, p, reverse)
    return hs[cur:cur + length].transpose(1, 0, 2), cache


def lstm_seq_backward(d_hs: np.ndarray, cache):
    """d_hs: (B, L, H) -> (dx (B, L, d), param grads) for lstm_seq_forward.

    The loop runs the recurrence only: per step the element-wise gate
    gradients into one (L, B, 4H) buffer and the recurrent d_gates @ wh.T.
    dx, dwx, dwh and db are then each one GEMM or sum over L*B rows.
    """
    xt, hs, cs, gates, tc, p, reverse = cache
    length, batch, hidden = tc.shape
    steps, cur, prev = _steps(length, reverse)
    d_gates = np.empty_like(gates)
    dh = np.zeros((batch, hidden), dtype=d_hs.dtype)
    dc = np.zeros_like(dh)
    for t in reversed(steps):
        dc = _gate_grads(d_hs[:, t] + dh, dc, cs[t + prev], gates[t], tc[t], d_gates[t])
        dh = d_gates[t] @ p["wh"].T
    flat = d_gates.reshape(length * batch, 4 * hidden)
    dx = (flat @ p["wx"].T).reshape(length, batch, xt.shape[-1]).transpose(1, 0, 2)
    dp = {
        "wx": xt.reshape(length * batch, xt.shape[-1]).T @ flat,
        "wh": hs[prev:prev + length].reshape(length * batch, hidden).T @ flat,
        "b": flat.sum(axis=0),
    }
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
    The output is a view of time-major memory, so a stacked layer reads
    it without another transpose.
    """
    batch, length, _ = x.shape
    # both directions read the same time-major copy of x
    x = np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2)
    hs_f, cache_f = lstm_seq_forward(x, sub_params(params, "fwd"))
    hs_b, cache_b = lstm_seq_forward(x, sub_params(params, "bwd"), reverse=True)
    hidden = hs_f.shape[-1]
    out = np.empty((length, batch, 2 * hidden), dtype=hs_f.dtype).transpose(1, 0, 2)
    out[..., :hidden] = hs_f
    out[..., hidden:] = hs_b
    return out, (cache_f, cache_b)


def bilstm_backward(d_out: np.ndarray, cache):
    cache_f, cache_b = cache
    hidden = d_out.shape[-1] // 2
    dx, dp_f = lstm_seq_backward(d_out[..., :hidden], cache_f)
    dx_b, dp_b = lstm_seq_backward(d_out[..., hidden:], cache_b)
    dx += dx_b
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
