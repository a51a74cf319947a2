"""LSTM cell and bidirectional sequence layer with explicit backward passes.

The cell functions, the per-cell reference, take packed (d, 4H), (H, 4H)
and (4H,) weights with gates i, f, g, o.  The bidirectional trunk keeps a
layer as three tensors indexed by direction (forward, backward) and gate
(i, f, o, g: the three sigmoid gates side by side): ``wx`` (d, 2, 4, H),
``wh`` (2, 4, H, H) and ``b`` (2, 4, H).  Checkpoints store them and the
step loop multiplies them as they are; ``init_bilstm_params`` reorders
each direction's cell gates once.  The trunk takes and returns
batch-major (B, L, .) arrays and keeps its caches time-major.

A forward cache holds only what the backward pass reads: the time-major
input, the gate activations, the cell states and the outputs.  tanh(c)
is recomputed from the cell states, not kept.  The backward pass takes
either the gradient of every output row, (B, L, 2H), or the gradient of
``sequence_feature``'s end states alone, (B, 2H).  Prediction runs the
same step loop without a cache: it keeps each step's gates and cell
state only until the next step, in scratch every layer shares, with the
same bytes out.
"""

from __future__ import annotations

import math

import numpy as np

from .nnops import sigmoid

# The trunk's gate order i, f, o, g as positions of the cell's packed i, f, g, o.
TRUNK_GATES = [0, 1, 3, 2]
# Rows (time steps x batch) per block of the input projection and of the
# weight-gradient GEMMs: their scratch stays a fraction of the gate buffer,
# and a block is still hot in cache when its GEMMs read it.
PROJECTION_ROWS = 1024


class Workspace:
    """Named buffers the trunk reuses from one call to the next.

    Each name owns a flat array that grows to the largest request made of
    it; a request returns a contiguous view of its first elements, so a
    smaller batch (such as the tail batch of an epoch)
    reuses the memory of a full one.  ``scope(prefix)`` gives a view whose
    ``buffer`` names carry the prefix (what one layer's backward pass reads
    from its forward pass), while ``scratch`` names are shared by every
    scope (what a call needs only while it runs).  Contents are undefined
    until written.  One forward/backward pair may use a workspace at a time.
    """

    def __init__(self):
        self._flat = {}
        self._prefix = ""

    def scope(self, prefix: str) -> "Workspace":
        view = Workspace()
        view._flat, view._prefix = self._flat, f"{self._prefix}{prefix}."
        return view

    def buffer(self, name: str, shape: tuple, dtype) -> np.ndarray:
        return self._take(self._prefix + name, shape, dtype)

    def scratch(self, name: str, shape: tuple, dtype) -> np.ndarray:
        return self._take("scratch." + name, shape, dtype)

    def _take(self, key: str, shape: tuple, dtype) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(key)
        if flat is None or flat.size < size or flat.dtype != dtype:
            flat = self._flat[key] = np.empty(size, dtype=dtype)
        return flat[:size].reshape(shape)


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


def lstm_cell_forward(x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray, p: dict):
    z = x @ p["wx"] + p["b"] + h_prev @ p["wh"]
    gates = sigmoid(z)
    i, f, g, o = _gates(gates)
    np.tanh(_gates(z)[2], out=g)
    c = f * c_prev + i * g
    tc = np.tanh(c)
    return o * tc, c, (x, h_prev, c_prev, gates, tc, p)


def lstm_cell_backward(d_h: np.ndarray, d_c: np.ndarray, cache):
    x, h_prev, c_prev, gates, tc, p = cache
    i, f, g, o = _gates(gates)
    dc = d_c + d_h * o * (1.0 - tc**2)
    d_gates = np.concatenate([dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
                              dc * i * (1.0 - g**2), d_h * tc * o * (1.0 - o)], axis=-1)
    dp = {
        "wx": x.T @ d_gates,
        "wh": h_prev.T @ d_gates,
        "b": d_gates.sum(axis=0),
    }
    return d_gates @ p["wx"].T, d_gates @ p["wh"].T, dc * f, dp


def init_bilstm_params(d_in: int, hidden: int, rng: np.random.Generator,
                       dtype=np.float32) -> dict:
    """One trunk layer's ``wx``, ``wh`` and ``b`` (see the module docstring).

    Each direction is drawn by init_lstm_params, forward first, and its
    gates reordered into the trunk's; the arrays are C-contiguous.
    """
    wx = np.empty((d_in, 2, 4, hidden), dtype=dtype)
    wh = np.empty((2, 4, hidden, hidden), dtype=dtype)
    b = np.empty((2, 4, hidden), dtype=dtype)
    for k in range(2):
        p = init_lstm_params(d_in, hidden, rng, dtype)
        wx[:, k] = p["wx"].reshape(d_in, 4, hidden)[:, TRUNK_GATES]
        wh[k] = p["wh"].reshape(hidden, 4, hidden)[:, TRUNK_GATES].transpose(1, 0, 2)
        b[k] = p["b"].reshape(4, hidden)[TRUNK_GATES]
    return {"wx": wx, "wh": wh, "b": b}


def _sig(a: np.ndarray) -> None:
    """nnops.sigmoid's 0.5 * (1 + tanh(a / 2)), in place."""
    a *= 0.5
    np.tanh(a, out=a)
    a += 1.0
    a *= 0.5


def _time_blocks(length: int, batch: int):
    """(t0, t1) spans of about PROJECTION_ROWS rows (time steps x batch)."""
    step = max(1, PROJECTION_ROWS // max(batch, 1))
    for t0 in range(0, length, step):
        yield t0, min(t0 + step, length)


def _project(xt: np.ndarray, wx: np.ndarray, t0: int, t1: int, zx: np.ndarray) -> np.ndarray:
    """x @ wx of time steps t0..t1 of time-major ``xt``, both directions in
    one GEMM into ``zx`` ((t1 - t0) * B, 8H), as (t1 - t0, 2, 4, B, H) gate blocks."""
    d_in, hidden = xt.shape[-1], wx.shape[-1]
    np.matmul(xt[t0:t1].reshape(-1, d_in), wx.reshape(d_in, 8 * hidden), out=zx)
    return zx.reshape(t1 - t0, xt.shape[1], 2, 4, hidden).transpose(0, 2, 3, 1, 4)


def _projected_steps(xt: np.ndarray, wx: np.ndarray, ws: Workspace):
    """Yield step s's (2, 4, B, H) input projections, the forward direction's
    of time s beside the backward direction's of time L-1-s, in one scratch
    block.

    Every block of _time_blocks is projected once, by _project as in the
    cached pass, into one (L * B, 8H) scratch, so the GEMMs, and with them
    the bytes, are the cached pass's on any BLAS kernel.
    """
    length, batch, _ = xt.shape
    hidden = wx.shape[-1]
    zx = ws.scratch("projections", (length * batch, 8 * hidden), xt.dtype)
    for t0, t1 in _time_blocks(length, batch):
        _project(xt, wx, t0, t1, zx[t0 * batch:t1 * batch])
    steps = zx.reshape(length, batch, 2, 4, hidden).transpose(0, 2, 3, 1, 4)
    step = ws.scratch("step", (2, 4, batch, hidden), xt.dtype)
    for s in range(length):
        step[0] = steps[s, 0]
        step[1] = steps[length - 1 - s, 1]
        yield step


def bilstm_forward(x: np.ndarray, params: dict, ws: Workspace, *, cache: bool):
    """x: (B, L, d) -> (B, L, 2H): forward states beside backward states, and a cache.

    Row t holds the forward pass's state after reading x[..t] and the
    backward pass's state after reading x[t..] (input reversed in time).

    Both directions advance in one step loop.  Step s holds the forward
    direction at time s and the backward direction at time L-1-s as a
    (2, 4, B, H) block of gates i, f, o, g: each gate of each direction is
    a contiguous (B, H) block, one pass activates the three sigmoid gates,
    and the recurrent step is one batched matmul of h by ``wh`` plus the
    bias.  x @ wx of both directions runs as one GEMM per block of
    PROJECTION_ROWS rows.  The weights are multiplied where they lie: the
    cache holds ``params``' ``wx`` and ``wh`` themselves, not copies.
    Buffers come from ``ws``; the output and the cache are views of them,
    valid until the workspace serves this layer again.  The output is a
    view of time-major memory, so a stacked layer reads it as it is, and so
    is an input that is such a view (``model.gather_batch``'s batch,
    ``model.predict_blocks``' chunk); any other input is copied time-major
    into the workspace.

    With ``cache`` the projections are copied into every step's gate block
    before the loop, and the cache is (x, gates, cs, out, wx, wh): the
    time-major input, each step's activated gates, the L + 1 cell states
    from the zero initial one, and the time-major output.  Without it (the
    pass ``model.predict_blocks`` runs) the cache is None: the projections
    stay in one scratch (``_projected_steps``), each step's gates are
    computed in one scratch block and the cell states in a ring of two, so
    no per-layer gate history and no (L + 1)-step cell-state history is
    kept, and the scratch is shared by every layer of a stack.  The GEMMs
    and the element-wise passes are the same in both, so are the output's
    bytes.
    """
    batch, length, d_in = x.shape
    wx, wh = params["wx"], params["wh"]
    hidden = wh.shape[-1]
    dtype = np.result_type(x, wx)
    xt = x.transpose(1, 0, 2)
    if not (xt.flags.c_contiguous and xt.dtype == dtype):
        xt = ws.buffer("x", xt.shape, dtype)
        xt[...] = x.transpose(1, 0, 2)
    # the bias repeated over the batch: a contiguous add costs a third of a broadcast one
    bias = ws.scratch("bias", (2, 4, batch, hidden), dtype)
    bias[...] = params["b"][:, :, None]
    if cache:
        gates = ws.buffer("gates", (length, 2, 4, batch, hidden), dtype)
        for t0, t1 in _time_blocks(length, batch):
            zx = _project(xt, wx, t0, t1,
                          ws.scratch("blocks", ((t1 - t0) * batch, 8 * hidden), dtype))
            gates[t0:t1, 0] = zx[:, 0]
            gates[length - t1:length - t0, 1] = zx[::-1, 1]
        cs = ws.buffer("cs", (length + 1, 2, batch, hidden), dtype)
    else:
        gates = _projected_steps(xt, wx, ws)
        cs = ws.scratch("cs", (2, 2, batch, hidden), dtype)
    out = ws.buffer("out", (length, batch, 2 * hidden), dtype)
    rec = ws.scratch("rec", (2, 4, batch, hidden), dtype)
    h, ig, tc = ws.scratch("state", (3, 2, batch, hidden), dtype)
    cs[0] = 0.0
    for s, a in enumerate(gates):
        # step s reads cell state s and writes s + 1, of the history or the ring
        c_prev, c = cs[s % len(cs)], cs[(s + 1) % len(cs)]
        if s:  # h is zero before the first step
            np.matmul(h[:, None], wh, out=rec)
            rec += bias
            a += rec
        else:
            a += bias
        _sig(a[:, :3])
        i, f, o, g = a[:, 0], a[:, 1], a[:, 2], a[:, 3]
        np.tanh(g, out=g)
        np.multiply(f, c_prev, out=c)
        np.multiply(i, g, out=ig)
        c += ig
        np.tanh(c, out=tc)
        np.multiply(o, tc, out=h)
        out[s, :, :hidden] = h[0]
        out[length - 1 - s, :, hidden:] = h[1]
    return out.transpose(1, 0, 2), ((xt, gates, cs, out, wx, wh) if cache else None)


def bilstm_backward(d_out: np.ndarray, cache, ws: Workspace, need_dx: bool):
    """d_out -> (dx (B, L, d), param grads) for bilstm_forward.

    ``d_out`` is the gradient of the output, (B, L, 2H), or of its
    ``sequence_feature`` alone, (B, 2H): the forward half of row L-1 and
    the backward half of row 0, which start the recurrence's state
    gradient, and no other row takes one.

    The step loop runs both directions' recurrence backwards and writes
    each step's pre-activation gradients over its gate block, which the
    forward values no longer need.  Blocks of PROJECTION_ROWS rows of them
    are then copied into packed, natural-time (rows, 8H) form, from which
    dx and dwx are one GEMM each over both directions, dwh one GEMM per
    direction and db one sum.  The gradients come back in the layout of
    the parameters (``wh``'s as a view).  Layer 0 of a stack has no use
    for dx: with ``need_dx`` False it is None.
    """
    xt, gates, cs, out, wx, wh = cache
    length, _, _, batch, hidden = gates.shape
    d_in = xt.shape[-1]
    dtype = gates.dtype
    every_row = d_out.ndim == 3
    wh_t = ws.scratch("wh_t", wh.shape, dtype)
    wh_t[...] = wh.swapaxes(-1, -2)
    rec = ws.scratch("rec", (2, 4, batch, hidden), dtype)
    dh, dc, dc_prev, u, v, tc = ws.scratch("state", (6, 2, batch, hidden), dtype)
    if every_row:
        d_tm = d_out.transpose(1, 0, 2)
        dh[...] = 0.0
    else:
        dh[0] = d_out[:, :hidden]
        dh[1] = d_out[:, hidden:]
    dc[...] = 0.0
    for s in reversed(range(length)):
        a = gates[s]
        i, f, o, g = a[:, 0], a[:, 1], a[:, 2], a[:, 3]
        if every_row:
            dh[0] += d_tm[s, :, :hidden]
            dh[1] += d_tm[length - 1 - s, :, hidden:]
        # dc += dh * o * (1 - tanh(c)^2), with the forward pass's tanh(c)
        np.tanh(cs[s + 1], out=tc)
        np.multiply(dh, o, out=u)
        np.multiply(tc, tc, out=v)
        np.subtract(1.0, v, out=v)
        u *= v
        dc += u
        np.multiply(dc, f, out=dc_prev)
        np.multiply(dc, i, out=v)
        # the sigmoid gates' derivative s (1 - s), three gates in two passes
        sd = rec[:, :3]
        np.subtract(1.0, a[:, :3], out=sd)
        a[:, :3] *= sd
        i *= dc
        i *= g
        f *= dc
        f *= cs[s]
        o *= dh
        o *= tc
        np.multiply(g, g, out=u)
        np.subtract(1.0, u, out=u)
        np.multiply(v, u, out=g)
        dc, dc_prev = dc_prev, dc
        if s:  # the initial state takes no gradient
            np.matmul(a, wh_t, out=rec)
            np.add.reduce(rec, axis=1, out=dh)
    dwx = np.zeros((d_in, 8 * hidden), dtype=dtype)
    dwh = np.zeros((2, hidden, 4 * hidden), dtype=dtype)
    db = np.zeros(8 * hidden, dtype=dtype)
    dx = ws.scratch("dx", (length, batch, d_in), dtype) if need_dx else None
    for t0, t1 in _time_blocks(length, batch):
        rows = (t1 - t0) * batch
        packed = ws.scratch("blocks", (rows, 8 * hidden), dtype)
        by_time = packed.reshape(t1 - t0, batch, 2, 4 * hidden)
        steps = packed.reshape(t1 - t0, batch, 2, 4, hidden).transpose(0, 2, 3, 1, 4)
        steps[:, 0] = gates[t0:t1, 0]
        steps[:, 1] = gates[length - t1:length - t0, 1][::-1]
        dwx += xt[t0:t1].reshape(rows, d_in).T @ packed
        db += packed.sum(axis=0)
        # h_prev is the forward state one row earlier and the backward state
        # one row later; rows whose h_prev is the zero initial state add nothing
        lo = max(t0, 1)
        dwh[0] += (out[lo - 1:t1 - 1, :, :hidden].reshape(-1, hidden).T
                   @ by_time[lo - t0:, :, 0].reshape(-1, 4 * hidden))
        hi = min(t1, length - 1)
        dwh[1] += (out[t0 + 1:hi + 1, :, hidden:].reshape(-1, hidden).T
                   @ by_time[:max(hi - t0, 0), :, 1].reshape(-1, 4 * hidden))
        if need_dx:
            np.matmul(packed, wx.reshape(d_in, 8 * hidden).T, out=dx[t0:t1].reshape(rows, d_in))
    d_params = {"wx": dwx.reshape(d_in, 2, 4, hidden),
                "wh": dwh.reshape(2, hidden, 4, hidden).transpose(0, 2, 1, 3),
                "b": db.reshape(2, 4, hidden)}
    return (None if dx is None else dx.transpose(1, 0, 2)), d_params


def sequence_feature(out: np.ndarray) -> np.ndarray:
    """Summarize a (.., L, 2H) output: final forward state + final backward state.

    The backward direction finishes at row 0, so the feature is
    concat(out[.., -1, :H], out[.., 0, H:]).
    """
    hidden = out.shape[-1] // 2
    return np.concatenate([out[..., -1, :hidden], out[..., 0, hidden:]], axis=-1)
