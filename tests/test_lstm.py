import tracemalloc

import numpy as np
import pytest

from memefuse import lstm
from fdcheck import as_float64, check_grads


def _params(rng, d_in, hidden):
    return {
        "wx": rng.normal(size=(d_in, 4 * hidden)) * 0.4,
        "wh": rng.normal(size=(hidden, 4 * hidden)) * 0.4,
        "b": rng.normal(size=(4 * hidden,)) * 0.1,
    }


# The cell packs its gates i, f, g, o; the trunk orders them i, f, o, g.
CELL_GATES = "ifgo"
TRUNK_GATES = "ifog"


def _trunk(fwd, bwd):
    """Per-direction cell params (or their gradients) in the trunk's layout:
    wx (d, 2, 4, H), wh (2, 4, H, H), b (2, 4, H), indexed direction (fwd,
    bwd) by gate in TRUNK_GATES order, wh's blocks (H_in, H_out)."""
    d_in, hidden = fwd["wx"].shape[0], fwd["wh"].shape[0]
    out = {"wx": np.empty((d_in, 2, 4, hidden)), "wh": np.empty((2, 4, hidden, hidden)),
           "b": np.empty((2, 4, hidden))}
    for k, p in enumerate((fwd, bwd)):
        for g, gate in enumerate(TRUNK_GATES):
            cols = slice(CELL_GATES.index(gate) * hidden, (CELL_GATES.index(gate) + 1) * hidden)
            out["wx"][:, k, g] = p["wx"][:, cols]
            out["wh"][k, g] = p["wh"][:, cols]
            out["b"][k, g] = p["b"][cols]
    return out


def test_cell_shapes_and_state_range():
    rng = np.random.default_rng(42)
    p = _params(rng, 5, 3)
    h, c, _ = lstm.lstm_cell_forward(rng.normal(size=(2, 5)), np.zeros((2, 3)), np.zeros((2, 3)), p)
    assert h.shape == (2, 3) and c.shape == (2, 3)
    # h = o * tanh(c) with o in (0,1), so |h| < 1 always
    assert np.all(np.abs(h) < 1.0)


def test_forget_gate_closed_drops_cell():
    rng = np.random.default_rng(0)
    p = _params(rng, 4, 3)
    p["b"] = p["b"].copy()
    p["b"][3:6] = -50.0  # forget gate pinned shut
    c_prev = rng.normal(size=(1, 3)) * 10
    _, c, _ = lstm.lstm_cell_forward(np.zeros((1, 4)), np.zeros((1, 3)), c_prev, p)
    # new cell state owes nothing to c_prev
    _, c_zero, _ = lstm.lstm_cell_forward(np.zeros((1, 4)), np.zeros((1, 3)), np.zeros((1, 3)), p)
    np.testing.assert_allclose(c, c_zero, atol=1e-12)


def test_cell_grads():
    rng = np.random.default_rng(7)
    d_in, hidden = 4, 3
    p = _params(rng, d_in, hidden)
    x = rng.normal(size=(2, d_in))
    h0 = rng.normal(size=(2, hidden))
    c0 = rng.normal(size=(2, hidden))
    d_h = rng.normal(size=(2, hidden))
    d_c = rng.normal(size=(2, hidden))

    def loss():
        h, c, cache = lstm.lstm_cell_forward(x, h0, c0, p)
        dx, dh_prev, dc_prev, dp = lstm.lstm_cell_backward(d_h, d_c, cache)
        grads = {"x": dx, "h0": dh_prev, "c0": dc_prev}
        grads.update(dp)
        return float(np.sum(h * d_h) + np.sum(c * d_c)), grads

    check_grads(loss, {"x": x, "h0": h0, "c0": c0, **p})


def _cell_loop(x, p, d_hs, order):
    """Oracle: lstm_cell_forward, then lstm_cell_backward, stepped over x[:, t]
    for t in ``order``; returns the states (B, L, H), dx and the param grads."""
    batch, length, _ = x.shape
    hidden = p["wh"].shape[0]
    h = c = np.zeros((batch, hidden))
    hs = np.zeros((batch, length, hidden))
    caches = []
    for t in order:
        h, c, cache = lstm.lstm_cell_forward(x[:, t], h, c, p)
        hs[:, t] = h
        caches.append((t, cache))
    dx = np.zeros_like(x)
    dp = {k: np.zeros_like(v) for k, v in p.items()}
    dh = dc = np.zeros((batch, hidden))
    for t, cache in reversed(caches):
        dx[:, t], dh, dc, step_dp = lstm.lstm_cell_backward(d_hs[:, t] + dh, dc, cache)
        for k in dp:
            dp[k] += step_dp[k]
    return hs, dx, dp


def _assert_matches_cell_loop(x, halves, d_out, out, dx, dp):
    """The trunk's output, dx and param grads against the cell loop of each
    direction of ``halves``."""
    length, hidden = x.shape[1], halves["fwd"]["wh"].shape[0]
    want_dx = np.zeros_like(x)
    want_dp = {}
    orders = {"fwd": range(length), "bwd": range(length - 1, -1, -1)}
    for k, (direction, p) in enumerate(halves.items()):
        half = slice(k * hidden, (k + 1) * hidden)
        hs, dx_half, want_dp[direction] = _cell_loop(x, p, d_out[..., half], orders[direction])
        np.testing.assert_allclose(out[..., half], hs, rtol=0, atol=1e-12, err_msg=direction)
        want_dx += dx_half
    want = _trunk(want_dp["fwd"], want_dp["bwd"])
    assert sorted(dp) == sorted(want)
    for name in want:
        assert dp[name].shape == want[name].shape, name
        np.testing.assert_allclose(dp[name], want[name], rtol=0, atol=1e-12, err_msg=name)
    np.testing.assert_allclose(dx, want_dx, rtol=0, atol=1e-12)


@pytest.mark.parametrize("rows", [1024, 6, 1],
                         ids=["one-block", "two-steps-per-block", "block-per-step"])
def test_bilstm_matches_cell_loop(rows, monkeypatch):
    # uneven shapes so a swapped batch, time or feature axis cannot pass; the
    # projection blocks cover the sequence whole, unevenly, and one step each
    monkeypatch.setattr(lstm, "PROJECTION_ROWS", rows)
    rng = np.random.default_rng(19)
    batch, length, d_in, hidden = 3, 5, 4, 2
    halves = {"fwd": _params(rng, d_in, hidden), "bwd": _params(rng, d_in, hidden)}
    x = rng.normal(size=(batch, length, d_in))
    d_out = rng.normal(size=(batch, length, 2 * hidden))
    out, cache = lstm.bilstm_forward(x, _trunk(halves["fwd"], halves["bwd"]), lstm.Workspace(),
                                     cache=True)
    dx, dp = lstm.bilstm_backward(d_out, cache, lstm.Workspace(), need_dx=True)
    _assert_matches_cell_loop(x, halves, d_out, out, dx, dp)


def _spent_history_case(d_in):
    """x, per-direction cell params, d_out, and a cached forward pass on
    the workspace the backward pass is to use, as the classifier runs them.

    B=3, L=4, H=2: the (L + 1, 2, B, H) cell-state history holds L*B*d
    values up to d = 2H (L + 1) / L = 5; a stacked layer's d is 2H = 4."""
    rng = np.random.default_rng(37)
    batch, length, hidden = 3, 4, 2
    halves = {"fwd": _params(rng, d_in, hidden), "bwd": _params(rng, d_in, hidden)}
    x = rng.normal(size=(batch, length, d_in))
    d_out = rng.normal(size=(batch, length, 2 * hidden))
    ws = lstm.Workspace()
    out, cache = lstm.bilstm_forward(x, _trunk(halves["fwd"], halves["bwd"]), ws, cache=True)
    return x, halves, d_out, out, cache, ws


@pytest.mark.parametrize("d_in", [4, 5], ids=["stacked-width", "fills-history"])
def test_dx_takes_the_spent_cell_states_when_they_hold_it(d_in):
    x, halves, d_out, out, cache, ws = _spent_history_case(d_in)
    dx, dp = lstm.bilstm_backward(d_out, cache, ws, need_dx=True)
    assert np.shares_memory(dx, cache[2])
    _assert_matches_cell_loop(x, halves, d_out, out, dx, dp)


def test_dx_wider_than_the_spent_cell_states_is_refused():
    # d = 6 > 5, refused before the cache is written; layer 0, which
    # takes no dx, may be that wide
    _, _, d_out, _, cache, ws = _spent_history_case(6)
    gates = cache[1].copy()
    with pytest.raises(ValueError, match="dx of width 6 does not fit the cell-state history, "
                                         "which holds widths up to 5"):
        lstm.bilstm_backward(d_out, cache, ws, need_dx=True)
    np.testing.assert_array_equal(cache[1], gates)
    assert lstm.bilstm_backward(d_out, cache, ws, need_dx=False)[0] is None


def test_bilstm_output_layout():
    rng = np.random.default_rng(13)
    d_in, hidden = 3, 2
    fwd = as_float64(lstm.init_lstm_params(d_in, hidden, rng))
    bwd = as_float64(lstm.init_lstm_params(d_in, hidden, rng))
    x = rng.normal(size=(1, 5, d_in))
    out, _ = lstm.bilstm_forward(x, _trunk(fwd, bwd), lstm.Workspace(), cache=True)
    assert out.shape == (1, 5, 2 * hidden)
    no_grad = np.zeros((1, 5, hidden))
    # forward half equals a plain forward LSTM over x
    hs_f, _, _ = _cell_loop(x, fwd, no_grad, range(5))
    np.testing.assert_allclose(out[..., :hidden], hs_f, atol=1e-12)
    # backward half at row t is the reversed pass after reading x[t:]
    hs_b, _, _ = _cell_loop(x[:, ::-1, :], bwd, no_grad, range(5))
    np.testing.assert_allclose(out[:, 0, hidden:], hs_b[:, -1, :], atol=1e-12)


def test_init_draws_cells_forward_first_in_trunk_layout():
    # the random stream of two init_lstm_params draws, forward first, laid
    # out by the documented permutation; contiguous, so a finite-difference
    # check that perturbs entries through reshape(-1) perturbs the weights
    params = lstm.init_bilstm_params(3, 2, np.random.default_rng(21))
    rng = np.random.default_rng(21)
    want = _trunk(lstm.init_lstm_params(3, 2, rng), lstm.init_lstm_params(3, 2, rng))
    assert sorted(params) == sorted(want)
    for name, v in params.items():
        assert v.dtype == np.float32 and v.flags.c_contiguous, name
        np.testing.assert_array_equal(v, want[name].astype(np.float32), err_msg=name)


def test_forward_multiplies_the_parameters_in_place():
    # the cache holds the weights themselves: no per-call copy or permutation
    rng = np.random.default_rng(25)
    params = as_float64(lstm.init_bilstm_params(3, 2, rng))
    _, (*_, wx, wh) = lstm.bilstm_forward(rng.normal(size=(2, 4, 3)), params, lstm.Workspace(),
                                          cache=True)
    assert np.shares_memory(wx, params["wx"]) and np.shares_memory(wh, params["wh"])


def _cached(x, params):
    """The cache of a forward pass on a workspace of its own."""
    return lstm.bilstm_forward(x, params, lstm.Workspace(), cache=True)[1]


def test_layer_zero_skips_dx():
    rng = np.random.default_rng(15)
    params = as_float64(lstm.init_bilstm_params(3, 2, rng))
    x = rng.normal(size=(2, 4, 3))
    d = rng.normal(size=(2, 4, 4))
    dx, dp = lstm.bilstm_backward(d, _cached(x, params), lstm.Workspace(), need_dx=True)
    skipped, dp_skip = lstm.bilstm_backward(d, _cached(x, params), lstm.Workspace(),
                                            need_dx=False)
    assert skipped is None and dx.shape == x.shape
    for k in dp:
        np.testing.assert_array_equal(dp_skip[k], dp[k])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_final_state_gradient_matches_the_padded_form(dtype):
    # sequence_feature reads row L-1 of the forward half and row 0 of the
    # backward half; its (B, 2H) gradient, given as it is, must give the
    # bytes of the (B, L, 2H) gradient that is zero elsewhere
    rng = np.random.default_rng(27)
    batch, length, d_in, hidden = 3, 5, 4, 2
    params = {k: v.astype(dtype) for k, v in lstm.init_bilstm_params(d_in, hidden, rng).items()}
    x = rng.normal(size=(batch, length, d_in)).astype(dtype)
    d_feat = rng.normal(size=(batch, 2 * hidden)).astype(dtype)
    padded = np.zeros((batch, length, 2 * hidden), dtype=dtype)
    padded[:, -1, :hidden] = d_feat[:, :hidden]
    padded[:, 0, hidden:] = d_feat[:, hidden:]
    # the backward pass writes over its gate cache, so each takes a fresh forward
    want_dx, want = lstm.bilstm_backward(padded, _cached(x, params), lstm.Workspace(),
                                         need_dx=True)
    dx, got = lstm.bilstm_backward(d_feat, _cached(x, params), lstm.Workspace(), need_dx=True)
    assert dx.tobytes() == want_dx.tobytes()
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name


# PROJECTION_ROWS 1024 gives B=64 blocks of 16 steps and B=65 blocks of 15,
# neither dividing L=20; 96 rows give 1-step blocks at B=64 and B=65 and
# 96-step ones at B=1
@pytest.mark.parametrize("rows", [lstm.PROJECTION_ROWS, 96])
@pytest.mark.parametrize("batch", [0, 1, 64, 65])
@pytest.mark.parametrize("length", [1, 2, 20])
def test_cache_free_pass_gives_the_cached_bytes(rows, batch, length, monkeypatch):
    monkeypatch.setattr(lstm, "PROJECTION_ROWS", rows)
    rng = np.random.default_rng(33)
    params = lstm.init_bilstm_params(64, 32, rng)
    x = rng.normal(size=(batch, length, 64)).astype(np.float32)
    want, _ = lstm.bilstm_forward(x, params, lstm.Workspace(), cache=True)
    got, cache = lstm.bilstm_forward(x, params, lstm.Workspace(), cache=False)
    assert cache is None
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert lstm.sequence_feature(got).tobytes() == lstm.sequence_feature(want).tobytes()


def _stack_peak(x, layers, cache):
    """tracemalloc's peak over one forward pass of a stack of trunk layers
    on one workspace, as the classifier runs it."""
    tracemalloc.start()
    try:
        ws = lstm.Workspace()
        for i, params in enumerate(layers):
            x, _ = lstm.bilstm_forward(x, params, ws.scope(f"bilstm.{i}"), cache=cache)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cache_free_pass_holds_less_than_half():
    # (B, L, d, H) = (64, 20, 64, 32), a prediction chunk of imgtxt features
    # through the classifier's two layers: the cached pass keeps each layer's
    # gates and cell states for the backward pass, the cache-free pass only
    # each layer's output and scratch the layers share.  One layer alone
    # holds 64% of the cached peak: its input projections are as large as
    # the gate history they replace.
    rng = np.random.default_rng(35)
    x = rng.normal(size=(64, 20, 64)).astype(np.float32)
    layers = [lstm.init_bilstm_params(64, 32, rng), lstm.init_bilstm_params(64, 32, rng)]
    cached, free = _stack_peak(x, layers, True), _stack_peak(x, layers, False)
    assert free < cached / 2, (free, cached)
    assert _stack_peak(x, layers[:1], False) < _stack_peak(x, layers[:1], True)


def test_bilstm_grads():
    rng = np.random.default_rng(17)
    params = {k: v * 2.0 for k, v in as_float64(lstm.init_bilstm_params(3, 2, rng)).items()}
    x = rng.normal(size=(2, 4, 3))
    d = rng.normal(size=(2, 4, 4))

    def loss():
        out, cache = lstm.bilstm_forward(x, params, lstm.Workspace(), cache=True)
        dx, dp = lstm.bilstm_backward(d, cache, lstm.Workspace(), need_dx=True)
        return float(np.sum(out * d)), {"x": dx, **dp}

    check_grads(loss, {"x": x, **params})


def test_palindrome_symmetry_with_tied_directions():
    # same params both ways on a palindromic input: the forward state after
    # reading x[..t] equals the backward state after reading x[L-1-t..]
    rng = np.random.default_rng(31)
    one = as_float64(lstm.init_lstm_params(3, 2, rng))
    x = rng.normal(size=(3, 3))
    pal = np.concatenate([x, x[::-1][1:]], axis=0)  # length 5 palindrome
    batched, _ = lstm.bilstm_forward(pal[None], _trunk(one, one), lstm.Workspace(), cache=True)
    out = batched[0]
    length, hidden = pal.shape[0], 2
    for t in range(length):
        np.testing.assert_allclose(out[t, :hidden], out[length - 1 - t, hidden:], atol=1e-12)


def test_sequence_feature_picks_end_states():
    rng = np.random.default_rng(23)
    out = rng.normal(size=(2, 5, 6))
    feat = lstm.sequence_feature(out)
    assert feat.shape == (2, 6)
    np.testing.assert_array_equal(feat[:, :3], out[:, -1, :3])
    np.testing.assert_array_equal(feat[:, 3:], out[:, 0, 3:])


def test_init_forget_bias_open():
    rng = np.random.default_rng(29)
    p = lstm.init_lstm_params(4, 3, rng)
    assert p["wx"].dtype == np.float32
    np.testing.assert_array_equal(p["b"][3:6], np.ones(3, dtype=np.float32))
    np.testing.assert_array_equal(p["b"][:3], np.zeros(3, dtype=np.float32))
