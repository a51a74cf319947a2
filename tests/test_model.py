import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

from memefuse import TASKS, encode, model
from memefuse.lstm import (Workspace, bilstm_forward, init_bilstm_params, init_lstm_params,
                           lstm_cell_forward)
from memefuse.model import ModelVariant, NumericError, TrainConfig, TrainSet
from fdcheck import as_float64, check_grads


def _labels(rng, n, missing=None):
    labs = {
        "humor": rng.integers(0, 2, size=n),
        "sarcasm": rng.integers(0, 2, size=n),
        "motivation": rng.integers(0, 2, size=n),
        "sentiment": rng.integers(0, 3, size=n),
    }
    if missing:
        for task, idx in missing.items():
            labs[task] = labs[task].copy()
            labs[task][idx] = -1
    return {k: v.astype(np.int64) for k, v in labs.items()}


class TestConfigTypes:
    def test_variant_validation(self):
        with pytest.raises(ValueError):
            ModelVariant("imgcap")
        with pytest.raises(ValueError):
            ModelVariant("imgtxt", hidden=0)

    def test_train_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    def test_per_variant_defaults(self):
        assert TrainConfig.for_variant("imgtxt").epochs == 150
        assert TrainConfig.for_variant("imgsen").epochs == 45
        capsen = TrainConfig.for_variant("capsen")
        assert capsen.epochs == 75 and capsen.learning_rate == 3e-4
        assert TrainConfig.for_variant("capsen", epochs=2).epochs == 2

    def test_trainset_validation(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(4, 3, 2)).astype(np.float32)
        with pytest.raises(ValueError, match="missing task"):
            TrainSet(feats, {"humor": np.zeros(4)})
        labs = _labels(rng, 4)
        labs["sentiment"] = np.array([0, 1, 2, 3])
        with pytest.raises(ValueError, match="out of range"):
            TrainSet(feats, labs)


class TestLstmCellContract:
    def test_zero_params_zero_cell(self):
        p = {"wx": np.zeros((3, 8)), "wh": np.zeros((2, 8)), "b": np.zeros(8)}
        h, c, _ = lstm_cell_forward(np.ones(3), np.zeros(2), np.zeros(2), p)
        np.testing.assert_array_equal(h, np.zeros(2))
        np.testing.assert_array_equal(c, np.zeros(2))

    def test_zero_params_halves_cell(self):
        p = {"wx": np.zeros((3, 8)), "wh": np.zeros((2, 8)), "b": np.zeros(8)}
        v = np.array([0.4, -1.2])
        h, c, _ = lstm_cell_forward(np.ones(3), np.zeros(2), v, p)
        np.testing.assert_allclose(c, 0.5 * v, atol=1e-12)
        np.testing.assert_allclose(h, 0.5 * np.tanh(0.5 * v), atol=1e-12)


# every weight the program draws is float32; a float64 reference run
# casts them (fdcheck.as_float64)
@pytest.mark.parametrize("init", [
    lambda rng: encode.init_block_params(8, rng),
    lambda rng: init_lstm_params(3, 2, rng),
    lambda rng: init_bilstm_params(3, 2, rng),
    lambda rng: model.init_classifier_params(ModelVariant("capsen"), 6, rng),
], ids=["init_block_params", "init_lstm_params", "init_bilstm_params", "init_classifier_params"])
def test_initializers_draw_float32_only(init):
    params = init(np.random.default_rng(0))
    assert params and {v.dtype for v in params.values()} == {np.dtype(np.float32)}


class TestForward:
    def _setup(self, kind="imgtxt"):
        variant = ModelVariant(kind, bilstm_layers=2, hidden=4, head_hidden=4)
        rng = np.random.default_rng(9)
        params = model.init_classifier_params(variant, 6, rng)
        x = rng.normal(size=(1, 5, 6)).astype(np.float32)
        return variant, params, x

    def test_arities_and_normalization(self):
        variant, params, x = self._setup()
        preds = model.predict_proba(variant, x, params)
        assert [preds[t].shape for t in TASKS] == [(1, 2), (1, 2), (1, 2), (1, 3)]
        for task, probs in preds.items():
            assert abs(probs.sum() - 1.0) < 1e-6
            assert np.all(probs >= 0) and np.all(probs <= 1)

    def test_deterministic(self):
        variant, params, x = self._setup()
        a = model.predict_proba(variant, x, params)
        b = model.predict_proba(variant, x, params)
        for task in TASKS:
            np.testing.assert_array_equal(a[task], b[task])

    def test_non_finite_feature_names_row(self):
        variant, params, _ = self._setup()
        x = np.random.default_rng(4).normal(size=(model.PREDICT_CHUNK + 9, 5, 6))
        bad = model.PREDICT_CHUNK + 7
        x[bad, 3, 2] = np.inf
        x[bad + 1, 0, 0] = np.nan
        with pytest.raises(NumericError, match=f"row {bad}$"):
            model.predict_proba(variant, x.astype(np.float32), params)


class TestPredictChunks:
    def _setup(self):
        variant = ModelVariant("imgsen", bilstm_layers=2, hidden=4, head_hidden=4)
        rng = np.random.default_rng(12)
        return variant, model.init_classifier_params(variant, 6, rng), rng

    def test_chunked_matches_row_at_a_time(self):
        variant, params, rng = self._setup()
        n = 2 * model.PREDICT_CHUNK + 3
        x = rng.normal(size=(n, 4, 6)).astype(np.float32)
        whole = model.predict_proba(variant, x, params)
        assert [whole[t].shape for t in TASKS] == [(n, 2), (n, 2), (n, 2), (n, 3)]
        for row in range(n):
            one = model.predict_proba(variant, x[row:row + 1], params)
            for task in TASKS:
                np.testing.assert_allclose(whole[task][row], one[task][0], atol=1e-6)

    def test_chunk_size_changes_no_byte(self, monkeypatch):
        # imgtxt's fused shape and the default trunk; every chunk size splits
        # the 300 rows unevenly
        variant = ModelVariant("imgtxt")
        rng = np.random.default_rng(13)
        params = model.init_classifier_params(variant, 64, rng)
        x = rng.normal(size=(300, 20, 64)).astype(np.float32)
        probs = {}
        for chunk in (256, 64, 32):
            monkeypatch.setattr(model, "PREDICT_CHUNK", chunk)
            out = model.predict_proba(variant, x, params)
            probs[chunk] = b"".join(out[task].tobytes() for task in TASKS)
        assert probs[64] == probs[256] and probs[32] == probs[256]

    def test_zero_rows(self):
        variant, params, _ = self._setup()
        probs = model.predict_proba(variant, np.zeros((0, 4, 6), np.float32), params)
        assert [probs[t].shape for t in TASKS] == [(0, 2), (0, 2), (0, 2), (0, 3)]

    def test_saturated_overflow_passes_without_a_warning(self):
        # a weight near float32's largest value overflows the input projection
        # to inf, which the gates saturate to finite probabilities
        variant, params, rng = self._setup()
        x = rng.normal(size=(3, 4, 6)).astype(np.float32)
        x[..., 0] = 10.0
        params["bilstm.0.wx"][0, 0] = 3.4e38
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probs = model.predict_proba(variant, x, params)
        assert all(np.isfinite(probs[t]).all() for t in TASKS)

    def test_overflowing_logit_raises_naming_the_row(self):
        # the humor head's hidden units saturate near 1, so its first logit
        # sums four extreme products to inf, and softmax gives inf - inf
        variant, params, rng = self._setup()
        x = rng.normal(size=(3, 4, 6)).astype(np.float32)
        params["head.humor.b1"][:] = 10.0
        params["head.humor.w2"][:, 0] = 3.4e38
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="non-finite humor probability in row 0"):
                model.predict_proba(variant, x, params)

    def test_peak_memory_bounded_by_one_chunk(self):
        variant, params, rng = self._setup()
        x = rng.normal(size=(8 * model.PREDICT_CHUNK, 10, 6)).astype(np.float32)

        def peak(rows):
            tracemalloc.start()
            try:
                model.predict_proba(variant, x[:rows], params)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(len(x)) <= 1.5 * peak(model.PREDICT_CHUNK)


class TestLossAndGrads:
    def test_full_gradient_check(self):
        variant = ModelVariant("imgtxt", bilstm_layers=2, hidden=3, head_hidden=3)
        rng = np.random.default_rng(21)
        params = as_float64(model.init_classifier_params(variant, 4, rng))
        x = rng.normal(size=(3, 4, 4))
        labels = _labels(rng, 3, missing={"sarcasm": [1]})

        def loss():
            total, grads, _ = model.loss_and_grads(x, labels, variant, params, Workspace())
            return total, {"x": None, **grads}

        check_grads(loss, params)

    def test_missing_labels_masked(self):
        variant = ModelVariant("imgtxt", bilstm_layers=1, hidden=3, head_hidden=3)
        rng = np.random.default_rng(23)
        params = as_float64(model.init_classifier_params(variant, 4, rng))
        x = rng.normal(size=(4, 3, 4))
        labels = _labels(rng, 4)
        # only the humor head counts, and the last two samples are masked out of it
        masked = {k: np.full_like(v, -1) for k, v in labels.items()}
        masked["humor"][:2] = labels["humor"][:2]
        loss_masked, _, _ = model.loss_and_grads(x, masked, variant, params, Workspace())
        sub = {k: v[:2] for k, v in masked.items()}
        loss_sub, _, _ = model.loss_and_grads(x[:2], sub, variant, params, Workspace())
        assert abs(loss_masked - loss_sub) < 1e-12

    def test_heads_gradient_independent(self):
        variant = ModelVariant("imgtxt", bilstm_layers=1, hidden=3, head_hidden=3)
        rng = np.random.default_rng(25)
        params = as_float64(model.init_classifier_params(variant, 4, rng))
        x = rng.normal(size=(4, 3, 4))
        labels = _labels(rng, 4)
        _, g_all, _ = model.loss_and_grads(x, labels, variant, params, Workspace())
        no_humor = {**labels, "humor": np.full_like(labels["humor"], -1)}
        _, g_some, _ = model.loss_and_grads(x, no_humor, variant, params, Workspace())
        for name in g_all:
            if name.startswith("head.humor."):
                np.testing.assert_array_equal(g_some[name], np.zeros_like(g_some[name]))
            elif name.startswith("head."):
                np.testing.assert_array_equal(g_all[name], g_some[name])


class TestAdam:
    def test_zero_gradient_no_move(self):
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.zeros(2)}
        updated, _ = model.adam_step(params, grads, None, lr=0.1, t=1)
        np.testing.assert_array_equal(updated["w"], [1.0, -2.0])

    def test_first_step_magnitude_is_lr(self, monkeypatch):
        monkeypatch.setattr(model, "ADAM_EPS", 0.0)
        params = {"w": np.array([3.0])}
        grads = {"w": np.array([0.7])}
        model.adam_step(params, grads, None, lr=0.01, t=1)
        np.testing.assert_allclose(params["w"], [3.0 - 0.01], atol=1e-12)

    def test_five_steps_match_hand_oracle(self):
        # oracle: scalar Adam stepped with plain python floats on f(x) = x^2
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        x_ref, m, v = 2.0, 0.0, 0.0
        trajectory = []
        for t in range(1, 6):
            g = 2.0 * x_ref
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1**t)
            vhat = v / (1 - b2**t)
            x_ref -= lr * mhat / (vhat**0.5 + eps)
            trajectory.append(x_ref)

        params = {"x": np.array([2.0])}
        state = None
        for t in range(1, 6):
            grads = {"x": 2.0 * params["x"]}
            params, state = model.adam_step(params, grads, state, lr=lr, t=t)
            np.testing.assert_allclose(params["x"][0], trajectory[t - 1], atol=1e-10)

    def test_non_finite_gradient_aborts(self):
        params = {"w": np.ones(2)}
        with pytest.raises(NumericError, match="w"):
            model.adam_step(params, {"w": np.array([1.0, np.nan])}, None, lr=0.1, t=1)

    # float32: lr overflows in its cast; float64: the parameter overflows in the update
    @pytest.mark.parametrize("dtype, start", [(np.float32, 1.0), (np.float64, -1.5e308)])
    def test_overflowing_update_aborts_naming_the_parameter(self, dtype, start):
        params = {"w": np.full(2, start, dtype=dtype), "b": np.ones(2, dtype=dtype)}
        grads = {"w": np.ones(2, dtype=dtype), "b": np.zeros(2, dtype=dtype)}
        with pytest.raises(NumericError, match="non-finite parameter w after step 1"):
            model.adam_step(params, grads, None, lr=1e308, t=1)

    def test_overflowing_moment_raises_no_warning(self):
        # a finite float32 gradient whose square overflows: the second moment
        # turns inf, the step 0, and the next step's inf - inf reaches the
        # parameter, which is reported by name
        params = {"w": np.ones(2, dtype=np.float32)}
        grads = {"w": np.full(2, 1e20, dtype=np.float32)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, state = model.adam_step(params, grads, None, lr=0.1, t=1)
            np.testing.assert_array_equal(params["w"], [1.0, 1.0])
            with pytest.raises(NumericError, match="non-finite parameter w after step 2"):
                model.adam_step(params, grads, state, lr=0.1, t=2)

    def test_bad_step_index(self):
        with pytest.raises(ValueError):
            model.adam_step({"w": np.ones(1)}, {"w": np.ones(1)}, None, lr=0.1, t=0)


def _tiny_trainset(rng, n=12, length=3, d=4):
    feats = rng.normal(size=(n, length, d)).astype(np.float32)
    return TrainSet(feats, _labels(rng, n))


class TestTrain:
    def test_loss_drops_after_50_steps(self):
        variant = ModelVariant("imgtxt", bilstm_layers=1, hidden=4, head_hidden=4)
        rng = np.random.default_rng(31)
        ds = _tiny_trainset(rng)
        params = model.init_classifier_params(variant, 4, np.random.default_rng(1))
        labels = ds.labels
        first, _, _ = model.loss_and_grads(ds.features, labels, variant, params, Workspace())
        state, t = None, 0
        for _ in range(50):
            loss, grads, _ = model.loss_and_grads(ds.features, labels, variant, params, Workspace())
            t += 1
            params, state = model.adam_step(params, grads, state, lr=1e-2, t=t)
        final, _, _ = model.loss_and_grads(ds.features, labels, variant, params, Workspace())
        assert final < first

    def test_history_shape_and_determinism(self):
        variant = ModelVariant("imgsen", bilstm_layers=1, hidden=4, head_hidden=4)
        rng = np.random.default_rng(33)
        ds = _tiny_trainset(rng)
        cfg = TrainConfig(batch_size=5, learning_rate=1e-2, epochs=3, seed=7)
        params_a, hist_a = model.train(variant, ds, cfg)
        params_b, hist_b = model.train(variant, ds, cfg)
        assert len(hist_a) == 3
        assert set(hist_a[0]) == {"epoch", "loss", "acc_humor", "acc_sarcasm",
                                  "acc_motivation", "acc_sentiment"}
        assert hist_a == hist_b
        for k in params_a:
            np.testing.assert_array_equal(params_a[k], params_b[k])

    def test_empty_trainset_rejected(self):
        variant = ModelVariant("imgtxt")
        feats = np.zeros((0, 3, 4), dtype=np.float32)
        labs = {t: np.zeros(0, dtype=np.int64) for t in
                ("humor", "sarcasm", "motivation", "sentiment")}
        with pytest.raises(ValueError, match="empty"):
            model.train(variant, TrainSet(feats, labs), TrainConfig(epochs=1))

    def test_final_partial_batch_used(self):
        # 7 samples, batch 4: the 3-sample remainder still contributes
        variant = ModelVariant("imgtxt", bilstm_layers=1, hidden=3, head_hidden=3)
        rng = np.random.default_rng(35)
        ds = _tiny_trainset(rng, n=7)
        cfg = TrainConfig(batch_size=4, learning_rate=1e-2, epochs=1, seed=1)
        _, hist = model.train(variant, ds, cfg)
        # running accuracy counted every sample exactly once
        assert hist[0]["acc_humor"] * 7 == int(hist[0]["acc_humor"] * 7)


class TestWorkspace:
    def _setup(self):
        variant = ModelVariant("imgtxt", bilstm_layers=2, hidden=4, head_hidden=4)
        rng = np.random.default_rng(37)
        return variant, model.init_classifier_params(variant, 6, rng), rng

    def test_reused_buffers_match_fresh_ones(self):
        variant, params, rng = self._setup()
        ws = Workspace()
        for batch in (8, 3, 8):  # a full batch, a tail batch, a full batch again
            x = rng.normal(size=(batch, 5, 6)).astype(np.float32)
            labels = _labels(rng, batch, missing={"humor": [1]})
            loss, grads, probs = model.loss_and_grads(x, labels, variant, params, ws=ws)
            want_loss, want_grads, want_probs = model.loss_and_grads(x, labels, variant, params,
                                                                     Workspace())
            assert loss == want_loss
            assert sorted(grads) == sorted(want_grads) == sorted(params)
            for name, g in want_grads.items():
                np.testing.assert_array_equal(grads[name], g, err_msg=name)
            for task in TASKS:
                np.testing.assert_array_equal(probs[task], want_probs[task])

    def test_predict_between_steps_changes_nothing(self, monkeypatch):
        variant, _, rng = self._setup()
        ds = _tiny_trainset(rng, n=11, length=5, d=6)
        cfg = TrainConfig(batch_size=4, learning_rate=1e-2, epochs=2, seed=3)
        want, want_hist = model.train(variant, ds, cfg)
        adam_step = model.adam_step

        def predict_then_step(params, *args, **kwargs):
            model.predict_proba(variant, ds.features, params)
            return adam_step(params, *args, **kwargs)

        monkeypatch.setattr(model, "adam_step", predict_then_step)
        got, hist = model.train(variant, ds, cfg)
        assert hist == want_hist
        for name in want:
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)

    def test_batch_is_gathered_once_time_major(self):
        rng = np.random.default_rng(41)
        feats = rng.normal(size=(9, 5, 6)).astype(np.float32)
        idx = rng.permutation(9)[:4]
        ws = Workspace()
        x = model.gather_batch(feats, idx, ws)
        # batch-major view of time-major memory: bilstm_forward reads it in place
        assert x.shape == (4, 5, 6) and x.transpose(1, 0, 2).flags.c_contiguous
        np.testing.assert_array_equal(x.transpose(1, 0, 2),
                                      np.take(feats, idx, axis=0).transpose(1, 0, 2))
        bilstm_forward(x, init_bilstm_params(6, 2, rng), ws.scope("bilstm.0"), cache=True)
        assert "bilstm.0.x" not in ws._flat

    def test_training_step_workspace_bytes(self):
        # one train step at B=256, L=20, d=64, H=32: per layer the gate cache
        # (5 MiB), the cell states (L + 1 of them) and the outputs; the batch
        # once, time-major, and its row index; the shared scratch.  Neither a
        # transposed copy of the batch, nor a zero-padded top-layer gradient,
        # nor a tanh(c) history: 24.47 MiB with them.  Layer 1's input
        # gradient is written over its spent cell states, not into a buffer
        # of its own: 19.57 MiB with one
        batch, length, d_in = 256, 20, 64
        variant = ModelVariant("imgtxt")
        rng = np.random.default_rng(43)
        params = model.init_classifier_params(variant, d_in, rng)
        feats = rng.normal(size=(batch, length, d_in)).astype(np.float32)
        ws = Workspace()
        x = model.gather_batch(feats, np.arange(batch), ws)
        model.loss_and_grads(x, _labels(rng, batch), variant, params, ws=ws)
        total = sum(flat.nbytes for flat in ws._flat.values())
        assert total == 19_210_240  # 18.32 MiB

    @staticmethod
    def _steady_step_memory(monkeypatch, length, batch, hidden):
        """tracemalloc peak above the start of each train step, for the steps
        after the first of each batch shape (full, full, tail per epoch)."""
        variant = ModelVariant("imgtxt", bilstm_layers=2, hidden=hidden, head_hidden=4)
        rng = np.random.default_rng(39)
        ds = _tiny_trainset(rng, n=2 * batch + 7, length=length, d=4)
        marks = []
        adam_step = model.adam_step

        def marked(*args, **kwargs):
            out = adam_step(*args, **kwargs)
            marks.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
            return out

        with monkeypatch.context() as patch:
            patch.setattr(model, "adam_step", marked)
            tracemalloc.start()
            try:
                model.train(variant, ds, TrainConfig(batch_size=batch, epochs=2))
            finally:
                tracemalloc.stop()
        steps = [peak - start for (start, _), (_, peak) in zip(marks, marks[1:])]
        return [steps[i] for i in (0, 2, 3, 4)]  # steps 2, 4, 5, 6

    def test_steady_steps_allocate_nothing_sequence_sized(self, monkeypatch):
        # the caches and the step temporaries live in the workspace, so what a
        # step still allocates (heads, gradients, Adam) does not grow with L;
        # one (B, 4H) block of slack
        batch, hidden = 64, 8
        block = batch * 4 * hidden * np.dtype(np.float32).itemsize
        short = self._steady_step_memory(monkeypatch, 4, batch, hidden)
        long = self._steady_step_memory(monkeypatch, 32, batch, hidden)
        assert max(long) <= max(short) + block


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        variant = ModelVariant("capsen", bilstm_layers=2, hidden=4, head_hidden=4)
        rng = np.random.default_rng(41)
        params = model.init_classifier_params(variant, 6, rng)
        path = tmp_path / "model.ckpt"
        model.save_checkpoint(path, variant, params, seed=7, epoch=3)
        variant2, params2, meta = model.load_checkpoint(path)
        assert variant2 == variant
        assert meta == {"seed": 7, "epoch": 3}
        assert sorted(params2) == sorted(params)
        for k in params:
            np.testing.assert_array_equal(params2[k], params[k])
        x = rng.normal(size=(1, 5, 6)).astype(np.float32)
        a = model.predict_proba(variant, x, params)
        b = model.predict_proba(variant2, x, params2)
        for task in TASKS:
            np.testing.assert_array_equal(a[task], b[task])

    # sha256 of the file save_checkpoint writes for this variant, params from
    # init_classifier_params(variant, 6, np.random.default_rng(5)), seed 7, epoch 3:
    # the header line's key order and every tensor byte; recorded with
    #   python -c "import hashlib, numpy as np; from memefuse.model import *;
    #   v = ModelVariant('capsen', 2, 4, 3); save_checkpoint('m.ckpt', v,
    #   init_classifier_params(v, 6, np.random.default_rng(5)), 7, 3);
    #   print(hashlib.sha256(open('m.ckpt', 'rb').read()).hexdigest())"
    CHECKPOINT_SHA256 = "12ffefcee2ead240132a1db80dfc77e567b19bdb60d1f39ba55f2c0023999468"

    def test_bytes_pinned(self, tmp_path):
        variant = ModelVariant("capsen", bilstm_layers=2, hidden=4, head_hidden=3)
        params = model.init_classifier_params(variant, 6, np.random.default_rng(5))
        path = tmp_path / "model.ckpt"
        model.save_checkpoint(path, variant, params, seed=7, epoch=3)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.CHECKPOINT_SHA256

    def test_trunk_tensors_load_contiguous_in_trunk_layout(self, tmp_path):
        # bilstm_forward multiplies the loaded arrays as they lie
        variant = ModelVariant("imgtxt", bilstm_layers=2, hidden=3, head_hidden=2)
        params = model.init_classifier_params(variant, 5, np.random.default_rng(43))
        path = tmp_path / "model.ckpt"
        model.save_checkpoint(path, variant, params, seed=0, epoch=1)
        _, loaded, _ = model.load_checkpoint(path)
        for i, width in enumerate((5, 6)):
            shapes = {"wx": (width, 2, 4, 3), "wh": (2, 4, 3, 3), "b": (2, 4, 3)}
            for name, shape in shapes.items():
                for source in (params, loaded):
                    arr = source[f"bilstm.{i}.{name}"]
                    assert arr.shape == shape and arr.flags.c_contiguous, (i, name)

    def test_rejects_non_checkpoint(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b'{"hello": 1}\n')
        with pytest.raises(ValueError, match="not a checkpoint"):
            model.load_checkpoint(path)

    def test_rejects_truncation(self, tmp_path):
        variant = ModelVariant("imgtxt", bilstm_layers=1, hidden=2, head_hidden=2)
        params = model.init_classifier_params(variant, 3, np.random.default_rng(0))
        path = tmp_path / "model.ckpt"
        model.save_checkpoint(path, variant, params, seed=0, epoch=1)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError, match="truncated"):
            model.load_checkpoint(path)

    def test_history_file_jsonl(self, tmp_path):
        hist = [{"epoch": 1, "loss": 2.5, "acc_humor": 0.5, "acc_sarcasm": 0.5,
                 "acc_motivation": 0.5, "acc_sentiment": 0.25}]
        path = tmp_path / "history.jsonl"
        model.save_history(path, hist)
        import json
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == hist[0]
