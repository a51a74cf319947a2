import tracemalloc

import numpy as np
import pytest

from memefuse import encode, nnops
from memefuse.pipeline import build_feature_space
from fdcheck import as_float64, check_grads


class TestPatchify:
    def test_shape_224(self):
        img = np.zeros((224, 224, 3), dtype=np.float32)
        patches = encode.patchify(img, 16)
        assert patches.shape == (196, 768)

    def test_patch_order_and_flattening(self):
        # 4x4 single-channel image with distinct values, 2x2 patches
        img = np.arange(16, dtype=np.float64).reshape(4, 4, 1)
        patches = encode.patchify(img, 2)
        assert patches.shape == (4, 4)
        # top-left patch, rows then columns
        np.testing.assert_array_equal(patches[0], [0, 1, 4, 5])
        # grid is traversed row-major: second patch is top-right
        np.testing.assert_array_equal(patches[1], [2, 3, 6, 7])
        np.testing.assert_array_equal(patches[2], [8, 9, 12, 13])

    def test_channels_interleave_last(self):
        img = np.stack([np.zeros((2, 2)), np.ones((2, 2))], axis=-1)
        patches = encode.patchify(img, 2)
        np.testing.assert_array_equal(patches[0], [0, 1, 0, 1, 0, 1, 0, 1])

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            encode.patchify(np.zeros((5, 4, 3)), 2)
        with pytest.raises(ValueError):
            encode.patchify(np.zeros((4, 4)), 2)

    def test_reconstruction_roundtrip(self):
        rng = np.random.default_rng(42)
        img = rng.normal(size=(8, 8, 3))
        patches = encode.patchify(img, 4)
        back = patches.reshape(2, 2, 4, 4, 3).transpose(0, 2, 1, 3, 4).reshape(8, 8, 3)
        np.testing.assert_array_equal(back, img)


class TestTransformerBlock:
    def test_shape_preserved(self):
        rng = np.random.default_rng(1)
        p = as_float64(encode.init_block_params(8, rng))
        x = rng.normal(size=(5, 8))
        y, _ = encode.transformer_block_forward(x, p, n_heads=2)
        assert y.shape == (5, 8)

    def test_zero_projections_give_identity(self):
        # with attn.wo and ffn.w2 zeroed both residual branches vanish
        rng = np.random.default_rng(2)
        p = as_float64(encode.init_block_params(8, rng))
        p["attn.wo"] = np.zeros_like(p["attn.wo"])
        p["ffn.w2"] = np.zeros_like(p["ffn.w2"])
        x = rng.normal(size=(4, 8))
        y, _ = encode.transformer_block_forward(x, p, 2)
        np.testing.assert_allclose(y, x, atol=1e-12)

    def test_grads(self):
        rng = np.random.default_rng(3)
        p = as_float64(encode.init_block_params(6, rng))
        x = rng.normal(size=(4, 6))
        d = rng.normal(size=(4, 6))

        def loss():
            y, cache = encode.transformer_block_forward(x, p, 2)
            dx, dp = encode.transformer_block_backward(d, cache)
            return float(np.sum(y * d)), {"x": dx, **dp}

        check_grads(loss, {"x": x, **p})


class TestImageEncoder:
    def test_output_shape_and_determinism(self):
        params = encode.init_image_encoder_params(5)
        img = np.random.default_rng(0).normal(size=(32, 32, 3)).astype(np.float32)
        a = encode.encode_image(img, params)
        b = encode.encode_image(img, params)
        assert a.shape == (4, encode.D_MODEL)
        np.testing.assert_array_equal(a, b)

    def test_same_seed_same_params(self):
        p1 = encode.init_image_encoder_params(5)
        p2 = encode.init_image_encoder_params(5)
        for k in p1:
            np.testing.assert_array_equal(p1[k], p2[k])

    def test_batch_matches_one_image_at_a_time(self):
        params = encode.init_image_encoder_params(5)
        images = np.random.default_rng(1).uniform(size=(2, 3, 32, 32, 3)).astype(np.float32)
        batch = encode.encode_image(images, params)
        assert batch.shape == (2, 3, 4, encode.D_MODEL)
        for idx in np.ndindex(2, 3):
            assert batch[idx].tobytes() == encode.encode_image(images[idx], params).tobytes()

    def test_peak_does_not_grow_with_the_block_count(self, monkeypatch):
        # the frozen encoders never run backward, so each block's cache is
        # dropped before the next block runs: four blocks peak as one does
        images = np.random.default_rng(2).uniform(size=(64, 32, 32, 3)).astype(np.float32)

        def peak(layers):
            monkeypatch.setattr(encode, "N_LAYERS", layers)
            params = encode.init_image_encoder_params(0)
            tracemalloc.start()
            try:
                encode.encode_image(images, params)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4) <= 1.1 * peak(1)

    def test_wrong_image_size_raises(self):
        params = encode.init_image_encoder_params(0)
        # 24 is not a multiple of the patch size; 48 gives 9 patches for 4 positions
        for side in (24, 48):
            with pytest.raises(ValueError):
                encode.encode_image(np.zeros((side, side, 3)), params)


class TestTextEncoder:
    def _setup(self):
        return encode.init_text_encoder_params(9)

    @staticmethod
    def _one_text(tokens, params):
        """One text's (L, d) token sequence: its ids alone, with no batch axis."""
        return encode.encode_ids(np.array(encode.text_ids(tokens)), params)

    def test_token_ids_stable_and_nonzero(self):
        a = encode.token_id("meme")
        assert a == encode.token_id("meme")
        ids = {encode.token_id(w) for w in ("a", "b", "c", "dog", "cat", "meme")}
        assert all(1 <= i < encode.VOCAB_SIZE for i in ids)

    def test_sequence_shape_and_truncation(self):
        params = self._setup()
        seq = self._one_text(["one", "two", "three"], params)
        assert seq.shape == (3, encode.D_MODEL)
        words = [f"w{i}" for i in range(encode.MAX_TOKENS + 4)]
        long = self._one_text(words, params)
        assert long.shape == (encode.MAX_TOKENS, encode.D_MODEL)
        assert long.tobytes() == self._one_text(words[:encode.MAX_TOKENS], params).tobytes()

    def test_empty_input_is_null_token(self):
        params = self._setup()
        seq = self._one_text([], params)
        assert seq.shape == (1, encode.D_MODEL)
        # null token row 0 plus position 0, through the same blocks
        expect = params["tok_emb"][[0]] + params["pos"][:1]
        for i in range(encode.N_LAYERS):
            expect, _ = encode.transformer_block_forward(
                expect, nnops.sub_params(params, f"blocks.{i}"), encode.N_HEADS)
        np.testing.assert_allclose(seq, expect, atol=1e-6)

    def test_sentence_embedding_width(self):
        params = self._setup()
        vec = encode.pool_sentence(self._one_text(["hello", "world"], params), params)
        assert vec.shape == (768,)
        np.testing.assert_array_equal(
            vec, encode.pool_sentence(self._one_text(["hello", "world"], params), params))

    def test_batched_ids_match_one_text_at_a_time(self):
        params = self._setup()
        texts = [["dog", "bites", "man"], ["man", "bites", "dog"], ["cat", "sat", "mat"]]
        ids = np.array([encode.text_ids(t) for t in texts])
        seqs = encode.encode_ids(ids, params)
        sents = encode.pool_sentence(seqs, params)
        assert seqs.shape == (3, 3, encode.D_MODEL) and sents.shape == (3, 768)
        for i, tokens in enumerate(texts):
            one = self._one_text(tokens, params)
            assert seqs[i].tobytes() == one.tobytes()
            assert sents[i].tobytes() == encode.pool_sentence(one, params).tobytes()

    def test_order_sensitivity(self):
        params = self._setup()
        a = encode.pool_sentence(self._one_text(["dog", "bites", "man"], params), params)
        b = encode.pool_sentence(self._one_text(["man", "bites", "dog"], params), params)
        assert not np.allclose(a, b)


class TestFloat32Features:
    """The frozen encoders compute in the float32 of their weights, end to end."""

    @pytest.fixture(scope="class")
    def space(self):
        # one space with each encoder: imgtxt's image and text encoders, and
        # capsen's captioner
        space = build_feature_space("imgtxt", 0)
        space.caption_params = build_feature_space("capsen", 0).caption_params
        for weights in (space.image_params, space.text_params, space.caption_params):
            assert {v.dtype for v in weights.values()} == {np.dtype(np.float32)}
        return space

    def test_image_encoder(self, space):
        images = np.random.default_rng(2).uniform(size=(3, 32, 32, 3))
        assert encode.encode_image(images, space.image_params).dtype == np.float32

    def test_text_encoder(self, space):
        ids = np.array([encode.text_ids(t) for t in (["a", "cat"], ["the", "dog"])])
        seqs = encode.encode_ids(ids, space.text_params)
        assert seqs.dtype == np.float32
        assert encode.pool_sentence(seqs, space.text_params).dtype == np.float32

    def test_captioner(self, space, monkeypatch):
        steps = []
        decode_step = encode._decode_step

        def recording(*args):
            logits, caches = decode_step(*args)
            steps.append([logits, *(a for cache in caches for a in cache)])
            return logits, caches

        monkeypatch.setattr(encode, "_decode_step", recording)
        images = np.random.default_rng(3).uniform(size=(3, 32, 32, 3))
        assert encode._image_features(images, space.caption_params).dtype == np.float32
        encode.generate_captions(images, space.caption_params)
        assert steps and {a.dtype for step in steps for a in step} == {np.dtype(np.float32)}


def _conv_loop(x, w, b, stride):
    """Valid strided convolution, one output element at a time."""
    batch, height, width, _ = x.shape
    kh, kw, _, cout = w.shape
    out = np.zeros((batch, (height - kh) // stride + 1, (width - kw) // stride + 1, cout))
    for n, i, j, o in np.ndindex(*out.shape):
        window = x[n, i * stride:i * stride + kh, j * stride:j * stride + kw]
        out[n, i, j, o] = np.sum(window * w[..., o]) + b[o]
    return out


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("kernel", [(3, 3), (2, 3)])
def test_conv2d_matches_loop_oracle(stride, kernel):
    rng = np.random.default_rng(stride * 10 + kernel[0])
    x = rng.normal(size=(2, 7, 9, 3))
    w = rng.normal(size=(*kernel, 3, 5))
    b = rng.normal(size=5)
    out = encode._conv2d(x, w, b, stride)
    expect = _conv_loop(x, w, b, stride)
    assert out.shape == expect.shape
    np.testing.assert_allclose(out, expect, rtol=0, atol=1e-12)


# --- incremental caption decoding against a full-prefix oracle -------------


def _layernorm(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + 1e-5) * gain + bias


def _attention(x_q, x_kv, p, pre, mask=None):
    """Multi-head attention head by head, with an optional additive mask."""
    q = x_q @ p[pre + "wq"] + p[pre + "bq"]
    k = x_kv @ p[pre + "wk"] + p[pre + "bk"]
    v = x_kv @ p[pre + "wv"] + p[pre + "bv"]
    dh = q.shape[-1] // encode.CAPTION_HEADS
    out = np.empty_like(q)
    for h in range(encode.CAPTION_HEADS):
        cols = slice(h * dh, (h + 1) * dh)
        scores = q[:, cols] @ k[:, cols].T / np.sqrt(dh)
        if mask is not None:
            scores = scores + mask
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        out[:, cols] = (e / e.sum(axis=-1, keepdims=True)) @ v[:, cols]
    return out @ p[pre + "wo"] + p[pre + "bo"]


def _oracle_decode(feats, p, n_layers):
    """One image's (positions, d) features -> its caption and each step's
    logits, running the whole prefix through the stack at every step under
    a causal mask."""
    words, ids, logits = [], [], []
    for step in range(encode.CAPTION_LEN):
        x = np.vstack([p["start_emb"][None], p["tok_emb"][ids]]) + p["pos"][:step + 1]
        causal = np.triu(np.full((step + 1, step + 1), -np.inf), k=1)
        for i in range(n_layers):
            s, c = f"self.{i}.", f"cross.{i}."
            n1 = _layernorm(x, p[s + "ln1.g"], p[s + "ln1.b"])
            x = x + _attention(n1, n1, p, s + "attn.", causal)
            f = _layernorm(x, p[s + "ln2.g"], p[s + "ln2.b"]) @ p[s + "ffn.w1"] + p[s + "ffn.b1"]
            f = 0.5 * f * (1 + np.tanh(np.sqrt(2 / np.pi) * (f + 0.044715 * f ** 3)))
            x = x + f @ p[s + "ffn.w2"] + p[s + "ffn.b2"]
            x = x + _attention(_layernorm(x, p[c + "ln.g"], p[c + "ln.b"]), feats, p, c)
        logits.append(x[-1] @ p["out.w"] + p["out.b"])
        word = int(np.argmax(logits[-1]))
        if word == encode.END_TOKEN:
            break
        words.append(encode.CAPTION_WORDS[word - 1])
        ids.append(word)
    return words, logits


def _float64_decoder(seed, n_layers):
    """A float64 captioner whose rows finish at different steps: random word
    embeddings and a raised end-token bias make captions diverge and stop."""
    p = as_float64(encode.init_caption_decoder_params(seed))
    rng = np.random.default_rng(seed)
    for i in range(1, n_layers):
        for k, v in as_float64(encode.init_block_params(encode.CAPTION_D_MODEL, rng)).items():
            p[f"self.{i}.{k}"] = v
        for k, v in nnops.sub_params(p, "cross.0").items():
            p[f"cross.{i}.{k}"] = v + rng.normal(size=v.shape) * 0.1
    p["tok_emb"] = rng.normal(size=p["tok_emb"].shape)
    p["out.b"] = np.zeros_like(p["out.b"])
    p["out.b"][encode.END_TOKEN] = 1.5
    return p, rng.normal(size=(16, 11, 13, 3)) * 3


@pytest.mark.parametrize("seed,n_layers", [(0, 1), (1, 1), (4, 1), (4, 2), (7, 2)])
def test_cached_decoding_matches_full_prefix_oracle(seed, n_layers, monkeypatch):
    p, images = _float64_decoder(seed, n_layers)
    monkeypatch.setattr(encode, "CAPTION_LAYERS", n_layers)
    steps = []
    decode_step = encode._decode_step

    def recording(*args):
        logits, caches = decode_step(*args)
        steps.append(logits)
        return logits, caches

    monkeypatch.setattr(encode, "_decode_step", recording)
    captions = encode.generate_captions(images, p)
    feats = encode._image_features(images, p)
    oracle = [_oracle_decode(f, p, n_layers) for f in feats]
    assert len({len(words) for words, _ in oracle}) >= 3, "rows should finish at different steps"
    assert captions == [words for words, _ in oracle]
    assert len(steps) == max(len(logits) for _, logits in oracle)
    for step, got in enumerate(steps):
        expect = np.array([logits[step] for _, logits in oracle if len(logits) > step])
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-10)


def test_decoder_slices_its_parameters_once_per_call(monkeypatch):
    # one set of views per layer for every step, not three per step and layer
    p, images = _float64_decoder(4, 2)
    monkeypatch.setattr(encode, "CAPTION_LAYERS", 2)
    prefixes = []
    sub_params = nnops.sub_params

    def counting(params, prefix):
        prefixes.append(prefix)
        return sub_params(params, prefix)

    monkeypatch.setattr(nnops, "sub_params", counting)
    captions = encode.generate_captions(images, p)
    assert max(map(len, captions)) > 1, "the decoder should run several steps"
    assert prefixes == ["self.0", "attn", "cross.0", "self.1", "attn", "cross.1"]
