import numpy as np
import pytest

from memefuse import encode, nnops
from fdcheck import check_grads


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
        p = encode.init_block_params(8, 2, rng, dtype=np.float64)
        x = rng.normal(size=(5, 8))
        y, _ = encode.transformer_block_forward(x, p, n_heads=2)
        assert y.shape == (5, 8)

    def test_zero_projections_give_identity(self):
        # with attn.wo and ffn.w2 zeroed both residual branches vanish
        rng = np.random.default_rng(2)
        p = encode.init_block_params(8, 2, rng, dtype=np.float64)
        p["attn.wo"] = np.zeros_like(p["attn.wo"])
        p["ffn.w2"] = np.zeros_like(p["ffn.w2"])
        x = rng.normal(size=(4, 8))
        y, _ = encode.transformer_block_forward(x, p, 2)
        np.testing.assert_allclose(y, x, atol=1e-12)

    def test_grads(self):
        rng = np.random.default_rng(3)
        p = encode.init_block_params(6, 2, rng, dtype=np.float64)
        x = rng.normal(size=(4, 6))
        d = rng.normal(size=(4, 6))
        causal = np.triu(np.full((4, 4), -np.inf), k=1)

        for mask in (None, causal):
            def loss():
                y, cache = encode.transformer_block_forward(x, p, 2, mask=mask)
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
