import numpy as np
import pytest

from memefuse import encode


def _toy_image(seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(size=encode.IMAGE_HW + (encode.IMAGE_CHANNELS,)).astype(np.float32)


def _uniform_images(*values):
    return np.stack([np.full(encode.IMAGE_HW + (encode.IMAGE_CHANNELS,), c) for c in values])


def _identity_decoder():
    """The seed-3 captioner in float64 with identity blocks: residual
    branches zeroed, positions one-hot, so step t's logits are exactly
    out.w[t] + out.b (32 of them: the end token, then CAPTION_WORDS)."""
    p = {k: v.astype(np.float64) for k, v in encode.init_caption_decoder_params(3).items()}
    for name in ("self.0.attn.wo", "self.0.ffn.w2", "cross.0.wo", "start_emb", "tok_emb",
                 "out.w", "out.b"):
        p[name] = np.zeros_like(p[name])
    p["pos"] = np.eye(encode.CAPTION_LEN, encode.CAPTION_D_MODEL)
    return p


class TestGenerateCaption:
    def test_end_token_first_gives_empty_caption(self):
        p = _identity_decoder()
        p["out.b"][encode.END_TOKEN] = 1.0
        assert encode.generate_captions(_toy_image()[None], p)[0] == []

    def test_caption_stops_at_caption_len_words(self):
        p = _identity_decoder()
        p["out.b"][1] = 5.0  # end token never wins
        caption = encode.generate_captions(_toy_image()[None], p)[0]
        assert caption == [encode.CAPTION_WORDS[0]] * encode.CAPTION_LEN

    def test_forced_two_step_sequence(self):
        # step logits chosen by hand: step 0 -> id 2, step 1 -> id 1, step 2 -> end
        p = _identity_decoder()
        p["out.w"][0, :4] = [0.0, 1.0, 5.0, 2.0]
        p["out.w"][1, :4] = [0.0, 9.0, 1.0, 3.0]
        p["out.w"][2, :4] = [7.0, 0.0, 0.0, 1.0]
        assert encode.generate_captions(_toy_image()[None], p)[0] == ["man", "a"]

    def test_real_decoder_deterministic(self):
        p = encode.init_caption_decoder_params(11)
        img = _toy_image(seed=4)
        a = encode.generate_captions(img[None], p)[0]
        b = encode.generate_captions(img[None], p)[0]
        assert a == b
        assert len(a) <= encode.CAPTION_LEN
        assert all(w in encode.CAPTION_WORDS for w in a)

    def test_wrong_channel_count(self):
        with pytest.raises(ValueError):
            encode.generate_captions(np.zeros((1, 16, 16, 1)), _identity_decoder())


def _length_decoder():
    """Identity decoder whose end-token logit reads the image.

    A uniform image of value c gives every conv feature gelu(gelu(c));
    cross-attention copies that into row dimension CAPTION_LEN (free of
    the one-hot positions) and out.w makes it the end logit.  The word
    logit falls from 1.5 by 0.25 a step, so brighter images stop sooner,
    and a bright enough one ends at step 0.
    """
    p = _identity_decoder()
    free = encode.CAPTION_LEN
    p["conv1.w"] = np.full_like(p["conv1.w"], 1.0 / (9 * encode.IMAGE_CHANNELS))
    p["conv2.w"] = np.full_like(p["conv2.w"], 1.0 / (9 * encode.CAPTION_CONV_CHANNELS))
    p["cross.0.wv"] = np.zeros_like(p["cross.0.wv"])
    p["cross.0.wv"][0, 0] = 1.0
    p["cross.0.wo"][0, free] = 1.0
    p["out.w"][free, encode.END_TOKEN] = 1.0
    for step in range(encode.CAPTION_LEN):
        p["out.w"][step, 1 + step % 3] = 1.5 - 0.25 * step
    return p


class TestBatchedCaptions:
    def test_batch_matches_one_image_at_a_time(self):
        p = _length_decoder()
        images = _uniform_images(2.0, 0.0, 1.2, 0.7, 1.6, 0.9)
        alone = [encode.generate_captions(image[None], p)[0] for image in images]
        lengths = [len(c) for c in alone]
        assert 0 in lengths and len(set(lengths)) == len(lengths)
        assert encode.generate_captions(images, p) == alone
        # and in another order, so finished rows leave from every position
        order = [3, 0, 5, 2, 1, 4]
        assert encode.generate_captions(images[order], p) == [alone[i] for i in order]

    def test_every_row_ends_at_step_zero(self):
        p = _length_decoder()
        assert encode.generate_captions(_uniform_images(2.0, 2.0, 2.0), p) == [[], [], []]

    def test_batch_of_real_decoder_matches_one_at_a_time(self):
        p = encode.init_caption_decoder_params(11)
        images = np.stack([_toy_image(seed=s) for s in range(5)])
        assert encode.generate_captions(images, p) == [
            encode.generate_captions(image[None], p)[0] for image in images]

    def test_batch_wants_four_axes(self):
        with pytest.raises(ValueError, match="B x H x W x 3"):
            encode.generate_captions(_toy_image(), _identity_decoder())


class TestEmbeddingExchange:
    def test_roundtrip_sequences(self, tmp_path):
        rng = np.random.default_rng(42)
        mapping = {f"m{i}": rng.normal(size=(i + 1, 16)).astype(np.float32) for i in range(3)}
        path = tmp_path / "seq.jsonl"
        encode.export_embeddings(path, mapping, kind="sequence")
        back = encode.import_embeddings(path)
        assert set(back) == set(mapping)
        for rid in mapping:
            np.testing.assert_array_equal(back[rid], mapping[rid])
            assert back[rid].dtype == np.float32

    def test_roundtrip_vectors(self, tmp_path):
        rng = np.random.default_rng(7)
        mapping = {"a": rng.normal(size=768).astype(np.float32),
                   "b": rng.normal(size=768).astype(np.float32)}
        path = tmp_path / "vec.jsonl"
        encode.export_embeddings(path, mapping, kind="vector")
        back = encode.import_embeddings(path)
        assert back["a"].shape == (768,)
        np.testing.assert_array_equal(back["b"], mapping["b"])

    def test_header_count_declared(self, tmp_path):
        path = tmp_path / "three.jsonl"
        encode.export_embeddings(path, {str(i): np.zeros(4) for i in range(3)}, kind="vector")
        first = path.read_text().splitlines()[0]
        assert '"count": 3' in first and '"d": 4' in first

    def test_width_conflict_rejected_on_read(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"kind": "vector", "d": 768, "count": 1}\n'
            '{"id": "x", "shape": [512], "values": ' + str([0.0] * 512) + '}\n')
        with pytest.raises(ValueError, match="conflicts with header"):
            encode.import_embeddings(path)

    def test_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "short.jsonl"
        path.write_text('{"kind": "vector", "d": 2, "count": 2}\n'
                        '{"id": "x", "shape": [2], "values": [0.0, 1.0]}\n')
        with pytest.raises(ValueError, match="declares 2"):
            encode.import_embeddings(path)

    @pytest.mark.parametrize("header, record, message", [
        ('{"kind": "vector", "d": 2, "count": 1}', '{"shape": [2], "values": [0.0, 1.0]}',
         "record 1 missing 'id'"),
        ('{"kind": "vector", "d": 2, "count": 1}', '{"id": "x", "values": [0.0, 1.0]}',
         "record 1 missing 'shape'"),
        ('5', '{"id": "x", "shape": [2], "values": [0.0, 1.0]}',
         "header must be a JSON object"),
        ('{"kind": "vector", "d": 2, "count": 1}', '{"id": "x", "shape": [2], "values": [NaN, 1.0]}',
         "record 'x' holds non-finite"),
        ('{"kind": "vector", "d": 2, "count": 1}',
         '{"id": "x", "shape": [2], "values": [Infinity, 1.0]}', "record 'x' holds non-finite"),
        ('{"kind": "vector", "d": 2, "count": 1}', '["x", [2], [0.0, 1.0]]',
         "record 1 must be a JSON object"),
        ('{"kind": "vector", "d": 2, "count": 1}', '{"id": "x", "shape": [2], "values": ["a", 1]}',
         "record 'x' values are not numbers"),
        ('{"kind": "vector", "d": 2, "count": "1"}',
         '{"id": "x", "shape": [2], "values": [0.0, 1.0]}',
         "header 'count' '1' is not a non-negative integer"),
        ('{"kind": "vector", "d": true, "count": 1}', '{"id": "x", "shape": [1], "values": [0.0]}',
         "header 'd' True is not a non-negative integer"),
        ('{"kind": "vector", "d": 2.0, "count": 1}',
         '{"id": "x", "shape": [2], "values": [0.0, 1.0]}',
         "header 'd' 2.0 is not a non-negative integer"),
    ], ids=["no-id", "no-shape", "scalar-header", "nan", "infinity", "list-record",
            "text-values", "text-count", "bool-d", "float-d"])
    def test_malformed_record_rejected(self, tmp_path, header, record, message):
        path = tmp_path / "bad.jsonl"
        path.write_text(header + "\n" + record + "\n")
        with pytest.raises(ValueError, match=message) as exc:
            encode.import_embeddings(path)
        assert str(path) in str(exc.value)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_text('{"kind": "vector", "d": 1, "count": 2}\n'
                        '{"id": "x", "shape": [1], "values": [0.0]}\n'
                        '{"id": "x", "shape": [1], "values": [1.0]}\n')
        with pytest.raises(ValueError, match="duplicate"):
            encode.import_embeddings(path)

    def test_mixed_widths_rejected_on_write(self, tmp_path):
        with pytest.raises(ValueError, match="inconsistent"):
            encode.export_embeddings(tmp_path / "w.jsonl",
                                     {"a": np.zeros(3), "b": np.zeros(4)}, kind="vector")

    def test_values_rounded_to_float32(self, tmp_path):
        path = tmp_path / "round.jsonl"
        exact = np.array([1.0 / 3.0], dtype=np.float64)
        encode.export_embeddings(path, {"a": exact}, kind="vector")
        back = encode.import_embeddings(path)
        assert back["a"][0] == np.float32(1.0 / 3.0)
