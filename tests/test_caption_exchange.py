import json

import numpy as np
import pytest

from memefuse import encode, tensorfile


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


def _write_exchange(path, header, values=()):
    """An exchange file from a raw header and the float32 values of its blob."""
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n"
                     + np.asarray(values, dtype="<f4").tobytes())


def _vector_header(d=2, manifest=({"name": "x", "shape": [2]},)):
    return {"format": "memefuse-embeddings", "kind": "vector", "d": d, "manifest": list(manifest)}


class TestEmbeddingExchange:
    def test_roundtrip_sequences(self, tmp_path):
        rng = np.random.default_rng(42)
        mapping = {f"m{i}": rng.normal(size=(i + 1, 16)).astype(np.float32) for i in range(3)}
        path = tmp_path / "seq.emb"
        tensorfile.export_embeddings(path, mapping, kind="sequence")
        back = tensorfile.import_embeddings(path)
        assert set(back) == set(mapping)
        for rid in mapping:
            np.testing.assert_array_equal(back[rid], mapping[rid])
            assert back[rid].dtype == np.float32

    def test_roundtrip_vectors(self, tmp_path):
        rng = np.random.default_rng(7)
        mapping = {"a": rng.normal(size=768).astype(np.float32),
                   "b": rng.normal(size=768).astype(np.float32)}
        path = tmp_path / "vec.emb"
        tensorfile.export_embeddings(path, mapping, kind="vector")
        back = tensorfile.import_embeddings(path)
        assert back["a"].shape == (768,)
        np.testing.assert_array_equal(back["b"], mapping["b"])

    def test_header_declares_kind_d_and_manifest(self, tmp_path):
        # the manifest, one entry per record in mapping order, replaced a record count
        path = tmp_path / "three.emb"
        tensorfile.export_embeddings(path, {str(i): np.zeros(4) for i in range(3)},
                                     kind="vector")
        header_line, blob = path.read_bytes().split(b"\n", 1)
        assert json.loads(header_line) == {
            "format": "memefuse-embeddings", "kind": "vector", "d": 4,
            "manifest": [{"name": str(i), "shape": [4]} for i in range(3)]}
        assert blob == bytes(3 * 4 * 4)

    def test_width_conflict_rejected_on_read(self, tmp_path):
        path = tmp_path / "bad.emb"
        _write_exchange(path, _vector_header(768, [{"name": "x", "shape": [512]}]),
                        [0.0] * 512)
        with pytest.raises(ValueError, match="record 'x' shape \\(512,\\) conflicts with header"):
            tensorfile.import_embeddings(path)

    def test_count_mismatch_rejected(self, tmp_path):
        # the manifest lists two records, the blob holds one
        path = tmp_path / "short.emb"
        _write_exchange(path, _vector_header(manifest=[{"name": "x", "shape": [2]},
                                                       {"name": "y", "shape": [2]}]),
                        [0.0, 1.0])
        with pytest.raises(ValueError, match="truncated tensor data at 'y'"):
            tensorfile.import_embeddings(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        # the blob holds a record more than the manifest lists
        path = tmp_path / "long.emb"
        _write_exchange(path, _vector_header(), [0.0, 1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="8 trailing bytes"):
            tensorfile.import_embeddings(path)

    @pytest.mark.parametrize("header, values, message", [
        (_vector_header(manifest=[{"shape": [2]}]), [0.0, 1.0],
         "manifest entry 0 {'shape': \\[2\\]} needs a string 'name'"),
        (_vector_header(manifest=[{"name": "x"}]), [0.0, 1.0],
         "manifest entry 0 {'name': 'x'} needs a string 'name' and a list 'shape'"),
        (5, [0.0, 1.0], "embedding header must be a JSON object"),
        ([_vector_header()], [0.0, 1.0], "embedding header must be a JSON object"),
        (_vector_header(), [np.nan, 1.0], "tensor 'x' holds a non-finite"),
        (_vector_header(), [np.inf, 1.0], "tensor 'x' holds a non-finite"),
        (_vector_header(manifest=[["x", [2]]]), [0.0, 1.0],
         "manifest entry 0 \\['x', \\[2\\]\\] needs a string 'name'"),
        ({**_vector_header(1, [{"name": "x", "shape": [1]}]), "d": True}, [0.0],
         "header 'd' True is not a non-negative integer"),
        ({**_vector_header(), "d": 2.0}, [0.0, 1.0],
         "header 'd' 2.0 is not a non-negative integer"),
        ({**_vector_header(), "d": "2"}, [0.0, 1.0],
         "header 'd' '2' is not a non-negative integer"),
        ({**_vector_header(), "format": "memefuse-checkpoint"}, [0.0, 1.0],
         "not an embedding file"),
        ({**_vector_header(), "kind": ["vector"]}, [0.0, 1.0], "unknown kind \\['vector'\\]"),
    ], ids=["no-id", "no-shape", "scalar-header", "list-header", "nan", "infinity",
            "list-record", "bool-d", "float-d", "text-d", "checkpoint-format", "list-kind"])
    def test_malformed_record_rejected(self, tmp_path, header, values, message):
        path = tmp_path / "bad.emb"
        _write_exchange(path, header, values)
        with pytest.raises(ValueError, match=message) as exc:
            tensorfile.import_embeddings(path)
        assert str(path) in str(exc.value)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "dup.emb"
        _write_exchange(path, _vector_header(1, [{"name": "x", "shape": [1]}] * 2), [0.0, 1.0])
        with pytest.raises(ValueError, match="manifest names 'x' twice"):
            tensorfile.import_embeddings(path)

    def test_mixed_widths_rejected_on_write(self, tmp_path):
        with pytest.raises(ValueError, match="inconsistent"):
            tensorfile.export_embeddings(tmp_path / "w.emb",
                                         {"a": np.zeros(3), "b": np.zeros(4)}, kind="vector")

    def test_wrong_rank_rejected_on_write(self, tmp_path):
        with pytest.raises(ValueError, match=r"record 'a' of shape \(3,\) is not a sequence"):
            tensorfile.export_embeddings(tmp_path / "r.emb", {"a": np.zeros(3)}, kind="sequence")

    def test_values_rounded_to_float32(self, tmp_path):
        path = tmp_path / "round.emb"
        exact = np.array([1.0 / 3.0], dtype=np.float64)
        tensorfile.export_embeddings(path, {"a": exact}, kind="vector")
        back = tensorfile.import_embeddings(path)
        assert back["a"][0] == np.float32(1.0 / 3.0)
