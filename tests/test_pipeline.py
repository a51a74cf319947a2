"""End-to-end feature assembly: records -> fused sequences -> balanced training set."""

import dataclasses
import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from memefuse import TASKS, TASK_CLASSES, VARIANTS, balance, encode, pipeline
from memefuse.dataset import MemeRecord
from memefuse.encode import (IMAGE_CHANNELS, IMAGE_HW, MAX_TOKENS, N_PATCHES, encode_ids,
                             encode_image, generate_captions)
from memefuse.model import NumericError
from memefuse.pipeline import (
    FUSED_SHAPES,
    VARIANT_PARTS,
    build_feature_space,
    build_training_set,
    encoded_blocks,
    imported_blocks,
    labels_from_records,
    toy_image,
)
from memefuse.seeds import derive_seed, rng_for


def _stacked(ids, stream):
    """The records of ``ids``' feature stream in one (N, L, d) array, as
    ``build_training_set`` writes them: with one class per task no
    synthetic row follows them."""
    labels = {task: np.zeros(len(ids), dtype=np.int64) for task in TASKS}
    return build_training_set(*stream, labels, k=1, seed=0).features


def _record(rid, tokens, spaces, kind):
    """One record's fused features."""
    return _stacked([rid], encoded_blocks([rid], {rid: tokens}, spaces[kind], kind))[0]


@pytest.fixture(scope="module")
def spaces():
    # 32x32 images with 16x16 patches: 4 image rows, d_model 64
    return {kind: build_feature_space(kind, 0) for kind in VARIANTS}


# the encoders each variant reads: FeatureSpace field -> its init function
_INITS = {"image_params": "init_image_encoder_params", "text_params": "init_text_encoder_params",
          "caption_params": "init_caption_decoder_params", "projection": "init_projection"}
_READS = {"imgtxt": {"image_params", "text_params"},
          "imgsen": {"image_params", "text_params", "projection"},
          "capsen": {"caption_params", "text_params"}}


class TestFeatureSpace:
    def test_weights_are_float32_arrays_only(self, spaces):
        # the sizes are module constants, so a weight dict holds nothing else
        for kind, space in spaces.items():
            for field in _READS[kind]:
                value = getattr(space, field)
                weights = value.items() if isinstance(value, dict) else [(field, value)]
                for name, weight in weights:
                    assert isinstance(weight, np.ndarray), (kind, field, name, weight)
                    assert weight.dtype == np.float32, (kind, field, name, weight.dtype)

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("kind", VARIANTS)
    def test_built_encoders_are_their_own_draws(self, kind, seed):
        space = build_feature_space(kind, seed)
        assert {field.name for field in dataclasses.fields(space)
                if getattr(space, field.name) is not None} == _READS[kind]
        expected = {
            "image_params": lambda: encode.init_image_encoder_params(seed),
            "text_params": lambda: encode.init_text_encoder_params(seed),
            "caption_params": lambda: encode.init_caption_decoder_params(
                derive_seed(seed, "caption")),
            "projection": lambda: pipeline.init_projection(
                encode.SENTENCE_DIM, encode.D_MODEL, rng_for(seed, "sentence_projection")),
        }
        for field in _READS[kind]:
            got, want = getattr(space, field), expected[field]()
            if field == "projection":
                got, want = {"": got}, {"": want}
            assert got.keys() == want.keys(), field
            for name in want:
                assert got[name].dtype == want[name].dtype, (field, name)
                assert got[name].tobytes() == want[name].tobytes(), (field, name)

    @pytest.mark.parametrize("kind", VARIANTS)
    def test_unused_encoders_are_never_drawn(self, kind, monkeypatch):
        def refusing(field):
            def draw(*args, **kwargs):
                raise AssertionError(f"{kind} drew {field}")
            return draw

        for field, init in _INITS.items():
            if field not in _READS[kind]:
                monkeypatch.setattr(pipeline, init, refusing(field))
        space = build_feature_space(kind, 0)
        ids, toks = _golden_corpus()
        feats = _stacked(ids[:5], encoded_blocks(ids[:5], toks, space, kind))
        assert feats.shape == (5, *FUSED_SHAPES[kind])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown variant 'bogus'"):
            build_feature_space("bogus", 0)


class TestFusedShapes:
    def test_imgtxt_shape(self, spaces):
        out = _record("m1", ["hello", "world"], spaces, "imgtxt")
        assert out.shape == (N_PATCHES + MAX_TOKENS, 64)
        assert out.shape == (20, 64)
        assert out.dtype == np.float32

    def test_imgsen_shape(self, spaces):
        out = _record("m1", ["hello", "world"], spaces, "imgsen")
        assert out.shape == (5, 64)
        assert out.dtype == np.float32

    def test_capsen_shape(self, spaces):
        out = _record("m1", ["hello", "world"], spaces, "capsen")
        assert out.shape == (2, 768)
        assert out.dtype == np.float32

    def test_fused_length_matches_arrays(self, spaces):
        for kind in ("imgtxt", "imgsen", "capsen"):
            out = _record("m7", ["one"], spaces, kind)
            assert out.shape == FUSED_SHAPES[kind]

    def test_one_variant_list(self):
        assert tuple(VARIANT_PARTS) == VARIANTS == tuple(FUSED_SHAPES)

    def test_unknown_kind_rejected(self, spaces):
        with pytest.raises(ValueError):
            encoded_blocks(["m1"], {"m1": ["x"]}, spaces["imgtxt"], "bogus")

    def test_unknown_kind_rejected_for_an_empty_corpus(self, spaces):
        # no chunk is encoded, so only the check ahead of the generator can
        # reject the name
        with pytest.raises(ValueError, match="unknown variant 'bogus'"):
            encoded_blocks([], {}, spaces["imgtxt"], "bogus")


class TestRecordFeatures:
    def test_deterministic(self, spaces):
        a = _record("m3", ["some", "words"], spaces, "imgtxt")
        b = _record("m3", ["some", "words"], spaces, "imgtxt")
        np.testing.assert_array_equal(a, b)

    def test_image_rows_prefix(self, spaces):
        # first N_PATCHES rows are exactly the image encoding
        out = _record("m4", ["abc"], spaces, "imgtxt")
        img = encode_image(toy_image("m4"), spaces["imgtxt"].image_params)
        np.testing.assert_array_equal(out[:N_PATCHES], img.astype(np.float32))

    def test_short_token_list_zero_padded(self, spaces):
        out = _record("m5", ["only", "two"], spaces, "imgtxt")
        tail = out[N_PATCHES + 2 :]
        assert tail.shape[0] == MAX_TOKENS - 2
        assert np.all(tail == 0.0)
        # the two real token rows are not zero
        assert np.any(out[N_PATCHES] != 0.0)
        assert np.any(out[N_PATCHES + 1] != 0.0)

    def test_text_changes_output(self, spaces):
        a = _record("m8", ["happy"], spaces, "imgsen")
        b = _record("m8", ["angry"], spaces, "imgsen")
        assert not np.array_equal(a, b)


class TestToyImage:
    def test_deterministic_per_id(self):
        np.testing.assert_array_equal(toy_image("r1"), toy_image("r1"))

    def test_distinct_ids_distinct_pixels(self):
        assert not np.array_equal(toy_image("r1"), toy_image("r2"))

    def test_shape_range_dtype(self):
        img = toy_image("r9")
        assert img.shape == IMAGE_HW + (IMAGE_CHANNELS,)
        assert img.dtype == np.float32
        assert np.all(img >= 0.0) and np.all(img < 1.0)


# Captions the fixture ids decode to, pinning the captioner's decoder stack
# (shared pre-norm self-attention block, cross-attention, output layer).
# Seed 0 yields exactly these two captions over all 6992 fixture ids; seed 7 one.
_CAPTION_A = ["group", "glasses", "screen", "screen", "screen", "screen", "screen", "screen"]
_CAPTION_B = ["screen", "shirt", "table", "shirt", "table", "shirt", "table", "shirt"]
_GOLDEN_CAPTIONS = {
    0: {"meme_0000.jpg": _CAPTION_A, "meme_0001.jpg": _CAPTION_B,
        "meme_0002.jpg": _CAPTION_A, "meme_0003.jpg": _CAPTION_B},
    7: {"meme_0000.jpg": ["woman"] * 8, "meme_0001.jpg": ["woman"] * 8},
}


class TestGoldenCaptions:
    @pytest.mark.parametrize("seed", sorted(_GOLDEN_CAPTIONS))
    def test_fixture_ids_decode_to_recorded_captions(self, seed):
        space = build_feature_space("capsen", seed)
        for rid, caption in _GOLDEN_CAPTIONS[seed].items():
            image = toy_image(rid)
            assert generate_captions(image[None], space.caption_params)[0] == caption, rid


class TestEncodeCorpus:
    def test_rows_follow_id_order(self, spaces):
        ids = ["b", "a", "c"]
        toks = {"a": ["one"], "b": ["two"], "c": ["three"]}
        feats = _stacked(ids, encoded_blocks(ids, toks, spaces["imgsen"], "imgsen"))
        assert feats.shape == (3, 5, 64)
        for i, rid in enumerate(ids):
            np.testing.assert_array_equal(
                feats[i], _record(rid, toks[rid], spaces, "imgsen"))

    @pytest.mark.parametrize("kind", VARIANTS)
    def test_spare_rows_follow_as_zeros(self, spaces, kind, monkeypatch):
        # with balancing writing nothing, the synthetic rows' room after the
        # stream's records stays as build_training_set allocates it
        ids, toks = _golden_corpus()
        alone = _stacked(ids[:9], encoded_blocks(ids[:9], toks, spaces[kind], kind))
        monkeypatch.setattr(pipeline, "smote_oversample", _no_synthetic_rows)
        feats = build_training_set(*encoded_blocks(ids[:9], toks, spaces[kind], kind),
                                   _golden_labels(9), k=5, seed=0).features
        # the first 9 golden labels fall 23 rows short of parity
        assert feats.shape == (9 + 23, *FUSED_SHAPES[kind]) and feats.dtype == np.float32
        assert feats[:9].tobytes() == alone.tobytes()
        assert not feats[9:].any()

    def test_empty_corpus_keeps_declared_shape(self, spaces):
        feats = _stacked([], encoded_blocks([], {}, spaces["capsen"], "capsen"))
        assert feats.shape == (0, 2, 768)
        assert feats.dtype == np.float32


_GOLDEN_WORDS = ("cat", "dog", "when", "you", "monday", "coffee", "again", "boss", "meme",
                 "why", "funny", "sad", "work", "sleep", "pizza", "friday", "code", "bug",
                 "fix", "ship")


def _golden_corpus():
    """40 ids whose texts mix lengths 0-20, repeat tuples and miss one entry."""
    ids = [f"golden_{i:02d}" for i in range(40)]
    toks = {}
    for i, rid in enumerate(ids):
        length = (0, 1, 3, 5, 16, 20, 7, 2)[i % 8]
        toks[rid] = [_GOLDEN_WORDS[(i * 7 + j * 3) % len(_GOLDEN_WORDS)] for j in range(length)]
    for i in range(5, 40, 5):
        toks[ids[i]] = list(toks[ids[i - 1]])
    del toks[ids[39]]  # a record without tokens encodes like an empty list
    return ids, toks


# sha256 of _stacked(ids, encoded_blocks(...)).tobytes() on _golden_corpus() and
# build_feature_space(kind, 0), with encoders that compute in float32
# throughout.  Recorded on OpenBLAS's
# SkylakeX kernel by `PYTHONPATH=src python tests/record_golden.py`, which
# prints this table and _GOLDEN_TRAINING_SETS for the kernel it runs on.
_GOLDEN_FEATURES = {
    "capsen": ((40, 2, 768), "73af38118ff21403ef91b6d35a3ceb1ae4895c8865d53a4bbc52a437b322a4e2"),
    "imgsen": ((40, 5, 64), "54e63ff4bf9a202330669846965dcfc501fcae4be48edb85a06c73b99ed7612e"),
    "imgtxt": ((40, 20, 64), "72f291e6f09b71f15230dadc6c468fadc426d4c00a64409ab42385b5cfda04ff"),
}


def _golden_labels(n=40):
    """Skewed labels for the first ``n`` records of _golden_corpus(): class 0
    leads every task."""
    out = {}
    for t, task in enumerate(TASKS):
        arity, step = len(TASK_CLASSES[task]), t + 3
        out[task] = np.array([0 if i % step else 1 + (i // step) % (arity - 1)
                              for i in range(n)], dtype=np.int64)
    return out


def _no_synthetic_rows(features, labels, deficits, k, seed, dest):
    """``smote_oversample`` that writes no row: each row is labelled class 0."""
    return np.zeros(len(dest), dtype=labels.dtype)


# sha256 of build_training_set(*encoded_blocks(...), _golden_labels(), k=5, seed=0):
# its features' bytes, then each task's labels' bytes in TASKS order.  Recorded
# with _GOLDEN_FEATURES, on the same kernel by the same command.  The capsen
# corpus holds 31 distinct rows among 40.
_GOLDEN_TRAINING_SETS = {
    "capsen": (155, "6038912016376543f5c1b2305618b8e5fbf634aed0df44ba043ab92db059ebfb"),
    "imgsen": (155, "7e078ab0fbe67274b196a29b67ea3ded55337fbacccee26b39facba060c07e43"),
    "imgtxt": (155, "4900115fd4f9e53263b22992555be67c74da385c7036d362cee71d38083dd73e"),
}


def _training_set_digest(ts):
    """sha256 of a training set's features, then each task's labels in TASKS order."""
    digest = hashlib.sha256(ts.features.tobytes())
    for task in TASKS:
        digest.update(ts.labels[task].tobytes())
    return digest.hexdigest()


class TestGoldenFeatures:
    def test_corpus_covers_the_edge_cases(self):
        ids, toks = _golden_corpus()
        lengths = {len(t) for t in toks.values()}
        assert 0 in lengths and max(lengths) > 16 and len(lengths) >= 6
        assert len({tuple(t) for t in toks.values()}) < len(toks)
        assert any(rid not in toks for rid in ids)

    @pytest.mark.parametrize("kind", sorted(_GOLDEN_FEATURES))
    def test_features_match_recorded_digest(self, spaces, kind):
        ids, toks = _golden_corpus()
        feats = _stacked(ids, encoded_blocks(ids, toks, spaces[kind], kind))
        shape, digest = _GOLDEN_FEATURES[kind]
        assert feats.shape == shape and feats.dtype == np.float32
        assert hashlib.sha256(feats.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("kind", sorted(_GOLDEN_FEATURES))
    def test_chunk_boundaries_change_nothing(self, spaces, kind, monkeypatch):
        monkeypatch.setattr(pipeline, "ENCODE_CHUNK", 7)
        ids, toks = _golden_corpus()
        feats = _stacked(ids, encoded_blocks(ids, toks, spaces[kind], kind))
        assert hashlib.sha256(feats.tobytes()).hexdigest() == _GOLDEN_FEATURES[kind][1]

    # IMAGE_BLOCK = 3 puts block boundaries inside the one 256-record chunk
    # and inside every 7-record chunk
    @pytest.mark.parametrize("kind", sorted(_GOLDEN_FEATURES))
    @pytest.mark.parametrize("chunk", [None, 7])
    def test_image_blocks_change_nothing(self, spaces, kind, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(pipeline, "ENCODE_CHUNK", chunk)
        monkeypatch.setattr(pipeline, "IMAGE_BLOCK", 3)
        ids, toks = _golden_corpus()
        feats = _stacked(ids, encoded_blocks(ids, toks, spaces[kind], kind))
        assert hashlib.sha256(feats.tobytes()).hexdigest() == _GOLDEN_FEATURES[kind][1]

    @pytest.mark.parametrize("kind", sorted(_GOLDEN_FEATURES))
    def test_images_pass_through_the_encoders_one_block_at_a_time(self, spaces, kind,
                                                                  monkeypatch):
        batches = []
        encoders = {"imgtxt": "encode_image", "imgsen": "encode_image",
                    "capsen": "generate_captions"}
        forward = getattr(pipeline, encoders[kind])

        def counting(images, params):
            batches.append(len(images))
            return forward(images, params)

        monkeypatch.setattr(pipeline, encoders[kind], counting)
        monkeypatch.setattr(pipeline, "ENCODE_CHUNK", 7)
        monkeypatch.setattr(pipeline, "IMAGE_BLOCK", 3)
        ids, toks = _golden_corpus()
        _stacked(ids, encoded_blocks(ids, toks, spaces[kind], kind))
        # five 7-record chunks in blocks of 3, 3 and 1, then 5 records in 3 and 2
        assert batches == [3, 3, 1] * 5 + [3, 2]

    def test_encoding_scratch_does_not_grow_with_the_chunk(self, spaces):
        # images go through the encoder 64 at a time, so a full 256-record
        # chunk needs about the scratch of 64 records above its output
        # array; one pass over the chunk's 256 images needed 3x as much
        words = [f"w{i}" for i in range(200)]

        def scratch(n):
            ids = [f"rec_{i:04d}" for i in range(n)]
            toks = {rid: [words[(7 * i + j) % 200] for j in range(i % 17)]
                    for i, rid in enumerate(ids)}
            tracemalloc.start()
            try:
                out = _stacked(ids, encoded_blocks(ids, toks, spaces["imgtxt"], "imgtxt"))
                return tracemalloc.get_traced_memory()[1] - out.nbytes
            finally:
                tracemalloc.stop()

        assert scratch(256) <= 1.5 * scratch(64)

    @pytest.mark.parametrize("kind", ["imgtxt", "imgsen"])
    def test_each_distinct_text_encoded_once(self, spaces, kind, monkeypatch):
        batches = []

        def counting(ids, params):
            batches.append(ids.shape)
            return encode_ids(ids, params)

        monkeypatch.setattr(pipeline, "encode_ids", counting)
        monkeypatch.setattr(pipeline, "ENCODE_CHUNK", 7)
        ids, toks = _golden_corpus()
        _stacked(ids, encoded_blocks(ids, toks, spaces[kind], kind))
        clipped = {tuple(toks.get(rid, [])[:MAX_TOKENS]) for rid in ids}
        assert sum(rows for rows, _ in batches) == len(clipped)
        # at most one batch per id count in each of the 6 chunks
        assert len(batches) <= 6 * len({max(len(t), 1) for t in clipped})

    @pytest.mark.parametrize("kind", sorted(_GOLDEN_TRAINING_SETS))
    def test_training_set_matches_recorded_digest(self, spaces, kind):
        ids, toks = _golden_corpus()
        rows, expected = _GOLDEN_TRAINING_SETS[kind]
        ts = build_training_set(*encoded_blocks(ids, toks, spaces[kind], kind), _golden_labels(),
                                k=5, seed=0)
        assert ts.features.shape[0] == rows
        assert _training_set_digest(ts) == expected

    @pytest.mark.parametrize("kind", sorted(_GOLDEN_TRAINING_SETS))
    @pytest.mark.parametrize("block", [7, 1])
    def test_interpolation_blocks_change_nothing(self, spaces, kind, block, monkeypatch):
        # the golden labels give class deficits of 12 to 30 rows, so both
        # block sizes split every class
        monkeypatch.setattr(balance, "INTERP_BLOCK", block)
        ids, toks = _golden_corpus()
        rows, expected = _GOLDEN_TRAINING_SETS[kind]
        ts = build_training_set(*encoded_blocks(ids, toks, spaces[kind], kind), _golden_labels(),
                                k=5, seed=0)
        assert _training_set_digest(ts) == expected


class TestLabelsFromRecords:
    def _record(self, rid, humor, sarcasm, motivation, sentiment):
        return MemeRecord(
            id=rid,
            text="t",
            labels={"humor": humor, "sarcasm": sarcasm,
                    "motivation": motivation, "sentiment": sentiment},
        )

    def test_index_mapping(self):
        records = [
            self._record("a", "funny", "sarcastic", "motivational", "positive"),
            self._record("b", "not_funny", "not_sarcastic", "not_motivational", "negative"),
            self._record("c", "funny", "not_sarcastic", "motivational", "neutral"),
        ]
        labels = labels_from_records(records)
        assert set(labels) == set(TASKS)
        np.testing.assert_array_equal(labels["humor"], [0, 1, 0])
        np.testing.assert_array_equal(labels["sarcasm"], [0, 1, 1])
        np.testing.assert_array_equal(labels["motivation"], [0, 1, 0])
        np.testing.assert_array_equal(labels["sentiment"], [0, 2, 1])
        for task in TASKS:
            assert labels[task].dtype == np.int64

    def test_every_class_round_trips(self):
        # index i of each task's tuple comes back as label i
        for task in TASKS:
            for idx, cls in enumerate(TASK_CLASSES[task]):
                values = {t: TASK_CLASSES[t][0] for t in TASKS}
                values[task] = cls
                rec = self._record("x", values["humor"], values["sarcasm"],
                                   values["motivation"], values["sentiment"])
                assert labels_from_records([rec])[task][0] == idx


def _toy_imbalanced(n_major=12, n_minor=4, length=3, width=5, seed=11):
    rng = np.random.default_rng(seed)
    n = n_major + n_minor
    feats = rng.normal(size=(n, length, width)).astype(np.float32)
    labels = {
        "humor": np.array([0] * n_major + [1] * n_minor, dtype=np.int64),
        "sarcasm": np.zeros(n, dtype=np.int64),
        "motivation": np.zeros(n, dtype=np.int64),
        "sentiment": np.zeros(n, dtype=np.int64),
    }
    return feats, labels


class TestBuildTrainingSet:
    def test_minority_grows_to_majority(self):
        feats, labels = _toy_imbalanced()
        ts = build_training_set(feats.shape[1:], [feats], labels, k=3, seed=0)
        grown = ts.labels["humor"]
        assert int(np.sum(grown == 0)) == 12
        assert int(np.sum(grown == 1)) == 12
        assert ts.features.shape == (24, 3, 5)

    def test_originals_come_first_verbatim(self):
        feats, labels = _toy_imbalanced()
        ts = build_training_set(feats.shape[1:], [feats], labels, k=3, seed=0)
        np.testing.assert_array_equal(ts.features[:16], feats)
        for task in TASKS:
            np.testing.assert_array_equal(ts.labels[task][:16], labels[task])

    def test_synthetics_masked_for_other_tasks(self):
        feats, labels = _toy_imbalanced()
        ts = build_training_set(feats.shape[1:], [feats], labels, k=3, seed=0)
        synth = slice(16, None)
        assert np.all(ts.labels["humor"][synth] == 1)
        for other in ("sarcasm", "motivation", "sentiment"):
            assert np.all(ts.labels[other][synth] == -1)

    def test_balanced_input_is_untouched(self):
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(8, 2, 4)).astype(np.float32)
        labels = {task: np.array([0, 1] * 4, dtype=np.int64) for task in
                  ("humor", "sarcasm", "motivation")}
        labels["sentiment"] = np.array([0, 1, 2] * 2 + [0, 1], dtype=np.int64)
        # sentiment is uneven: 3/3/2 -> one synthetic for class 2
        ts = build_training_set(feats.shape[1:], [feats], labels, k=2, seed=1)
        assert ts.features.shape[0] == 9
        np.testing.assert_array_equal(ts.features[:8], feats)
        assert ts.labels["sentiment"][8] == 2
        assert ts.labels["humor"][8] == -1

    def test_deterministic_per_seed(self):
        feats, labels = _toy_imbalanced()
        a = build_training_set(feats.shape[1:], [feats], labels, k=3, seed=7)
        b = build_training_set(feats.shape[1:], [feats], labels, k=3, seed=7)
        c = build_training_set(feats.shape[1:], [feats], labels, k=3, seed=8)
        np.testing.assert_array_equal(a.features, b.features)
        for task in TASKS:
            np.testing.assert_array_equal(a.labels[task], b.labels[task])
        assert not np.array_equal(a.features, c.features)

    def test_multiple_tasks_each_balanced(self):
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(10, 2, 3)).astype(np.float32)
        labels = {
            "humor": np.array([0] * 7 + [1] * 3, dtype=np.int64),
            "sarcasm": np.array([0] * 4 + [1] * 6, dtype=np.int64),
            "motivation": np.zeros(10, dtype=np.int64),
            "sentiment": np.zeros(10, dtype=np.int64),
        }
        ts = build_training_set(feats.shape[1:], [feats], labels, k=2, seed=2)
        # humor adds 4, sarcasm adds 2
        assert ts.features.shape[0] == 16
        hum = ts.labels["humor"]
        sar = ts.labels["sarcasm"]
        assert int(np.sum(hum == 0)) == int(np.sum(hum == 1)) == 7
        assert int(np.sum(sar == 0)) == int(np.sum(sar == 1)) == 6

    def test_non_finite_row_rejected(self):
        feats, labels = _toy_imbalanced()
        feats[13, 1, 2] = np.nan
        with pytest.raises(NumericError, match="class 1: non-finite feature in row 13"):
            build_training_set(feats.shape[1:], [feats], labels, k=3, seed=0)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected_without_deficit(self, k):
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(4, 2, 3)).astype(np.float32)
        labels = {task: np.array([0, 1, 0, 1], dtype=np.int64) for task in TASKS}
        with pytest.raises(ValueError, match="k must be >= 1"):
            build_training_set(feats.shape[1:], [feats], labels, k=k, seed=0)

    def test_features_are_the_tensor_the_blocks_were_written_into(self, monkeypatch):
        # balancing reads the originals from, and writes its rows into, views
        # of the one tensor the blocks fill, and the TrainSet holds that
        # tensor itself: no second copy of the rows is made
        feats, labels = _toy_imbalanced()
        views = []
        oversample = pipeline.smote_oversample

        def recording(members, y, deficits, k, seed, dest):
            views.append((members, dest))
            return oversample(members, y, deficits, k, seed, dest)

        monkeypatch.setattr(pipeline, "smote_oversample", recording)
        ts = build_training_set(feats.shape[1:], [feats[:10], feats[10:]], labels, k=3, seed=0)
        assert ts.features.flags.owndata and ts.features.dtype == np.float32
        ((members, dest),) = views
        assert np.shares_memory(members, ts.features) and np.shares_memory(dest, ts.features)
        np.testing.assert_array_equal(ts.features[:16], feats)
        assert ts.features[16:].any()

    @pytest.mark.parametrize("records", [15, 17])
    def test_stream_must_hold_one_record_per_label(self, records):
        # the 17th record arrives in a block the first 16 rows cannot hold
        feats, labels = _toy_imbalanced()
        rows = np.concatenate([feats, feats])[:records]
        with pytest.raises(ValueError, match=f"the feature stream holds {records} records "
                                             "for 16 labels"):
            build_training_set((3, 5), [rows[:10], rows[10:]], labels, k=3, seed=0)

    def test_default_block_boundaries_change_nothing(self, monkeypatch):
        # a deficit of 570 rows spans nine INTERP_BLOCK blocks
        feats, labels = _toy_imbalanced(n_major=600, n_minor=30)
        blocked = build_training_set(feats.shape[1:], [feats], labels, k=3, seed=5)
        monkeypatch.setattr(balance, "INTERP_BLOCK", 1)
        single = build_training_set(feats.shape[1:], [feats], labels, k=3, seed=5)
        assert blocked.features.tobytes() == single.features.tobytes()

    def test_balancing_scratch_does_not_grow_with_the_deficit(self):
        # interpolation scratch is bounded by INTERP_BLOCK rows and the rows
        # go straight into the training tensor, so an 8x deficit (both above
        # one block) leaves the traced peak above the tensor nearly flat
        def peak(deficit):
            feats, labels = _toy_imbalanced(n_major=20 + deficit, n_minor=20, length=2,
                                            width=256)
            tracemalloc.start()
            try:
                ts = build_training_set(feats.shape[1:], [feats], labels, k=3, seed=0)
                return tracemalloc.get_traced_memory()[1] - ts.features.nbytes
            finally:
                tracemalloc.stop()

        assert peak(8 * 300) <= 1.25 * peak(300)

    def test_balancing_scratch_does_not_grow_with_the_class(self):
        # a class is read from the tensor by index and cast to float64 only
        # in blocks of bounded rows, so a 4x larger minority class (each size
        # above one Gram tile) with the same deficit leaves the traced peak
        # above the tensor nearly flat
        def peak(members):
            feats, labels = _toy_imbalanced(n_major=members + 100, n_minor=members, length=2,
                                            width=384)
            tracemalloc.start()
            try:
                ts = build_training_set(feats.shape[1:], [feats], labels, k=3, seed=0)
                return tracemalloc.get_traced_memory()[1] - ts.features.nbytes
            finally:
                tracemalloc.stop()

        assert peak(4 * 200) <= 1.25 * peak(200)

    def test_synthetics_lie_between_members(self):
        # every synthetic coordinate stays inside the minority bounding box
        feats, labels = _toy_imbalanced()
        ts = build_training_set(feats.shape[1:], [feats], labels, k=3, seed=4)
        minority = feats[12:].reshape(4, -1).astype(np.float64)
        lo, hi = minority.min(axis=0), minority.max(axis=0)
        synth = ts.features[16:].reshape(-1, 15).astype(np.float64)
        assert np.all(synth >= lo - 1e-6)
        assert np.all(synth <= hi + 1e-6)


# name -> (variant, {exchange name: (row counts drawn from, width)}); a row
# count of None makes each record one vector.  The cases cover fixed and
# varying sequence lengths, 0-row sequences and a projection on either side.
_IMPORTED_CASES = {
    "imgtxt-same-width": ("imgtxt", {"image": ((4,), 16), "tokens": ((0, 1, 3, 5), 16)}),
    "imgtxt-image-projected": ("imgtxt", {"image": ((4,), 8), "tokens": ((0, 2, 6), 12)}),
    "imgtxt-tokens-projected": ("imgtxt", {"image": ((0, 1, 3), 24),
                                           "tokens": ((0, 1, 4), 16)}),
    "imgsen-same-width": ("imgsen", {"image": ((0, 2, 5), 16), "text_sentence": (None, 16)}),
    "imgsen-image-projected": ("imgsen", {"image": ((4,), 8), "text_sentence": (None, 20)}),
    "capsen-same-width": ("capsen", {"caption_sentence": (None, 12),
                                     "text_sentence": (None, 12)}),
    "capsen-text-projected": ("capsen", {"caption_sentence": (None, 18),
                                         "text_sentence": (None, 10)}),
}

# sha256 of _stacked(ids, imported_blocks(...)).tobytes() on _imported_case(name) with
# seed=3, as produced by the record-at-a-time assembly the batched one replaced.
_GOLDEN_IMPORTED = {
    "capsen-same-width": ((23, 2, 12), "0472b2218b4b691e2f5f7edd776122bcdf262ffacc1110eda60b7a36cbbb4668"),
    "capsen-text-projected": ((23, 2, 18), "08bec1c7356b8b8dd4a413074ada694122d94829886538527463a414fc8a93a9"),
    "imgsen-image-projected": ((23, 5, 20), "767ab36144916ec9f7b296b9f15e218b9392ea087bcd66fa0d1d5ddf050ce134"),
    "imgsen-same-width": ((23, 6, 16), "d15dab84bd9d1eefb25a8a0e329673cba857de2f3abdc18542da12c731890c08"),
    "imgtxt-image-projected": ((23, 10, 12), "74dbb00fb40ebaa7f655b6eaa8592ed4e4a0c8d5842392f82b3673e701dac990"),
    "imgtxt-same-width": ((23, 9, 16), "647320b1543cf84938de04dde7037bd54830a6e41c230c9a9d76d66f083ae9e1"),
    "imgtxt-tokens-projected": ((23, 7, 24), "e5d54ded7463bc3489dc7cf65362d398da58a86d5df4b0155784063e4031531a"),
}


def _imported_case(name, n=23):
    """ids, variant and seeded float32 exchange mappings for one case."""
    kind, parts = _IMPORTED_CASES[name]
    rng = np.random.default_rng(sorted(_IMPORTED_CASES).index(name))
    ids = [f"rec_{i:02d}" for i in range(n)]
    mappings = {}
    for exchange, (rows, width) in parts.items():
        mappings[exchange] = {
            rid: rng.normal(size=(width,) if rows is None else (int(rng.choice(rows)), width)
                            ).astype(np.float32)
            for rid in ids}
    return ids, kind, mappings


class TestFusedFromImported:
    # IMAGE_BLOCK = 7 puts block boundaries inside every case's 23 records
    @pytest.mark.parametrize("name, chunk", [
        pytest.param(name, chunk, id=name if chunk is None else f"{name}-chunk{chunk}")
        for chunk in (None, 7) for name in sorted(_IMPORTED_CASES)])
    def test_matches_recorded_digest(self, name, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(pipeline, "IMAGE_BLOCK", chunk)
        ids, kind, mappings = _imported_case(name)
        out = _stacked(ids, imported_blocks(ids, kind, 3, **mappings))
        shape, digest = _GOLDEN_IMPORTED[name]
        assert out.shape == shape and out.dtype == np.float32
        assert hashlib.sha256(out.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("name", sorted(_IMPORTED_CASES))
    def test_spare_rows_follow_as_zeros(self, name, monkeypatch):
        # in 7-record blocks the last block holds 2 records; with balancing
        # writing nothing, the synthetic rows' room follows it as allocated
        monkeypatch.setattr(pipeline, "IMAGE_BLOCK", 7)
        monkeypatch.setattr(pipeline, "smote_oversample", _no_synthetic_rows)
        ids, kind, mappings = _imported_case(name)
        shape, digest = _GOLDEN_IMPORTED[name]
        out = build_training_set(*imported_blocks(ids, kind, 3, **mappings),
                                 _golden_labels(23), k=5, seed=0).features
        # the first 23 golden labels fall 65 rows short of parity
        assert out.shape == (shape[0] + 65, *shape[1:]) and out.dtype == np.float32
        assert hashlib.sha256(out[:shape[0]].tobytes()).hexdigest() == digest
        assert not out[shape[0]:].any()

    def test_missing_record_named(self):
        ids, kind, mappings = _imported_case("imgtxt-same-width")
        del mappings["tokens"][ids[4]]
        with pytest.raises(ValueError, match="record 'rec_04' missing from tokens embeddings"):
            imported_blocks(ids, kind, 0, **mappings)

    def test_missing_mapping_named(self):
        ids, kind, mappings = _imported_case("capsen-same-width")
        del mappings["caption_sentence"]
        with pytest.raises(ValueError, match="'capsen' needs caption_sentence embeddings"):
            imported_blocks(ids, kind, 0, **mappings)

    def test_unknown_variant_rejected(self):
        ids, _, mappings = _imported_case("capsen-same-width")
        with pytest.raises(ValueError, match="unknown variant 'imgcap'"):
            imported_blocks(ids, "imgcap", 0, **mappings)

    def test_width_disagreement_within_mapping_rejected(self):
        ids, kind, mappings = _imported_case("imgsen-same-width")
        mappings["image"][ids[7]] = np.zeros((2, 9), dtype=np.float32)
        with pytest.raises(ValueError, match=r"image embeddings: record 'rec_07' has shape "
                                             r"\(2, 9\), width 16 expected"):
            imported_blocks(ids, kind, 0, **mappings)

    def test_one_record_without_rows_still_fuses(self):
        # only a corpus with no rows at all has nothing to fuse
        ids, kind, mappings = _imported_case("imgtxt-same-width")
        for name in ("image", "tokens"):
            mappings[name][ids[5]] = np.zeros((0, 16), dtype=np.float32)
        out = _stacked(ids, imported_blocks(ids, kind, 0, **mappings))
        assert out.shape[1] > 0 and not out[5].any() and out[4].any()

    @pytest.mark.parametrize("case, name, shape", [
        ("capsen-same-width", "text_sentence", (3, 12)),
        ("imgsen-same-width", "image", (16,)),
        ("imgtxt-same-width", "tokens", (1, 2, 16)),
        ("capsen-same-width", "caption_sentence", ()),
        ("capsen-same-width", "text_sentence", (1, 12)),
    ])
    def test_shape_must_fit_role(self, case, name, shape):
        ids, kind, mappings = _imported_case(case)
        mappings[name][ids[2]] = np.ones(shape, dtype=np.float32)
        with pytest.raises(ValueError, match=re.escape(
                f"{name} embeddings: record 'rec_02' has shape {shape}, expected")):
            imported_blocks(ids, kind, 0, **mappings)


class TestFusionBatches:
    """Both paths fuse through one function, at most IMAGE_BLOCK records per call."""

    @pytest.fixture
    def batch_sizes(self, monkeypatch):
        sizes = []
        assemble = pipeline.assemble_variant_input

        def spying(*parts, projection=None):
            sizes.append({len(value) for value in parts})
            return assemble(*parts, projection=projection)

        monkeypatch.setattr(pipeline, "assemble_variant_input", spying)
        monkeypatch.setattr(pipeline, "IMAGE_BLOCK", 7)
        return sizes

    @pytest.mark.parametrize("kind", sorted(_GOLDEN_FEATURES))
    def test_encoded_path(self, spaces, kind, batch_sizes):
        ids, toks = _golden_corpus()
        _stacked(ids, encoded_blocks(ids, toks, spaces[kind], kind))
        assert all(len(sizes) == 1 and max(sizes) <= 7 for sizes in batch_sizes)
        assert sum(max(sizes) for sizes in batch_sizes) == len(ids)

    @pytest.mark.parametrize("name", sorted(_IMPORTED_CASES))
    def test_imported_path(self, name, batch_sizes):
        ids, kind, mappings = _imported_case(name)
        _stacked(ids, imported_blocks(ids, kind, 3, **mappings))
        assert all(len(sizes) == 1 and max(sizes) <= 7 for sizes in batch_sizes)
        assert sum(max(sizes) for sizes in batch_sizes) == len(ids)
