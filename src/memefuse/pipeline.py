"""Glue from meme records to per-variant fused feature tensors.

Toy encoders stand in for the pretrained image/text models: weights are
derived from a seed and frozen, and a run draws only the ones its variant
reads (``build_feature_space``); images are synthesized deterministically
per record id when no real pixels are available.  The three variants all
reduce to stacking two embedding sequences along their row axis; a
sentence vector is a one-row sequence.  Encoded or imported, fused
features come as one kind of stream, a row shape and a generator of
blocks of IMAGE_BLOCK records, which eval scores one by one and
``build_training_set`` writes into the first rows of the training
tensor it sizes.  Oversampling happens there, after encoding, on
flattened fused sequences: each task's synthetic rows are written into
the rows after the originals.  A threaded GEMM splits its sums by the
thread count, so features hold their bytes at one count only; the CLI
computes on one thread (see ``memefuse.cli``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import TASKS, TASK_CLASSES
from .balance import smote_oversample
from .encode import (D_MODEL, IMAGE_CHANNELS, IMAGE_HW, MAX_TOKENS, N_PATCHES, SENTENCE_DIM,
                     encode_ids, encode_image, generate_captions, init_caption_decoder_params,
                     init_image_encoder_params, init_text_encoder_params, pool_sentence,
                     text_ids)
from .model import HEAD_ARITY, TrainSet
from .seeds import derive_seed, rng_for

# variant -> (first part, second part), each named by the exchange file
# ({name}.emb) that can hold it; a *_sentence part is one vector per record
VARIANT_PARTS = {
    "imgtxt": ("image", "tokens"),
    "imgsen": ("image", "text_sentence"),
    "capsen": ("caption_sentence", "text_sentence"),
}
# variant -> (rows, width) of one record's fused features
FUSED_SHAPES = {"imgtxt": (N_PATCHES + MAX_TOKENS, D_MODEL), "imgsen": (N_PATCHES + 1, D_MODEL),
                "capsen": (2, SENTENCE_DIM)}
# Records whose texts are encoded together: enough distinct texts per id
# count to amortise numpy's per-call cost (64-record chunks encoded 1398
# distinct texts about 20% slower).
ENCODE_CHUNK = 256
# Images per forward pass of the image encoder or the captioner, and
# records per fusion batch: the activations of one pass, not the corpus
# tensor, set encoding's high-water mark.
IMAGE_BLOCK = 64


def _check_variant(kind: str) -> None:
    if kind not in VARIANT_PARTS:
        raise ValueError(f"unknown variant {kind!r}")


def init_projection(d_in: int, d_out: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.normal(size=(d_in, d_out)) / np.sqrt(d_in)).astype(np.float32)


def assemble_variant_input(first, second, projection=None) -> np.ndarray:
    """Stack two (..., L, d) parts with the same batch axes along their row axis.

    Each record of a batch fuses bit for bit as it does alone.  When the
    widths differ, ``projection`` is one (d_from, d_to) matrix and its
    shape decides which part it maps to the other's width; when they
    agree it is not used.
    """
    a, b = np.asarray(first), np.asarray(second)
    if a.ndim < 2 or a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]:
        raise ValueError(f"fusion needs two (..., L, d) parts with the same batch axes, "
                         f"got shapes {a.shape} and {b.shape}")
    da, db = a.shape[-1], b.shape[-1]
    if da != db:
        if projection is None:
            raise ValueError(f"width mismatch: {da} vs {db}, and no projection to align them")
        projection = np.asarray(projection)
        if projection.shape == (da, db):
            a = a @ projection
        elif projection.shape == (db, da):
            b = b @ projection
        else:
            raise ValueError(f"projection {projection.shape} maps neither width {da} to {db} "
                             f"nor {db} to {da}")
    return np.concatenate([a, b], axis=-2)


@dataclass
class FeatureSpace:
    """Frozen encoder weights shared by every record of a run; the ones its
    variant does not read are None."""

    image_params: dict | None
    text_params: dict
    caption_params: dict | None
    projection: np.ndarray | None  # imgsen's sentence down to the image width


def build_feature_space(kind: str, seed: int) -> FeatureSpace:
    """The frozen encoders variant ``kind`` reads, drawn from ``seed``: the
    text encoder, the image encoder (imgtxt, imgsen) or the captioner
    (capsen), and imgsen's sentence projection.  Each draws from its own
    named stream, so it is the same whichever others are built."""
    _check_variant(kind)
    return FeatureSpace(
        image_params=init_image_encoder_params(seed) if kind != "capsen" else None,
        text_params=init_text_encoder_params(seed),
        caption_params=(init_caption_decoder_params(seed=derive_seed(seed, "caption"))
                        if kind == "capsen" else None),
        projection=(init_projection(SENTENCE_DIM, D_MODEL, rng_for(seed, "sentence_projection"))
                    if kind == "imgsen" else None))


def toy_image(record_id: str) -> np.ndarray:
    """Deterministic pixel stand-in for a record whose image file is absent:
    a uniform [0, 1) draw, rounded to float32 by assigning it."""
    pixels = np.empty(IMAGE_HW + (IMAGE_CHANNELS,), dtype=np.float32)
    pixels[...] = rng_for(0, f"toy_image.{record_id}").random(size=pixels.shape)
    return pixels


def _toy_images(ids: list, pixels: np.ndarray) -> np.ndarray:
    """The records' toy images, written into the first rows of ``pixels``."""
    for i, rid in enumerate(ids):
        pixels[i] = toy_image(rid)
    return pixels[:len(ids)]


def _text_encoder(space: FeatureSpace, sentences: bool):
    """texts -> per-text token sequences, or 768-dim sentence vectors as
    one-row sequences.

    Each distinct clipped token tuple is encoded once over the encoder's
    life, and the new ones go through as one (G, L) batch per id count L,
    so no padding or mask enters the encoder.
    """
    params = space.text_params
    memo: dict = {}

    def encode(texts: list) -> list:
        keys = [tuple(t[:MAX_TOKENS]) for t in texts]
        by_length: dict = {}
        for key in dict.fromkeys(keys):
            if key not in memo:
                by_length.setdefault(max(len(key), 1), []).append(key)
        for group in by_length.values():
            ids = np.array([text_ids(key) for key in group])
            out = encode_ids(ids, params)
            memo.update(zip(group, pool_sentence(out, params)[:, None] if sentences else out))
        return [memo[key] for key in keys]

    return encode


def _fused(shape: tuple, parts, projection) -> np.ndarray:
    """One block of records fused into a zeroed (B, L, d) float32 array of
    row shape ``shape``.

    ``parts`` holds the variant's two parts, each one (rows, width) array
    per record.  Records whose parts have the same row counts fuse as one
    batch into their first rows, so any zero rows come after both parts.
    The batch is float64 when the widths differ, so the projection runs in
    double precision; otherwise the parts keep their dtype, since
    concatenating is exact in any of them.
    """
    out = np.zeros((len(parts[0]), *shape), dtype=np.float32)
    widths = {arrays[0].shape[-1] for arrays in parts}
    dtype = np.float64 if len(widths) > 1 else None
    groups: dict = {}  # row counts of the parts -> records with them
    for i, arrays in enumerate(zip(*parts)):
        groups.setdefault(tuple(map(len, arrays)), []).append(i)
    for key, idx in groups.items():
        first, second = (np.stack([arrays[i] for i in idx], dtype=dtype) for arrays in parts)
        out[idx, :sum(key)] = assemble_variant_input(first, second, projection=projection)
    return out


def encoded_blocks(ids: list[str], tokens_by_id: dict, space: FeatureSpace, kind: str):
    """(row shape, blocks): the records' fused features in id order, as a
    generator of (B, L, d) float32 blocks of IMAGE_BLOCK records.

    Texts go through the text encoder ENCODE_CHUNK records at a time, each
    distinct token tuple (texts and captions alike) encoded once per call.
    Images go through the image encoder or the captioner, and records
    through ``_fused``, IMAGE_BLOCK at a time, the toy pixels drawn into
    one reused buffer; a chunk's captions are encoded together.  Every
    encoder runs per-sample stacked GEMMs, so neither size changes a byte.
    An imgtxt record with fewer than MAX_TOKENS tokens ends in zero rows,
    so every record of a variant has its FUSED_SHAPES shape, the row shape.
    The blocks' body runs as they are drawn (by ``build_training_set`` or
    ``model.predict_blocks``).
    """
    _check_variant(kind)
    return FUSED_SHAPES[kind], _encoded(ids, tokens_by_id, space, kind)


def _encoded(ids: list, tokens_by_id: dict, space: FeatureSpace, kind: str):
    encode_texts = _text_encoder(space, sentences=kind != "imgtxt")
    pixels = np.empty((IMAGE_BLOCK, *IMAGE_HW, IMAGE_CHANNELS), dtype=np.float32)
    for start in range(0, len(ids), ENCODE_CHUNK):
        chunk = ids[start:start + ENCODE_CHUNK]
        blocks = [slice(lo, lo + IMAGE_BLOCK) for lo in range(0, len(chunk), IMAGE_BLOCK)]
        texts = encode_texts([tokens_by_id.get(rid, []) for rid in chunk])
        if kind == "capsen":
            captions = encode_texts([
                caption for block in blocks
                for caption in generate_captions(_toy_images(chunk[block], pixels),
                                                 space.caption_params)])
        for block in blocks:
            first = (captions[block] if kind == "capsen"
                     else encode_image(_toy_images(chunk[block], pixels), space.image_params))
            yield _fused(FUSED_SHAPES[kind], (first, texts[block]), space.projection)


def labels_from_records(records) -> dict:
    """Canonical class indices per task, aligned with the record order."""
    out = {}
    for task in TASKS:
        classes = TASK_CLASSES[task]
        out[task] = np.array([classes.index(r.labels.get(task)) for r in records],
                             dtype=np.int64)
    return out


def class_deficits(labels: dict) -> dict:
    """task -> {class: rows that raise it to the task's largest class}.

    Only classes with at least one row and fewer rows than the largest
    are listed; a row labelled -1 belongs to no class.
    """
    out = {}
    for task in TASKS:
        y = np.asarray(labels[task], dtype=np.int64)
        counts = np.bincount(y[y >= 0], minlength=HEAD_ARITY[task])
        target = int(counts.max())
        out[task] = {cls: target - int(c) for cls, c in enumerate(counts) if c and target > c}
    return out


def build_training_set(shape: tuple, blocks, labels: dict, k: int, seed: int) -> TrainSet:
    """The stream's records, then each task's synthetic rows, in one tensor.

    ``(shape, blocks)`` is a stream of ``encoded_blocks`` or
    ``imported_blocks``: a row shape and (B, *shape) blocks holding one
    record per row of ``labels``, in order.  The tensor is a zeroed
    (total, *shape) float32 array of the n originals and one row per
    synthetic row, as ``class_deficits`` counts them: the blocks are
    written into its first n rows as they are drawn, and each task's
    synthetic rows into its slice of the rows after them, tasks in TASKS
    order.  The returned TrainSet holds that same tensor.  A stream of
    more or fewer records than labels raises ValueError.

    Synthetic rows are interpolated in flattened fused space (double
    precision, one class at a time) from the originals only, and carry
    only the balanced task's label; the other tasks see -1 and mask them
    out of their losses.  Rows a task labels -1 belong to none of its
    classes, so they are never drawn or used as neighbours.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ys = {task: np.asarray(labels[task], dtype=np.int64) for task in TASKS}
    deficits = class_deficits(ys)
    n = len(ys[TASKS[0]])
    total = n + sum(sum(d.values()) for d in deficits.values())
    features = np.zeros((total, *shape), dtype=np.float32)
    drawn = 0
    for block in blocks:
        if drawn + len(block) <= n:
            features[drawn:drawn + len(block)] = block
        drawn += len(block)
    if drawn != n:
        raise ValueError(f"the feature stream holds {drawn} records for {n} labels")
    flat = features.reshape(total, shape[0] * shape[1])  # a view: writes land in features
    out_labels = {task: np.full(total, -1, dtype=np.int64) for task in TASKS}
    start = n
    for task in TASKS:
        out_labels[task][:n] = ys[task]
        if not deficits[task]:
            continue
        stop = start + sum(deficits[task].values())
        out_labels[task][start:stop] = smote_oversample(
            flat[:n], ys[task], deficits[task], k, derive_seed(seed, f"balance.{task}"),
            flat[start:stop])
        start = stop
    return TrainSet(features, out_labels)


def _imported_part(name: str, mapping: dict | None, ids: list, kind: str) -> list:
    """One exchange mapping's arrays in id order, checked against its role:
    a *_sentence mapping holds one vector per record, returned as one row,
    the others rows x width, and every record of one mapping has one width."""
    if mapping is None:
        raise ValueError(f"variant {kind!r} needs {name} embeddings")
    ndim = 1 if name.endswith("_sentence") else 2
    arrays = []
    for rid in ids:
        if rid not in mapping:
            raise ValueError(f"record {rid!r} missing from {name} embeddings")
        arr = np.asarray(mapping[rid])
        if arr.ndim != ndim:
            want = "one vector" if ndim == 1 else "rows x width"
            raise ValueError(f"{name} embeddings: record {rid!r} has shape {arr.shape}, "
                             f"expected {want}")
        if arrays and arr.shape[-1] != arrays[0].shape[-1]:
            raise ValueError(f"{name} embeddings: record {rid!r} has shape {arr.shape}, "
                             f"width {arrays[0].shape[-1]} expected")
        arrays.append(arr[None] if ndim == 1 else arr)
    if not arrays[0].shape[-1]:
        raise ValueError(f"{name} embeddings have width 0")
    return arrays


def imported_blocks(ids: list, kind: str, seed: int, **mappings):
    """(row shape, blocks): fused features built from externally computed
    embeddings, in id order, as a generator of (B, L, d) float32 blocks.

    ``mappings`` are keyed by exchange name (``VARIANT_PARTS[kind]``):
    ``image``/``tokens`` map record id -> sequence (rows x width); the
    sentence mappings map id -> one vector.  Every record is checked before
    the generator is returned, so a malformed mapping fails before any
    block is fused.  Width mismatches are aligned by a seeded projection to
    the wider side.  Blocks hold IMAGE_BLOCK records within chunks of
    ENCODE_CHUNK, as ``encoded_blocks``' do; shorter fused sequences end in
    zero rows so every record has the row shape.
    """
    if not ids:
        raise ValueError("no record ids to assemble")
    _check_variant(kind)
    names = VARIANT_PARTS[kind]
    parts = [_imported_part(name, mappings.get(name), ids, kind) for name in names]
    narrow, target = sorted(arrays[0].shape[-1] for arrays in parts)
    projection = None if narrow == target else init_projection(
        narrow, target, rng_for(seed, f"projection.{narrow}to{target}"))
    length = max(sum(map(len, arrays)) for arrays in zip(*parts))
    if not length:
        raise ValueError(f"{' and '.join(names)} embeddings hold no rows for any record")
    return (length, target), _imported(parts, projection, (length, target))


def _imported(parts: list, projection, shape: tuple):
    n = len(parts[0])
    for start in range(0, n, ENCODE_CHUNK):
        stop = min(start + ENCODE_CHUNK, n)
        for lo in range(start, stop, IMAGE_BLOCK):
            block = slice(lo, min(lo + IMAGE_BLOCK, stop))
            yield _fused(shape, [arrays[block] for arrays in parts], projection)
