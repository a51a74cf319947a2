"""Row-wise fusion of image and text representations.

The three variants all reduce to stacking two embedding sequences along
their row axis.  Every function takes leading batch axes: sequences are
(..., L, d) and sentence vectors (..., d).  Widths must agree before
stacking; when they differ, a learned projection maps one side to the
target width.
"""

from __future__ import annotations

import numpy as np

# variant -> (first part, second part); a part named *_sentence is one
# vector per record and fuses as one row
VARIANT_PARTS = {
    "imgtxt": ("img", "txt_tokens"),
    "imgsen": ("img", "txt_sentence"),
    "capsen": ("caption_sentence", "txt_sentence"),
}


def fuse_first_axis(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stack a's rows over b's rows; batch axes and widths must already agree."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim < 2 or a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]:
        raise ValueError(f"fuse_first_axis expects two (..., L, d) sequences with the same "
                         f"batch axes, got shapes {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"width mismatch: {a.shape[-1]} vs {b.shape[-1]}")
    return np.concatenate([a, b], axis=-2)


def project(x: np.ndarray, d_target: int, params: np.ndarray) -> np.ndarray:
    """Per-row linear map (..., L, d) -> (..., L, d_target)."""
    params = np.asarray(params)
    if params.shape != (x.shape[-1], d_target):
        raise ValueError(
            f"projection params {params.shape} cannot map width {x.shape[-1]} to {d_target}")
    return x @ params


def init_projection(d_in: int, d_out: int, rng: np.random.Generator,
                    dtype=np.float32) -> np.ndarray:
    return (rng.normal(size=(d_in, d_out)) / np.sqrt(d_in)).astype(dtype)


def _align(seq: np.ndarray, d_target: int, projections: dict | None) -> np.ndarray:
    d = seq.shape[-1]
    if d == d_target:
        return seq
    key = f"{d}to{d_target}"
    if not projections or key not in projections:
        raise ValueError(f"no projection {key!r} to align width {d} to {d_target}")
    return project(seq, d_target, projections[key])


def assemble_variant_input(variant, img=None, txt_tokens=None, txt_sentence=None,
                           caption_sentence=None, projections: dict | None = None,
                           d_target: int | None = None) -> np.ndarray:
    """Build one variant's (..., L, d) fused input from the representations it needs.

    imgtxt stacks the image patch sequence over the token sequence;
    imgsen stacks it over the sentence embedding as one row; capsen
    stacks the caption sentence embedding over the text sentence
    embedding.  Sequences are (..., L, d) and sentences (..., d) under the
    same batch axes; each record of a batch fuses bit for bit as it does
    alone.  Unequal widths are aligned by ``projections`` (keyed
    "{from}to{to}") before stacking; ``d_target`` defaults to the wider
    side.
    """
    kind = getattr(variant, "kind", variant)
    if kind not in VARIANT_PARTS:
        raise ValueError(f"unknown variant {kind!r}")
    given = {"img": img, "txt_tokens": txt_tokens, "txt_sentence": txt_sentence,
             "caption_sentence": caption_sentence}
    seqs = []
    for name in VARIANT_PARTS[kind]:
        if given[name] is None:
            raise ValueError(f"variant {kind} requires {name}")
        value = np.asarray(given[name])
        seqs.append(value[..., None, :] if name.endswith("_sentence") else value)
    a, b = seqs
    if d_target is None:
        d_target = max(a.shape[-1], b.shape[-1])
    a = _align(a, d_target, projections)
    b = _align(b, d_target, projections)
    return fuse_first_axis(a, b)
