"""Row-wise fusion of image and text representations.

The three variants all reduce to stacking two embedding sequences along
their row axis, over leading batch axes: sequences are (..., L, d) and
sentence vectors (..., d).  When the two widths differ, the caller's
projection maps one side to the other's width before stacking.
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


def init_projection(d_in: int, d_out: int, rng: np.random.Generator,
                    dtype=np.float32) -> np.ndarray:
    return (rng.normal(size=(d_in, d_out)) / np.sqrt(d_in)).astype(dtype)


def assemble_variant_input(kind: str, img=None, txt_tokens=None, txt_sentence=None,
                           caption_sentence=None, projection=None) -> np.ndarray:
    """Build one variant's (..., L, d) fused input from the representations it needs.

    imgtxt stacks the image patch sequence over the token sequence;
    imgsen stacks it over the sentence embedding as one row; capsen
    stacks the caption sentence embedding over the text sentence
    embedding.  Sequences are (..., L, d) and sentences (..., d) under the
    same batch axes; each record of a batch fuses bit for bit as it does
    alone.  When the widths differ, ``projection`` is one (d_from, d_to)
    matrix and its shape decides which part it maps to the other's width;
    when they agree it is not used.
    """
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
    if a.ndim < 2 or a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]:
        raise ValueError(f"variant {kind} needs two (..., L, d) parts with the same batch "
                         f"axes, got shapes {a.shape} and {b.shape}")
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
