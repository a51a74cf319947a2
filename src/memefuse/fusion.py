"""Row-wise fusion of image and text representations.

The three variants all reduce to stacking two embedding matrices along
the first axis.  Widths must agree before stacking; when they differ, a
learned projection maps one side to the target width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ROW_TAGS = ("image", "text", "caption")
VARIANT_KINDS = ("imgtxt", "imgsen", "capsen")


@dataclass(frozen=True)
class FusedRepresentation:
    """Stacked embedding rows plus a per-row source tag."""

    values: np.ndarray
    provenance: tuple[str, ...]

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ValueError(f"fused values must be 2-d, got shape {self.values.shape}")
        if len(self.provenance) != self.values.shape[0]:
            raise ValueError(
                f"{self.values.shape[0]} rows but {len(self.provenance)} provenance tags")
        for tag in self.provenance:
            if tag not in ROW_TAGS:
                raise ValueError(f"unknown provenance tag {tag!r}")


def fuse_first_axis(a: np.ndarray, b: np.ndarray, a_tag: str = "image",
                    b_tag: str = "text") -> FusedRepresentation:
    """Stack a's rows over b's rows; widths must already agree."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("fuse_first_axis expects two L x d matrices")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"width mismatch: {a.shape[1]} vs {b.shape[1]}")
    values = np.concatenate([a, b], axis=0)
    provenance = (a_tag,) * a.shape[0] + (b_tag,) * b.shape[0]
    return FusedRepresentation(values, provenance)


def project(x: np.ndarray, d_target: int, params: np.ndarray) -> np.ndarray:
    """Per-row linear map L x d -> L x d_target."""
    params = np.asarray(params)
    if params.shape != (x.shape[-1], d_target):
        raise ValueError(
            f"projection params {params.shape} cannot map width {x.shape[-1]} to {d_target}")
    return x @ params


def init_projection(d_in: int, d_out: int, rng: np.random.Generator,
                    dtype=np.float32) -> np.ndarray:
    return (rng.normal(size=(d_in, d_out)) / np.sqrt(d_in)).astype(dtype)


def _as_row(vec: np.ndarray) -> np.ndarray:
    vec = np.asarray(vec)
    if vec.ndim == 1:
        return vec[None, :]
    return vec


def _align(seq: np.ndarray, d_target: int, projections: dict | None) -> np.ndarray:
    d = seq.shape[1]
    if d == d_target:
        return seq
    key = f"{d}to{d_target}"
    if not projections or key not in projections:
        raise ValueError(f"no projection {key!r} to align width {d} to {d_target}")
    return project(seq, d_target, projections[key])


def assemble_variant_input(variant, img=None, txt_tokens=None, txt_sentence=None,
                           caption_sentence=None, projections: dict | None = None,
                           d_target: int | None = None) -> FusedRepresentation:
    """Build one variant's fused input from whichever representations it needs.

    imgtxt stacks the image patch sequence over the token sequence;
    imgsen stacks it over the sentence embedding as one row; capsen
    stacks the caption sentence embedding over the text sentence
    embedding.  Unequal widths are aligned by ``projections`` (keyed
    "{from}to{to}") before stacking; ``d_target`` defaults to the wider
    side.
    """
    kind = getattr(variant, "kind", variant)
    if kind not in VARIANT_KINDS:
        raise ValueError(f"unknown variant {kind!r}")
    if kind == "imgtxt":
        pairs = (("img", img), ("txt_tokens", txt_tokens))
        tags = ("image", "text")
    elif kind == "imgsen":
        pairs = (("img", img), ("txt_sentence", txt_sentence))
        tags = ("image", "text")
    else:
        pairs = (("caption_sentence", caption_sentence), ("txt_sentence", txt_sentence))
        tags = ("caption", "text")
    for name, value in pairs:
        if value is None:
            raise ValueError(f"variant {kind} requires {name}")
    a = _as_row(pairs[0][1])
    b = _as_row(pairs[1][1])
    if d_target is None:
        d_target = max(a.shape[1], b.shape[1])
    a = _align(a, d_target, projections)
    b = _align(b, d_target, projections)
    return fuse_first_axis(a, b, a_tag=tags[0], b_tag=tags[1])
