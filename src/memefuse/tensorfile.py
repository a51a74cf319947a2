"""The one tensor-file layout: a JSON header line whose ``format`` names
the file's kind and whose ``manifest`` lists ``{"name", "shape"}`` entries,
then every tensor as little-endian float32 in manifest order.  Checkpoints
(``memefuse.model``) and the embedding exchange files below both use it.
"""

from __future__ import annotations

import json
import math
import os
from itertools import accumulate

import numpy as np

EMBEDDINGS_MAGIC = "memefuse-embeddings"
EMBEDDING_KINDS = {"sequence": 2, "vector": 1}  # kind -> dims of each record


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def write_tensors(path, header: dict, tensors: dict) -> None:
    """Write ``header`` plus the manifest of ``tensors``, then the tensors in order."""
    manifest = [{"name": name, "shape": list(arr.shape)} for name, arr in tensors.items()]
    with open(path, "wb") as fh:
        fh.write(json.dumps({**header, "manifest": manifest}).encode("utf-8") + b"\n")
        for arr in tensors.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def _check_layout(path, what: str, magic: str, header) -> None:
    """Reject a header that is no object of format ``magic`` with a well-formed manifest."""
    if not isinstance(header, dict):
        raise ValueError(f"{path}: {what} header must be a JSON object")
    if header.get("format") != magic:
        raise ValueError(f"{path}: not {'an' if what[0] in 'aeiou' else 'a'} {what} file")
    if "manifest" not in header:
        raise ValueError(f"{path}: {what} header lacks field 'manifest'")
    if not isinstance(header["manifest"], list):
        raise ValueError(f"{path}: header field 'manifest' must be a list")
    seen = set()
    for index, entry in enumerate(header["manifest"]):
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)):
            raise ValueError(f"{path}: manifest entry {index} {entry!r} needs a string 'name' "
                             "and a list 'shape'")
        if entry["name"] in seen:
            raise ValueError(f"{path}: manifest names {entry['name']!r} twice")
        seen.add(entry["name"])
        if not all(is_int(n) and n >= 0 for n in entry["shape"]):
            raise ValueError(f"{path}: manifest entry {entry['name']!r} has shape "
                             f"{entry['shape']}; dims must be non-negative integers")


def read_tensors(path, what: str, magic: str, check) -> tuple:
    """Read a tensor file of format ``magic`` -> (header, {name: float32 array}).

    ``check(path, header)`` runs once the layout is valid and before any
    tensor is read, so a caller's header errors come ahead of blob errors.
    Sizes are Python integers, so no shape can wrap; the blob must hold
    exactly the manifest's tensors, every value finite.  A defect raises
    ValueError naming the file (``what`` says which kind it is) and the
    field or tensor.
    """
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: {what} header is not JSON ({exc})") from exc
        _check_layout(path, what, magic, header)
        check(path, header)
        manifest = header["manifest"]
        ends = list(accumulate((math.prod(entry["shape"]) for entry in manifest), initial=0))
        blob = os.fstat(fh.fileno()).st_size - fh.tell()
        for entry, end in zip(manifest, ends[1:]):
            if 4 * end > blob:
                raise ValueError(f"{path}: truncated tensor data at {entry['name']!r}")
        if 4 * ends[-1] != blob:
            raise ValueError(f"{path}: {blob - 4 * ends[-1]} trailing bytes")
        values = np.fromfile(fh, dtype="<f4", count=ends[-1])
    if values.size != ends[-1]:
        raise ValueError(f"{path}: truncated tensor data")
    tensors = {}
    for entry, start, stop in zip(manifest, ends, ends[1:]):
        arr = values[start:stop].reshape(entry["shape"])
        if not np.isfinite(arr).all():
            raise ValueError(f"{path}: tensor {entry['name']!r} holds a non-finite value")
        tensors[entry["name"]] = arr
    return header, tensors


def export_embeddings(path, mapping: dict, kind: str) -> None:
    """Write id-keyed embeddings as a tensor file, one tensor per id.

    kind "sequence" stores L x d matrices (shared d, L free); "vector"
    stores length-d vectors.  Values are rounded to float32.
    """
    if kind not in EMBEDDING_KINDS:
        raise ValueError(f"kind must be sequence or vector, got {kind!r}")
    if not mapping:
        raise ValueError("nothing to export")
    arrays = {str(k): np.asarray(v, dtype=np.float32) for k, v in mapping.items()}
    for rid, arr in arrays.items():
        if arr.ndim != EMBEDDING_KINDS[kind]:
            raise ValueError(f"record {rid!r} of shape {arr.shape} is not a {kind}")
    widths = {arr.shape[-1] for arr in arrays.values()}
    if len(widths) != 1:
        raise ValueError(f"inconsistent widths {sorted(widths)}")
    write_tensors(path, {"format": EMBEDDINGS_MAGIC, "kind": kind, "d": widths.pop()}, arrays)


def _check_exchange_header(path, header: dict) -> None:
    """Reject an exchange header whose kind or d is malformed or a record
    whose shape does not fit them, naming the field or record."""
    d, kind = header.get("d"), header.get("kind")
    if not is_int(d) or d < 0:
        raise ValueError(f"{path}: header 'd' {d!r} is not a non-negative integer")
    if not isinstance(kind, str) or kind not in EMBEDDING_KINDS:
        raise ValueError(f"{path}: unknown kind {kind!r}")
    for entry in header["manifest"]:
        shape = tuple(entry["shape"])
        if len(shape) != EMBEDDING_KINDS[kind] or shape[-1] != d:
            raise ValueError(f"{path}: record {entry['name']!r} shape {shape} "
                             f"conflicts with header d={d}")


def import_embeddings(path) -> dict:
    """Read an embedding file back into {id: float32 array}.

    The header's kind and d and every record's shape are checked before
    any value is read, and values must be finite; every defect raises
    ValueError naming the file and the field or record.
    """
    return read_tensors(path, "embedding", EMBEDDINGS_MAGIC, _check_exchange_header)[1]
