"""Classifier over fused sequences: stacked BiLSTM trunk, four task heads,
joint cross-entropy training with Adam, and exact checkpoint round-trips.

The four heads (humor, sarcasm, motivation, sentiment) share the trunk
and train jointly.  Samples may miss labels for some tasks (label -1),
which masks them out of that head's loss.

The CLI runs ``train`` and ``predict_blocks`` on one OpenBLAS thread (see
``memefuse.cli``): the trunk's GEMMs are too small for a second thread
to pay, and with one thread the checkpoints do not depend on the host's
core count.  This module uses whatever thread count numpy's BLAS has.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import TASKS, TASK_CLASSES, VARIANTS, NumericError
from .lstm import (Workspace, bilstm_backward, bilstm_forward, init_bilstm_params,
                   sequence_feature)
from .nnops import sub_params
from .seeds import rng_for
from .tensorfile import is_int, read_tensors, write_tensors

HEAD_ARITY = {task: len(classes) for task, classes in TASK_CLASSES.items()}

DEFAULT_EPOCHS = {"imgtxt": 150, "imgsen": 45, "capsen": 75}
DEFAULT_LR = {"imgtxt": 1e-3, "imgsen": 1e-3, "capsen": 3e-4}

CHECKPOINT_MAGIC = "memefuse-checkpoint"

# Adam's moment decay rates and denominator guard
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# Rows per trunk pass in prediction, gathered from whatever blocks the rows
# come in.  A pass holds one chunk's input, its input projections and
# outputs, not a backward cache.  The row count of a GEMM moves its last
# bits on AVX2 kernels (ROADMAP item 8), so every caller scores the same
# 64-row groups of its rows.
PREDICT_CHUNK = 64


@dataclass(frozen=True)
class ModelVariant:
    kind: str
    bilstm_layers: int = 2
    hidden: int = 32
    head_hidden: int = 32

    def __post_init__(self):
        if self.kind not in VARIANTS:
            raise ValueError(f"unknown variant kind {self.kind!r}")
        if min(self.bilstm_layers, self.hidden, self.head_hidden) < 1:
            raise ValueError("bilstm_layers, hidden, head_hidden must be >= 1")


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 256
    learning_rate: float = 1e-3
    epochs: int = 150
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")

    @classmethod
    def for_variant(cls, kind: str, **overrides) -> "TrainConfig":
        """Per-variant defaults: epochs 150/45/75, lr 1e-3 (3e-4 for capsen)."""
        base = {"epochs": DEFAULT_EPOCHS[kind], "learning_rate": DEFAULT_LR[kind]}
        base.update(overrides)
        return cls(**base)


@dataclass
class TrainSet:
    """Training samples: fused sequences plus per-task integer labels (-1 = missing).

    ``features`` is C-contiguous (a copy when given otherwise), so a batch
    gathers from its rows of time steps without a copy of the whole set.
    """

    features: np.ndarray
    labels: dict = field(default_factory=dict)

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features)
        if self.features.ndim != 3:
            raise ValueError(f"features must be (N, L, d), got shape {self.features.shape}")
        n = self.features.shape[0]
        for task in TASKS:
            if task not in self.labels:
                raise ValueError(f"labels missing task {task!r}")
            arr = np.asarray(self.labels[task], dtype=np.int64)
            if arr.shape != (n,):
                raise ValueError(f"{task} labels shape {arr.shape} != ({n},)")
            if np.any(arr >= HEAD_ARITY[task]):
                raise ValueError(f"{task} label out of range")
            self.labels[task] = arr


def init_classifier_params(variant: ModelVariant, d_in: int,
                           rng: np.random.Generator, dtype=np.float32) -> dict:
    params = {}
    width = d_in
    for i in range(variant.bilstm_layers):
        for k, v in init_bilstm_params(width, variant.hidden, rng, dtype).items():
            params[f"bilstm.{i}.{k}"] = v
        width = 2 * variant.hidden
    feat_dim = 2 * variant.hidden
    for task in TASKS:
        arity = HEAD_ARITY[task]
        params[f"head.{task}.w1"] = (rng.normal(size=(feat_dim, variant.head_hidden))
                                     / np.sqrt(feat_dim)).astype(dtype)
        params[f"head.{task}.b1"] = np.zeros(variant.head_hidden, dtype=dtype)
        params[f"head.{task}.w2"] = (rng.normal(size=(variant.head_hidden, arity))
                                     / np.sqrt(variant.head_hidden)).astype(dtype)
        params[f"head.{task}.b2"] = np.zeros(arity, dtype=dtype)
    return params


def _batched_forward(x: np.ndarray, variant: ModelVariant, params: dict, ws: Workspace,
                     cache: bool):
    """x: (B, L, d) -> per-task probabilities and the caches for backward
    (the trunk's are None without ``cache``)."""
    layer_caches = []
    for i in range(variant.bilstm_layers):
        x, layer = bilstm_forward(x, sub_params(params, f"bilstm.{i}"), ws.scope(f"bilstm.{i}"),
                                  cache=cache)
        layer_caches.append(layer)
    feat = sequence_feature(x)
    heads = {}
    probs = {}
    for task in TASKS:
        hp = sub_params(params, f"head.{task}")
        hidden = np.tanh(feat @ hp["w1"] + hp["b1"])
        logits = hidden @ hp["w2"] + hp["b2"]
        shifted = logits - logits.max(axis=-1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        probs[task] = np.exp(logp)
        heads[task] = (hidden, logp)
    return probs, (layer_caches, feat, heads)


def _predict_chunk(variant: ModelVariant, x: np.ndarray, params: dict, start: int) -> dict:
    """Probabilities of the rows of ``x``, the caller's rows from ``start``
    on, through the trunk's cache-free pass; NumericError names a
    non-finite row by its index among the caller's rows."""
    bad = np.flatnonzero(~np.isfinite(x).all(axis=(1, 2)))
    if bad.size:
        raise NumericError(f"non-finite feature in row {start + int(bad[0])}")
    with np.errstate(over="ignore", invalid="ignore"):
        probs = _batched_forward(x, variant, params, Workspace(), cache=False)[0]
    for task in TASKS:
        bad = np.flatnonzero(~np.isfinite(probs[task]).all(axis=1))
        if bad.size:
            raise NumericError(f"non-finite {task} probability in row {start + int(bad[0])}")
    return probs


def predict_blocks(variant: ModelVariant, blocks, params: dict) -> dict:
    """One or more (b, L, d) blocks of fused sequences -> {task: (N, K)
    probabilities} of their rows, in order.

    The rows are copied, time-major, into one chunk of PREDICT_CHUNK rows,
    and each full chunk goes through the trunk's cache-free pass, so the
    groups scored, and with them the bytes, are those of the stacked rows
    whatever the blocks' sizes.  ``blocks`` may be a generator, such as
    ``pipeline.encoded_blocks``': its body runs as it is iterated, so a
    block is encoded only when the rows before it are scored.  Only the
    chunk persists from one block to the next: the trunk's buffers are made
    for each chunk and freed after it, so the encoders reuse that memory
    instead of adding to it.  A row with a non-finite feature, or one the
    trunk overflows into a non-finite probability, raises NumericError
    naming its index among all the rows; an overflow the gates saturate
    away passes without a warning.
    """
    scored = []
    chunk = None
    filled = 0  # rows waiting in the chunk
    for block in blocks:
        if chunk is None:
            chunk = np.empty((block.shape[1], PREDICT_CHUNK, block.shape[2]), block.dtype)
        lo = 0
        while lo < len(block):
            take = min(PREDICT_CHUNK - filled, len(block) - lo)
            chunk[:, filled:filled + take] = block[lo:lo + take].transpose(1, 0, 2)
            filled += take
            lo += take
            if filled == PREDICT_CHUNK:
                scored.append(_predict_chunk(variant, chunk.transpose(1, 0, 2), params,
                                             PREDICT_CHUNK * len(scored)))
                filled = 0
        # the chunk holds its rows: let the block go before the next is built
        del block
    # zero rows still take one (empty) pass, for the output shapes
    if filled or not scored:
        scored.append(_predict_chunk(variant, chunk[:, :filled].transpose(1, 0, 2), params,
                                     PREDICT_CHUNK * len(scored)))
    return {task: np.concatenate([c[task] for c in scored]) for task in TASKS}


def predict_proba(variant: ModelVariant, features: np.ndarray, params: dict) -> dict:
    """Batch of fused sequences (B, L, d) -> {task: (B, K) probabilities}:
    ``predict_blocks`` over the batch as one block."""
    return predict_blocks(variant, [np.asarray(features)], params)


def loss_and_grads(x: np.ndarray, labels: dict, variant: ModelVariant, params: dict,
                   ws: Workspace):
    """Summed masked cross-entropy over task heads; returns (loss, grads, probs).

    Each head averages over its labeled samples; label -1 masks a sample
    out of that head.  Gradients cover every parameter (flat dict).  The
    trunk's buffers come from ``ws``; an ``x`` from ``gather_batch`` on the
    same workspace enters the trunk without a copy.
    """
    probs, (layer_caches, feat, heads) = _batched_forward(x, variant, params, ws,
                                                                 cache=True)
    batch = len(feat)
    grads = {k: np.zeros_like(v) for k, v in params.items() if k.startswith("head.")}
    d_feat = np.zeros_like(feat)
    total = 0.0
    for task in TASKS:
        y = labels[task]
        valid = y >= 0
        n_valid = int(valid.sum())
        if n_valid == 0:
            continue
        hidden, logp = heads[task]
        total -= float(logp[valid, y[valid]].sum()) / n_valid
        d_logits = probs[task].copy()
        d_logits[np.arange(batch)[valid], y[valid]] -= 1.0
        d_logits[~valid] = 0.0
        d_logits /= n_valid
        hp = sub_params(params, f"head.{task}")
        grads[f"head.{task}.w2"] += hidden.T @ d_logits
        grads[f"head.{task}.b2"] += d_logits.sum(axis=0)
        d_hidden = (d_logits @ hp["w2"].T) * (1.0 - hidden**2)
        grads[f"head.{task}.w1"] += feat.T @ d_hidden
        grads[f"head.{task}.b1"] += d_hidden.sum(axis=0)
        d_feat += d_hidden @ hp["w1"].T
    # the top layer takes the gradient of its sequence_feature, the others
    # that of every output row
    d_out = d_feat
    for i in reversed(range(variant.bilstm_layers)):
        # layer 0's input gradient has no use
        d_out, layer_grads = bilstm_backward(d_out, layer_caches[i], ws, need_dx=i > 0)
        for k, v in layer_grads.items():
            grads[f"bilstm.{i}.{k}"] = v
    return total, grads, probs


def adam_step(params: dict, grads: dict, state, lr: float, t: int):
    """One Adam update with bias correction; mutates params in place.

    ``state`` carries first/second moments; pass None on the first step.
    A non-finite gradient, or a parameter the update leaves non-finite (an
    overflowing learning rate), aborts with NumericError; an overflow
    raises no RuntimeWarning.
    """
    if t < 1:
        raise ValueError("step index t starts at 1")
    if state is None:
        state = {"m": {k: np.zeros_like(v) for k, v in params.items()},
                 "v": {k: np.zeros_like(v) for k, v in params.items()}}
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for {name}")
        m = state["m"][name]
        v = state["v"][name]
        # m += (1 - beta1) (g - m), v += (1 - beta2) (g g - v) and
        # p -= lr (m / bc1) / (sqrt(v / bc2) + eps), operation by operation
        # in that order, in place; the quotient needs its numerator (step)
        # and its denominator (scratch) at once.  An overflow (of g g, say)
        # is reported below, by name, not as a RuntimeWarning
        with np.errstate(over="ignore", invalid="ignore"):
            scratch = np.subtract(g, m)
            scratch *= 1.0 - ADAM_BETA1
            m += scratch
            np.multiply(g, g, out=scratch)
            scratch -= v
            scratch *= 1.0 - ADAM_BETA2
            v += scratch
            np.divide(v, bc2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += ADAM_EPS
            step = m / bc1
            step *= lr
            step /= scratch
            p -= step
        if not np.all(np.isfinite(p)):
            raise NumericError(f"non-finite parameter {name} after step {t}")
    return params, state


def gather_batch(feats: np.ndarray, idx: np.ndarray, ws: Workspace) -> np.ndarray:
    """Rows ``idx`` of C-contiguous ``feats`` (N, L, d), gathered time-major
    into the workspace in one pass and returned as a batch-major (B, L, d)
    view, which ``bilstm_forward`` reads without a copy."""
    _, length, d_in = feats.shape
    xt = ws.buffer("batch", (length, len(idx), d_in), feats.dtype)
    # row t of sample j is row j * L + t of the (N * L, d) view; mode="clip"
    # (the rows are in range) lets take write to out unbuffered
    rows = ws.scratch("rows", (length, len(idx)), np.intp)
    np.add(idx * length, np.arange(length)[:, None], out=rows)
    np.take(feats.reshape(-1, d_in), rows, axis=0, out=xt, mode="clip")
    return xt.transpose(1, 0, 2)


def train(variant: ModelVariant, dataset: TrainSet, config: TrainConfig):
    """Mini-batch Adam training; returns (params, history).

    History holds one record per epoch: mean loss plus running train
    accuracy per task.  Fully deterministic for a fixed config.seed.  An
    overflow in a step raises no RuntimeWarning: a non-finite loss, or
    the non-finite gradient or parameter it leads to, raises NumericError.
    """
    feats = dataset.features
    n = feats.shape[0]
    if n == 0:
        raise ValueError("empty training set")
    init_rng = rng_for(config.seed, f"init.{variant.kind}")
    params = init_classifier_params(variant, feats.shape[2], init_rng, dtype=feats.dtype)
    shuffle_rng = rng_for(config.seed, f"shuffle.{variant.kind}")
    # one workspace for every step: the tail batch takes views of its buffers
    ws = Workspace()
    state = None
    t = 0
    history = []
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        correct = {task: 0 for task in TASKS}
        counted = {task: 0 for task in TASKS}
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            yb = {task: dataset.labels[task][idx] for task in TASKS}
            # overflows are reported below and in adam_step, as NumericError
            with np.errstate(over="ignore", invalid="ignore"):
                loss, grads, probs = loss_and_grads(gather_batch(feats, idx, ws), yb,
                                                    variant, params, ws=ws)
            if not np.isfinite(loss):
                raise NumericError(f"non-finite loss at epoch {epoch}")
            t += 1
            params, state = adam_step(params, grads, state, config.learning_rate, t)
            loss_sum += loss * len(idx)
            for task in TASKS:
                valid = yb[task] >= 0
                if valid.any():
                    pred = probs[task].argmax(axis=-1)
                    correct[task] += int((pred[valid] == yb[task][valid]).sum())
                    counted[task] += int(valid.sum())
        record = {"epoch": epoch, "loss": loss_sum / n}
        for task in TASKS:
            record[f"acc_{task}"] = correct[task] / counted[task] if counted[task] else 0.0
        history.append(record)
    return params, history


def save_history(path, history: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in history:
            fh.write(json.dumps(record) + "\n")


def save_checkpoint(path, variant: ModelVariant, params: dict, seed: int, epoch: int) -> None:
    """A tensor file (``memefuse.tensorfile``) of the tensors in name order."""
    header = {
        "format": CHECKPOINT_MAGIC,
        "variant": {"kind": variant.kind, "bilstm_layers": variant.bilstm_layers,
                    "hidden": variant.hidden, "head_hidden": variant.head_hidden},
        "seed": seed,
        "epoch": epoch,
    }
    write_tensors(path, header, {k: params[k] for k in sorted(params)})


def _check_header(path, header: dict) -> None:
    """Reject malformed run fields or a manifest not the variant's, naming either."""
    for name in ("variant", "seed", "epoch"):
        if name not in header:
            raise ValueError(f"{path}: checkpoint header lacks field {name!r}")
    for name in ("seed", "epoch"):
        if not (is_int(header[name]) and header[name] >= 0):
            raise ValueError(f"{path}: header field {name!r} must be a non-negative integer")
    variant = header["variant"]
    if not isinstance(variant, dict) or not isinstance(variant.get("kind"), str):
        raise ValueError(f"{path}: header field 'variant' must be an object with a string 'kind'")
    known = {f.name for f in fields(ModelVariant)}
    for key, value in variant.items():
        if key not in known:
            raise ValueError(f"{path}: unknown header field 'variant.{key}'")
        if key != "kind" and not is_int(value):
            raise ValueError(f"{path}: header field 'variant.{key}' must be an integer")
    _check_manifest(path, ModelVariant(**variant), header["manifest"])


def _param_shapes(variant: ModelVariant, d_in: int):
    """Yield (name, shape) of every tensor init_classifier_params makes for the variant."""
    hidden, head = variant.hidden, variant.head_hidden
    width = d_in
    for i in range(variant.bilstm_layers):
        pre = f"bilstm.{i}."
        yield pre + "wx", (width, 2, 4, hidden)
        yield pre + "wh", (2, 4, hidden, hidden)
        yield pre + "b", (2, 4, hidden)
        width = 2 * hidden
    for task in TASKS:
        pre = f"head.{task}."
        yield pre + "w1", (2 * hidden, head)
        yield pre + "b1", (head,)
        yield pre + "w2", (head, HEAD_ARITY[task])
        yield pre + "b2", (HEAD_ARITY[task],)


def _check_manifest(path, variant: ModelVariant, manifest: list) -> None:
    """Reject a manifest that does not list exactly the variant's tensors and shapes.

    The input width is the one free dimension; it comes from the first
    layer's ``wx``.  The scan stops at the first missing name, so a header
    claiming absurdly many layers costs no more than its manifest.
    """
    have = {entry["name"]: tuple(entry["shape"]) for entry in manifest}
    first = have.get("bilstm.0.wx") or (0,)
    want = {}
    for name, shape in _param_shapes(variant, first[0]):
        if name not in have:
            raise ValueError(f"{path}: checkpoint lacks tensor {name!r} "
                             f"of variant {variant.kind!r}")
        want[name] = shape
    for name in have:
        if name not in want:
            raise ValueError(f"{path}: unexpected tensor {name!r} "
                             f"for variant {variant.kind!r}")
    for name, shape in want.items():
        if have[name] != shape:
            raise ValueError(f"{path}: tensor {name!r} has shape {list(have[name])}, "
                             f"the variant needs {list(shape)}")


def load_checkpoint(path):
    """Returns (variant, params, meta) with meta = {"seed", "epoch"}.

    A malformed header, a manifest that does not list exactly the
    variant's tensors, or a tensor holding NaN or inf raises ValueError
    naming the offending field or tensor.
    """
    header, params = read_tensors(path, "checkpoint", CHECKPOINT_MAGIC, _check_header)
    return (ModelVariant(**header["variant"]), params,
            {"seed": header["seed"], "epoch": header["epoch"]})
