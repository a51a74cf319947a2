"""Frozen feature encoders: image patches and word tokens through small
pre-norm transformer stacks, plus a pooled 768-dim sentence embedding.

Encoder weights are derived deterministically from a seed and never
trained; the trainable part of a model is the classifier that consumes
these features.
"""

from __future__ import annotations

import hashlib

import numpy as np

from . import nnops
from .seeds import rng_for

SENTENCE_DIM = 768
# the one geometry of the image and text encoders
D_MODEL = 64
N_LAYERS = 2
N_HEADS = 2
PATCH_SIZE = 16
MAX_TOKENS = 16
VOCAB_SIZE = 1024
# the images every encoder reads, and the captioner's sizes
IMAGE_HW = (32, 32)
IMAGE_CHANNELS = 3
N_PATCHES = (IMAGE_HW[0] // PATCH_SIZE) * (IMAGE_HW[1] // PATCH_SIZE)
CAPTION_LEN = 8
CAPTION_D_MODEL = 32
CAPTION_LAYERS = 1
CAPTION_HEADS = 2
CAPTION_CONV_CHANNELS = 8


def patchify(image: np.ndarray, patch_size: int) -> np.ndarray:
    """(..., H, W, C) images -> (..., H/p * W/p, p*p*C) flattened patches.

    Patches are taken row-major over the grid; each patch flattens in
    row-major order as well.  Leading axes are batch axes.
    """
    if image.ndim < 3:
        raise ValueError(f"expected H x W x C image, got shape {image.shape}")
    *lead, h, w, c = image.shape
    p = patch_size
    if h % p or w % p:
        raise ValueError(f"image {h}x{w} not divisible into {p}x{p} patches")
    grid = image.reshape(*lead, h // p, p, w // p, p, c).swapaxes(-4, -3)
    return grid.reshape(*lead, (h // p) * (w // p), p * p * c)


def init_block_params(d_model: int, rng: np.random.Generator) -> dict:
    def mat(rows, cols):
        return (rng.normal(size=(rows, cols)) / np.sqrt(rows)).astype(np.float32)

    d_ff = 4 * d_model
    p = {
        "ln1.g": np.ones(d_model, dtype=np.float32),
        "ln1.b": np.zeros(d_model, dtype=np.float32),
        "ln2.g": np.ones(d_model, dtype=np.float32),
        "ln2.b": np.zeros(d_model, dtype=np.float32),
        "ffn.w1": mat(d_model, d_ff),
        "ffn.b1": np.zeros(d_ff, dtype=np.float32),
        "ffn.w2": mat(d_ff, d_model),
        "ffn.b2": np.zeros(d_model, dtype=np.float32),
    }
    for name in ("wq", "wk", "wv", "wo"):
        p[f"attn.{name}"] = mat(d_model, d_model)
        p[f"attn.b{name[1]}"] = np.zeros(d_model, dtype=np.float32)
    return p


def transformer_block_forward(x: np.ndarray, params: dict, n_heads: int):
    """Pre-norm block: x + attn(ln(x)), then h + ffn(ln(h))."""
    n1, c_n1 = nnops.layernorm_forward(x, params["ln1.g"], params["ln1.b"])
    a, c_a = nnops.mha_forward(n1, n1, nnops.sub_params(params, "attn"), n_heads)
    y, c_ffn = _ffn_residual(x + a, params)
    return y, (c_n1, c_a, *c_ffn)


def _ffn_residual(h: np.ndarray, params: dict):
    """The block's second half, h + ffn(ln(h)); the captioner's cached
    decoder steps run it too."""
    n2, c_n2 = nnops.layernorm_forward(h, params["ln2.g"], params["ln2.b"])
    f1, c_f1 = nnops.linear_forward(n2, params["ffn.w1"], params["ffn.b1"])
    f2, c_f2 = nnops.linear_forward(nnops.gelu(f1), params["ffn.w2"], params["ffn.b2"])
    return h + f2, (c_n2, c_f1, f1, c_f2)


def transformer_block_backward(d_y: np.ndarray, cache):
    c_n1, c_a, c_n2, c_f1, f1, c_f2 = cache
    d_f1g, dw2, db2 = nnops.linear_backward(d_y, c_f2)
    d_f1 = nnops.gelu_backward(d_f1g, f1)
    d_n2, dw1, db1 = nnops.linear_backward(d_f1, c_f1)
    d_h, dg2, dbias2 = nnops.layernorm_backward(d_n2, c_n2)
    d_h = d_h + d_y
    d_nq, d_nkv, d_attn = nnops.mha_backward(d_h, c_a)
    d_n1 = d_nq + d_nkv
    dx, dg1, dbias1 = nnops.layernorm_backward(d_n1, c_n1)
    dx = dx + d_h
    d_params = {
        "ln1.g": dg1, "ln1.b": dbias1, "ln2.g": dg2, "ln2.b": dbias2,
        "ffn.w1": dw1, "ffn.b1": db1, "ffn.w2": dw2, "ffn.b2": db2,
    }
    d_params.update({f"attn.{k}": v for k, v in d_attn.items()})
    return dx, d_params


def _stack_params(rng: np.random.Generator) -> dict:
    params = {}
    for i in range(N_LAYERS):
        for k, v in init_block_params(D_MODEL, rng).items():
            params[f"blocks.{i}.{k}"] = v
    return params


def init_image_encoder_params(seed: int) -> dict:
    """Image encoder weights for IMAGE_HW images of IMAGE_CHANNELS channels."""
    d_patch = PATCH_SIZE * PATCH_SIZE * IMAGE_CHANNELS
    rng = rng_for(seed, "image_encoder")
    params = {
        "patch_embed.w": (rng.normal(size=(d_patch, D_MODEL)) / np.sqrt(d_patch)).astype(np.float32),
        "patch_embed.b": np.zeros(D_MODEL, dtype=np.float32),
        "pos": (rng.normal(size=(N_PATCHES, D_MODEL)) * 0.02).astype(np.float32),
    }
    params.update(_stack_params(rng))
    return params


def init_text_encoder_params(seed: int) -> dict:
    rng = rng_for(seed, "text_encoder")
    params = {
        # row 0 is the null token used for empty input
        "tok_emb": (rng.normal(size=(VOCAB_SIZE, D_MODEL)) * 0.1).astype(np.float32),
        "pos": (rng.normal(size=(MAX_TOKENS, D_MODEL)) * 0.02).astype(np.float32),
        "sent_proj.w": (rng.normal(size=(D_MODEL, SENTENCE_DIM)) / np.sqrt(D_MODEL)).astype(np.float32),
        "sent_proj.b": np.zeros(SENTENCE_DIM, dtype=np.float32),
    }
    params.update(_stack_params(rng))
    return params


def _run_blocks(x: np.ndarray, params: dict) -> np.ndarray:
    # the frozen encoders never run backward: each block's cache goes at once,
    # before the next block runs
    for i in range(N_LAYERS):
        x = transformer_block_forward(x, nnops.sub_params(params, f"blocks.{i}"), N_HEADS)[0]
    return x


def encode_image(image: np.ndarray, params: dict) -> np.ndarray:
    """(..., H, W, C) pixel arrays -> (..., n_patches, D_MODEL) feature sequences.

    A batch runs through the blocks as one (B, n_patches, D_MODEL) tensor;
    numpy's stacked matmul runs the same per-image GEMMs, so each image
    encodes bit for bit as it does alone.
    """
    patches = patchify(np.asarray(image, dtype=params["patch_embed.w"].dtype), PATCH_SIZE)
    if patches.shape[-2] != params["pos"].shape[0]:
        raise ValueError(
            f"{patches.shape[-2]} patches but positions for {params['pos'].shape[0]}")
    x = patches @ params["patch_embed.w"]
    x += params["patch_embed.b"]
    x += params["pos"]
    return _run_blocks(x, params)


def token_id(word: str) -> int:
    """Stable hash of a word into [1, VOCAB_SIZE); 0 stays the null token."""
    digest = hashlib.blake2s(word.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % (VOCAB_SIZE - 1) + 1


def text_ids(tokens) -> tuple:
    """The ids the text encoder reads: at most MAX_TOKENS of them, and the
    single null token for an empty list, so there is always at least one."""
    return tuple(token_id(t) for t in tokens[:MAX_TOKENS]) or (0,)


def encode_ids(ids: np.ndarray, params: dict) -> np.ndarray:
    """(..., L) token ids -> (..., L, D_MODEL) feature sequences.

    Every row of a batch has the same L, so no padding or mask is needed.
    """
    x = params["tok_emb"][ids]  # indexing copies, so the add can land in place
    x += params["pos"][:ids.shape[-1]]
    return _run_blocks(x, params)


def pool_sentence(seq: np.ndarray, params: dict) -> np.ndarray:
    """(..., L, d_model) sequences -> (..., 768): mean over L, then project.

    The projection multiplies (1, d_model) rows one at a time, as a stacked
    matmul; a 2-D (B, d_model) GEMM would round differently from one text.
    """
    pooled = seq.mean(axis=-2)[..., None, :]
    out = (pooled @ params["sent_proj.w"])[..., 0, :]
    out += params["sent_proj.b"]
    return out


# --- caption generation ----------------------------------------------------

END_TOKEN = 0

CAPTION_WORDS = (
    "a", "man", "woman", "dog", "cat", "person", "face", "holding", "looking",
    "standing", "sitting", "smiling", "wearing", "hat", "glasses", "text",
    "white", "black", "red", "blue", "background", "picture", "meme", "screen",
    "group", "people", "room", "outside", "table", "shirt", "sign",
)


def _conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int) -> np.ndarray:
    """Valid convolution, x: B x H x W x Cin, w: kh x kw x Cin x Cout.

    One GEMM (im2col): the strided windows flatten to (B*h*w, Cin*kh*kw)
    rows, which multiply the weights reshaped to (Cin*kh*kw, Cout).
    """
    kh, kw, cin, cout = w.shape
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    win = win[:, ::stride, ::stride]
    batch, h, wd = win.shape[:3]
    cols = win.reshape(batch * h * wd, cin * kh * kw)
    out = cols @ w.transpose(2, 0, 1, 3).reshape(cin * kh * kw, cout)
    out += b  # in place: a second output-sized array would set the captioner's peak
    return out.reshape(batch, h, wd, cout)


def init_caption_decoder_params(seed: int) -> dict:
    """Weights for the untrained captioner: conv feature extractor over the
    image, then decoder blocks (causal self-attention, attention over image
    features, feed-forward) and an output projection over CAPTION_WORDS plus
    the end token at index 0."""
    rng = rng_for(seed, "caption_decoder")
    d, c, vocab = CAPTION_D_MODEL, CAPTION_CONV_CHANNELS, len(CAPTION_WORDS) + 1

    def mat(*shape):
        return (rng.normal(size=shape) / np.sqrt(shape[0])).astype(np.float32)

    params = {
        "conv1.w": (rng.normal(size=(3, 3, IMAGE_CHANNELS, c)) * 0.2).astype(np.float32),
        "conv1.b": np.zeros(c, dtype=np.float32),
        "conv2.w": (rng.normal(size=(3, 3, c, d)) * 0.2).astype(np.float32),
        "conv2.b": np.zeros(d, dtype=np.float32),
        "start_emb": (rng.normal(size=(d,)) * 0.1).astype(np.float32),
        "tok_emb": (rng.normal(size=(vocab, d)) * 0.1).astype(np.float32),
        # 16 rows drawn, CAPTION_LEN kept: every later draw, and so every
        # caption, depends on how many values this one takes
        "pos": (rng.normal(size=(16, d))[:CAPTION_LEN] * 0.02).astype(np.float32),
        "out.w": mat(d, vocab),
        "out.b": np.zeros(vocab, dtype=np.float32),
    }
    for i in range(CAPTION_LAYERS):
        for k, v in init_block_params(d, rng).items():
            params[f"self.{i}.{k}"] = v
        p = f"cross.{i}"
        params[f"{p}.ln.g"] = np.ones(d, dtype=np.float32)
        params[f"{p}.ln.b"] = np.zeros(d, dtype=np.float32)
        for name in ("wq", "wk", "wv", "wo"):
            params[f"{p}.{name}"] = mat(d, d)
            params[f"{p}.b{name[1]}"] = np.zeros(d, dtype=np.float32)
    return params


def _image_features(images: np.ndarray, p: dict) -> np.ndarray:
    """B x H x W x C images -> B x positions x d_model conv features."""
    x = np.asarray(images, dtype=p["conv1.w"].dtype)
    if x.ndim != 4 or x.shape[-1] != IMAGE_CHANNELS:
        raise ValueError(f"captioner expects B x H x W x {IMAGE_CHANNELS} images")
    h1 = nnops.gelu(_conv2d(x, p["conv1.w"], p["conv1.b"], stride=2))
    h2 = nnops.gelu(_conv2d(h1, p["conv2.w"], p["conv2.b"], stride=2))
    return h2.reshape(h2.shape[0], -1, h2.shape[-1])


def _decode_step(x: np.ndarray, caches: list, memory: list, layers: list, p: dict):
    """Run the decoder stack over each live caption's newest row (B x 1 x
    d_model); returns B x vocab logits and the grown caches.

    Each layer appends the rows' self-attention (keys, values) heads to its
    cache, which holds every earlier row of the same captions, and the rows
    attend over it: nothing later is cached, so no causal mask is needed.
    ``memory`` holds each layer's cross-attention (keys, values) heads over
    the image features; ``layers`` each layer's (self-attention block,
    its attention, cross-attention) parameter views.
    """
    grown = []
    for (sp, attn, cp), cache, kv in zip(layers, caches, memory):
        n1, _ = nnops.layernorm_forward(x, sp["ln1.g"], sp["ln1.b"])
        new, _ = nnops.mha_kv(n1, attn, CAPTION_HEADS)
        cache = tuple(np.concatenate(pair, axis=-2) for pair in zip(cache, new))
        grown.append(cache)
        a, _ = nnops.mha_attend(n1, cache, attn, CAPTION_HEADS)
        x, _ = _ffn_residual(x + a, sp)
        n, _ = nnops.layernorm_forward(x, cp["ln.g"], cp["ln.b"])
        a, _ = nnops.mha_attend(n, kv, cp, CAPTION_HEADS)
        x = x + a
    # a stacked (B, 1, d) matmul rounds each row as a single image's would
    logits = (x @ p["out.w"])[:, 0]
    logits += p["out.b"]
    return logits, grown


def generate_captions(images: np.ndarray, decoder_params: dict) -> list[list[str]]:
    """Greedy decoding of B x H x W x C images together: every step emits
    each row's argmax word, and a row leaves the batch at its end token.

    Decoding is incremental: a step runs the decoder over the newest row of
    each caption only, and the self-attention keys and values of earlier
    rows come from a per-layer cache.  The cross-attention keys and values
    are projected once per batch.  A finished row leaves both.
    Deterministic; each caption has at most CAPTION_LEN words.
    """
    p = decoder_params
    feats = _image_features(images, p)
    n = feats.shape[0]
    # each layer's parameter views, sliced once for every step
    layers = []
    for i in range(CAPTION_LAYERS):
        sp = nnops.sub_params(p, f"self.{i}")
        layers.append((sp, nnops.sub_params(sp, "attn"), nnops.sub_params(p, f"cross.{i}")))
    memory = [nnops.mha_kv(feats, cp, CAPTION_HEADS)[0] for _, _, cp in layers]
    empty = np.zeros((n, CAPTION_HEADS, 0, CAPTION_D_MODEL // CAPTION_HEADS), dtype=feats.dtype)
    caches = [(empty, empty)] * CAPTION_LAYERS
    captions: list[list[str]] = [[] for _ in range(n)]
    live = np.arange(n)
    rows = np.broadcast_to(p["start_emb"], (n, 1, p["start_emb"].shape[0]))
    for step in range(CAPTION_LEN):
        logits, caches = _decode_step(rows + p["pos"][step], caches, memory, layers, p)
        nxt = np.argmax(logits, axis=-1)
        going = nxt != END_TOKEN
        for row, word in zip(live[going], nxt[going]):
            captions[row].append(CAPTION_WORDS[word - 1])
        if not going.all():
            live = live[going]
            memory = [(k[going], v[going]) for k, v in memory]
            caches = [(k[going], v[going]) for k, v in caches]
            if not len(live):
                break
        rows = p["tok_emb"][nxt[going]][:, None]
    return captions
