"""Gate suite: one test per acceptance criterion, one pass/fail line each.

Each test is self-contained and pins its own tolerance and, where the
contract names one, its runtime budget.  Oracles are independent of the
implementation under test: brute-force tallies for the metrics, python
sorting for neighbor lists, pivot-coordinate recovery for interpolation
factors, central finite differences for every gradient.
"""

import time

import numpy as np

from memefuse import TASKS, cli
from memefuse import encode, lstm, model, nnops
from memefuse.balance import smote_oversample
from memefuse.evalmetrics import accuracy, confusion, macro_f1
from memefuse.fixtures import write_annotation_fixture
from memefuse.model import ModelVariant, TrainConfig, TrainSet
from memefuse.pipeline import assemble_variant_input
from memefuse.textprep import PreprocessConfig, preprocess

from fdcheck import check_grads
from smote_oracle import verify_oversampled
from test_textprep import GOLDEN, LEXICON, VOCAB

FULL_SUMMARY = """\
records: 6992
humor: funny 4160, not_funny 631, very_funny 2201
sarcasm: sarcastic 5341, not_sarcastic 1651
motivation: motivational 2467, not_motivational 4525
sentiment: positive 1941, negative 5051, neutral 0
"""


def test_full_corpus_summary_is_byte_exact(tmp_path, capsys):
    """Ingest of the full-scale fixture prints the frozen tallies in < 5 s."""
    path = tmp_path / "memotion.csv"
    assert write_annotation_fixture(path) == 6992
    start = time.monotonic()
    rc = cli.main(["ingest", "--dataset", str(path)])
    elapsed = time.monotonic() - start
    assert rc == 0
    assert capsys.readouterr().out == FULL_SUMMARY
    assert elapsed < 5.0, f"ingest took {elapsed:.2f}s"


def test_oversampling_full_scale_with_independent_oracle():
    """Majority balancing at corpus scale, every synthetic row re-verified.

    Class counts 5341/1651 at d=64; the deficit class must gain exactly
    3690 rows, each lying on a member-to-neighbor segment with the
    interpolation factor recoverable to 1e-9.  Budget: 30 s.
    """
    rng = np.random.default_rng(20240817)
    feats = rng.normal(size=(6992, 64))  # float64: the 1e-9 recovery needs it
    labels = np.array([0] * 5341 + [1] * 1651, dtype=np.int64)
    rows = np.empty((5341 - 1651, 64))
    before = (feats.copy(), labels.copy())
    start = time.monotonic()
    row_labels = smote_oversample(feats, labels, {1: 5341 - 1651}, k=5, seed=7, dest=rows)
    counts = np.bincount(np.concatenate([labels, row_labels]))
    assert counts.tolist() == [5341, 5341]
    verified = verify_oversampled(feats, labels, 5, (rows, row_labels), before, tol=1e-9)
    elapsed = time.monotonic() - start
    assert verified == 3690
    assert elapsed < 30.0, f"balance + verification took {elapsed:.2f}s"


def test_metrics_match_brute_force_oracles():
    """accuracy and macro-F1 vs plain-python tallies on 200 random matrices."""

    def oracle_acc(cm):
        good = sum(cm[i][i] for i in range(len(cm)))
        total = sum(sum(row) for row in cm)
        return good / total

    def oracle_f1(cm):
        k = len(cm)
        scores = []
        for c in range(k):
            tp = cm[c][c]
            fp = sum(cm[r][c] for r in range(k)) - tp
            fn = sum(cm[c]) - tp
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            scores.append(2 * p * r / (p + r) if p + r else 0.0)
        return sum(scores) / k

    rng = np.random.default_rng(99)
    for trial in range(200):
        k = int(rng.integers(2, 6))
        cm = rng.integers(0, 40, size=(k, k))
        if trial % 5 == 0:
            cm[:, rng.integers(0, k)] = 0  # force zero-denominator columns
        rows = cm.tolist()
        assert abs(accuracy(cm) - oracle_acc(rows)) < 1e-12
        assert abs(macro_f1(cm) - oracle_f1(rows)) < 1e-12

    perfect = np.diag([7, 11, 3])
    assert accuracy(perfect) == 1.0
    assert macro_f1(perfect) == 1.0
    all_wrong = np.array([[0, 5], [4, 0]])
    assert accuracy(all_wrong) == 0.0
    assert macro_f1(all_wrong) == 0.0


def test_gradient_checks_across_the_stack():
    """Central differences (step 1e-5, float64, rel err < 1e-4) in < 60 s."""
    start = time.monotonic()
    rng = np.random.default_rng(4242)

    q = rng.normal(size=(4, 6))
    k = rng.normal(size=(3, 6))
    v = rng.normal(size=(3, 5))
    d_attn = rng.normal(size=(4, 5))

    def attention_loss():
        out, cache = nnops.attention_forward(q, k, v)
        dq, dk, dv = nnops.attention_backward(d_attn, cache)
        return float(np.sum(out * d_attn)), {"q": dq, "k": dk, "v": dv}

    check_grads(attention_loss, {"q": q, "k": k, "v": v})

    block_p = encode.init_block_params(8, 2, rng, dtype=np.float64)
    xb = rng.normal(size=(4, 8))
    db = rng.normal(size=(4, 8))

    def block_loss():
        y, cache = encode.transformer_block_forward(xb, block_p, 2)
        dx, dp = encode.transformer_block_backward(db, cache)
        return float(np.sum(y * db)), {"x": dx, **dp}

    check_grads(block_loss, {"x": xb, **block_p})

    cell_p = lstm.init_lstm_params(4, 3, rng, dtype=np.float64)
    xc = rng.normal(size=(2, 4))
    h0 = rng.normal(size=(2, 3))
    c0 = rng.normal(size=(2, 3))
    dh = rng.normal(size=(2, 3))
    dc = rng.normal(size=(2, 3))

    def cell_loss():
        h, c, cache = lstm.lstm_cell_forward(xc, h0, c0, cell_p)
        dx, dh0, dc0, dp = lstm.lstm_cell_backward(dh, dc, cache)
        return (float(np.sum(h * dh) + np.sum(c * dc)),
                {"x": dx, "h0": dh0, "c0": dc0, **dp})

    check_grads(cell_loss, {"x": xc, "h0": h0, "c0": c0, **cell_p})

    bi_p = lstm.init_bilstm_params(3, 2, rng, dtype=np.float64)
    xs = rng.normal(size=(2, 4, 3))
    ds = rng.normal(size=(2, 4, 4))

    def bilstm_loss():
        out, cache = lstm.bilstm_forward(xs, bi_p, lstm.Workspace(), cache=True)
        dx, dp = lstm.bilstm_backward(ds, cache, lstm.Workspace(), need_dx=True)
        return float(np.sum(out * ds)), {"x": dx, **dp}

    check_grads(bilstm_loss, {"x": xs, **bi_p})

    variant = ModelVariant("imgtxt", bilstm_layers=2, hidden=3, head_hidden=3)
    full_p = model.init_classifier_params(variant, 4, rng, dtype=np.float64)
    xf = rng.normal(size=(3, 4, 4))
    labels = {
        "humor": np.array([0, 1, 0], dtype=np.int64),
        "sarcasm": np.array([1, -1, 0], dtype=np.int64),
        "motivation": np.array([0, 0, 1], dtype=np.int64),
        "sentiment": np.array([2, 1, 0], dtype=np.int64),
    }

    def full_loss():
        total, grads, _ = model.loss_and_grads(xf, labels, variant, full_p, lstm.Workspace())
        return total, grads

    check_grads(full_loss, full_p)

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"gradient checks took {elapsed:.2f}s"


def test_shapes_and_normalization():
    """Patch geometry, fused row counts, probability normalization, arities."""
    rng = np.random.default_rng(5)

    image = rng.uniform(size=(224, 224, 3))
    assert encode.patchify(image, 16).shape == (196, 768)

    img_seq = rng.normal(size=(196, 64))
    tok_seq = rng.normal(size=(16, 64))
    sent = rng.normal(size=(64,))
    wide_sent = rng.normal(size=(768,))
    fused = assemble_variant_input(img_seq, tok_seq)
    assert fused.shape[0] == 196 + 16
    fused = assemble_variant_input(img_seq, sent[None])
    assert fused.shape[0] == 196 + 1
    fused = assemble_variant_input(wide_sent[None], wide_sent[None])
    assert fused.shape[0] == 2

    probs = nnops.softmax(rng.normal(size=(50, 7)))
    np.testing.assert_allclose(probs.sum(axis=-1), np.ones(50), atol=1e-6)

    assert tuple(model.HEAD_ARITY[t] for t in TASKS) == (2, 2, 2, 3)

    variant = ModelVariant("imgtxt", hidden=4, head_hidden=4)
    params = model.init_classifier_params(variant, 6, rng)
    feats = rng.normal(size=(9, 5, 6)).astype(np.float32)
    head_probs = model.predict_proba(variant, feats, params)
    for task in TASKS:
        assert head_probs[task].shape == (9, model.HEAD_ARITY[task])
        np.testing.assert_allclose(head_probs[task].sum(axis=1),
                                   np.ones(9), atol=1e-6)


def _separable_set(n, length, width, seed):
    """Labels encoded as +2.0 bumps in disjoint column blocks, one per task."""
    rng = np.random.default_rng(seed)
    feats = rng.normal(scale=0.1, size=(n, length, width)).astype(np.float32)
    labels = {
        "humor": np.arange(n) % 2,
        "sarcasm": (np.arange(n) // 2) % 2,
        "motivation": (np.arange(n) // 4) % 2,
        "sentiment": (np.arange(n) // 8) % 3,
    }
    block = width // 4
    for t, task in enumerate(TASKS):
        for i in range(n):
            feats[i, :, t * block + labels[task][i]] += 2.0
    return TrainSet(feats, {k: v.astype(np.int64) for k, v in labels.items()})


def test_overfit_sanity_all_variants():
    """Each variant, its own geometry: >= 95% on 64 separable samples,
    <= 300 epochs, bit-identical rerun, < 2 min per variant."""
    geometries = {"imgtxt": (8, 16), "imgsen": (5, 16), "capsen": (2, 32)}
    for kind, (length, width) in geometries.items():
        start = time.monotonic()
        variant = ModelVariant(kind=kind)
        data = _separable_set(64, length, width, seed=5)
        config = TrainConfig.for_variant(kind, epochs=300, seed=0)
        params, history = model.train(variant, data, config)
        rerun_params, rerun_history = model.train(variant, data, config)
        assert history == rerun_history, f"{kind}: rerun history diverged"
        for name in params:
            np.testing.assert_array_equal(params[name], rerun_params[name],
                                          err_msg=f"{kind}: {name} diverged")
        probs = model.predict_proba(variant, data.features, params)
        for task in TASKS:
            hit = np.argmax(probs[task], axis=1) == data.labels[task]
            acc = float(np.mean(hit))
            assert acc >= 0.95, f"{kind}/{task}: train accuracy {acc:.3f}"
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"{kind} took {elapsed:.2f}s"


def test_preprocessing_golden_corpus():
    """The 20 frozen raw strings map to their hand-derived token lists."""
    config = PreprocessConfig(emoji_lexicon=dict(LEXICON), vocabulary=set(VOCAB))
    assert len(GOLDEN) == 20
    for raw, expected in GOLDEN:
        assert preprocess(raw, config).tokens == expected


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    """save -> load -> forward reproduces predictions bit for bit."""
    variant = ModelVariant("imgsen", hidden=6, head_hidden=5)
    rng = np.random.default_rng(31)
    params = model.init_classifier_params(variant, 8, rng)
    feats = rng.normal(size=(11, 5, 8)).astype(np.float32)
    before = model.predict_proba(variant, feats, params)

    path = tmp_path / "variant.ckpt"
    model.save_checkpoint(path, variant, params, seed=3, epoch=45)
    loaded_variant, loaded_params, meta = model.load_checkpoint(path)
    assert loaded_variant == variant
    assert meta == {"seed": 3, "epoch": 45}
    after = model.predict_proba(loaded_variant, feats, loaded_params)
    for task in TASKS:
        np.testing.assert_array_equal(before[task], after[task])
