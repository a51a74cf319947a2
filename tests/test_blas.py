"""The one-thread BLAS scope: its thread count, its no-op fallback, the
scopes of the training set (encoding or imported fusion, and balancing)
and of the prediction stream, the CLI's one-thread start, and training
output that does not depend on OPENBLAS_NUM_THREADS."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import memefuse
from memefuse import TASKS, blas, encode, model, pipeline
from memefuse.fixtures import write_annotation_fixture
from memefuse.model import ModelVariant, TrainConfig, TrainSet

# 120 rows with the Memotion fixture's class ratios
TALLIES = {
    "humour": (("funny", 71), ("not_funny", 11), ("very_funny", 38)),
    "sarcasm": (("sarcastic", 92), ("not_sarcastic", 28)),
    "motivational": (("motivational", 42), ("not_motivational", 78)),
    "overall_sentiment": (("positive", 33), ("negative", 87), ("neutral", 0)),
}


@pytest.fixture
def controls():
    """numpy's OpenBLAS (get, set); the count it had is restored afterwards."""
    found = blas._thread_controls()
    if found is None:
        pytest.skip("numpy bundles no OpenBLAS whose thread count can be set")
    get, put = found
    before = get()
    try:
        yield get, put
    finally:
        put(before)


def test_scope_runs_on_one_thread_and_restores_the_count(controls):
    get, put = controls
    put(2)
    outer = get()
    with blas.single_thread():
        assert get() == 1
    assert get() == outer
    with pytest.raises(RuntimeError, match="body"):
        with blas.single_thread():
            assert get() == 1
            raise RuntimeError("body")
    assert get() == outer


def test_training_set_draws_encoded_blocks_on_one_thread_and_restores_the_count(controls,
                                                                              monkeypatch):
    # the blocks' generator runs inside build_training_set's scope, so the
    # encoders it calls run on one thread too
    get, put = controls
    put(2)
    outer = get()
    seen = []
    decode = encode.generate_captions

    def recording(images, params):
        seen.append(get())
        return decode(images, params)

    monkeypatch.setattr(pipeline, "generate_captions", recording)
    space = pipeline.build_feature_space("capsen", 0)
    labels = {task: np.zeros(2, dtype=np.int64) for task in TASKS}
    ts = pipeline.build_training_set(
        *pipeline.encoded_blocks(["a", "b"], {"a": ["cat"]}, space, "capsen"), labels, k=1,
        seed=0)
    assert ts.features.shape == (2, 2, encode.SENTENCE_DIM)
    assert seen == [1]
    assert get() == outer


def test_build_training_set_runs_on_one_thread_and_restores_the_count(controls, monkeypatch):
    get, put = controls
    put(2)
    outer = get()
    seen = []
    oversample = pipeline.smote_oversample

    def recording(*args):
        seen.append(get())
        return oversample(*args)

    monkeypatch.setattr(pipeline, "smote_oversample", recording)
    # one task short of parity by two rows: one oversampled class
    labels = {task: np.zeros(6, dtype=np.int64) for task in TASKS}
    labels[TASKS[0]][4:] = 1
    features = np.random.default_rng(0).normal(size=(6, 2, 3)).astype(np.float32)
    ts = pipeline.build_training_set((2, 3), [features], labels, k=1, seed=0)
    assert ts.features.shape == (8, 2, 3)
    assert seen == [1]
    assert get() == outer


def test_training_set_draws_imported_blocks_on_one_thread_and_restores_the_count(controls,
                                                                               monkeypatch):
    get, put = controls
    put(2)
    outer = get()
    seen = []
    assemble = pipeline.assemble_variant_input

    def recording(*parts, **kwargs):
        seen.append(get())
        return assemble(*parts, **kwargs)

    monkeypatch.setattr(pipeline, "assemble_variant_input", recording)
    image = {rid: np.ones((3, 4), dtype=np.float32) for rid in "ab"}
    sentence = {rid: np.ones(6, dtype=np.float32) for rid in "ab"}
    labels = {task: np.zeros(2, dtype=np.int64) for task in TASKS}
    ts = pipeline.build_training_set(
        *pipeline.imported_blocks(["a", "b"], "imgsen", 0, image=image, text_sentence=sentence),
        labels, k=1, seed=0)
    assert ts.features.shape == (2, 4, 6)
    assert seen == [1]
    assert get() == outer


@pytest.mark.parametrize("kind, encoder", [("imgtxt", "encode_image"),
                                           ("capsen", "generate_captions")])
def test_prediction_stream_runs_on_one_thread_and_restores_the_count(controls, monkeypatch,
                                                                     kind, encoder):
    # the blocks' generator runs inside predict_blocks' scope: a scope
    # around encoded_blocks itself would close before any block is encoded
    get, put = controls
    put(2)
    outer = get()
    seen = {"encoder": [], "trunk": []}

    def recording(name, real):
        def call(*args, **kwargs):
            seen[name].append(get())
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(pipeline, encoder, recording("encoder", getattr(pipeline, encoder)))
    monkeypatch.setattr(model, "bilstm_forward", recording("trunk", model.bilstm_forward))
    monkeypatch.setattr(pipeline, "IMAGE_BLOCK", 2)
    ids = [f"m{i}" for i in range(5)]
    _, blocks = pipeline.encoded_blocks(ids, {rid: ["cat"] for rid in ids},
                                        pipeline.build_feature_space(kind, 0), kind)
    variant = ModelVariant(kind, hidden=4, head_hidden=4)
    params = model.init_classifier_params(variant, pipeline.FUSED_SHAPES[kind][1],
                                          np.random.default_rng(0))
    probs = model.predict_blocks(variant, blocks, params)
    assert len(probs[TASKS[0]]) == 5
    assert seen == {"encoder": [1, 1, 1], "trunk": [1, 1]}
    assert get() == outer


def _train_bytes():
    rng = np.random.default_rng(5)
    n = 24
    data = TrainSet(rng.normal(size=(n, 6, 8)).astype(np.float32),
                    {task: rng.integers(0, 2, size=n) for task in TASKS})
    params, history = model.train(ModelVariant("imgsen", hidden=8, head_hidden=8), data,
                                  TrainConfig(batch_size=10, epochs=2, seed=1))
    return [params[k].tobytes() for k in sorted(params)], history


def test_scope_without_openblas_is_a_no_op(controls, monkeypatch):
    get, put = controls
    put(1)
    expected = _train_bytes()
    monkeypatch.setattr(blas, "_thread_controls", lambda: None)
    put(2)
    outer = get()
    with blas.single_thread():
        assert get() == outer
    # the arithmetic of the pinned run, so only the scope differs
    put(1)
    assert _train_bytes() == expected


def test_training_bytes_do_not_depend_on_openblas_threads(tmp_path):
    data = tmp_path / "memes.csv"
    write_annotation_fixture(data, TALLIES)
    src = str(Path(memefuse.__file__).resolve().parents[1])
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        ckpt = tmp_path / threads / "imgtxt.ckpt"
        run = subprocess.run(
            [sys.executable, "-m", "memefuse.cli", "train", "--dataset", str(data),
             "--variant", "imgtxt", "--epochs", "2", "--checkpoint", str(ckpt)],
            env=env, capture_output=True, timeout=300)
        assert run.returncode == 0, run.stderr.decode()
        outputs[threads] = (ckpt.read_bytes(), ckpt.with_suffix(".history.jsonl").read_bytes())
    assert outputs["1"] == outputs["2"]


# prints the OpenBLAS thread count, then OPENBLAS_NUM_THREADS as os.environ holds it
REPORT = "import os; from memefuse import blas; print(blas._thread_controls()[0](), " \
         "os.environ.get('OPENBLAS_NUM_THREADS'))"


def _fresh(code, **env_vars):
    """What ``code`` prints in a new interpreter whose environment sets
    OPENBLAS_NUM_THREADS only as ``env_vars`` say."""
    if blas._thread_controls() is None:
        pytest.skip("numpy bundles no OpenBLAS whose thread count can be set")
    src = str(Path(memefuse.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(env_vars, PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    return run.stdout.split()


def test_cli_starts_openblas_on_one_thread():
    assert _fresh("import memefuse.cli; " + REPORT) == ["1", "1"]


def test_cli_start_keeps_a_thread_count_the_caller_set():
    assert _fresh("import memefuse.cli; " + REPORT, OPENBLAS_NUM_THREADS="2") == ["2", "2"]


def test_cli_imported_after_numpy_leaves_the_pool_and_environment():
    alone = _fresh("import numpy; " + REPORT)
    assert alone[1] == "None"
    assert _fresh("import numpy; import memefuse.cli; " + REPORT) == alone
