"""The float32 features, captions, training step and prediction against
their float64 shadow.

The encoders, the trunk and the heads keep float64 inputs in float64, so
the same weights cast to float64 give a reference run of the same code.
Unlike the golden digests, which pin the bytes of one OpenBLAS kernel
family, the bounds here hold on every kernel: each is 10x the largest
figure measured for it on the SkylakeX kernel and under
OPENBLAS_CORETYPE=Haswell, and for the training step and prediction also
Sandybridge and Prescott (2 vCPU x86_64, numpy 2.4.6, scipy-openblas
0.3.31).
"""

import dataclasses

import numpy as np
import pytest

from memefuse import TASKS, bundled_data, model
from memefuse.encode import generate_captions
from memefuse.lstm import Workspace
from memefuse.model import HEAD_ARITY, ModelVariant
from memefuse.pipeline import FeatureSpace, build_feature_space, encoded_blocks, toy_image
from memefuse.textprep import load_vocabulary
from fdcheck import as_float64

# measured: loss 7.9e-9 .. 1.7e-8, gradients 1.6e-6 .. 2.2e-6 (a head
# bias), probabilities 1.8e-7 .. 1.9e-7
LOSS_BOUND = 1.8e-7
GRAD_BOUND = 2.3e-5
PROBA_BOUND = 1.9e-6
# measured, SkylakeX and Haswell: imgtxt 7.7e-7 and 5.3e-7, imgsen 7.5e-7
# and 3.9e-7, capsen 3.4e-7 under both
FEATURE_BOUNDS = {"imgtxt": 7.7e-6, "imgsen": 7.5e-6, "capsen": 3.4e-6}

ROWS = 200
CAPTIONED_IMAGES = 512
VARIANT = ModelVariant("imgtxt")


@pytest.fixture(scope="module")
def corpus():
    """ROWS record ids, their texts of seeded vocabulary words, and seeded labels."""
    rng = np.random.default_rng(0)
    vocab = sorted(load_vocabulary(bundled_data("vocabulary.txt")))
    ids = [f"r{i}" for i in range(ROWS)]
    tokens = {rid: [vocab[j] for j in rng.integers(0, len(vocab), size=rng.integers(3, 12))]
              for rid in ids}
    labels = {task: rng.integers(0, HEAD_ARITY[task], size=ROWS).astype(np.int64)
              for task in TASKS}
    return ids, tokens, labels


def _features(corpus, space: FeatureSpace, kind: str) -> np.ndarray:
    ids, tokens, _ = corpus
    return np.concatenate(list(encoded_blocks(ids, tokens, space, kind)[1]))


@pytest.fixture(scope="module")
def step(corpus):
    """imgtxt features of the corpus, its labels, fresh classifier weights,
    and the float64 casts of the features and the weights."""
    x = _features(corpus, build_feature_space("imgtxt", 0), "imgtxt")
    assert x.dtype == np.float32
    params = model.init_classifier_params(VARIANT, x.shape[-1], np.random.default_rng(1))
    return x, params, corpus[2], x.astype(np.float64), as_float64(params)


def _largest_error(got: np.ndarray, want: np.ndarray) -> float:
    """The largest error relative to the reference tensor's largest entry."""
    return float(np.abs(got - want).max() / np.abs(want).max())


def _float64_space(space: FeatureSpace) -> FeatureSpace:
    """The feature space with every weight dict and the projection cast to float64."""
    values = {field.name: getattr(space, field.name) for field in dataclasses.fields(space)}
    return dataclasses.replace(space, **{
        name: as_float64(value) if isinstance(value, dict) else value.astype(np.float64)
        for name, value in values.items() if value is not None})


@pytest.mark.parametrize("kind", sorted(FEATURE_BOUNDS))
def test_features_track_their_float64_shadow(corpus, kind):
    space = build_feature_space(kind, 0)
    got = _features(corpus, space, kind)
    # the fused blocks are float32 either way: the shadow's are its float64
    # encoders' outputs rounded once
    want = _features(corpus, _float64_space(space), kind).astype(np.float64)
    assert got.shape == want.shape == (ROWS, *got.shape[1:])
    assert _largest_error(got, want) < FEATURE_BOUNDS[kind]


def test_captions_match_their_float64_shadow():
    params = build_feature_space("capsen", 0).caption_params
    images = np.stack([toy_image(f"r{i}") for i in range(CAPTIONED_IMAGES)])
    captions = generate_captions(images, params)
    assert len({tuple(caption) for caption in captions}) > 1
    assert captions == generate_captions(images, as_float64(params))


def test_training_step_tracks_its_float64_shadow(step):
    x, params, labels, x64, shadow = step
    loss, grads, _ = model.loss_and_grads(x, labels, VARIANT, params, Workspace())
    want_loss, want_grads, _ = model.loss_and_grads(x64, labels, VARIANT, shadow, Workspace())
    assert abs(loss - want_loss) / abs(want_loss) < LOSS_BOUND
    assert sorted(grads) == sorted(want_grads) == sorted(params)
    for name, want in want_grads.items():
        assert grads[name].dtype == np.float32 and want.dtype == np.float64, name
        assert _largest_error(grads[name], want) < GRAD_BOUND, name


def test_predict_proba_tracks_its_float64_shadow(step):
    x, params, _, x64, shadow = step
    probs = model.predict_proba(VARIANT, x, params)
    want = model.predict_proba(VARIANT, x64, shadow)
    for task in TASKS:
        assert probs[task].dtype == np.float32 and want[task].dtype == np.float64, task
        assert _largest_error(probs[task], want[task]) < PROBA_BOUND, task
