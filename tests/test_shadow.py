"""The float32 training step and prediction against their float64 shadow.

The trunk and the heads keep float64 inputs in float64, so the same
weights cast to float64 give a reference run of the same code.  Unlike the
golden digests, which pin the bytes of one OpenBLAS kernel family, the
bounds here hold on every kernel: each is 10x the largest figure measured
for it on the SkylakeX kernel and under OPENBLAS_CORETYPE=Haswell,
Sandybridge and Prescott (2 vCPU x86_64, numpy 2.4.6, scipy-openblas
0.3.31).
"""

import numpy as np
import pytest

from memefuse import TASKS, bundled_data, model
from memefuse.lstm import Workspace
from memefuse.model import HEAD_ARITY, ModelVariant
from memefuse.pipeline import build_feature_space, encoded_blocks
from memefuse.textprep import load_vocabulary

# measured: loss 7.9e-9 .. 1.7e-8, gradients 1.6e-6 .. 2.2e-6 (a head
# bias), probabilities 1.8e-7 .. 1.9e-7
LOSS_BOUND = 1.8e-7
GRAD_BOUND = 2.3e-5
PROBA_BOUND = 1.9e-6

ROWS = 200
VARIANT = ModelVariant("imgtxt")


@pytest.fixture(scope="module")
def step():
    """imgtxt features of ROWS records of vocabulary words, seeded labels,
    fresh classifier weights, and the float64 casts of the three."""
    rng = np.random.default_rng(0)
    vocab = sorted(load_vocabulary(bundled_data("vocabulary.txt")))
    ids = [f"r{i}" for i in range(ROWS)]
    tokens = {rid: [vocab[j] for j in rng.integers(0, len(vocab), size=rng.integers(3, 12))]
              for rid in ids}
    _, blocks = encoded_blocks(ids, tokens, build_feature_space("imgtxt", 0), "imgtxt")
    x = np.concatenate(list(blocks))
    assert x.dtype == np.float32
    params = model.init_classifier_params(VARIANT, x.shape[-1], np.random.default_rng(1))
    labels = {task: rng.integers(0, HEAD_ARITY[task], size=ROWS).astype(np.int64)
              for task in TASKS}
    shadow = {k: v.astype(np.float64) for k, v in params.items()}
    return x, params, labels, x.astype(np.float64), shadow


def _largest_error(got: np.ndarray, want: np.ndarray) -> float:
    """The largest error relative to the reference tensor's largest entry."""
    return float(np.abs(got - want).max() / np.abs(want).max())


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
