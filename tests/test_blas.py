"""The one-thread policy: the CLI starts OpenBLAS on one thread over any
count the caller set, the encoders and the trunk run on that thread through
train and eval, and their output does not depend on OPENBLAS_NUM_THREADS."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import memefuse
from memefuse.fixtures import write_annotation_fixture
import openblas

# 120 rows with the Memotion fixture's class ratios
TALLIES = {
    "humour": (("funny", 71), ("not_funny", 11), ("very_funny", 38)),
    "sarcasm": (("sarcastic", 92), ("not_sarcastic", 28)),
    "motivational": (("motivational", 42), ("not_motivational", 78)),
    "overall_sentiment": (("positive", 33), ("negative", 87), ("neutral", 0)),
}

SRC = str(Path(memefuse.__file__).resolve().parents[1])
TESTS = str(Path(__file__).resolve().parent)


def _pythonpath(env):
    """``env`` with src/ and tests/ (for ``openblas``) leading its PYTHONPATH."""
    return dict(env, PYTHONPATH=os.pathsep.join(filter(None, [SRC, TESTS,
                                                              env.get("PYTHONPATH")])))


def test_training_bytes_do_not_depend_on_openblas_threads(tmp_path):
    data = tmp_path / "memes.csv"
    write_annotation_fixture(data, TALLIES)
    outputs = {}
    for threads in ("1", "2"):
        env = _pythonpath(dict(os.environ, OPENBLAS_NUM_THREADS=threads))
        ckpt = tmp_path / threads / "imgtxt.ckpt"
        runs = [subprocess.run(
            [sys.executable, "-m", "memefuse.cli", *argv, "--dataset", str(data),
             "--checkpoint", str(ckpt)],
            env=env, capture_output=True, timeout=300)
            for argv in (["train", "--variant", "imgtxt", "--epochs", "2"], ["eval", "--json"])]
        for run in runs:
            assert run.returncode == 0, run.stderr.decode()
        outputs[threads] = (ckpt.read_bytes(), ckpt.with_suffix(".history.jsonl").read_bytes(),
                            runs[1].stdout)
    assert outputs["1"] == outputs["2"]


# prints the OpenBLAS thread count, then OPENBLAS_NUM_THREADS as os.environ holds it
REPORT = "import os; from openblas import threads; " \
         "print(threads(), os.environ.get('OPENBLAS_NUM_THREADS'))"


def _fresh_output(code, **env_vars):
    """What ``code`` prints in a new interpreter whose environment sets
    OPENBLAS_NUM_THREADS only as ``env_vars`` say."""
    if openblas.threads() is None:
        pytest.skip("numpy bundles no OpenBLAS whose thread count can be read")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    run = subprocess.run([sys.executable, "-c", code], env=_pythonpath(dict(env, **env_vars)),
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return run.stdout


def _fresh(code, **env_vars):
    return _fresh_output(code, **env_vars).split()


def test_cli_starts_openblas_on_one_thread():
    assert _fresh("import memefuse.cli; " + REPORT) == ["1", "1"]


def test_cli_start_keeps_a_thread_count_the_caller_set():
    # a count the caller set is not kept: the CLI sets one thread over it
    assert _fresh("import memefuse.cli; " + REPORT, OPENBLAS_NUM_THREADS="2") == ["1", "1"]


def test_cli_imported_after_numpy_leaves_the_pool_and_environment():
    alone = _fresh("import numpy; " + REPORT)
    assert alone[1] == "None"
    assert _fresh("import numpy; import memefuse.cli; " + REPORT) == alone


# runs each of COMMANDS through cli.main with their output captured, then
# prints, per command, the OpenBLAS counts seen inside ENCODER and the trunk
COUNTS_SEEN = """
import contextlib, io, json
import memefuse.cli as cli
from memefuse import model, pipeline
from openblas import threads

seen = {}

def recording(name, real):
    def call(*args, **kwargs):
        seen.setdefault(name, set()).add(threads())
        return real(*args, **kwargs)
    return call

setattr(pipeline, ENCODER, recording("encoder", getattr(pipeline, ENCODER)))
model.bilstm_forward = recording("trunk", model.bilstm_forward)
counts = {}
for argv in COMMANDS:
    seen.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    counts[argv[0]] = {name: sorted(c) for name, c in seen.items()}
print(json.dumps(counts))
"""


@pytest.mark.parametrize("kind, encoder", [("imgtxt", "encode_image"),
                                           ("capsen", "generate_captions")])
def test_train_and_eval_compute_on_one_thread_under_a_pool_the_caller_asks_for(tmp_path,
                                                                               kind, encoder):
    data = tmp_path / "memes.csv"
    write_annotation_fixture(data, TALLIES)
    files = ["--dataset", str(data), "--checkpoint", str(tmp_path / f"{kind}.ckpt")]
    commands = [["train", "--variant", kind, "--epochs", "1", *files], ["eval", "--json", *files]]
    code = f"ENCODER = {encoder!r}\nCOMMANDS = {commands!r}\n" + COUNTS_SEEN
    counts = json.loads(_fresh_output(code, OPENBLAS_NUM_THREADS="2"))
    one = {"encoder": [1], "trunk": [1]}
    assert counts == {"train": one, "eval": one}
