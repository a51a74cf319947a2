"""Start-up: the cheap commands load no numpy, the computing ones load it late.

``ingest``, ``preprocess`` and ``--help`` import only ``memefuse``,
``dataset``, ``textprep`` and ``porter``; ``train`` and ``eval`` import
the numpy stack on first use.  A caller may read or replace one of the
deferred names of ``memefuse.cli`` before that (a test's monkeypatch,
perfbench's tracer), and ``main`` then calls the name the caller set.
Each case runs in a new interpreter, so no other test's imports count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import memefuse
from memefuse.fixtures import write_annotation_fixture

SRC = str(Path(memefuse.__file__).resolve().parents[1])

TALLIES = {
    "humour": (("funny", 8), ("not_funny", 4), ("very_funny", 4)),
    "sarcasm": (("sarcastic", 10), ("not_sarcastic", 6)),
    "motivational": (("motivational", 7), ("not_motivational", 9)),
    "overall_sentiment": (("positive", 6), ("negative", 6), ("neutral", 4)),
}

# the memefuse.cli names perfbench/tracer.py wraps before it calls main; it
# also lists encode_corpus, which cli no longer has, and skips a missing name
TRACED = ("load_dataset", "preprocess", "build_training_set", "train", "predict_proba",
          "save_checkpoint", "load_checkpoint", "build_report")
# the memefuse.cli names tests/test_cli.py patches
PATCHED = ("_corpus_blocks", "build_training_set", "train", "load_checkpoint",
           "predict_blocks")

LIGHT_MODULES = ["memefuse", "memefuse.cli", "memefuse.dataset", "memefuse.porter",
                 "memefuse.textprep"]

# runs cli.main(ARGV) with its output captured, then prints one JSON line
RUN_MAIN = """
import contextlib, io, json, sys
from memefuse import cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    try:
        rc = cli.main(ARGV)
    except SystemExit as exc:
        rc = exc.code
print(json.dumps({"rc": rc, "stderr": err.getvalue(),
                  "modules": sorted(m for m in sys.modules
                                    if m == "numpy" or m.startswith("memefuse"))}))
"""


def _fresh(code, cwd):
    """The JSON line ``code`` prints last in a new interpreter."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("startup")
    write_annotation_fixture(root / "memes.csv", TALLIES)
    (root / "broken.csv").write_text("image_name,text\nmeme_0.jpg,hello\n", encoding="utf-8")
    return root


@pytest.mark.parametrize("argv, rc", [
    (["ingest", "--dataset", "memes.csv", "--json"], 0),
    (["preprocess", "--dataset", "memes.csv", "--out", "tokens.jsonl"], 0),
    (["ingest", "--dataset", "broken.csv"], 2),
    (["--help"], 0),
    (["train", "--help"], 0),
], ids=["ingest-json", "preprocess", "ingest-malformed", "help", "train-help"])
def test_cheap_commands_load_no_numpy(data_dir, argv, rc):
    got = _fresh(RUN_MAIN.replace("ARGV", repr(argv)), data_dir)
    assert got["rc"] == rc, got["stderr"]
    assert got["modules"] == LIGHT_MODULES
    if rc == 2:
        assert got["stderr"].startswith("error: ")


def test_deferred_names_resolve_before_main(tmp_path):
    names = sorted(set(TRACED + PATCHED))
    got = _fresh(f"""
import json, sys
from memefuse import cli
before = "numpy" in sys.modules
found = {{name: callable(getattr(cli, name, None)) for name in {names!r}}}
print(json.dumps({{"before": before, "found": found,
                  "unknown": hasattr(cli, "no_such_name")}}))
""", tmp_path)
    assert not got["before"]
    assert got["found"] == {name: True for name in names}
    assert not got["unknown"]


@pytest.mark.parametrize("first", ["", "cli.train", "cli.encoded_blocks"],
                         ids=["nothing-read", "same-name-read", "stack-loaded"])
def test_a_name_patched_before_main_is_the_one_main_calls(data_dir, tmp_path, first):
    # train is replaced before anything was read, after the same name was read
    # (monkeypatch's order), or after another name loaded the whole stack
    got = _fresh(f"""
import contextlib, io, json
from memefuse import NumericError, cli
calls = []
def explode(*args):
    calls.append(len(args))
    raise NumericError("patched train")
{first}
cli.train = explode
err = io.StringIO()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
    rc = cli.main(["train", "--dataset", "memes.csv", "--variant", "imgsen",
                   "--epochs", "1", "--checkpoint", {str(tmp_path / "x.ckpt")!r}])
print(json.dumps({{"rc": rc, "calls": calls, "stderr": err.getvalue(),
                  "bound": cli.train is explode}}))
""", data_dir)
    assert got["rc"] == 3, got["stderr"]
    assert got["calls"] == [3]
    assert got["stderr"] == "error: patched train\n"
    assert got["bound"]
