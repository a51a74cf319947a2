"""Fast checks of the benchmark's own code: output checks, inputs, tracer.

No CLI process is started here; every case runs in milliseconds, so the
root test suite may collect this file.
"""

import json
import math
import sys
import types

import numpy as np
import pytest

import checks
import inputs
import tracer
from memefuse import TASKS, bundled_data
from memefuse.fixtures import FULL_TALLIES
from memefuse.model import ModelVariant, init_classifier_params, save_checkpoint
from memefuse.textprep import PreprocessConfig, load_lexicon, load_vocabulary, preprocess

REFERENCE = 2.5


def _train_outputs(tmp_path, losses=(3.0, REFERENCE), rows=30, synthetic=10, rc=0):
    ckpt = tmp_path / "imgtxt.ckpt"
    variant = ModelVariant("imgtxt")
    save_checkpoint(ckpt, variant,
                    init_classifier_params(variant, 64, np.random.default_rng(0)), 0, 2)
    history = tmp_path / "imgtxt.history.jsonl"
    history.write_text("".join(json.dumps({"epoch": i + 1, "loss": x}) + "\n"
                               for i, x in enumerate(losses)))
    stdout = (f"trained imgtxt: 2 epochs, {rows} rows ({synthetic} synthetic)\n"
              f"checkpoint: {ckpt}\nhistory: {history}\n")
    inv = checks.Invocation(argv=[], returncode=rc, stdout=stdout,
                            stderr="error: boom\n" if rc else "", wall_s=1.0, cpu_s=1.0,
                            maxrss_mb=50.0)
    expect = checks.TrainExpectation(variant="imgtxt", epochs=2, train_rows=20,
                                     synthetic_rows=10, reference_loss=REFERENCE,
                                     checkpoint=ckpt)
    return inv, expect


@pytest.mark.parametrize("broken", [
    {"rc": 3},
    {"rows": 31},
    {"rows": 31, "synthetic": 11},
    {"losses": (3.0, math.nan)},
    {"losses": (3.0,)},
    {"losses": (3.0, REFERENCE * (1 + 5 * checks.LOSS_RTOL))},
])
def test_train_failures_count_in_fail_share(tmp_path, broken):
    tally = checks.Tally()
    good_dir, bad_dir = tmp_path / "good", tmp_path / "bad"
    good_dir.mkdir()
    bad_dir.mkdir()
    tally.record(checks.check_train(*_train_outputs(good_dir)))
    assert tally.failed == 0
    tally.record(checks.check_train(*_train_outputs(bad_dir, **broken)))
    assert (tally.attempted, tally.failed, tally.fail_share) == (2, 1, 0.5)


def test_loss_within_tolerance_passes(tmp_path):
    near = REFERENCE * (1 + 0.5 * checks.LOSS_RTOL)
    assert checks.check_train(*_train_outputs(tmp_path, losses=(3.0, near))) == []


def test_corrupt_checkpoint_fails(tmp_path):
    inv, expect = _train_outputs(tmp_path)
    with open(expect.checkpoint, "ab") as fh:
        fh.write(b"\0\0")
    assert checks.check_train(inv, expect)


def _eval_inv(report, rc=0):
    return checks.Invocation(argv=[], returncode=rc, stdout=json.dumps(report), stderr="",
                             wall_s=1.0, cpu_s=1.0, maxrss_mb=50.0)


def _report():
    cell = {"accuracy": 61.5, "macro_f1": 40.25}
    return {"variants": {"capsen": {task: dict(cell) for task in TASKS}},
            "averages": {"capsen": dict(cell)}}


def test_eval_report_passes_and_failures_count():
    tally = checks.Tally()
    tally.record(checks.check_eval(_eval_inv(_report()), "capsen"))
    over = _report()
    over["variants"]["capsen"]["humor"]["accuracy"] = 140.0
    missing = _report()
    del missing["averages"]
    extra = _report()
    extra["variants"]["capsen"]["humor"]["recall"] = 1.0
    partial = _report()
    del partial["variants"]["capsen"]["sentiment"]
    for bad in (over, missing, extra):
        assert checks.check_eval(_eval_inv(bad), "capsen")[0].startswith("report fails the schema")
    for inv in (_eval_inv(over), _eval_inv(missing), _eval_inv(extra), _eval_inv(partial),
                _eval_inv(_report(), rc=2)):
        tally.record(checks.check_eval(inv, "capsen"))
    assert (tally.attempted, tally.failed) == (6, 5)
    assert checks.check_eval(_eval_inv(_report()), "imgtxt")


def test_synthetic_rows_raise_present_classes_to_majority():
    rows = [{"humor": "funny", "sarcasm": "sarcastic", "motivation": "motivational",
             "sentiment": "positive"}] * 5
    rows += [{"humor": "not_funny", "sarcasm": "sarcastic", "motivation": "motivational",
              "sentiment": "negative"}] * 2
    rows += [{"humor": "not_funny", "sarcasm": "sarcastic", "motivation": "not_motivational",
              "sentiment": "neutral"}]
    # humor 5/3, sarcasm 8, motivation 7/1, sentiment 5/2/1
    assert checks.synthetic_rows(rows) == {"humor": 2, "sarcasm": 0, "motivation": 6,
                                           "sentiment": 7}


@pytest.mark.parametrize("rows", [1, 7, 350, 874, 6992])
def test_scaled_tallies_keep_totals_and_ratios(rows):
    tallies = inputs.scaled_tallies(rows)
    for column, levels in tallies.items():
        full = dict(FULL_TALLIES[column])
        assert sum(c for _, c in levels) == rows
        for level, count in levels:
            assert abs(count - full[level] * rows / 6992) < 1.0
    assert inputs.scaled_tallies(6992) == {k: tuple(v) for k, v in FULL_TALLIES.items()}


def test_workload_files_are_seeded_and_texts_shared_or_distinct(tmp_path):
    config = PreprocessConfig(emoji_lexicon=load_lexicon(bundled_data("emoji_lexicon.tsv")),
                              vocabulary=load_vocabulary(bundled_data("vocabulary.txt")))

    def distinct(path):
        lines = path.read_text().splitlines()[1:]
        texts = [line.split(",")[1] for line in lines]
        return len({tuple(preprocess(t, config).tokens) for t in texts})

    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    inputs.write_workload_file(a, 60, "distinct", seed=4)
    inputs.write_workload_file(b, 60, "distinct", seed=4)
    inputs.write_workload_file(c, 60, "shared", seed=5)
    assert a.read_bytes() == b.read_bytes()
    assert distinct(a) >= 58
    assert distinct(c) == 1


def test_tracer_reports_absent_targets_and_self_time(monkeypatch, tmp_path):
    fake = types.ModuleType("perfbench_fake")

    def outer(x):
        return inner(x) + 1

    def inner(x):
        return x * 2

    fake.outer, fake.inner = outer, inner
    monkeypatch.setitem(sys.modules, "perfbench_fake", fake)
    t = tracer.Tracer()
    t.install((("perfbench_fake", "outer", "fake.outer", None),
               ("perfbench_fake", "gone", "fake.gone", None),
               ("perfbench_no_such_module", "f", "fake.f", None)))
    assert t.absent == ["perfbench_fake.gone", "perfbench_no_such_module.f"]
    assert fake.outer(3) == 7
    spans = tmp_path / "spans.jsonl"
    t.write(spans, run_id=0)
    runs = tracer.read_runs(spans)
    calls, inclusive, own, top = tracer.span_totals(runs[0]["spans"])
    assert calls["fake.outer"] == 1 and top == inclusive["fake.outer"]


def test_self_time_subtracts_children():
    spans = [{"run": 0, "id": 0, "name": "a", "start": 0.0, "end": 10.0, "parent": None},
             {"run": 0, "id": 1, "name": "b", "start": 1.0, "end": 4.0, "parent": 0},
             {"run": 0, "id": 2, "name": "b", "start": 5.0, "end": 6.0, "parent": 0},
             {"run": 1, "id": 0, "name": "b", "start": 0.0, "end": 2.0, "parent": None}]
    calls, inclusive, own, top = tracer.span_totals(spans)
    assert calls == {"a": 1, "b": 3}
    assert inclusive == {"a": 10.0, "b": 6.0}
    assert own == {"a": 6.0, "b": 6.0}
    assert top == 12.0
