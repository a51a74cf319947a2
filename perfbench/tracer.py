"""Per-layer spans for the traced benchmark run, recorded from outside ``src``.

Run as a script, it installs wrappers at the names the program's callers
resolve (``memefuse.cli.build_training_set``, ``memefuse.lstm.sigmoid``,
...), calls ``memefuse.cli.main`` in-process with the remaining
arguments, and writes the spans as JSON lines when the command ends:

    python3 perfbench/tracer.py --spans OUT.jsonl --run-id 0 -- train ...

A target that no longer exists is listed as absent and skipped, and one
that is never called just records no spans, so refactors that delete or
stop calling a function never fail a traced run.  The gradient-checked
math stays untouched: spans wrap call sites only.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

from memefuse import TASKS


def _tokens(facts, args, kwargs, result):
    facts["encode_token_tuples"].add(tuple(args[0] if args else kwargs["tokens"]))


def _preprocess(facts, args, kwargs, result):
    facts["preprocess_token_tuples"].add(tuple(result.tokens))


def _caption(facts, args, kwargs, result):
    facts["captions"].add(tuple(result))


def _training_set(facts, args, kwargs, result):
    originals = args[0].shape[0]
    for task in TASKS:
        facts[f"synthetic_rows.{task}"] += int((result.labels[task][originals:] >= 0).sum())


def _smote(facts, args, kwargs, result):
    data, target = args[0], args[1]
    counts = data.class_counts()
    facts["minority_rows"] += sum(counts.get(cls, 0) for cls, want in target.items()
                                  if want > counts.get(cls, 0))


def _train(facts, args, kwargs, result):
    facts["train_rows"] += int(args[1].features.shape[0])
    facts["epochs"] += int(args[2].epochs)


# (module, attribute, span name, observer): the attribute is the name the
# caller resolves at call time, so wrapping it there sees every call.
TARGETS = (
    ("memefuse.cli", "load_dataset", "dataset.load", None),
    ("memefuse.cli", "preprocess", "textprep.preprocess", _preprocess),
    ("memefuse.cli", "encode_corpus", "pipeline.encode_corpus", None),
    ("memefuse.pipeline", "encode_image", "encode.image", None),
    ("memefuse.pipeline", "encode_tokens", "encode.tokens", _tokens),
    ("memefuse.encode", "encode_tokens", "encode.tokens", _tokens),
    ("memefuse.pipeline", "encode_sentence", "encode.sentence", None),
    ("memefuse.pipeline", "generate_caption", "encode.caption", _caption),
    ("memefuse.nnops", "mha_forward", "nnops.mha", None),
    ("memefuse.pipeline", "assemble_variant_input", "fusion.assemble", None),
    ("memefuse.cli", "build_training_set", "pipeline.build_training_set", _training_set),
    ("memefuse.pipeline", "smote_oversample", "balance.smote", _smote),
    ("memefuse.balance", "knn_indices", "balance.knn", None),
    ("memefuse.cli", "train", "model.train", _train),
    ("memefuse.model", "loss_and_grads", "model.loss_and_grads", None),
    ("memefuse.model", "bilstm_forward", "lstm.bilstm_forward", None),
    ("memefuse.model", "bilstm_backward", "lstm.bilstm_backward", None),
    ("memefuse.lstm", "sigmoid", "nnops.sigmoid", None),
    ("memefuse.model", "adam_step", "model.adam", None),
    ("memefuse.cli", "predict_proba", "model.predict", None),
    ("memefuse.cli", "save_checkpoint", "model.checkpoint_save", None),
    ("memefuse.cli", "load_checkpoint", "model.checkpoint_load", None),
    ("memefuse.cli", "build_report", "evalmetrics.report", None),
)


def _new_facts() -> dict:
    facts = defaultdict(int)
    for name in ("encode_token_tuples", "preprocess_token_tuples", "captions"):
        facts[name] = set()
    return facts


class Tracer:
    """In-memory spans (name, start, end, parent index) plus observed facts."""

    def __init__(self):
        self.spans: list = []
        self.facts = _new_facts()
        self.absent: list = []
        self.observer_errors: list = []
        self._stack: list = []

    def wrap(self, name, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index] = (name, start, time.perf_counter(), parent)
                self._stack.pop()
            if observe is not None:
                try:
                    observe(self.facts, args, kwargs, result)
                except Exception as exc:  # a changed signature must not fail the run
                    self.observer_errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        for module_name, attr, name, observe in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(name, fn, observe))

    def write(self, path, run_id: int) -> None:
        facts = {k: sorted(map(list, v)) if isinstance(v, set) else v
                 for k, v in self.facts.items()}
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"run": run_id, "absent": self.absent, "facts": facts,
                                 "observer_errors": self.observer_errors}) + "\n")
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent = span
                fh.write(json.dumps({"run": run_id, "id": index, "name": name,
                                     "start": start, "end": end, "parent": parent}) + "\n")


def read_runs(path) -> dict:
    """Span file -> {run id: {"summary": header line, "spans": [span lines]}}."""
    runs: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            run = runs.setdefault(rec["run"], {"summary": None, "spans": []})
            if "name" in rec:
                run["spans"].append(rec)
            else:
                run["summary"] = rec
    return runs


def span_totals(spans: list) -> tuple:
    """Per span name: calls, inclusive seconds and self seconds; plus top-level seconds."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[(s["run"], s["parent"])] += s["end"] - s["start"]
    calls = defaultdict(int)
    inclusive = defaultdict(float)
    own = defaultdict(float)
    top = 0.0
    for s in spans:
        dur = s["end"] - s["start"]
        calls[s["name"]] += 1
        inclusive[s["name"]] += dur
        own[s["name"]] += dur - child[(s["run"], s["id"])]
        if s["parent"] is None:
            top += dur
    return calls, inclusive, own, top


# per-layer metric -> (span name, "calls" | "inclusive" | "self")
SPAN_METRICS = {
    "dataset.load_s": ("dataset.load", "inclusive"),
    "textprep.preprocess_s": ("textprep.preprocess", "inclusive"),
    "textprep.records": ("textprep.preprocess", "calls"),
    "encode.image_s": ("encode.image", "inclusive"),
    "encode.image_calls": ("encode.image", "calls"),
    "encode.tokens_s": ("encode.tokens", "inclusive"),
    "encode.tokens_calls": ("encode.tokens", "calls"),
    "encode.sentence_s": ("encode.sentence", "inclusive"),
    "encode.sentence_calls": ("encode.sentence", "calls"),
    "encode.caption_s": ("encode.caption", "inclusive"),
    "encode.caption_calls": ("encode.caption", "calls"),
    "nnops.mha_s": ("nnops.mha", "inclusive"),
    "nnops.mha_calls": ("nnops.mha", "calls"),
    "nnops.sigmoid_s": ("nnops.sigmoid", "inclusive"),
    "nnops.sigmoid_calls": ("nnops.sigmoid", "calls"),
    "fusion.assemble_s": ("fusion.assemble", "inclusive"),
    "fusion.assemble_calls": ("fusion.assemble", "calls"),
    "pipeline.encode_corpus_s": ("pipeline.encode_corpus", "inclusive"),
    "pipeline.build_training_set_s": ("pipeline.build_training_set", "inclusive"),
    "balance.smote_s": ("balance.smote", "inclusive"),
    "balance.smote_calls": ("balance.smote", "calls"),
    "balance.knn_s": ("balance.knn", "inclusive"),
    "balance.knn_calls": ("balance.knn", "calls"),
    "lstm.bilstm_forward_s": ("lstm.bilstm_forward", "inclusive"),
    "lstm.bilstm_forward_calls": ("lstm.bilstm_forward", "calls"),
    "lstm.bilstm_backward_s": ("lstm.bilstm_backward", "inclusive"),
    "lstm.bilstm_backward_calls": ("lstm.bilstm_backward", "calls"),
    "model.train_s": ("model.train", "inclusive"),
    "model.steps": ("model.adam", "calls"),
    "model.loss_and_grads_s": ("model.loss_and_grads", "inclusive"),
    "model.heads_self_s": ("model.loss_and_grads", "self"),
    "model.adam_s": ("model.adam", "inclusive"),
    "model.predict_s": ("model.predict", "inclusive"),
    "model.checkpoint_save_s": ("model.checkpoint_save", "inclusive"),
    "model.checkpoint_load_s": ("model.checkpoint_load", "inclusive"),
    "evalmetrics.report_s": ("evalmetrics.report", "inclusive"),
}

# stage -> span whose inclusive time is the stage, for the share report
STAGES = {
    "load": "dataset.load",
    "preprocess": "textprep.preprocess",
    "encode": "pipeline.encode_corpus",
    "balance": "pipeline.build_training_set",
    "train": "model.train",
    "predict": "model.predict",
    "report": "evalmetrics.report",
}


def layer_metrics(runs: dict, process_wall: dict) -> tuple:
    """Per-layer metrics over the runs of one traced repetition.

    ``process_wall`` maps run id -> wall seconds of that traced process as
    the parent measured it, so ``cli.self_s`` also covers interpreter
    start-up and imports.  Returns (metrics, stage seconds, notes).
    """
    spans = [s for run in runs.values() for s in run["spans"]]
    calls, inclusive, own, top = span_totals(spans)
    measures = {"calls": calls, "inclusive": inclusive, "self": own}
    metrics = {name: float(measures[kind][span]) for name, (span, kind) in SPAN_METRICS.items()}

    facts = _new_facts()
    absent, errors = set(), []
    for run in runs.values():
        summary = run["summary"] or {"facts": {}, "absent": [], "observer_errors": []}
        absent.update(summary["absent"])
        errors.extend(summary["observer_errors"])
        for key, value in summary["facts"].items():
            if isinstance(facts[key], set):
                facts[key].update(map(tuple, value))
            else:
                facts[key] += value
    metrics["textprep.distinct_token_tuples"] = float(len(facts["preprocess_token_tuples"]))
    metrics["encode.distinct_captions"] = float(len(facts["captions"]))
    tokens_calls = calls["encode.tokens"]
    metrics["encode.token_reuse_ratio"] = (len(facts["encode_token_tuples"]) / tokens_calls
                                           if tokens_calls else 0.0)
    for task in TASKS:
        metrics[f"pipeline.synthetic_rows.{task}"] = float(facts[f"synthetic_rows.{task}"])
    metrics["balance.minority_rows"] = float(facts["minority_rows"])
    metrics["model.train_rows"] = float(facts["train_rows"])
    metrics["model.epoch_s"] = (inclusive["model.train"] / facts["epochs"]
                                if facts["epochs"] else 0.0)
    metrics["cli.self_s"] = sum(process_wall.values()) - top
    stages = {stage: inclusive[span] for stage, span in STAGES.items()}
    wrapped = {span for span, _ in SPAN_METRICS.values()}
    notes = {"absent": sorted(absent), "observer_errors": errors,
             "uncalled": sorted(s for s in wrapped if not calls[s])}
    return metrics, stages, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="JSONL file the spans are appended to")
    parser.add_argument("--run-id", type=int, required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="-- then the memefuse command line")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    tracer = Tracer()
    tracer.install()
    import memefuse.cli

    try:
        return memefuse.cli.main(cli_args)
    finally:
        tracer.write(args.spans, args.run_id)


if __name__ == "__main__":
    sys.exit(main())
