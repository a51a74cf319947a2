"""Batch command line: ingest, preprocess, train, eval.

Every command is single-shot and deterministic given its flags; all
randomness fans out from train's --seed through named streams, and eval
reuses the seed its checkpoint records.  Exit codes: 0 success, 2 input
or configuration error, 3 numeric failure.

Every command computes on one OpenBLAS thread: importing this module sets
``OPENBLAS_NUM_THREADS=1``, over any value the caller set, unless numpy is
already loaded.  The encoders' and the trunk's GEMMs are too small for a
second thread to pay, and a threaded GEMM splits its sums by the thread
count, so features, checkpoints and reports would depend on the host's
cores.  A program that imports numpy before this module keeps the pool
numpy started; for the CLI's bytes it sets the variable itself before
numpy loads.
"""

import argparse
import importlib
import json
import os
import sys
from pathlib import Path

# OpenBLAS reads its thread count only while numpy loads, so it is set
# here, before train or eval first imports numpy.  Each worker past the
# first would also spin for ≈0.13 s of CPU after the load, and never work.
if "numpy" not in sys.modules:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import TASKS, VARIANTS, NumericError, bundled_data
from .dataset import Schema, count_records, load_dataset, raw_tallies, records_at, split
from .textprep import PreprocessConfig, load_lexicon, load_vocabulary, preprocess

# The names train and eval compute with, by the module that defines them.
# Each of these modules loads numpy, so they are imported when train or eval
# first runs, and ingest, preprocess and --help start without numpy.
NUMPY_STACK = {
    ".evalmetrics": ("build_report",),
    ".model": ("ModelVariant", "TrainConfig", "load_checkpoint", "predict_blocks",
               "predict_proba", "save_checkpoint", "save_history", "train"),
    ".pipeline": ("VARIANT_PARTS", "build_feature_space", "build_training_set",
                  "encoded_blocks", "imported_blocks", "labels_from_records"),
    ".tensorfile": ("import_embeddings",),
}

SPLIT_RATIO = 0.8


def _import_numpy_stack() -> None:
    """Bind the names of NUMPY_STACK here; a name a caller set first stays."""
    global np
    import numpy as np

    for module, names in NUMPY_STACK.items():
        defined = importlib.import_module(module, __package__)
        for name in names:
            globals().setdefault(name, getattr(defined, name))


def __getattr__(name):
    # PEP 562: a caller that reads or wraps one of the deferred names before
    # train or eval runs (a test's monkeypatch, perfbench's tracer) gets it
    if any(name in names for names in NUMPY_STACK.values()):
        _import_numpy_stack()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _require(path, what):
    if path is None:
        raise ValueError(f"missing required {what} path")
    path = Path(path)
    if not path.exists():
        raise ValueError(f"{what} path does not exist: {path}")
    return path


def _load_schema(args) -> Schema:
    path = args.schema or bundled_data("memotion_schema.json")
    return Schema.from_json(_require(path, "schema"))


def _preprocess_config(args) -> PreprocessConfig:
    lexicon = _require(args.lexicon or bundled_data("emoji_lexicon.tsv"), "lexicon")
    vocab = _require(args.vocab or bundled_data("vocabulary.txt"), "vocabulary")
    return PreprocessConfig(emoji_lexicon=load_lexicon(lexicon),
                            vocabulary=load_vocabulary(vocab))


def _tokens_for(records, config):
    return {r.id: preprocess(r.text, config).tokens for r in records}


def _split_tokens(args, seed, part):
    """The records of the dataset's seeded split ``part`` ("train" or
    "test"), with the tokens of each.  The other part's rows are checked
    but never become records."""
    schema = _load_schema(args)
    path = _require(args.dataset, "dataset")
    # a pipe or FIFO would come back empty, or block, on the second read
    if not path.is_file():
        raise ValueError(f"dataset {path} is not a regular file: train and eval read it twice")
    rows = count_records(path, schema)
    records = records_at(path, schema, getattr(split(range(rows), SPLIT_RATIO, seed), part),
                         rows)
    return records, _tokens_for(records, _preprocess_config(args))


def _exchange_mappings(args, kind):
    """The exchange mappings of --embeddings; only the files the variant fuses are read."""
    root = _require(args.embeddings, "embeddings")
    return {name: import_embeddings(_require(root / f"{name}.emb", "embeddings"))
            for name in VARIANT_PARTS[kind]}


def _corpus_blocks(records, tokens_by_id, kind, args, seed):
    """(row shape, blocks) of the records' fused features; a block is
    encoded or fused only as it is drawn."""
    ids = [r.id for r in records]
    if args.embeddings:
        return imported_blocks(ids, kind, seed, **_exchange_mappings(args, kind))
    return encoded_blocks(ids, tokens_by_id, build_feature_space(kind, seed), kind)


def cmd_ingest(args) -> int:
    schema = _load_schema(args)
    path = _require(args.dataset, "dataset")
    # one pass checks the rows as load_dataset does and counts them
    tallies = raw_tallies(path, schema)
    records = sum(tallies[TASKS[0]].values())
    if args.json:
        print(json.dumps({"records": records, "tasks": tallies}, indent=2))
    else:
        print(f"records: {records}")
        for task in TASKS:
            levels = ", ".join(f"{level} {count}"
                               for level, count in tallies[task].items())
            print(f"{task}: {levels}")
    return 0


def cmd_preprocess(args) -> int:
    schema = _load_schema(args)
    records = load_dataset(_require(args.dataset, "dataset"), schema)
    config = _preprocess_config(args)
    tokens_by_id = _tokens_for(records, config)
    out = Path(args.out)
    with open(out, "w", encoding="utf-8") as fh:
        for rid in sorted(tokens_by_id):
            fh.write(json.dumps({"id": rid, "tokens": tokens_by_id[rid]}) + "\n")
    print(f"preprocessed {len(records)} records -> {out}")
    return 0


def cmd_train(args) -> int:
    _import_numpy_stack()
    # the training flags are checked before any record is read or encoded
    variant = ModelVariant(kind=args.variant)
    overrides = {"seed": args.seed}
    if args.epochs is not None:
        overrides["epochs"] = args.epochs
    if args.lr is not None:
        overrides["learning_rate"] = args.lr
    if args.batch_size is not None:
        overrides["batch_size"] = args.batch_size
    train_config = TrainConfig.for_variant(args.variant, **overrides)
    if args.k < 1:
        raise ValueError("k must be >= 1")
    # numpy's own error for a negative seed names neither the flag nor the value
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")

    records, tokens_by_id = _split_tokens(args, args.seed, "train")
    # each block is encoded or fused straight into the training set's first rows
    train_set = build_training_set(
        *_corpus_blocks(records, tokens_by_id, args.variant, args, args.seed),
        labels_from_records(records), k=args.k, seed=args.seed)
    params, history = train(variant, train_set, train_config)

    checkpoint = Path(args.checkpoint)
    checkpoint.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(checkpoint, variant, params, args.seed, train_config.epochs)
    history_path = Path(args.out) if args.out else checkpoint.with_suffix(".history.jsonl")
    history_path.parent.mkdir(parents=True, exist_ok=True)
    save_history(history_path, history)

    probs = predict_proba(variant, train_set.features, params)
    cells = []
    for task in TASKS:
        y = train_set.labels[task]
        keep = y >= 0
        hit = np.argmax(probs[task][keep], axis=1) == y[keep]
        cells.append(f"{task} {float(np.mean(hit)):.4f}")
    synthetic = train_set.features.shape[0] - len(records)
    print(f"trained {args.variant}: {train_config.epochs} epochs, "
          f"{train_set.features.shape[0]} rows ({synthetic} synthetic)")
    print(f"checkpoint: {checkpoint}")
    print(f"history: {history_path}")
    print("final train accuracy: " + " ".join(cells))
    return 0


def cmd_eval(args) -> int:
    _import_numpy_stack()
    variant, params, meta = load_checkpoint(_require(args.checkpoint, "checkpoint"))
    # the training run's seed drew both its split and its frozen encoders
    records, tokens_by_id = _split_tokens(args, meta["seed"], "test")
    (_, built), blocks = _corpus_blocks(records, tokens_by_id, variant.kind, args,
                                        meta["seed"])
    width = params["bilstm.0.wx"].shape[0]
    if built != width:
        raise ValueError(f"checkpoint {args.checkpoint} takes features of width {width}; "
                         f"eval built features of width {built}")
    gold = labels_from_records(records)
    # each block is encoded, fused and scored before the next one is encoded
    probs = predict_blocks(variant, blocks, params)
    preds = {task: np.argmax(probs[task], axis=1) for task in TASKS}
    report = build_report({variant.kind: preds}, gold)

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(report.to_text(), encoding="utf-8")
        with open(out / "report.json", "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=2)
            fh.write("\n")
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.to_text(), end="")
    return 0


def _add_common(sub, *, textprep=False, encoding=False):
    sub.add_argument("--dataset", required=True, help="annotation CSV or JSONL")
    sub.add_argument("--schema", help="schema JSON (default: bundled Memotion schema)")
    if textprep:
        sub.add_argument("--lexicon", help="emoji lexicon TSV (default: bundled)")
        sub.add_argument("--vocab", help="vocabulary list (default: bundled)")
    if encoding:
        sub.add_argument("--embeddings",
                         help="directory of exchange files replacing the toy encoders")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memefuse",
        description="Train and evaluate multimodal meme sentiment classifiers.")
    commands = parser.add_subparsers(dest="command", required=True)

    ingest = commands.add_parser("ingest", help="summarize an annotation file")
    _add_common(ingest)
    ingest.add_argument("--json", action="store_true", help="machine-readable summary")
    ingest.set_defaults(func=cmd_ingest)

    prep = commands.add_parser("preprocess", help="clean meme texts to a token file")
    _add_common(prep, textprep=True)
    prep.add_argument("--out", required=True, help="output JSONL path")
    prep.set_defaults(func=cmd_preprocess)

    tr = commands.add_parser("train", help="train one pipeline variant")
    _add_common(tr, textprep=True, encoding=True)
    tr.add_argument("--variant", required=True, choices=VARIANTS)
    tr.add_argument("--k", type=int, default=5, help="oversampling neighbor count")
    tr.add_argument("--epochs", type=int)
    tr.add_argument("--lr", type=float)
    tr.add_argument("--batch-size", type=int)
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--checkpoint", required=True, help="checkpoint output path")
    tr.add_argument("--out", help="history output path (default: next to checkpoint)")
    tr.set_defaults(func=cmd_train)

    ev = commands.add_parser("eval", help="score a checkpoint on the held-out split")
    _add_common(ev, textprep=True, encoding=True)
    ev.add_argument("--checkpoint", required=True, help="checkpoint to score")
    ev.add_argument("--out", help="directory for report.txt / report.json")
    ev.add_argument("--json", action="store_true", help="print the JSON report")
    ev.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    # SchemaError, RowError and json.JSONDecodeError are ValueErrors
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
