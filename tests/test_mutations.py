"""Mutated inputs keep the exit contract.

Byte and structure mutations of the annotation CSV and JSON-lines files,
the schema, the emoji lexicon and the vocabulary run through
``cli.main(["ingest", ...])`` and ``cli.main(["preprocess", ...])`` in
process.  Byte mutations of the header and of the tensor data of a
checkpoint run through ``cli.main(["eval", ...])``, and those of an
embedding exchange file through ``cli.main(["eval", ...])`` and
``cli.main(["train", ...])``.  Whatever the input, the command returns 0,
2 or 3, no exception escapes, an exit of 2 or 3 writes one ``error:``
line to stderr, and an exit of 0 writes nothing there.  The seeds are
fixed, so every run tries the same cases.

A mutated checkpoint may still exit 0: nothing checks the tensor bytes
against a digest yet.
"""

import csv
import io
import json
import random

import numpy as np
import pytest

from memefuse import bundled_data, cli
from memefuse.dataset import Schema, load_dataset
from memefuse.fixtures import write_annotation_fixture
from memefuse.tensorfile import export_embeddings

SEEDS = range(40)

TALLIES = {
    "humour": (("funny", 5), ("not_funny", 2), ("very_funny", 3)),
    "sarcasm": (("sarcastic", 6), ("not_sarcastic", 4)),
    "motivational": (("motivational", 4), ("not_motivational", 6)),
    "overall_sentiment": (("positive", 4), ("negative", 4), ("neutral", 2)),
}

# 16 rows, so the 12-row training split leaves a class that train
# oversamples members to interpolate between
TRAIN_TALLIES = {
    "humour": (("funny", 8), ("not_funny", 4), ("very_funny", 4)),
    "sarcasm": (("sarcastic", 10), ("not_sarcastic", 6)),
    "motivational": (("motivational", 7), ("not_motivational", 9)),
    "overall_sentiment": (("positive", 6), ("negative", 6), ("neutral", 4)),
}

# bytes a mutation splices in: delimiters, quotes, line ends, a BOM, NUL,
# invalid and truncated UTF-8, an emoji and a long run of letters
SPLICES = (b",", b'"', b"\t", b"\n", b"\r", b"\r\n", b"\xef\xbb\xbf", b"\x00", b"\xff",
           b"\xe2\x82", "\U0001F602".encode(), b"{", b"}", b"[", b"]", b":", b"#", b"@",
           b"\\u00e9", b"\\ud800", b"a" * 300, b"null", b"-1e999")

# what a structure mutation puts in place of a field, or of a whole line
FIELDS = ("", " ", "funny", "Not Funny", "é", "\U0001F602", '"', "#x")
LINES = ("\n", " \n", ",,,,,\n", "\t\n", "#\n", "\ufeffx\n", "\U0001F602\n",
         "\U0001F602\tFACE\n", "\t\t\n", '"\n')

# values a structure mutation puts into a JSON document
JSON_VALUES = (None, True, 0, -1, 2.5, float("nan"), "", "funny", "x" * 200, "é",
               "\ud83d", [], ["funny"], {}, {"funny": "funny"}, [[[[]]]])


def _text_inputs(tmp):
    """The unmutated inputs as {kind: (suffix, bytes)}."""
    write_annotation_fixture(tmp / "base.csv", TALLIES)
    csv_bytes = (tmp / "base.csv").read_bytes()
    rows = list(csv.DictReader(io.StringIO(csv_bytes.decode("utf-8"))))
    jsonl = "".join(json.dumps(row) + "\n" for row in rows).encode()
    # the bundled lexicon and vocabulary, cut short so a preprocess costs
    # milliseconds, plus the fixture texts' words, so tokens survive the filter
    lexicon = b"".join(bundled_data("emoji_lexicon.tsv").read_bytes().splitlines(True)[:12])
    vocab = b"".join(bundled_data("vocabulary.txt").read_bytes().splitlines(True)[:40])
    vocab += b"sample\nmeme\ntext\n"
    return {"csv": (".csv", csv_bytes), "jsonl": (".jsonl", jsonl),
            "schema": (".json", bundled_data("memotion_schema.json").read_bytes()),
            "lexicon": (".tsv", lexicon), "vocab": (".txt", vocab)}


def mutate_bytes(data: bytes, rng: random.Random) -> bytes:
    """One to three byte edits: flip, delete, splice, duplicate or truncate."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(out) + 1)
        op = rng.randrange(5)
        if op == 0 and at < len(out):
            out[at] ^= 1 << rng.randrange(8)
        elif op == 1:
            del out[at:at + rng.randint(1, 40)]
        elif op == 2:
            out[at:at] = rng.choice(SPLICES)
        elif op == 3:
            out[at:at] = out[at:at + rng.randint(1, 60)]
        else:
            del out[rng.randrange(at + 1):]
    return bytes(out)


# float32 values a tensor mutation writes over one: non-finite, extreme,
# signed zero, subnormal
FLOAT32_VALUES = tuple(np.array([np.nan, np.inf, -np.inf, 3.4e38, -3.4e38, 1e30, -0.0, 1e-45],
                                dtype="<f4").view(np.uint8).reshape(-1, 4))


def mutate_tensor_bytes(data: bytes, rng: random.Random) -> bytes:
    """One to three edits that keep the length, so the tensors still read:
    a bit flip, a float32 overwritten by an extreme value, or a span copied
    over another."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(out))
        op = rng.randrange(3)
        if op == 0:
            out[at] ^= 1 << rng.randrange(8)
        elif op == 1:
            at -= at % 4
            out[at:at + 4] = bytes(rng.choice(FLOAT32_VALUES))
        else:
            span = rng.randint(1, 64)
            source = rng.randrange(len(out))
            piece = out[source:source + span]
            out[at:at + len(piece)] = piece
            del out[len(data):]
    return bytes(out)


def _mutate_json(value, rng: random.Random):
    """``value`` with one node deleted, replaced or renamed, at random depth."""
    if isinstance(value, dict) and value and rng.random() < 0.75:
        key = rng.choice(list(value))
        op = rng.randrange(4)
        if op == 0:
            del value[key]
        elif op == 1:
            value[key] = rng.choice(JSON_VALUES)
        elif op == 2:
            value[key + rng.choice(("_", "X", " "))] = value.pop(key)
        else:
            value[key] = _mutate_json(value[key], rng)
        return value
    if isinstance(value, list) and value and rng.random() < 0.75:
        at = rng.randrange(len(value))
        value[at] = _mutate_json(value[at], rng)
        return value
    return rng.choice(JSON_VALUES)


def mutate_structure(kind: str, data: bytes, rng: random.Random, op: int) -> bytes:
    """A well-formed edit of the file's own structure: one of its JSON nodes,
    or by ``op`` (0-4) a line's fields, a deleted, duplicated, swapped or
    replaced line."""
    text = data.decode("utf-8")
    if kind == "schema":
        return json.dumps(_mutate_json(json.loads(text), rng)).encode("utf-8", "surrogatepass")
    lines = text.splitlines(True)
    at = rng.randrange(len(lines))
    if op == 0 and kind == "jsonl":
        lines[at] = json.dumps(_mutate_json(json.loads(lines[at]), rng)) + "\n"
    elif op == 0:
        sep = {"csv": ",", "lexicon": "\t"}.get(kind, " ")
        fields = lines[at].rstrip("\n").split(sep)
        pick = rng.randrange(len(fields))
        edit = rng.randrange(3)
        if edit == 0:
            del fields[pick]
        elif edit == 1:
            fields.insert(pick, fields[pick])
        else:
            fields[pick] = rng.choice(FIELDS)
        lines[at] = sep.join(fields) + "\n"
    elif op == 1:
        del lines[at]
    elif op == 2:
        lines.insert(rng.randrange(len(lines) + 1), lines[at])
    elif op == 3:
        other = rng.randrange(len(lines))
        lines[at], lines[other] = lines[other], lines[at]
    elif kind == "jsonl":  # a line that is JSON, but not a row object
        lines[at] = json.dumps(rng.choice(JSON_VALUES)) + "\n"
    else:
        lines[at] = rng.choice(LINES)
    return "".join(lines).encode("utf-8", "surrogatepass")


# which commands read each kind of input
COMMANDS = {"csv": ("ingest", "preprocess"), "jsonl": ("ingest", "preprocess"),
            "schema": ("ingest", "preprocess"), "lexicon": ("preprocess",),
            "vocab": ("preprocess",)}


def _argv(command, paths, out):
    argv = [command, "--dataset", str(paths["data"]), "--schema", str(paths["schema"])]
    if command == "preprocess":
        argv += ["--lexicon", str(paths["lexicon"]), "--vocab", str(paths["vocab"]),
                 "--out", str(out)]
    return argv


def _keeps_exit_contract(argv, case, capsys):
    try:
        rc = cli.main(argv)
    except Exception as exc:  # the contract: nothing escapes main
        pytest.fail(f"{case}: {type(exc).__name__} escaped: {exc}")
    err = capsys.readouterr().err
    assert rc in (0, 2, 3), case
    if rc:
        assert err.startswith("error: ") and err.count("\n") == 1, f"{case}: {err!r}"
    else:
        assert err == "", case


@pytest.mark.parametrize("kind", sorted(COMMANDS))
@pytest.mark.parametrize("how", ["bytes", "structure"])
def test_mutated_input_keeps_the_exit_contract(kind, how, tmp_path, capsys):
    inputs = _text_inputs(tmp_path)
    data_kind = "jsonl" if kind == "jsonl" else "csv"
    for seed in SEEDS:
        rng = random.Random(f"{kind}/{how}/{seed}")
        original = inputs[kind][1]
        mutated = (mutate_bytes(original, rng) if how == "bytes"
                   else mutate_structure(kind, original, rng, op=seed % 5))
        paths = {}
        for name, role in ((data_kind, "data"), ("schema", "schema"),
                           ("lexicon", "lexicon"), ("vocab", "vocab")):
            path = tmp_path / f"{role}{inputs[name][0]}"
            path.write_bytes(mutated if name == kind else inputs[name][1])
            paths[role] = path
        for command in COMMANDS[kind]:
            case = f"seed {seed}, {command} of mutated {kind}: {mutated[:200]!r}"
            _keeps_exit_contract(_argv(command, paths, tmp_path / "tokens.jsonl"), case, capsys)


@pytest.fixture(scope="module")
def trained_files(tmp_path_factory):
    """A 1-epoch imgsen checkpoint, and a 1-epoch capsen checkpoint trained on
    imported sentence vectors, with the annotation file both read."""
    tmp = tmp_path_factory.mktemp("trained")
    data = tmp / "memes.csv"
    write_annotation_fixture(data, TRAIN_TALLIES)
    emb = tmp / "emb"
    emb.mkdir()
    rng = np.random.default_rng(0)
    schema = Schema.from_json(bundled_data("memotion_schema.json"))
    ids = [r.id for r in load_dataset(data, schema)]
    for name in ("caption_sentence", "text_sentence"):
        export_embeddings(emb / f"{name}.emb",
                          {rid: rng.normal(size=12).astype(np.float32) for rid in ids},
                          kind="vector")
    for variant, extra in (("imgsen", []), ("capsen", ["--embeddings", str(emb)])):
        assert cli.main(["train", "--dataset", str(data), "--variant", variant,
                         "--epochs", "1", "--checkpoint", str(tmp / f"{variant}.ckpt"),
                         *extra]) == 0
    return data, tmp / "imgsen.ckpt", tmp / "capsen.ckpt", emb


@pytest.mark.parametrize("target", ["checkpoint", "embeddings"])
@pytest.mark.parametrize("part", ["header", "tensors"])
def test_mutated_tensor_file_keeps_the_exit_contract(target, part, trained_files, tmp_path,
                                                     capsys):
    data, imgsen, capsen, emb = trained_files
    capsys.readouterr()  # drop the train summaries
    original = (imgsen if target == "checkpoint" else emb / "text_sentence.emb").read_bytes()
    header, blob = original.split(b"\n", 1)
    mutated_emb = tmp_path / "emb"
    mutated_emb.mkdir()
    (mutated_emb / "caption_sentence.emb").write_bytes(
        (emb / "caption_sentence.emb").read_bytes())
    for seed in SEEDS:
        rng = random.Random(f"{target}/{part}/{seed}")
        if part == "header":
            mutated = mutate_bytes(header, rng) + b"\n" + blob
        else:
            # one case in four changes the length, which the reader refuses
            mutate = mutate_bytes if seed % 4 == 0 else mutate_tensor_bytes
            mutated = header + b"\n" + mutate(blob, rng)
        if target == "checkpoint":
            path = tmp_path / "mutated.ckpt"
            runs = {"eval": ["--checkpoint", str(path)]}
        else:
            path = mutated_emb / "text_sentence.emb"
            runs = {"eval": ["--checkpoint", str(capsen), "--embeddings", str(mutated_emb)],
                    "train": ["--variant", "capsen", "--epochs", "1", "--embeddings",
                              str(mutated_emb), "--checkpoint", str(tmp_path / "t.ckpt")]}
        path.write_bytes(mutated)
        for command, args in runs.items():
            _keeps_exit_contract([command, "--dataset", str(data), *args],
                                 f"seed {seed}, {command} of mutated {target} {part}", capsys)
