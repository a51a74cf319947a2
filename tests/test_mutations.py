"""Mutated inputs of the cheap commands keep the exit contract.

Byte and structure mutations of the annotation CSV and JSON-lines files,
the schema, the emoji lexicon and the vocabulary run through
``cli.main(["ingest", ...])`` and ``cli.main(["preprocess", ...])`` in
process.  Whatever the input, the command returns 0, 2 or 3, no
exception escapes, an exit of 2 or 3 writes an ``error:`` line to
stderr, and an exit of 0 writes nothing there.  The seeds are fixed, so
every run tries the same cases.
"""

import csv
import io
import json
import random

import pytest

from memefuse import bundled_data, cli
from memefuse.fixtures import write_annotation_fixture

SEEDS = range(40)

TALLIES = {
    "humour": (("funny", 5), ("not_funny", 2), ("very_funny", 3)),
    "sarcasm": (("sarcastic", 6), ("not_sarcastic", 4)),
    "motivational": (("motivational", 4), ("not_motivational", 6)),
    "overall_sentiment": (("positive", 4), ("negative", 4), ("neutral", 2)),
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
            try:
                rc = cli.main(_argv(command, paths, tmp_path / "tokens.jsonl"))
            except Exception as exc:  # the contract: nothing escapes main
                pytest.fail(f"{case}: {type(exc).__name__} escaped: {exc}")
            err = capsys.readouterr().err
            assert rc in (0, 2, 3), case
            if rc:
                assert err.startswith("error: "), case
            else:
                assert err == "", case
