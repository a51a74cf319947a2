"""Command-line surface: output formats, determinism, exit codes."""

import itertools
import json
import os
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from memefuse import cli
from memefuse.evalmetrics import REPORT_SCHEMA
from memefuse.fixtures import write_annotation_fixture
from memefuse.model import NumericError

SMALL_TALLIES = {
    "humour": (("funny", 8), ("not_funny", 4), ("very_funny", 4)),
    "sarcasm": (("sarcastic", 10), ("not_sarcastic", 6)),
    "motivational": (("motivational", 7), ("not_motivational", 9)),
    "overall_sentiment": (("positive", 6), ("negative", 6), ("neutral", 4)),
}

EXPECTED_SMALL_SUMMARY = """\
records: 16
humor: funny 8, not_funny 4, very_funny 4
sarcasm: sarcastic 10, not_sarcastic 6
motivation: motivational 7, not_motivational 9
sentiment: positive 6, negative 6, neutral 4
"""


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "small.csv"
    write_annotation_fixture(path, SMALL_TALLIES)
    return path


@pytest.fixture(scope="module")
def trained(small_csv, tmp_path_factory):
    """One imgsen checkpoint shared by the eval tests."""
    out = tmp_path_factory.mktemp("ckpt")
    ckpt = out / "imgsen.ckpt"
    rc = cli.main(["train", "--dataset", str(small_csv), "--variant", "imgsen",
                   "--epochs", "2", "--seed", "3", "--checkpoint", str(ckpt)])
    assert rc == 0
    return ckpt


class TestIngest:
    def test_summary_bytes(self, small_csv, capsys):
        assert cli.main(["ingest", "--dataset", str(small_csv)]) == 0
        assert capsys.readouterr().out == EXPECTED_SMALL_SUMMARY

    def test_json_summary(self, small_csv, capsys):
        assert cli.main(["ingest", "--dataset", str(small_csv), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"] == 16
        assert payload["tasks"]["humor"]["very_funny"] == 4
        assert payload["tasks"]["sentiment"]["neutral"] == 4

    def test_byte_order_mark_ignored(self, small_csv, tmp_path, capsys):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + small_csv.read_bytes())
        assert cli.main(["ingest", "--dataset", str(path)]) == 0
        assert capsys.readouterr().out == EXPECTED_SMALL_SUMMARY

    def test_missing_dataset_exits_2(self, tmp_path, capsys):
        rc = cli.main(["ingest", "--dataset", str(tmp_path / "nope.csv")])
        assert rc == 2
        assert "does not exist" in capsys.readouterr().err

    def test_malformed_row_exits_2_with_index(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(
            "image_name,text,humour,sarcasm,motivational,overall_sentiment\n"
            "a.jpg,t,funny,sarcastic,motivational,positive\n"
            "b.jpg,t,kinda_funny,sarcastic,motivational,positive\n",
            encoding="utf-8")
        rc = cli.main(["ingest", "--dataset", str(path)])
        assert rc == 2
        assert "row 1" in capsys.readouterr().err

    @pytest.mark.parametrize("second_id, message", [
        ("", "error: row 1: empty id"),
        ("a.jpg", "error: row 1: duplicate id 'a.jpg'"),
    ], ids=["empty", "duplicate"])
    def test_bad_id_exits_2_naming_the_row(self, tmp_path, capsys, second_id, message):
        # the tallying pass applies load_dataset's id checks too
        path = tmp_path / "bad.csv"
        path.write_text(
            "image_name,text,humour,sarcasm,motivational,overall_sentiment\n"
            "a.jpg,t,funny,sarcastic,motivational,positive\n"
            f"{second_id},t,funny,sarcastic,motivational,positive\n",
            encoding="utf-8")
        assert cli.main(["ingest", "--dataset", str(path), "--json"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message + "\n")

    @pytest.mark.parametrize("schema, message", [
        ([], "error: schema top level must be an object, got []"),
        ({"columns": [1, 2]}, "error: schema columns must be an object of strings, got [1, 2]"),
        ({"labels": {"humor": ["a"]}},
         "error: schema labels.humor must be an object of strings, got ['a']"),
    ], ids=["top-level", "columns", "task-labels"])
    def test_malformed_schema_exits_2_naming_the_field(self, small_csv, tmp_path, capsys,
                                                       schema, message):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(schema), encoding="utf-8")
        assert cli.main(["ingest", "--dataset", str(small_csv), "--schema", str(path)]) == 2
        assert capsys.readouterr().err == message + "\n"


class TestMalformedInput:
    HEADER = "image_name,text,humour,sarcasm,motivational,overall_sentiment\n"
    GOOD = "a.jpg,t,funny,sarcastic,motivational,positive\n"

    @pytest.mark.parametrize("command", ["ingest", "train"])
    @pytest.mark.parametrize("where, message", [
        ("row", "error: row 1: unreadable CSV row: field larger than field limit"),
        ("header", "error: unreadable CSV header: field larger than field limit"),
    ], ids=["row", "header"])
    def test_oversized_csv_field_exits_2(self, tmp_path, capsys, command, where, message):
        # a field over the csv module's size limit used to end in a _csv.Error traceback
        huge = "x" * 200_000
        path = tmp_path / "huge.csv"
        if where == "row":
            path.write_text(self.HEADER + self.GOOD + f"b.jpg,{huge},funny,sarcastic,"
                            "motivational,positive\n", encoding="utf-8")
        else:
            path.write_text(self.HEADER.replace("text", huge) + self.GOOD, encoding="utf-8")
        extra = (["--variant", "imgsen", "--checkpoint", str(tmp_path / "x.ckpt")]
                 if command == "train" else [])
        rc = cli.main([command, "--dataset", str(path), *extra])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(message)
        assert "Traceback" not in err

    @pytest.mark.parametrize("target", ["annotation-row", "schema", "checkpoint", "embeddings"])
    def test_deeply_nested_json_exits_2(self, small_csv, trained, tmp_path, capsys, target):
        # each used to end in a RecursionError traceback
        nested = "[" * 100_000 + "]" * 100_000
        if target == "annotation-row":
            path = tmp_path / "a.jsonl"
            good = {"image_name": "j.jpg", "text": "yo", "humour": "funny",
                    "sarcasm": "sarcastic", "motivational": "motivational",
                    "overall_sentiment": "negative"}
            path.write_text(json.dumps(good) + "\n" + nested + "\n", encoding="utf-8")
            args = ["ingest", "--dataset", str(path)]
            message = "error: row 1: invalid JSON: maximum recursion depth exceeded"
        elif target == "schema":
            path = tmp_path / "schema.json"
            path.write_text(nested, encoding="utf-8")
            args = ["ingest", "--dataset", str(small_csv), "--schema", str(path)]
            message = f"error: {path}: schema is not JSON (maximum recursion depth exceeded"
        elif target == "checkpoint":
            path = tmp_path / "nested.ckpt"
            path.write_bytes(nested.encode("utf-8") + b"\n")
            args = ["eval", "--dataset", str(small_csv), "--checkpoint", str(path)]
            message = (f"error: {path}: checkpoint header is not JSON "
                       "(maximum recursion depth exceeded")
        else:
            emb = tmp_path / "emb"
            emb.mkdir()
            path = emb / "image.emb"  # the first file imgsen reads
            path.write_text(nested + "\n", encoding="utf-8")
            args = ["eval", "--dataset", str(small_csv), "--checkpoint", str(trained),
                    "--embeddings", str(emb)]
            message = (f"error: {path}: embedding header is not JSON "
                       "(maximum recursion depth exceeded")
        rc = cli.main(args)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(message), err[:300]
        assert "Traceback" not in err


    @pytest.mark.parametrize("target", ["checkpoint", "embeddings"])
    def test_shape_past_int64_exits_2_naming_the_tensor(self, small_csv, trained, tmp_path,
                                                         capsys, target):
        # a tensor of 2**65 values wrapped to size 0 in an int64 product, passed the
        # length check and failed in a reshape naming neither the file nor the tensor
        from memefuse.model import ModelVariant, _param_shapes

        huge = 2**32
        if target == "checkpoint":
            path = tmp_path / "huge.ckpt"
            variant = ModelVariant("imgsen", bilstm_layers=1, hidden=huge // 4, head_hidden=1)
            shapes = dict(_param_shapes(variant, huge))
            assert shapes["bilstm.0.wx"] == (huge, 2, 4, huge // 4)
            # the wrapped tensor first, so no earlier tensor overruns the blob
            names = ["bilstm.0.wx"] + sorted(set(shapes) - {"bilstm.0.wx"})
            header = {"format": "memefuse-checkpoint",
                      "variant": {"kind": "imgsen", "bilstm_layers": 1,
                                  "hidden": huge // 4, "head_hidden": 1},
                      "seed": 3, "epoch": 2,
                      "manifest": [{"name": k, "shape": list(shapes[k])} for k in names]}
            path.write_bytes(json.dumps(header).encode("utf-8") + b"\n")
            args = ["--checkpoint", str(path)]
            tensor = "bilstm.0.wx"
        else:
            emb = tmp_path / "emb"
            emb.mkdir()
            path = emb / "image.emb"  # the first file imgsen reads
            header = {"format": "memefuse-embeddings", "kind": "sequence", "d": huge,
                      "manifest": [{"name": "x", "shape": [huge, huge]}]}
            path.write_bytes(json.dumps(header).encode("utf-8") + b"\n")
            args = ["--checkpoint", str(trained), "--embeddings", str(emb)]
            tensor = "x"
        rc = cli.main(["eval", "--dataset", str(small_csv), *args])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"error: {path}: truncated tensor data at {tensor!r}\n"


class TestPreprocess:
    def test_writes_sorted_jsonl(self, small_csv, tmp_path, capsys):
        out = tmp_path / "tokens.jsonl"
        rc = cli.main(["preprocess", "--dataset", str(small_csv), "--out", str(out)])
        assert rc == 0
        lines = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        assert len(lines) == 16
        ids = [l["id"] for l in lines]
        assert ids == sorted(ids)
        assert all(isinstance(l["tokens"], list) for l in lines)

    def test_rerun_is_byte_identical(self, small_csv, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        cli.main(["preprocess", "--dataset", str(small_csv), "--out", str(a)])
        cli.main(["preprocess", "--dataset", str(small_csv), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_missing_lexicon_exits_2(self, small_csv, tmp_path, capsys):
        rc = cli.main(["preprocess", "--dataset", str(small_csv),
                       "--out", str(tmp_path / "x.jsonl"),
                       "--lexicon", str(tmp_path / "no.tsv")])
        assert rc == 2
        assert "lexicon" in capsys.readouterr().err

    def test_empty_lexicon_key_exits_2_naming_the_line(self, small_csv, tmp_path, capsys):
        lexicon = tmp_path / "lex.tsv"
        lexicon.write_text("\U0001F600\tgrinning face\n\tsmile\n", encoding="utf-8")
        rc = cli.main(["preprocess", "--dataset", str(small_csv),
                       "--out", str(tmp_path / "x.jsonl"), "--lexicon", str(lexicon)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {lexicon}:2: empty emoji column\n"


class TestTrain:
    def test_writes_checkpoint_history_and_summary(self, small_csv, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        rc = cli.main(["train", "--dataset", str(small_csv), "--variant", "imgsen",
                       "--epochs", "1", "--checkpoint", str(ckpt)])
        assert rc == 0
        assert ckpt.exists()
        assert ckpt.with_suffix(".history.jsonl").exists()
        out = capsys.readouterr().out
        assert "trained imgsen: 1 epochs" in out
        assert "final train accuracy:" in out
        for task in ("humor", "sarcasm", "motivation", "sentiment"):
            assert task in out

    def test_training_set_is_the_encoded_corpus(self, small_csv, tmp_path, monkeypatch):
        # each block is encoded into the training set's first rows, so train
        # and predict_proba never hold a second copy of the real rows
        drawn, built = [], []
        stream, build, fit = cli._corpus_blocks, cli.build_training_set, cli.train

        def streaming(*args):
            shape, blocks = stream(*args)
            return shape, (drawn.append(block) or block for block in blocks)

        def building(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        def training(variant, train_set, config):
            assert len(built) == 1 and train_set is built[0]
            n = sum(map(len, drawn))  # the 16-row file's 12 training rows
            assert n == 12 and train_set.features.flags.owndata
            assert train_set.features[:n].tobytes() == np.concatenate(drawn).tobytes()
            return fit(variant, train_set, config)

        monkeypatch.setattr(cli, "_corpus_blocks", streaming)
        monkeypatch.setattr(cli, "build_training_set", building)
        monkeypatch.setattr(cli, "train", training)
        rc = cli.main(["train", "--dataset", str(small_csv), "--variant", "imgsen",
                       "--epochs", "1", "--checkpoint", str(tmp_path / "m.ckpt")])
        assert rc == 0

    def test_same_seed_identical_artifacts(self, small_csv, tmp_path):
        paths = []
        for name in ("one", "two"):
            ckpt = tmp_path / f"{name}.ckpt"
            cli.main(["train", "--dataset", str(small_csv), "--variant", "imgsen",
                      "--epochs", "2", "--seed", "7", "--checkpoint", str(ckpt)])
            paths.append(ckpt)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert (paths[0].with_suffix(".history.jsonl").read_bytes()
                == paths[1].with_suffix(".history.jsonl").read_bytes())

    def test_capsen_defaults_to_lower_learning_rate(self, small_csv, tmp_path):
        def train_to(name, *extra):
            ckpt = tmp_path / f"{name}.ckpt"
            rc = cli.main(["train", "--dataset", str(small_csv), "--variant",
                           "capsen", "--epochs", "1", "--seed", "1",
                           "--checkpoint", str(ckpt), *extra])
            assert rc == 0
            return ckpt.read_bytes()

        default = train_to("default")
        explicit = train_to("explicit", "--lr", "3e-4")
        other = train_to("other", "--lr", "1e-3")
        assert default == explicit
        assert default != other

    def test_history_out_flag(self, small_csv, tmp_path):
        ckpt = tmp_path / "m.ckpt"
        hist = tmp_path / "elsewhere" / "h.jsonl"
        rc = cli.main(["train", "--dataset", str(small_csv), "--variant", "imgsen",
                       "--epochs", "1", "--checkpoint", str(ckpt),
                       "--out", str(hist)])
        assert rc == 0
        records = [json.loads(l) for l in hist.read_text().splitlines()]
        assert len(records) == 1
        assert set(records[0]) >= {"epoch", "loss"}

    def test_workers_flag_rejected(self, small_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--dataset", str(small_csv), "--variant", "imgsen",
                      "--checkpoint", str(tmp_path / "x.ckpt"), "--workers", "2"])
        assert exc.value.code == 2

    def test_k_flag_is_train_only(self, small_csv, trained):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--dataset", str(small_csv), "--checkpoint", str(trained),
                      "--k", "3"])
        assert exc.value.code == 2

    def test_k_below_one_exits_2_without_deficit(self, tmp_path, capsys):
        # one level per column: no class has a deficit, so nothing is oversampled
        path = tmp_path / "balanced.csv"
        write_annotation_fixture(path, {column: ((levels[0][0], 12),)
                                        for column, levels in SMALL_TALLIES.items()})
        rc = cli.main(["train", "--dataset", str(path), "--variant", "imgsen",
                       "--epochs", "1", "--checkpoint", str(tmp_path / "x.ckpt"), "--k", "0"])
        assert rc == 2
        assert "k must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()

    @pytest.mark.parametrize("flag, message", [
        ("--epochs=0", "epochs must be >= 1"),
        ("--lr=nan", "learning_rate must be finite and > 0"),
        ("--batch-size=0", "batch_size must be >= 1"),
        ("--k=0", "k must be >= 1"),
        ("--seed=-1", "--seed must be >= 0, got -1"),
    ])
    def test_bad_training_flag_exits_2_before_encoding(self, small_csv, tmp_path, capsys,
                                                       monkeypatch, flag, message):
        def encoding(*args):
            raise AssertionError("corpus encoded before the training flags were checked")

        monkeypatch.setattr(cli, "_corpus_blocks", encoding)
        rc = cli.main(["train", "--dataset", str(small_csv), "--variant", "imgtxt",
                       "--checkpoint", str(tmp_path / "x.ckpt"), flag])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "x.ckpt").exists()

    @pytest.mark.parametrize("lr", ["0", "-1e-3", "nan", "inf", "1e400"])
    def test_bad_learning_rate_exits_2(self, small_csv, tmp_path, capsys, lr):
        rc = cli.main(["train", "--dataset", str(small_csv), "--variant", "imgsen",
                       "--epochs", "1", "--checkpoint", str(tmp_path / "x.ckpt"), f"--lr={lr}"])
        assert rc == 2
        assert "learning_rate must be finite and > 0" in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()

    def test_numeric_failure_exits_3(self, small_csv, tmp_path, capsys, monkeypatch):
        def explode(*a, **k):
            raise NumericError("non-finite gradient in head.humor.w1")

        monkeypatch.setattr(cli, "train", explode)
        rc = cli.main(["train", "--dataset", str(small_csv), "--variant", "imgsen",
                       "--epochs", "1", "--checkpoint", str(tmp_path / "x.ckpt")])
        assert rc == 3
        assert "non-finite" in capsys.readouterr().err

    def test_overflowing_learning_rate_exits_3_without_checkpoint(self, small_csv, tmp_path,
                                                                  capsys):
        ckpt = tmp_path / "x.ckpt"
        rc = cli.main(["train", "--dataset", str(small_csv), "--variant", "imgsen",
                       "--epochs", "1", "--checkpoint", str(ckpt), "--lr", "1e308"])
        assert rc == 3
        assert "non-finite parameter bilstm.0.wx after step 1" in capsys.readouterr().err
        assert not ckpt.exists() and not ckpt.with_suffix(".history.jsonl").exists()


def _per_direction_manifest(header):
    """``header`` with each trunk tensor listed as checkpoints listed it before
    the trunk layout: per direction, packed gates, bilstm.{i}.{fwd,bwd}.{wx,wh,b}
    of shapes (d, 4H), (H, 4H), (4H,)."""
    manifest = []
    for entry in header["manifest"]:
        name, shape = entry["name"], entry["shape"]
        if not name.startswith("bilstm."):
            manifest.append(entry)
            continue
        layer, tensor = name.rsplit(".", 1)
        hidden = shape[-1]
        packed = {"wx": [shape[0], 4 * hidden], "wh": [hidden, 4 * hidden], "b": [4 * hidden]}
        manifest += [{"name": f"{layer}.{direction}.{tensor}", "shape": packed[tensor]}
                     for direction in ("fwd", "bwd")]
    return {**header, "manifest": sorted(manifest, key=lambda entry: entry["name"])}


class TestEval:
    def test_reports_written_and_valid(self, small_csv, trained, tmp_path, capsys):
        out = tmp_path / "reports"
        rc = cli.main(["eval", "--dataset", str(small_csv),
                       "--checkpoint", str(trained), "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
        jsonschema.validate(payload, REPORT_SCHEMA)
        assert set(payload["variants"]) == {"imgsen"}
        text = (out / "report.txt").read_text(encoding="utf-8")
        assert "accuracy" in text and "macro_f1" in text
        assert capsys.readouterr().out == text

    def test_json_flag_prints_report(self, small_csv, trained, capsys):
        rc = cli.main(["eval", "--dataset", str(small_csv),
                       "--checkpoint", str(trained), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, REPORT_SCHEMA)

    @pytest.mark.parametrize("flag", [["--seed", "3"], ["--variant", "imgsen"]],
                             ids=["seed", "variant"])
    def test_removed_flag_exits_2_before_loading(self, small_csv, trained, capsys,
                                                 monkeypatch, flag):
        # the checkpoint records the one seed and variant that score it
        def loading(*args):
            raise AssertionError(f"checkpoint loaded despite {flag[0]}")

        monkeypatch.setattr(cli, "load_checkpoint", loading)
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--dataset", str(small_csv),
                      "--checkpoint", str(trained), *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--help"])
        assert exc.value.code == 0
        assert flag[0] not in capsys.readouterr().out

    def test_split_and_features_take_the_checkpoint_seed(self, small_csv, tmp_path,
                                                         capsys, monkeypatch):
        ckpt = tmp_path / "seed7.ckpt"
        assert cli.main(["train", "--dataset", str(small_csv), "--variant", "imgsen",
                         "--epochs", "1", "--seed", "7", "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()  # drop the train summary
        seen = {"split": [], "build_feature_space": []}
        splitting, building = cli.split, cli.build_feature_space

        def split_spy(positions, ratio, seed):
            seen["split"].append((list(positions), seed))
            return splitting(positions, ratio, seed)

        def space_spy(kind, seed):
            seen["build_feature_space"].append((kind, seed))
            return building(kind, seed)

        monkeypatch.setattr(cli, "split", split_spy)
        monkeypatch.setattr(cli, "build_feature_space", space_spy)
        assert cli.main(["eval", "--dataset", str(small_csv), "--checkpoint", str(ckpt)]) == 0
        # the split deals out the positions of the file's 16 rows
        assert seen == {"split": [(list(range(16)), 7)],
                        "build_feature_space": [("imgsen", 7)]}

    def test_eval_deterministic(self, small_csv, trained, capsys):
        outs = []
        for _ in range(2):
            assert cli.main(["eval", "--dataset", str(small_csv),
                             "--checkpoint", str(trained)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("defect, field", [
        (lambda h: {**h, "variant": {**h["variant"], "bogus": 1}}, "variant.bogus"),
        (lambda h: {k: v for k, v in h.items() if k != "manifest"}, "manifest"),
        (lambda h: {**h, "variant": "imgsen"}, "variant"),
        (lambda h: [h], "header"),
        (lambda h: {**h, "manifest": [{**h["manifest"][0], "shape": [-1, 4]}]
                    + h["manifest"][1:]}, "shape [-1, 4]"),
        (lambda h: {**h, "manifest": h["manifest"][:-1]}, "lacks tensor 'head.sentiment.w2'"),
        (lambda h: {**h, "manifest": h["manifest"] + [{"name": "head.extra.w", "shape": [0]}]},
         "unexpected tensor 'head.extra.w'"),
        (lambda h: {**h, "manifest": h["manifest"][:-1]
                    + [{**h["manifest"][-1], "shape": h["manifest"][-1]["shape"][::-1]}]},
         "tensor 'head.sentiment.w2' has shape"),
        (lambda h: {**h, "variant": {**h["variant"], "bilstm_layers": 10**9}},
         "lacks tensor 'bilstm.2.wx'"),
        (lambda h: {**h, "seed": -1}, "field 'seed' must be a non-negative integer"),
        (lambda h: {**h, "epoch": -1}, "field 'epoch' must be a non-negative integer"),
        (_per_direction_manifest, "lacks tensor 'bilstm.0.wx'"),
    ], ids=["extra-variant-key", "no-manifest", "variant-string", "list-header",
            "negative-shape", "missing-tensor", "unexpected-tensor", "wrong-shape",
            "absurd-layer-count", "negative-seed", "negative-epoch", "per-direction-layout"])
    def test_malformed_checkpoint_header_exits_2(self, small_csv, trained, tmp_path,
                                                 capsys, defect, field):
        header_line, blob = trained.read_bytes().split(b"\n", 1)
        header = defect(json.loads(header_line))
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + blob)
        rc = cli.main(["eval", "--dataset", str(small_csv), "--checkpoint", str(bad)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and field in err
        assert "Traceback" not in err

    def test_non_finite_tensor_exits_2(self, small_csv, trained, tmp_path, capsys):
        header_line, blob = trained.read_bytes().split(b"\n", 1)
        first = json.loads(header_line)["manifest"][0]["name"]
        bad = tmp_path / "nan.ckpt"
        bad.write_bytes(header_line + b"\n" + np.float32(np.nan).tobytes() + blob[4:])
        rc = cli.main(["eval", "--dataset", str(small_csv), "--checkpoint", str(bad)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and f"tensor {first!r} holds a non-finite" in err
        assert "Traceback" not in err

    def test_non_finite_features_exit_3(self, small_csv, trained, capsys, monkeypatch):
        real = cli._corpus_blocks

        def poisoned(*args):
            shape, blocks = real(*args)
            first = next(blocks)
            first[1, 0, 0] = np.nan
            return shape, itertools.chain([first], blocks)

        monkeypatch.setattr(cli, "_corpus_blocks", poisoned)
        rc = cli.main(["eval", "--dataset", str(small_csv), "--checkpoint", str(trained)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error: ") and "row 1" in err
        assert "Traceback" not in err


# a header whose last column is the text, so a row without it is a short row
_PART_HEADER = ("image_name", "humour", "sarcasm", "motivational", "overall_sentiment", "text")
_PART_LEVELS = (("funny", "not_funny", "very_funny"), ("sarcastic", "not_sarcastic"),
                ("motivational", "not_motivational"), ("positive", "negative", "neutral"))


def _part_rows(n):
    """``n`` rows in _PART_HEADER order; every fourth one has no text."""
    rows = []
    for i in range(n):
        labels = tuple(levels[(i * (t + 2)) % len(levels)]
                       for t, levels in enumerate(_PART_LEVELS))
        rows.append((f"m{i:03d}.jpg", *labels) + (() if i % 4 == 3 else (f"text {i}",)))
    return rows


def _write_part_file(path, rows):
    """``rows`` as CSV or JSON lines, by the suffix, with blank lines among them."""
    lines = [] if path.suffix == ".jsonl" else [",".join(_PART_HEADER)]
    for i, row in enumerate(rows):
        if i % 5 == 2:
            lines.append("")
        lines.append(json.dumps(dict(zip(_PART_HEADER, row))) if path.suffix == ".jsonl"
                     else ",".join(row))
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    return path


def _part_args(path):
    return cli.build_parser().parse_args(["eval", "--dataset", str(path), "--checkpoint", "x"])


class TestSplitPart:
    """train and eval build records for the rows of their split part only."""

    @pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
    def test_parts_are_those_of_the_loaded_file(self, tmp_path, suffix):
        from memefuse import bundled_data
        from memefuse.dataset import Schema, load_dataset, split

        path = _write_part_file(tmp_path / f"memes{suffix}", _part_rows(23))
        loaded = load_dataset(path, Schema.from_json(bundled_data("memotion_schema.json")))
        assert len(loaded) == 23 and any(r.text == "" for r in loaded)
        for seed in range(10):
            expected = split(loaded, cli.SPLIT_RATIO, seed)
            for part in ("train", "test"):
                records, tokens_by_id = cli._split_tokens(_part_args(path), seed, part)
                assert records == getattr(expected, part), (seed, part)
                assert list(tokens_by_id) == [r.id for r in records]

    @pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
    @pytest.mark.parametrize("rows", [0, 1])
    def test_too_few_rows_exit_2(self, tmp_path, capsys, suffix, rows):
        path = _write_part_file(tmp_path / f"memes{suffix}", _part_rows(rows))
        assert cli.main(["train", "--dataset", str(path), "--variant", "imgsen",
                         "--checkpoint", str(tmp_path / "x.ckpt")]) == 2
        assert capsys.readouterr().err == "error: need at least 2 records to split\n"

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("part", ["train", "test"])
    def test_malformed_row_in_either_part_exits_2_naming_it(self, trained, tmp_path, capsys,
                                                            command, part):
        from memefuse.dataset import split

        # trained's checkpoint and the train command below both split with seed 3
        bad = getattr(split(range(20), cli.SPLIT_RATIO, 3), part)[0]
        rows = _part_rows(20)
        rows[bad] = (rows[bad][0], "kinda_funny", *rows[bad][2:])
        path = _write_part_file(tmp_path / "memes.csv", rows)
        argv = (["train", "--dataset", str(path), "--variant", "imgsen", "--seed", "3",
                 "--checkpoint", str(tmp_path / "x.ckpt")] if command == "train"
                else ["eval", "--dataset", str(path), "--checkpoint", str(trained)])
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == \
            f"error: row {bad}: unmappable humor label 'kinda_funny'\n"
        assert not (tmp_path / "x.ckpt").exists()

    @pytest.mark.parametrize("change, message", [
        (lambda rows: rows + _part_rows(21)[20:], "20 data rows, then 21"),
        (lambda rows: rows[:-1], "20 data rows, then 19"),
        (lambda rows: rows[:4] + [(rows[4][0], "kinda_funny", *rows[4][2:])] + rows[5:],
         "row 4: unmappable humor label 'kinda_funny'"),
        (lambda rows: [], "20 data rows, then 0"),
    ], ids=["grown", "shrunk", "row-broken", "emptied"])
    def test_file_changed_between_reads_exits_2(self, tmp_path, capsys, monkeypatch,
                                                change, message):
        path = _write_part_file(tmp_path / "memes.csv", _part_rows(20))
        counting = cli.count_records

        def changing(*args):
            rows = counting(*args)
            _write_part_file(path, change(_part_rows(20)))
            return rows

        monkeypatch.setattr(cli, "count_records", changing)
        assert cli.main(["train", "--dataset", str(path), "--variant", "imgsen",
                         "--checkpoint", str(tmp_path / "x.ckpt")]) == 2
        assert capsys.readouterr().err == \
            f"error: {path} changed while it was read: {message}\n"

    @pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="no /dev/fd to name a pipe by")
    def test_pipe_exits_2_before_it_is_read(self, tmp_path, capsys):
        # were it read, the first read would drain it and the second find no
        # header; a FIFO's second open would block for a writer instead
        content = _write_part_file(tmp_path / "memes.csv", _part_rows(20)).read_bytes()
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, content)
            os.close(write_end)
            rc = cli.main(["train", "--dataset", f"/dev/fd/{read_end}", "--variant", "imgsen",
                           "--checkpoint", str(tmp_path / "x.ckpt")])
            assert os.read(read_end, len(content)) == content
        finally:
            os.close(read_end)
        assert rc == 2
        assert capsys.readouterr().err == (f"error: dataset /dev/fd/{read_end} is not a "
                                           "regular file: train and eval read it twice\n")

    def test_only_the_parts_rows_become_records(self, tmp_path, monkeypatch):
        from memefuse import dataset

        path = tmp_path / "memes.csv"
        write_annotation_fixture(path, _tallies(200))
        built = []
        record = dataset.MemeRecord

        def counting(**fields):
            built.append(fields["id"])
            return record(**fields)

        monkeypatch.setattr(dataset, "MemeRecord", counting)
        for part, size in (("test", 40), ("train", 160)):
            built.clear()
            records, _ = cli._split_tokens(_part_args(path), 5, part)
            assert len(records) == size
            assert sorted(built) == sorted(r.id for r in records)

    def test_peak_memory_follows_the_part_not_the_file(self, tmp_path):
        # the held-out fifth of a 4000-row file, against the records of the
        # whole file, which eval held before it built the part's alone
        import tracemalloc

        from memefuse import bundled_data
        from memefuse.dataset import Schema, load_dataset

        path = tmp_path / "memes.csv"
        write_annotation_fixture(path, _tallies(4000))
        args = _part_args(path)
        cli._preprocess_config(args)  # warm up one-time imports and caches
        peaks = []
        for load in (lambda: load_dataset(path, Schema.from_json(
                         bundled_data("memotion_schema.json"))),
                     lambda: cli._split_tokens(args, 0, "test")):
            tracemalloc.start()
            try:
                load()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # 0.42 here, 1.10 when every row became a record first
        assert peaks[1] <= 0.6 * peaks[0], peaks


class TestEmbeddingsPath:
    def test_train_and_eval_with_imported_vectors(self, small_csv, tmp_path, capsys):
        # exchange files drive capsen end to end without the toy encoders
        from memefuse.dataset import Schema, load_dataset
        from memefuse import bundled_data
        from memefuse.tensorfile import export_embeddings

        records = load_dataset(small_csv, Schema.from_json(
            bundled_data("memotion_schema.json")))
        rng = np.random.default_rng(0)
        ids = [r.id for r in records]
        emb = tmp_path / "emb"
        emb.mkdir()
        export_embeddings(emb / "text_sentence.emb",
                          {rid: rng.normal(size=12).astype(np.float32) for rid in ids},
                          kind="vector")
        export_embeddings(emb / "caption_sentence.emb",
                          {rid: rng.normal(size=12).astype(np.float32) for rid in ids},
                          kind="vector")
        ckpt = tmp_path / "cap.ckpt"
        rc = cli.main(["train", "--dataset", str(small_csv), "--variant", "capsen",
                       "--epochs", "2", "--checkpoint", str(ckpt),
                       "--embeddings", str(emb)])
        assert rc == 0
        capsys.readouterr()  # drop the train summary
        rc = cli.main(["eval", "--dataset", str(small_csv), "--checkpoint", str(ckpt),
                       "--embeddings", str(emb), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, REPORT_SCHEMA)

    def test_eval_features_of_another_width_exit_2(self, small_csv, tmp_path, capsys):
        # trained on 12-wide imported vectors, evaluated on the toy encoders'
        # 768-wide ones: the checkpoint and both widths are named
        from memefuse.dataset import Schema, load_dataset
        from memefuse import bundled_data
        from memefuse.tensorfile import export_embeddings

        records = load_dataset(small_csv, Schema.from_json(
            bundled_data("memotion_schema.json")))
        rng = np.random.default_rng(0)
        emb = tmp_path / "emb"
        emb.mkdir()
        for name in ("text_sentence", "caption_sentence"):
            export_embeddings(emb / f"{name}.emb",
                              {r.id: rng.normal(size=12).astype(np.float32) for r in records},
                              kind="vector")
        ckpt = tmp_path / "cap.ckpt"
        assert cli.main(["train", "--dataset", str(small_csv), "--variant", "capsen",
                         "--epochs", "1", "--checkpoint", str(ckpt),
                         "--embeddings", str(emb)]) == 0
        capsys.readouterr()  # drop the train summary
        rc = cli.main(["eval", "--dataset", str(small_csv), "--checkpoint", str(ckpt)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: checkpoint {ckpt} takes features of width 12; "
                                "eval built features of width 768\n")

    @pytest.mark.parametrize("variant, exchange, kind, shape", [
        ("capsen", "text_sentence", "sequence", (3, 12)),
        ("imgsen", "image", "vector", (12,)),
    ])
    def test_exchange_file_must_fit_its_role_exits_2(self, small_csv, tmp_path, capsys,
                                                     variant, exchange, kind, shape):
        # a sequence file where one vector per record belongs (and the reverse)
        # used to fuse into longer or shorter inputs and train without complaint
        from memefuse.dataset import Schema, load_dataset
        from memefuse import bundled_data
        from memefuse.tensorfile import export_embeddings

        records = load_dataset(small_csv, Schema.from_json(
            bundled_data("memotion_schema.json")))
        rng = np.random.default_rng(1)
        emb = tmp_path / "emb"
        emb.mkdir()
        files = {"capsen": {"caption_sentence": ("vector", (12,)),
                            "text_sentence": ("vector", (12,))},
                 "imgsen": {"image": ("sequence", (4, 12)),
                            "text_sentence": ("vector", (12,))}}[variant]
        files[exchange] = (kind, shape)
        for name, (file_kind, file_shape) in files.items():
            export_embeddings(emb / f"{name}.emb",
                              {r.id: rng.normal(size=file_shape) for r in records},
                              kind=file_kind)
        rc = cli.main(["train", "--dataset", str(small_csv), "--variant", variant,
                       "--epochs", "1", "--checkpoint", str(tmp_path / "x.ckpt"),
                       "--embeddings", str(emb)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {exchange} embeddings: record ")
        assert f"has shape {shape}" in err
        assert "Traceback" not in err

    def test_overflowing_imported_vectors_train_without_a_warning(self, small_csv, tmp_path,
                                                                   capsys):
        # 3.4e38 is finite, so the exchange reader takes it, and the trunk's
        # input GEMM overflows on it; that used to escape train as a
        # RuntimeWarning.  The gates saturate the overflow away and the loss,
        # gradients and parameters stay finite, so train exits 0
        from memefuse.dataset import Schema, load_dataset
        from memefuse import bundled_data
        from memefuse.tensorfile import export_embeddings

        records = load_dataset(small_csv, Schema.from_json(
            bundled_data("memotion_schema.json")))
        rng = np.random.default_rng(0)
        emb = tmp_path / "emb"
        emb.mkdir()
        for name in ("caption_sentence", "text_sentence"):
            vectors = {r.id: rng.normal(size=12).astype(np.float32) for r in records}
            if name == "text_sentence":
                for r in records[:3]:
                    vectors[r.id] = np.full(12, 3.4e38, dtype=np.float32)
            export_embeddings(emb / f"{name}.emb", vectors, kind="vector")
        ckpt = tmp_path / "x.ckpt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["train", "--dataset", str(small_csv), "--variant", "capsen",
                           "--epochs", "1", "--checkpoint", str(ckpt),
                           "--embeddings", str(emb)])
        assert (rc, capsys.readouterr().err) == (0, "")
        assert ckpt.exists()

    def test_missing_required_embedding_file_exits_2(self, small_csv, tmp_path, capsys):
        emb = tmp_path / "emb"
        emb.mkdir()
        rc = cli.main(["train", "--dataset", str(small_csv), "--variant", "imgtxt",
                       "--epochs", "1", "--checkpoint", str(tmp_path / "x.ckpt"),
                       "--embeddings", str(emb)])
        assert rc == 2
        assert "image.emb" in capsys.readouterr().err

    def test_exchange_files_the_variant_does_not_fuse_are_not_read(self, small_csv, tmp_path,
                                                                   capsys):
        from memefuse.dataset import Schema, load_dataset
        from memefuse import bundled_data
        from memefuse.tensorfile import export_embeddings

        records = load_dataset(small_csv, Schema.from_json(
            bundled_data("memotion_schema.json")))
        rng = np.random.default_rng(2)
        emb = tmp_path / "emb"
        emb.mkdir()
        export_embeddings(emb / "image.emb",
                          {r.id: rng.normal(size=(4, 12)) for r in records}, kind="sequence")
        export_embeddings(emb / "tokens.emb",
                          {r.id: rng.normal(size=(3, 12)) for r in records}, kind="sequence")
        # a header that promises a record the file lacks
        (emb / "caption_sentence.emb").write_text(json.dumps(
            {"format": "memefuse-embeddings", "kind": "vector", "d": 12,
             "manifest": [{"name": "x", "shape": [12]}]}) + "\n")
        rc = cli.main(["train", "--dataset", str(small_csv), "--variant", "imgtxt",
                       "--epochs", "1", "--checkpoint", str(tmp_path / "x.ckpt"),
                       "--embeddings", str(emb)])
        assert rc == 0, capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("variant, files, message", [
        ("imgtxt", {"image": ("sequence", (0, 8)), "tokens": ("sequence", (0, 8))},
         "image and tokens embeddings hold no rows for any record"),
        ("imgsen", {"image": ("sequence", (3, 0)), "text_sentence": ("vector", (0,))},
         "image embeddings have width 0"),
    ], ids=["no-rows", "zero-width"])
    def test_nothing_to_fuse_exits_2_naming_the_file(self, small_csv, tmp_path, capsys,
                                                     command, variant, files, message):
        # both used to fail inside the k-NN table or the classifier, mostly
        # with a traceback, and never named the file
        from memefuse.dataset import Schema, load_dataset
        from memefuse import bundled_data
        from memefuse.tensorfile import export_embeddings
        from memefuse.model import ModelVariant, init_classifier_params, save_checkpoint

        records = load_dataset(small_csv, Schema.from_json(
            bundled_data("memotion_schema.json")))
        emb = tmp_path / "emb"
        emb.mkdir()
        for name, (kind, shape) in files.items():
            export_embeddings(emb / f"{name}.emb",
                              {r.id: np.zeros(shape) for r in records}, kind=kind)
        ckpt = tmp_path / "x.ckpt"
        if command == "train":
            args = ["--variant", variant, "--epochs", "1"]
        else:
            model = ModelVariant(kind=variant)
            save_checkpoint(ckpt, model,
                            init_classifier_params(model, 8, np.random.default_rng(0)),
                            seed=0, epoch=1)
            args = []
        rc = cli.main([command, "--dataset", str(small_csv), "--checkpoint", str(ckpt),
                       "--embeddings", str(emb), *args])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def _tallies(rows):
    """Column tallies of a fixture with ``rows`` rows (a multiple of 20)."""
    return {"humour": (("funny", rows // 2), ("not_funny", rows // 4),
                       ("very_funny", rows // 4)),
            "sarcasm": (("sarcastic", 3 * rows // 5), ("not_sarcastic", 2 * rows // 5)),
            "motivational": (("motivational", 2 * rows // 5),
                             ("not_motivational", 3 * rows // 5)),
            "overall_sentiment": (("positive", 2 * rows // 5), ("negative", 2 * rows // 5),
                                  ("neutral", rows // 5))}


@pytest.fixture(scope="module")
def streamed(tmp_path_factory):
    """A 100-row file (20 held-out rows), a 1-epoch checkpoint of each
    variant, and one of imgtxt on imported image and tokens sequences."""
    from memefuse import bundled_data
    from memefuse.dataset import Schema, load_dataset
    from memefuse.tensorfile import export_embeddings

    root = tmp_path_factory.mktemp("stream")
    data = root / "memes.csv"
    write_annotation_fixture(data, _tallies(100))
    ids = [r.id for r in load_dataset(data, Schema.from_json(
        bundled_data("memotion_schema.json")))]
    rng = np.random.default_rng(4)
    seq = root / "seq"
    seq.mkdir()
    export_embeddings(seq / "image.emb", {rid: rng.normal(size=(4, 16)) for rid in ids},
                      kind="sequence")
    export_embeddings(seq / "tokens.emb",
                      {rid: rng.normal(size=(int(rng.integers(1, 6)), 24)) for rid in ids},
                      kind="sequence")
    runs = {}
    for name, variant, extra in [("imgtxt", "imgtxt", []), ("imgsen", "imgsen", []),
                                 ("capsen", "capsen", []),
                                 ("imgtxt-embeddings", "imgtxt", ["--embeddings", str(seq)])]:
        ckpt = root / f"{name}.ckpt"
        with warnings.catch_warnings():
            rc = cli.main(["train", "--dataset", str(data), "--variant", variant, "--epochs", "1",
                           "--checkpoint", str(ckpt), *extra])
        assert rc == 0
        runs[name] = ["--dataset", str(data), "--checkpoint", str(ckpt), *extra]
    return runs


class TestEvalStream:
    """eval encodes, fuses and scores its split one block at a time."""

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        # 3-record blocks in 7-record text chunks, scored in 5-row groups:
        # every boundary falls inside the 20 held-out rows, and no two agree
        from memefuse import model, pipeline

        monkeypatch.setattr(pipeline, "IMAGE_BLOCK", 3)
        monkeypatch.setattr(pipeline, "ENCODE_CHUNK", 7)
        monkeypatch.setattr(model, "PREDICT_CHUNK", 5)

    @pytest.mark.parametrize("name", ["imgtxt", "imgsen", "capsen", "imgtxt-embeddings"])
    def test_report_is_that_of_the_whole_tensor(self, streamed, name, small_blocks,
                                                capsys, monkeypatch):
        from memefuse import TASKS
        from memefuse.evalmetrics import build_report
        from memefuse.model import load_checkpoint, predict_proba
        from memefuse.pipeline import labels_from_records

        scored = []
        predict_blocks = cli.predict_blocks

        def recording(*args):
            scored.append(predict_blocks(*args))
            return scored[-1]

        monkeypatch.setattr(cli, "predict_blocks", recording)
        assert cli.main(["eval", *streamed[name], "--json"]) == 0
        streamed_out = capsys.readouterr().out

        variant, params, meta = load_checkpoint(streamed[name][3])
        args = cli.build_parser().parse_args(["eval", *streamed[name]])
        records, tokens_by_id = cli._split_tokens(args, meta["seed"], "test")
        _, blocks = cli._corpus_blocks(records, tokens_by_id, variant.kind, args, meta["seed"])
        features = np.concatenate(list(blocks))
        assert len(features) == 20
        probs = predict_proba(variant, features, params)
        report = build_report({variant.kind: {t: np.argmax(probs[t], axis=1) for t in TASKS}},
                              labels_from_records(records))
        assert streamed_out == json.dumps(report.to_json(), indent=2) + "\n"
        (got,) = scored
        for task in TASKS:
            assert got[task].tobytes() == probs[task].tobytes(), task

    def test_non_finite_feature_in_a_later_block_names_its_split_row(self, streamed,
                                                                     small_blocks, capsys,
                                                                     monkeypatch):
        real = cli._corpus_blocks

        def poisoned(*args):
            shape, blocks = real(*args)

            def poisoning():
                # blocks hold split rows 0-2, 3-5, 6 (a chunk's last), 7-9, ...
                for k, block in enumerate(blocks):
                    if k == 3:
                        block[1, 0, 0] = np.nan
                    yield block

            return shape, poisoning()

        monkeypatch.setattr(cli, "_corpus_blocks", poisoned)
        assert cli.main(["eval", *streamed["imgsen"]]) == 3
        assert capsys.readouterr().err == "error: non-finite feature in row 8\n"

    def test_width_mismatch_exits_2_before_a_block_is_encoded(self, streamed, capsys,
                                                              monkeypatch):
        drawn = []
        real = cli._corpus_blocks

        def counting(*args):
            shape, blocks = real(*args)
            return (shape[0], shape[1] + 1), (drawn.append(block) or block for block in blocks)

        monkeypatch.setattr(cli, "_corpus_blocks", counting)
        assert cli.main(["eval", *streamed["capsen"]]) == 2
        assert "takes features of width 768; eval built features of width 769" in \
            capsys.readouterr().err
        assert not drawn

    @pytest.mark.parametrize("variant", ["imgtxt", "imgsen", "capsen"])
    def test_peak_memory_does_not_grow_with_the_split(self, streamed, variant, tmp_path,
                                                      capsys):
        # 256 and 1024 held-out rows; holding the split's features, as eval
        # did before it streamed them, took imgtxt's and capsen's peaks up
        # 1.5-1.7 times
        import tracemalloc

        peaks = []
        for rows in (1280, 5120):
            data = tmp_path / f"{rows}.csv"
            write_annotation_fixture(data, _tallies(rows))
            tracemalloc.start()
            try:
                assert cli.main(["eval", "--dataset", str(data),
                                 "--checkpoint", streamed[variant][3]]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        capsys.readouterr()
        assert peaks[1] <= 1.3 * peaks[0], peaks
