"""Annotation ingestion: schema mapping, label collapse, tallies, splitting."""

import json

import numpy as np
import pytest

from memefuse import TASKS, bundled_data
from memefuse.dataset import (
    DEFAULT_COLUMNS,
    MemeRecord,
    RowError,
    Schema,
    SchemaError,
    load_dataset,
    raw_tallies,
    split,
)
from memefuse.fixtures import FULL_TALLIES, write_annotation_fixture


def _schema():
    return Schema.from_json(bundled_data("memotion_schema.json"))


def _write_csv(path, rows, header=None):
    header = header or ("image_name", "text", "humour", "sarcasm",
                       "motivational", "overall_sentiment")
    lines = [",".join(header)]
    lines += [",".join(r) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


GOOD_ROW = ("img_1.jpg", "hello world", "funny", "sarcastic",
            "motivational", "positive")


class TestSchema:
    def test_bundled_schema_loads(self):
        schema = _schema()
        assert schema.columns == dict(DEFAULT_COLUMNS)
        for task in TASKS:
            assert schema.labels[task]

    def test_missing_label_table_rejected(self):
        with pytest.raises(SchemaError):
            Schema(labels={"humor": {"funny": "funny"}})

    def test_label_table_to_unknown_class_rejected(self):
        schema = _schema()
        bad = {t: dict(schema.labels[t]) for t in TASKS}
        bad["humor"]["funny"] = "hilarious"
        with pytest.raises(SchemaError):
            Schema(labels=bad)

    def test_column_remap_from_json(self, tmp_path):
        spec = {"columns": {"id": "pic"}, "labels": _schema().labels}
        cfg = tmp_path / "schema.json"
        cfg.write_text(json.dumps(spec), encoding="utf-8")
        schema = Schema.from_json(cfg)
        assert schema.columns["id"] == "pic"
        assert schema.columns["text"] == "text"


class TestLoadDataset:
    def test_basic_row(self, tmp_path):
        path = _write_csv(tmp_path / "a.csv", [GOOD_ROW])
        records = load_dataset(path, _schema())
        assert len(records) == 1
        rec = records[0]
        assert rec.id == "img_1.jpg"
        assert rec.text == "hello world"
        assert rec.labels["humor"] == "funny"
        assert rec.labels["sentiment"] == "positive"

    def test_multi_level_labels_collapse(self, tmp_path):
        row = ("a.jpg", "t", "very_funny", "not_sarcastic",
               "not_motivational", "neutral")
        path = _write_csv(tmp_path / "a.csv", [row])
        rec = load_dataset(path, _schema())[0]
        assert rec.labels["humor"] == "funny"
        assert rec.labels["sarcasm"] == "not_sarcastic"

    def test_empty_file_with_header(self, tmp_path):
        path = _write_csv(tmp_path / "a.csv", [])
        assert load_dataset(path, _schema()) == []

    def test_empty_text_kept(self, tmp_path):
        row = ("a.jpg", "", "funny", "sarcastic", "motivational", "positive")
        path = _write_csv(tmp_path / "a.csv", [row])
        assert load_dataset(path, _schema())[0].text == ""

    def test_blank_lines_skipped_and_not_counted(self, tmp_path):
        bad = ("b.jpg", "t", "maybe_funny", "sarcastic", "motivational", "positive")
        path = _write_csv(tmp_path / "a.csv", [(), GOOD_ROW, (), ()])
        assert [r.id for r in load_dataset(path, _schema())] == ["img_1.jpg"]
        path = _write_csv(tmp_path / "b.csv", [(), GOOD_ROW, (), bad])
        with pytest.raises(RowError, match="^row 1: unmappable humor"):
            load_dataset(path, _schema())

    def test_short_row_names_the_missing_label_column(self, tmp_path):
        path = _write_csv(tmp_path / "a.csv", [GOOD_ROW, GOOD_ROW[:4]])
        with pytest.raises(RowError,
                           match="^row 1: missing value for column 'motivational'$"):
            load_dataset(path, _schema())

    def test_short_row_without_text_reads_empty_text(self, tmp_path):
        header = ("image_name", "humour", "sarcasm", "motivational",
                  "overall_sentiment", "text")
        path = _write_csv(tmp_path / "a.csv", [GOOD_ROW[:1] + GOOD_ROW[2:]], header=header)
        assert load_dataset(path, _schema())[0].text == ""

    def test_extra_fields_ignored(self, tmp_path):
        path = _write_csv(tmp_path / "a.csv", [GOOD_ROW + ("extra", "more")])
        rec = load_dataset(path, _schema())[0]
        assert (rec.id, rec.text, rec.labels["sentiment"]) == ("img_1.jpg", "hello world",
                                                              "positive")

    def test_duplicate_header_name_takes_the_last_column(self, tmp_path):
        header = ("image_name", "text", "humour", "sarcasm", "motivational",
                  "overall_sentiment", "text")
        path = _write_csv(tmp_path / "a.csv",
                          [GOOD_ROW + ("second",), ("b.jpg",) + GOOD_ROW[1:]], header=header)
        # a row too short for the last occurrence reads it as missing
        assert [r.text for r in load_dataset(path, _schema())] == ["second", ""]

    def test_missing_column_names_it(self, tmp_path):
        path = _write_csv(tmp_path / "a.csv", [GOOD_ROW[:5]],
                          header=("image_name", "text", "humour", "sarcasm",
                                  "motivational"))
        with pytest.raises(SchemaError, match="overall_sentiment"):
            load_dataset(path, _schema())

    def test_unmappable_label_reports_row(self, tmp_path):
        bad = ("b.jpg", "t", "maybe_funny", "sarcastic",
               "motivational", "positive")
        path = _write_csv(tmp_path / "a.csv", [GOOD_ROW, bad])
        with pytest.raises(RowError, match="row 1"):
            load_dataset(path, _schema())

    def test_duplicate_id_rejected(self, tmp_path):
        path = _write_csv(tmp_path / "a.csv", [GOOD_ROW, GOOD_ROW])
        with pytest.raises(RowError, match="duplicate"):
            load_dataset(path, _schema())

    def test_jsonl_input(self, tmp_path):
        path = tmp_path / "a.jsonl"
        row = {"image_name": "j.jpg", "text": "yo", "humour": "funny",
               "sarcasm": "sarcastic", "motivational": "motivational",
               "overall_sentiment": "negative"}
        path.write_text(json.dumps(row) + "\n", encoding="utf-8")
        records = load_dataset(path, _schema())
        assert records[0].id == "j.jpg"
        assert records[0].labels["sentiment"] == "negative"

    def test_jsonl_byte_order_mark_ignored(self, tmp_path):
        path = tmp_path / "a.jsonl"
        row = {"image_name": "j.jpg", "text": "yo", "humour": "funny",
               "sarcasm": "sarcastic", "motivational": "motivational",
               "overall_sentiment": "negative"}
        path.write_text("\ufeff" + json.dumps(row) + "\n", encoding="utf-8")
        assert load_dataset(path, _schema())[0].id == "j.jpg"

    @pytest.mark.parametrize("line", ["123", "null", '"s"', "[1]"])
    def test_jsonl_row_not_an_object_rejected(self, tmp_path, line):
        path = tmp_path / "a.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(RowError, match="row 0: expected a JSON object"):
            load_dataset(path, _schema())


def _records(n, cls_of):
    """n records whose labels come from cls_of(i) -> (humor, sarcasm, mot, sent)."""
    out = []
    for i in range(n):
        h, s, m, o = cls_of(i)
        out.append(MemeRecord(id=str(i), text="",
                              labels={"humor": h, "sarcasm": s,
                                      "motivation": m, "sentiment": o}))
    return out


class TestDistributions:
    def test_even_synthetic_counts(self, tmp_path):
        rows = [(f"{i}.jpg", "t", "funny" if i < 5 else "not_funny", "sarcastic",
                 "motivational", "positive") for i in range(10)]
        tallies = raw_tallies(_write_csv(tmp_path / "a.csv", rows), _schema())
        assert tallies["humor"] == {"funny": 5, "not_funny": 5, "very_funny": 0}
        assert sum(tallies["humor"].values()) == 10

    def test_counts_sum_to_n(self, tmp_path):
        rng = np.random.default_rng(0)
        picks = rng.integers(0, 3, size=37)
        sent = ("positive", "neutral", "negative")
        rows = [(f"{i}.jpg", "t", "funny", "sarcastic", "motivational", sent[p])
                for i, p in enumerate(picks)]
        tallies = raw_tallies(_write_csv(tmp_path / "a.csv", rows), _schema())
        assert all(sum(counts.values()) == 37 for counts in tallies.values())

    def test_empty_records_rejected(self, tmp_path):
        path = _write_csv(tmp_path / "empty.csv", [])
        with pytest.raises(ValueError, match="empty"):
            raw_tallies(path, _schema())

    def test_raw_distribution_keeps_declared_levels(self, tmp_path):
        rows = [
            ("a.jpg", "t", "very_funny", "sarcastic", "motivational", "positive"),
            ("b.jpg", "t", "funny", "sarcastic", "motivational", "negative"),
        ]
        path = _write_csv(tmp_path / "a.csv", rows)
        tallies = raw_tallies(path, _schema())
        # tasks in TASKS order; levels in declared order, zero-count levels included
        assert list(tallies) == list(TASKS)
        assert list(tallies["humor"]) == ["funny", "not_funny", "very_funny"]
        assert tallies["humor"] == {"funny": 1, "not_funny": 0, "very_funny": 1}
        assert tallies["sentiment"] == {"positive": 1, "negative": 1, "neutral": 0}


class TestSplit:
    def _many(self, n):
        return _records(n, lambda i: ("funny", "sarcastic", "motivational",
                                      "positive"))

    def test_eighty_twenty_on_ten(self):
        out = split(self._many(10), 0.8, seed=1)
        assert len(out.train) == 8
        assert len(out.test) == 2

    def test_floor_arithmetic_full_scale(self):
        out = split(self._many(6992), 0.8, seed=0)
        assert len(out.train) == 5593
        assert len(out.test) == 1399

    def test_partition_multiset(self):
        recs = self._many(23)
        out = split(recs, 0.6, seed=3)
        ids = sorted(r.id for r in out.train + out.test)
        assert ids == sorted(r.id for r in recs)
        assert not set(r.id for r in out.train) & set(r.id for r in out.test)

    def test_deterministic(self):
        recs = self._many(40)
        a = split(recs, 0.8, seed=9)
        b = split(recs, 0.8, seed=9)
        assert [r.id for r in a.train] == [r.id for r in b.train]
        assert [r.id for r in a.test] == [r.id for r in b.test]

    def test_seed_changes_shuffle(self):
        recs = self._many(40)
        a = split(recs, 0.8, seed=1)
        b = split(recs, 0.8, seed=2)
        assert [r.id for r in a.train] != [r.id for r in b.train]

    def test_bad_ratio_rejected(self):
        recs = self._many(4)
        for ratio in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                split(recs, ratio, seed=0)


class TestFixtureFile:
    def test_full_fixture_round_trip(self, tmp_path):
        path = tmp_path / "memotion.csv"
        n = write_annotation_fixture(path)
        assert n == 6992
        records = load_dataset(path, _schema())
        assert len(records) == 6992
        tallies = raw_tallies(path, _schema())
        for column, levels in FULL_TALLIES.items():
            task = {v: k for k, v in DEFAULT_COLUMNS.items()}[column]
            assert tallies[task] == dict(levels)

    def test_collapsed_humor_counts(self, tmp_path):
        path = tmp_path / "memotion.csv"
        write_annotation_fixture(path)
        records = load_dataset(path, _schema())
        funny = sum(r.labels["humor"] == "funny" for r in records)
        assert (funny, len(records) - funny) == (4160 + 2201, 631)

    def test_mismatched_tallies_rejected(self, tmp_path):
        bad = {"humour": (("funny", 2),), "sarcasm": (("sarcastic", 3),),
               "motivational": (("motivational", 2),),
               "overall_sentiment": (("positive", 2),)}
        with pytest.raises(ValueError, match="disagree"):
            write_annotation_fixture(tmp_path / "x.csv", bad)
