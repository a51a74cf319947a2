"""Seeded annotation files for the benchmark workloads.

A workload file is the Memotion fixture scaled to a row count: every
column keeps its class ratios and all columns keep one row total.  The
seed shuffles each label column independently, so the joint label
distribution (and with it the train split's per-task tallies) varies
by seed while every column tally stays fixed.

Texts come in two modes:

* ``shared``: the fixture's own texts ("sample meme text N"), which all
  preprocess to one token tuple, so an encode cache would hit on every
  row;
* ``distinct``: seeded draws of 6-12 words from the bundled vocabulary,
  about one distinct token tuple per row, so such a cache never hits.
"""

from __future__ import annotations

import csv
import random
from pathlib import Path

from memefuse import bundled_data
from memefuse.fixtures import FULL_TALLIES, write_annotation_fixture

LABEL_COLUMNS = tuple(FULL_TALLIES)
TEXT_MODES = ("shared", "distinct")


def scaled_tallies(rows: int, full: dict = FULL_TALLIES) -> dict:
    """Per-column tallies for ``rows`` rows with the ratios of ``full``.

    Each count is the largest-remainder rounding of its exact share, so
    every column sums to ``rows`` and a level with a zero count stays
    zero.
    """
    if rows < 1:
        raise ValueError("rows must be >= 1")
    out = {}
    for column, levels in full.items():
        total = sum(count for _, count in levels)
        exact = [count * rows / total for _, count in levels]
        counts = [int(x) for x in exact]
        by_remainder = sorted(range(len(levels)), key=lambda i: counts[i] - exact[i])
        for i in by_remainder[:rows - sum(counts)]:
            counts[i] += 1
        out[column] = tuple((level, c) for (level, _), c in zip(levels, counts))
    return out


def _vocabulary() -> list[str]:
    with open(bundled_data("vocabulary.txt"), encoding="utf-8") as fh:
        return sorted({line.strip() for line in fh if line.strip()})


def write_workload_file(path, rows: int, texts: str, seed: int) -> dict:
    """Write the seeded workload file; returns the tallies it was built from."""
    if texts not in TEXT_MODES:
        raise ValueError(f"texts must be one of {TEXT_MODES}, got {texts!r}")
    tallies = scaled_tallies(rows)
    path = Path(path)
    write_annotation_fixture(path, tallies)
    with open(path, encoding="utf-8", newline="") as fh:
        header, *body = list(csv.reader(fh))
    rng = random.Random(f"perfbench.inputs.{seed}")
    for column in LABEL_COLUMNS:
        at = header.index(column)
        values = [row[at] for row in body]
        rng.shuffle(values)
        for row, value in zip(body, values):
            row[at] = value
    if texts == "distinct":
        words = _vocabulary()
        at = header.index("text")
        for row in body:
            row[at] = " ".join(rng.choices(words, k=rng.randint(6, 12)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([header, *body])
    return tallies
