"""Output checks for the benchmark's CLI invocations.

Every invocation the benchmark times is one attempted operation; it
fails when it exits non-zero or any check below finds a wrong output.
The expected synthetic-row count is derived here from the train split's
label tallies (every present class is raised to its task's majority),
not by asking the program's balance or pipeline code.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema
import numpy as np

from memefuse import TASKS, bundled_data
from memefuse.dataset import Schema, load_dataset, split
from memefuse.evalmetrics import REPORT_SCHEMA
from memefuse.model import load_checkpoint

SPLIT_RATIO = 0.8

# Final-loss tolerance, relative to the recorded reference.  Measured on
# instances 0 and 1 of both train workloads: rewriting the sigmoid as
# 0.5 * (1 + tanh(z / 2)), a float32 re-association, moved the final loss
# by at most 2e-8; dropping the LSTM bias gradient, halving the recurrent
# gradient or dropping a head's hidden-bias gradient moved it by 1.2e-4
# to 6.2e-3.
LOSS_RTOL = 1e-5

_ROWS = re.compile(r"(\d+) rows \((\d+) synthetic\)")
_HISTORY = re.compile(r"^history: (.+)$", re.MULTILINE)


@dataclass
class Invocation:
    """One finished CLI process: its outcome and its resource use."""

    argv: list
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    maxrss_mb: float


@dataclass(frozen=True)
class TrainExpectation:
    variant: str
    epochs: int
    train_rows: int
    synthetic_rows: int
    reference_loss: float
    checkpoint: Path


@dataclass
class Tally:
    """Attempted and failed operations, with the reasons for each failure."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def record(self, reasons: list) -> None:
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.reasons.extend(reasons)

    @property
    def fail_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def synthetic_rows(label_rows: list) -> dict:
    """Per task, the rows oversampling must add: each present class up to the majority.

    ``label_rows`` holds one {task: class} mapping per train-split record.
    """
    out = {}
    for task in TASKS:
        counts = {}
        for labels in label_rows:
            counts[labels[task]] = counts.get(labels[task], 0) + 1
        top = max(counts.values())
        out[task] = sum(top - c for c in counts.values())
    return out


def train_split_labels(dataset: Path, seed: int) -> list:
    """Class labels of the train split the CLI draws from ``dataset`` with ``seed``."""
    schema = Schema.from_json(bundled_data("memotion_schema.json"))
    parts = split(load_dataset(dataset, schema), SPLIT_RATIO, seed)
    return [{task: r.labels.get(task) for task in TASKS} for r in parts.train]


def _exit_reasons(inv: Invocation) -> list:
    if inv.returncode == 0:
        return []
    tail = inv.stderr.strip().splitlines()[-1:] or [""]
    return [f"exit code {inv.returncode}: {tail[0]}"]


def history_losses(inv: Invocation) -> list:
    found = _HISTORY.search(inv.stdout)
    if not found:
        raise ValueError("no history path in output")
    with open(found.group(1).strip(), encoding="utf-8") as fh:
        return [json.loads(line)["loss"] for line in fh if line.strip()]


def _checkpoint_reasons(path: Path, variant: str) -> list:
    loaded, params, _ = load_checkpoint(path)
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
    reasons = []
    if loaded.kind != variant:
        reasons.append(f"checkpoint holds variant {loaded.kind!r}, trained {variant!r}")
    manifest = {e["name"]: tuple(e["shape"]) for e in header["manifest"]}
    if manifest != {k: v.shape for k, v in params.items()}:
        reasons.append("re-loaded tensors do not match the checkpoint manifest")
    if not all(np.all(np.isfinite(v)) for v in params.values()):
        reasons.append("checkpoint holds non-finite weights")
    return reasons


def check_train(inv: Invocation, expect: TrainExpectation) -> list:
    """Reasons the train invocation's outputs are wrong; empty when all hold."""
    reasons = _exit_reasons(inv)
    if reasons:
        return reasons
    found = _ROWS.search(inv.stdout)
    if not found:
        reasons.append("no row count in output")
    else:
        rows, synthetic = int(found.group(1)), int(found.group(2))
        want = expect.train_rows + expect.synthetic_rows
        if (rows, synthetic) != (want, expect.synthetic_rows):
            reasons.append(f"printed {rows} rows ({synthetic} synthetic), expected "
                           f"{want} ({expect.synthetic_rows} synthetic)")
    try:
        losses = history_losses(inv)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        reasons.append(f"unreadable history: {exc}")
        losses = None
    if losses is not None:
        if len(losses) != expect.epochs:
            reasons.append(f"history has {len(losses)} losses for {expect.epochs} epochs")
        elif not all(isinstance(x, (int, float)) and math.isfinite(x) for x in losses):
            reasons.append("history holds a non-finite loss")
        elif abs(losses[-1] - expect.reference_loss) > LOSS_RTOL * abs(expect.reference_loss):
            reasons.append(f"final loss {losses[-1]:.6f} is off the reference "
                           f"{expect.reference_loss:.6f} by more than {LOSS_RTOL:.0e}")
    try:
        reasons.extend(_checkpoint_reasons(expect.checkpoint, expect.variant))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        reasons.append(f"checkpoint does not re-load: {exc}")
    return reasons


def check_eval(inv: Invocation, variant: str) -> list:
    """Reasons the eval invocation's JSON report is wrong; empty when all hold."""
    reasons = _exit_reasons(inv)
    if reasons:
        return reasons
    try:
        report = json.loads(inv.stdout)
        jsonschema.validate(report, REPORT_SCHEMA)
    except (ValueError, jsonschema.ValidationError) as exc:
        return [f"report fails the schema: {str(exc).splitlines()[0]}"]
    cells = report["variants"].get(variant)
    if set(report["variants"]) != {variant} or cells is None:
        return [f"report covers variants {sorted(report['variants'])}, expected [{variant!r}]"]
    if set(cells) != set(TASKS):
        reasons.append(f"report covers tasks {sorted(cells)}, expected {sorted(TASKS)}")
    for task, cell in cells.items():
        for metric, value in cell.items():
            if not 0.0 <= value <= 100.0:
                reasons.append(f"{task} {metric} {value} outside [0, 100]")
    return reasons
