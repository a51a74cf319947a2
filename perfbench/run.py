"""memefuse benchmark: drives `memefuse train` / `memefuse eval` in fresh processes.

    python3 perfbench/run.py --workload train-imgtxt --seed 3 --seconds 15 --trace 0

Run it from the root of a source checkout; it imports nothing installed
and puts the checkout's ``src`` on the child processes' path.  Each run
generates its inputs from the seed, sets them up several times (the
median is ``setup_s``), then repeats the workload's CLI command(s) one
process at a time until ``--seconds`` have passed, checking every output.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(medians over the repetitions); with ``--trace 1`` it reports the
per-layer metrics of traced repetitions, each measured next to an
untraced one so the tracer's own cost shows as ``trace.overhead_s``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"

# Seeds fold onto this many workload instances; each instance's final
# training loss is recorded in reference.json.
INSTANCES = 16
# The workload seed varies only the generated files.  The program's own
# seed stays fixed, because it also draws the frozen encoders: another
# captioner emits captions of another length, which would change the
# work from one seed to the next.
PROGRAM_SEED = 0
# Set-ups repeat until SETUP_SECONDS have passed, at least MIN_SETUPS times;
# short set-ups (a file and an ingest) get more samples for their median.
MIN_SETUPS = 3
SETUP_SECONDS = 2.0
# Every run repeats its workload at least this often, whatever --seconds
# says, so one slow stretch of a shared host does not set the median.
MIN_REPS = 2
INVOCATION_TIMEOUT_S = 150.0
VARIANTS = ("imgtxt", "imgsen", "capsen")


@dataclass(frozen=True)
class Workload:
    command: str  # "train" or "eval"
    variants: tuple
    rows: int  # rows of the measured annotation file
    texts: str  # "shared" or "distinct", see inputs.py
    epochs: int  # train epochs (for eval-all: of the set-up checkpoints)
    setup_rows: int = 0  # eval only: rows of the file the checkpoints train on


# One repetition takes 9-15 s on a 2-vCPU host, so MIN_REPS of them keep
# the full campaign of runs within its time budget; README.md says why
# each workload exists.
WORKLOADS = {
    # BiLSTM trunk bound: 874 rows (1/8 of Memotion), shared texts, 10 epochs.
    "train-imgtxt": Workload("train", ("imgtxt",), rows=874, texts="shared", epochs=10),
    # Caption/sentence encode and k-NN bound: 1748 rows (1/4), distinct texts.
    "train-capsen": Workload("train", ("capsen",), rows=1748, texts="distinct", epochs=1),
    # Forward only: every variant's eval on the 700 held-out rows of a 3496-row
    # file (1/2); set-up trains the checkpoints on a 5% file (350 rows).
    "eval-all": Workload("eval", VARIANTS, rows=3496, texts="shared", epochs=1,
                         setup_rows=350),
}


class SetupError(RuntimeError):
    """The workload's inputs could not be generated or verified."""


def host_info() -> dict:
    """Machine facts every result carries, so results compare only like with like."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    thread_env = {k: os.environ[k] for k in
                  ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                  if k in os.environ}
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(np),
        "blas_thread_env": thread_env or "unset",
    }


def _blas_threads(np):
    """Thread count the bundled OpenBLAS will use, or None when it cannot be asked."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def launch(argv: list, cwd: Path, tag: str):
    """Run one process to completion; returns a checks.Invocation."""
    from checks import Invocation

    out_path, err_path = cwd / f"{tag}.out", cwd / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - start > INVOCATION_TIMEOUT_S:
                proc.kill()
            time.sleep(0.002)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(argv=argv, returncode=proc.returncode,
                      stdout=out_path.read_text(encoding="utf-8", errors="replace"),
                      stderr=err_path.read_text(encoding="utf-8", errors="replace"),
                      wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                      maxrss_mb=usage.ru_maxrss / 1024.0)


def cli_argv(*args) -> list:
    return [sys.executable, "-m", "memefuse.cli", *map(str, args)]


def _verify_file(path: Path, tallies: dict, work: Path) -> None:
    """The generated file must ingest to exactly the tallies it was built from."""
    from inputs import LABEL_COLUMNS
    from memefuse import TASKS

    inv = launch(cli_argv("ingest", "--dataset", path, "--json"), work, "ingest")
    if inv.returncode != 0:
        raise SetupError(f"ingest of {path.name} exited {inv.returncode}: {inv.stderr.strip()}")
    got = json.loads(inv.stdout)["tasks"]
    for task, column in zip(TASKS, LABEL_COLUMNS):
        if got[task] != dict(tallies[column]):
            raise SetupError(f"{path.name}: {task} tallies {got[task]} != {dict(tallies[column])}")


def set_up(workload: Workload, instance: int, work: Path) -> list:
    """Generate and verify the inputs; returns [(cli args, variant)] to time."""
    from inputs import write_workload_file

    data = work / "data.csv"
    _verify_file(data, write_workload_file(data, workload.rows, workload.texts, instance), work)
    if workload.command == "train":
        (variant,) = workload.variants
        return [(("train", "--dataset", data, "--variant", variant, "--epochs", workload.epochs,
                  "--seed", PROGRAM_SEED, "--checkpoint", work / f"{variant}.ckpt"), variant)]
    train_file = work / "setup.csv"
    write_workload_file(train_file, workload.setup_rows, workload.texts, instance)
    commands = []
    for variant in workload.variants:
        ckpt = work / f"{variant}.ckpt"
        inv = launch(cli_argv("train", "--dataset", train_file, "--variant", variant,
                              "--epochs", workload.epochs, "--seed", PROGRAM_SEED,
                              "--checkpoint", ckpt), work, f"setup-{variant}")
        if inv.returncode != 0:
            raise SetupError(f"set-up training of {variant} exited {inv.returncode}: "
                             f"{inv.stderr.strip()}")
        commands.append((("eval", "--dataset", data, "--checkpoint", ckpt, "--json"), variant))
    return commands


def load_reference(name: str, instance: int) -> float:
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        table = json.load(fh)["final_loss"]
    try:
        return float(table[name][str(instance)])
    except KeyError as exc:
        raise SetupError(f"reference.json has no final loss for {name} "
                         f"instance {instance}") from exc


def output_checker(name: str, workload: Workload, instance: int, work: Path):
    """Invocation -> list of failure reasons, for this workload's outputs."""
    import checks

    if workload.command == "eval":
        return lambda inv, variant: checks.check_eval(inv, variant)
    labels = checks.train_split_labels(work / "data.csv", PROGRAM_SEED)
    (variant,) = workload.variants
    expect = checks.TrainExpectation(
        variant=variant, epochs=workload.epochs, train_rows=len(labels),
        synthetic_rows=sum(checks.synthetic_rows(labels).values()),
        reference_loss=load_reference(name, instance), checkpoint=work / f"{variant}.ckpt")
    return lambda inv, _variant: checks.check_train(inv, expect)


def repetition(commands, work: Path, tag: str, traced_spans: Path | None = None) -> list:
    """One pass over the workload's commands; traced when ``traced_spans`` is given."""
    invocations = []
    for run_id, (args, variant) in enumerate(commands):
        if traced_spans is None:
            argv = cli_argv(*args)
        else:
            argv = [sys.executable, str(BENCH / "tracer.py"), "--spans", str(traced_spans),
                    "--run-id", str(run_id), "--", *map(str, args)]
        invocations.append((launch(argv, work, f"{tag}-{variant}"), variant))
    return invocations


def _metric_line(name: str, value: float, unit: str, extra: str = "") -> str:
    return f"{name:34s} {value:14.6f} {unit:6s} {extra}".rstrip()


def measure(commands, check, tally, seconds: float, work: Path) -> list:
    """Untraced repetitions until ``seconds`` have passed; returns per-rep rows."""
    rows = []
    start = time.perf_counter()
    while len(rows) < MIN_REPS or time.perf_counter() - start < seconds:
        rep = repetition(commands, work, f"rep{len(rows)}")
        for inv, variant in rep:
            tally.record(check(inv, variant))
        rows.append({"wall_s": sum(inv.wall_s for inv, _ in rep),
                     "cpu_s": sum(inv.cpu_s for inv, _ in rep),
                     "peak_rss_mb": max(inv.maxrss_mb for inv, _ in rep)})
    return rows


def trace_pairs(commands, check, tally, seconds: float, work: Path) -> list:
    """Untraced then traced repetitions, in pairs, until ``seconds`` have passed."""
    import tracer

    pairs = []
    start = time.perf_counter()
    while not pairs or time.perf_counter() - start < seconds:
        k = len(pairs)
        plain = repetition(commands, work, f"plain{k}")
        spans = work / f"trace{k}.jsonl"
        traced = repetition(commands, work, f"traced{k}", traced_spans=spans)
        for inv, variant in plain + traced:
            tally.record(check(inv, variant))
        wall = {run_id: inv.wall_s for run_id, (inv, _) in enumerate(traced)}
        metrics, stages, notes = tracer.layer_metrics(tracer.read_runs(spans), wall)
        metrics["trace.overhead_s"] = sum(wall.values()) - sum(i.wall_s for i, _ in plain)
        pairs.append((metrics, stages, notes, sum(wall.values())))
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="memefuse benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "memefuse" / "cli.py").is_file():
        print(f"error: no memefuse source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from checks import Tally

    workload = WORKLOADS[args.workload]
    instance = args.seed % INSTANCES
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    host = host_info()

    setup_times = []
    try:
        while len(setup_times) < MIN_SETUPS or sum(setup_times) < SETUP_SECONDS:
            start = time.perf_counter()
            commands = set_up(workload, instance, work)
            setup_times.append(time.perf_counter() - start)
        check = output_checker(args.workload, workload, instance, work)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    tally = Tally()
    result = {"workload": args.workload, "seed": args.seed, "instance": instance,
              "host": host}
    print("host: " + json.dumps(host))
    print(f"workload: {args.workload} (instance {instance} of seed {args.seed})")
    if args.trace == 0:
        rows = measure(commands, check, tally, args.seconds, work)
        values = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
        values["setup_s"] = statistics.median(setup_times)
        units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
        metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
        for name, v in values.items():
            print(_metric_line(name, v, units[name], f"median of {len(rows)}"
                               if name != "setup_s" else f"median of {len(setup_times)} set-ups"))
        result["repetitions"] = rows
    else:
        pairs = trace_pairs(commands, check, tally, args.seconds, work)
        names = pairs[0][0]
        values = {n: statistics.median(p[0][n] for p in pairs) for n in names}
        metrics = {n: {"value": v, "unit": _layer_unit(n)} for n, v in values.items()}
        for n, v in values.items():
            print(_metric_line(n, v, _layer_unit(n)))
        _, stages, notes, traced_wall = pairs[-1]
        shares = {s: t / traced_wall for s, t in stages.items()}
        print("stage share of traced wall: " +
              " ".join(f"{s} {share:.3f}" for s, share in shares.items()))
        for key, listed in notes.items():
            if listed:
                print(f"{key}: {', '.join(listed)}")
        result.update(stage_shares=shares, **notes)

    print(f"fail_share {tally.failed}/{tally.attempted} = {tally.fail_share:.4f}")
    for reason in tally.reasons:
        print(f"failed check: {reason}")
    result.update(metrics=metrics, attempted=tally.attempted, failed=tally.failed,
                  failures=tally.reasons)
    (work / "result.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
