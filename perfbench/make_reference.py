"""Record the final training loss of every train workload instance.

    python3 perfbench/make_reference.py

Runs each train workload once per instance at the current source and
writes perfbench/reference.json, which checks.LOSS_RTOL compares later
runs against.  Regenerate it only when a workload's definition changes
(rows, epochs, texts, seeds), from a commit whose training math is known
good; a change that claims a speed-up must keep the recorded losses.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    if not (run.SRC / "memefuse" / "cli.py").is_file():
        print(f"error: no memefuse source under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    import checks

    table = {}
    for name, workload in run.WORKLOADS.items():
        if workload.command != "train":
            continue
        work = run.WORK / f"reference-{name}"
        table[name] = {}
        for instance in range(run.INSTANCES):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            ((args, variant),) = run.set_up(workload, instance, work)
            inv = run.launch(run.cli_argv(*args), work, "train")
            if inv.returncode != 0:
                print(f"error: {name} instance {instance} exited {inv.returncode}:\n"
                      f"{inv.stderr}", file=sys.stderr)
                return 1
            loss = checks.history_losses(inv)[-1]
            table[name][str(instance)] = loss
            print(f"{name} instance {instance}: final loss {loss!r} "
                  f"({inv.wall_s:.2f} s wall)", flush=True)
        shutil.rmtree(work, ignore_errors=True)
    out = {"final_loss": table}
    (run.BENCH / "reference.json").write_text(json.dumps(out, indent=1) + "\n",
                                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
