"""Run every workload on one seed, untraced and traced, and print every
end-to-end metric by name and unit, the per-layer metrics and the tracing
overhead (traced minus untraced end-to-end numbers). Each run lasts
BENCHMARK.json's run_seconds.

    python3 perfbench/report.py [--seed 1]

Exits 1 when any run fails or reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS

RUN_TIMEOUT = 600


def run_once(workload: str, seed: int, seconds: float, trace: int):
    """(readable lines, result object or None) of one run.py process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=RUN_TIMEOUT, check=False)
    lines = proc.stdout.splitlines()
    try:
        return lines[:-1], json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return lines, None


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    ok = True
    for workload in WORKLOADS:
        lines, plain = run_once(workload, args.seed, seconds, 0)
        print("\n".join(lines))
        lines, traced = run_once(workload, args.seed, seconds, 1)
        ok = ok and all(r is not None and r["correct"]
                        for r in (plain, traced))
        if plain is None or traced is None:
            print("\n".join(lines))
            continue
        print(f"traced run of {workload}, "
              + "\n".join(lines[lines.index("per-layer metrics:"):]))
        # On a shared machine one pair of runs differs by more than the
        # tracing costs; trace.overhead_ms_per_step is the steadier figure.
        for traced_name, name in (("trace.op_ms_mean", "op_ms_mean"),
                                  ("trace.samples_per_s", "samples_per_s")):
            t = traced["metrics"][traced_name]
            u = plain["metrics"][name]["value"]
            print(f"  tracing overhead on {name:<14} {t['value'] - u:+12.6g} "
                  f"{t['unit']:<9} ({(t['value'] - u) / u:+.2%} of untraced)")
    print("all runs correct" if ok else "SOME RUNS FAILED OR WERE INCORRECT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
