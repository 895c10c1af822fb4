"""Steadiness mode: repeat a workload over several seeds and report spreads.

    python3 bench/steady.py --workload tomo-scan --runs 10
    python3 bench/steady.py --workload all --runs 10 --first-seed 101

Runs bench/run.py once per seed and prints, for every end-to-end metric,
the median and quartiles of its values and the spread (Q3 - Q1) / median
next to the metric's bound from BENCHMARK.json. A metric is steady when its
spread stays below a third of its bound.

Below each table it prints the same for the raw wall-clock figures of the
metadata line (no bound), and one row per seed with the raw and normalized
median latency and the probe's median slowdown, which shows how much of the
raw spread the speed probe takes out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int | None) -> tuple[dict, dict]:
    """(metadata, result) of one run."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=200, cwd=ROOT, check=False)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}: {out.stderr[-1000:]}")
    meta_line, result_line = out.stdout.strip().splitlines()[-2:]
    return json.loads(meta_line)["meta"], json.loads(result_line)


def _row(name: str, values: list[float], bound: float | None) -> bool:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med
    ok = bound is None or spread < bound / 3
    print(f"  {name:24} {med:10.4g} {q1:10.4g} {q3:10.4g} {spread:8.3f} "
          f"{'-' if bound is None else f'{bound:.2f}':>6}{'' if ok else '  <- above a third of the bound'}")
    return ok


def report(workload: str, runs: list[tuple[dict, dict]], declared: list[dict]) -> bool:
    steady = all(r["correct"] for _, r in runs)
    print(f"{workload}: {len(runs)} runs, all correct: {steady}")
    header = f"{'median':>10} {'q1':>10} {'q3':>10} {'spread':>8} {'bound':>6}"
    print(f"  {'metric':24} {header}")
    for m in declared:
        steady &= _row(m["name"], [r["metrics"][m["name"]]["value"] for _, r in runs], m["bound"])
    print(f"  {'raw wall clock':24} {header}")
    for key in runs[0][0]["wall_clock"]:
        _row(key, [meta["wall_clock"][key] for meta, _ in runs], None)
    print(f"  {'seed':>6} {'raw p50 ms':>11} {'probe slowdown':>15} {'p50 ref-ms':>11}")
    for meta, r in runs:
        print(f"  {meta['seed']:6} {meta['wall_clock']['latency_p50_ms']:11.2f} "
              f"{meta['wall_clock']['probe_slowdown']:15.3f} {r['metrics']['latency_p50_ms']['value']:11.2f}")
    return steady


def main() -> int:
    parser = argparse.ArgumentParser(description="repeat workloads over seeds and report spreads")
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    steady = True
    for name in names:
        runs = [run_once(name, args.first_seed + i, args.seconds) for i in range(args.runs)]
        steady &= report(name, runs, spec["end_to_end"])
        sys.stdout.flush()
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
