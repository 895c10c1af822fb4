"""qutritlab benchmark: one workload, one client, a closed loop of ops.

    python3 bench/run.py --workload algo-noisy --seed 1 --seconds 22 --trace 0
    python3 bench/run.py --smoke

Run from anywhere; the package is imported from the ``src`` directory next
to this one. Every op runs in a fresh worker process (worker.py) with BLAS
pinned to one thread. The last line of stdout is the result object; the line
before it holds run metadata. A record of the run (latencies, the sha256 of
every bundle, spans of a traced run) goes to ``.bench_runs/``.

--trace 0 prints the end-to-end metrics: throughput and latency of the timed
loop, peak RSS of its process, and setup_s, the median time from launching a
fresh interpreter to the first verified op over several processes.
throughput_ops_per_s is verified ops per second spent inside ops (ops minus
failed ops, over the sum of op times), so the harness's own checks and speed
probes between ops do not count; with one client that is 1 / mean op time.

Times are normalized to a reference machine speed, so their units in
BENCHMARK.json read ref-ms and ops/ref-s; setup_s is normalized the same
way but keeps the unit s that the benchmark format requires of it. The
machines this runs on are shared and their speed drifts by up to 2x within a
minute, far more than the bounds. So after every op the worker times a fixed
numpy probe whose code and inputs no qutritlab change touches (see
worker.SpeedProbe); each op time is divided by the local slowdown, the
median probe slowdown over the nine nearest ops. The probe runs in the op's
own process, so state an op leaves behind (heap, garbage collector, CPU
caches) can still shift it: a change that moves the probe shows in the run
record's slowdown figures and in the wall.* metrics of --trace 1. Each setup
sample is divided by the slowdown of the reference launches (a fresh
interpreter that imports numpy) just before and after it, which tracks
process start-up and import cost better than either probe. The raw
wall-clock figures go into the metadata line and the run record.

The timed loop runs for --seconds and on until it holds MIN_OPS ops.

--trace 1 prints the per-layer metrics from a traced run (the same runners,
with spans around the calls they make; see tracing.py), plus an untraced run
of the same length (tracing overhead, and its raw wall-clock figures as the
wall.* metrics) and a short traced pass with the BLAS thread variables unset
(the slowest cold propagator build there).

--smoke runs a few ops of every workload in both modes and checks the output
against BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
RUNS_DIR = ROOT / ".bench_runs"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the timed loop runs past --seconds until it holds this many ops, so that at
# least 10 samples lie beyond latency_p90_ms
MIN_OPS = 100
SETUP_SAMPLES = 9  # fresh processes behind setup_s
# wall time of a fresh interpreter that imports numpy at reference speed
# (a 2-CPU shared machine, Python 3.11, numpy 2.4); setup samples are
# normalized by it
REF_LAUNCH_S = 0.155
IMPORT_SAMPLES = 3  # fresh processes behind cli_harness.import_s
DEADLINE_S = 170.0
PROBE_WINDOW = 4  # ops on each side of an op whose probe samples set its slowdown
SMOKE_OPS = {"algo-noisy": 3, "algo-ideal": 3, "tomo-scan": 2, "device-sweep": 3}


class WorkerError(RuntimeError):
    pass


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def blas_env(pinned: bool) -> dict:
    # bytecode caching on, as for an installed command line tool
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS + ("PYTHONDONTWRITEBYTECODE",)}
    if pinned:
        env.update({k: "1" for k in THREAD_VARS})
    return env


class Run:
    """Spawns the worker processes of one benchmark run."""

    def __init__(self, workload: str, seed: int, tag: str):
        self.workload, self.seed = workload, seed
        self.deadline = time.monotonic() + DEADLINE_S
        RUNS_DIR.mkdir(exist_ok=True)
        self.log_path = RUNS_DIR / f"{tag}.stderr"
        self.log_path.write_text("")

    def launch_slowdown(self) -> float:
        """Slowdown of a reference launch: a fresh interpreter importing numpy."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], env=blas_env(True), cwd=ROOT, check=True,
                       timeout=max(1.0, self.deadline - time.monotonic()),
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return (time.perf_counter() - start) / REF_LAUNCH_S

    def spawn(self, mode: str, seconds: float = 0.0, max_ops: int = 0, min_ops: int = 0,
              pinned: bool = True, spans: Path | None = None) -> dict:
        """Run one worker to completion; return its events plus ready_s."""
        cmd = [sys.executable, str(WORKER), "--mode", mode, "--workload", self.workload,
               "--seed", str(self.seed), "--seconds", str(seconds),
               "--min-ops", str(min_ops), "--max-ops", str(max_ops)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        events: dict = {}
        with open(self.log_path, "a") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log, text=True,
                                    env=blas_env(pinned), cwd=ROOT)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                for line in proc.stdout:
                    msg = json.loads(line)
                    if msg["event"] == "ready":
                        events["ready_s"] = time.perf_counter() - start
                    events[msg["event"]] = msg
            finally:
                proc.stdout.close()
                code = proc.wait()
                timer.cancel()
        if code != 0 or "ready" not in events or (mode != "setup" and "done" not in events):
            tail = self.log_path.read_text()[-2000:]
            raise WorkerError(f"worker {mode} exited with {code}:\n{tail}")
        return events


def _percentile_90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


def slowdowns(samples: list[float]) -> list[float]:
    """Local slowdown at each op: median probe slowdown over its window."""
    w = PROBE_WINDOW
    return [statistics.median(samples[max(0, i - w):i + w + 1]) for i in range(len(samples))]


def normalized(latencies_ms: list[float], samples: list[float]) -> list[float]:
    return [t / f for t, f in zip(latencies_ms, slowdowns(samples))]


def wall_clock(done: dict) -> dict:
    """Raw wall-clock figures of a loop, before normalization."""
    raw = done["latencies_ms"]
    return {
        "throughput_ops_per_s": (done["ops"] - done["failed"]) / (sum(raw) / 1e3),
        "latency_p50_ms": statistics.median(raw),
        "latency_p90_ms": _percentile_90(raw),
        "probe_slowdown": statistics.median(slowdowns(done["slowdown"])),
        "loop_ops_per_s": (done["ops"] - done["failed"]) / done["loop_s"],
    }


def measure_setup(run: Run, n: int) -> tuple[list[float], list[dict], list[float]]:
    """n setup times, each divided by the mean slowdown of the reference
    launches just before and just after it; the n setup workers; the n + 1
    launch slowdowns."""
    launches = [run.launch_slowdown()]
    workers = []
    for _ in range(n):
        workers.append(run.spawn("setup"))
        launches.append(run.launch_slowdown())
    setup = [w["ready_s"] / ((a + b) / 2) for w, a, b in zip(workers, launches, launches[1:])]
    return setup, workers, launches


def measure_end_to_end(run: Run, seconds: float, max_ops: int, setup_samples: int) -> tuple[dict, dict]:
    setup, setups, launches = measure_setup(run, setup_samples)
    main = run.spawn("loop", seconds, max_ops, MIN_OPS)
    done = main["done"]
    raw = done["latencies_ms"]
    lat = normalized(raw, done["slowdown"])
    ready_failed = sum(not p["ready"]["ok"] for p in setups + [main])
    metrics = {
        "throughput_ops_per_s": (done["ops"] - done["failed"]) / (sum(lat) / 1e3),
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": _percentile_90(lat),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": done["peak_rss_mb"],
    }
    tally = {"attempted": done["ops"] + len(setup) + 1, "failed": done["failed"] + ready_failed}
    samples = {"latency_ops": len(lat), "throughput_ops": done["ops"], "setup_processes": len(setup),
               "probe_samples": len(done["slowdown"])}
    wall = wall_clock(done)
    wall["setup_s"] = statistics.median([p["ready_s"] for p in setups])
    wall["launch_slowdown"] = statistics.median(launches)
    record = {"setup_s": setup, "latencies_ms": raw, "slowdown": done["slowdown"],
              "bundle_sha256": done["bundle_sha256"]}
    return metrics, {"tally": tally, "samples": samples, "worker": done, "record": record,
                     "extra": {"wall_clock": wall}}


def measure_layers(run: Run, seconds: float, max_ops: int, spans: Path) -> tuple[dict, dict]:
    setups = [run.spawn("setup") for _ in range(IMPORT_SAMPLES)]
    untraced = run.spawn("loop", 0.4 * seconds, max_ops)["done"]
    traced = run.spawn("trace", 0.4 * seconds, max_ops, spans=spans)["done"]
    default = run.spawn("trace", 0.2 * seconds, max_ops, pinned=False)["done"]
    metrics = dict(traced["layers"])
    metrics["cli_harness.import_s"] = statistics.median(p["ready"]["import_s"] for p in setups)
    metrics["noise_sim.propagator_build_max_ms_blas_default"] = default["layers"]["noise_sim.propagator_build_max_ms"]
    untraced_rate = 1e3 / statistics.fmean(normalized(untraced["latencies_ms"], untraced["slowdown"]))
    traced_rate = 1e3 / statistics.fmean(normalized(traced["latencies_ms"], traced["slowdown"]))
    metrics["trace.overhead_pct"] = 100.0 * (untraced_rate - traced_rate) / untraced_rate
    metrics["trace.throughput_delta_ops_per_s"] = traced_rate - untraced_rate
    workers = (untraced, traced, default)
    metrics.update({f"wall.{k}": v for k, v in wall_clock(untraced).items() if k != "loop_ops_per_s"})
    tally = {
        "attempted": sum(w["ops"] for w in workers) + len(setups),
        "failed": sum(w["failed"] for w in workers) + sum(not p["ready"]["ok"] for p in setups),
    }
    samples = {"traced_ops": traced["ops"], "untraced_ops": untraced["ops"],
               "blas_default_ops": default["ops"], "import_processes": len(setups)}
    extra = {"blas_threads_default_pass": default["blas_threads"], "spans_file": str(spans.relative_to(ROOT)),
             "traced_slowdown_median": statistics.median(traced["slowdown"])}
    return metrics, {"tally": tally, "samples": samples, "worker": traced, "extra": extra,
                     "record": {"untraced_latencies_ms": untraced["latencies_ms"]}}


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() or "unknown"


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def measure(workload: str, seed: int, seconds: float, trace: int, max_ops: int = 0,
            setup_samples: int = SETUP_SAMPLES) -> tuple[dict, dict]:
    """One benchmark run; returns (metadata, result object)."""
    spec = load_spec()
    tag = f"{workload}-seed{seed}-trace{trace}"
    run = Run(workload, seed, tag)
    if trace:
        metrics, info = measure_layers(run, seconds, max_ops, RUNS_DIR / f"{tag}-spans.jsonl")
        declared = spec["per_layer"]
    else:
        metrics, info = measure_end_to_end(run, seconds, max_ops, setup_samples)
        declared = spec["end_to_end"]
    tally, worker = info["tally"], info["worker"]
    shas = info["record"].get("bundle_sha256", [])
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": _git_sha(), "src_sha256": _src_sha256(),
        "python": worker["python"], "numpy": worker["numpy"],
        "blas_name": worker.get("blas_name"), "blas_version": worker.get("blas_version"),
        "blas_threads": worker["blas_threads"],
        "nproc": len(os.sched_getaffinity(0)),
        "load": "closed loop, one client, one process per phase",
        "samples": info["samples"],
        "fail_frac": tally["failed"] / tally["attempted"],
        "bundle_sha256_first30": (hashlib.sha256("".join(shas[:30]).encode()).hexdigest()
                                  if len(shas) >= 30 else None),
        "problems": worker["problems"],
        "record": str((RUNS_DIR / f"{tag}.json").relative_to(ROOT)),
        **info.get("extra", {}),
    }
    result = {
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    record = {"meta": meta, "result": result, **info["record"]}
    (RUNS_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return meta, result


def validate(result: dict, declared: list[dict]) -> list[str]:
    """Schema problems of a result object, checked against BENCHMARK.json."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append("attempted is not a whole number >= 1")
    if result.get("failed") != 0:
        problems.append(f"failed = {result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in declared}:
        problems.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in declared})}")
    for m in declared:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"] or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: {got}")
    return problems


def smoke() -> int:
    spec = load_spec()
    bad = 0
    for w in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            _, result = measure(w["name"], 1, 1, trace, max_ops=SMOKE_OPS[w["name"]], setup_samples=2)
            problems = validate(result, declared)
            bad += bool(problems)
            print(f"{w['name']} trace={trace}: {'ok' if not problems else problems}", flush=True)
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="qutritlab benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None, help="timed loop length (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="few ops per workload, check the output schema")
    args = parser.parse_args()

    if not (ROOT / "src" / "qutritlab" / "__init__.py").is_file():
        sys.exit(f"no qutritlab sources under {ROOT / 'src'}; run from a full checkout")
    spec = load_spec()
    if args.smoke:
        return smoke()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        sys.exit(f"--workload must be one of {', '.join(names)}")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    try:
        meta, result = measure(args.workload, args.seed, seconds, args.trace)
    except WorkerError as exc:
        sys.exit(str(exc))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
