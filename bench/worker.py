"""One benchmark process: a single client running ops in a closed loop.

Started by run.py with the BLAS thread variables already set, so they take
effect before numpy loads. Writes JSON lines to stdout: ``ready`` once the
first (cold) op is verified, then ``done`` with the loop's results.

Modes:
  setup  stop after the first op (a setup_s sample)
  loop   time untraced ops for --seconds
  trace  run traced ops (the same runners, with span wrappers) for --seconds,
         stopping on a whole workload cycle
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


class SpeedProbe:
    """A fixed numpy workload timed next to every op.

    The machines this runs on are shared, and their speed drifts by up to 2x
    over seconds to minutes. The probe's time tracks that drift, so run.py
    divides each op's time by the probe's local slowdown. The probe's code
    and inputs never change, so a change to qutritlab cannot move it.

    Interpreter-bound and BLAS-bound code drift differently, so each workload
    gets the probe that tracked its ops best on a shared 2-CPU machine:
    "interp" for the algorithm runs (small kron and matmul, a dict of floats
    and json.dumps, like the runners' own bookkeeping), "blas" for the
    superoperator and Hamiltonian work (one eigh of a 300 x 300 matrix).
    """

    # kind: (reference seconds, seconds of op per sample)
    KINDS = {"interp": (0.0035, 0.1), "blas": (0.0095, 0.25)}
    FOR_WORKLOAD = {"algo-noisy": "interp", "algo-ideal": "interp",
                    "tomo-scan": "blas", "device-sweep": "blas"}
    LABELS = [f"{i}{j}" for i in range(3) for j in range(3)]

    def __init__(self, kind: str):
        import numpy as np

        self.kind = kind
        self.ref_s, self.every_s = self.KINDS[kind]
        rng = np.random.default_rng(20221111)
        self.np = np
        self.small = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        self.pair = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        sym = rng.standard_normal((300, 300))
        self.sym = sym + sym.T

    def sample(self) -> float:
        """Slowdown against the reference speed, from one probe run."""
        np = self.np
        start = perf_counter()
        if self.kind == "interp":
            for _ in range(40):
                m = np.kron(self.small, self.small) @ self.pair
                for row in m:
                    doc = {label: float(abs(v)) for label, v in zip(self.LABELS, row)}
                json.dumps({"entries": [doc, doc], "scale": 1.5}, sort_keys=True)
        else:
            np.linalg.eigh(self.sym)
        return (perf_counter() - start) / self.ref_s

    def after(self, op_seconds: float) -> float:
        """Median slowdown after an op, one probe run per every_s of op time."""
        return statistics.median(self.sample() for _ in range(1 + int(op_seconds / self.every_s)))


def blas_info() -> dict:
    """BLAS library, version and the thread count it actually runs with."""
    import numpy as np

    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(blas_name=blas.get("name"), blas_version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    info["blas_threads"] = os.environ.get("OPENBLAS_NUM_THREADS", "unknown")
    return info


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "loop", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-ops", type=int, default=0, help="keep going past --seconds until this many ops")
    parser.add_argument("--max-ops", type=int, default=0, help="stop after this many ops (0: no cap)")
    parser.add_argument("--spans", help="file for the traced run's spans")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import qutritlab
    import_s = perf_counter() - t0
    if not Path(qutritlab.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"qutritlab was imported from {qutritlab.__file__}, not from {SRC}")
    import workloads as wl

    ref = wl.load_reference()
    inputs = wl.op_inputs(args.workload, args.seed)
    first = next(inputs)
    problems = wl.check_op(args.workload, first, wl.run_op(args.workload, first), ref)
    emit("ready", ok=not problems, import_s=import_s, problems=problems[:3])
    if args.mode == "setup":
        return 0
    speed = SpeedProbe(SpeedProbe.FOR_WORKLOAD[args.workload])
    if args.mode == "loop":
        result = run_loop(wl, ref, args, inputs, speed)
    else:
        result = run_traced(wl, ref, args, inputs, speed)
    result.update(first_ok=not problems, import_s=import_s,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  python=platform.python_version(), **blas_info())
    emit("done", **result)
    return 0


def _one(wl, ref, workload: str, inp: dict, run) -> tuple[float, list[str], list[str]]:
    """Time one op; return (seconds, bundle texts, problems)."""
    start = perf_counter()
    try:
        texts = run(workload, inp)
    except Exception:  # an op that raises is a failed op; the loop goes on
        return perf_counter() - start, [], [traceback.format_exc(limit=3)]
    elapsed = perf_counter() - start
    return elapsed, texts, wl.check_op(workload, inp, texts, ref)


def _done(n: int, start: float, args, cycle: int = 1) -> bool:
    if args.max_ops and n >= args.max_ops:
        return True
    return perf_counter() - start >= args.seconds and n >= args.min_ops and n % cycle == 0


def run_loop(wl, ref, args, inputs, speed: SpeedProbe) -> dict:
    latencies, slowdown, shas, problems = [], [], [], []
    failed = 0
    start = perf_counter()
    for inp in inputs:
        elapsed, texts, bad = _one(wl, ref, args.workload, inp, wl.run_op)
        latencies.append(elapsed * 1e3)
        slowdown.append(speed.after(elapsed))
        shas.append(hashlib.sha256("".join(texts).encode()).hexdigest())
        if bad:
            failed += 1
            problems += bad[:2]
        if _done(len(latencies), start, args):
            break
    return {"ops": len(latencies), "failed": failed, "loop_s": perf_counter() - start,
            "latencies_ms": latencies, "slowdown": slowdown, "bundle_sha256": shas,
            "problems": problems[:5]}


def run_traced(wl, ref, args, inputs, speed: SpeedProbe) -> dict:
    import tracing

    tr = tracing.Tracer()
    cycle = wl.CYCLE[args.workload]
    failed, problems, slowdown = 0, [], []
    start = perf_counter()
    with tracing.traced_program(tr):
        for inp in inputs:
            elapsed, texts, bad = _one(wl, ref, args.workload, inp,
                                       lambda w, i: tracing.traced_op(tr, w, i))
            slowdown.append(speed.after(elapsed))
            tracing.probe_last_op(tr)
            if bad:
                failed += 1
                problems += bad[:2]
            if _done(tr.op + 1, start, args, cycle):
                break
    if args.spans:
        tr.write(args.spans)
    return {"ops": tr.op + 1, "failed": failed, "loop_s": perf_counter() - start,
            "latencies_ms": tracing.op_durations_ms(tr), "slowdown": slowdown,
            "layers": tracing.layer_metrics(tr), "problems": problems[:5]}


if __name__ == "__main__":
    sys.exit(main())
