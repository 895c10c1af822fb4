"""Record, or re-check, the reference values the benchmark checks ops against.

    OPENBLAS_NUM_THREADS=1 python3 bench/reference.py          # write reference.json
    OPENBLAS_NUM_THREADS=2 python3 bench/reference.py --check  # measure the floor

Writing runs every input of every finite table once: the noisy algorithm
runs for each shot seed, the tomography scan for each noise profile and the
device report for each (flux point, n_levels) pair. It also runs every ideal
input through its closed-form check, so no table input fails.

``--check`` recomputes a spread subset under the current BLAS setting and
prints the largest deviation from the stored values per quantity, which is
the numerical floor the tolerances in workloads.py must sit above.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402


def _docs(workload: str, inp: dict) -> list[dict]:
    return [json.loads(t) for t in wl.run_op(workload, inp)]


def _round(values, places: int) -> list[float]:
    return [round(float(v), places) for v in values]


def _algo_noisy(seeds) -> dict:
    exact, mitigated = {}, {}
    for algo in wl.ALGOS:
        rows = []
        for s in seeds:
            doc = _docs("algo-noisy", wl.algo_input("algo-noisy", algo, s))[0]
            exact.setdefault(algo, wl.exact_values(algo, doc))
            rows.append(_round(wl.mitigated_values(algo, doc), 8))
        mitigated[algo] = rows
    return {"exact": exact, "mitigated": mitigated}


def _tomo(indices) -> list[list[float]]:
    base = wl.default_coherence()
    return [_round(wl.tomo_infidelities(_docs("tomo-scan", wl.tomo_input(i, base))), 12)
            for i in indices]


def _device(indices) -> dict:
    points, operating = {}, {}
    for n in wl.N_LEVELS:
        rows = []
        for k in indices:
            doc = _docs("device-sweep", wl.device_input(k, n))[0]
            v = wl.device_values(doc)
            rows.append(_round(v[:4], 11) + _round(v[4:], 7))
            operating.setdefault(str(n), [round(x, 11) for x in wl.operating_values(doc)])
        points[str(n)] = rows
    return {"points": points, "operating": operating}


def _ideal_failures() -> int:
    failed = 0
    for algo in wl.ALGOS:
        for s in range(wl.SHOT_SEEDS):
            inp = wl.algo_input("algo-ideal", algo, s)
            failed += bool(wl.check_op("algo-ideal", inp, wl.run_op("algo-ideal", inp), {}))
    return failed


def write() -> None:
    t0 = time.perf_counter()
    ref = {
        "about": "Reference values of the benchmark's finite input tables; "
                 "written by bench/reference.py at one BLAS thread.",
        "algo_noisy": _algo_noisy(range(wl.SHOT_SEEDS)),
        "tomo": _tomo(range(wl.TOMO_PROFILES)),
        "device": _device(range(wl.FLUX_POINTS)),
    }
    failed = _ideal_failures()
    if failed:
        sys.exit(f"{failed} ideal table inputs fail their closed-form checks")
    wl.REFERENCE_PATH.write_text(json.dumps(ref, separators=(",", ":")) + "\n")
    print(f"wrote {wl.REFERENCE_PATH} in {time.perf_counter() - t0:.0f} s")


def _max_dev(got: list, want: list) -> float:
    return max(abs(g - w) for row_g, row_w in zip(got, want) for g, w in zip(row_g, row_w))


def check() -> None:
    ref = wl.load_reference()
    seeds = range(0, wl.SHOT_SEEDS, 32)
    profiles = range(0, wl.TOMO_PROFILES, 64)
    fluxes = range(0, wl.FLUX_POINTS, 20)
    algo = _algo_noisy(seeds)
    tomo = _tomo(profiles)
    dev = _device(fluxes)
    report = {
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "algo_exact": max(abs(g - w) for a in wl.ALGOS
                          for g, w in zip(algo["exact"][a], ref["algo_noisy"]["exact"][a])),
        "algo_mitigated": max(_max_dev(algo["mitigated"][a], [ref["algo_noisy"]["mitigated"][a][s] for s in seeds])
                              for a in wl.ALGOS),
        "tomo_infidelity": _max_dev(tomo, [ref["tomo"][i] for i in profiles]),
    }
    for n in wl.N_LEVELS:
        got = dev["points"][str(n)]
        want = [ref["device"]["points"][str(n)][k] for k in fluxes]
        report[f"device_n{n}_ghz"] = _max_dev([r[:4] for r in got], [r[:4] for r in want])
        report[f"device_n{n}_khz"] = _max_dev([r[4:] for r in got], [r[4:] for r in want])
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="compare a subset with reference.json")
    if parser.parse_args().check:
        check()
    else:
        write()
