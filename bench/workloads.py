"""Workload inputs, runner ops and output checks of the benchmark.

Each workload turns its seed into an endless stream of op inputs drawn from
a finite table, runs one op through the public runners of
``qutritlab.cli_harness`` and checks every bundle it returns. Ideal runs are
checked against closed forms; the rest against ``reference.json``, which
``reference.py`` recorded once from the table inputs.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from pathlib import Path

from qutritlab import cli_harness as ch
from qutritlab.algorithms import grover_ideal_success

WORKLOADS = ("algo-noisy", "algo-ideal", "tomo-scan", "device-sweep")
SHOTS = 20000
ALGOS = ("dj", "bv", "grover")
SHOT_SEEDS = 256
TOMO_GATES = ("H", "Hdag", "X", "Xsq", "Z", "Zsq")
TOMO_CALLS = tuple((g, q) for g in TOMO_GATES for q in (1, 2))
TOMO_PROFILES = 768
COHERENCE_KEYS = ("t1_01", "t1_12", "t2r_01", "t2r_12")
FLUX_STEP = 0.0015
FLUX_POINTS = 201
N_LEVELS = (6, 8, 10)
# ops per round-robin cycle; traced runs stop on a cycle boundary so their
# per-op counts repeat exactly
CYCLE = {"algo-noisy": 3, "algo-ideal": 3, "tomo-scan": 1, "device-sweep": 3}

# Tolerances sit above the numerical floor and far below any physical change.
# Between one and two BLAS threads (reference.py --check) the cross-Kerr J
# values moved by up to 7.2e-6 kHz and the frequencies by 1e-11 GHz over
# n_levels 6/8/10; the noisy algorithm and tomography values did not move.
TOL_EXACT = 1e-9
TOL_MITIGATED = 5e-4  # a single count flipped at 20000 shots moves 5e-5
TOL_FIDELITY = 1e-8
TOL_GHZ = 1e-8
TOL_KHZ = 1e-3

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def tomo_profile(index: int, base: dict) -> dict:
    """Coherence table of profile `index`: each time of `base` scaled within
    +-25%.

    The table is fixed (its own generator seed), so the reference covers it;
    the workload seed only chooses the order.
    """
    rng = random.Random(1_000_003 * (index + 1))
    return {
        q: {k: round(base[q][k] * rng.uniform(0.75, 1.25), 4) for k in COHERENCE_KEYS}
        for q in ("q1", "q2")
    }


def default_coherence() -> dict:
    return ch.ExperimentConfig.default().to_mapping()["coherence"]


def flux_point(index: int) -> float:
    return round(FLUX_STEP * index, 6)


def _shuffled(rng: random.Random, n: int):
    """Endless stream over range(n): each pass is a fresh permutation."""
    while True:
        yield from rng.sample(range(n), n)


def algo_input(workload: str, algo: str, shot_seed: int) -> dict:
    noisy = workload == "algo-noisy"
    mapping = {"noisy": noisy, "mitigate": noisy, "shots": SHOTS, "seed": shot_seed}
    return {"algo": algo, "shot_seed": shot_seed, "mapping": mapping}


def tomo_input(index: int, base: dict) -> dict:
    return {"profile": index, "mapping": {"coherence": tomo_profile(index, base)}}


def device_input(flux_index: int, n_levels: int) -> dict:
    return {"flux_index": flux_index, "n_levels": n_levels,
            "mapping": {"device": {"n_levels": n_levels}}}


def _raw_inputs(workload: str, seed: int):
    rng = random.Random(f"{workload}:{seed}")
    if workload.startswith("algo-"):
        streams = {a: _shuffled(random.Random(rng.random()), SHOT_SEEDS) for a in ALGOS}
        for i in itertools.count():
            algo = ALGOS[i % 3]
            yield algo_input(workload, algo, next(streams[algo]))
    elif workload == "tomo-scan":
        base = default_coherence()
        for index in _shuffled(rng, TOMO_PROFILES):
            yield tomo_input(index, base)
    else:
        for i, index in enumerate(_shuffled(rng, FLUX_POINTS)):
            yield device_input(index, N_LEVELS[i % 3])


def op_inputs(workload: str, seed: int):
    """Endless stream of op inputs; the same seed gives the same stream.

    Each input carries the configuration mapping the op resolves, so input
    generation stays outside the timed op.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    return _raw_inputs(workload, seed)


def run_op(workload: str, inp: dict) -> list[str]:
    """One op through the public runners: resolve config, run, serialize.

    Names are looked up in cli_harness at call time, so a traced run's span
    wrappers (tracing.traced_program) see every call.
    """
    config = ch.ExperimentConfig.from_mapping(inp["mapping"])
    if workload.startswith("algo-"):
        return [getattr(ch, f"run_{inp['algo']}")(config).to_json()]
    if workload == "tomo-scan":
        return [ch.run_process_tomo(config, g, q).to_json() for g, q in TOMO_CALLS]
    return [ch.run_device_report(config, [flux_point(inp["flux_index"])]).to_json()]


# ---------------------------------------------------------------------------
# Output checks. Each returns a list of problems; an empty list passes.

def _near(problems: list, what: str, got, want, tol: float) -> None:
    if not (isinstance(got, (int, float)) and abs(got - want) <= tol):
        problems.append(f"{what}: got {got!r}, want {want!r} within {tol:g}")


def _check_counts(problems: list, doc: dict, mitigated: bool) -> None:
    floor = math.sqrt(SHOTS)
    for e in doc["entries"]:
        counts = e.get("counts")
        if counts is None or sum(counts.values()) != SHOTS:
            problems.append(f"{e['name']}: counts do not sum to {SHOTS}")
        if mitigated:
            mit = e.get("mitigated_distribution")
            if mit is None:
                problems.append(f"{e['name']}: no mitigated distribution")
                continue
            _near(problems, f"{e['name']} mitigated total", sum(mit.values()) * SHOTS, SHOTS, 1e-6)
            if min(mit.values()) * SHOTS < floor * (1 - 1e-9):
                problems.append(f"{e['name']}: mitigated count below the sqrt(N) floor")


def _check_ideal(problems: list, algo: str, doc: dict) -> None:
    entries, summary = doc["entries"], doc["summary"]
    if algo == "grover":
        for e in entries:
            _near(problems, e["name"], e["sp"], grover_ideal_success(e["rounds"]), TOL_EXACT)
        _near(problems, "round1_avg", summary["round1_avg"], grover_ideal_success(1), TOL_EXACT)
        _near(problems, "round2_avg", summary["round2_avg"], grover_ideal_success(2), TOL_EXACT)
        return
    for e in entries:
        if not e["sp"] >= 1.0 - TOL_EXACT:
            problems.append(f"{algo} {e['name']}: success {e['sp']!r} below 1 - {TOL_EXACT:g}")
    if algo == "bv" and not (summary["all_decoded_correctly"]
                             and all(e["decoded"] == e["name"] for e in entries)):
        problems.append("bv: a hidden string decoded wrongly")


def mitigated_values(algo: str, doc: dict) -> list[float]:
    """The seed-dependent (sampled) numbers of a mitigated bundle."""
    s = doc["summary"]
    if algo == "dj":
        return [s["constant_avg_mitigated"], s["balanced_avg_mitigated"]]
    if algo == "bv":
        return [s["average_sp_mitigated"]]
    return [
        sum(e["sp_mitigated"] for e in doc["entries"] if e["rounds"] == k) / 9.0
        for k in (1, 2)
    ]


def exact_values(algo: str, doc: dict) -> list[float]:
    """The seed-independent numbers of a bundle (exact distributions)."""
    s = doc["summary"]
    keys = {"dj": ("constant_avg", "balanced_avg"), "bv": ("average_sp",),
            "grover": ("round1_avg", "round2_avg")}[algo]
    return [s[k] for k in keys]


def _check_noisy(problems: list, algo: str, doc: dict, shot_seed: int, ref: dict) -> None:
    for got, want in zip(exact_values(algo, doc), ref["algo_noisy"]["exact"][algo]):
        _near(problems, f"{algo} exact", got, want, TOL_EXACT)
    wants = ref["algo_noisy"]["mitigated"][algo][shot_seed]
    for got, want in zip(mitigated_values(algo, doc), wants):
        _near(problems, f"{algo} mitigated seed {shot_seed}", got, want, TOL_MITIGATED)


def tomo_infidelities(docs: list[dict]) -> list[float]:
    return [1.0 - d["summary"]["noisy_fidelity"] for d in docs]


DEVICE_FIELDS = ("w01_q1", "w12_q1", "w01_q2", "w12_q2", "j11_khz", "j21_khz", "j12_khz", "j22_khz")
DEVICE_TOLS = (TOL_GHZ,) * 4 + (TOL_KHZ,) * 4
OPERATING_FIELDS = ("operating_w01_q1", "operating_w01_q2", "operating_j11_khz", "operating_coupler_ghz")
OPERATING_TOLS = (TOL_GHZ, TOL_GHZ, TOL_KHZ, TOL_GHZ)


def device_values(doc: dict) -> list[float]:
    return [doc["entries"][0][k] for k in DEVICE_FIELDS]


def operating_values(doc: dict) -> list[float]:
    return [doc["summary"][k] for k in OPERATING_FIELDS]


def check_op(workload: str, inp: dict, texts: list[str], ref: dict) -> list[str]:
    problems: list[str] = []
    docs = [json.loads(t) for t in texts]
    if workload.startswith("algo-"):
        algo, doc = inp["algo"], docs[0]
        noisy = workload == "algo-noisy"
        _check_counts(problems, doc, mitigated=noisy)
        if noisy:
            _check_noisy(problems, algo, doc, inp["shot_seed"], ref)
        else:
            _check_ideal(problems, algo, doc)
    elif workload == "tomo-scan":
        if len(docs) != len(TOMO_CALLS):
            return [f"tomo: {len(docs)} bundles, want {len(TOMO_CALLS)}"]
        for (gate, q), doc in zip(TOMO_CALLS, docs):
            _near(problems, f"{gate} q{q} noiseless", doc["summary"]["noiseless_fidelity"], 1.0, TOL_FIDELITY)
        wants = ref["tomo"][inp["profile"]]
        for (gate, q), got, want in zip(TOMO_CALLS, tomo_infidelities(docs), wants):
            _near(problems, f"{gate} q{q} noisy infidelity", got, want, TOL_FIDELITY)
    else:
        doc, n = docs[0], str(inp["n_levels"])
        if doc["summary"]["points"] != 1 or doc["entries"][0]["min_overlap"] < 0.5:
            problems.append("device: bad point count or ambiguous labels")
        rows = (
            ("flux point", device_values(doc), ref["device"]["points"][n][inp["flux_index"]], DEVICE_TOLS),
            ("operating point", operating_values(doc), ref["device"]["operating"][n], OPERATING_TOLS),
        )
        for what, got, want, tols in rows:
            for field, g, w, tol in zip(range(len(tols)), got, want, tols):
                _near(problems, f"{what} field {field}", g, w, tol)
    return problems
