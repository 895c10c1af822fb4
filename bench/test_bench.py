"""Tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402


def test_inputs_depend_only_on_the_seed():
    for w in wl.WORKLOADS:
        first = list(itertools.islice(wl.op_inputs(w, 5), 40))
        assert first == list(itertools.islice(wl.op_inputs(w, 5), 40))
        assert first != list(itertools.islice(wl.op_inputs(w, 6), 40))


def test_tomo_and_device_inputs_do_not_repeat_within_a_table_pass():
    profiles = [i["profile"] for i in itertools.islice(wl.op_inputs("tomo-scan", 1), wl.TOMO_PROFILES)]
    assert len(set(profiles)) == wl.TOMO_PROFILES
    device = list(itertools.islice(wl.op_inputs("device-sweep", 1), wl.FLUX_POINTS))
    assert len({i["flux_index"] for i in device}) == wl.FLUX_POINTS
    assert [i["n_levels"] for i in device[:6]] == [6, 8, 10, 6, 8, 10]


def test_reference_covers_every_table_input():
    ref = wl.load_reference()
    assert all(len(ref["algo_noisy"]["mitigated"][a]) == wl.SHOT_SEEDS for a in wl.ALGOS)
    assert len(ref["tomo"]) == wl.TOMO_PROFILES
    assert all(len(ref["device"]["points"][str(n)]) == wl.FLUX_POINTS for n in wl.N_LEVELS)


def test_checks_reject_a_wrong_bundle():
    inp = next(wl.op_inputs("algo-ideal", 1))
    texts = wl.run_op("algo-ideal", inp)
    assert wl.check_op("algo-ideal", inp, texts, {}) == []
    doc = json.loads(texts[0])
    doc["entries"][0]["sp"] = 0.5
    assert wl.check_op("algo-ideal", inp, [json.dumps(doc)], {})


def test_traced_op_runs_the_real_runners_and_restores_them():
    import tracing
    from qutritlab import cli_harness as ch

    before = {attr: getattr(ch, attr) for attrs in tracing.CH_SPANS.values() for attr in attrs}
    inp = next(wl.op_inputs("tomo-scan", 1))
    tr = tracing.Tracer()
    with tracing.traced_program(tr):
        texts = tracing.traced_op(tr, "tomo-scan", inp)
        assert ch.run_process_tomo is not before["run_process_tomo"]
    tracing.probe_last_op(tr)
    assert all(getattr(ch, attr) is fn for attr, fn in before.items())
    assert texts == wl.run_op("tomo-scan", inp)
    layers = tracing.layer_metrics(tr)
    assert layers["noise_sim.propagator_builds"] > 0 and layers["gates_compiler.moments"] > 0
    assert 0.0 < layers["trace.span_coverage_pct"] < 100.0


def test_smoke_mode_output_matches_benchmark_json():
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                         capture_output=True, text=True, timeout=300, check=False)
    assert out.returncode == 0, out.stdout + out.stderr


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "algo-ideal", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, timeout=180, cwd=tmp_path, check=False)
    assert out.returncode != 0
    assert out.stdout == ""
