"""Per-layer spans around the calls the real runners make.

While tracing, the names that ``qutritlab.cli_harness`` looks up at call
time (``simulate_lindblad``, ``dj_circuit``, ``mitigate_counts``,
``labeled_spectrum``, ...) are replaced by wrappers that open a span, call
the original and close the span. The op itself is the benchmark's ordinary
``workloads.run_op``, so the traced run executes the runners' own code and
its bundles are checked like any other op's.

Span kinds:
  span   a call on the op's path; its self time is its duration minus the
         part its child spans cover.
  probe  a nested call timed again on the same inputs after the op, beside
         the span tree (gate embedding, Hamiltonian build, eigh).
Counts are exact tallies at the same boundaries.
"""

from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from qutritlab import cli_harness as ch
from qutritlab import device_hamiltonian as dh
from qutritlab import gates_compiler as gc
from qutritlab import noise_sim as ns

import workloads as wl


class Tracer:
    """Spans kept in memory as [name, start, end, parent, op, kind]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self.circuits: list = []  # circuits and device params of the last op, for the probes
        self.params: list = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op, "span"]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def record(self, name: str, start: float, end: float, kind: str = "span") -> None:
        """A finished span: a child of the open span, or beside the tree for a probe."""
        parent = self._stack[-1] if self._stack and kind == "span" else -1
        self.spans.append([name, start, end, parent, self.op, kind])

    def probe(self, name: str, fn, *args):
        start = perf_counter()
        out = fn(*args)
        self.record(name, start, perf_counter(), "probe")
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, op, kind in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "op": op, "kind": kind}) + "\n")
            f.write(json.dumps({"counts": dict(self.counts)}) + "\n")


# ---------------------------------------------------------------------------
# Wrappers around the names the runners look up

def _timed(tr: Tracer, name: str, fn, note=None):
    """fn inside a span; note(args, result) runs after the span closes."""
    def traced(*args, **kwargs):
        with tr.span(name):
            out = fn(*args, **kwargs)
        if note is not None:
            note(args, out)
        return out
    return traced


def _propagator(tr: Tracer, original):
    """LindbladEngine.propagator: a request that grew the engine's cache built
    a propagator; the others were served from it."""
    def traced(self, duration_ns):
        cache = getattr(self, "_cache", None)
        before = len(cache) if cache is not None else -1
        start = perf_counter()
        out = original(self, duration_ns)
        end = perf_counter()
        tr.counts["noise_sim.propagator_requests"] += 1
        if cache is None or len(cache) > before:
            tr.counts["noise_sim.propagator_builds"] += 1
            tr.record("noise_sim.propagator_build", start, end)
        return out
    return traced


# span name -> names cli_harness looks up
CH_SPANS = {
    "cli_harness.runner": ("run_dj", "run_bv", "run_grover", "run_process_tomo", "run_device_report"),
    "algorithms.circuit_build": ("constant_oracles", "balanced_oracle_table",
                                 "dj_circuit", "bv_circuit", "grover_circuit"),
    "gates_compiler.compile": ("logical_gate", "single_qutrit_circuit", "decompose_single",
                               "merge_streams", "circuit_unitary"),
    "noise_sim.simulate_pure": ("simulate_pure",),
    "noise_sim.lindblad_evolve": ("simulate_lindblad",),
    "noise_sim.measure": ("measure_probs",),
    "noise_sim.sample": ("sample_counts",),
    "noise_sim.channel": ("circuit_channel",),
    "noise_sim.chi": ("chi_of_unitary", "reduced_qutrit_channel", "chi_matrix", "process_fidelity"),
    "readout_mitigation.mitigate": ("synthetic_confusion", "apply_confusion", "mitigate_counts"),
    # flux_sweep's own loop counts as spectrum time; its labeled_spectrum
    # calls (looked up in device_hamiltonian) are spans of their own
    "device_hamiltonian.spectrum": ("flux_sweep", "labeled_spectrum"),
}


def _notes(tr: Tracer) -> dict:
    """Counts and probe inputs taken from a call's arguments and result."""
    def circuit_built(args, circ):
        tr.counts["algorithms.circuits"] += 1
        tr.circuits.append(circ)

    def mitigated(args, corrected):
        tr.counts["readout_mitigation.calls"] += 1
        tr.counts["readout_mitigation.entries"] += corrected.shape[0]
        floor = math.sqrt(float(np.sum(args[0])))
        tr.counts["readout_mitigation.floored"] += int(np.sum(corrected <= floor + 1e-9))

    def spectrum(args, report):
        tr.counts["device_hamiltonian.spectra"] += 1
        tr.counts["device_hamiltonian.hilbert_dim"] += args[0].n_levels ** 3
        tr.params.append(args[0])

    return {
        "dj_circuit": circuit_built, "bv_circuit": circuit_built, "grover_circuit": circuit_built,
        "single_qutrit_circuit": lambda args, circ: tr.circuits.append(circ),
        "circuit_channel": lambda args, channel: tr.circuits.append(args[0]),
        "mitigate_counts": mitigated,
        "labeled_spectrum": spectrum,
    }


@contextmanager
def traced_program(tr: Tracer):
    """Replace the looked-up names by span wrappers for the duration."""
    notes = _notes(tr)
    patches = [(ch, attr, _timed(tr, span, getattr(ch, attr), notes.get(attr)))
               for span, attrs in CH_SPANS.items() for attr in attrs]
    patches += [
        (dh, "labeled_spectrum", _timed(tr, "device_hamiltonian.spectrum", dh.labeled_spectrum,
                                        notes["labeled_spectrum"])),
        (ch.ExperimentConfig, "from_mapping",
         classmethod(_timed(tr, "cli_harness.config", vars(ch.ExperimentConfig)["from_mapping"].__func__))),
        (ch.ResultBundle, "__post_init__",
         _timed(tr, "cli_harness.serialize", vars(ch.ResultBundle)["__post_init__"])),
        (ch.ResultBundle, "to_json", _timed(tr, "cli_harness.serialize", vars(ch.ResultBundle)["to_json"])),
        (ns.LindbladEngine, "propagator", _propagator(tr, vars(ns.LindbladEngine)["propagator"])),
    ]
    saved = []
    try:
        for owner, attr, wrapper in patches:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def traced_op(tr: Tracer, workload: str, inp: dict) -> list[str]:
    """One ordinary op inside an "op" span; call inside traced_program()."""
    tr.op += 1
    with tr.span("op"):
        return wl.run_op(workload, inp)


def probe_last_op(tr: Tracer) -> None:
    """Time the last op's nested calls again on the same inputs."""
    for circ in tr.circuits:
        for moment in circ.moments:
            tr.probe("gates_compiler.moment_unitary", gc.moment_unitary, moment, circ.n_qutrits)
        tr.counts["gates_compiler.moments"] += len(circ.moments)
    for params in tr.params:
        tr.probe("device_hamiltonian.normal_form", dh.normal_mode_transform, params)
        h = tr.probe("device_hamiltonian.build", dh.build_full_hamiltonian, params)
        tr.probe("device_hamiltonian.eigh", np.linalg.eigh, h)
    tr.circuits, tr.params = [], []


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans

SPAN_METRICS = {
    "cli_harness.config_ms": "cli_harness.config",
    "cli_harness.runner_ms": "cli_harness.runner",
    "cli_harness.serialize_ms": "cli_harness.serialize",
    "algorithms.circuit_build_ms": "algorithms.circuit_build",
    "gates_compiler.compile_ms": "gates_compiler.compile",
    "noise_sim.simulate_pure_ms": "noise_sim.simulate_pure",
    "noise_sim.lindblad_evolve_ms": "noise_sim.lindblad_evolve",
    "noise_sim.measure_ms": "noise_sim.measure",
    "noise_sim.propagator_build_ms": "noise_sim.propagator_build",
    "noise_sim.channel_ms": "noise_sim.channel",
    "noise_sim.chi_ms": "noise_sim.chi",
    "noise_sim.sample_ms": "noise_sim.sample",
    "readout_mitigation.mitigate_ms": "readout_mitigation.mitigate",
    "device_hamiltonian.spectrum_ms": "device_hamiltonian.spectrum",
}
PROBE_METRICS = {
    "gates_compiler.moment_unitary_ms": "gates_compiler.moment_unitary",
    "device_hamiltonian.normal_form_ms": "device_hamiltonian.normal_form",
    "device_hamiltonian.build_ms": "device_hamiltonian.build",
    "device_hamiltonian.eigh_ms": "device_hamiltonian.eigh",
}
COUNT_METRICS = {
    "algorithms.circuits": "algorithms.circuits",
    "gates_compiler.moments": "gates_compiler.moments",
    "noise_sim.propagator_builds": "noise_sim.propagator_builds",
    "noise_sim.propagator_requests": "noise_sim.propagator_requests",
    "readout_mitigation.calls": "readout_mitigation.calls",
    "device_hamiltonian.spectra": "device_hamiltonian.spectra",
}
# spans whose self time is not a layer's work: the op wrapper and the
# runner bodies between their calls into the layers
UNCOVERED = ("op", "cli_harness.runner")


def layer_metrics(tr: Tracer) -> dict:
    """Per-op busy time (ms) of each layer, per-op counts and derived ratios."""
    ops = tr.op + 1
    child = defaultdict(float)
    for _, start, end, parent, _, kind in tr.spans:
        if kind == "span" and parent >= 0:
            child[parent] += end - start
    self_ms = defaultdict(float)
    probe_ms = defaultdict(float)
    op_ms = 0.0
    for i, (name, start, end, _, _, kind) in enumerate(tr.spans):
        if kind == "probe":
            probe_ms[name] += (end - start) * 1e3
            continue
        self_ms[name] += (end - start - child[i]) * 1e3
        if name == "op":
            op_ms += (end - start) * 1e3
    builds = [(e - s) * 1e3 for n, s, e, *_ in tr.spans if n == "noise_sim.propagator_build"]
    c = tr.counts
    out = {m: self_ms[n] / ops for m, n in SPAN_METRICS.items()}
    out.update({m: probe_ms[n] / ops for m, n in PROBE_METRICS.items()})
    out.update({m: c[n] / ops for m, n in COUNT_METRICS.items()})
    requests = c["noise_sim.propagator_requests"]
    out["noise_sim.propagator_reuse_ratio"] = 1.0 - c["noise_sim.propagator_builds"] / requests if requests else 0.0
    out["noise_sim.propagator_build_max_ms"] = max(builds, default=0.0)
    entries = c["readout_mitigation.entries"]
    out["readout_mitigation.floored_frac"] = c["readout_mitigation.floored"] / entries if entries else 0.0
    spectra = c["device_hamiltonian.spectra"]
    out["device_hamiltonian.hilbert_dim"] = c["device_hamiltonian.hilbert_dim"] / spectra if spectra else 0.0
    out["device_hamiltonian.label_ms"] = (
        out["device_hamiltonian.spectrum_ms"] - out["device_hamiltonian.normal_form_ms"]
        - out["device_hamiltonian.build_ms"] - out["device_hamiltonian.eigh_ms"]
    )
    covered = sum(ms for name, ms in self_ms.items() if name not in UNCOVERED)
    out["trace.span_coverage_pct"] = 100.0 * covered / op_ms
    return out


def op_durations_ms(tr: Tracer) -> list[float]:
    return [(end - start) * 1e3 for name, start, end, *_ in tr.spans if name == "op"]
