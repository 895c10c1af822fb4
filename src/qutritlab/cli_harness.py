"""Experiment orchestration and the command line entry point.

Ties the other modules together: loads a configuration profile, runs the
three ternary algorithms in ideal or noisy mode with optional readout
mitigation, emits device spectra and process matrices, and writes every
result as a machine-readable JSON document plus a flat CSV for plotting.
An algorithm runner's cases are plain data, each success one outcome's
probability (or its complement), so a run scores all its cases as
indexed columns of one stack of distributions. Every JSON document it
writes, to a file, stdout or stderr, is one line of compact JSON with
sorted keys (_json_text). A bundle holds its figure CSV as a formatter
and formats it when the figure is read or written, never for to_json.
Outputs carry no timestamps, so a rerun with the same configuration and
seed reproduces them byte for byte.

On the command line each subcommand's parser names its handler, and main
calls it. `sim`, `device sweep` and `tomo process` share `--config`,
`--out` and one resolve-run-emit step; `compile` and `mitigate` emit one
JSON document each.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import hashlib
import json
import math
import numbers
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .qutrit_core import DIM, BasisLabel, ProbDist, QutritLabError, _passed, check_prob_rows
from .gates_compiler import (
    LOGICAL_GATE_NAMES,
    circuit_unitary,
    compile_cphase,
    cphase_matrix,
    decompose_single,
    equal_up_to_global_phase,
    logical_gate,
    merge_streams,
    single_qutrit_circuit,
)
from .noise_sim import (
    NoiseModel,
    ProcessMatrix,
    QutritCoherence,
    chi_matrix,
    chi_of_unitary,
    circuit_channel,
    final_states,
    process_fidelity,
    pure_states,
    sample_rows,
)
# no runner calls these; they are kept as names here for wrappers that trace them
from .noise_sim import measure_probs, reduced_qutrit_channel, sample_counts, simulate_lindblad, simulate_pure
from .algorithms import (
    GroverSpec,
    balanced_oracle_table,
    bv_circuit,
    bv_decode,
    classical_baselines,
    constant_oracles,
    dj_circuit,
    grover_circuit,
    grover_ideal_success,
)
from .readout_mitigation import (
    apply_confusion,  # no runner calls it; kept as a name here for wrappers that trace it
    confuse_rows,
    load_confusion,
    mitigate_counts,
    mitigate_rows,
    synthetic_confusion,
)
from .device_hamiltonian import DeviceParams, flux_sweep, labeled_spectrum

PACKAGE_VERSION = "1.0.0"

_PAIR_LABELS = [str(BasisLabel.from_index(i, 2)) for i in range(DIM * DIM)]
# one-qutrit chi in one %-format, row-major; %.9g prints every float as f"{x:.9g}" does
_TOMO_CSV = "row,col,re,im\n" + "".join(f"{r},{c},%.9g,%.9g\n" for r in range(DIM * DIM) for c in range(DIM * DIM))


class ConfigError(QutritLabError, ValueError):
    """A configuration value is missing, unknown or inconsistent."""


class DocumentError(QutritLabError, ValueError):
    """A document holds what JSON cannot write: a nan, an infinity or a container that holds itself."""


@functools.cache
def _defaults() -> dict:
    """The packaged default profile, parsed once per process; never mutate it."""
    return json.loads(resources.files(__package__).joinpath("default_config.json").read_text())


# keys whose value may be null; every other key keeps the type of its default
_NULLABLE = ("shots", "seed", "out_dir")

# counts are written as floats (_by_label), and every count up to 2**53, and
# every sum of counts up to it, is an exact float
_MAX_SHOTS = 2**53

# device sweep grid points: about 4 minutes at 25 ms per point (n_levels 8, one core)
_MAX_SWEEP_STEPS = 10_000


def _resolve(value, default, path: str = ""):
    """value laid over the packaged default, every key known and every leaf of its default's type.

    So 2 and 2.0 resolve, and hash, alike. No number may be nan, and only
    coherence times may be infinite (no decay).
    """
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{path!r} must be a mapping")
        resolved = dict(default)
        for key, item in value.items():
            key_path = f"{path}.{key}" if path else f"{key}"
            if key not in default:
                raise ConfigError(f"unknown configuration key {key_path!r}")
            resolved[key] = _resolve(item, default[key], key_path)
        return resolved
    if value is None and path in _NULLABLE:
        return value
    if isinstance(default, bool):
        ok, kind = isinstance(value, bool), "true or false"
    elif isinstance(default, int):
        ok, kind = isinstance(value, numbers.Integral) and not isinstance(value, bool), "an integer"
    elif isinstance(default, float):
        ok, kind = isinstance(value, numbers.Real) and not isinstance(value, bool), "a number"
    else:
        ok, kind = isinstance(value, (str, os.PathLike)), "a string or a path"
    if not ok:
        raise ConfigError(f"{path!r} must be {kind}, got {value!r}")
    if not isinstance(default, float):
        return int(value) if type(default) is int else value
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"{path!r} is out of range, got {value!r}") from None
    if math.isnan(number) or (math.isinf(number) and not path.startswith("coherence.")):
        raise ConfigError(f"{path!r} must be a finite number, got {value!r}")
    return number


def _read_profile(path):
    """The YAML document of a profile file, unresolved; ConfigError if it cannot be read or parsed."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read configuration file: {exc}") from exc
    import yaml  # here, so a run without a profile file never loads PyYAML
    try:
        # libyaml's safe loader where present; it builds the same values as the pure one
        return yaml.load(text, getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed configuration file: {exc}") from exc


# the ExperimentConfig fields that are top-level profile keys of the same name
_TOP_FIELDS = ("shots", "seed", "noisy", "mitigate", "out_dir")


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved run profile: noise tables, device circuit values, sampling."""

    noise: NoiseModel
    device: DeviceParams
    shots: int | None
    seed: int | None
    noisy: bool
    mitigate: bool
    readout_diagonal: float
    out_dir: str | None

    def __post_init__(self):
        # the constructor and dataclasses.replace: the fields as a profile, resolved once
        for name, kind in (("noise", NoiseModel), ("device", DeviceParams)):
            if not isinstance(getattr(self, name), kind):
                raise ConfigError(f"{name} cannot be {getattr(self, name)!r}")
        coupling = dataclasses.asdict(self.noise)
        self._load(_resolve({**{key: getattr(self, key) for key in _TOP_FIELDS},
                             "readout": {"diagonal": self.readout_diagonal},
                             "coherence": {"q1": coupling.pop("q1"), "q2": coupling.pop("q2")},
                             "coupling_khz": coupling, "device": dataclasses.asdict(self.device)}, _defaults()))

    def _load(self, profile: dict) -> None:
        """The one place a resolved profile becomes a config: every field as
        loaded, the profile kept for the hash, then the cross-field checks."""
        coh = profile["coherence"]
        vars(self).update({key: profile[key] for key in _TOP_FIELDS}, readout_diagonal=profile["readout"]["diagonal"],
                          noise=NoiseModel(q1=QutritCoherence(**coh["q1"]), q2=QutritCoherence(**coh["q2"]),
                                           **profile["coupling_khz"]),
                          device=DeviceParams(**profile["device"]), _profile=profile)
        del profile["out_dir"]  # left out of the hash and of to_mapping
        if self.shots is not None and self.shots < 1:
            raise ConfigError(f"shots must be positive, got {self.shots}")
        if self.shots is not None and self.shots > _MAX_SHOTS:
            raise ConfigError(f"shots must be at most 2**53, got {self.shots}")
        if self.mitigate and (self.shots is None or self.shots < (DIM * DIM) ** 2):
            raise ConfigError("mitigation needs shots >= 81 so the count floor stays feasible")
        if self.shots is not None and self.seed is None:
            raise ConfigError("sampled runs need an explicit seed")
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 < self.readout_diagonal <= 1.0:
            raise ConfigError("readout diagonal must lie in (0, 1]")

    @classmethod
    def from_mapping(cls, mapping: dict | None) -> "ExperimentConfig":
        """mapping laid over the packaged profile; only None means no overrides."""
        if mapping is not None and not isinstance(mapping, dict):
            raise ConfigError("configuration root must be a mapping")
        config = cls.__new__(cls)
        config._load(_resolve({} if mapping is None else mapping, _defaults()))
        return config

    @classmethod
    def default(cls) -> "ExperimentConfig":
        return cls.from_mapping(None)

    @classmethod
    def from_yaml(cls, path) -> "ExperimentConfig":
        return cls.from_mapping(_read_profile(path))

    def replace(self, **changes) -> "ExperimentConfig":
        if unknown := [key for key in changes if key not in self.__dataclass_fields__]:
            raise ConfigError(f"unknown configuration key {unknown[0]!r}")
        return dataclasses.replace(self, **changes)

    def to_mapping(self) -> dict:
        """Experiment identity: a copy of the resolved profile, everything that shapes results.

        The output directory is deliberately left out so the same run
        written to two places hashes identically.
        """
        return copy.deepcopy(self._profile)  # its untouched subtrees are the packaged defaults' own

    def config_hash(self) -> str:
        return self._config_hash

    @functools.cached_property
    def _config_hash(self) -> str:
        # memoized per instance, not across equal configs: j11 = 0.0 and
        # -0.0 compare (and hash) equal but write different mappings
        canon = json.dumps(self._profile, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ResultBundle:
    """One experiment's results: ordered entries, summary, figure data.

    The figure comes as a zero-argument formatter; figure_csv is its text,
    formatted on first read (save reads it, to_json does not). Equality and
    the repr leave the formatter out.
    """

    experiment: str
    config_hash: str
    entries: tuple
    summary: dict
    format_figure: Callable[[], str] = dataclasses.field(repr=False, compare=False)

    @functools.cached_property
    def figure_csv(self) -> str:
        return self.format_figure()

    def __post_init__(self):
        if not callable(self.format_figure):  # else a figure text would fail only at save, after the JSON
            raise QutritLabError("a bundle's figure must be a zero-argument formatter, not "
                                 f"{type(self.format_figure).__name__}")
        # "not ... <=" and "not 0 < ... < inf": a nan sum or duration fails too, as JSON has no nan
        for entry in self.entries:
            for key in ("distribution", "mitigated_distribution"):
                dist = entry.get(key)
                if dist is not None and not abs(sum(dist.values()) - 1.0) <= 1e-6:
                    raise QutritLabError(f"unnormalized {key} in entry {entry.get('name')}")
            dur = entry.get("duration_ns")
            if dur is not None and not 0.0 < dur < math.inf:
                raise QutritLabError(f"circuit duration in {entry.get('name')} must be positive and finite")

    def to_json(self) -> str:
        doc = {
            "experiment": self.experiment,
            "config_hash": self.config_hash,
            "package_version": PACKAGE_VERSION,
            "entries": list(self.entries),
            "summary": self.summary,
        }
        return _json_text(doc)

    def save(self, out_dir) -> tuple[Path, Path]:
        return tuple(_write_files(out_dir, {f"{self.experiment}_result.json": self.to_json(),
                                            f"{self.experiment}_figure.csv": self.figure_csv}))


def _json_text(doc) -> str:
    """The one JSON format the command line writes: compact, keys sorted, ASCII, and a newline.

    A nan or an infinity, which JSON has no token for, and a container
    that holds itself raise DocumentError with the stdlib's message.
    """
    try:
        return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def _write_files(out_dir, texts: dict) -> list[Path]:
    """Write each name's text into out_dir, created if missing; an OS failure is a ConfigError."""
    if not os.fspath(out_dir):  # Path("") is the working directory, not an empty name
        raise ConfigError("the output directory name is empty")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            (out / name).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc
    return [out / name for name in texts]


def _by_label(values: np.ndarray) -> dict:
    # as floats: counts come as whole numbers and would otherwise be written as ints
    return dict(zip(_PAIR_LABELS, np.asarray(values, dtype=float).tolist(), strict=True))


def _run_cases(config: ExperimentConfig, cases) -> tuple[list[dict], np.ndarray]:
    """One entry per (circuit, fields, success, seed_offset) case, and the checked (cases, 9) exact stack.

    An entry is a copy of the case's fields plus its success probability
    sp: the probability of outcome `success`, or 1 - p(00) where success
    is None (a balanced DJ oracle); from the exact distributions and,
    when mitigating, as sp_mitigated from the mitigated ones. Sampling
    uses seed + seed_offset.

    The cases' circuits are walked together, each shared moment prefix
    once (final_states, or pure_states for the pure backend, which checks
    each state as PureState does); from there on the distributions are one
    checked (cases, 9) stack, and all cases pass each stage together: the
    final-state checks of simulate_lindblad (trace drift, then every
    DensityMatrix check), the diagonal probabilities and their ProbDist
    checks, the confusion, the sampling checks and one multinomial draw per
    case, the inversion and its SignedCounts checks, one repair pass over
    the whole stack and the mitigated distribution. Each check runs on
    every row, with its own threshold, class and message, before the next
    check runs; it raises for its first failing case, and the error carries
    a note naming it.
    """
    matrix = synthetic_confusion(diagonal=config.readout_diagonal) if config.mitigate else None
    circuits, fields, success, offsets = zip(*cases)
    try:
        if config.noisy:
            probs = final_states(circuits, config.noise).diagonal(axis1=1, axis2=2).real
        else:
            probs = np.abs(pure_states(circuits)) ** 2
        probs = check_prob_rows(probs)
        entries = [dict(field, sp=sp, duration_ns=circ.total_duration, distribution=_by_label(p))
                   for circ, field, sp, p in zip(circuits, fields, _success(probs, success), probs)]
        if config.shots is None:
            return entries, probs
        measured = probs if matrix is None else confuse_rows(probs, matrix)
        counts = sample_rows(measured, config.shots, [config.seed + offset for offset in offsets])
        for entry, row in zip(entries, counts):
            entry["counts"] = _by_label(row)
        if matrix is not None:
            corrected = mitigate_rows(counts, matrix)
            mitigated = check_prob_rows(corrected / corrected.sum(axis=1)[:, None])
            for entry, sp, p in zip(entries, _success(mitigated, success), mitigated):
                entry.update(mitigated_distribution=_by_label(p), sp_mitigated=sp)
        return entries, probs
    except QutritLabError as exc:
        if exc.row is not None:
            exc.add_note(f"raised for case {exc.row} of {len(cases)}")
        raise


def _success(probs: np.ndarray, success: tuple) -> list[float]:
    """Each row's probability at its case's success outcome, or 1 - p(00) where that is None."""
    picked = probs[np.arange(len(probs)), [0 if s is None else s for s in success]]
    return np.where([s is None for s in success], 1.0 - picked, picked).tolist()


def _averages(entries: list[dict], groups: dict, mitigated: bool) -> dict:
    """Mean sp of the entries that match each named {field: value} filter;
    with mitigated, also their mean sp_mitigated as "<name>_mitigated"."""
    suffixes = {"sp": "", "sp_mitigated": "_mitigated"} if mitigated else {"sp": ""}
    return {name + suffix: float(np.mean([e[key] for e in entries if all(e[k] == v for k, v in where.items())]))
            for key, suffix in suffixes.items() for name, where in groups.items()}


# A runner hands its bundle the figure as functools.partial(formatter, data), not
# as a closure, so a bundle still pickles.

def _csv(header: str, rows) -> str:
    return "\n".join([header, *rows]) + "\n"


# The runners' case tables depend on no config, so each is built once per
# process; each run copies a case's fields into an entry of its own.

@functools.cache
def _dj_cases() -> tuple:
    """run_dj's cases: the 9 constant oracles, scored by p(00), then the 16 balanced ones, by 1 - p(00)."""
    cases = []
    for idx, (oracle, note) in enumerate([(o, "0") for o in constant_oracles()] + list(balanced_oracle_table())):
        fields = {"name": oracle.label(), "kind": oracle.kind, "function": note}
        success = None
        if oracle.kind == "constant":
            fields["constant_value"] = oracle.constant_value
            success = 0
        cases.append((dj_circuit(oracle), fields, success, idx))
    return tuple(cases)


def run_dj(config: ExperimentConfig) -> ResultBundle:
    """All 25 single-query oracles: 9 constant and 16 balanced."""
    entries, _ = _run_cases(config, _dj_cases())
    summary = _averages(entries, {"constant_avg": {"kind": "constant"}, "balanced_avg": {"kind": "balanced"}},
                        config.mitigate)
    summary.update(
        classical_baseline=classical_baselines()["dj"],
        n_constant=sum(e["kind"] == "constant" for e in entries),
        n_balanced=sum(e["kind"] == "balanced" for e in entries),
    )
    return ResultBundle("dj", config.config_hash(), tuple(entries), summary, functools.partial(_dj_csv, entries))


def _dj_csv(entries) -> str:
    return _csv("oracle,kind,function,sp",
                (f"{e['name']},{e['kind']},{e['function'].replace(' ', '')},{e['sp']:.9g}" for e in entries))


@functools.cache
def _bv_cases() -> tuple:
    """run_bv's cases, one per hidden string in label order, each scored by the probability of its string."""
    return tuple((bv_circuit(divmod(idx, DIM)), {"name": label}, idx, 100 + idx)
                 for idx, label in enumerate(_PAIR_LABELS))


def run_bv(config: ExperimentConfig) -> ResultBundle:
    """All 9 hidden strings, decoded from the exact distribution."""
    entries, probs = _run_cases(config, _bv_cases())
    for entry, p in zip(entries, probs):
        decoded = "".join(str(t) for t in bv_decode(_passed(ProbDist, probs=p)))  # p is a row _run_cases checked
        entry.update(decoded=decoded, decoded_correctly=decoded == entry["name"])
    summary = _averages(entries, {"average_sp": {}}, config.mitigate)
    summary.update(
        classical_baseline=classical_baselines()["bv"],
        all_decoded_correctly=all(e["decoded_correctly"] for e in entries),
    )
    return ResultBundle("bv", config.config_hash(), tuple(entries), summary, functools.partial(_bv_csv, entries))


def _bv_csv(entries) -> str:
    return _csv("string,sp,decoded", (f"{e['name']},{e['sp']:.9g},{e['decoded']}" for e in entries))


@functools.cache
def _grover_cases() -> tuple:
    """run_grover's cases: the 9 targets for one round, then for two, each scored by the probability of its target."""
    return tuple((grover_circuit(GroverSpec(target, rounds)),
                  {"name": f"k{rounds}_{target}", "rounds": rounds, "target": target,
                   "ideal_sp": grover_ideal_success(rounds)}, idx, 200 + 9 * rounds + idx)
                 for rounds in (1, 2) for idx, target in enumerate(_PAIR_LABELS))


def run_grover(config: ExperimentConfig) -> ResultBundle:
    """All 9 targets for one and two amplification rounds.

    The figure CSV holds both 9 x 9 probability matrices, one row per
    (rounds, target) pair.
    """
    entries, _ = _run_cases(config, _grover_cases())
    summary = _averages(entries, {"round1_avg": {"rounds": 1}, "round2_avg": {"rounds": 2}}, mitigated=False)
    baselines = classical_baselines()
    summary.update(
        round2_exceeds_round1=summary["round2_avg"] > summary["round1_avg"],
        classical_baseline_round1=baselines["grover1"],
        classical_baseline_round2=baselines["grover2"],
        round2_duration_ns_22=next(e["duration_ns"] for e in entries if e["rounds"] == 2 and e["target"] == "22"),
    )
    return ResultBundle("grover", config.config_hash(), tuple(entries), summary,
                        functools.partial(_grover_csv, entries))


def _grover_csv(entries) -> str:
    return _csv("rounds,target," + ",".join(_PAIR_LABELS),
                (f"{e['rounds']},{e['target']}," + ",".join(f"{e['distribution'][lbl]:.9g}" for lbl in _PAIR_LABELS)
                 for e in entries))


# device bundle entry key -> SpectrumReport field; the figure prints the first nine
_DEVICE_ENTRY = {
    "flux": "flux", "w01_q1": "w01_q1", "w12_q1": "w12_q1", "w01_q2": "w01_q2", "w12_q2": "w12_q2",
    "j11_khz": "j11", "j21_khz": "j21", "j12_khz": "j12", "j22_khz": "j22",
    "coupler_ghz": "coupler_ghz", "min_overlap": "min_overlap", "sweet_spot": "sweet_spot",
}
_DEVICE_CSV_HEADER = "flux,w01_q1,w12_q1,w01_q2,w12_q2,J11,J21,J12,J22"


def run_device_report(config: ExperimentConfig, flux_grid) -> ResultBundle:
    """Flux sweep of the device spectrum, plus the operating point.

    An operating point on the grid is a spectrum-cache hit unless the sweep
    has already pushed it out of the cache.
    """
    reports = flux_sweep(config.device, flux_grid)
    operating = labeled_spectrum(config.device)
    entries = [{"name": f"flux_{r.flux:.6g}", **{key: getattr(r, field) for key, field in _DEVICE_ENTRY.items()}}
               for r in reports]
    summary = {"points": len(reports), "operating_flux": config.device.flux}
    summary.update({f"operating_{key}": getattr(operating, _DEVICE_ENTRY[key])
                    for key in ("w01_q1", "w01_q2", "j11_khz", "coupler_ghz")})
    return ResultBundle("device", config.config_hash(), tuple(entries), summary,
                        functools.partial(_device_csv, entries))


def _device_csv(entries) -> str:
    return _csv(_DEVICE_CSV_HEADER, (",".join(f"{e[key]:.9g}" for key in list(_DEVICE_ENTRY)[:9]) for e in entries))


@functools.lru_cache(maxsize=len(LOGICAL_GATE_NAMES))
def _gate_reference(gate: str) -> tuple[ProcessMatrix, float]:
    """Ideal chi, normalized once here for every fidelity against it, and noiseless compiled fidelity of a gate."""
    ideal_chi = chi_of_unitary(logical_gate(gate))
    ideal_chi.normalized()
    compiled = single_qutrit_circuit(gate, 0, n_qutrits=1)
    noiseless_fid = process_fidelity(chi_of_unitary(circuit_unitary(compiled)), ideal_chi)
    return ideal_chi, noiseless_fid


@functools.lru_cache(maxsize=2 * len(LOGICAL_GATE_NAMES))
def _pair_circuit(gate: str, qidx: int):
    """The gate compiled on one qutrit of the pair, the other idle."""
    return merge_streams(2, {qidx: decompose_single(gate, qidx)})


def run_process_tomo(config: ExperimentConfig, gate: str, qutrit: int) -> ResultBundle:
    """Process matrix of a compiled gate, noiseless and under the noise model.

    The noiseless references and the pair circuit of each gate are built
    once per process; only the noisy channel depends on the configuration.
    """
    if gate not in LOGICAL_GATE_NAMES:
        raise ConfigError(f"unsupported gate {gate!r}; pick one of {', '.join(LOGICAL_GATE_NAMES)}")
    # True and 1.0 equal 1 but would be written into the summary as they came
    if isinstance(qutrit, bool) or not isinstance(qutrit, numbers.Integral) or qutrit not in (1, 2):
        raise ConfigError(f"qutrit must be the integer 1 or 2, got {qutrit!r}")
    qutrit = int(qutrit)
    qidx = qutrit - 1
    ideal_chi, noiseless_fid = _gate_reference(gate)
    pair = _pair_circuit(gate, qidx)
    noisy_chi = chi_matrix(circuit_channel(pair, config.noise, qutrit=qidx))
    noisy_fid = process_fidelity(noisy_chi, ideal_chi)

    entries = ({"name": "noiseless", "fidelity": noiseless_fid}, {"name": "noisy", "fidelity": noisy_fid})
    # virtual phase gates take no pulse time, so report duration only
    # when the compiled circuit actually occupies the channel
    if pair.total_duration > 0.0:
        for entry in entries:
            entry["duration_ns"] = pair.total_duration
    summary = {
        "gate": gate,
        "qutrit": qutrit,
        "noiseless_fidelity": noiseless_fid,
        "noisy_fidelity": noisy_fid,
    }
    return ResultBundle("tomo", config.config_hash(), entries, summary,
                        functools.partial(_tomo_csv, noisy_chi.matrix))


def _tomo_csv(chi: np.ndarray) -> str:
    """The tomography figure: a one-qutrit chi matrix, row-major, one cell per line."""
    parts = chi.copy().view(float)  # each row's real and imaginary parts, interleaved
    parts[np.abs(parts) < 1e-12] = 0.0  # rounding noise prints as 0 (never -0), not as nine noisy digits
    return _TOMO_CSV % tuple(parts.ravel().tolist())


def compile_report(theta: float, target: str) -> dict:
    """Compile one conditional phase and verify it against the ideal matrix."""
    if not math.isfinite(theta):
        raise ConfigError(f"theta must be a finite angle, got {theta}")
    circ = compile_cphase(theta, target)
    native = next(i.kind for i in circ.instructions() if i.kind.startswith("CPhaseNative"))
    exact = equal_up_to_global_phase(circuit_unitary(circ), cphase_matrix(theta, target))
    return {
        "target": target,
        "theta": float(theta),
        "pulse_count": circ.pulse_count(),
        "pi_pulse_count": circ.pi_pulse_count(),
        "native_kind": native,
        "duration_ns": circ.total_duration,
        "matches_ideal": bool(exact),
        "circuit_text": circ.to_text(),
    }


def _load_counts_file(path) -> np.ndarray:
    """Counts per basis label from a 'label count' or 'label,count' text file."""
    counts = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read counts file: {exc}") from exc
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise ConfigError(f"counts line needs a label and a value: {raw!r}")
        label, value = parts
        if label in counts:
            raise ConfigError(f"duplicate counts label {label!r}")
        try:
            count = float(value)
        except ValueError:
            raise ConfigError(f"counts value is not a number: {raw!r}") from None
        if not math.isfinite(count) or count < 0.0:
            raise ConfigError(f"counts value must be finite and non-negative: {raw!r}")
        counts[label] = count
    if set(counts) != set(_PAIR_LABELS):
        raise ConfigError(f"counts file must cover exactly the labels {' '.join(_PAIR_LABELS)}")
    return np.array([counts[lbl] for lbl in _PAIR_LABELS])


# command-line flag -> the top-level profile key it overrides; a flag not given parses as None
_FLAG_FIELDS = {"noisy": "noisy", "mitigate": "mitigate", "shots": "shots", "seed": "seed", "out": "out_dir"}


def _config_from_args(args) -> ExperimentConfig:
    """The flags given laid over the --config file's mapping (or none), resolved once.

    A file value that a flag overrides is never resolved, so it is not
    checked on its own.
    """
    # "is not None": an empty --config path is an unreadable file, not "use the packaged profile"
    mapping = _read_profile(args.config) if args.config is not None else None
    given = vars(args)
    # "is not None", not truthiness: --seed 0 overrides the profile's seed
    changes = {key: given[flag] for flag, key in _FLAG_FIELDS.items() if given.get(flag) is not None}
    if changes and (mapping is None or isinstance(mapping, dict)):  # from_mapping rejects any other root
        mapping = {**(mapping or {}), **changes}
    return ExperimentConfig.from_mapping(mapping)


def _run_experiment(args) -> None:
    """Resolve the profile, run the experiment; the bundle, or its files' receipt, on stdout."""
    config = _config_from_args(args)
    bundle = args.experiment(config, args)
    if config.out_dir is None:
        sys.stdout.write(bundle.to_json())
        return
    json_path, csv_path = bundle.save(config.out_dir)
    sys.stdout.write(_json_text({
        "experiment": bundle.experiment,
        "config_hash": bundle.config_hash,
        "summary": bundle.summary,
        "result_json": str(json_path),
        "figure_csv": str(csv_path),
    }))


def _sim(config: ExperimentConfig, args) -> ResultBundle:
    return {"dj": run_dj, "bv": run_bv, "grover": run_grover}[args.algorithm](config)


def _sweep(config: ExperimentConfig, args) -> ResultBundle:
    if not 1 <= args.steps <= _MAX_SWEEP_STEPS:
        raise ConfigError(f"steps must be between 1 and {_MAX_SWEEP_STEPS}, got {args.steps}")
    if not (math.isfinite(args.start) and math.isfinite(args.stop)):
        raise ConfigError(f"--from and --to must be finite, got {args.start} and {args.stop}")
    if not math.isfinite(args.stop - args.start):  # np.linspace would overflow to a nan grid
        raise ConfigError(f"--to minus --from must be finite, got {args.stop} - {args.start}")
    return run_device_report(config, np.linspace(args.start, args.stop, args.steps))


def _emit_document(doc: dict, out_dir, name: str) -> None:
    """The document on stdout, or written to out_dir/name with its path on stdout."""
    text = _json_text(doc)
    if out_dir is None:
        sys.stdout.write(text)
        return
    (path,) = _write_files(out_dir, {name: text})
    sys.stdout.write(_json_text({"written": str(path)}))


def _compile(args) -> None:
    report = compile_report(args.theta, args.target)
    _emit_document(report, args.out, f"cphase_{report['target']}_compiled.json")


def _mitigate(args) -> None:
    corrected = mitigate_counts(_load_counts_file(args.counts), load_confusion(args.matrix))
    _emit_document({"total": float(corrected.sum()), "corrected": _by_label(corrected)}, args.out,
                   "mitigated_counts.json")


def build_parser() -> argparse.ArgumentParser:
    """The command line; each subcommand's parser sets `run`, the handler main calls."""
    parser = argparse.ArgumentParser(
        prog="qutritlab",
        description="Two-qutrit transmon laboratory: algorithms, compiler, noise, device spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the subcommands that run an experiment on a profile; each sets experiment(config, args)
    experiment = argparse.ArgumentParser(add_help=False)
    experiment.add_argument("--config", help="YAML configuration file overriding the defaults")
    experiment.add_argument("--out", help="directory for the result JSON and figure CSV")
    experiment.set_defaults(run=_run_experiment)

    sim = sub.add_parser("sim", parents=[experiment], help="run a ternary algorithm over all oracles or targets")
    sim.add_argument("algorithm", choices=("dj", "bv", "grover"))
    # store_true flags default to None, so an absent flag leaves the profile's value
    sim.add_argument("--noisy", action="store_true", default=None,
                     help="evolve under the coherence tables instead of pure states")
    sim.add_argument("--shots", type=int, help="sample counts with this many shots")
    sim.add_argument("--seed", type=int, help="random seed for sampling")
    sim.add_argument("--mitigate", action="store_true", default=None,
                     help="push samples through the readout mitigation pipeline")
    sim.set_defaults(experiment=_sim)

    comp = sub.add_parser("compile", help="compile a gate to native pulses")
    comp_sub = comp.add_subparsers(dest="what", required=True)
    cph = comp_sub.add_parser("cphase", help="conditional phase on a basis state")
    cph.add_argument("--theta", type=float, required=True, help="phase angle in radians")
    cph.add_argument("--target", required=True, help="two-trit basis label, e.g. 21")
    cph.add_argument("--out", help="directory for the compiled circuit report")
    cph.set_defaults(run=_compile)

    dev = sub.add_parser("device", help="device Hamiltonian spectra")
    dev_sub = dev.add_subparsers(dest="what", required=True)
    sweep = dev_sub.add_parser("sweep", parents=[experiment], help="flux sweep of frequencies and couplings")
    sweep.add_argument("--from", dest="start", type=float, required=True, help="first flux point")
    sweep.add_argument("--to", dest="stop", type=float, required=True, help="last flux point")
    sweep.add_argument("--steps", type=int, required=True, help="number of grid points")
    sweep.set_defaults(experiment=_sweep)

    tomo = sub.add_parser("tomo", help="process tomography of compiled gates")
    tomo_sub = tomo.add_subparsers(dest="what", required=True)
    proc = tomo_sub.add_parser("process", parents=[experiment], help="chi matrix and process fidelity")
    proc.add_argument("--gate", required=True, help="logical gate name, e.g. H")
    proc.add_argument("--qutrit", type=int, choices=(1, 2), required=True)
    proc.set_defaults(experiment=lambda config, args: run_process_tomo(config, args.gate, args.qutrit))

    mit = sub.add_parser("mitigate", help="correct measured counts with a confusion matrix")
    mit.add_argument("--counts", required=True, help="text file of 'label count' lines")
    mit.add_argument("--matrix", required=True, help="confusion matrix file")
    mit.add_argument("--out", help="directory for the corrected counts JSON")
    mit.set_defaults(run=_mitigate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.run(args)
    except QutritLabError as exc:
        sys.stderr.write(_json_text({"error": type(exc).__name__, "message": str(exc)}))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
