"""Command-line harness: configuration resolution, experiment bundles,
subcommand dispatch, on-disk outputs and byte-level determinism."""

import ast
import copy
import dataclasses
import json
import math
import os
import pickle
import random
import re
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

import qutritlab
from qutritlab import cli_harness, device_hamiltonian, noise_sim
from qutritlab.qutrit_core import QutritLabError
from qutritlab.algorithms import DJOracle, GroverSpec, dj_circuit, grover_circuit
from qutritlab.device_hamiltonian import DeviceParams, labeled_spectrum
from qutritlab.gates_compiler import LOGICAL_GATE_NAMES, _moment_unitary, moment_unitary
from qutritlab.noise_sim import SimulationError, measure_probs, sample_counts, simulate_lindblad
from qutritlab.readout_mitigation import (
    IllConditionedError,
    save_confusion,
    synthetic_confusion,
)
from reference_model import (PAIR_LABELS, json_text, reference_algorithm, reference_compile_report, reference_tomo_csv,
                             runner_circuits)
from qutritlab.cli_harness import (
    ConfigError,
    DocumentError,
    ExperimentConfig,
    ResultBundle,
    _load_counts_file,
    build_parser,
    compile_report,
    main,
    run_bv,
    run_device_report,
    run_dj,
    run_grover,
    run_process_tomo,
)

pytestmark = pytest.mark.filterwarnings("ignore:negative 12 dephasing rate")


def exact_config() -> ExperimentConfig:
    return ExperimentConfig.default().replace(shots=None, seed=None)


class TestConfig:
    def test_defaults(self):
        c = ExperimentConfig.default()
        assert c.shots == 20000
        assert c.seed == 7
        assert c.noisy is False
        assert c.mitigate is False
        assert c.readout_diagonal == 0.85
        assert c.step_scale == 1
        assert c.out_dir is None
        assert c.device.flux == 0.185

    def test_mapping_overrides_nested_values(self):
        c = ExperimentConfig.from_mapping({
            "shots": 500,
            "coherence": {"q1": {"t2r_01": 9.9}},
            "device": {"flux": 0.2},
        })
        assert c.shots == 500
        assert c.noise.q1.t2r_01 == 9.9
        assert c.noise.q1.t1_01 == 47.9
        assert c.device.flux == 0.2

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_mapping({"shotz": 100})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_mapping({"coherence": {"q1": {"t2_echo": 1.0}}})

    def test_packaged_defaults_file_matches_builtin_defaults(self):
        packaged = Path(qutritlab.__file__).parent / "default_config.yaml"
        c = ExperimentConfig.from_yaml(packaged)
        assert c.config_hash() == ExperimentConfig.default().config_hash()

    def test_default_hash_is_pinned(self):
        # the YAML's value types enter the hash: 178 and 178.0 hash differently
        assert ExperimentConfig.default().config_hash() == "046f2ad7d64a62a1"

    def test_device_field_defaults_match_packaged_yaml(self):
        assert DeviceParams() == ExperimentConfig.default().device

    def test_confusion_default_matches_packaged_yaml(self):
        packaged = synthetic_confusion(ExperimentConfig.default().readout_diagonal)
        assert np.array_equal(synthetic_confusion().m, packaged.m)

    def test_packaged_defaults_parsed_once_and_never_mutated(self):
        before = copy.deepcopy(cli_harness._defaults())
        ExperimentConfig.from_mapping({"coherence": {"q1": {"t1_01": 1.0}}, "device": {"flux": 0.2}})
        assert cli_harness._defaults() is cli_harness._defaults()
        assert cli_harness._defaults() == before
        packaged = Path(qutritlab.__file__).parent / "default_config.yaml"
        assert before == yaml.safe_load(packaged.read_text())

    @pytest.mark.parametrize("as_int, as_float", [
        ({"c_q12": 2}, {"c_q12": 2.0}),
        ({"flux": 0}, {"flux": 0.0}),
    ], ids=["c_q12", "flux"])
    def test_integer_written_for_a_number_is_that_number(self, as_int, as_float):
        a = ExperimentConfig.from_mapping({"device": as_int})
        b = ExperimentConfig.from_mapping({"device": as_float})
        assert a.config_hash() == b.config_hash()
        assert run_device_report(a, [0.1]).to_json() == run_device_report(b, [0.1]).to_json()

    @pytest.mark.parametrize("mapping, key", [
        ({"device": {"flux": math.nan}}, "device.flux"),
        ({"device": {"e_j1": math.inf}}, "device.e_j1"),
        ({"coupling_khz": {"j11": math.inf}}, "coupling_khz.j11"),
        ({"coupling_khz": {"j11": math.nan}}, "coupling_khz.j11"),
        ({"readout": {"diagonal": -math.inf}}, "readout.diagonal"),
        ({"coherence": {"q2": {"t2r_12": math.nan}}}, "coherence.q2.t2r_12"),
        ({"device": {"flux": 10**400}}, "device.flux"),
    ], ids=["flux-nan", "e_j1-inf", "j11-inf", "j11-nan", "diagonal-minus-inf", "coherence-nan", "flux-overflow"])
    def test_non_finite_numbers_name_the_key(self, mapping, key):
        with pytest.raises(ConfigError, match=re.escape(repr(key))):
            ExperimentConfig.from_mapping(mapping)

    def test_infinite_coherence_time_means_no_decay(self, tmp_path, capsys):
        path = tmp_path / "run.yaml"
        path.write_text("coherence: {q1: {t1_01: .inf}}\n")
        assert ExperimentConfig.from_yaml(path).noise.q1.t1_01 == math.inf
        assert main(["sim", "dj", "--noisy", "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["summary"]["constant_avg"] > 0.5

    @pytest.mark.parametrize("mapping, key", [
        ({"shots": "abc"}, "shots"),
        ({"shots": 2.5}, "shots"),
        ({"noisy": "yes"}, "noisy"),
        ({"coherence": {"q1": {"t1_01": "fast"}}}, "coherence.q1.t1_01"),
        ({"device": {"n_levels": "many"}}, "device.n_levels"),
    ], ids=["shots_text", "shots_fraction", "noisy_text", "coherence_text", "n_levels_text"])
    def test_wrong_value_type_names_the_key(self, tmp_path, mapping, key):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(mapping))
        with pytest.raises(ConfigError, match=re.escape(repr(key))):
            ExperimentConfig.from_yaml(path)

    def test_yaml_file_round_trip(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("shots: 300\nseed: 9\nnoisy: true\n")
        c = ExperimentConfig.from_yaml(path)
        assert (c.shots, c.seed, c.noisy) == (300, 9, True)

    def test_yaml_error_paths(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_yaml(tmp_path / "missing.yaml")
        bad = tmp_path / "bad.yaml"
        bad.write_text("shots: [unclosed\n")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_yaml(bad)
        nonmap = tmp_path / "list.yaml"
        nonmap.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_yaml(nonmap)
        unsafe = tmp_path / "unsafe.yaml"
        unsafe.write_text("shots: !!python/object:collections.OrderedDict {}\n")
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_yaml(unsafe)
        assert isinstance(exc.value.__cause__, yaml.constructor.ConstructorError)

    def test_shots_bounded_by_the_sampler_limit(self, tmp_path, capsys):
        # numpy's multinomial takes int64 counts: 2**63 - 1 shots sample,
        # one more used to end in a raw OverflowError
        limit = 2**63 - 1
        assert exact_config().replace(shots=limit, seed=1).shots == limit
        with pytest.raises(ConfigError, match="shots"):
            exact_config().replace(shots=limit + 1, seed=1)
        config = tmp_path / "run.yaml"
        config.write_text("shots: 99999999999999999999\nseed: 1\n")
        for flags in (["--shots", "99999999999999999999", "--seed", "1"], ["--config", str(config)]):
            assert main(["sim", "dj", *flags]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert len(err.splitlines()) == 1
            assert json.loads(err)["error"] == "ConfigError"

    def test_validation(self):
        base = ExperimentConfig.default()
        with pytest.raises(ConfigError):
            base.replace(shots=0)
        with pytest.raises(ConfigError):
            base.replace(shots=50, mitigate=True)
        with pytest.raises(ConfigError):
            base.replace(seed=None)
        with pytest.raises(ConfigError):
            base.replace(readout_diagonal=0.0)
        with pytest.raises(ConfigError):
            base.replace(step_scale=0)
        # the loader's type rules: no truncation, no bool for a number or a number for a bool
        for changes in ({"step_scale": 1.5}, {"shots": 100.5, "seed": 3}, {"shots": True, "seed": 1},
                        {"seed": 1.7}, {"noisy": 1}, {"readout_diagonal": True}, {"readout_diagonal": math.nan}):
            with pytest.raises(ConfigError):
                base.replace(**changes)

    @pytest.mark.parametrize("changes", [{"noise": None}, {"device": "x"}, {"out_dir": 5}],
                             ids=["noise", "device", "out_dir"])
    def test_object_fields_checked_at_construction(self, changes):
        # a wrong noise or device would otherwise fail later, in config_hash
        with pytest.raises(ConfigError, match=next(iter(changes))):
            ExperimentConfig.default().replace(**changes)

    def test_out_dir_takes_a_path(self, tmp_path):
        base = ExperimentConfig.default()
        assert base.replace(out_dir=tmp_path).config_hash() == base.replace(out_dir=str(tmp_path)).config_hash()

    def test_replace_converts_like_the_loader(self):
        base = ExperimentConfig.default()
        direct = base.replace(readout_diagonal=1, shots=np.int64(500), step_scale=np.int64(2))
        loaded = ExperimentConfig.from_mapping({"readout": {"diagonal": 1}, "shots": 500, "step_scale": 2})
        assert type(direct.readout_diagonal) is float and type(direct.shots) is type(direct.step_scale) is int
        assert direct.config_hash() == loaded.config_hash()

    def test_replace_is_nondestructive(self):
        base = ExperimentConfig.default()
        other = base.replace(noisy=True)
        assert other.noisy is True
        assert base.noisy is False
        assert other.shots == base.shots

    def test_hash_ignores_output_directory(self, tmp_path):
        base = ExperimentConfig.default()
        a = base.replace(out_dir=str(tmp_path / "a"))
        b = base.replace(out_dir=str(tmp_path / "b"))
        assert a.config_hash() == b.config_hash() == base.config_hash()
        assert "out_dir" not in a.to_mapping()

    def test_config_hash_memoized_per_instance(self, monkeypatch, tmp_path):
        # each construction resolves its input once, top level only (the
        # recursion passes a key path); a hash or a mapping resolves nothing
        calls = Counter()
        resolve, load = cli_harness._resolve, ExperimentConfig._load

        def counting_resolve(value, default, path=""):
            calls["resolve"] += not path
            return resolve(value, default, path)

        def counting_load(self, profile):
            calls["load"] += 1
            return load(self, profile)
        monkeypatch.setattr(cli_harness, "_resolve", counting_resolve)
        monkeypatch.setattr(ExperimentConfig, "_load", counting_load)
        profile = tmp_path / "run.yaml"
        profile.write_text("shots: 300\nseed: 9\n")
        config = ExperimentConfig.default()
        fields = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
        routes = {
            "from_mapping": lambda: ExperimentConfig.from_mapping({"shots": 500}),
            "from_yaml": lambda: ExperimentConfig.from_yaml(profile),
            "default": ExperimentConfig.default,
            "replace": lambda: config.replace(seed=12),
            "dataclasses.replace": lambda: dataclasses.replace(config, noisy=True),
            "constructor": lambda: ExperimentConfig(**fields),
            # the flags laid over the --config file's mapping
            "flags": lambda: cli_harness._config_from_args(build_parser().parse_args(
                ["sim", "dj", "--shots", "500", "--seed", "1", "--config", str(profile)])),
        }
        for route, build in routes.items():
            calls.clear()
            build()
            assert calls == {"resolve": 1, "load": 1}, route
        calls.clear()
        first = config.config_hash()
        assert config.config_hash() == first == "046f2ad7d64a62a1"
        config.to_mapping()
        assert not calls
        # replace() builds a new instance, which carries no memo over
        for changed, same in ((config.replace(), True), (config.replace(seed=12), False)):
            assert "_config_hash" not in vars(changed)
            assert (changed.config_hash() == first) is same

    @pytest.mark.parametrize("root", [[], 0, "", (), [1]], ids=["empty-list", "zero", "empty-text", "empty-tuple",
                                                                "list"])
    def test_only_none_means_no_overrides(self, tmp_path, root):
        with pytest.raises(ConfigError, match="^configuration root must be a mapping$"):
            ExperimentConfig.from_mapping(root)
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(list(root) if isinstance(root, tuple) else root))
        with pytest.raises(ConfigError, match="^configuration root must be a mapping$"):
            ExperimentConfig.from_yaml(path)

    def test_to_mapping_hands_out_a_copy(self):
        defaults = copy.deepcopy(cli_harness._defaults())
        config = ExperimentConfig.from_mapping({"shots": 500})
        first, fields = config.config_hash(), {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
        mapping = config.to_mapping()
        mapping["device"]["flux"] = 0.3
        mapping["coherence"]["q1"]["t1_01"] = 1.0
        mapping["shots"] = 7
        assert cli_harness._defaults() == defaults
        del vars(config)["_config_hash"]  # hashed again from the stored profile
        assert config.config_hash() == first
        assert {f.name: getattr(config, f.name) for f in dataclasses.fields(config)} == fields
        assert config.to_mapping() == {**mapping, "shots": 500, "device": defaults["device"],
                                       "coherence": defaults["coherence"]}
        assert ExperimentConfig.default().to_mapping()["device"]["flux"] == 0.185
        assert ExperimentConfig.default().config_hash() == "046f2ad7d64a62a1"

    def test_signed_zero_coupling_keeps_its_own_hash(self):
        # equal configs (and equal Python hashes) that write different
        # mappings: a memo shared across equal instances would merge them
        base = ExperimentConfig.default()
        plus = base.replace(noise=dataclasses.replace(base.noise, j11=0.0))
        minus = base.replace(noise=dataclasses.replace(base.noise, j11=-0.0))
        assert plus == minus and hash(plus) == hash(minus)
        assert plus.config_hash() == "f402a01a7b499753"
        assert minus.config_hash() == "0717d0d9ffcbeac8"

    def test_hash_tracks_physics_fields(self):
        base = ExperimentConfig.default()
        assert base.replace(noisy=True).config_hash() != base.config_hash()
        assert base.replace(shots=19999).config_hash() != base.config_hash()
        tweaked = ExperimentConfig.from_mapping({"coupling_khz": {"j11": -300.0}})
        assert tweaked.config_hash() != base.config_hash()


def _profile_leaves(node=None, path=""):
    """(path, default) of every leaf of the packaged profile."""
    node = cli_harness._defaults() if node is None else node
    for key, value in node.items():
        sub = f"{path}.{key}" if path else key
        yield from _profile_leaves(value, sub) if isinstance(value, dict) else [(sub, value)]


def _nested(path: str, value) -> dict:
    """A loader mapping that sets the profile leaf at path."""
    for key in reversed(path.split(".")):
        value = {key: value}
    return value


def _patched(obj, chain: list, value):
    """A copy of the dataclass obj with the attribute at chain set to value, past its own checks."""
    new = copy.copy(obj)
    object.__setattr__(new, chain[0], value if len(chain) == 1 else _patched(getattr(obj, chain[0]), chain[1:], value))
    return new


def _replace_leaf(config: ExperimentConfig, path: str, value) -> ExperimentConfig:
    """config.replace() with the profile leaf at path set to value.

    A leaf inside noise or device is set on a copy of its dataclass after
    that dataclass's own checks and conversions, so only ExperimentConfig
    judges it.
    """
    top, *rest = path.split(".")
    if top == "readout":
        return config.replace(readout_diagonal=value)
    if not rest:
        return config.replace(**{top: value})
    field = "noise" if top in ("coherence", "coupling_khz") else top
    return config.replace(**{field: _patched(getattr(config, field), rest, value)})


class TestOneTypeCheck:
    """Every construction route applies the loader's type rules to every leaf."""

    @pytest.mark.parametrize("build, loaded", [
        (lambda base: base.replace(noise=dataclasses.replace(base.noise, j11=-304)), {"coupling_khz": {"j11": -304}}),
        (lambda base: base.replace(device=dataclasses.replace(base.device, c_q1=178)), {}),
        (lambda base: base.replace(device=dataclasses.replace(base.device, flux=np.float32(0.25))),
         {"device": {"flux": 0.25}}),
        (lambda base: base.replace(noise=dataclasses.replace(base.noise, j22=np.int64(5))),
         {"coupling_khz": {"j22": 5}}),
    ], ids=["j11-int", "c_q1-int", "flux-float32", "j22-int64"])
    def test_replaced_numbers_hash_like_the_loaded_profile(self, build, loaded):
        direct = build(ExperimentConfig.default())
        assert direct.config_hash() == ExperimentConfig.from_mapping(loaded).config_hash()
        assert direct.to_mapping() == ExperimentConfig.from_mapping(loaded).to_mapping()
        # the converted values are written back, so the runners see floats too
        assert all(type(v) is float for obj in (direct.noise, direct.device)
                   for k, v in vars(obj).items() if k not in ("q1", "q2", "n_levels"))

    def test_direct_constructor_converts_like_the_loader(self):
        base = ExperimentConfig.default()
        fields = {f.name: getattr(base, f.name) for f in dataclasses.fields(base)}
        direct = ExperimentConfig(**{**fields, "device": DeviceParams(c_q1=178, flux=0)})
        assert direct.device.flux == 0.0 and type(direct.device.flux) is float
        assert direct.config_hash() == ExperimentConfig.from_mapping({"device": {"flux": 0.0}}).config_hash()

    @pytest.mark.parametrize("path, bad", [
        (path, bad) for path, default in _profile_leaves()
        for bad in ([math.nan] if isinstance(default, bool) else [True, math.nan])
    ])
    def test_every_leaf_checked_on_replace_as_on_load(self, path, bad):
        with pytest.raises(ConfigError, match=re.escape(repr(path))) as loaded:
            ExperimentConfig.from_mapping(_nested(path, bad))
        with pytest.raises(ConfigError) as replaced:
            _replace_leaf(ExperimentConfig.default(), path, bad)
        assert str(replaced.value) == str(loaded.value)


class TestResultBundle:
    def test_unnormalized_distribution_rejected(self):
        with pytest.raises(QutritLabError):
            ResultBundle("t", "h", ({"name": "x", "distribution": {"00": 0.5}},), {}, lambda: "a\n")

    @pytest.mark.parametrize("entry", [{"duration_ns": 0.0}, {"duration_ns": math.inf},
                                       {"distribution": {"00": math.nan}, "duration_ns": math.nan},
                                       {"distribution": {"00": 1.0}, "duration_ns": math.nan}],
                             ids=["zero", "inf", "nan_sum", "nan_duration"])
    def test_nonpositive_duration_rejected(self, entry):
        # a nan sum or duration would be written as a bare NaN token, which strict JSON readers reject
        with pytest.raises(QutritLabError):
            ResultBundle("t", "h", ({"name": "x", **entry},), {}, lambda: "a\n")

    def test_save_writes_named_pair(self, tmp_path):
        bundle = ResultBundle("t", "h", (), {}, lambda: "col\n1\n")
        json_path, csv_path = bundle.save(tmp_path)
        assert json_path.name == "t_result.json"
        assert csv_path.name == "t_figure.csv"
        assert csv_path.read_text() == "col\n1\n"

    def test_figure_is_formatted_on_first_read_only(self, tmp_path):
        calls = []

        def figure():
            calls.append(None)
            return "col\n1\n"
        bundle = ResultBundle("t", "h", ({"name": "x", "fidelity": 0.5},), {"k": 1}, figure)
        assert json.loads(bundle.to_json())["entries"] == [{"name": "x", "fidelity": 0.5}] and calls == []
        assert bundle.figure_csv == "col\n1\n" and len(calls) == 1
        bundle.save(tmp_path)
        assert bundle.figure_csv == "col\n1\n" and len(calls) == 1

    @pytest.mark.parametrize("figure", ["col\n1\n", None], ids=["text", "none"])
    def test_figure_that_is_not_a_formatter_rejected(self, figure):
        # caught when the bundle is built, not at save after the JSON file is written
        with pytest.raises(QutritLabError, match="zero-argument formatter"):
            ResultBundle("t", "h", (), {}, figure)

    def test_equality_and_repr_leave_the_formatter_out(self):
        first, second = (ResultBundle("t", "h", (), {}, lambda: "col\n1\n") for _ in range(2))
        assert first.format_figure is not second.format_figure
        assert first == second and repr(first) == repr(second)
        assert "lambda" not in repr(first) and "figure_csv" not in vars(first)
        assert first != dataclasses.replace(first, summary={"k": 1})

    @pytest.mark.parametrize("run", [
        run_dj, run_bv, run_grover,
        lambda config: run_device_report(config.replace(device=DeviceParams(n_levels=6)), [0.1, 0.185]),
        lambda config: run_process_tomo(config, "H", 2),
    ], ids=["dj", "bv", "grover", "device", "tomo"])
    def test_save_writes_the_figure_text(self, run, tmp_path):
        bundle = run(exact_config())
        # a bundle pickles with its figure unformatted, as a worker process would send it
        sent = pickle.loads(pickle.dumps(bundle))
        assert "figure_csv" not in vars(sent)
        json_path, csv_path = bundle.save(tmp_path)
        assert json_path.read_text() == bundle.to_json()
        assert csv_path.read_text() == bundle.figure_csv == sent.figure_csv
        assert sent == bundle


# every kind of value json writes, with the floats and strings whose text is easiest to get wrong
JSON_SCALARS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, 0.1, 1.0, 2**70, -(2**64), 0, -1,
                True, False, None, "", "plain", "é√ü€😀", "\x00\x1f\x7f\"\\/\n\t", np.float64(0.1), np.float64(-0.0))


def random_document(rng: random.Random, depth: int = 0):
    """A nested document of dicts, lists and tuples, flat and mixed, empty or not, over JSON_SCALARS."""
    if depth == 4 or rng.random() < 0.3:
        return rng.choice(JSON_SCALARS + (rng.random(), rng.randint(-10**6, 10**6)))
    size = rng.choice((0, 1, 2, 5))
    kind = rng.choice(("dict", "list", "tuple"))
    if kind == "dict":
        return {rng.choice(("k", "é", "\n", "")) + str(rng.randint(0, 99)): random_document(rng, depth + 1)
                for _ in range(size)}
    items = [random_document(rng, depth + 1) for _ in range(size)]
    return items if kind == "list" else tuple(items)


def as_parsed(doc):
    """The value the stdlib parser gives back for doc written with sorted keys:
    tuples become lists, numpy floats plain floats."""
    if isinstance(doc, dict):
        return {key: as_parsed(doc[key]) for key in sorted(doc)}
    if isinstance(doc, (list, tuple)):
        return [as_parsed(value) for value in doc]
    return float(doc) if isinstance(doc, np.floating) else doc


def assert_written_losslessly(doc):
    """The text is one ASCII line and a newline, with no whitespace outside its strings,
    and it parses back to the document's value: keys in sorted order, every float to the same bits."""
    text = cli_harness._json_text(doc)
    assert text.endswith("\n") and text.isascii()
    assert not re.search(r"\s", re.sub(r'"(?:[^"\\]|\\.)*"', '""', text[:-1])), text
    parsed = json.loads(text)
    # repr tells the key order, and -0.0 from 0.0, which == does not
    assert parsed == as_parsed(doc) and repr(parsed) == repr(as_parsed(doc))


class TestJsonWriter:
    """Every JSON document is json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
    text on one line, and a newline."""

    def test_random_documents_match_the_stdlib(self):
        # the stdlib's parser reads every document back to its value, or the writer refuses it
        for seed in range(300):
            doc = random_document(random.Random(seed))
            try:
                json.dumps(doc, allow_nan=False)
            except ValueError as exc:  # a nan or an infinity somewhere in the document
                with pytest.raises(DocumentError, match=f"^{re.escape(str(exc))}$"):
                    cli_harness._json_text(doc)
            else:
                assert_written_losslessly(doc)

    @pytest.mark.parametrize("doc", [
        {}, [], (), {"a": {}, "b": [], "c": ()}, [[], {}], 1.5, "x", None, {"": ""},
        {"b": 1, "a": [1, 2.5, "x", None, True]}, {"z": {"y": {"x": [0.1, {"w": -0.0}]}}},
    ], ids=repr)
    def test_edge_documents_match_the_stdlib(self, doc):
        assert_written_losslessly(doc)

    @pytest.mark.parametrize("doc, text", [
        ({1: "a"}, '{"1":"a"}\n'),
        ({"b": [1], 2.5: None, True: 1, None: 0}, None),
        ({"a": [np.float64(0.5), {"b": np.float64(1.0)}]}, '{"a":[0.5,{"b":1.0}]}\n'),
        ([{"k": 1}, np.float64(2.0)], '[{"k":1},2.0]\n'),
    ], ids=["int_key", "mixed_keys", "nested_numpy", "numpy_in_mixed_list"])
    def test_what_the_fast_path_leaves_is_written_by_the_stdlib(self, doc, text):
        # what plain JSON does not hold: a number key is written as its text, keys of several
        # types cannot be sorted, and a numpy float is written as the float it is
        if text is None:
            with pytest.raises(TypeError, match="not supported between instances of"):
                cli_harness._json_text(doc)
        else:
            assert cli_harness._json_text(doc) == text

    def test_nan_and_infinity_are_not_written(self, tmp_path, monkeypatch, capsys):
        # JSON has no token for them: the stdlib's default would write bare NaN and Infinity
        bundle = ResultBundle("x", "h", ({"name": "a", "fidelity": float("nan")},), {"k": float("inf")}, lambda: "")
        # the C encoder's message, which names no value
        with pytest.raises(DocumentError, match="^Out of range float values are not JSON compliant$"):
            bundle.to_json()
        monkeypatch.setattr(cli_harness, "run_dj", lambda config: bundle)
        for argv in (["sim", "dj"], ["sim", "dj", "--out", str(tmp_path / "out")]):
            assert main(argv) == 1
            out, err = capsys.readouterr()
            assert out == "" and [json.loads(line)["error"] for line in err.splitlines()] == ["DocumentError"]
        assert not (tmp_path / "out").exists()

    def test_errors_are_the_stdlib_errors(self):
        circular = {"a": [1]}
        circular["a"].append(circular)
        for doc, error in (({"a": {"b": object()}}, TypeError), ({"a": [np.int64(1), {}]}, TypeError),
                           (circular, ValueError)):
            with pytest.raises(error) as stdlib:
                json_text(doc)
            with pytest.raises(error) as ours:
                cli_harness._json_text(doc)
            assert str(ours.value) == str(stdlib.value)
        with pytest.raises(DocumentError, match="^Circular reference detected$"):
            cli_harness._json_text(circular)

    def test_command_line_documents_match_the_stdlib(self, tmp_path, capsys):
        save_confusion(synthetic_confusion(), tmp_path / "matrix.txt")
        (tmp_path / "counts.txt").write_text("".join(f"{lbl} {100 * (i + 1)}\n"
                                                     for i, lbl in enumerate(cli_harness._PAIR_LABELS)))
        mitigate = ["mitigate", "--counts", str(tmp_path / "counts.txt"), "--matrix", str(tmp_path / "matrix.txt")]
        compile_ = ["compile", "cphase", "--theta", "1.0", "--target", "21"]
        # (arguments, exit status, the stream the document goes to)
        commands = [(["sim", "bv", "--noisy", "--mitigate", "--shots", "2000", "--seed", "3"], 0, "out"),
                    (["sim", "dj", "--out", str(tmp_path / "sim")], 0, "out"),
                    (compile_, 0, "out"),
                    ([*compile_, "--out", str(tmp_path / "compile")], 0, "out"),
                    (mitigate, 0, "out"),
                    ([*mitigate, "--out", str(tmp_path / "mitigate")], 0, "out"),
                    (["sim", "dj", "--shots", "0"], 1, "err")]
        texts = []
        for argv, status, stream in commands:
            assert main(argv) == status
            streams = capsys.readouterr()
            assert (streams.err if stream == "out" else streams.out) == "", argv
            texts.append(streams.out if stream == "out" else streams.err)
        texts += [(tmp_path / name).read_text() for name in ("sim/dj_result.json", "compile/cphase_21_compiled.json",
                                                             "mitigate/mitigated_counts.json")]
        docs = [json.loads(text) for text in texts]
        assert docs[0]["experiment"] == "bv" and "result_json" in docs[1]
        assert docs[3] == {"written": str(tmp_path / "compile" / "cphase_21_compiled.json")}
        assert docs[5] == {"written": str(tmp_path / "mitigate" / "mitigated_counts.json")}
        assert docs[6]["error"] == "ConfigError"
        for text in texts:
            assert text.endswith("\n") and text.count("\n") == 1, text
            assert text == json_text(json.loads(text)), text


class TestRunners:
    def test_grover_exact(self):
        bundle = run_grover(exact_config())
        assert bundle.summary["round1_avg"] == pytest.approx(529.0 / 729.0, abs=1e-10)
        assert bundle.summary["round2_avg"] == pytest.approx(58081.0 / 59049.0, abs=1e-10)
        assert bundle.summary["round2_duration_ns_22"] == pytest.approx(2114.925, abs=0.01)

    def test_grover_durations_scale_with_rounds(self):
        bundle = run_grover(exact_config())
        one = {e["target"]: e["duration_ns"] for e in bundle.entries if e["rounds"] == 1}
        two = {e["target"]: e["duration_ns"] for e in bundle.entries if e["rounds"] == 2}
        for target in one:
            assert two[target] > one[target]

    def test_tomo_hadamard_noiseless_and_noisy(self):
        bundle = run_process_tomo(exact_config(), "H", 1)
        assert bundle.summary["noiseless_fidelity"] == pytest.approx(1.0, abs=1e-10)
        assert bundle.summary["noisy_fidelity"] == pytest.approx(0.9681219739593705, abs=1e-9)

    def test_tomo_csv_prints_every_float_as_the_per_row_formatter(self, monkeypatch):
        # nan, infinities, subnormals, signed zeros and clamped noise, through the runner's own path
        parts = [math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
                 0.0, -0.0, 9.9e-13, -9.9e-13, 1e-12, -1e-12, 1.0 / 3.0, -2.5e-5, 123456789.5, 1e16]
        values = np.array([parts[i % len(parts)] for i in range(162)]).view(complex).reshape(9, 9)
        # a ProcessMatrix would reject nan as non-Hermitian, so the runner gets a stand-in
        monkeypatch.setattr(cli_harness, "chi_matrix", lambda channel: SimpleNamespace(matrix=values))
        monkeypatch.setattr(cli_harness, "process_fidelity", lambda chi_a, chi_b: 0.5)
        text = run_process_tomo(exact_config(), "H", 1).figure_csv
        assert text == reference_tomo_csv(values)
        assert "-0" not in [cell for line in text.splitlines()[1:] for cell in line.split(",")[2:]]

    def test_tomo_rejects_unknown_gate_and_qutrit(self):
        with pytest.raises(ConfigError):
            run_process_tomo(exact_config(), "CNOT", 1)
        with pytest.raises(ConfigError):
            run_process_tomo(exact_config(), "H", 3)

    @pytest.mark.parametrize("qutrit", [True, 1.0, 2.0, "1"], ids=["bool", "float1", "float2", "str"])
    def test_tomo_rejects_a_qutrit_that_is_not_an_integer(self, qutrit):
        # each equals (or stands for) a valid index but would print differently in the summary
        with pytest.raises(ConfigError, match="qutrit"):
            run_process_tomo(exact_config(), "H", qutrit)

    def test_tomo_writes_the_qutrit_as_an_int(self):
        bundle = run_process_tomo(exact_config(), "H", np.int64(2))
        assert type(bundle.summary["qutrit"]) is int
        assert bundle.to_json() == run_process_tomo(exact_config(), "H", 2).to_json()


class TestCaseTables:
    """Each runner's case table is built once per process, and every run gets entry dicts of its own."""

    @pytest.mark.parametrize("runner, table", [(run_dj, "_dj_cases"), (run_bv, "_bv_cases"),
                                               (run_grover, "_grover_cases")], ids=["dj", "bv", "grover"])
    @pytest.mark.parametrize("sampled", [False, True], ids=["exact", "mitigated"])
    def test_runs_share_the_table_but_no_entry(self, runner, table, sampled):
        config = exact_config()
        if sampled:
            config = config.replace(mitigate=True, shots=2000, seed=7)
        getattr(cli_harness, table).cache_clear()
        first = runner(config)
        text, figure = first.to_json(), first.figure_csv
        for entry in first.entries:
            for key in list(entry):
                if isinstance(entry[key], dict):
                    entry[key]["00"] = -1.0
                entry[key] = "mutated"
            entry["added"] = True
        second = runner(config)
        assert second.to_json() == text and second.figure_csv == figure
        assert all(a is not b for a, b in zip(first.entries, second.entries))
        assert getattr(cli_harness, table).cache_info()[:2] == (1, 1)  # (hits, misses)


class TestCompileReport:
    def test_direct_native_target(self):
        report = compile_report(math.pi, "21")
        assert report["pi_pulse_count"] == 0
        assert report["native_kind"] == "CPhaseNative21"
        assert report["matches_ideal"] is True
        assert report["duration_ns"] > 0

    def test_walked_target(self):
        report = compile_report(math.pi, "00")
        assert report["pi_pulse_count"] == 6
        assert report["matches_ideal"] is True
        assert report["pulse_count"] >= 6

    def test_arbitrary_angle(self):
        report = compile_report(1.234, "01")
        assert report["theta"] == 1.234
        assert report["pi_pulse_count"] == 4
        assert report["matches_ideal"] is True
        assert "CPhaseNative" in report["circuit_text"]

    @pytest.mark.parametrize("theta", [math.pi / 3, math.pi, -math.pi / 2])
    def test_reports_unchanged_with_the_circuit_counting_pi_pulses(self, theta):
        for target in PAIR_LABELS:
            assert compile_report(theta, target) == reference_compile_report(theta, target)

    @pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
    def test_non_finite_angle_exits_one_with_json(self, capsys, theta):
        with pytest.raises(ConfigError, match="theta"):
            compile_report(float(theta), "22")
        # "=" keeps argparse from reading "-inf" as a flag
        assert main(["compile", "cphase", f"--theta={theta}", "--target", "22"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "ConfigError"


class TestCountsFile:
    def good_text(self):
        labels = [f"{a}{b}" for a in range(3) for b in range(3)]
        return "# sampled counts\n" + "\n".join(f"{lbl}, {100 + i}" for i, lbl in enumerate(labels)) + "\n"

    def test_parses_comments_and_commas(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text(self.good_text())
        counts = _load_counts_file(path)
        assert counts[0] == 100.0
        assert counts[8] == 108.0

    def test_missing_label_rejected(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("00 5\n01 5\n")
        with pytest.raises(ConfigError):
            _load_counts_file(path)

    def test_duplicate_label_rejected(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text(self.good_text() + "00 7\n")
        with pytest.raises(ConfigError):
            _load_counts_file(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("00 5 9\n")
        with pytest.raises(ConfigError):
            _load_counts_file(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            _load_counts_file(tmp_path / "nope.txt")

    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "-5"])
    def test_bad_count_exits_one_with_json(self, tmp_path, capsys, value):
        counts = tmp_path / "counts.txt"
        counts.write_text(self.good_text().replace("00, 100", f"00, {value}"))
        matrix = tmp_path / "matrix.txt"
        save_confusion(synthetic_confusion(), matrix)
        assert main(["mitigate", "--counts", str(counts), "--matrix", str(matrix)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["error"] == "ConfigError"

    @pytest.mark.parametrize("entry", [None, "x", "nan"], ids=["missing-file", "not-a-number", "nan"])
    def test_bad_confusion_matrix_exits_one_with_json(self, tmp_path, capsys, entry):
        counts = tmp_path / "counts.txt"
        counts.write_text(self.good_text())
        matrix = tmp_path / "matrix.txt"
        if entry is not None:
            rows = [" ".join("1" if i == j else "0" for j in range(9)) for i in range(9)]
            rows[0] = rows[0][:-1] + entry
            matrix.write_text("\n".join(rows) + "\n")
        assert main(["mitigate", "--counts", str(counts), "--matrix", str(matrix)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "MitigationError"


# cli_harness names the benchmark's tracing wraps that no runner calls: the
# algorithm runners take all their cases through one stacked walk
# (pure_states or final_states) and one stacked pass instead
UNCALLED_TRACED_NAMES = {"reduced_qutrit_channel", "simulate_lindblad", "simulate_pure", "measure_probs",
                         "apply_confusion", "sample_counts", "mitigate_counts"}


class TestRunnerLookups:
    """The runners look up the circuit, sampling and mitigation functions in
    cli_harness when they run, so a wrapper set on those names (as the
    benchmark's per-layer tracing does) sees every call."""

    def test_every_traced_name_is_looked_up_at_call_time(self, monkeypatch):
        # the benchmark's tracing wraps these cli_harness names; each wrapper
        # must see the calls that main makes through every experiment route
        tracing = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
        spans = next(ast.literal_eval(node.value) for node in ast.parse(tracing.read_text()).body
                     if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "CH_SPANS")
        calls = Counter()

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        # and the stacked walks and readout passes, which it does not wrap
        names = [name for attrs in spans.values() for name in attrs] + ["pure_states", "final_states", "sample_rows",
                                                                         "mitigate_rows"]
        for name in names:
            monkeypatch.setattr(cli_harness, name, counting(name, getattr(cli_harness, name)))
        monkeypatch.setattr(ExperimentConfig, "from_mapping", classmethod(
            counting("from_mapping", vars(ExperimentConfig)["from_mapping"].__func__)))
        for name in ("__post_init__", "to_json"):
            monkeypatch.setattr(ResultBundle, name, counting(name, vars(ResultBundle)[name]))
        for cached in (cli_harness._gate_reference, cli_harness._pair_circuit, cli_harness._dj_cases,
                       cli_harness._bv_cases, cli_harness._grover_cases):
            cached.cache_clear()
        for argv in (["sim", "dj", "--noisy", "--mitigate", "--shots", "200", "--seed", "1"], ["sim", "bv"],
                     ["sim", "grover"], ["tomo", "process", "--gate", "H", "--qutrit", "1"],
                     ["device", "sweep", "--from", "0.185", "--to", "0.185", "--steps", "1"]):
            assert main(argv) == 0
        missed = {name for name in [*names, "from_mapping", "__post_init__", "to_json"] if not calls[name]}
        assert missed == UNCALLED_TRACED_NAMES
        # one circuit per case; one stacked walk and sampling pass per algorithm run, one mitigation pass (dj)
        assert [calls[name] for name in ("dj_circuit", "bv_circuit", "grover_circuit")] == [25, 9, 18]
        assert [calls[name] for name in names[-4:]] == [2, 1, 3, 1]

    def test_device_report_reuses_an_operating_point_on_the_grid(self):
        # the spectrum cache serves an operating point on the grid, so the
        # report diagonalizes once per grid point, plus once for one off it
        config = exact_config().replace(device=DeviceParams(n_levels=6))
        direct = labeled_spectrum(config.device)
        diagonalizations = device_hamiltonian._label_eigenstates
        for grid in ([0.1, 0.185], [0.1, 0.2]):
            diagonalizations.cache_clear()
            bundle = run_device_report(config, grid)
            assert diagonalizations.cache_info().misses == len(grid) + (0.185 not in grid)
            assert bundle.summary["operating_w01_q1"] == direct.w01_q1
            assert bundle.summary["operating_w01_q2"] == direct.w01_q2
            assert bundle.summary["operating_j11_khz"] == direct.j11
            assert bundle.summary["operating_coupler_ghz"] == direct.coupler_ghz


def faulty_walk(kind: str) -> np.ndarray:
    """A walked state with one kind of fault, before simulate_lindblad's Hermitian part and trace division."""
    if kind == "non_finite":
        return np.diag([np.nan] + [0.0] * 8).astype(complex)
    if kind == "off_trace":
        return np.diag([1.0 + 1e-3] + [0.0] * 8).astype(complex)
    if kind == "negative_eigenvalue":
        return np.diag([0.5, 0.501, -1e-3] + [0.0] * 6).astype(complex)
    walk = np.diag([0.5, 0.5] + [0.0] * 7).astype(complex)
    walk[0, 1] = 0.2j  # non-Hermitian, but its Hermitian part is a state: simulate_lindblad takes it
    return walk


# simulate_lindblad's message for each faulty walk; None: it takes the walk
FAULT_MESSAGES = {
    "non_finite": "density matrix contains non-finite entries",
    "off_trace": "trace drifted by 0.001",
    "non_hermitian": None,
    "negative_eigenvalue": "negative eigenvalue -0.0010000000000000002 beyond -1e-6",
}


class TestStackedReadoutPass:
    """A faulty case of the runners' stacked pass raises what simulate_lindblad
    raises for it, naming the case."""

    @staticmethod
    def fault_cases(monkeypatch, walk: np.ndarray, rows: set):
        """Make the prefix walker give `walk` as the given final states, counted over every walk in call order."""
        original = noise_sim._walk_prefixes
        calls = []

        def walk_prefixes(plan, initial):
            states = original(plan, initial)
            for state in states:
                if len(calls) in rows:
                    state[...] = walk.reshape(state.shape)
                calls.append(state)
            return states
        monkeypatch.setattr(noise_sim, "_walk_prefixes", walk_prefixes)

    # dividing the nan state by its trace warns, as simulate_lindblad's division does
    @pytest.mark.filterwarnings("ignore:invalid value encountered in divide:RuntimeWarning")
    @pytest.mark.parametrize("kind", FAULT_MESSAGES)
    @pytest.mark.parametrize("row", [0, 7, 24])
    def test_faulty_state_raises_as_simulate_lindblad(self, monkeypatch, kind, row):
        # state 0 is simulate_lindblad's one circuit, states 1 to 25 the runner's cases
        config = exact_config().replace(noisy=True, mitigate=True, shots=2000, seed=3)
        self.fault_cases(monkeypatch, faulty_walk(kind), {0, 1 + row})
        circuit = dj_circuit(DJOracle("X", "Z"))
        if FAULT_MESSAGES[kind] is None:
            # the faulty case takes simulate_lindblad's probabilities of the walk, the rest is the model's run
            p = measure_probs(simulate_lindblad(circuit, config.noise)).probs
            bundle = run_dj(config)
            assert bundle.entries[row]["distribution"] == cli_harness._by_label(p)
            assert bundle.to_json() == json_text(reference_algorithm("dj", config, replaced={row: p})[0])
            return
        with pytest.raises(SimulationError, match=f"^{re.escape(FAULT_MESSAGES[kind])}$"):
            simulate_lindblad(circuit, config.noise)
        with pytest.raises(SimulationError) as raised:
            run_dj(config)
        assert str(raised.value) == FAULT_MESSAGES[kind]
        assert raised.value.row == row
        assert raised.value.__notes__ == [f"raised for case {row} of 25"]

    def test_first_failing_case_is_named(self, monkeypatch):
        config = exact_config().replace(noisy=True)
        self.fault_cases(monkeypatch, faulty_walk("negative_eigenvalue"), {4, 11})
        with pytest.raises(SimulationError, match="negative eigenvalue") as raised:
            run_bv(config)
        assert raised.value.__notes__ == ["raised for case 4 of 9"]

    def test_a_run_wide_error_names_no_case(self):
        # every column of this confusion matrix is the same: no case is at fault
        config = exact_config().replace(mitigate=True, shots=2000, seed=3, readout_diagonal=1.0 / 9.0)
        with pytest.raises(IllConditionedError) as raised:
            run_bv(config)
        assert raised.value.row is None
        assert not hasattr(raised.value, "__notes__")


class TestMomentCacheBundles:
    """Memoized moment unitaries leave every algorithm bundle byte-identical."""

    @pytest.mark.parametrize("runner", [run_dj, run_bv, run_grover], ids=["dj", "bv", "grover"])
    @pytest.mark.parametrize("noisy", [False, True], ids=["ideal", "noisy_mitigated"])
    def test_cold_and_warm_cache_agree(self, runner, noisy):
        config = exact_config()
        if noisy:
            config = config.replace(noisy=True, mitigate=True, shots=2000, seed=11)
        # the engine asks the moment cache once per distinct moment, when it
        # builds that moment's map, and the pure backend once per step of a
        # tuple's walk, when it plans the walk; a warm run reuses the
        # engine's maps or the pure plan and never asks it
        noise_sim._engine.cache_clear()
        noise_sim._pure_plan.cache_clear()
        _moment_unitary.cache_clear()
        cold = runner(config).to_json()
        cold_info = _moment_unitary.cache_info()
        assert cold_info.currsize > 0
        warm = runner(config).to_json()
        warm_info = _moment_unitary.cache_info()
        assert warm_info.hits + warm_info.misses == cold_info.hits + cold_info.misses
        if not noisy:
            # (hits, misses): the warm run walks the cold run's plan
            assert noise_sim._pure_plan.cache_info()[:2] == (1, 1)
        assert cold == warm


class TestNoisyPathReuse:
    """One Lindblad engine per noise model and one walk of moment maps per
    circuit, with every bundle byte-identical."""

    @pytest.mark.parametrize("runner", [run_dj, run_bv, run_grover], ids=["dj", "bv", "grover"])
    def test_cold_and_warm_noisy_bundles_agree(self, runner):
        config = exact_config().replace(noisy=True, mitigate=True, shots=2000, seed=11)
        for cached in (noise_sim._engine, _moment_unitary):
            cached.cache_clear()
        cold = runner(config).to_json()
        assert noise_sim._engine.cache_info().misses == 1
        warm = runner(config).to_json()
        assert noise_sim._engine.cache_info().misses == 1
        assert cold == warm

    def test_same_noise_builds_no_second_propagator(self):
        noise = ExperimentConfig.default().noise
        circ = dj_circuit(DJOracle("X", "Z"))
        noise_sim._engine.cache_clear()
        first = simulate_lindblad(circ, noise)
        engine = noise_sim._engine(noise, 1)
        built = len(engine._cache)
        assert built > 0
        second = simulate_lindblad(circ, noise)
        assert noise_sim._engine(noise, 1) is engine
        assert len(engine._cache) == built
        assert first.matrix.tobytes() == second.matrix.tobytes()

    def test_one_engine_slot_keyed_by_noise_and_step_scale(self):
        noise = ExperimentConfig.default().noise
        other = dataclasses.replace(noise, j11=noise.j11 + 1.0)
        circ = dj_circuit(DJOracle("Z", "Z"))
        noise_sim._engine.cache_clear()
        simulate_lindblad(circ, noise)
        engine = noise_sim._engine(noise, 1)
        simulate_lindblad(circ, other)
        assert noise_sim._engine.cache_info().currsize == 1
        assert noise_sim._engine(other, 1).noise == other
        assert noise_sim._engine(noise, 1) is not engine
        halved = noise_sim._engine(noise, 2)
        assert halved.step_scale == 2
        assert noise_sim._engine(noise, 1) is not halved

    def test_second_run_adds_no_steps(self):
        noise = ExperimentConfig.default().noise
        circ = grover_circuit(GroverSpec("12", 2))
        noise_sim._engine.cache_clear()
        first = simulate_lindblad(circ, noise)
        engine = noise_sim._engine(noise, 1)
        plan = engine._plans[(circ,)]
        _, walk, _ = plan  # the parent slots, the maps and the final slots of the walk
        assert len(walk) == len(circ.moments)
        maps = len(engine._superops)
        second = simulate_lindblad(circ, noise)
        assert list(engine._plans) == [(circ,)]
        assert engine._plans[(circ,)] is plan
        assert len(engine._superops) == maps
        assert first.matrix.tobytes() == second.matrix.tobytes()

    def test_cached_propagators_are_read_only(self):
        engine = noise_sim._engine(ExperimentConfig.default().noise, 1)
        prop = engine.propagator(40.0)
        assert engine.propagator(40.0) is prop
        with pytest.raises(ValueError):
            prop[0, 0] = 0.0

    def test_cached_steps_give_the_uncached_bytes(self):
        # the calibration phase enters through a matmul; a column scaling
        # u * phase agrees only to rounding and would move the bundles' bytes
        engine = noise_sim._engine(ExperimentConfig.default().noise, 1)
        for circ in runner_circuits("dj") + runner_circuits("grover"):
            for moment, duration in zip(circ.moments, circ.durations):
                phase = np.diag(np.exp(1j * engine._coupling_diag * duration * 1e-3))
                u = engine._calibrated_unitary(moment, duration)
                assert u.tobytes() == (moment_unitary(moment, 2) @ phase).tobytes()

    @pytest.mark.parametrize("argv", [
        ["sim", "grover", "--noisy", "--mitigate", "--shots", "20000", "--seed", "5"],
        ["tomo", "process", "--gate", "H", "--qutrit", "2"],
    ], ids=["grover_noisy_mitigated", "tomo_h_q2"])
    def test_noisy_output_independent_of_blas_threads(self, argv):
        # the thread count must be set before numpy is imported, so each
        # setting gets its own interpreter
        script = "import sys; from qutritlab.cli_harness import main; sys.exit(main(sys.argv[1:]))"
        src = str(Path(qutritlab.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                                  capture_output=True, check=True)
            outputs.append(done.stdout)
        assert json.loads(outputs[0])["entries"]
        assert outputs[0] == outputs[1]


class TestTomographyReuse:
    """The noiseless references and pair circuit of each gate are built once
    per process; the bundles do not depend on whether they were cached."""

    def clear(self):
        for cached in (cli_harness._gate_reference, cli_harness._pair_circuit, noise_sim._engine):
            cached.cache_clear()

    def test_per_gate_caches_bounded_and_read_only(self):
        self.clear()
        for gate in ("CNOT", "H"):
            with pytest.raises(ConfigError):
                run_process_tomo(exact_config(), gate, 3 if gate == "H" else 1)
        assert cli_harness._gate_reference.cache_info().currsize == 0
        assert cli_harness._pair_circuit.cache_info().currsize == 0
        for _ in range(2):
            for gate in LOGICAL_GATE_NAMES:
                for qutrit in (1, 2):
                    run_process_tomo(exact_config(), gate, qutrit)
        n_gates = len(LOGICAL_GATE_NAMES)
        assert cli_harness._gate_reference.cache_info()[2:] == (n_gates, n_gates)
        assert cli_harness._pair_circuit.cache_info()[2:] == (2 * n_gates, 2 * n_gates)
        for gate in LOGICAL_GATE_NAMES:
            ideal_chi = cli_harness._gate_reference(gate)[0]
            with pytest.raises(ValueError):
                ideal_chi.matrix[0, 0] = 0.0
            # normalized once, when the reference was built; every fidelity reads that array
            assert "_normalized" in vars(ideal_chi)
            assert ideal_chi.normalized() is cli_harness._gate_reference(gate)[0].normalized()

    @pytest.mark.parametrize("gate", ["H", "Xsq", "Z"])
    def test_cold_and_warm_bundles_agree(self, gate):
        for qutrit in (1, 2):
            self.clear()
            cold = run_process_tomo(exact_config(), gate, qutrit)
            warm = run_process_tomo(exact_config(), gate, qutrit)
            assert cli_harness._gate_reference.cache_info().hits == 1
            assert cold.to_json() == warm.to_json()
            assert cold.figure_csv == warm.figure_csv


class TestModuleEntryPoint:
    """The package imports its command-line layer only when asked for it."""

    def run(self, *args):
        src = str(Path(qutritlab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, *args], env=env, capture_output=True)

    def test_run_as_module_prints_no_runtime_warning(self):
        done = self.run("-W", "error::RuntimeWarning", "-m", "qutritlab.cli_harness",
                        "compile", "cphase", "--theta", "1.0", "--target", "21")
        assert done.returncode == 0
        assert done.stderr == b""
        assert json.loads(done.stdout)["target"] == "21"

    def test_package_names_resolve_on_first_use(self):
        script = (
            "import sys, qutritlab\n"
            "assert 'qutritlab.cli_harness' not in sys.modules\n"
            "from qutritlab import run_dj, ExperimentConfig\n"
            "from qutritlab.cli_harness import run_dj as direct\n"
            "assert run_dj is direct and 'run_dj' in dir(qutritlab)\n"
            "star = {}\n"
            "exec('from qutritlab import *', star)\n"
            "assert star['ExperimentConfig'] is ExperimentConfig and 'DensityMatrix' in star\n"
            "print(qutritlab.__version__)\n"
        )
        done = self.run("-c", script)
        assert done.returncode == 0, done.stderr
        assert done.stdout == b"1.0.0\n"
        with pytest.raises(AttributeError):
            qutritlab.no_such_name


class TestCommandLineRoute:
    """argparse picks each subcommand's handler; flags given override the profile."""

    def test_seed_zero_reaches_the_config(self, tmp_path, capsys):
        profile = tmp_path / "run.yaml"
        profile.write_text("seed: 3\nnoisy: true\n")
        for flags in ([], ["--config", str(profile)]):
            args = build_parser().parse_args(["sim", "dj", "--shots", "100", "--seed", "0", *flags])
            assert cli_harness._config_from_args(args).seed == 0
        # a flag not given leaves the profile's value
        config = cli_harness._config_from_args(build_parser().parse_args(["sim", "dj", "--config", str(profile)]))
        assert (config.seed, config.noisy) == (3, True)
        # a file value a flag overrides is never resolved, so it is not checked on its own
        profile.write_text("shots: 0\nseed: -3\n")
        for flags in ([], ["--config", str(profile)]):
            assert main(["sim", "dj", "--shots", "100", "--seed", "0", *flags]) == 0
        printed = capsys.readouterr().out
        seed0 = ExperimentConfig.default().replace(shots=100, seed=0)
        assert printed == 2 * run_dj(seed0).to_json()
        assert run_dj(seed0).to_json() != run_dj(seed0.replace(seed=7)).to_json()

    def test_empty_config_path_exits_one_with_json(self, capsys):
        # an empty path names no readable file; it does not select the packaged profile
        assert main(["sim", "bv", "--config", ""]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "ConfigError"

    def test_shots_zero_exits_one_with_json(self, capsys):
        assert main(["sim", "dj", "--shots", "0"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "ConfigError"

    @pytest.mark.parametrize("argv, handler", [
        (["sim", "dj"], "run_dj"),
        (["sim", "bv", "--shots", "100", "--seed", "0"], "run_bv"),
        (["sim", "grover"], "run_grover"),
        (["device", "sweep", "--from", "0.185", "--to", "0.185", "--steps", "1"], "run_device_report"),
        (["tomo", "process", "--gate", "Z", "--qutrit", "2"], "run_process_tomo"),
        (["compile", "cphase", "--theta", "1.0", "--target", "21"], "compile_report"),
        (["mitigate"], "mitigate_counts"),
    ], ids=["sim_dj", "sim_bv", "sim_grover", "device_sweep", "tomo_process", "compile_cphase", "mitigate"])
    def test_every_subcommand_reaches_its_handler(self, tmp_path, capsys, monkeypatch, argv, handler):
        if argv == ["mitigate"]:
            save_confusion(synthetic_confusion(), tmp_path / "matrix.txt")
            (tmp_path / "counts.txt").write_text("".join(f"{lbl} 100\n" for lbl in cli_harness._PAIR_LABELS))
            argv = [*argv, "--counts", str(tmp_path / "counts.txt"), "--matrix", str(tmp_path / "matrix.txt")]
        handlers = ("run_dj", "run_bv", "run_grover", "run_device_report", "run_process_tomo",
                    "compile_report", "mitigate_counts")
        calls = Counter()
        for name in handlers:
            def counting(*args, _name=name, _original=getattr(cli_harness, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(cli_harness, name, counting)
        assert main(argv) == 0
        assert calls == {handler: 1}
        assert json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("argv", [
        [],
        ["sim"],
        ["sim", "dj", "--shots", "many"],
        ["sim", "dj", "--gate", "H"],
        ["compile"],
        ["compile", "cphase", "--target", "21"],
        ["device", "sweep", "--from", "0", "--to", "0.3"],
        ["device", "sweep", "--from", "0", "--to", "0.3", "--steps", "3", "--noisy"],
        ["tomo", "process", "--gate", "H", "--qutrit", "3"],
        ["tomo", "process", "--gate", "H", "--qutrit", "1", "--seed", "1"],
        ["mitigate", "--counts", "c.txt"],
        ["mitigate", "--counts", "c.txt", "--matrix", "m.txt", "--config", "run.yaml"],
        ["sim", "quantum-supremacy"],
        ["compile", "cphase", "--theta", "not-a-number", "--target", "00"],
    ])
    def test_usage_errors_exit_two_with_usage_text(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: qutritlab")

    @pytest.mark.parametrize("argv, name", [
        (["sim", "bv", "--noisy", "--mitigate", "--shots", "2000", "--seed", "5"], "bv"),
        (["device", "sweep", "--from", "0.185", "--to", "0.185", "--steps", "1"], "device"),
        (["tomo", "process", "--gate", "H", "--qutrit", "2"], "tomo"),
    ], ids=["sim", "device", "tomo"])
    def test_bundle_receipt_unchanged(self, tmp_path, capsys, argv, name):
        assert main([*argv, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        result, figure = tmp_path / f"{name}_result.json", tmp_path / f"{name}_figure.csv"
        doc = json.loads(result.read_text())
        assert out == json.dumps({
            "experiment": name,
            "config_hash": doc["config_hash"],
            "summary": doc["summary"],
            "result_json": str(result),
            "figure_csv": str(figure),
        }, sort_keys=True, separators=(",", ":")) + "\n"
        assert sorted(tmp_path.iterdir()) == [figure, result]

    def test_document_receipt_unchanged(self, tmp_path, capsys):
        argv = ["compile", "cphase", "--theta", "1.0", "--target", "21"]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert main([*argv, "--out", str(tmp_path)]) == 0
        path = tmp_path / "cphase_21_compiled.json"
        assert capsys.readouterr().out == '{"written":"' + str(path) + '"}\n'
        assert path.read_text() == printed == json.dumps(compile_report(1.0, "21"), sort_keys=True,
                                                         separators=(",", ":")) + "\n"

    @pytest.mark.parametrize("argv", [
        ["sim", "dj", "--out", ""],
        ["compile", "cphase", "--theta", "1", "--target", "21", "--out", ""],
        ["mitigate", "--counts", "counts.txt", "--matrix", "matrix.txt", "--out", ""],
        ["sim", "bv", "--config", "run.yaml"],
    ], ids=["sim", "compile", "mitigate", "yaml"])
    def test_empty_output_directory_exits_one_with_json(self, tmp_path, capsys, monkeypatch, argv):
        # an empty directory name is an error, not "print to stdout" and not the working directory
        monkeypatch.chdir(tmp_path)
        save_confusion(synthetic_confusion(), tmp_path / "matrix.txt")
        (tmp_path / "counts.txt").write_text("".join(f"{lbl} 100\n" for lbl in cli_harness._PAIR_LABELS))
        (tmp_path / "run.yaml").write_text('out_dir: ""\n')
        before = sorted(tmp_path.iterdir())
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "ConfigError", "message": "the output directory name is empty"}
        assert sorted(tmp_path.iterdir()) == before


class TestMain:
    @pytest.mark.parametrize("bounds", [["nan", "0.3"], ["0", "inf"], ["-inf", "0.3"]],
                             ids=["from_nan", "to_inf", "from_minus_inf"])
    def test_device_sweep_rejects_non_finite_flux(self, capsys, bounds):
        start, stop = bounds
        assert main(["device", "sweep", f"--from={start}", f"--to={stop}", "--steps", "3"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "ConfigError"

    def test_device_sweep_takes_a_huge_finite_flux(self, capsys):
        # flux 1e308 is an even number of flux quanta: the spectrum of flux 0, and no traceback
        assert main(["device", "sweep", "--from", "0", "--to", "1e308", "--steps", "2"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and len(out.splitlines()) == 1
        first, last = json.loads(out)["entries"]
        assert (first.pop("flux"), first.pop("name"), last.pop("flux"), last.pop("name")) == (
            0.0, "flux_0", 1e308, "flux_1e+308")
        assert first == last

    @pytest.mark.parametrize("steps", ["1", "3"])
    def test_device_sweep_rejects_a_span_that_overflows(self, capsys, steps):
        # both bounds are finite, but --to minus --from is not: no numpy warning, one JSON error line
        assert main(["device", "sweep", "--from=-1.7e308", "--to=1.7e308", "--steps", steps]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "ConfigError",
                                   "message": "--to minus --from must be finite, got 1.7e+308 - -1.7e+308"}

    @pytest.mark.parametrize("steps", ["10001", "100000000000"])
    def test_device_sweep_rejects_too_many_steps(self, capsys, steps):
        assert main(["device", "sweep", "--from", "0", "--to", "0.3", "--steps", steps]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "ConfigError"

    @pytest.mark.parametrize("command", [
        ["sim", "dj"],
        ["compile", "cphase", "--theta", "3.141592653589793", "--target", "12"],
    ], ids=["sim", "compile"])
    @pytest.mark.parametrize("where", ["existing_file", "below_a_file"])
    def test_unwritable_out_exits_one_with_json(self, tmp_path, capsys, command, where):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        out_dir = blocker if where == "existing_file" else blocker / "sub"
        assert main([*command, "--out", str(out_dir)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "ConfigError"
        assert blocker.read_text() == "not a directory\n"

    def test_mitigate_subcommand_round_trip(self, tmp_path, capsys):
        matrix = synthetic_confusion()
        matrix_path = tmp_path / "matrix.txt"
        save_confusion(matrix, matrix_path)
        true = np.zeros(9)
        true[8] = 1.0
        observed = sample_counts(matrix.m @ true, 20000, seed=13)
        labels = [f"{a}{b}" for a in range(3) for b in range(3)]
        counts_path = tmp_path / "counts.txt"
        counts_path.write_text("\n".join(f"{lbl} {observed[i]}" for i, lbl in enumerate(labels)) + "\n")
        code = main([
            "mitigate", "--counts", str(counts_path), "--matrix", str(matrix_path),
            "--out", str(tmp_path),
        ])
        assert code == 0
        capsys.readouterr()
        doc = json.loads((tmp_path / "mitigated_counts.json").read_text())
        assert doc["total"] == pytest.approx(20000.0, abs=1e-6)
        corrected = doc["corrected"]
        assert max(corrected, key=corrected.get) == "22"
        assert corrected["22"] > observed[8]

    @pytest.mark.parametrize("algorithm", ["dj", "bv", "grover"])
    def test_negative_seed_exits_one_with_json(self, tmp_path, capsys, algorithm):
        config = tmp_path / "run.yaml"
        config.write_text("seed: -3\n")
        for flags in (["--shots", "100", "--seed", "-1"], ["--config", str(config)]):
            assert main(["sim", algorithm, *flags]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert len(err.splitlines()) == 1
            assert json.loads(err)["error"] == "ConfigError"

    def test_nonfinite_channel_exits_one_with_json(self, tmp_path, capsys):
        # a vanishing T1 passes the loader, but its rates overflow the integrator
        config = tmp_path / "tiny_t1.yaml"
        config.write_text("coherence:\n  q1:\n    t1_01: 1.0e-300\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["tomo", "process", "--gate", "H", "--qutrit", "1", "--config", str(config)])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "ChannelError"

    def test_partner_tiny_t1_leaves_qutrit_two_tomography_unchanged(self, tmp_path, capsys):
        # the channel of a gate on qutrit 2 is formed from qutrit 2's own
        # generator, so qutrit 1's overflowing rate never enters it
        config = tmp_path / "tiny_t1.yaml"
        config.write_text("coherence:\n  q1:\n    t1_01: 1.0e-300\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for name, extra in (("tiny", ["--config", str(config)]), ("default", [])):
                args = ["tomo", "process", "--gate", "H", "--qutrit", "2", "--out", str(tmp_path / name)]
                assert main(args + extra) == 0
        capsys.readouterr()
        tiny, default = (json.loads((tmp_path / name / "tomo_result.json").read_text()) for name in ("tiny", "default"))
        assert tiny["summary"] == default["summary"]
        assert tiny["config_hash"] != default["config_hash"]
        assert (tmp_path / "tiny" / "tomo_figure.csv").read_bytes() == (tmp_path / "default" / "tomo_figure.csv").read_bytes()

    @pytest.mark.parametrize("qutrit, warned", [(1, False), (2, True)])
    def test_tomo_warns_only_of_the_measured_qutrits_dephasing(self, capsys, qutrit, warned):
        # at the default profile only qutrit 2 needs the correlated dephasing operator
        noise_sim._qutrit_engine.cache_clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["tomo", "process", "--gate", "H", "--qutrit", str(qutrit)]) == 0
        capsys.readouterr()
        assert any("negative 12 dephasing rate" in str(w.message) for w in caught) == warned

    def test_compile_bad_target_exits_one(self, capsys):
        code = main(["compile", "cphase", "--theta", "3.14", "--target", "55"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert "error" in err
