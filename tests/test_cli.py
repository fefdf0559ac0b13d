import dataclasses
import filecmp
import hashlib
import json
import os
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from fresh_process import run_fresh
from koopdmd import analysis, cli, dmd, embed, ioutil, linalg, systems
from koopdmd.errors import ConfigError, DecompositionError


def rotation_config(out_dir, m=60, n=8, steps=None, **dmd_extra):
    return {
        "output_dir": str(out_dir),
        "system": {
            "kind": "circle",
            "omega": np.pi / 4,
            "z0": [0.0],
            "dt": 1.0,
            "steps": steps if steps is not None else m + n,
        },
        "observables": [{"kind": "cos_angle"}],
        "embedding": {"m": m, "n": n},
        "dmd": {"algorithm": "hankel", **dmd_extra},
        "analysis": {"basics": [np.pi / 4]},
    }


class TestParseConfig:
    def test_requires_exactly_one_source(self, tmp_path):
        with pytest.raises(ConfigError, match="system"):
            cli.parse_config({"output_dir": str(tmp_path), "embedding": {"m": 4, "n": 2}})
        raw = rotation_config(tmp_path)
        raw["csv"] = "data.csv"
        with pytest.raises(ConfigError, match="exactly one"):
            cli.parse_config(raw)

    def test_unknown_keys_are_named(self, tmp_path):
        raw = rotation_config(tmp_path)
        raw["embedding"]["window"] = 4
        with pytest.raises(ConfigError, match="embedding.*window"):
            cli.parse_config(raw)

    def test_system_requires_observables(self, tmp_path):
        raw = rotation_config(tmp_path)
        del raw["observables"]
        with pytest.raises(ConfigError, match="observable"):
            cli.parse_config(raw)

    def test_insufficient_samples(self, tmp_path):
        raw = rotation_config(tmp_path, m=60, n=8, steps=50)
        with pytest.raises(ConfigError, match="69"):
            cli.parse_config(raw)  # needs m + n + 1 = 69 samples

    def test_multiple_starts_need_interleave(self, tmp_path):
        raw = rotation_config(tmp_path)
        raw["system"]["z0"] = [[0.0], [1.0]]
        with pytest.raises(ConfigError, match="interleave"):
            cli.parse_config(raw)

    def test_bad_algorithm(self, tmp_path):
        raw = rotation_config(tmp_path, algorithm="dynamic")
        with pytest.raises(ConfigError, match="algorithm"):
            cli.parse_config(raw)

    def test_scalar_z0_wrapped(self, tmp_path):
        raw = rotation_config(tmp_path)
        raw["system"]["z0"] = [0.25]  # flat list = one state
        cfg = cli.parse_config(raw)
        assert cfg.system.z0s == ((0.25,),)

    @pytest.mark.parametrize("key, value", [
        ("omega", [1, 2]), ("omega", None), ("omega", "0.7"), ("omega", 10**400),
        ("z0", [None]), ("z0", [[0.0], 1]), ("dt", float("inf")),
    ])
    def test_system_values_must_be_finite_numbers(self, tmp_path, key, value):
        raw = rotation_config(tmp_path)
        raw["system"][key] = value
        with pytest.raises(ConfigError, match=f"system.{key}"):
            cli.parse_config(raw)

    def test_linear_matrix_entries_must_be_numbers(self, tmp_path):
        raw = rotation_config(tmp_path)
        raw["system"].update(kind="linear", matrix=[[1.0, None], [0.0, 1.0]], z0=[1.0, 0.0])
        del raw["system"]["omega"]
        with pytest.raises(ConfigError, match="system.matrix"):
            cli.parse_config(raw)
        raw["system"]["matrix"] = [[0.0, -1.0], [1.0, 0.0]]
        assert cli.parse_config(raw).system.params["matrix"] == [[0.0, -1.0], [1.0, 0.0]]

    def test_custom_expression_checked_at_parse_time(self, tmp_path):
        raw = rotation_config(tmp_path)
        raw["observables"] = [{"kind": "custom", "expression": "z1.real"}]
        with pytest.raises(ConfigError, match=r"observables\[0\].*z1.real"):
            cli.parse_config(raw)

    def test_deep_expression_names_the_nesting_limit(self, tmp_path, capsys):
        raw = rotation_config(tmp_path / "out")
        raw["observables"] = [{"kind": "custom", "expression": "+".join(["z1"] * 1200)}]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == (f"config error: observables[0]: expression nests deeper than the "
                       f"nesting limit of {systems.MAX_NESTING} levels "
                       f"(a chain of n terms nests n deep)\n")
        assert not (tmp_path / "out").exists()

    def test_hankel_pair_beyond_physical_memory(self, tmp_path, monkeypatch):
        def never(spec):
            raise AssertionError("integration started")

        monkeypatch.setattr(systems, "integrate", never)
        raw = rotation_config(tmp_path, m=10**7, n=10**5)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="physical memory"):
                cli.parse_config(raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["run", str(path)]) == 2

    def test_trajectories_beyond_physical_memory(self, tmp_path, monkeypatch):
        monkeypatch.setattr(systems, "integrate", never_integrate)
        raw = rotation_config(tmp_path, steps=10**13)
        with pytest.raises(ConfigError, match=r"^system\.steps: .* physical memory$"):
            cli.parse_config(raw)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["run", str(path)]) == 2

    def test_memory_preflight_skipped_without_sysconf(self, tmp_path, monkeypatch):
        def unknown(name):
            raise ValueError(f"unrecognized configuration name {name!r}")

        monkeypatch.setattr(cli.os, "sysconf", unknown)
        cfg = cli.parse_config(rotation_config(tmp_path, m=10**7, n=10**5))
        assert cfg.embedding.m == 10**7


# The dataclass that owns each section's keys and defaults.
SECTION_CLASSES = {"system": cli.SystemConfig, "suite": cli.SuiteConfig,
                   "embedding": cli.EmbeddingConfig, "dmd": cli.DmdConfig,
                   "analysis": cli.AnalysisConfig}


def comparable(cfg):
    """cfg with its start states as tuples, so that == compares it."""
    system = cfg.system
    if system is not None:
        system = (system.kind, system.params, system.dt, system.steps, system.z0s, system.skip)
    return dataclasses.replace(cfg, system=None), system


def sections(raw):
    """(path, dataclass) of every section of a raw config, observables included."""
    for name, cls in SECTION_CLASSES.items():
        if isinstance(raw.get(name), dict):
            yield (name,), cls
    for i in range(len(raw.get("observables") or [])):
        yield ("observables", i), systems.Observable


class TestSectionDefaults:
    @pytest.mark.parametrize("name", sorted(cli.RECIPES))
    def test_default_valued_keys_can_go(self, name):
        # The recipes state no default (below), so each default is restated
        # to see that a key holding it is the same as no key.
        full = comparable(cli.parse_config(cli.recipe_config(name), recipe=name))
        restated = 0
        for (key, *index), cls in sections(cli.recipe_config(name)):
            for f in dataclasses.fields(cls):
                raw = cli.recipe_config(name)
                section = raw[key][index[0]] if index else raw[key]
                if f.init and f.default is not dataclasses.MISSING and f.name not in section:
                    section[f.name] = f.default
                    assert comparable(cli.parse_config(raw, recipe=name)) == full, f.name
                    restated += 1
        assert restated >= 1

    @pytest.mark.parametrize("name", sorted(cli.RECIPES))
    def test_every_recipe_key_acts(self, name):
        full = comparable(cli.parse_config(cli.recipe_config(name), recipe=name))
        for path in field_paths(cli.recipe_config(name)):
            raw = cli.recipe_config(name)
            parent = raw
            for key in path[:-1]:
                parent = parent[key]
            if isinstance(parent, dict):
                del parent[path[-1]]
                try:
                    assert comparable(cli.parse_config(raw, recipe=name)) != full, path
                except ConfigError:
                    pass

    @pytest.mark.parametrize("section, cls", [("dmd", cli.DmdConfig),
                                              ("analysis", cli.AnalysisConfig)])
    @pytest.mark.parametrize("value", ["absent", None, {}])
    def test_empty_section_gives_defaults(self, tmp_path, section, cls, value):
        raw = rotation_config(tmp_path)
        if value == "absent":
            del raw[section]
        else:
            raw[section] = value
        assert getattr(cli.parse_config(raw), section) == cls()

    def test_dt_override_is_an_unknown_key(self, tmp_path, capsys):
        raw = rotation_config(tmp_path / "out")
        raw["analysis"]["dt_override"] = 2.0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: analysis: unknown keys ['dt_override']")
        assert not (tmp_path / "out").exists()


def never_integrate(spec):
    raise AssertionError("integration started")


class TestParseTimeChecks:
    """Faults that parse_config refuses before anything is integrated."""

    @pytest.fixture(autouse=True)
    def no_integration(self, monkeypatch):
        monkeypatch.setattr(systems, "integrate", never_integrate)

    def test_second_start_state_of_wrong_dimension(self):
        raw = cli.recipe_config("vdp-phase")
        raw["system"]["z0"] = [[4.0, 4.0], [0, 4, 1]]
        with pytest.raises(ConfigError, match="system.z0"):
            cli.parse_config(raw)

    def test_lorenz_state_of_wrong_dimension(self):
        raw = cli.recipe_config("lorenz-pod")
        raw["system"]["z0"] = [1, 1]
        with pytest.raises(ConfigError, match="system.z0"):
            cli.parse_config(raw)

    def test_linear_matrix_must_be_square(self, tmp_path):
        raw = rotation_config(tmp_path)
        del raw["system"]["omega"]
        raw["system"].update(kind="linear", matrix=[[1, 0]], z0=[1.0, 0.0])
        with pytest.raises(ConfigError, match="system.matrix"):
            cli.parse_config(raw)

    @pytest.mark.parametrize("observable", [
        {"kind": "coordinate", "index": 3},
        {"kind": "custom", "expression": "z4 + z1"},
        {"kind": "custom", "expression": "1.0"},
    ])
    def test_observable_evaluated_on_first_state(self, observable):
        raw = cli.recipe_config("lorenz-pod")
        raw["observables"] = [observable]
        with pytest.raises(ConfigError, match=r"observables\[0\]"):
            cli.parse_config(raw)

    def test_index_beyond_the_dimension_names_it(self):
        raw = cli.recipe_config("lorenz-pod")
        raw["observables"] = [{"kind": "coordinate", "index": 5}]
        with pytest.raises(ConfigError, match=r"^observables\[0\]: .*'z6' \(state dimension 3\)"):
            cli.parse_config(raw)

    @pytest.mark.parametrize("csv", [False, True])
    def test_companion_without_delayed_columns(self, tmp_path, csv):
        raw = rotation_config(tmp_path, n=0, algorithm="companion")
        if csv:
            raw = {"csv": str(tmp_path / "absent.csv"), "embedding": raw["embedding"],
                   "dmd": raw["dmd"]}
        with pytest.raises(ConfigError, match=r"^embedding\.n: the companion algorithm"):
            cli.parse_config(raw)


class TestIgnoredKeysAreRefused:
    """A key that a run would ignore exits 2 with one line that names it,
    before anything is integrated or written."""

    @pytest.fixture(autouse=True)
    def no_integration(self, monkeypatch):
        monkeypatch.setattr(systems, "integrate", never_integrate)

    def refused(self, capsys, tmp_path, target, key, *flags):
        if isinstance(target, dict):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(target))
            target = str(path)
        out = tmp_path / "out"
        assert cli.main(["run", target, "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}:") and len(err.splitlines()) == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("section, value", [
        ("dmd", {"algorithm": "companion"}),
        ("analysis", {"export_phase": True, "basics": [1.0]}),
    ])
    def test_suite_with_a_pipeline_section(self, tmp_path, capsys, section, value):
        raw = {"suite": {"count": 2}, section: value}
        self.refused(capsys, tmp_path, raw, section)

    def test_seed_next_to_z0(self, tmp_path, capsys):
        self.refused(capsys, tmp_path, "vdp-phase", "system.seed", "--seed", "3")

    def test_bad_z0_is_named_before_seed(self, tmp_path, capsys):
        raw = cli.recipe_config("vdp-phase")
        raw["system"].update(seed=3, z0=[[4.0, 4.0], [0, 4, 1]])
        self.refused(capsys, tmp_path, raw, "system.z0")

    def test_companion_with_two_observables(self, tmp_path, capsys):
        raw = rotation_config(tmp_path, algorithm="companion")
        raw["observables"].append({"kind": "custom", "expression": "sin(z1)"})
        self.refused(capsys, tmp_path, raw, "dmd.algorithm")

    def test_companion_with_two_csv_columns(self, tmp_path, capsys):
        # Refused when the file is read, before the output directory exists.
        csv = tmp_path / "f.csv"
        csv.write_text("t,f,g\n" + "".join(f"{i},{np.cos(i)},{np.sin(i)}\n" for i in range(40)))
        raw = {"csv": str(csv), "embedding": {"m": 20, "n": 4},
               "dmd": {"algorithm": "companion"}}
        self.refused(capsys, tmp_path, raw, "dmd.algorithm")

    def test_seed_on_a_csv_source(self, tmp_path, capsys):
        csv = tmp_path / "f.csv"
        csv.write_text("t,f\n" + "".join(f"{i},{np.cos(i)}\n" for i in range(40)))
        raw = {"csv": str(csv), "embedding": {"m": 20, "n": 4}}
        self.refused(capsys, tmp_path, raw, "--seed", "--seed", "5")

    @pytest.mark.parametrize("algorithm", ["svd", "companion"])
    @pytest.mark.parametrize("key, value", [("svd_threshold", 1e-10), ("threshold_mode", "abs")])
    def test_threshold_key_without_truncation(self, tmp_path, capsys, algorithm, key, value):
        raw = rotation_config(tmp_path, n=1, algorithm=algorithm, **{key: value})
        self.refused(capsys, tmp_path, raw, f"dmd.{key}")

    def test_lattice_bound_without_basics(self, tmp_path, capsys):
        raw = rotation_config(tmp_path)
        raw["analysis"] = {"K": 6}
        self.refused(capsys, tmp_path, raw, "analysis.K")

    @pytest.mark.parametrize("observable, key", [
        ({"kind": "coordinate", "index": 0, "expression": "cos(z2)"}, "expression"),
        ({"kind": "cos_angle", "indices": [0]}, "indices"),
        ({"kind": "sum", "indices": [0], "index": 0}, "index"),
        ({"kind": "custom", "expression": "z1", "index": 0}, "index"),
    ])
    def test_observable_key_its_kind_does_not_read(self, tmp_path, capsys, observable, key):
        raw = rotation_config(tmp_path)
        raw["observables"] = [{"kind": "cos_angle"}, observable]
        self.refused(capsys, tmp_path, raw, f"observables[1].{key}")

    @pytest.mark.parametrize("recipe, key, value", [
        ("rotation-check", "mu", 0.3),
        ("lorenz-pod", "omega", 1.0),
        ("vdp-phase", "matrix", [[1.0, 0.0], [0.0, 1.0]]),
        ("torus-synth", "omega", 1.0),
    ])
    def test_system_parameter_its_kind_does_not_read(self, tmp_path, capsys, recipe, key,
                                                     value):
        raw = cli.recipe_config(recipe)
        raw["system"][key] = value
        self.refused(capsys, tmp_path, raw, f"system.{key}")

    @pytest.mark.parametrize("label", ["a,b", "a\nb"])
    def test_label_that_is_no_csv_field(self, tmp_path, capsys, label):
        raw = rotation_config(tmp_path)
        raw["observables"][0]["label"] = label
        self.refused(capsys, tmp_path, raw, "observables[0].label")


class TestOutputDirectory:
    def test_csv_too_short_leaves_no_directory(self, tmp_path, capsys):
        # embed.hankel refuses the window once the file is read.
        csv = tmp_path / "f.csv"
        csv.write_text("t,f\n" + "".join(f"{i},{np.cos(i)}\n" for i in range(10)))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"csv": str(csv), "embedding": {"m": 20, "n": 4}}))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_csv_columns_beyond_physical_memory(self, tmp_path, capsys, monkeypatch):
        # One column's Hankel pair fits in memory, the file's three do not.
        monkeypatch.setattr(cli, "_physical_memory", lambda: 2 * 8 * 20 * (4 + 2))
        csv = tmp_path / "f.csv"
        csv.write_text("t,f,g,h\n" + "".join(f"{i},{np.cos(i)},{np.sin(i)},{i % 3}\n"
                                             for i in range(40)))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"csv": str(csv), "embedding": {"m": 20, "n": 4}}))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: embedding: m=20, n=4 need at least")
        assert err.endswith(" physical memory\n") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_control_character_label_gives_valid_json(self, tmp_path):
        csv = tmp_path / "f.csv"
        csv.write_text("t,a\x01b\n" + "".join(f"{i},{np.cos(i)}\n" for i in range(40)))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"csv": str(csv), "embedding": {"m": 20, "n": 4}}))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 0
        docs = {p.name: json.loads(p.read_text(encoding="utf-8")) for p in out.glob("*.json")}
        assert {"hankel.json", "pod.json", "dmd.json", "run.json"} <= set(docs)
        assert docs["hankel.json"]["blocks"][0]["label"] == "a\x01b"

    def test_untruncated_runs_record_no_threshold(self, tmp_path):
        raw = rotation_config(tmp_path / "out", n=1, algorithm="svd")
        raw["analysis"] = None
        cli.execute(cli.parse_config(raw))
        meta = json.loads((tmp_path / "out" / "run.json").read_text())["dmd"]
        assert meta["algorithm"] == "svd"
        assert meta["svd_threshold"] is None and meta["threshold_mode"] is None


def digests(directory):
    """sha256 of every file in directory, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in directory.iterdir()}


class TestComputeBeforeWrite:
    """A run computes every value before it makes the output directory or
    writes a file, so a failure up to then leaves the directory as it was."""

    @staticmethod
    def run(tmp_path, raw, out):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        return cli.main(["run", str(path), "--out", str(out)])

    def test_failed_decomposition_makes_no_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert self.run(tmp_path, rotation_config("unused", svd_threshold=2.0), out) == 3
        assert capsys.readouterr().err.startswith("numerical failure: ")
        assert not out.exists()

    def test_failed_rerun_leaves_the_previous_run_byte_identical(self, tmp_path, capsys):
        # The failing run's series, trajectory and Hankel metadata would
        # differ from the previous run's (m = 50 against 60).
        out = tmp_path / "out"
        assert self.run(tmp_path, rotation_config("unused"), out) == 0
        before = digests(out)
        assert self.run(tmp_path, rotation_config("unused", m=50, svd_threshold=2.0), out) == 3
        assert digests(out) == before

    def test_out_of_memory_in_the_svd_makes_no_directory(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(linalg, "svd", exhausted)
        out = tmp_path / "out"
        assert self.run(tmp_path, rotation_config("unused"), out) == 5
        assert capsys.readouterr().err.startswith("out of memory: ")
        assert not out.exists()


def shortened_recipe(name):
    """A recipe's raw config with lorenz-pod's window cut to m = 500,
    n = 50; the other recipes as they are."""
    raw = cli.recipe_config(name)
    if name == "lorenz-pod":
        raw["system"]["steps"] = raw["system"]["skip"] + 600
        raw["embedding"] = {"m": 500, "n": 50}
    return raw


@pytest.mark.parametrize("name", sorted(cli.RECIPES) + ["csv-three-columns"])
def test_every_written_artifact_is_one_a_rerun_may_delete(tmp_path, name):
    # _remove_stale deletes only the names in _ARTIFACT_NAMES or matching
    # _NUMBERED_ARTIFACT, so an artifact missing from them would outlive
    # the rerun that stops writing it.
    if name == "csv-three-columns":
        csv = tmp_path / "f.csv"
        csv.write_text("t,f,g,h\n" + "".join(f"{i},{np.cos(i)},{np.sin(0.3 * i)},{i % 3}\n"
                                             for i in range(80)))
        raw = {"csv": str(csv), "embedding": {"m": 40, "n": 8}}
    else:
        raw = shortened_recipe(name)
    raw["output_dir"] = str(tmp_path / "out")
    result = cli.execute(cli.parse_config(raw, None if name.startswith("csv") else name))
    written = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert written == sorted(result.outputs)
    unknown = [n for n in written
               if n not in cli._ARTIFACT_NAMES and not cli._NUMBERED_ARTIFACT.fullmatch(n)]
    assert not unknown


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def field_paths(node, path=()):
    """Every key path and list index path inside a raw config."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from field_paths(value, path + (key,))


MUTABLE_FIELDS = [(name, path) for name in sorted(cli.RECIPES)
                  for path in field_paths(cli.recipe_config(name))]


@st.composite
def mutated_recipe(draw):
    """A recipe config with one field replaced by any JSON value, or deleted."""
    name, path = draw(st.sampled_from(MUTABLE_FIELDS))
    raw = cli.recipe_config(name)
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(JSON)
    return raw


def parses_or_config_error(raw):
    with mock.patch.object(systems, "integrate", never_integrate):
        try:
            assert isinstance(cli.parse_config(raw), cli.RunConfig)
        except ConfigError as exc:
            assert "\n" not in str(exc)


class TestParseConfigFuzz:
    @given(JSON)
    def test_any_json_value(self, raw):
        parses_or_config_error(raw)

    @given(st.dictionaries(st.sampled_from(["system", "csv", "suite", "observables", "embedding",
                                            "dmd", "analysis", "output_dir"]), JSON))
    def test_any_known_sections(self, raw):
        parses_or_config_error(raw)

    @given(mutated_recipe())
    def test_single_field_mutations_of_recipes(self, raw):
        parses_or_config_error(raw)


class TestRecipes:
    def test_catalog(self):
        assert sorted(cli.RECIPES) == [
            "equivalence-suite", "lorenz-pod", "rotation-check", "torus-synth", "vdp-phase",
        ]

    def test_recipe_configs_parse(self):
        for name in cli.RECIPES:
            cfg = cli.parse_config(cli.recipe_config(name), recipe=name)
            assert cfg.recipe == name

    def test_recipe_copies_are_independent(self):
        a = cli.recipe_config("rotation-check")
        a["embedding"]["m"] = 1
        b = cli.recipe_config("rotation-check")
        assert b["embedding"]["m"] != 1

    def test_unknown_recipe(self):
        with pytest.raises(ConfigError, match="recipe"):
            cli.recipe_config("lorenz")


class TestExecute:
    def test_rotation_artifacts_and_spectrum(self, tmp_path):
        cfg = cli.parse_config(rotation_config(tmp_path / "run"))
        result = cli.execute(cfg)
        names = set(result.outputs)
        assert {"dmd.json", "modes.npy", "pod.json", "pod_basis.npy",
                "pod_coords.npy", "hankel.json", "run.json",
                "frequency_table.csv", "series_1.csv", "trajectory_1.csv"} <= names
        meta = json.loads((tmp_path / "run" / "dmd.json").read_text())
        assert meta["rank_kept"] == 2
        eigs = sorted(
            (complex(e["re"], e["im"]) for e in meta["eigenvalues"]),
            key=lambda z: z.imag,
        )
        want = [np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)]
        assert_allclose(eigs, want, atol=1e-10)

    def test_frequency_table_contents(self, tmp_path):
        cfg = cli.parse_config(rotation_config(tmp_path / "run"))
        cli.execute(cfg)
        lines = (tmp_path / "run" / "frequency_table.csv").read_text().splitlines()
        assert lines[0].startswith("k,omega_computed")
        assert len(lines) == 2  # only the positive-frequency branch
        fields = lines[1].split(",")
        assert fields[0] == "(1)"
        assert abs(float(fields[1]) - np.pi / 4) < 1e-10

    def test_deterministic_across_runs(self, tmp_path):
        cfg_a = cli.parse_config(rotation_config(tmp_path / "a"))
        cfg_b = cli.parse_config(rotation_config(tmp_path / "b"))
        ra = cli.execute(cfg_a)
        rb = cli.execute(cfg_b)
        assert ra.outputs == rb.outputs
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "a", tmp_path / "b", ra.outputs, shallow=False
        )
        assert not mismatch and not errors, f"runs differ: {mismatch or errors}"
        assert sorted(match) == sorted(ra.outputs)

    def test_series_csv_reingests_to_same_hankel(self, tmp_path):
        cfg = cli.parse_config(rotation_config(tmp_path / "run"))
        result = cli.execute(cfg)
        back = embed.read_timeseries_csv(tmp_path / "run" / "series_1.csv")
        blk = embed.hankel(back[0], m=cfg.embedding.m, n=cfg.embedding.n)
        assert np.array_equal(blk.H, result.blocks[0].H)

    def test_csv_source_matches_system_source(self, tmp_path):
        direct = cli.execute(cli.parse_config(rotation_config(tmp_path / "sys")))
        raw = {
            "output_dir": str(tmp_path / "csv"),
            "csv": str(tmp_path / "sys" / "series_1.csv"),
            "embedding": {"m": 60, "n": 8},
            "dmd": {"algorithm": "hankel"},
        }
        via_csv = cli.execute(cli.parse_config(raw))
        assert_allclose(
            via_csv.dmd_result.eigenvalues, direct.dmd_result.eigenvalues, atol=1e-12
        )

    def test_equivalence_suite_small(self, tmp_path):
        raw = {
            "output_dir": str(tmp_path / "suite"),
            "suite": {"count": 3, "dim": 4},
        }
        result = cli.execute(cli.parse_config(raw))
        report = result.suite_report
        assert report["pass"] is True
        assert len(report["per_seed"]) == 3
        assert report["max_eigenvalue_disagreement"] <= 1e-8
        assert report["max_exact_vs_projected"] <= 1e-8
        assert report["tol"] == cli.SUITE_TOL == 1e-8
        assert (tmp_path / "suite" / "equivalence.json").exists()

    def test_vdp_phase_export(self, tmp_path):
        raw = cli.recipe_config("vdp-phase")
        raw["output_dir"] = str(tmp_path / "vdp")
        result = cli.execute(cli.parse_config(raw, recipe="vdp-phase"))
        assert "phase.csv" in result.outputs and result.phase_skipped is None
        res = result.dmd_result
        assert result.dominant == analysis.dominant_nontrivial(res.eigenvalues, res.dt,
                                                               cli.MIN_NONTRIVIAL_OMEGA)
        lines = (tmp_path / "vdp" / "phase.csv").read_text().splitlines()
        assert lines[0] == "t,trajectory,z1,z2,phase"
        table = np.loadtxt(lines[1:], delimiter=",")
        assert set(np.unique(table[:, 1])) == {1.0, 2.0}
        phases = table[:, 4]
        assert np.all((phases >= 0.0) & (phases < 2 * np.pi))

    def test_one_start_state_has_variance_when_interleaved(self, tmp_path):
        rows = {}
        for interleave in (False, True):
            raw = cli.recipe_config("rotation-check")
            raw["embedding"]["interleave"] = interleave
            raw["output_dir"] = str(tmp_path / str(interleave))
            rows[interleave] = cli.execute(cli.parse_config(raw)).frequency_rows
        assert rows[True] == rows[False]
        assert all(r["eigfun_variance"] is not None for r in rows[True])

    @pytest.mark.parametrize("raw", [
        {**cli.recipe_config("torus-synth"), "analysis": {"basics": [0.97624]}},
        {**rotation_config("unused"), "analysis": {"basics": [np.pi / 4, 1.0]}},
    ], ids=["torus-one-basic", "circle-two-basics"])
    def test_basics_count_other_than_angle_count_leaves_variance_blank(self, tmp_path, raw):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "frequency_table.csv").read_text().splitlines()
        assert lines[0].endswith(",eigfun_variance") and len(lines) > 1
        assert all(line.endswith(",") for line in lines[1:])
        run = json.loads((tmp_path / "out" / "run.json").read_text())
        assert "frequency_table.csv" in run["outputs"]

    def test_vdp_phase_pairs_lead_with_positive_member(self, tmp_path):
        raw = cli.recipe_config("vdp-phase")
        raw["output_dir"] = str(tmp_path / "vdp")
        # The old cut keeps 81 modes, so at least 40 pairs to check (54 modes
        # at the default).
        raw["dmd"] = {"svd_threshold": 1e-12}
        vals = cli.execute(cli.parse_config(raw, recipe="vdp-phase")).dmd_result.eigenvalues
        j, pairs = 0, 0
        while j < vals.size:
            if vals[j].imag == 0.0:
                j += 1
                continue
            assert vals[j].imag > 0 and vals[j + 1] == np.conj(vals[j]), j
            j, pairs = j + 2, pairs + 1
        assert pairs >= 40

    def test_run_json_reports_the_forward_error(self, tmp_path):
        # vdp-phase keeps 54 triplets at the default cut (81 at 1e-12);
        # run.json reports eps * sigma_0 / sigma_k of them, 1.9e-8.
        raw = cli.recipe_config("vdp-phase")
        raw["output_dir"] = str(tmp_path / "vdp")
        result = cli.execute(cli.parse_config(raw, recipe="vdp-phase"))
        meta = json.loads((tmp_path / "vdp" / "run.json").read_text())["dmd"]
        s = result.pod_result.singular_values
        assert meta["svd_threshold"] == linalg.TRUNCATION_TOL
        assert meta["rank_kept"] == result.pod_result.k == 54
        assert meta["forward_error"] == result.dmd_result.forward_error
        assert_allclose(meta["forward_error"], np.finfo(float).eps * s[0] / s[-1], rtol=1e-12)
        assert 1e-8 < meta["forward_error"] < np.finfo(float).eps / linalg.TRUNCATION_TOL


class TestOneComputationPerValue:
    def test_observe_and_dominant_run_once(self, tmp_path, monkeypatch, capsys):
        raw = rotation_config(tmp_path / "out")
        raw["system"]["z0"] = [[0.0], [0.5]]
        raw["embedding"]["interleave"] = True
        raw["observables"] = [{"kind": "cos_angle"}, {"kind": "custom", "expression": "sin(z1)"}]
        raw["analysis"]["export_phase"] = True
        observed, dominant = [], []
        observe, dominant_nontrivial = systems.observe, analysis.dominant_nontrivial

        def counting_observe(traj, obs):
            observed.append(obs.label)
            return observe(traj, obs)

        def counting_dominant(*args):
            dominant.append(dominant_nontrivial(*args))
            return dominant[-1]

        monkeypatch.setattr(systems, "observe", counting_observe)
        monkeypatch.setattr(analysis, "dominant_nontrivial", counting_dominant)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["run", str(path)]) == 0
        assert sorted(observed) == ["cos_z1", "cos_z1", "sin(z1)", "sin(z1)"]
        assert len(dominant) == 1 and dominant[0] is not None
        assert (tmp_path / "out" / "phase.csv").exists()
        assert "dominant nontrivial frequency: 0.785398 rad/s" in capsys.readouterr().out

    @pytest.mark.parametrize("name, reader", [("vdp-phase", "phase.csv"),
                                              ("rotation-check", "frequency_table.csv")])
    def test_modes_are_formed_once(self, tmp_path, monkeypatch, name, reader):
        # modes.npy and the analysis that reads the modes (phase.csv of the
        # dominant mode, the eigenfunction variances of the frequency
        # table) share the one array that the decomposition forms.
        calls = []
        formed = dmd._projected_modes

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return formed(*args, **kwargs)

        monkeypatch.setattr(dmd, "_projected_modes", counting)
        raw = cli.recipe_config(name)
        raw["output_dir"] = str(tmp_path / "out")
        result = cli.execute(cli.parse_config(raw, recipe=name))
        assert {"modes.npy", reader} <= set(result.outputs)
        assert len(calls) == 1


def count_svd_calls(monkeypatch) -> list:
    calls = []
    svd = linalg.svd

    def counting(x, *args, **kwargs):
        calls.append(np.shape(x))
        return svd(x, *args, **kwargs)

    monkeypatch.setattr(linalg, "svd", counting)
    return calls


class TestSharedFactorization:
    def test_single_block_is_factored_once(self, tmp_path, monkeypatch):
        calls = count_svd_calls(monkeypatch)
        result = cli.execute(cli.parse_config(rotation_config(tmp_path)))
        assert calls == [result.data.X.shape]
        assert result.pod_result.k == result.dmd_result.rank_kept == 2

    @pytest.mark.parametrize("algorithm,extra", [
        ("hankel", {}), ("hankel", {"svd_threshold": 0.0}), ("exact", {"svd_threshold": 0.5}),
        ("svd", {}), ("companion", {}),
    ])
    def test_shared_factors_keep_what_pod_or_dmd_keeps(self, tmp_path, monkeypatch,
                                                       algorithm, extra):
        widths = []
        svd = linalg.svd

        def recording(x, *args, **kwargs):
            r = svd(x, *args, **kwargs)
            widths.append(r.W.shape[1])
            return r

        monkeypatch.setattr(linalg, "svd", recording)
        n = {"svd": 1, "companion": 2}.get(algorithm, 8)  # full column rank for these
        raw = rotation_config(tmp_path, n=n, algorithm=algorithm, **extra)
        result = cli.execute(cli.parse_config(raw))
        pod_k, dmd_k = result.pod_result.k, result.dmd_result.rank_kept
        want = {"svd": n + 1, "companion": pod_k}.get(algorithm, max(pod_k, dmd_k))
        assert widths[0] == want

    def test_three_block_composite_keeps_two_factorizations(self, tmp_path, monkeypatch):
        raw = {
            "output_dir": str(tmp_path),
            "system": {"kind": "torus", "omega1": 0.97624, "omega2": 0.60892,
                       "z0": [0.1, 0.2], "dt": 1.0, "steps": 200},
            "observables": [{"kind": "cos_angle", "index": 0},
                            {"kind": "cos_angle", "index": 1},
                            {"kind": "custom", "expression": "cos(z1 - z2)"}],
            "embedding": {"m": 150, "n": 20},
            "dmd": {"algorithm": "exact", "threshold_mode": "rel"},
        }
        calls = count_svd_calls(monkeypatch)
        result = cli.execute(cli.parse_config(raw))
        assert calls == [result.data.X.shape, result.blocks[0].H.shape]
        assert result.data.X.shape == (150, 63)

    def test_pod_basis_is_the_shared_w(self, tmp_path, monkeypatch):
        # POD holds a view of the one W, and POD and DMD leave it untouched.
        factors, before = [], []
        svd = linalg.svd

        def recording(x, *args, **kwargs):
            factors.append(svd(x, *args, **kwargs))
            before.append(factors[-1].W.copy())
            return factors[-1]

        monkeypatch.setattr(linalg, "svd", recording)
        result = cli.execute(cli.parse_config(rotation_config(tmp_path)))
        assert len(factors) == 1
        w = factors[0].W
        assert np.shares_memory(result.pod_result.W, w)
        assert np.array_equal(w, before[0]) and not w.flags.writeable
        assert np.array_equal(result.dmd_result.modes, dmd.hankel_dmd(result.data).modes)

    def test_run_modes_fit_under_the_svd_peak_and_keep_w(self, tmp_path):
        # A lorenz-pod run grows its peak RSS past the shared SVD by less
        # than 5% of an m x k complex array (it reads 1.1-1.3%): with k <=
        # (n + 1) / 2 the mode array fits in what the SVD's copy of H freed.
        # The run leaves W as the SVD returned it. Measured in a forked
        # child of a fresh process, whose ru_maxrss is its own.
        script = f"""
import hashlib, resource, sys
from koopdmd import cli, linalg
unit = 1 if sys.platform == "darwin" else 1024
svd, seen = linalg.svd, {{}}
def recording(x, rank=None):
    r = svd(x, rank)
    seen["peak"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    seen["W"], seen["digest"] = r.W, hashlib.sha256(r.W).digest()
    return r
linalg.svd = recording
raw = cli.recipe_config("lorenz-pod")
raw["output_dir"] = {str(tmp_path)!r}
result = cli.execute(cli.parse_config(raw, "lorenz-pod"))
grown = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - seen["peak"]) * unit
m, k = result.data.X.shape[0], result.dmd_result.rank_kept
print(grown / (16 * m * k), hashlib.sha256(seen["W"]).digest() == seen["digest"])
"""
        grown, unchanged = run_fresh(script, forked=True).split()
        assert float(grown) <= 0.05
        assert unchanged == "True"


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs to compare against one")
def test_bytes_do_not_depend_on_the_cpu_count(tmp_path):
    # lorenz-pod shortened to m = 2000 and n = 100, in fresh processes bound
    # to one CPU and to all of them: the threads that form W and write the
    # matrices share one CPU or run side by side.
    raw = cli.recipe_config("lorenz-pod")
    raw["system"]["steps"] = raw["system"]["skip"] + 2100
    raw["embedding"] = {"m": 2000, "n": 100}
    config = tmp_path / "lorenz.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    cpus = sorted(os.sched_getaffinity(0))
    for name, allowed in [("one", cpus[:1]), ("all", cpus)]:
        run_fresh(f"""
import os
from koopdmd import cli
os.sched_setaffinity(0, {allowed!r})
raise SystemExit(cli.main(["run", {str(config)!r}, "--out", {str(tmp_path / name)!r}]))
""")
    one, every = tmp_path / "one", tmp_path / "all"
    for artifact in ("modes.npy", "pod_basis.npy", "dmd.json"):
        assert (one / artifact).read_bytes() == (every / artifact).read_bytes(), artifact


class TestRerun:
    """A rerun into the same directory deletes the files that the previous
    run.json listed and the new run did not write, and nothing else."""

    @staticmethod
    def names(directory):
        return sorted(p.name for p in directory.iterdir())

    @staticmethod
    def old_run(out, listed):
        out.mkdir()
        for name in listed:
            (out / name).write_text("old\n")
        (out / "run.json").write_text(json.dumps({"outputs": listed + ["run.json"]}))

    def test_export_phase_rerun_leaves_no_phase_csv(self, tmp_path):
        raw = cli.recipe_config("vdp-phase")
        raw["output_dir"] = str(tmp_path / "out")
        cli.execute(cli.parse_config(raw, recipe="vdp-phase"))
        assert (tmp_path / "out" / "phase.csv").exists()
        raw["analysis"]["export_phase"] = False
        result = cli.execute(cli.parse_config(raw, recipe="vdp-phase"))
        assert self.names(tmp_path / "out") == sorted(result.outputs)
        assert "phase.csv" not in result.outputs

    def test_csv_matrices_of_an_older_run_go(self, tmp_path):
        out = tmp_path / "out"
        old = ["modes.csv", "pod_basis.csv", "pod_coords.csv", "series_1.csv", "series_2.csv",
               "notes.txt"]
        self.old_run(out, old)
        (out / "foreign.csv").write_text("kept\n")
        result = cli.execute(cli.parse_config(rotation_config(out)))
        assert self.names(out) == sorted(result.outputs + ["notes.txt", "foreign.csv"])
        assert (out / "notes.txt").read_text() == "old\n"
        assert (out / "series_1.csv").read_text() != "old\n"  # rewritten, not deleted

    @pytest.mark.parametrize("listed", ["../x", "ABS", "sub/modes.csv", "../out/modes.csv",
                                        "modes.csv/", "series_0.csv"])
    def test_no_path_outside_the_plain_names_is_deleted(self, tmp_path, listed):
        out = tmp_path / "out"
        out.mkdir()
        (out / "sub").mkdir()
        for path in (tmp_path / "x", out / "sub" / "modes.csv", out / "modes.csv",
                     out / "series_0.csv"):
            path.write_text("kept\n")
        name = str(tmp_path / "x") if listed == "ABS" else listed
        (out / "run.json").write_text(json.dumps({"outputs": [name]}))
        cli.execute(cli.parse_config(rotation_config(out)))
        assert (tmp_path / "x").exists() and (out / "sub" / "modes.csv").exists()
        assert (out / "modes.csv").exists() and (out / "series_0.csv").exists()

    @pytest.mark.parametrize("text", ["{", "[1]", '{"outputs": "modes.csv"}',
                                      '{"outputs": [1, "modes.csv"]}', "\udcff"])
    def test_a_run_json_that_does_not_parse_is_ignored(self, tmp_path, text):
        out = tmp_path / "out"
        self.old_run(out, ["modes.csv"])
        (out / "run.json").write_text(text, errors="surrogateescape")
        result = cli.execute(cli.parse_config(rotation_config(out)))
        assert self.names(out) == sorted(result.outputs + ["modes.csv"])

    def test_a_failed_run_deletes_nothing(self, tmp_path):
        out = tmp_path / "out"
        self.old_run(out, ["modes.csv", "phase.csv"])
        with pytest.raises(DecompositionError):
            cli.execute(cli.parse_config(rotation_config(out, svd_threshold=2.0)))
        assert (out / "modes.csv").exists() and (out / "phase.csv").exists()


class TestMain:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert "0.1.0" in capsys.readouterr().out

    def test_recipes_listing(self, capsys):
        assert cli.main(["recipes"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "equivalence-suite    companion/svd/exact agreement on seeded linear systems",
            "lorenz-pod           Lorenz first-coordinate Hankel POD (m=10000, n=500)",
            "rotation-check       circle rotation eigenvalue check (omega = pi/4)",
            "torus-synth          synthetic two-frequency quasi-periodic signal, lattice recovery",
            "vdp-phase            Van der Pol asymptotic phase from two interleaved trajectories",
        ]

    def test_run_config_file(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(rotation_config(tmp_path / "out")))
        assert cli.main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "dominant" in out

    def test_unknown_recipe_exits_2(self, capsys):
        assert cli.main(["run", "no-such-recipe"]) == 2
        assert "recipe" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"output_dir": }')
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "bad.json:1:" in err and "invalid JSON" in err

    MALFORMED_CONFIGS = {
        "invalid_utf8": b'{"output_dir": "\xff"}',
        "long_integer": b"1" * 5000,  # beyond Python's int digit limit
        "deep_arrays": b"[" * 100_000,
        "deep_objects": b'{"a": ' * 3000 + b"1" + b"}" * 3000,
    }

    @pytest.mark.parametrize("name, code", [("directory", 4), ("invalid_utf8", 2),
                                            ("long_integer", 2), ("deep_arrays", 2),
                                            ("deep_objects", 2)])
    def test_malformed_config_file_is_one_line(self, tmp_path, capsys, name, code):
        path = tmp_path / name
        if name == "directory":
            path.mkdir()
        else:
            path.write_bytes(self.MALFORMED_CONFIGS[name])
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and str(path) in err
        assert err.startswith("config error:" if code == 2 else "i/o error:")
        assert not out.exists()

    def test_config_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(rotation_config(tmp_path / "out", m=60, n=8, steps=30)))
        assert cli.main(["run", str(path)]) == 2

    @staticmethod
    def poison_last_mode_row(monkeypatch) -> None:
        """Make _projected_modes return a nan in the last row of the modes,
        and write them in two blocks of 80 rows."""
        formed = dmd._projected_modes

        def poisoned(w, eigenvalues, vecs):
            modes = formed(w, eigenvalues, vecs)
            modes[-1, 0] = complex(np.nan, 0.0)
            return modes

        monkeypatch.setattr(dmd, "_projected_modes", poisoned)
        monkeypatch.setattr(ioutil, "BLOCK_ROWS", 100)

    def test_non_finite_mode_row_is_one_line(self, tmp_path, capsys, monkeypatch):
        # The .npy writer checks the modes block by block: a non-finite one
        # in the last block, after the first block was written, still exits
        # 2 with one line and leaves neither modes.npy nor a temp file.
        # Without analysis, the writer is the first to read the modes.
        self.poison_last_mode_row(monkeypatch)
        raw = rotation_config(tmp_path / "out", m=160)
        raw["analysis"] = None
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["run", str(path)]) == 2
        assert capsys.readouterr().err == "config error: refusing to serialize non-finite value nan\n"
        left = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert "modes.npy" not in left and "pod_basis.npy" in left
        assert not [name for name in left if name.endswith(".tmp")]

    def test_non_finite_mode_row_met_by_analysis_writes_nothing(self, tmp_path, capsys,
                                                                monkeypatch):
        # With analysis.basics, the frequency table's eigenfunction samples
        # read the modes before any file is written: the same poisoned row
        # is refused there, and no output directory is made.
        self.poison_last_mode_row(monkeypatch)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(rotation_config(tmp_path / "out", m=160)))
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: computed samples contain non-finite entries\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("expression, sample", [("log(z1 - 10)", 0), ("log(1 - z1)", 2)])
    def test_non_finite_observable_is_one_named_line(self, tmp_path, capsys, expression, sample):
        raw = rotation_config(tmp_path / "out")
        raw["observables"] = [{"kind": "cos_angle"}, {"kind": "custom", "expression": expression}]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would print lines of its own
            assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: observables[1]: '{expression}' is not finite "
                              f"at sample {sample}")
        assert len(err.splitlines()) == 1, err
        assert not (tmp_path / "out").exists()

    def test_zero_observable_exits_3(self, tmp_path, capsys):
        raw = rotation_config(tmp_path / "out")
        raw["observables"] = [{"kind": "custom", "expression": "0*z1"}]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["run", str(path)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: Hankel block is identically zero; nothing to decompose\n")

    @pytest.mark.parametrize("algorithm", dmd.ALGORITHMS)
    def test_zero_observable_exits_3_under_every_algorithm(self, tmp_path, capsys, algorithm):
        # A zero block is refused wherever it sits, before it is scaled or
        # factored and before the output directory exists. Companion takes
        # one block only.
        zero, other = {"kind": "custom", "expression": "0*z1"}, {"kind": "cos_angle"}
        placements = {"alone": [zero], "first": [zero, other], "second": [other, zero]}
        if algorithm == "companion":
            placements = {"alone": [zero]}
        for where, observables in placements.items():
            raw = rotation_config(tmp_path / where, algorithm=algorithm)
            raw["observables"] = observables
            path = tmp_path / f"{where}.json"
            path.write_text(json.dumps(raw))
            assert cli.main(["run", str(path)]) == 3, where
            assert capsys.readouterr().err == (
                "numerical failure: Hankel block is identically zero; nothing to decompose\n")
            assert not (tmp_path / where).exists(), where

    def test_expression_with_a_line_break(self, tmp_path):
        raw = rotation_config(tmp_path / "out")
        raw["observables"] = [{"kind": "custom", "expression": "(cos(z1)\n+ 1)"}]
        cli.execute(cli.parse_config(raw))
        back = embed.read_timeseries_csv(tmp_path / "out" / "series_1.csv")
        assert back[0].label == "(cos(z1);+ 1)"

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        raw = rotation_config(tmp_path / "out", m=40, n=10, algorithm="companion")
        raw["observables"] = [{"kind": "custom", "expression": "0*z1 + 1"}]
        del raw["analysis"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["run", str(path)]) == 3
        err = capsys.readouterr().err
        assert "rank deficient" in err

    def test_out_of_memory_exits_5(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(linalg, "svd", exhausted)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(rotation_config(tmp_path / "out")))
        assert cli.main(["run", str(path)]) == 5
        assert capsys.readouterr().err == (
            "out of memory: the run needs more memory than is free; "
            "lower embedding.m, embedding.n or system.steps\n")

    def test_lstsq_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

        monkeypatch.setattr(np.linalg, "lstsq", fail)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(rotation_config(tmp_path / "out")))
        assert cli.main(["run", str(path)]) == 3
        assert "least squares" in capsys.readouterr().err

    def test_unwritable_output_exits_4(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        assert cli.main(["run", "rotation-check", "--out", str(blocker / "x")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and len(err.strip().splitlines()) == 1

    def test_unreadable_csv_exits_4(self, tmp_path, capsys):
        raw = {"output_dir": str(tmp_path / "out"), "csv": str(tmp_path),
               "embedding": {"m": 10, "n": 4}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["run", str(path)]) == 4
        assert capsys.readouterr().err.startswith("i/o error:")

    def test_threshold_keys_reach_run_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        raw = rotation_config(tmp_path / "out", svd_threshold=1e-2, threshold_mode="rel")
        path.write_text(json.dumps(raw))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "other")]) == 0
        meta = json.loads((tmp_path / "other" / "run.json").read_text())
        assert meta["dmd"]["svd_threshold"] == 0.01
        assert meta["dmd"]["threshold_mode"] == "rel"

    @pytest.mark.parametrize("flags", [("--threshold", "1e-3"), ("--threshold-mode", "rel"),
                                       ("--no-such-option", "1")])
    def test_threshold_flags_are_unknown_options(self, tmp_path, monkeypatch, capsys, flags):
        # The dmd section alone sets the truncation.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "rotation-check", *flags])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_seed_override_changes_suite(self, tmp_path):
        raw = {"output_dir": str(tmp_path / "s"), "suite": {"count": 2}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["run", str(path), "--seed", "11"]) == 0
        report = json.loads((tmp_path / "s" / "equivalence.json").read_text())
        assert [p["seed"] for p in report["per_seed"]] == [11, 12]

    def test_empty_out_is_refused(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", "rotation-check", "--out", ""]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: output_dir") and len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    def test_negative_suite_seed_is_refused(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", "equivalence-suite", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: suite.seed_base") and len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("section, field", [
        ("embedding", "m"), ("embedding", "n"), ("embedding", "stride"), ("analysis", "K"),
        ("suite", "count"), ("suite", "dim"), ("suite", "seed_base"),
        ("system", "skip"), ("system", "seed"), ("system", "steps"),
        ("observables[0]", "index"), ("observables[0]", "indices"),
    ])
    def test_boolean_is_not_an_integer(self, tmp_path, capsys, section, field):
        raw = rotation_config(tmp_path / "out")
        if section == "suite":
            raw = {"output_dir": str(tmp_path / "out"), "suite": {"count": 2}}
        if section == "observables[0]":
            kind = "sum" if field == "indices" else "cos_angle"
            raw["observables"] = [{"kind": kind, field: [True] if field == "indices" else True}]
        else:
            raw[section][field] = True
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["run", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {section}.{field}:")
        assert not (tmp_path / "out").exists()

    def test_phase_export_needs_a_system(self, tmp_path, capsys):
        csv = tmp_path / "f.csv"
        csv.write_text("t,f\n" + "".join(f"{i},{np.cos(i)}\n" for i in range(40)))
        raw = {"output_dir": str(tmp_path / "out"), "csv": str(csv),
               "embedding": {"m": 20, "n": 4}, "analysis": {"export_phase": True}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: analysis.export_phase: needs a system source\n"
        assert not (tmp_path / "out").exists()

    def test_phase_export_without_a_nontrivial_mode(self, tmp_path, capsys):
        raw = rotation_config(tmp_path / "out")
        raw["system"]["omega"] = 0.001
        raw["analysis"]["export_phase"] = True
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["run", str(path)]) == 0
        reason = "no eigenvalue has |omega| >= 0.01 rad/s"
        assert capsys.readouterr().err == f"warning: phase.csv not written: {reason}\n"
        assert json.loads((tmp_path / "out" / "run.json").read_text())["phase_skipped"] == reason
        assert not (tmp_path / "out" / "phase.csv").exists()

    def test_non_finite_threshold_is_refused(self, tmp_path, capsys):
        raw = cli.recipe_config("rotation-check")
        raw["dmd"] = {"svd_threshold": float("nan")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))  # json writes and reads NaN
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: dmd.svd_threshold:")
        assert not (tmp_path / "out").exists()

    def test_seed_override_sets_lorenz_start(self, monkeypatch):
        runs = []

        def record(cfg):
            runs.append(cfg)
            return cli.RunResult(config=cfg, output_dir=Path(cfg.output_dir), outputs=[])

        monkeypatch.setattr(cli, "execute", record)
        assert cli.main(["run", "lorenz-pod", "--seed", "5"]) == 0
        (spec,) = runs[0].system.specs
        assert np.array_equal(spec.z0, systems.lorenz_initial_state(5))

    def test_csv_shorter_than_window_exits_2(self, tmp_path, capsys):
        csv = tmp_path / "short.csv"
        csv.write_text("t,f\n" + "".join(f"{i},{np.cos(i)}\n" for i in range(14)))
        raw = {"output_dir": str(tmp_path / "out"), "csv": str(csv),
               "embedding": {"m": 10, "n": 4}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["run", str(path)]) == 2  # m + n + 1 = 15 samples needed
        err = capsys.readouterr().err
        assert err.startswith("config error:") and len(err.splitlines()) == 1
