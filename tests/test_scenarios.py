import configparser
import importlib
import json
import importlib.util
import os
import re
import string
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from rhflab.cli import main
from rhflab.containers import (
    FORMAT_VERSION,
    dump_json,
    load_json,
    load_orbitals,
    read_csv,
    read_orbital_header,
    save_orbitals,
)
import rhflab
from rhflab import propagate, runner, scenarios
from rhflab.grids import Grid
from rhflab.krylov import KrylovError
from rhflab.orbitals import OrbitalSet, fermi_sea
from rhflab.runner import SWEEP_AXES, run, sweep
from rhflab.diagnostics import PHASE_SAMPLE_COUNT
from rhflab.scenarios import ScenarioError, load_scenario, parse_scenario
from rhflab import scf
from rhflab.scf import DENSE_SIZE_CAP, hf_energy

from reference_orbitals import random_orbital_set

SMOKE = "scenarios/smoke_1d.ini"
REPO = Path(__file__).resolve().parents[1]

# A phase-space container, a format no run writes: magic "WGNR" (Wigner) or
# "VLSV" (Vlasov), version u32, dim u32, n_x u32, n_v u32, L f64, epsilon f64,
# then n_x·n_v float64 values (x-major, C order), all little-endian.
_FIELD_HEADER = struct.Struct("<4sIIIIdd")
WIGNER_MAGIC = b"WGNR"
VLASOV_MAGIC = b"VLSV"


def save_phase_field(path, values: np.ndarray, box_length: float, epsilon: float,
                     magic: bytes = WIGNER_MAGIC) -> None:
    if magic not in (WIGNER_MAGIC, VLASOV_MAGIC):
        raise ValueError(f"unknown phase-field magic {magic!r}")
    n_x, n_v = values.shape
    header = _FIELD_HEADER.pack(magic, FORMAT_VERSION, 1, n_x, n_v, box_length, epsilon)
    Path(path).write_bytes(header + np.ascontiguousarray(values).astype("<f8").tobytes())


def read_phase_field_header(path) -> dict:
    raw = Path(path).read_bytes()
    if len(raw) < _FIELD_HEADER.size:
        raise ValueError(f"{path}: truncated container")
    magic, version, dim, n_x, n_v, length, eps = _FIELD_HEADER.unpack_from(raw)
    if magic not in (WIGNER_MAGIC, VLASOV_MAGIC):
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    return {
        "magic": magic.decode(), "version": version, "dim": dim,
        "n_x": n_x, "n_v": n_v, "box_length": length, "epsilon": eps,
    }


def load_phase_field(path) -> tuple[dict, np.ndarray]:
    head = read_phase_field_header(path)
    raw = Path(path).read_bytes()[_FIELD_HEADER.size:]
    count = head["n_x"] * head["n_v"]
    values = np.frombuffer(raw, dtype="<f8", count=count).reshape(head["n_x"], head["n_v"])
    return head, values.copy()


def smoke_text(overrides=None, drop=()):
    base = {
        ("scenario", "name"): "t",
        ("grid", "dim"): 1,
        ("grid", "points_per_dim"): 32,
        ("grid", "box_length"): 12.566370614359172,
        ("model", "n_particles"): 2,
        ("potential", "kernel"): "gaussian",
        ("potential", "coupling"): 0.5,
        ("preparation", "kind"): "fermi_sea",
        ("evolution", "dt"): 0.002,
        ("evolution", "t_final"): 0.01,
    }
    base.update(overrides or {})
    for item in drop:
        base.pop(item, None)
    sections = {}
    for (sec, key), val in base.items():
        sections.setdefault(sec, []).append((key, val))
    out = []
    for sec, items in sections.items():
        out.append(f"[{sec}]")
        for key, val in items:
            out.append(f"{key} = {val}")
    return "\n".join(out)


def reference_collect_metrics(sub_dir, base, axis, token) -> list:
    """A sweep sub-run's end-time metrics read back from its artifacts.

    The form sweep used before run() returned them; sweep.csv must match it.
    """
    nan = float("nan")
    energy_drift = comm_x = comm_grad = comm_x_neps = growth_c_big = growth_c = nan
    min_margin = nan
    cons_path = sub_dir / "checks" / "conservation.json"
    if cons_path.exists():
        energy_drift = load_json(cons_path)["energy_drift_rel"]
    comm_path = sub_dir / "commutators.csv"
    if comm_path.exists():
        header, rows = read_csv(comm_path)
        if rows:
            last = {h: float(v) for h, v in zip(header, rows[-1])}
            comm_x = sum(v for h, v in last.items() if h.startswith("comm_x_"))
            comm_grad = sum(v for h, v in last.items() if h.startswith("comm_grad_"))
            section, key = SWEEP_AXES[axis]
            scen = base.with_value(section, key, token)
            neps = scen[("model", "n_particles")] * scen.epsilon()
            comm_x_neps = comm_x / neps
    fit_path = sub_dir / "growth_fit.json"
    if fit_path.exists():
        fit = load_json(fit_path)
        growth_c_big, growth_c = fit["C"], fit["c"]
    margins = []
    for name in ("exp_bound", "exchange_bound"):
        path = sub_dir / "checks" / f"{name}.json"
        if path.exists():
            for rep in load_json(path)["reports"]:
                margins.append(rep["min_margin"])
    if margins:
        min_margin = min(margins)
    return [energy_drift, comm_x, comm_grad, comm_x_neps, growth_c_big, growth_c,
            min_margin]


def assert_sweep_metrics_match_artifacts(out_root, scenario, axis):
    """sweep.csv's in-memory metrics equal the ones read back from each sub-run."""
    header, rows = read_csv(out_root / "sweep.csv")
    metric_cols = slice(header.index("exit_code") + 1, header.index("min_margin") + 1)
    for row in rows:
        token = row[header.index("value")]
        sub_dir = out_root / f"{axis}_{int(row[0]):02d}_{token}"
        written = np.array([float(v) for v in row[metric_cols]])
        expected = np.array(reference_collect_metrics(sub_dir, scenario, axis, token),
                            dtype=float)
        assert np.array_equal(written, expected, equal_nan=True), (token, written, expected)


def case(number: int, overrides: dict, expected: str):
    """A dict case of the refusal lists, with a fixed id.

    The id keeps the text pytest first derived from the case's list position,
    `overrides<number>-<expected>`; fixed, it stays when another case goes.
    """
    return pytest.param(overrides, expected, id=f"overrides{number}-{expected}")


# the float keys of the schema, each refused when not finite
FLOAT_FIELDS = (("grid", "box_length"), ("model", "epsilon"), ("model", "m0"),
                ("potential", "coupling"), ("potential", "width"),
                ("potential", "trap_strength"), ("preparation", "mixing"),
                ("preparation", "convergence_tol"), ("preparation", "boost_amplitude"),
                ("evolution", "dt"), ("evolution", "t_final"))

positive = st.floats(min_value=1e-6, max_value=1e6)
finite = st.floats(allow_nan=False, allow_infinity=False)
choice = lambda *options: st.sampled_from(options)
SCENARIO_VALUES = st.fixed_dictionaries({
    ("scenario", "name"): st.text(string.ascii_letters + string.digits + "_-", min_size=1,
                                  max_size=12),
    ("grid", "dim"): st.integers(1, 3),
    # every size from 2 to 512, the powers of two (the only valid ones) weighted up
    ("grid", "points_per_dim"): st.one_of(choice(*(2**k for k in range(1, 10))),
                                          st.integers(2, 512)),
    ("grid", "box_length"): positive,
    ("model", "n_particles"): st.integers(1, 64),
    ("model", "epsilon"): st.one_of(st.just("auto"), positive),
    ("model", "dispersion"): choice("relativistic", "nonrelativistic"),
    ("model", "m0"): positive,
    ("potential", "kernel"): choice("gaussian", "none"),
    ("potential", "coupling"): finite,
    ("potential", "width"): positive,
    ("potential", "trap"): choice("harmonic", "none"),
    ("potential", "trap_strength"): finite,
    ("preparation", "kind"): choice("scf", "fermi_sea", "boosted_fermi_sea"),
    ("preparation", "max_iterations"): st.integers(1, 1000),
    ("preparation", "mixing"): st.floats(0.01, 1.0),
    ("preparation", "convergence_tol"): positive,
    ("preparation", "boost_amplitude"): finite,
    ("preparation", "boost_mode"): st.integers(-8, 8),
    ("evolution", "scheme"): choice("exponential_midpoint", "rk4_frozen_field"),
    ("evolution", "dt"): positive,
    ("evolution", "exchange_on"): st.booleans(),
    ("evolution", "reortho_every"): st.integers(1, 100),
    ("evolution", "keep_trap"): st.booleans(),
    **{("diagnostics", key): st.integers(0, 50)
       for key in ("conservation", "commutators", "exp_bound", "exchange_bound",
                   "kinetic_ratio", "checkpoint")},
})


def refused_fields(values) -> list[str]:
    """What `Scenario.validate` refuses in drawn values the strategy can produce."""
    n, dim = values[("grid", "points_per_dim")], values[("grid", "dim")]
    kind = values[("preparation", "kind")]
    refused = []
    if n & (n - 1):
        refused.append("points_per_dim")
    if values[("model", "n_particles")] > n**dim:
        refused.append("n_particles")
    if kind == "boosted_fermi_sea" and values[("preparation", "boost_mode")] == 0:
        refused.append("boost_mode")
    if values[("diagnostics", "exp_bound")] > 0 and n <= PHASE_SAMPLE_COUNT:
        refused.append("exp_bound")
    if kind == "scf" and n**dim > DENSE_SIZE_CAP:
        refused.append("kind=scf")
    return refused


class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None)
    @given(values=SCENARIO_VALUES, n_steps=st.integers(0, 1000))
    def test_canonical_lines_reparse_to_the_same_hash(self, values, n_steps):
        values[("evolution", "t_final")] = n_steps * values[("evolution", "dt")]
        refused = refused_fields(values)
        if refused:
            # no valid scenario to round-trip: validation names a field it refuses
            with pytest.raises(ScenarioError, match="|".join(refused)):
                parse_scenario(smoke_text(values))
            return
        scenario = parse_scenario(smoke_text(values))
        pairs = (line.split("=", 1) for line in scenario.canonical_lines())
        again = parse_scenario(smoke_text({tuple(name.split(".", 1)): token
                                           for name, token in pairs}))
        assert again.config_hash() == scenario.config_hash()
        assert again.canonical_lines() == scenario.canonical_lines()

    @settings(max_examples=40, deadline=None)
    @given(dim=st.integers(1, 2), n=choice(2, 4, 8), n_particles=st.integers(1, 3),
           box_length=positive, epsilon=positive, data=st.data())
    def test_orbital_container_bytes_and_header(self, dim, n, n_particles, box_length,
                                                epsilon, data):
        grid = Grid(dim, n, box_length, epsilon)
        values = data.draw(arrays(np.complex128, (n_particles, *grid.shape)))
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.rhfs", Path(tmp) / "b.rhfs"
            save_orbitals(first, OrbitalSet(values, grid, validate=False))
            save_orbitals(second, load_orbitals(first))
            assert second.read_bytes() == first.read_bytes()
            assert read_orbital_header(second) == {
                "magic": "RHFS", "version": 1, "dim": dim, "n": n,
                "box_length": grid.box_length, "epsilon": grid.epsilon,
                "n_particles": n_particles,
            }

    @settings(max_examples=40, deadline=None)
    @given(magic=choice(WIGNER_MAGIC, VLASOV_MAGIC), box_length=positive, epsilon=positive,
           values=arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 8))))
    def test_phase_field_bytes_and_header(self, magic, box_length, epsilon, values):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.field", Path(tmp) / "b.field"
            save_phase_field(first, values, box_length, epsilon, magic=magic)
            head, back = load_phase_field(first)
            save_phase_field(second, back, head["box_length"], head["epsilon"],
                             magic=head["magic"].encode())
            assert second.read_bytes() == first.read_bytes()
            assert read_phase_field_header(second) == head == {
                "magic": magic.decode(), "version": 1, "dim": 1, "n_x": values.shape[0],
                "n_v": values.shape[1], "box_length": box_length, "epsilon": epsilon,
            }


class TestBenchmarkTargets:
    def test_tracer_targets_resolve(self):
        # a target the tracer cannot find is skipped and its per-layer metrics read 0
        spec = importlib.util.spec_from_file_location(
            "perfbench_tracer", REPO / "perfbench" / "tracer.py")
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        missing = [f"{home}.{func}" for home, funcs, _ in tracer.TARGETS.values()
                   for func in funcs
                   if not callable(getattr(importlib.import_module(home), func, None))]
        missing += [space for _, _, spaces in tracer.TARGETS.values()
                    for space in spaces or () if importlib.util.find_spec(space) is None]
        assert missing == []


class TestContainers:
    def test_orbital_round_trip(self, tmp_path, grid32):
        orbs = random_orbital_set(grid32, 3, seed=100)
        path = tmp_path / "state.rhfs"
        save_orbitals(path, orbs)
        head = read_orbital_header(path)
        assert head["magic"] == "RHFS"
        assert head["n_particles"] == 3
        assert head["epsilon"] == grid32.epsilon
        back = load_orbitals(path)
        assert np.array_equal(back.orbitals, orbs.orbitals)
        assert back.grid == grid32

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.rhfs"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            read_orbital_header(path)

    def test_short_data_section_refused(self, tmp_path, grid32):
        path = tmp_path / "state.rhfs"
        save_orbitals(path, random_orbital_set(grid32, 3, seed=102))
        path.write_bytes(path.read_bytes()[:-8])
        # the header alone is whole
        assert read_orbital_header(path)["n_particles"] == 3
        with pytest.raises(ValueError, match="truncated container"):
            load_orbitals(path)
        path.write_bytes(path.read_bytes()[:20])
        for read in (read_orbital_header, load_orbitals):
            with pytest.raises(ValueError, match="truncated container"):
                read(path)

    def test_json_floats_match_17_digit_form(self, tmp_path):
        # JSON floats were once passed through %.17g before json wrote their
        # repr; that round trip returns the same double, so the bytes agree
        def round17(obj):
            if isinstance(obj, (float, np.floating)):
                return float(format(float(obj), ".17g"))
            if isinstance(obj, dict):
                return {k: round17(v) for k, v in obj.items()}
            if isinstance(obj, (list, tuple, np.ndarray)):
                return [round17(v) for v in obj]
            return obj

        rng = np.random.default_rng(103)
        bits = rng.integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64)
        awkward = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                   0.1, 1 / 3, float("inf"), float("-inf"), float("nan")]
        payload = {"bits": bits, "awkward": awkward,
                   "float32": [np.float32(0.1), np.float32(1 / 3), np.float32(-1e-45),
                               np.float32(3.4028235e38)],
                   "scalar": np.float64(2.0 / 3.0)}
        dump_json(tmp_path / "report.json", payload)
        old = json.dumps(round17(payload), sort_keys=True, indent=2) + "\n"
        # compared as one flag: a diff of the 20 000 lines would take minutes
        same = (tmp_path / "report.json").read_text() == old
        assert same

    def test_phase_field_round_trip(self, tmp_path):
        rng = np.random.default_rng(101)
        values = rng.standard_normal((16, 8))
        path = tmp_path / "field.vlsv"
        save_phase_field(path, values, 2.0 * np.pi, 0.5, magic=VLASOV_MAGIC)
        head, back = load_phase_field(path)
        assert head["magic"] == "VLSV"
        assert np.array_equal(back, values)
        wpath = tmp_path / "field.wgnr"
        save_phase_field(wpath, values, 2.0 * np.pi, 0.5)
        head, back = load_phase_field(wpath)
        assert head["magic"] == "WGNR"
        assert np.array_equal(back, values)


class TestScenarioParse:
    def test_shipped_scenarios_parse(self):
        for name in ("reference_1d", "free_fermi_sea", "smoke_1d"):
            scenario = load_scenario(f"scenarios/{name}.ini")
            assert scenario.name == name

    def test_epsilon_auto_rule(self):
        scenario = load_scenario(SMOKE)
        assert scenario.epsilon() == 0.25  # N=4 in 1D

    def test_unknown_key_rejected(self):
        text = smoke_text({("grid", "spacing"): 1})
        with pytest.raises(ScenarioError, match="spacing"):
            parse_scenario(text)

    def test_unknown_section_rejected(self):
        text = smoke_text() + "\n[plotting]\ncolor = red\n"
        with pytest.raises(ScenarioError, match="plotting"):
            parse_scenario(text)

    def test_missing_n_particles_names_field(self):
        text = smoke_text(drop=[("model", "n_particles")])
        with pytest.raises(ScenarioError, match="n_particles"):
            parse_scenario(text)

    def test_bad_value_names_field(self):
        with pytest.raises(ScenarioError, match=r"\[evolution\] dt"):
            parse_scenario(smoke_text({("evolution", "dt"): "tiny"}))

    def test_float_fields_are_the_schema_floats(self):
        floats = {(section, key) for section, keys in scenarios._SCHEMA.items()
                  for key, (parser, _, _) in keys.items()
                  if parser in (scenarios._parse_float, scenarios._parse_epsilon)}
        assert floats == set(FLOAT_FIELDS)

    def test_formats_doc_lists_the_schema(self):
        # the key table of docs/FORMATS.md: one row per schema key, and a key
        # with choices lists exactly those choices in its notes
        text = (REPO / "docs" / "FORMATS.md").read_text()
        section = text.split("## Scenario files")[1].split("\n## ")[0]
        rows = {}
        for line in section.splitlines():
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if line.startswith("|") and len(cells) == 5 and cells[0] not in ("section", "---"):
                assert (cells[0], cells[1]) not in rows, line
                rows[cells[0], cells[1]] = cells[4]
        assert set(rows) == {(section, key) for section, keys in scenarios._SCHEMA.items()
                             for key in keys}
        for field, choices in scenarios._CHOICES.items():
            assert set(re.split(r",\s*|\s+or\s+", rows[field])) == set(choices), field

    def test_t_final_not_a_multiple_of_dt_rejected(self):
        with pytest.raises(ScenarioError, match="whole number of steps"):
            parse_scenario(smoke_text({("evolution", "t_final"): 0.005}))

    def test_scf_above_dense_cap_rejected(self):
        big = {("grid", "dim"): 2, ("grid", "points_per_dim"): 128,
               ("preparation", "kind"): "scf"}
        with pytest.raises(ScenarioError, match="kind=scf"):
            parse_scenario(smoke_text(big))
        # the FFT-path preparations have no such cap
        parse_scenario(smoke_text({**big, ("preparation", "kind"): "fermi_sea"}))

    def test_hash_changes_iff_config_changes(self):
        a = parse_scenario(smoke_text())
        b = parse_scenario(smoke_text())
        assert a.config_hash() == b.config_hash()
        c = parse_scenario(smoke_text({("potential", "coupling"): 0.7}))
        assert c.config_hash() != a.config_hash()

    def test_boosted_sea_preparation(self, tmp_path):
        from rhflab.runner import run

        text = smoke_text({("preparation", "kind"): "boosted_fermi_sea",
                           ("preparation", "boost_amplitude"): 0.3,
                           ("model", "n_particles"): 3,
                           ("evolution", "t_final"): 0.004})
        result = run(parse_scenario(text), tmp_path / "out")
        assert result.exit_code == 0


class TestRunner:
    def test_free_fermi_sea_passes(self, tmp_path):
        scenario = load_scenario("scenarios/free_fermi_sea.ini")
        result = run(scenario, tmp_path / "out")
        assert result.exit_code == 0
        assert result.manifest["status"] == "ok"
        # stationary state: every commutator channel constant
        header, rows = read_csv(tmp_path / "out" / "commutators.csv")
        for col in range(1, len(header)):
            vals = [float(r[col]) for r in rows]
            assert max(vals) - min(vals) <= 1e-8
        cons = load_json(tmp_path / "out" / "checks" / "conservation.json")
        assert cons["energy_drift_rel"] <= 1e-9
        assert cons["trace_constant"]

    def test_smoke_run_artifacts(self, tmp_path):
        scenario = load_scenario(SMOKE)
        result = run(scenario, tmp_path / "out")
        assert result.exit_code == 0
        assert result.manifest["checks"]["scf_converged"] is True
        out = tmp_path / "out"
        for name in ("initial_state.rhfs", "final_state.rhfs", "manifest.json",
                     "scf_trace.csv", "conservation.csv", "commutators.csv"):
            assert (out / name).exists(), name
        assert (out / "checks" / "exp_bound.json").exists()
        assert (out / "checkpoints").is_dir()
        sidecar = (out / "final_state.rhfs.meta.txt").read_text()
        assert result.manifest["config_hash"] in sidecar

    def test_dt_above_cap_warns_once(self, tmp_path):
        text = smoke_text({("evolution", "dt"): 0.05, ("evolution", "t_final"): 0.1})
        result = run(parse_scenario(text), tmp_path / "out")
        capped = [w for w in result.manifest["warnings"] if "cap" in w]
        assert len(capped) == 1
        assert "exceeds the suggested cap" in capped[0]

    def test_manifest_records_scipy_and_blas_threads(self, tmp_path, monkeypatch):
        import scipy

        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        run(load_scenario(SMOKE), tmp_path / "out")
        versions = load_json(tmp_path / "out" / "manifest.json")["versions"]
        assert versions["scipy"] == scipy.__version__
        assert versions["threads"]["OPENBLAS_NUM_THREADS"] == "1"
        assert versions["threads"]["MKL_NUM_THREADS"] is None
        assert set(versions["threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                            "MKL_NUM_THREADS"}

    def test_unconverged_scf_fails_run(self, tmp_path):
        text = smoke_text({
            ("potential", "trap"): "harmonic",
            ("preparation", "kind"): "scf",
            ("preparation", "max_iterations"): 1,
        })
        result = run(parse_scenario(text), tmp_path / "out")
        assert result.manifest["preparation"]["converged"] is False
        assert result.manifest["checks"]["scf_converged"] is False
        assert result.manifest["status"] == "failed"
        assert result.exit_code == 1
        manifest = load_json(tmp_path / "out" / "manifest.json")
        assert manifest["checks"]["scf_converged"] is False

    def test_dense_run_conservation_reads_the_evolution_mean_field(self, tmp_path,
                                                                     monkeypatch):
        # the runner builds the evolution's dense MeanField before t = 0; the
        # SCF builds K and V(x_i - x_j) once, the evolution once, and every
        # conservation sample is hf_energy of the sampled (checkpointed) state
        built = []
        circulant = scf._circulant
        monkeypatch.setattr(scf, "_circulant", lambda *args: built.append(1) or circulant(*args))
        text = smoke_text({
            ("grid", "points_per_dim"): 64,
            ("model", "n_particles"): 8,
            ("potential", "trap"): "harmonic",
            ("preparation", "kind"): "scf",
            ("diagnostics", "conservation"): 1,
            ("diagnostics", "checkpoint"): 1,
        })
        scenario = parse_scenario(text)
        out = tmp_path / "out"
        result = run(scenario, out)
        assert result.exit_code == 0
        assert len(built) == 4
        grid = scenario.build_grid()
        potential = scenario.build_potential(grid)
        assert scf.MeanField.for_evolution(
            grid, potential, scenario.build_dispersion(), "exponential_midpoint", True, False,
            8).path == "dense"
        header, rows = read_csv(out / "conservation.csv")
        energies = [float(row[header.index("energy")]) for row in rows]
        states = sorted((out / "checkpoints").glob("*.rhfs"))
        assert len(states) == len(energies) == 6
        for path, energy in zip(states, energies):
            ref = hf_energy(load_orbitals(path), potential, scenario.build_dispersion(),
                            include_vext=False)
            assert abs(energy - ref) <= 1e-13 * abs(ref)

    def test_rerun_byte_identical(self, tmp_path):
        scenario = load_scenario(SMOKE)
        run(scenario, tmp_path / "a")
        run(scenario, tmp_path / "b")
        a_files = sorted(p.relative_to(tmp_path / "a")
                         for p in (tmp_path / "a").rglob("*") if p.is_file())
        b_files = sorted(p.relative_to(tmp_path / "b")
                         for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert a_files == b_files
        for rel in a_files:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel


def singular_fermi_sea(scenario, grid, potential, dispersion, out_dir):
    """A preparation whose last orbital repeats the first: its Gram matrix is singular."""
    sea = fermi_sea(grid, scenario[("model", "n_particles")], dispersion).orbitals.copy()
    sea[-1] = sea[0]
    return OrbitalSet(sea, grid, validate=False), None


class TestRunEndings:
    """Every way a run ends writes a manifest; an exception gives status error and exit 2."""

    def run_error(self, tmp_path, name, monkeypatch=None, patches=()):
        out = tmp_path / name
        for (module, attr), value in dict(patches).items():
            monkeypatch.setattr(module, attr, value)
        assert main(["run", SMOKE, "--out", str(out)]) == 2
        text = (out / "manifest.json").read_text()
        manifest = json.loads(text)
        assert manifest["status"] == "error"
        assert manifest["scenario"] == "smoke_1d"
        assert manifest["config_hash"] == load_scenario(SMOKE).config_hash()
        assert manifest["artifacts"] == sorted(
            str(p.relative_to(out)) for p in out.rglob("*")
            if p.is_file() and p.name != "manifest.json")
        # deterministic: no traceback, no absolute path, no time
        assert "Traceback" not in text and str(tmp_path) not in text
        assert not any(key in manifest for key in ("time", "elapsed", "traceback"))
        return manifest, text

    def test_krylov_error(self, tmp_path, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise KrylovError("Krylov residual 1.0e-03 above tolerance after 8 substeps")

        patches = {(propagate, "expm_apply_block"): unreachable}
        manifest, text = self.run_error(tmp_path, "a", monkeypatch, patches)
        assert manifest["error"] == {
            "type": "KrylovError",
            "message": "Krylov residual 1.0e-03 above tolerance after 8 substeps"}
        assert "initial_state.rhfs" in manifest["artifacts"]
        assert "final_state.rhfs" not in manifest["artifacts"]
        err = capsys.readouterr().err
        assert err.startswith("Traceback") and "KrylovError: Krylov residual" in err
        # a second run into another directory writes the same bytes
        assert self.run_error(tmp_path, "b", monkeypatch, patches)[1] == text

    def test_singular_gram_matrix(self, tmp_path, monkeypatch):
        patches = {(runner, "_prepare"): singular_fermi_sea}
        manifest, _ = self.run_error(tmp_path, "out", monkeypatch, patches)
        assert manifest["error"]["type"] == "ValueError"
        assert "Gram matrix is numerically singular" in manifest["error"]["message"]
        assert manifest["artifacts"] == ["initial_state.rhfs", "initial_state.rhfs.meta.txt"]

    def test_artifact_write_oserror(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "checks").write_text("")  # the checks directory cannot be made
        manifest, _ = self.run_error(tmp_path, "out")
        assert manifest["error"] == {"type": "FileExistsError",
                                     "message": "[Errno 17] File exists: 'checks'"}
        assert manifest["artifacts"] == ["checks"]

    def test_library_run_raises_after_writing_the_manifest(self, tmp_path, monkeypatch):
        def unreachable(*args, **kwargs):
            raise KrylovError("unreachable tolerance")

        monkeypatch.setattr(propagate, "expm_apply_block", unreachable)
        with pytest.raises(KrylovError, match="unreachable tolerance"):
            run(load_scenario(SMOKE), tmp_path / "out")
        manifest = load_json(tmp_path / "out" / "manifest.json")
        assert manifest["status"] == "error"
        assert manifest["error"] == {"type": "KrylovError", "message": "unreachable tolerance"}

    def test_relative_out_keeps_the_message(self, tmp_path, monkeypatch):
        # a relative output directory is no absolute path, so its name is
        # left alone where it occurs inside a word of the message
        message = "Krylov residual 1.0e-03 above tolerance within 8 substeps"

        def unreachable(*args, **kwargs):
            raise KrylovError(message)

        monkeypatch.setattr(propagate, "expm_apply_block", unreachable)
        smoke = str(Path(SMOKE).resolve())
        monkeypatch.chdir(tmp_path)
        for out in ("in", "tol"):
            assert main(["run", smoke, "--out", out]) == 2
            manifest = load_json(tmp_path / out / "manifest.json")
            assert manifest["error"] == {"type": "KrylovError", "message": message}

    def test_paths_made_relative_only_whole(self, tmp_path):
        out = tmp_path / "out"
        message = (f"'{out}/checks/a.json' and {out} at {out}: kept: '{out}er/b' "
                   f"/x{out}/c {out}.d")
        assert runner._relative_paths(message, out) == (
            f"'checks/a.json' and . at .: kept: '{out}er/b' /x{out}/c {out}.d")

    def test_sweep_keeps_the_sub_run_manifest(self, tmp_path, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise KrylovError("unreachable tolerance")

        monkeypatch.setattr(propagate, "expm_apply_block", unreachable)
        scenario = load_scenario(SMOKE)
        assert sweep(scenario, "coupling", ["0.2", "0.4"], tmp_path / "sw") == 2
        for sub in ("coupling_00_0.2", "coupling_01_0.4"):
            manifest = load_json(tmp_path / "sw" / sub / "manifest.json")
            assert manifest["status"] == "error"
            assert manifest["error"] == {"type": "KrylovError",
                                         "message": "unreachable tolerance"}
            assert manifest["scenario"] == "smoke_1d"
        header, rows = read_csv(tmp_path / "sw" / "sweep.csv")
        assert [row[header.index("exit_code")] for row in rows] == ["2", "2"]
        assert all(v == "nan" for row in rows for v in row[header.index("exit_code") + 1:])
        # the manifests keep no traceback; stderr gets one per sub-run
        assert capsys.readouterr().err.count("KrylovError: unreachable tolerance") == 2


class TestSweep:
    def test_empty_values_rejected(self, tmp_path):
        scenario = load_scenario(SMOKE)
        with pytest.raises(ValueError, match="at least one"):
            sweep(scenario, "dt", [], tmp_path)

    def test_non_monotone_rejected(self, tmp_path):
        scenario = load_scenario(SMOKE)
        with pytest.raises(ValueError, match="monotone"):
            sweep(scenario, "coupling", ["0.1", "0.3", "0.2"], tmp_path)

    def test_dt_axis_richardson_table(self, tmp_path):
        # strong enough coupling and long enough horizon that the dt error
        # stands well above rounding (d2 is about 2e-13)
        text = smoke_text({
            ("grid", "points_per_dim"): 64,
            ("model", "n_particles"): 4,
            ("potential", "coupling"): 1.5,
            ("potential", "trap"): "harmonic",
            ("preparation", "kind"): "scf",
            ("evolution", "dt"): 0.01,
            ("evolution", "t_final"): 0.5,
        })
        scenario = parse_scenario(text)
        code = sweep(scenario, "dt", ["0.01", "0.005", "0.0025"], tmp_path / "sw")
        assert code == 0
        assert_sweep_metrics_match_artifacts(tmp_path / "sw", scenario, "dt")
        header, rows = read_csv(tmp_path / "sw" / "sweep.csv")
        assert "dist_sq_to_prev" in header
        col = header.index("dist_sq_to_prev")
        d1 = float(rows[1][col])
        d2 = float(rows[2][col])
        assert d1 > 0 and d2 > 0
        # hs² is quadratic in the orbital error of the order-2 scheme: >= 2^2
        # expected (observed 16.0)
        assert d1 / d2 >= 4.0

    def test_coupling_axis(self, tmp_path):
        scenario = load_scenario(SMOKE)
        code = sweep(scenario, "coupling", ["0.2", "0.4"], tmp_path / "sw")
        assert code == 0
        assert_sweep_metrics_match_artifacts(tmp_path / "sw", scenario, "coupling")
        header, rows = read_csv(tmp_path / "sw" / "sweep.csv")
        assert len(rows) == 2
        assert header.index("comm_x_over_neps") >= 0

    def test_every_metric_column_filled(self, tmp_path):
        # enough commutator samples (>= 8) for a growth fit, so no column is nan
        text = smoke_text({("evolution", "t_final"): 0.016,
                           ("diagnostics", "conservation"): 1,
                           ("diagnostics", "commutators"): 1,
                           ("diagnostics", "exp_bound"): 4,
                           ("diagnostics", "exchange_bound"): 4})
        scenario = parse_scenario(text)
        assert sweep(scenario, "coupling", ["0.5"], tmp_path / "sw") == 0
        assert_sweep_metrics_match_artifacts(tmp_path / "sw", scenario, "coupling")
        header, rows = read_csv(tmp_path / "sw" / "sweep.csv")
        assert all(v != "nan" for v in rows[0])

    def test_worker_count_does_not_change_output(self, tmp_path, monkeypatch):
        scenario = load_scenario(SMOKE)
        outputs = []
        for workers in ("1", "2"):
            monkeypatch.setenv("RHFLAB_WORKERS", workers)
            out = tmp_path / f"workers_{workers}"
            assert sweep(scenario, "coupling", ["0.2", "0.4"], out) == 0
            outputs.append((out / "sweep.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_n_axis_rederives_epsilon_and_bounds_commutators(self, tmp_path):
        text = smoke_text({("grid", "points_per_dim"): 64,
                           ("potential", "trap"): "harmonic",
                           ("preparation", "kind"): "scf",
                           ("evolution", "t_final"): 0.01,
                           ("evolution", "dt"): 0.002,
                           ("diagnostics", "commutators"): 2})
        scenario = parse_scenario(text)
        code = sweep(scenario, "N", ["2", "4", "8"], tmp_path / "sw")
        assert code == 0
        assert_sweep_metrics_match_artifacts(tmp_path / "sw", scenario, "N")
        header, rows = read_csv(tmp_path / "sw" / "sweep.csv")
        col = header.index("comm_x_over_neps")
        vals = [float(r[col]) for r in rows]
        # the eq-semi scaling audit: tr|[x,w]|/(N eps) bounded by a constant
        assert all(np.isfinite(v) and 0 < v <= 10.0 for v in vals)


class TestCli:
    def test_run_and_inspect_and_checks(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", SMOKE, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "smoke_1d: ok" in printed
        assert main(["inspect", str(out / "final_state.rhfs")]) == 0
        printed = capsys.readouterr().out
        assert "RHFS" in printed
        assert main(["checks", str(out / "checks" / "exp_bound.json")]) == 0
        printed = capsys.readouterr().out
        assert "[PASS] exp_bound" in printed

    def test_run_parses_the_scenario_once(self, tmp_path, monkeypatch):
        parsed = []

        def counting_parse(*args, **kwargs):
            parsed.append(args)
            return parse_scenario(*args, **kwargs)

        monkeypatch.setattr(scenarios, "parse_scenario", counting_parse)
        assert main(["run", SMOKE, "--out", str(tmp_path / "out")]) == 0
        assert len(parsed) == 1

    def test_malformed_scenario_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        text = smoke_text()
        text = "\n".join(ln for ln in text.splitlines() if not ln.startswith("n_particles"))
        bad.write_text(text)
        assert main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "n_particles" in err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_output_directory_that_cannot_be_created_is_refused(self, tmp_path, capsys,
                                                                monkeypatch, command):
        # a file where a parent directory should be: one error line, exit 2,
        # and neither a run nor a sweep starts
        import rhflab.cli as cli

        def no_work(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(cli, "run", no_work)
        monkeypatch.setattr(cli, "sweep", no_work)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        argv = [command, SMOKE, "--out", str(blocker / "out")]
        if command == "sweep":
            argv += ["--axis", "N", "--values", "2,3"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Not a directory" in lines[0] and str(blocker / "out") in lines[0]
        assert blocker.is_file()

    def test_oversize_scf_scenario_refused_before_any_work(self, tmp_path, capsys):
        big = tmp_path / "big.ini"
        big.write_text(smoke_text({("grid", "dim"): 2, ("grid", "points_per_dim"): 128,
                                   ("preparation", "kind"): "scf"}))
        out = tmp_path / "out"
        assert main(["run", str(big), "--out", str(out)]) == 2
        assert "kind=scf" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()
        assert not (out / "checks").exists()

    @pytest.mark.parametrize("overrides, field", [
        case(0, {("grid", "points_per_dim"): "48"}, "[grid] points_per_dim"),
        case(1, {("grid", "dim"): "4", ("preparation", "kind"): "fermi_sea"}, "[grid] dim"),
        case(2, {("grid", "box_length"): "-1"}, "[grid] box_length"),
        case(3, {("model", "n_particles"): "0"}, "[model] n_particles"),
        case(4, {("model", "n_particles"): "100"}, "[model] n_particles"),
        case(5, {("preparation", "mixing"): "1.5"}, "[preparation] mixing"),
        case(6, {("preparation", "convergence_tol"): "0"}, "[preparation] convergence_tol"),
        case(7, {("preparation", "kind"): "boosted_fermi_sea",
                 ("preparation", "boost_mode"): "0"}, "[preparation] boost_mode"),
        case(8, {("evolution", "reortho_every"): "0"}, "[evolution] reortho_every"),
        case(9, {("grid", "points_per_dim"): "16"}, "[diagnostics] exp_bound"),
        case(10, {("diagnostics", "conservation"): "-5"}, "[diagnostics] conservation"),
        # the retired table kernel, alone and in its former form with a file
        case(11, {("potential", "kernel"): "table"}, "[potential] kernel"),
        case(12, {("potential", "table"): "v.csv"}, "[potential] table"),
        case(13, {("potential", "kernel"): "table", ("potential", "table"): "v.csv"},
             "[potential] table"),
        case(14, {("evolution", "t_final"): "1e308", ("evolution", "dt"): "1e-10"},
             "[evolution] (t_final - t0)/dt"),
        # every float key refuses a value that is not finite; these ids follow
        # FLOAT_FIELDS' order
        *(case(15 + 3 * i + j, {(section, key): token}, f"[{section}] {key}")
          for i, (section, key) in enumerate(FLOAT_FIELDS)
          for j, token in enumerate(("nan", "inf", "-inf"))),
        # the retired maximum-overlap occupation
        case(48, {("preparation", "aufbau"): "false"}, "[preparation] aufbau"),
    ])
    def test_unrunnable_scenario_refused_before_any_work(self, tmp_path, capsys,
                                                         overrides, field):
        cfg = configparser.ConfigParser(interpolation=None)
        cfg.read(SMOKE)
        for (section, key), value in overrides.items():
            cfg[section][key] = value
        ini = tmp_path / "bad.ini"
        with open(ini, "w") as fh:
            cfg.write(fh)
        out = tmp_path / "out"
        assert main(["run", str(ini), "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not (out / "manifest.json").exists()
        assert not (out / "checks").exists()

    @pytest.mark.parametrize("overrides, message", [
        case(0, {("model", "dispersion"): "massless"},
             "error: [model] dispersion must be one of ('relativistic', 'nonrelativistic'), "
             "got 'massless'"),
        case(1, {("evolution", "t_final"): "inf"},
             "error: bad value for [evolution] t_final: not a finite number: 'inf'"),
        # the retired table kernel and maximum-overlap occupation
        case(2, {("potential", "kernel"): "table"},
             "error: [potential] kernel must be one of ('gaussian', 'none'), got 'table'"),
        case(3, {("potential", "table"): "v.csv"}, "error: unknown key [potential] table"),
        case(4, {("preparation", "aufbau"): "false"},
             "error: unknown key [preparation] aufbau"),
        # more steps than the whole-number test can resolve
        case(5, {("evolution", "dt"): "1e-300"},
             "error: [evolution] (t_final - t0)/dt = 1e+298 is not a finite step count of "
             "at most 1e+09"),
    ])
    def test_refusal_is_one_line_and_makes_no_directory(self, tmp_path, capsys, overrides,
                                                        message):
        ini = tmp_path / "bad.ini"
        ini.write_text(smoke_text(overrides))
        out = tmp_path / "out"
        assert main(["run", str(ini), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [message]
        assert not out.exists()

    @pytest.mark.parametrize("values, message", [
        ("0.002,abc", "error: bad value for [evolution] dt: could not convert string to float: "
                      "'abc'"),
        ("0.002,nan", "error: bad value for [evolution] dt: not a finite number: 'nan'"),
        ("0.002,0.003", "error: [evolution] t_final - t0 = 0.04 is not a whole number of steps "
                        "dt = 0.003"),
        ("0.004,0.002,0.008", "error: sweep values must be strictly monotone"),
    ])
    def test_refused_sweep_value_is_one_line_and_makes_no_directory(self, tmp_path, capsys,
                                                                    values, message):
        out = tmp_path / "out"
        assert main(["sweep", SMOKE, "--axis", "dt", "--values", values, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [message]
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["abc", "0", "-1"])
    def test_refused_worker_count_is_one_line_and_makes_no_directory(self, tmp_path, capsys,
                                                                     monkeypatch, workers):
        monkeypatch.setenv("RHFLAB_WORKERS", workers)
        out = tmp_path / "out"
        assert main(["sweep", SMOKE, "--axis", "dt", "--values", "0.002,0.001",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: RHFLAB_WORKERS must be a whole number >= 1, got '{workers}'"]
        assert not out.exists()

    def test_pool_is_no_larger_than_the_sub_runs(self, tmp_path, monkeypatch):
        # a pool that records its size and maps in this process: no process starts
        import concurrent.futures

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setenv("RHFLAB_WORKERS", "8")
        assert sweep(load_scenario(SMOKE), "coupling", ["0.2", "0.4"], tmp_path / "sw") == 0
        assert sizes == [2]

    def test_imports_load_no_linalg_and_no_process_pool(self):
        # a fresh interpreter: this suite's own imports must not hide a load
        code = ("import importlib, pkgutil, sys\n"
                "import rhflab.cli\n"
                "print('scipy.sparse' in sys.modules)\n"
                "import rhflab\n"
                "for module in pkgutil.iter_modules(rhflab.__path__):\n"
                "    importlib.import_module('rhflab.' + module.name)\n"
                "print(sorted(m for m in ('scipy.linalg', 'scipy.sparse',\n"
                "                         'concurrent.futures.process') if m in sys.modules))\n")
        src = str(Path(rhflab.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert proc.stdout.split("\n")[:2] == ["False", "[]"]

    def test_inspect_prints_the_orbital_header(self, tmp_path, capsys, grid32):
        path = tmp_path / "state.rhfs"
        save_orbitals(path, random_orbital_set(grid32, 3, seed=102))
        assert main(["inspect", str(path)]) == 0
        assert capsys.readouterr().out == (
            f"magic = RHFS\nversion = 1\ndim = 1\nn = 32\nbox_length = {grid32.box_length}\n"
            f"epsilon = 0.25\nn_particles = 3\n")

    @pytest.mark.parametrize("content, message", [
        ("wigner", "bad magic b'WGNR'"), (b"", "truncated container"),
        (None, "No such file")])
    def test_inspect_refuses_what_is_not_an_orbital_container(self, tmp_path, capsys,
                                                              content, message):
        path = tmp_path / "field.bin"
        if content == "wigner":
            save_phase_field(path, np.ones((4, 4)), 2.0 * np.pi, 0.5)
        elif content is not None:
            path.write_bytes(content)
        assert main(["inspect", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err

    def test_sweep_cli(self, tmp_path):
        assert main(["sweep", SMOKE, "--axis", "coupling", "--values", "0.2,0.4",
                     "--out", str(tmp_path / "sw")]) == 0
