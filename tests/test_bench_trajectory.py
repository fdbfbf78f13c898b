"""The layer harness `scripts/bench_trajectory.py` on one-case tables.

The harness is loaded from its file and its case tables are swapped for
one small case each, so a layers run takes about a second.  The block it
returns is compared by keys with the last layers block of BENCH_pr21.json,
the last run before every case recorded a tracemalloc peak; since then the
diagnostics slice times the exchange check in the form the rule picks
only, the exchange slice times both forms and fits nothing, and the
exchange chunk slice is retired.  The fit's inputs are read from the
committed BENCH_*.json files.
"""

import functools
import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load("bench_trajectory", ROOT / "scripts" / "bench_trajectory.py")
tracer = _load("perfbench_tracer", ROOT / "perfbench" / "tracer.py")

ONE_CASE_TABLES = {
    "LAYER_N": 32, "LAYER_PARTICLES": (2,), "LAYER_REPS": 2,
    "ED_LAYER_CASES": ((6, 2, 1.0, 0.2),), "VLASOV_STEPS": 2,
    "PROPAGATION_CASES": ((1, 32, 2), (2, 8, 2)), "PROPAGATION_RK4": (1, 32, 2),
    "EXCHANGE_LAYER_CASES": ((1, 32, 2),),
}
# layer names the harness times that perfbench's tracer does not trace
UNTRACED_LAYERS = {
    # its time sits in scf.scf_minimize's self time until it gets a span
    "scf.MeanField.energy": "the energy functional the SCF evaluates per iteration",
    # the vlasov.vlasov_step layer traces the lone step; the fused run has no span yet
    "vlasov.vlasov_run": "the Vlasov leg, which fuses the half x-shifts of adjacent steps",
    # the ED oracle's mean field, called inside ed.hf_mode_evolution's span
    "ed.ModeMeanField.mean_field": "the mode-space mean field of the ED comparison",
}
# the slices whose cases time named layers
NAMED_LAYER_SLICES = ("cases", "diagnostics_cases", "ed_cases", "propagation_cases")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture(scope="module")
def runs():
    """(layers block, environment before, environment after)."""
    from rhflab import orbitals, propagate

    def environment():
        return ({name: os.environ.get(name) for name in BLAS_THREAD_VARS}, list(sys.path),
                orbitals.dense_pays, propagate.expm_apply_block)

    with pytest.MonkeyPatch.context() as patch:
        for name, value in ONE_CASE_TABLES.items():
            patch.setattr(bench, name, value)
        before = environment()
        block = bench.layers(ROOT)
        after = environment()
    return block, before, after


@pytest.fixture(scope="module")
def recorded():
    """The last layers block of BENCH_pr21.json."""
    return json.loads((ROOT / "BENCH_pr21.json").read_text())["layers"][-1]


def _timed_keys(case: dict) -> tuple:
    return set(case["ms"]), set(case["peak_kib"])


class TestRecords:
    def test_layers_keys(self, runs, recorded):
        block, old = runs[0], recorded
        # main adds the load averages; the exchange chunk slice is retired
        assert set(block) == set(old) - {"loadavg", "exchange_chunks", "chunk_budget_losses"}
        for key in NAMED_LAYER_SLICES:
            for case in block[key]:
                old_case = old[key][0]
                # the diagnostics cases no longer time the forced exchange forms
                old_layers = {name for name in old_case["ms"]
                              if not name.endswith(("[dense]", "[fft]"))}
                assert set(case) == set(old_case), key
                assert _timed_keys(case) == (old_layers,) * 2, key
        # --fit is the one fit; the exchange slice no longer fits its own cases
        assert set(block["exchange"]) == set(old["exchange"]) - {"fit"}
        old_case = old["exchange"]["cases"][0]
        for case in block["exchange"]["cases"]:
            assert set(case) == set(old_case)
            assert _timed_keys(case) == (set(old_case["ms"]),) * 2

    def test_propagation_runs_every_flow_from_both_starts(self, runs, recorded):
        def runs_of(cases):  # on 1D, the dimension both starts run on
            return {(case["scheme"], case["flow"], case["path"], case["start"])
                    for case in cases if case["dim"] == 1}

        assert runs_of(runs[0]["propagation_cases"]) == runs_of(recorded["propagation_cases"])

    def test_stationary_start_on_1d_only(self, runs):
        starts = {}
        for case in runs[0]["propagation_cases"]:
            starts.setdefault(case["dim"], set()).add(case["start"])
        assert starts == {1: {"released", "stationary"}, 2: {"released"}}

    def test_every_propagation_case_is_within_the_dense_size_cap(self):
        from rhflab import grids

        for dim, n, _ in bench.PROPAGATION_CASES:
            assert n**dim <= grids.DENSE_SIZE_CAP, (dim, n)

    def test_times_and_peaks_are_finite_and_ordered(self, runs):
        for case in runs[0]["propagation_cases"]:
            for stats in case["ms"].values():
                assert 0 < stats["q25"] <= stats["median"] <= stats["q75"]
            assert all(peak >= 0 for peak in case["peak_kib"].values())


class TestEnvironment:
    def test_slices_leave_blas_threads_path_and_patches_unchanged(self, runs):
        before, after = runs[1], runs[2]
        assert after[0] == before[0]
        assert after[1] == before[1]
        assert after[2] is before[2] and after[3] is before[3]


class TestFit:
    @staticmethod
    def _case(n_part: int, dense_ms: float, fft_side: str, fft_ms: float) -> dict:
        # 1D n = 64 with B = N rows and k = 1: r = 128/(6N)
        return {"dim": 1, "n": 64, "N": n_part, "rows": n_part, "applies": 1,
                "ms": {"dense": {"median": dense_ms}, fft_side: {"median": fft_ms}}}

    def test_least_loss_interval(self):
        # r = 8/3 and 16/3 run dense faster, r = 32/3 FFT faster
        cases = [self._case(8, 1.0, "pair", 2.0), self._case(4, 1.0, "fft", 3.0),
                 self._case(2, 5.0, "fft", 1.0)]
        assert [bench.dense_ratio(case) for case in cases] == pytest.approx(
            [8 / 3, 16 / 3, 32 / 3])
        fit = bench.fit_dense_cost(cases)
        assert set(fit) == {"1"}
        assert fit["1"]["low"] == pytest.approx(16 / 3)
        assert fit["1"]["high"] == pytest.approx(32 / 3)
        assert fit["1"]["lost_ms"] == 0.0

    def test_recorded_cases_time_dense_and_pair_or_fft(self):
        from rhflab import scf

        cases = bench.recorded_cases()
        assert {case["caller"] for case in cases} == {"evolution", "check"}
        for case in cases:
            sides = {"pair", "dense"} if case["caller"] == "evolution" else {"fft", "dense"}
            assert set(case["ms"]) == sides
        for case in cases:
            if case["caller"] == "evolution":
                assert case["rows"] == case["N"]
                # the k that MeanField.for_evolution decides with, not the recorded one
                assert case["applies"] == scf.MATVECS_PER_SOLVE

    def test_only_layers_runs_that_time_fft_are_read(self, tmp_path, monkeypatch):
        def step(path: str, ms: float) -> dict:
            return {"dim": 1, "n": 64, "N": 2, "scheme": "exponential_midpoint",
                    "flow": f"hf-{path}", "path": path, "start": "released",
                    "matvecs_per_solve": 4.0, "ms": {"propagate.step": {"median": ms}}}

        def run(form: str, ms: float) -> dict:
            check = self._case(2, ms, form, ms)
            check["rows"] = 4
            return {"propagation_cases": [step("pair", ms), step("dense", ms)],
                    "exchange": {"cases": [check]}}

        record = {"crossover": [{"cases": [self._case(2, 9.0, "pair", 9.0)]}],
                  "layers": [{"cases": []}, run("loop", 8.0), run("fft", 1.0)]}
        (tmp_path / "BENCH_x.json").write_text(json.dumps(record))
        monkeypatch.setattr(bench, "ROOT", tmp_path)
        cases = bench.recorded_cases()
        assert [case["caller"] for case in cases] == ["evolution", "check"]
        assert all(side["median"] == 1.0 for case in cases for side in case["ms"].values())

    def test_fit_stores_the_margin_over_the_least_loss_constants(self, monkeypatch):
        monkeypatch.setattr(bench, "commit_of", lambda checkout: "commit")
        block = bench.fit(ROOT)
        least = sum(stats["lost_ms"] for stats in block["fit"].values())
        assert block["margin_ms"] == pytest.approx(block["lost_ms"]["rule"] - least)
        assert block["margin_ms"] >= 0

    def test_cases_without_a_dense_time_are_left_out(self):
        above_cap = {"dim": 1, "n": 8192, "N": 2, "rows": 2, "applies": 1,
                     "ms": {"pair": {"median": 1.0}}}
        assert bench.fit_dense_cost([self._case(2, 5.0, "pair", 1.0), above_cap]) == {
            "1": {"low": 0.0, "high": pytest.approx(32 / 3), "lost_ms": 0.0}}


class TestForms:
    @pytest.mark.parametrize("argv", [["x"], ["x", "--against", ".", "--layers"],
                                      ["x", "--against", ".", "--fit"], ["x", "--layers", "--fit"]],
                             ids=["none", "against-layers", "against-fit", "layers-fit"])
    def test_exactly_one_form_or_exit_2(self, argv):
        with pytest.raises(SystemExit) as exit_:
            bench.main(argv)
        assert exit_.value.code == 2


class TestGroundState:
    def test_2d_starts_of_the_tables_converge(self):
        for n_part in sorted({n_part for dim, _, n_part in bench.PROPAGATION_CASES if dim == 2}):
            bench.ground_state(2, bench.SCF_GRID_N[2], n_part)  # raises unless converged

    def test_unconverged_scf_is_refused(self, monkeypatch):
        from rhflab import scf

        monkeypatch.setattr(scf, "ScfConfig", functools.partial(scf.ScfConfig, max_iterations=1))
        with pytest.raises(RuntimeError, match=r"\(2, 16, 16\) did not converge"):
            bench.ground_state(2, 16, 16)


class TestLayerNames:
    def test_timed_layers_are_traced_or_listed(self, runs):
        names = {name for key in NAMED_LAYER_SLICES for case in runs[0][key]
                 for name in case["ms"]}
        traced = set(tracer.TARGETS) | {tracer.MATVEC}
        assert names - traced == set(UNTRACED_LAYERS)

    def test_untraced_list_holds_no_traced_name(self):
        assert not set(UNTRACED_LAYERS) & (set(tracer.TARGETS) | {tracer.MATVEC})
