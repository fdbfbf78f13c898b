"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to watch the lines appear; the
heavy fixtures (the N in {8,16,32} quench family) are shared across criteria.
"""

import numpy as np
import pytest

from rhflab.diagnostics import (
    comm_grad_total,
    comm_x_total,
    default_phase_samples,
    exchange_double_commutator_check,
    exp_bound_check,
    growth_fit,
    integrated_growth_audit,
    kinetic_double_commutator_check,
    wigner_transform,
)
from rhflab.ed import (
    FockBasis,
    build_hamiltonian,
    evolve_exact,
    fermi_sea_modes,
    hf_mode_evolution,
    reduced_density_1,
    slater_vector,
    mean_field_gap,
)
from rhflab.grids import (
    Dispersion,
    Grid,
    PotentialSpec,
    gaussian_vhat,
    harmonic_trap,
)
from rhflab.orbitals import hs_distance_squared, seam_mass
from rhflab.propagate import EvolutionConfig, Observer, SimState, evolve, pair_evolve
from rhflab.scf import ScfConfig, hf_energy, scf_minimize
from rhflab.vlasov import PhaseSpaceField, vlasov_run, vlasov_step

from reference_orbitals import apply_kinetic

BOX = 4.0 * np.pi
COUPLING = 0.5
WIDTH = 1.0
TRAP = 1.0
M0 = 1.0
DT = 1e-3
SCAN_NS = (8, 16, 32)


def report(num, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{tag}] criterion {num}: {description}{suffix}")


def quench_setup(n, n_particles, m0=M0, coupling=COUPLING):
    grid = Grid(1, n, BOX, 1.0 / n_particles)
    disp = Dispersion.relativistic(m0)
    pot = PotentialSpec(grid, gaussian_vhat(grid, WIDTH),
                        vext=harmonic_trap(grid, TRAP), coupling=coupling)
    return grid, disp, pot


@pytest.fixture(scope="module")
def scf_states():
    """Trapped relativistic ground states for the N-scan family (n=256)."""
    states = {}
    for n_part in SCAN_NS:
        grid, disp, pot = quench_setup(256, n_part)
        res = scf_minimize(grid, pot, n_part, disp,
                           ScfConfig(max_iterations=120, convergence_tol=1e-10))
        assert res.converged
        states[n_part] = (grid, disp, pot, res)
    return states


@pytest.fixture(scope="module")
def hf_runs(scf_states):
    """Quench HF evolutions: N=16 to t=2 (reference run), N=8/32 to t=1.

    Collects commutator series, conservation channels, inequality reports at
    the reference sampling times, and a t=1 snapshot per N.
    """
    runs = {}
    for n_part in SCAN_NS:
        grid, disp, pot, scf_res = scf_states[n_part]
        t_final = 2.0 if n_part == 16 else 1.0
        config = EvolutionConfig(dt=DT, t_final=t_final, dispersion=disp,
                                 exchange_on=True, reortho_every=10)
        state = SimState(0.0, scf_res.orbitals, pot, config)
        snapshots = {}
        reports = {"exp_bound": [], "exchange_bound": [], "kinetic_ratio": []}
        phase_samples = default_phase_samples(grid, 16)

        def conservation(s, pot=pot, disp=disp):
            return {
                "energy": hf_energy(s.orbitals, pot, disp, include_vext=False),
                "trace": float(s.orbitals.n_particles),
                "projection_residual": s.last_projection_residual,
                "gram_deviation": s.last_gram_deviation,
                "seam_mass": seam_mass(s.orbitals),
            }

        def commutators(s):
            return {"comm_x": comm_x_total(s.orbitals),
                    "comm_grad": comm_grad_total(s.orbitals)}

        def snapshot(s, snaps=snapshots):
            snaps[round(s.time, 9)] = s.orbitals
            return {"captured": 1.0}

        observers = [
            Observer("conservation", 100, conservation),
            Observer("commutators", 100, commutators),
            Observer("snapshot", 1000, snapshot),
        ]
        if n_part == 16:
            def inequalities(s, pot=pot, reps=reports, samples=phase_samples):
                eb = exp_bound_check(s.orbitals, samples)
                xb = exchange_double_commutator_check(s.orbitals, pot)
                kr = kinetic_double_commutator_check(s.orbitals, M0)
                for name, rep in (("exp_bound", eb), ("exchange_bound", xb),
                                  ("kinetic_ratio", kr)):
                    rep["time"] = s.time
                    reps[name].append(rep)
                return {"exp_margin": eb["min_margin"],
                        "exchange_margin": xb["min_margin"],
                        "kinetic_ratio": kr["max_ratio"]}

            observers.append(Observer("inequalities", 250, inequalities))

        result = evolve(state, observers)
        assert not result.aborted
        runs[n_part] = {"result": result, "snapshots": snapshots,
                        "reports": reports, "scf": scf_res, "grid": grid,
                        "pot": pot, "disp": disp}
    return runs


class TestCriterion1:
    def test_spectral_exactness(self):
        grid = Grid(1, 64, 2.0 * np.pi, 0.1)
        ok = True
        for k, m0 in ((5, 1.0), (13, 3.0), (-7, 0.5)):
            wave = np.exp(1j * k * grid.x_axis)
            out = apply_kinetic(wave, grid, Dispersion.relativistic(m0))
            expected = np.sqrt(grid.epsilon**2 * k**2 + m0**2)
            err = np.max(np.abs(out - expected * wave)) / expected
            ok = ok and err <= 1e-12
        report(1, "plane-wave kinetic eigenvalues exact to 1e-12", ok)
        assert ok


class TestCriterion2:
    def test_conservation_suite(self, hf_runs):
        run = hf_runs[16]
        cons = run["result"].series["conservation"]
        traces = np.asarray(cons.channels["trace"])
        energy = np.asarray(cons.channels["energy"])
        proj = np.asarray(cons.channels["projection_residual"])
        trace_ok = bool(np.all(traces == 16.0))
        drift = float(np.max(np.abs(energy - energy[0])) / abs(energy[0]))
        proj_ok = bool(np.max(proj) <= 1e-8)
        gram_ok = bool(np.max(cons.channels["gram_deviation"]) <= 1e-8)
        ok = trace_ok and drift <= 1e-6 and proj_ok and gram_ok
        report(2, "reference-run conservation (trace, projection, energy)", ok,
               f"drift={drift:.2e}, max |om^2-om|={np.max(proj):.2e}")
        assert trace_ok
        assert proj_ok
        assert gram_ok
        assert drift <= 1e-6


class TestCriterion3:
    def test_inequality_chain(self, hf_runs):
        run = hf_runs[16]
        reports = run["reports"]
        exp_margins = [r["min_margin"] for r in reports["exp_bound"]]
        ex_margins = [r["min_margin"] for r in reports["exchange_bound"]]
        ratios = [r["max_ratio"] for r in reports["kinetic_ratio"]]
        comm = run["result"].series["commutators"]
        audit = integrated_growth_audit(comm.times, comm.channels["comm_x"],
                                        comm.channels["comm_grad"], 16, M0)
        exp_ok = min(exp_margins) >= -1e-9
        ex_ok = min(ex_margins) >= -1e-9
        kin_ok = max(ratios) <= 10.0
        audit_ok = bool(audit["passed"])
        ok = exp_ok and ex_ok and kin_ok and audit_ok
        report(3, "proof-chain inequalities at every sampled time", ok,
               f"exp>={min(exp_margins):.1e}, exch>={min(ex_margins):.1e}, "
               f"kin<={max(ratios):.2f}, K=({audit['K_position']:.2f},"
               f"{audit['K_momentum']:.2f})")
        assert exp_ok and ex_ok and kin_ok and audit_ok


class TestCriterion4:
    def test_growth_envelope_scaling(self, hf_runs):
        fits = {}
        for n_part in SCAN_NS:
            comm = hf_runs[n_part]["result"].series["commutators"]
            times = np.asarray(comm.times)
            chan = np.asarray(comm.channels["comm_x"])
            window = times <= 1.0 + 1e-9  # common fit window across N
            fits[n_part] = growth_fit(times[window], chan[window], n_part,
                                      1.0 / n_part)
        cs = [fits[n].c for n in SCAN_NS]
        bigs = [fits[n].C for n in SCAN_NS]
        c_ok = all(b <= 10.0 for b in bigs)
        uniform_ok = max(cs) / min(cs) <= 2.0 if min(cs) > 0 else False
        ok = c_ok and uniform_ok
        report(4, "semiclassical growth envelope C·N·eps·exp(c|t|)", ok,
               f"C={[f'{b:.2f}' for b in bigs]}, c={[f'{c:.3f}' for c in cs]}")
        assert c_ok
        assert uniform_ok

    def test_reference_fit_residual(self, hf_runs):
        comm = hf_runs[16]["result"].series["commutators"]
        fit = growth_fit(comm.times, comm.channels["comm_x"], 16, 1.0 / 16.0)
        assert np.isfinite(fit.c)
        assert fit.residual <= 0.2


class TestCriterion5:
    def test_hartree_vs_hf(self, scf_states, hf_runs):
        distances = {}
        for n_part in SCAN_NS:
            grid, disp, pot, scf_res = scf_states[n_part]
            config = EvolutionConfig(dt=DT, t_final=1.0, dispersion=disp,
                                     exchange_on=False, reortho_every=10)
            hartree = evolve(SimState(0.0, scf_res.orbitals, pot, config))
            assert not hartree.aborted
            hf_t1 = hf_runs[n_part]["snapshots"][1.0]
            distances[n_part] = hs_distance_squared(hf_t1, hartree.state.orbitals) / n_part
        ok = distances[8] > distances[16] > distances[32]
        report(5, "exchange term subleading: tr|w_HF - w_H|^2/N decreases in N", ok,
               f"{[f'{distances[n]:.3e}' for n in SCAN_NS]}")
        assert ok


class TestCriterion6:
    def test_nonrelativistic_limit(self):
        grid, disp1, pot = quench_setup(128, 8)
        scf_res = scf_minimize(grid, pot, 8, disp1,
                               ScfConfig(max_iterations=120, convergence_tol=1e-10))
        assert scf_res.converged
        distances = []
        masses = (2.0, 4.0, 8.0)
        for m0 in masses:
            kw = dict(dt=DT, t_final=1.0, reortho_every=10)
            sa = SimState(0.0, scf_res.orbitals, pot,
                          EvolutionConfig(dispersion=Dispersion.relativistic(m0), **kw))
            sb = SimState(0.0, scf_res.orbitals, pot,
                          EvolutionConfig(dispersion=Dispersion.nonrelativistic(m0), **kw))
            result = pair_evolve(sa, sb, "dispersion", cadence=1000)
            series = result.series["hs_distance_squared"]
            distances.append(np.sqrt(series.channels["hs_distance_squared"][-1]))
        slope = np.polyfit(np.log(masses), np.log(distances), 1)[0]
        mono_ok = distances[0] > distances[1] > distances[2]
        slope_ok = -4.0 <= slope <= -2.0
        ok = mono_ok and slope_ok
        report(6, "non-relativistic limit: distance ~ m0^-3", ok,
               f"d={[f'{d:.2e}' for d in distances]}, slope={slope:.2f}")
        assert mono_ok
        assert slope_ok


class TestCriterion7:
    def test_vlasov_limit(self):
        # Boosted Fermi sea: a projection whose Wigner function is smooth in
        # the bulk (structure only on the displaced Fermi lines), so the
        # phase-space L2 distance converges strongly; trapped SCF states carry
        # shell oscillations at scale eps and only converge weakly.
        from rhflab.orbitals import boosted_fermi_sea

        distances = {}
        mass_ok = True
        for n_part in SCAN_NS:
            grid = Grid(1, 256, BOX, 1.0 / n_part)
            disp = Dispersion.relativistic(M0)
            pot = PotentialSpec(grid, gaussian_vhat(grid, WIDTH), coupling=COUPLING)
            orbs = boosted_fermi_sea(grid, n_part, disp, amplitude=0.5, mode=1)
            w0 = wigner_transform(orbs)
            field = PhaseSpaceField.from_wigner(w0)
            # per-step mass conservation probe
            probe = field
            for _ in range(5):
                before = probe.mass()
                probe = vlasov_step(probe, pot, M0, 2.5e-3)
                mass_ok = mass_ok and abs(probe.mass() - before) <= 1e-10
            final = vlasov_run(field, pot, M0, dt=2.5e-3, t_final=1.0)
            config = EvolutionConfig(dt=DT, t_final=1.0, dispersion=disp,
                                     exchange_on=True, reortho_every=10)
            result = evolve(SimState(0.0, orbs, pot, config))
            assert not result.aborted
            w1 = wigner_transform(result.state.orbitals)
            diff = final.values - w1.values
            distances[n_part] = float(
                np.sqrt(np.sum(diff**2) * final.dx * final.dv)
            )
        # free-transport exactness at matching resolution
        grid, _, _ = quench_setup(128, 8)
        x = grid.x_axis
        v = np.sort(grid.epsilon * grid.p_axis)
        xx, vv = np.meshgrid(x, v, indexing="ij")
        raw = np.exp(-((xx + 2.0) ** 2) / 0.72 - ((vv - 0.5) ** 2) / 0.32)
        norm = 1.0 / (np.sum(raw) * (x[1] - x[0]) * (v[1] - v[0]))
        free_pot = PotentialSpec(grid, np.zeros(grid.shape))
        blob = PhaseSpaceField(raw * norm, x, v, grid.box_length, grid.epsilon)
        moved = vlasov_run(blob, free_pot, M0, dt=0.01, t_final=1.0)
        u = v / np.sqrt(v**2 + M0**2)
        rel = xx - u[None, :] + 2.0
        rel = (rel + grid.box_length / 2) % grid.box_length - grid.box_length / 2
        ref = norm * np.exp(-(rel**2) / 0.72 - ((vv - 0.5) ** 2) / 0.32)
        free_ok = bool(np.max(np.abs(moved.values - ref)) <= 1e-8 * np.max(ref))
        mono_ok = distances[8] > distances[16] > distances[32]
        ok = mono_ok and mass_ok and free_ok
        report(7, "Vlasov limit: phase-space distance decreases in N", ok,
               f"d={[f'{distances[n]:.3e}' for n in SCAN_NS]}")
        assert mass_ok
        assert free_ok
        assert mono_ok


class TestCriterion8:
    def test_many_body_oracle(self):
        eps = 1.0
        disp = Dispersion.relativistic(1.0)
        vh = lambda q: np.exp(-0.5 * q**2)
        coupling = 0.2
        dt, t_final = 0.02, 1.0
        sample_every = 5
        gaps = {}
        unitarity_ok = True
        energy_ok = True
        for n_part in (2, 3):
            basis = FockBasis(12, n_part, 2.0 * np.pi)
            modes = fermi_sea_modes(basis, disp, eps)
            h = build_hamiltonian(basis, disp, eps, vh, coupling=coupling)
            psi = slater_vector(basis, modes)
            e0 = np.vdot(psi, h @ psi).real
            gammas = [reduced_density_1(psi, basis)]
            step_t = dt * sample_every
            for _ in range(int(round(t_final / step_t))):
                psi = evolve_exact(psi, h, step_t, eps)
                gammas.append(reduced_density_1(psi, basis))
            unitarity_ok &= abs(np.linalg.norm(psi) - 1.0) <= 1e-9
            energy_ok &= abs(np.vdot(psi, h @ psi).real - e0) <= 1e-9 * max(1.0, abs(e0))
            _, hf_gammas = hf_mode_evolution(basis, disp, eps, vh, coupling, modes,
                                             t_final, dt, sample_every=sample_every)
            gaps[n_part] = mean_field_gap(gammas, hf_gammas)
            # free case: gap identically zero
            h_free = build_hamiltonian(basis, disp, eps, lambda q: 0.0)
            psi_free = evolve_exact(slater_vector(basis, modes), h_free, t_final, eps)
            g_free = reduced_density_1(psi_free, basis)
            g_init = reduced_density_1(slater_vector(basis, modes), basis)
            assert np.max(np.abs(g_free - g_init)) <= 1e-10
        start_ok = gaps[2][0] == 0.0 and gaps[3][0] == 0.0
        bound_ok = max(np.max(gaps[2]), np.max(gaps[3])) <= 0.5
        # gap stays O(1): not proportional to N between N=2 and N=3
        ratio = np.max(gaps[3]) / max(np.max(gaps[2]), 1e-300)
        prop_ok = ratio <= 1.5
        ok = start_ok and bound_ok and prop_ok and unitarity_ok and energy_ok
        report(8, "many-body oracle: HS gap bounded, not proportional to N", ok,
               f"max gaps N=2: {np.max(gaps[2]):.2e}, N=3: {np.max(gaps[3]):.2e}, "
               f"ratio={ratio:.2f}")
        assert start_ok and bound_ok and prop_ok
        assert unitarity_ok and energy_ok


class TestCriterion9:
    def _final_state(self, scf_res, pot, disp, scheme, dt):
        # Löwdin every step: the projected map keeps the scheme's order and
        # the per-step Gram guard sees only single-step drift
        config = EvolutionConfig(dt=dt, t_final=0.4, scheme=scheme,
                                 dispersion=disp, reortho_every=1)
        result = evolve(SimState(0.0, scf_res.orbitals, pot, config))
        assert not result.aborted, result.abort_reason
        return result.state.orbitals

    def test_integrator_orders(self):
        # modest spectral bandwidth so the coarsest RK4 step sits at
        # dt·||h||/eps ~ 0.36, inside the scheme's comfort zone
        grid = Grid(1, 32, BOX, 0.25)
        disp = Dispersion.relativistic(1.0)
        pot = PotentialSpec(grid, gaussian_vhat(grid, WIDTH),
                            vext=harmonic_trap(grid, TRAP), coupling=1.5)
        scf_res = scf_minimize(grid, pot, 4, disp, ScfConfig(convergence_tol=1e-10))
        ratios = {}
        for scheme, floor in (("rk4_frozen_field", 8.0), ("exponential_midpoint", 4.0)):
            finals = {dt: self._final_state(scf_res, pot, disp, scheme, dt)
                      for dt in (0.02, 0.01, 0.005)}
            d_coarse = hs_distance_squared(finals[0.02], finals[0.01])
            d_fine = hs_distance_squared(finals[0.01], finals[0.005])
            ratios[scheme] = d_coarse / d_fine
            assert d_fine > 0
        ok = ratios["rk4_frozen_field"] >= 8.0 and ratios["exponential_midpoint"] >= 4.0
        report(9, "integrator convergence under dt halving", ok,
               f"rk4 ratio={ratios['rk4_frozen_field']:.1f}, "
               f"expmid ratio={ratios['exponential_midpoint']:.1f}")
        assert ratios["rk4_frozen_field"] >= 8.0
        assert ratios["exponential_midpoint"] >= 4.0


class TestCriterion10:
    def test_reproducibility(self, tmp_path):
        from rhflab.runner import run
        from rhflab.scenarios import load_scenario

        scenario = load_scenario("scenarios/smoke_1d.ini")
        run(scenario, tmp_path / "a")
        run(scenario, tmp_path / "b")
        rel_a = sorted(p.relative_to(tmp_path / "a")
                       for p in (tmp_path / "a").rglob("*") if p.is_file())
        rel_b = sorted(p.relative_to(tmp_path / "b")
                       for p in (tmp_path / "b").rglob("*") if p.is_file())
        ok = rel_a == rel_b and all(
            (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
            for rel in rel_a
        )
        report(10, "byte-identical artifact reproduction", ok,
               f"{len(rel_a)} artifacts compared")
        assert ok
