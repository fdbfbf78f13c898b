import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from rhflab.diagnostics import wigner_transform
from rhflab.grids import (Dispersion, Grid, PotentialSpec, convolve_potential, gaussian_vhat,
                          harmonic_trap)
from rhflab import vlasov
from rhflab.orbitals import OrbitalSet
from rhflab.propagate import step_count
from rhflab.scf import ScfConfig, scf_minimize
from rhflab.vlasov import (
    PhaseSpaceField,
    compare_to_wigner,
    vlasov_run,
    vlasov_step,
)

from reference_orbitals import gaussian_orbital


def vlasov_energy(field: PhaseSpaceField, potential: PotentialSpec, m0: float) -> float:
    """∫∫ sqrt(v²+m0²) W dx dv + ½ ∫ (V*ρ) ρ dx."""
    cell = field.dx * field.dv
    kinetic = float(np.sum(np.sqrt(field.v_grid**2 + m0**2) * field.values) * cell)
    rho = field.position_marginal()
    conv = convolve_potential(rho, potential.grid, potential)
    return kinetic + 0.5 * float(np.sum(conv * rho) * field.dx)


def phase_grid(n=128, L=4.0 * np.pi, eps=0.125):
    grid = Grid(1, n, L, eps)
    v = np.sort(eps * grid.p_axis)
    return grid, grid.x_axis.copy(), v


def gaussian_blob(x, v, x0=0.0, v0=0.0, sx=0.6, sv=0.4):
    xx, vv = np.meshgrid(x, v, indexing="ij")
    w = np.exp(-((xx - x0) ** 2) / (2 * sx**2) - ((vv - v0) ** 2) / (2 * sv**2))
    return w / (np.sum(w) * (x[1] - x[0]) * (v[1] - v[0]))


def reference_shift_x(values, displacement, dx):
    """Complex-FFT shift per v-row; the real part drops the Nyquist remainder."""
    k = 2.0 * np.pi * np.fft.fftfreq(values.shape[0], d=dx)
    vhat = np.fft.fft(values, axis=0) * np.exp(-1j * np.outer(k, displacement))
    return np.fft.ifft(vhat, axis=0).real


def reference_shift_v(values, displacement, dv):
    k = 2.0 * np.pi * np.fft.fftfreq(values.shape[1], d=dv)
    vhat = np.fft.fft(values, axis=1) * np.exp(-1j * np.outer(displacement, k))
    return np.fft.ifft(vhat, axis=1).real


def exp_phase_shift_v(values, displacement, dv):
    """The real-transform v-shift with its phase from one complex exp."""
    n = values.shape[1]
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=dv)
    vhat = np.fft.rfft(values, axis=1)
    vhat *= np.exp(-1j * np.outer(displacement, k))
    return np.fft.irfft(vhat, n=n, axis=1)


def real_shift_x(values, displacement, dx):
    """The real-transform x-shift with its own phase table, as each half step applied it."""
    n = values.shape[0]
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=dx)
    vhat = np.fft.rfft(values, axis=0)
    vhat *= np.exp(-1j * np.outer(k, displacement))
    return np.fft.irfft(vhat, n=n, axis=0)


def unfused_vlasov_run(field, potential, m0, dt, t_final, shift_x=real_shift_x,
                       shift_v=vlasov._shift_v):
    """Strang steps of three shifts each (half x, kick v, half x), the fused run's reference.

    The step as it was before adjacent half x-shifts were fused, without its
    CFL warnings and non-finite abort.
    """
    u = field.v_grid / np.sqrt(field.v_grid**2 + m0**2)
    values = field.values
    for _ in range(step_count(0.0, t_final, dt)):
        half = shift_x(values, 0.5 * dt * u, field.dx)
        work = PhaseSpaceField(half, field.x_grid, field.v_grid, field.box_length,
                               field.epsilon)
        kicked = shift_v(half, dt * vlasov._force(work, potential), field.dv)
        values = shift_x(kicked, 0.5 * dt * u, field.dx)
    return PhaseSpaceField(values, field.x_grid, field.v_grid, field.box_length,
                           field.epsilon)


def max_rel_diff(out, ref):
    return np.max(np.abs(out.values - ref.values)) / np.max(np.abs(ref.values))


class TestRealShifts:
    """Real-transform shifts against the complex-FFT reference above."""

    def test_v_shift_matches_exp_phase(self):
        # cos θ and -sin θ written into one buffer give exp(-iθ) to the last
        # bit wherever the complex exp evaluates the same cos and sin (numpy
        # 2.4 on x86-64 Linux); the bound allows an ulp of the phase elsewhere
        rng = np.random.default_rng(41)
        values = rng.standard_normal((256, 256))
        for scale in (1e-3, 0.1, 30.0):
            disp_v = rng.uniform(-scale, scale, 256)
            out = vlasov._shift_v(values, disp_v, 0.05)
            ref = exp_phase_shift_v(values, disp_v, 0.05)
            assert np.max(np.abs(out - ref)) <= 4 * np.finfo(float).eps * np.max(np.abs(ref))

    def test_shifts_match_complex_reference(self):
        rng = np.random.default_rng(40)
        values = rng.standard_normal((64, 32))
        dx, dv = 0.2, 0.05
        disp_x = rng.uniform(-0.5, 0.5, 32)
        disp_v = rng.uniform(-0.1, 0.1, 64)
        out = vlasov._shift_x(values, vlasov._x_phase(64, dx, disp_x))
        assert out.shape == values.shape and out.dtype == float
        ref = reference_shift_x(values, disp_x, dx)
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))
        out = vlasov._shift_v(values, disp_v, dv)
        ref = reference_shift_v(values, disp_v, dv)
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_step_matches_complex_reference(self):
        grid, x, v = phase_grid(n=64)
        pot = PotentialSpec(grid, gaussian_vhat(grid, 1.0), coupling=0.5)
        field = PhaseSpaceField(gaussian_blob(x, v, x0=0.7, v0=-0.3), x, v,
                                grid.box_length, grid.epsilon)
        out = vlasov_run(field, pot, 1.0, dt=0.02, t_final=0.2)
        ref = unfused_vlasov_run(field, pot, 1.0, 0.02, 0.2, shift_x=reference_shift_x,
                                 shift_v=reference_shift_v)
        assert max_rel_diff(out, ref) <= 1e-14


class TestStepCount:
    def _field(self):
        grid, x, v = phase_grid(n=16)
        pot = PotentialSpec(grid, gaussian_vhat(grid, 1.0), coupling=0.5)
        field = PhaseSpaceField(gaussian_blob(x, v), x, v, grid.box_length, grid.epsilon)
        return field, pot

    def test_span_not_a_multiple_of_dt_rejected(self):
        field, pot = self._field()
        with pytest.raises(ValueError, match="whole number"):
            vlasov_run(field, pot, 1.0, dt=0.03, t_final=1.0)

    @pytest.mark.parametrize("t_final, dt, n_steps",
                             [(1.0, 0.02, 50), (0.3, 0.0025, 120), (1.0, 0.01, 100)])
    def test_spans_in_use_run(self, t_final, dt, n_steps, monkeypatch):
        # one kick in v per step, and one x-shift more than kicks
        field, pot = self._field()
        kicks, x_shifts = [], []
        shift_v, shift_x = vlasov._shift_v, vlasov._shift_x

        def counting_kick(values, displacement, dv):
            kicks.append(dv)
            return shift_v(values, displacement, dv)

        def counting_x_shift(values, phase):
            x_shifts.append(phase.shape)
            return shift_x(values, phase)

        monkeypatch.setattr(vlasov, "_shift_v", counting_kick)
        monkeypatch.setattr(vlasov, "_shift_x", counting_x_shift)
        vlasov_run(field, pot, 1.0, dt=dt, t_final=t_final)
        assert kicks == [field.dv] * n_steps
        assert len(x_shifts) == n_steps + 1


def odd_n_setup(n=63, L=4.0 * np.pi, eps=0.125):
    """A blob on an odd x-grid (no Nyquist bin) and a Gaussian pair potential on it.

    Grid takes powers of two only, so the potential is a stand-in with the
    fields the Vlasov force reads.
    """
    x = L * np.arange(n) / n - L / 2
    p = 2.0 * np.pi * np.fft.fftfreq(n, d=L / n)
    v = np.sort(eps * p)
    grid = SimpleNamespace(n=n, dim=1, box_length=L, p_axis=p)
    pot = SimpleNamespace(grid=grid, vhat_eff=0.5 * np.exp(-(p**2) / 2))
    field = PhaseSpaceField(gaussian_blob(x, v, x0=0.7, v0=-0.3), x, v, L, eps)
    return field, pot


class TestFusedRun:
    """The fused run against unfused_vlasov_run, three shifts per step."""

    def test_scf_wigner_field(self):
        # the hartree_phase_space workload's Vlasov leg: a trapped N = 16
        # state's Wigner field, 120 steps of 2.5e-3; even n, so the
        # Nyquist rule of the full-step table matters
        grid = Grid(1, 256, 4.0 * np.pi, 1.0 / 16)
        pot = PotentialSpec(grid, gaussian_vhat(grid, 1.0), vext=harmonic_trap(grid, 1.0),
                            coupling=0.5)
        res = scf_minimize(grid, pot, 16, Dispersion.relativistic(1.0),
                           ScfConfig(max_iterations=120, convergence_tol=1e-10))
        field = PhaseSpaceField.from_wigner(wigner_transform(res.orbitals))
        out = vlasov_run(field, pot, 1.0, dt=2.5e-3, t_final=0.3)
        ref = unfused_vlasov_run(field, pot, 1.0, 2.5e-3, 0.3)
        assert max_rel_diff(out, ref) <= 1e-13

    def test_blob(self):
        grid, x, v = phase_grid(n=64)
        pot = PotentialSpec(grid, gaussian_vhat(grid, 1.0), coupling=0.5)
        field = PhaseSpaceField(gaussian_blob(x, v, x0=0.7, v0=-0.3), x, v,
                                grid.box_length, grid.epsilon)
        out = vlasov_run(field, pot, 1.0, dt=0.01, t_final=1.0)
        ref = unfused_vlasov_run(field, pot, 1.0, 0.01, 1.0)
        assert max_rel_diff(out, ref) <= 1e-13

    def test_odd_n_grid(self):
        field, pot = odd_n_setup()
        out = vlasov_run(field, pot, 1.0, dt=0.01, t_final=1.0)
        ref = unfused_vlasov_run(field, pot, 1.0, 0.01, 1.0)
        assert max_rel_diff(out, ref) <= 1e-13

    @pytest.mark.parametrize("n", [64, 63])
    def test_step_is_one_reference_step(self, n):
        if n % 2:
            field, pot = odd_n_setup(n)
        else:
            grid, x, v = phase_grid(n=n)
            pot = PotentialSpec(grid, gaussian_vhat(grid, 1.0), coupling=0.5)
            field = PhaseSpaceField(gaussian_blob(x, v, x0=0.7, v0=-0.3), x, v,
                                    grid.box_length, grid.epsilon)
        out = vlasov_step(field, pot, 1.0, 0.01)
        ref = unfused_vlasov_run(field, pot, 1.0, 0.01, 0.01)
        np.testing.assert_array_equal(out.values, ref.values)

    def test_zero_span_returns_field(self):
        grid, x, v = phase_grid(n=16)
        pot = PotentialSpec(grid, gaussian_vhat(grid, 1.0), coupling=0.5)
        field = PhaseSpaceField(gaussian_blob(x, v), x, v, grid.box_length, grid.epsilon)
        assert vlasov_run(field, pot, 1.0, dt=0.01, t_final=0.0) is field


class TestPotentialGrid:
    @pytest.mark.parametrize("n, box_length", [(64, 4.0 * np.pi), (32, 2.0 * np.pi)])
    def test_mismatched_potential_grid_rejected(self, n, box_length):
        grid, x, v = phase_grid(n=64, L=2.0 * np.pi)
        field = PhaseSpaceField(gaussian_blob(x, v), x, v, grid.box_length, grid.epsilon)
        other = Grid(1, n, box_length, grid.epsilon)
        pot = PotentialSpec(other, gaussian_vhat(other, 1.0), coupling=0.5)
        with pytest.raises(ValueError, match="does not match"):
            vlasov_step(field, pot, 1.0, 0.01)
        with pytest.raises(ValueError, match="does not match"):
            vlasov_run(field, pot, 1.0, dt=0.01, t_final=0.1)


class TestFreeTransport:
    def test_exact_on_band_limited_data(self):
        grid, x, v = phase_grid()
        m0, x0, v0, sx, sv = 1.0, -2.0, 0.5, 0.6, 0.4
        xx, vv = np.meshgrid(x, v, indexing="ij")
        raw = np.exp(-((xx - x0) ** 2) / (2 * sx**2) - ((vv - v0) ** 2) / (2 * sv**2))
        norm = 1.0 / (np.sum(raw) * (x[1] - x[0]) * (v[1] - v[0]))
        field = PhaseSpaceField(raw * norm, x, v, grid.box_length, grid.epsilon)
        pot = PotentialSpec(grid, np.zeros(grid.shape))
        t = 1.0
        out = vlasov_run(field, pot, m0, dt=0.01, t_final=t)
        # independent oracle: initial Gaussian evaluated on back-tracked
        # characteristics x - t·u(v), wrapped periodically around the center
        u = v / np.sqrt(v**2 + m0**2)
        L = grid.box_length
        rel = xx - t * u[None, :] - x0
        rel = (rel + L / 2) % L - L / 2
        ref = norm * np.exp(-(rel**2) / (2 * sx**2) - ((vv - v0) ** 2) / (2 * sv**2))
        assert np.max(np.abs(out.values - ref)) <= 1e-8 * np.max(ref)

    def test_mass_conserved_per_step(self):
        grid, x, v = phase_grid()
        pot = PotentialSpec(grid, gaussian_vhat(grid, 1.0), coupling=0.5)
        field = PhaseSpaceField(gaussian_blob(x, v), x, v, grid.box_length, grid.epsilon)
        m_before = field.mass()
        out = vlasov_step(field, pot, 1.0, 0.01)
        assert abs(out.mass() - m_before) <= 1e-10

    def test_uniform_in_x_stationary(self):
        grid, x, v = phase_grid()
        pot = PotentialSpec(grid, gaussian_vhat(grid, 1.0), coupling=1.0)
        w = np.tile(np.exp(-(v**2) / 0.5), (len(x), 1))
        w /= np.sum(w) * (x[1] - x[0]) * (v[1] - v[0])
        field = PhaseSpaceField(w.copy(), x, v, grid.box_length, grid.epsilon)
        out = vlasov_run(field, pot, 1.0, dt=0.02, t_final=0.2)
        assert np.max(np.abs(out.values - w)) <= 1e-12 * np.max(w)


class TestStability:
    def test_cfl_warning(self):
        grid, x, v = phase_grid()
        pot = PotentialSpec(grid, np.zeros(grid.shape))
        field = PhaseSpaceField(gaussian_blob(x, v), x, v, grid.box_length, grid.epsilon)
        with pytest.warns(UserWarning, match="displacement"):
            vlasov_step(field, pot, 1.0, dt=1.0)

    def test_cfl_warning_each_step_at_caller(self):
        grid, x, v = phase_grid()
        pot = PotentialSpec(grid, np.zeros(grid.shape))
        field = PhaseSpaceField(gaussian_blob(x, v), x, v, grid.box_length, grid.epsilon)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            vlasov_run(field, pot, 1.0, dt=1.0, t_final=3.0)
            vlasov_step(field, pot, 1.0, dt=1.0)
        assert [w.filename for w in caught] == [__file__] * 4
        assert all("transport displacement" in str(w.message) for w in caught)

    def test_nan_aborts(self):
        grid, x, v = phase_grid()
        pot = PotentialSpec(grid, np.zeros(grid.shape))
        bad = gaussian_blob(x, v)
        bad[0, 0] = np.nan
        field = PhaseSpaceField(bad, x, v, grid.box_length, grid.epsilon)
        with pytest.raises(RuntimeError, match="non-finite"):
            vlasov_step(field, pot, 1.0, dt=0.01)

    def test_energy_drift_small(self):
        grid, x, v = phase_grid(n=128)
        pot = PotentialSpec(grid, gaussian_vhat(grid, 1.0), coupling=0.5)
        field = PhaseSpaceField(gaussian_blob(x, v, sx=0.8, sv=0.5), x, v,
                                grid.box_length, grid.epsilon)
        m0 = 1.0
        e0 = vlasov_energy(field, pot, m0)
        out = vlasov_run(field, pot, m0, dt=0.005, t_final=1.0)
        e1 = vlasov_energy(out, pot, m0)
        assert abs(e1 - e0) <= 1e-4 * abs(e0)

    def test_negative_overshoot_bounded(self):
        grid, x, v = phase_grid(n=128)
        pot = PotentialSpec(grid, gaussian_vhat(grid, 1.0), coupling=0.5)
        field = PhaseSpaceField(gaussian_blob(x, v, sx=0.8, sv=0.5), x, v,
                                grid.box_length, grid.epsilon)
        out = vlasov_run(field, pot, 1.0, dt=0.005, t_final=1.0)
        assert abs(min(np.min(out.values), 0.0)) <= 1e-3 * np.max(out.values)


class TestCompare:
    def test_identical_fields_zero(self):
        grid, x, v = phase_grid()
        field = PhaseSpaceField(gaussian_blob(x, v), x, v, grid.box_length, grid.epsilon)
        w = PhaseSpaceField(field.values.copy(), x, v, grid.box_length, grid.epsilon)
        d = compare_to_wigner(field, w)
        assert d["l2"] == 0.0
        assert d["marginal_l2"] == 0.0

    def test_initialized_from_wigner_zero(self):
        grid = Grid(1, 128, 4.0 * np.pi, 0.125)
        orbs = OrbitalSet(gaussian_orbital(grid, sigma=0.5)[None, :], grid)
        w = wigner_transform(orbs)
        field = PhaseSpaceField.from_wigner(w)
        d = compare_to_wigner(field, w)
        assert d["l2"] == 0.0

    def test_grid_mismatch_rejected(self):
        grid, x, v = phase_grid()
        field = PhaseSpaceField(gaussian_blob(x, v), x, v, grid.box_length, grid.epsilon)
        w = PhaseSpaceField(field.values[:64, :].copy(), x[:64], v, grid.box_length,
                        grid.epsilon)
        with pytest.raises(ValueError):
            compare_to_wigner(field, w)
