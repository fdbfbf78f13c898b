import numpy as np
import pytest

from rhflab.diagnostics import wigner_transform
from rhflab.grids import Grid, PotentialSpec, convolve_potential, gaussian_vhat
from rhflab import vlasov
from rhflab.orbitals import OrbitalSet
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
        out = vlasov._shift_x(values, disp_x, dx)
        assert out.shape == values.shape and out.dtype == float
        ref = reference_shift_x(values, disp_x, dx)
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))
        out = vlasov._shift_v(values, disp_v, dv)
        ref = reference_shift_v(values, disp_v, dv)
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_step_matches_complex_reference(self, monkeypatch):
        grid, x, v = phase_grid(n=64)
        pot = PotentialSpec(grid, gaussian_vhat(grid, 1.0), coupling=0.5)
        field = PhaseSpaceField(gaussian_blob(x, v, x0=0.7, v0=-0.3), x, v,
                                grid.box_length, grid.epsilon)
        out = vlasov_run(field, pot, 1.0, dt=0.02, t_final=0.2)
        monkeypatch.setattr(vlasov, "_shift_x", reference_shift_x)
        monkeypatch.setattr(vlasov, "_shift_v", reference_shift_v)
        ref = vlasov_run(field, pot, 1.0, dt=0.02, t_final=0.2)
        assert np.max(np.abs(out.values - ref.values)) <= 1e-14 * np.max(np.abs(ref.values))


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
        field, pot = self._field()
        calls = []

        def counting_step(*args):
            calls.append(args[-1])
            return vlasov_step(*args)

        monkeypatch.setattr(vlasov, "vlasov_step", counting_step)
        vlasov_run(field, pot, 1.0, dt=dt, t_final=t_final)
        assert calls == [dt] * n_steps


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
