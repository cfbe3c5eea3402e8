import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xtalk.dynamics import QubitState, rotation_error, rotation_unitary
from xtalk.field import (
    CompensationSetting,
    CrosstalkContext,
    amplitude_tolerance,
    effective_magnitude,
    effective_magnitude_polarized,
    phase_tolerance,
    pi_pulse_error,
    relative_error,
)

OMEGA = 2 * math.pi * 50e3


class TestEffectiveMagnitude:
    def test_matched_opposed_is_zero(self):
        assert effective_magnitude(1.0, math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_break_even_boundary(self):
        assert effective_magnitude(1.0, 2.0 * math.pi / 3.0) == pytest.approx(1.0, abs=1e-12)

    def test_amplitude_mismatch(self):
        assert effective_magnitude(0.8, math.pi) == pytest.approx(0.2, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(f=st.floats(0.0, 3.0), dphi=st.floats(0.0, 2.0 * math.pi))
    def test_matches_complex_modulus(self, f, dphi):
        direct = abs(1.0 + f * cmath.exp(1j * dphi))
        assert effective_magnitude(f, dphi) == pytest.approx(direct, abs=1e-12)


def suppressing(f, dphi):
    """The break-even condition: the tone lowers the crosstalk amplitude iff
    ``cos(dphi) < -f / 2``, for ``f > 0``."""
    return f > 0.0 and math.cos(dphi) < -0.5 * f


class TestIsSuppressing:
    def test_matched_opposed(self):
        assert suppressing(1.0, math.pi) and effective_magnitude(1.0, math.pi) < 1.0

    def test_boundary_is_not_improvement(self):
        # the one point the property test below leaves out: on the boundary
        assert not suppressing(1.0, 2.0 * math.pi / 3.0)
        assert effective_magnitude(1.0, 2.0 * math.pi / 3.0) == pytest.approx(1.0, abs=1e-15)

    def test_zero_compensation(self):
        for dphi in (0.0, 1.0, math.pi):
            assert effective_magnitude(0.0, dphi) == 1.0

    @settings(max_examples=150, deadline=None)
    @given(f=st.floats(1e-6, 3.0), dphi=st.floats(0.0, 2.0 * math.pi))
    def test_agrees_with_magnitude(self, f, dphi):
        assume(abs(math.cos(dphi) + 0.5 * f) > 1e-9)
        assert suppressing(f, dphi) == (effective_magnitude(f, dphi) < 1.0)


class TestPiPulseError:
    def test_bare_crosstalk_value(self):
        err = pi_pulse_error(1, 0.096)
        assert err == pytest.approx(math.sin(0.5 * math.pi * 0.096) ** 2, abs=1e-15)
        assert err == pytest.approx(2.26e-2, abs=1e-4)

    def test_compensated_value(self):
        # residual ratio 4e-3 regardless of how it is reached
        err = pi_pulse_error(1, 4e-3)
        assert err == pytest.approx(3.95e-5, rel=2e-3)

    def test_exact_setting_is_zero(self):
        for f_ct in (0.01, 0.096, 0.3):
            assert pi_pulse_error(1, f_ct, 1.0, math.pi) == pytest.approx(0.0, abs=1e-15)

    def test_rejects_zero_pulses(self):
        with pytest.raises(ValueError):
            pi_pulse_error(0, 0.1)

    def test_matches_time_domain_rotation(self):
        # closed form against the unitary evolution on an axis-orthogonal state
        ground = QubitState.ground()
        for n in (1, 2, 5, 17, 64):
            for f_eff in (1e-4, 4e-3, 0.05, 0.2):
                u = rotation_unitary(f_eff * OMEGA, 0.0, n * math.pi / OMEGA)
                assert pi_pulse_error(n, f_eff) == pytest.approx(
                    rotation_error(ground, u), abs=1e-9
                )


class TestRelativeError:
    def test_perfect_setting(self):
        assert relative_error(1.0, math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_phase_tolerance_ten_fold(self):
        assert relative_error(1.0, math.pi + 0.3176) == pytest.approx(0.100, abs=1e-3)
        assert relative_error(1.0, math.pi - 0.3176) == pytest.approx(0.100, abs=1e-3)
        assert phase_tolerance(0.1) == pytest.approx(2.0 * math.asin(math.sqrt(0.1) / 2.0))

    def test_amplitude_tolerance_ten_fold(self):
        assert relative_error(1.316, math.pi) == pytest.approx(0.0999, abs=1e-4)
        assert amplitude_tolerance(0.1) == pytest.approx(math.sqrt(0.1), abs=1e-12)

    def test_equals_squared_magnitude(self):
        for f, dphi in [(0.3, 1.0), (1.0, 2.5), (1.7, 4.0)]:
            assert relative_error(f, dphi) == pytest.approx(
                effective_magnitude(f, dphi) ** 2, abs=1e-12
            )

    @pytest.mark.parametrize("eps", [1e-9, 1e-6])
    def test_keeps_precision_near_cancellation(self, eps):
        # 1 + 1 + 2 cos(pi + eps) = 4 sin^2(eps / 2); the expanded sum cancels to 0
        expected = 4.0 * math.sin(0.5 * eps) ** 2
        assert relative_error(1.0, math.pi + eps) == pytest.approx(expected, rel=1e-6, abs=0.0)
        assert effective_magnitude(1.0, math.pi + eps) ** 2 == pytest.approx(expected, rel=1e-6, abs=0.0)

    def test_zero_set_is_unique(self):
        # zero only at (1, pi)
        assert relative_error(1.0, math.pi) < 1e-15
        for f in np.linspace(0.0, 2.0, 41):
            for dphi in np.linspace(0.0, 2.0 * math.pi, 81, endpoint=False):
                if abs(f - 1.0) > 1e-3 or abs(dphi - math.pi) > 1e-3:
                    assert relative_error(f, dphi) > 1e-7

    @settings(max_examples=150, deadline=None)
    @given(f=st.floats(1e-6, 3.0), dphi=st.floats(0.0, 2.0 * math.pi))
    def test_below_one_iff_suppressing(self, f, dphi):
        assume(abs(math.cos(dphi) + 0.5 * f) > 1e-9)
        assert (relative_error(f, dphi) < 1.0) == suppressing(f, dphi)

    def test_even_and_monotone_in_phase_offset(self):
        offsets = np.linspace(0.0, math.pi, 200)
        values = [relative_error(1.0, math.pi + d) for d in offsets]
        mirror = [relative_error(1.0, math.pi - d) for d in offsets]
        assert np.allclose(values, mirror, atol=1e-12)
        assert all(b > a for a, b in zip(values[:-1], values[1:]))


class TestPolarization:
    def test_full_overlap_reduces_to_plain(self):
        for f, dphi in [(0.5, 1.0), (1.0, math.pi), (1.3, 2.0)]:
            assert effective_magnitude_polarized(f, dphi, 1.0) == pytest.approx(
                effective_magnitude(f, dphi), abs=1e-12
            )

    @pytest.mark.parametrize("p", [1.0, 0.9, 0.3])
    def test_array_form_matches_scalar_form(self, p):
        dials = np.linspace(-1.0, 2.0 * math.pi + 1.0, 257)
        for f in (0.0, 0.5, 1.0, 1.7):
            array = effective_magnitude_polarized(f, dials, p)
            assert array.shape == dials.shape
            scalar = [effective_magnitude_polarized(f, float(d), p) for d in dials]
            np.testing.assert_array_equal(array, scalar)
            coherent = np.abs(1.0 + p * f * np.exp(1j * dials))
            assert np.allclose(array, np.hypot(coherent, math.sqrt(1.0 - p * p) * f),
                               rtol=1e-14, atol=0.0)
        with pytest.raises(ValueError):
            effective_magnitude_polarized(1.0, dials, 1.5)

    def test_floor_matches_grid_minimum(self):
        p = 0.9
        floor = math.sqrt(1.0 - p * p)  # at f_comp = p, delta_phi = pi
        assert effective_magnitude_polarized(p, math.pi, p) == pytest.approx(floor, abs=1e-12)
        grid = min(
            effective_magnitude_polarized(f, d, p)
            for f in np.linspace(0.0, 2.0, 801)
            for d in np.linspace(0.0, 2.0 * math.pi, 721)
        )
        assert grid == pytest.approx(floor, abs=1e-3)
        assert grid >= floor - 1e-12


class TestTypes:
    def test_setting_wraps_phase(self):
        s = CompensationSetting(1.0, -0.5)
        assert 0.0 <= s.delta_phi < 2.0 * math.pi
        assert s.delta_phi == pytest.approx(2.0 * math.pi - 0.5)

    def test_setting_rejects_negative_amplitude(self):
        with pytest.raises(ValueError):
            CompensationSetting(-0.1, 0.0)

    def test_context_validation(self):
        with pytest.raises(ValueError):
            CrosstalkContext(omega_0=0.0, f_ct=0.1)
        with pytest.raises(ValueError):
            CrosstalkContext(omega_0=OMEGA, f_ct=-0.1)
        with pytest.raises(ValueError):
            CrosstalkContext(omega_0=OMEGA, f_ct=0.1, pol_overlap=1.5)

    def test_context_pi_times(self):
        ctx = CrosstalkContext(omega_0=OMEGA, f_ct=0.096)
        assert ctx.t_pi == pytest.approx(math.pi / OMEGA)
        assert ctx.t_pi_ct == pytest.approx(math.pi / (0.096 * OMEGA))
        # 50 kHz drive with 9.6% crosstalk flops the spectator in ~104 us
        assert ctx.t_pi_ct == pytest.approx(104.2e-6, rel=1e-3)

    @pytest.mark.parametrize("omega_0, f_ct", [(OMEGA, 0.0), (5e-324, 0.096)])
    def test_crosstalk_pi_time_undefined_at_zero_rate(self, omega_0, f_ct):
        # the second product underflows to 0: a ValueError, not ZeroDivisionError
        with pytest.raises(ValueError, match="undefined"):
            CrosstalkContext(omega_0=omega_0, f_ct=f_ct).t_pi_ct
