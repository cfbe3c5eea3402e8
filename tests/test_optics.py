import math

import numpy as np
import pytest
from scipy.integrate import quad

from xtalk.errors import NumericalFailureError, OutOfRangeError
from xtalk.optics import (
    BeamProfile,
    _focal_field_fixed,
    clipped_focus_profile,
    focal_field,
    gaussian_intensity,
    load_device_map_csv,
    total_crosstalk_ratio,
)

W0 = 1.6  # um
LAM = 729.0  # nm
NA = 0.35


def pupil_half_angle():
    return (LAM * 1e-3) / (math.pi * W0)


class TestClippedFocusProfile:
    def test_unclipped_limit_is_gaussian(self):
        # aperture at >= 5 pupil waists passes the mode essentially intact
        na = 5.5 * pupil_half_angle()
        grid = np.linspace(-2.0 * W0, 2.0 * W0, 161)
        profile = clipped_focus_profile(W0, LAM, na, grid)
        ideal = gaussian_intensity(grid, W0)
        assert np.max(np.abs(profile - ideal) / ideal) < 1e-3

    def test_clipping_lifts_the_tail(self):
        grid = np.array([5.0])
        profile = clipped_focus_profile(W0, LAM, NA, grid)
        tail = gaussian_intensity(grid, W0)[0]
        assert profile[0] > tail
        assert profile[0] < 1e-3

    def test_peak_normalized(self):
        grid = np.linspace(-6.0, 6.0, 301)
        profile = clipped_focus_profile(W0, LAM, NA, grid)
        assert np.max(profile) <= 1.0 + 1e-12
        mid = clipped_focus_profile(W0, LAM, NA, np.array([0.0]))
        assert mid[0] == pytest.approx(1.0, abs=1e-12)

    def test_energy_conservation(self):
        # Parseval: integral of focal intensity equals lambda times the
        # transmitted pupil energy, checked with independent quadrature
        grid = np.linspace(-60.0, 60.0, 24001)
        e = focal_field(W0, LAM, NA, grid)
        focal_energy = np.trapezoid(np.abs(e) ** 2, grid)
        sw = pupil_half_angle()
        pupil_energy, _ = quad(lambda s: math.exp(-2.0 * (s / sw) ** 2), -NA, NA)
        lam_um = LAM * 1e-3
        assert focal_energy == pytest.approx(lam_um * pupil_energy, rel=1e-4)

    def test_monotone_convergence(self):
        grid = np.linspace(-8.0, 8.0, 101)
        levels = [257, 513, 1025, 2049, 4097]
        profiles = [np.abs(_focal_field_fixed(W0, LAM, NA, grid, n)) ** 2 for n in levels]
        peak = profiles[-1].max()
        changes = [
            np.max(np.abs(a - b)) / peak for a, b in zip(profiles[:-1], profiles[1:])
        ]
        assert all(b <= a for a, b in zip(changes[:-1], changes[1:]))
        assert changes[-1] <= 1e-6

    def test_non_convergence_raises(self):
        with pytest.raises(NumericalFailureError):
            focal_field(W0, LAM, NA, np.array([0.0, 5.0]), max_refinements=0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            clipped_focus_profile(-1.0, LAM, NA, np.array([0.0]))
        with pytest.raises(ValueError):
            clipped_focus_profile(W0, LAM, NA, np.array([]))


# the addressing device's 11 cores, 5 um apart and centered on 0
CORES = [5.0 * (i - 10 / 2.0) for i in range(11)]


def _reference_default(waist_um):
    """``BeamProfile.default``'s grid and per-core maps as the 11-core
    construction built them, core ``i``'s row the field when it is driven."""
    span = CORES[-1] + 4.0 * waist_um
    grid = np.linspace(-span, span, 2001)

    def mode(center):
        return np.exp(-(((grid - center) / waist_um) ** 2))

    fields = np.zeros((11, grid.size))
    for i, x0 in enumerate(CORES):
        f = mode(x0)
        if i > 0:
            f = f + 0.1 * mode(CORES[i - 1])
        if i < 10:
            f = f + 0.1 * mode(CORES[i + 1])
        fields[i] = f / np.interp(x0, grid, f)
    return grid, fields


def _reference_from_csv(path):
    """``BeamProfile.from_csv``'s grid and per-core maps as the 11-core
    construction built them: the measured profile shifted to each core."""
    pos, rel = load_device_map_csv(path)
    span = CORES[-1] + float(np.max(np.abs(pos)))
    grid = np.linspace(-span, span, 2001)
    fields = np.zeros((11, grid.size))
    for i, x0 in enumerate(CORES):
        fields[i] = np.interp(grid - x0, pos, rel, left=0.0, right=0.0) / np.interp(0.0, pos, rel)
    return grid, fields


def _write_map(path, xs, rel):
    lines = ["position_um,relative_field"] + [f"{x},{r}" for x, r in zip(xs, rel)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestBeamProfile:
    def test_default_map_normalized_at_core(self):
        assert BeamProfile.default().device_field(0.0) == pytest.approx(1.0, abs=1e-9)

    def test_default_neighbor_intensity(self):
        amp = BeamProfile.default().device_field(5.0)
        assert amp**2 == pytest.approx(1e-2, rel=0.05)

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            BeamProfile(np.array([0.0, -1.0]), np.ones(2))

    def test_field_must_match_grid(self):
        with pytest.raises(ValueError):
            BeamProfile(np.array([0.0, 1.0]), np.ones((1, 2)))

    def test_out_of_range(self):
        profile = BeamProfile.default()
        with pytest.raises(OutOfRangeError):
            profile.device_field(1e4)

    @pytest.mark.parametrize("waist", [0.3, 1.6, 2.2, 7.0, 0.05])
    def test_default_is_the_middle_core_of_the_array(self, waist):
        # the one kept field is the driven core's row of the 11-core maps, bit for bit
        grid, fields = _reference_default(waist)
        profile = BeamProfile.default(waist)
        assert np.array_equal(profile.grid_um, grid)
        assert np.array_equal(profile.field, fields[5])

    def test_from_csv_is_the_middle_core_of_the_array(self, tmp_path):
        path = tmp_path / "map.csv"
        xs = np.linspace(-9.3, 7.1, 337)
        _write_map(path, xs, np.exp(-((xs / 1.3) ** 2)) + 0.12 * np.exp(-(((xs + 5.0) / 1.3) ** 2)))
        grid, fields = _reference_from_csv(path)
        profile = BeamProfile.from_csv(path)
        assert np.array_equal(profile.grid_um, grid)
        assert np.array_equal(profile.field, fields[5])


class TestTotalCrosstalkRatio:
    @staticmethod
    def _gaussian_only_profile():
        grid = np.linspace(-12.0, 12.0, 2401)
        return BeamProfile(grid, np.zeros(grid.size))

    def test_pure_gaussian_limit(self):
        profile = self._gaussian_only_profile()
        diffraction = gaussian_intensity(profile.grid_um, W0)
        est = total_crosstalk_ratio(profile, diffraction, 5.0)
        expected = math.exp(-2.0 * (5.0 / W0) ** 2)
        assert est.intensity_ratio == pytest.approx(expected, rel=1e-9)
        assert est.rabi_ratio == pytest.approx(math.sqrt(expected), rel=1e-9)

    def test_default_device_dominates(self):
        profile = BeamProfile.default()
        diffraction = clipped_focus_profile(W0, LAM, NA, profile.grid_um)
        est = total_crosstalk_ratio(profile, diffraction, 5.0)
        assert est.intensity_ratio == pytest.approx(1e-2, rel=0.1)
        assert est.rabi_ratio == pytest.approx(0.1, rel=0.05)
        assert est.device_amplitude > est.diffraction_amplitude

    def test_coherent_bounds_bracket_incoherent(self):
        profile = BeamProfile.default()
        diffraction = clipped_focus_profile(W0, LAM, NA, profile.grid_um)
        worst = total_crosstalk_ratio(profile, diffraction, 5.0, relative_phase=0.0)
        best = total_crosstalk_ratio(profile, diffraction, 5.0, relative_phase=math.pi)
        assert worst.intensity_ratio >= worst.incoherent_intensity_ratio >= best.intensity_ratio
        a, b = worst.device_amplitude, worst.diffraction_amplitude
        assert worst.intensity_ratio == pytest.approx((a + b) ** 2, rel=1e-12)
        assert best.intensity_ratio == pytest.approx((a - b) ** 2, rel=1e-9)
        assert worst.incoherent_intensity_ratio == pytest.approx(a * a + b * b, rel=1e-12)

    def test_polarization_scales_rabi(self):
        profile = self._gaussian_only_profile()
        diffraction = gaussian_intensity(profile.grid_um, W0)
        est = total_crosstalk_ratio(profile, diffraction, 5.0, pol_overlap=0.9)
        assert est.rabi_ratio == pytest.approx(0.9 * math.sqrt(est.intensity_ratio), rel=1e-12)

    def test_separation_out_of_range(self):
        profile = self._gaussian_only_profile()
        diffraction = gaussian_intensity(profile.grid_um, W0)
        with pytest.raises(OutOfRangeError):
            total_crosstalk_ratio(profile, diffraction, 100.0)


class TestDeviceMapCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "map.csv"
        xs = np.linspace(-8.0, 8.0, 401)
        _write_map(path, xs, np.exp(-((xs / W0) ** 2)) + 0.1 * np.exp(-(((xs - 5.0) / W0) ** 2)))
        pos, field = load_device_map_csv(path)
        assert pos.shape == field.shape == (401,)
        profile = BeamProfile.from_csv(path)
        assert profile.device_field(0.0) == pytest.approx(1.0, abs=1e-9)
        assert profile.device_field(5.0) == pytest.approx(0.1, rel=0.01)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n0,1\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_device_map_csv(path)

    @pytest.mark.parametrize("row", ["nan,0.5", "0.5,inf", "-inf,1", "0.2,-nan", "0.3", "x,1",
                                     "1,"])
    def test_rejects_a_row_without_two_finite_numbers(self, tmp_path, row):
        # a NaN once gave NaN rows, an infinite position an out-of-grid error
        # and a one-value row an IndexError
        path = tmp_path / "bad.csv"
        path.write_text(f"position_um,relative_field\n-1,0.5\n{row}\n1,0.5\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_device_map_csv(path)
        assert str(info.value) == (f"device map CSV line 3: position and field must be two "
                                   f"finite numbers, got {row!r}")

    @pytest.mark.parametrize("rows, repeated", [
        ("0,1\n0,3", "0.0"), ("0,3\n0,1", "0.0"), ("-0.0,1\n0,1", "0.0"), ("2.5,1\n2.50,1", "2.5"),
    ])
    def test_rejects_a_repeated_position(self, tmp_path, rows, repeated):
        # the map once depended on the rows' order: at x = -1 um rows 0,1
        # then 0,3 read 0.0775, the other order 6.26
        path = tmp_path / "repeat.csv"
        path.write_text(f"position_um,relative_field\n-6,0.01\n{rows}\n6,0.01\n",
                        encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_device_map_csv(path)
        assert str(info.value) == f"device map CSV line 4: position {repeated} repeats line 3"
