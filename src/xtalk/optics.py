"""Beam-optics origin of addressing crosstalk.

Two contributions are modeled on a 1-D cut through the line of cores: the
device crosstalk of the multi-core waveguide (parametric Gaussian-mode map
with nearest-neighbor field leakage, or a measured map loaded from CSV) and
the diffraction of the focused spot clipped by the finite relay-lens
aperture, computed by quadrature of the scalar diffraction integral.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError, OutOfRangeError

__all__ = [
    "BeamProfile",
    "CrosstalkEstimate",
    "focal_field",
    "clipped_focus_profile",
    "gaussian_intensity",
    "total_crosstalk_ratio",
    "load_device_map_csv",
]

DEFAULT_WAIST_UM = 1.6
DEFAULT_PITCH_UM = 5.0
DEFAULT_CORES = 11
# nearest-neighbor field leakage giving ~1e-2 intensity crosstalk at one pitch
DEFAULT_LEAK = 0.1
# center to last core of the array, which the device maps' grids span
_ARRAY_HALF_WIDTH_UM = DEFAULT_PITCH_UM * (DEFAULT_CORES - 1) / 2.0
QUADRATURE_RTOL = 1e-6  # intensity change, relative to the peak, that ends refinement


def gaussian_intensity(x_um: np.ndarray, waist_um: float) -> np.ndarray:
    """Ideal focal intensity ``exp(-2 x^2 / w0^2)`` of a Gaussian mode."""
    x = np.asarray(x_um, dtype=float)
    return np.exp(-2.0 * (x / waist_um) ** 2)


def _pupil_half_angle(waist_um: float, wavelength_nm: float) -> float:
    # far-field 1/e field half angle of a Gaussian mode with focal waist w0
    return (wavelength_nm * 1e-3) / (math.pi * waist_um)


def _focal_field_fixed(
    waist_um: float, wavelength_nm: float, na: float, grid_um: np.ndarray, n_pupil: int
) -> np.ndarray:
    lam_um = wavelength_nm * 1e-3
    sw = _pupil_half_angle(waist_um, wavelength_nm)
    # pupil window: the aperture or 6 Gaussian waists, whichever is smaller
    s_max = min(na, 6.0 * sw)
    s = np.linspace(-s_max, s_max, n_pupil)
    pupil = np.exp(-((s / sw) ** 2))
    k = 2.0 * math.pi / lam_um
    # composite Simpson weights (n_pupil odd)
    w = np.ones(n_pupil)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (s[1] - s[0]) / 3.0
    weighted = w * pupil
    grid = np.asarray(grid_um, dtype=float)
    out = np.empty(grid.size, dtype=complex)
    # chunk the Fourier kernel to bound memory at fine pupil sampling
    block = max(1, 4_000_000 // n_pupil)
    for i in range(0, grid.size, block):
        kernel = np.exp(-1.0j * k * np.outer(grid[i : i + block], s))
        out[i : i + block] = kernel @ weighted
    return out


def focal_field(
    waist_um: float,
    wavelength_nm: float,
    na: float,
    grid_um,
    max_refinements: int = 12,
) -> np.ndarray:
    """Focal-plane field of a Gaussian mode truncated by the lens aperture.

    The pupil field (Gaussian times hard aperture) is propagated to the focal
    plane with the Fourier kernel of scalar diffraction and integrated by
    composite Simpson quadrature.  The pupil sampling is refined until the
    intensity changes by no more than ``QUADRATURE_RTOL`` of the peak;
    exceeding ``max_refinements`` raises :class:`NumericalFailureError`.

    Returns the unnormalized complex field on ``grid_um`` (positions in um).
    """
    if waist_um <= 0.0 or wavelength_nm <= 0.0 or na <= 0.0:
        raise ValueError("waist_um, wavelength_nm and na must be > 0")
    grid = np.atleast_1d(np.asarray(grid_um, dtype=float))
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    n = 257
    prev = _focal_field_fixed(waist_um, wavelength_nm, na, grid, n)
    for _ in range(max_refinements):
        n = 2 * n - 1
        cur = _focal_field_fixed(waist_um, wavelength_nm, na, grid, n)
        peak = float(np.max(np.abs(cur) ** 2))
        change = float(np.max(np.abs(np.abs(cur) ** 2 - np.abs(prev) ** 2)))
        if peak > 0.0 and change <= QUADRATURE_RTOL * peak:
            return cur
        prev = cur
    raise NumericalFailureError(
        f"diffraction quadrature did not converge to {QUADRATURE_RTOL} within "
        f"{max_refinements} refinements"
    )


def clipped_focus_profile(
    waist_um: float,
    wavelength_nm: float,
    na: float,
    grid_um,
    max_refinements: int = 12,
) -> np.ndarray:
    """Clipped-focus intensity on ``grid_um``, normalized to peak 1 at x = 0."""
    grid = np.atleast_1d(np.asarray(grid_um, dtype=float))
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    e = focal_field(waist_um, wavelength_nm, na, np.append(grid, 0.0), max_refinements)
    intensity = np.abs(e) ** 2
    peak = intensity[-1]
    if peak <= 0.0:
        raise NumericalFailureError("zero on-axis intensity")
    return intensity[:-1] / peak


@dataclass(frozen=True)
class BeamProfile:
    """Device crosstalk map: the field across the ion plane of the driven core.

    The addressing device is an array of ``DEFAULT_CORES`` cores
    ``DEFAULT_PITCH_UM`` apart, centered on 0; ``grid_um`` spans that whole
    array.  Only the middle core, at 0, is driven, and only its field is
    kept: ``field`` is its real amplitude on ``grid_um``, normalized to 1 at 0.
    """

    grid_um: np.ndarray
    field: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid_um, dtype=float)
        if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        field = np.asarray(self.field, dtype=float)
        if field.shape != grid.shape:
            raise ValueError("field must be sampled on the grid")
        object.__setattr__(self, "grid_um", grid)
        object.__setattr__(self, "field", field)

    @classmethod
    def default(cls, waist_um: float = DEFAULT_WAIST_UM) -> "BeamProfile":
        """Parametric map: a Gaussian mode at 0 plus ``DEFAULT_LEAK`` field
        leakage from each neighbor core, on 2001 points out to four waists
        past the last core."""
        span = _ARRAY_HALF_WIDTH_UM + 4.0 * waist_um
        grid = np.linspace(-span, span, 2001)

        def mode(center):
            return np.exp(-(((grid - center) / waist_um) ** 2))

        f = mode(0.0) + DEFAULT_LEAK * mode(-DEFAULT_PITCH_UM)
        f = f + DEFAULT_LEAK * mode(DEFAULT_PITCH_UM)
        return cls(grid, f / np.interp(0.0, grid, f))

    @classmethod
    def from_csv(cls, path) -> "BeamProfile":
        """The map of a measured profile: the CSV holds the field of the
        driven core centered at 0, zero beyond its rows; the grid reaches as
        far past the last core as the CSV reaches past 0."""
        pos, rel = load_device_map_csv(path)
        span = _ARRAY_HALF_WIDTH_UM + float(np.max(np.abs(pos)))
        grid = np.linspace(-span, span, 2001)
        center = np.interp(0.0, pos, rel)
        if center == 0.0:
            raise ValueError("device map has zero field at the driven core")
        return cls(grid, np.interp(grid, pos, rel, left=0.0, right=0.0) / center)

    def device_field(self, x_um: float) -> float:
        """Field amplitude at ``x_um`` when the middle core is driven."""
        grid = self.grid_um
        if not (grid[0] <= x_um <= grid[-1]):
            raise OutOfRangeError(f"position {x_um} um outside device map grid")
        return float(np.interp(x_um, grid, self.field))


@dataclass(frozen=True)
class CrosstalkEstimate:
    """Combined device and diffraction crosstalk at one ion separation."""

    intensity_ratio: float
    rabi_ratio: float
    incoherent_intensity_ratio: float
    device_amplitude: float
    diffraction_amplitude: float


def total_crosstalk_ratio(
    profile: BeamProfile,
    diffraction_intensity: np.ndarray,
    separation_um: float,
    pol_overlap: float = 1.0,
    relative_phase: float = 0.0,
) -> CrosstalkEstimate:
    """Crosstalk intensity and Rabi ratio at a given separation from the
    driven core.

    The device field (from the waveguide map) and the diffraction field (from
    the clipped-focus profile, normalized to peak 1 on ``profile.grid_um``)
    are combined as amplitudes with a configurable ``relative_phase``; the
    paper-level physics does not fix this phase, so the default 0 is the
    in-phase worst case and the incoherent sum is reported alongside.
    ``rabi_ratio`` is ``pol_overlap * sqrt(intensity_ratio)``.
    """
    diff = np.asarray(diffraction_intensity, dtype=float)
    grid = profile.grid_um
    if diff.shape != grid.shape:
        raise ValueError("diffraction intensity must be sampled on the profile grid")
    if not (grid[0] <= separation_um <= grid[-1]):
        raise OutOfRangeError(f"separation {separation_um} um outside the grid")
    a_dev = abs(profile.device_field(separation_um))
    a_diff = math.sqrt(max(float(np.interp(separation_um, grid, diff)), 0.0))
    coherent = abs(a_dev + a_diff * complex(math.cos(relative_phase), math.sin(relative_phase)))
    intensity = coherent**2
    incoherent = a_dev**2 + a_diff**2
    return CrosstalkEstimate(
        intensity_ratio=intensity,
        rabi_ratio=pol_overlap * math.sqrt(intensity),
        incoherent_intensity_ratio=incoherent,
        device_amplitude=a_dev,
        diffraction_amplitude=a_diff,
    )


def load_device_map_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a device map CSV with header ``position_um,relative_field``; a
    row without a finite position and field, or repeating a position, raises
    ``ValueError`` naming its line."""
    positions = []
    fields = []
    lines = {}  # the line of each position, so a map has one field per position
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["position_um", "relative_field"]:
            raise ValueError("device map CSV must start with 'position_um,relative_field'")
        for row in reader:
            if not row:
                continue
            try:
                x, f = map(float, row[:2])
            except ValueError:
                x = f = math.nan
            if not (math.isfinite(x) and math.isfinite(f)):
                raise ValueError(f"device map CSV line {reader.line_num}: position and field "
                                 f"must be two finite numbers, got {','.join(row)!r}")
            if x in lines:
                raise ValueError(f"device map CSV line {reader.line_num}: position {x!r} "
                                 f"repeats line {lines[x]}")
            lines[x] = reader.line_num
            positions.append(x)
            fields.append(f)
    if len(positions) < 2:
        raise ValueError("device map CSV needs at least two rows")
    pos = np.asarray(positions, dtype=float)
    rel = np.asarray(fields, dtype=float)
    order = np.argsort(pos)
    return pos[order], rel[order]
