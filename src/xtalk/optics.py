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

DEFAULT_WAVELENGTH_NM = 729.0
DEFAULT_NA = 0.35
DEFAULT_WAIST_UM = 1.6
DEFAULT_PITCH_UM = 5.0
DEFAULT_CORES = 11
# nearest-neighbor field leakage giving ~1e-2 intensity crosstalk at one pitch
DEFAULT_LEAK = 0.1
# the device maps' cores, centered on 0
_CORE_POSITIONS = tuple(DEFAULT_PITCH_UM * (i - (DEFAULT_CORES - 1) / 2.0)
                        for i in range(DEFAULT_CORES))
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
    """Per-core field maps of the addressing device on a common 1-D grid.

    ``fields[i, :]`` is the real field amplitude across the ion plane when
    core ``i`` alone is driven, normalized to 1 at its own core position.
    """

    core_positions_um: tuple
    grid_um: np.ndarray
    fields: np.ndarray
    wavelength_nm: float = DEFAULT_WAVELENGTH_NM
    na: float = DEFAULT_NA
    waist_um: float = DEFAULT_WAIST_UM
    pitch_um: float = DEFAULT_PITCH_UM

    def __post_init__(self):
        grid = np.asarray(self.grid_um, dtype=float)
        if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if self.pitch_um <= 0.0:
            raise ValueError("pitch must be > 0")
        fields = np.asarray(self.fields, dtype=float)
        if fields.shape != (len(self.core_positions_um), grid.size):
            raise ValueError("fields must have shape (n_cores, n_grid)")
        object.__setattr__(self, "grid_um", grid)
        object.__setattr__(self, "fields", fields)

    @classmethod
    def default(
        cls,
        waist_um: float = DEFAULT_WAIST_UM,
        wavelength_nm: float = DEFAULT_WAVELENGTH_NM,
        na: float = DEFAULT_NA,
    ) -> "BeamProfile":
        """Parametric device map: ``DEFAULT_CORES`` Gaussian modes
        ``DEFAULT_PITCH_UM`` apart plus ``DEFAULT_LEAK`` nearest-neighbor
        field leakage, on 2001 points out to four waists past the last core."""
        positions = _CORE_POSITIONS
        span = positions[-1] + 4.0 * waist_um
        grid = np.linspace(-span, span, 2001)

        def mode(center):
            return np.exp(-(((grid - center) / waist_um) ** 2))

        fields = np.zeros((DEFAULT_CORES, grid.size))
        for i, x0 in enumerate(positions):
            f = mode(x0)
            if i > 0:
                f = f + DEFAULT_LEAK * mode(positions[i - 1])
            if i < DEFAULT_CORES - 1:
                f = f + DEFAULT_LEAK * mode(positions[i + 1])
            fields[i] = f / np.interp(x0, grid, f)
        return cls(positions, grid, fields, wavelength_nm, na, waist_um)

    @classmethod
    def from_csv(cls, path, **kwargs) -> "BeamProfile":
        """Build the per-core maps from a measured single-core profile.

        The CSV holds the field of one driven core centered at 0; each of the
        ``DEFAULT_CORES`` cores, ``DEFAULT_PITCH_UM`` apart, gets the same
        profile shifted to its position.
        """
        pos, rel = load_device_map_csv(path)
        span = _CORE_POSITIONS[-1] + float(np.max(np.abs(pos)))
        grid = np.linspace(-span, span, 2001)
        fields = np.zeros((DEFAULT_CORES, grid.size))
        for i, x0 in enumerate(_CORE_POSITIONS):
            f = np.interp(grid - x0, pos, rel, left=0.0, right=0.0)
            center = np.interp(0.0, pos, rel)
            if center == 0.0:
                raise ValueError("device map has zero field at the driven core")
            fields[i] = f / center
        # the pitch is fixed: a pitch_um keyword raises instead of disagreeing
        return cls(_CORE_POSITIONS, grid, fields, pitch_um=DEFAULT_PITCH_UM, **kwargs)

    def device_field(self, core: int, x_um: float) -> float:
        """Field amplitude at ``x_um`` when core ``core`` is driven."""
        grid = self.grid_um
        if not (grid[0] <= x_um <= grid[-1]):
            raise OutOfRangeError(f"position {x_um} um outside device map grid")
        return float(np.interp(x_um, grid, self.fields[core]))


@dataclass(frozen=True)
class CrosstalkEstimate:
    """Combined device and diffraction crosstalk at one ion separation."""

    intensity_ratio: float
    rabi_ratio: float
    incoherent_intensity_ratio: float
    device_amplitude: float
    diffraction_amplitude: float
    relative_phase: float


def total_crosstalk_ratio(
    profile: BeamProfile,
    diffraction_intensity: np.ndarray,
    separation_um: float,
    pol_overlap: float = 1.0,
    relative_phase: float = 0.0,
) -> CrosstalkEstimate:
    """Crosstalk intensity and Rabi ratio at a given separation from the
    middle core.

    The device field (from the waveguide map) and the diffraction field (from
    the clipped-focus profile, normalized to peak 1 on ``profile.grid_um``)
    are combined as amplitudes with a configurable ``relative_phase``; the
    paper-level physics does not fix this phase, so the default 0 is the
    in-phase worst case and the incoherent sum is reported alongside.
    ``rabi_ratio`` is ``pol_overlap * sqrt(intensity_ratio)``.
    """
    diff = np.asarray(diffraction_intensity, dtype=float)
    if diff.shape != profile.grid_um.shape:
        raise ValueError("diffraction intensity must be sampled on the profile grid")
    core = len(profile.core_positions_um) // 2
    x0 = profile.core_positions_um[core]
    x = x0 + separation_um
    grid = profile.grid_um
    if not (grid[0] <= x <= grid[-1]):
        raise OutOfRangeError(f"separation {separation_um} um outside the grid")
    a_dev = abs(profile.device_field(core, x))
    a_diff = math.sqrt(max(float(np.interp(x - x0, grid, diff)), 0.0))
    coherent = abs(a_dev + a_diff * complex(math.cos(relative_phase), math.sin(relative_phase)))
    intensity = coherent**2
    incoherent = a_dev**2 + a_diff**2
    return CrosstalkEstimate(
        intensity_ratio=intensity,
        rabi_ratio=pol_overlap * math.sqrt(intensity),
        incoherent_intensity_ratio=incoherent,
        device_amplitude=a_dev,
        diffraction_amplitude=a_diff,
        relative_phase=relative_phase,
    )


def load_device_map_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a device map CSV with header ``position_um,relative_field``."""
    positions = []
    fields = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["position_um", "relative_field"]:
            raise ValueError("device map CSV must start with 'position_um,relative_field'")
        for row in reader:
            if not row:
                continue
            positions.append(float(row[0]))
            fields.append(float(row[1]))
    if len(positions) < 2:
        raise ValueError("device map CSV needs at least two rows")
    pos = np.asarray(positions, dtype=float)
    rel = np.asarray(fields, dtype=float)
    order = np.argsort(pos)
    return pos[order], rel[order]
