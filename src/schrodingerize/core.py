"""Grids, Fourier modes and complex state vectors on tensor-product grids.

Conventions shared by the whole package:

* every gridded axis is uniform and periodic on [-half_width, half_width),
  with the right endpoint excluded,
* Fourier wavenumbers are mu_j = pi * j / half_width for
  j = -n/2 .. n/2 - 1, stored in DFT order (0, .., n/2-1, -n/2, .., -1),
* discrete Fourier transforms are unitary (one factor 1/sqrt(n) per axis),
  so transforming an axis never changes an l2 norm,
* amplitudes of multi-axis states are stored flat, row-major over the axes
  in layout order (first axis slowest, last axis fastest).

All types here are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "InvalidArgumentError",
    "ResourceLimitError",
    "DegenerateStateError",
    "UnsupportedProblemError",
    "AccuracyWarning",
    "Grid1D",
    "AxisSpec",
    "StateVector",
    "make_grid",
    "fourier_modes",
]


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class ResourceLimitError(RuntimeError):
    """A desk-scale resource cap (dimension, memory) would be exceeded."""


# Bytes of arrays a run may hold at once, and the dimension of the largest
# dense decomposition (eigh or Pade), whose cube caps a phase's work.
ARRAY_BYTES_LIMIT = 1 << 31
EXPM_DENSE_LIMIT = 4096


def _preflight(*phases: tuple[str, float, float]) -> None:
    """Refuse a run, before it allocates, whose largest phase passes a cap.

    Each phase is (name, bytes, work): the bytes it holds at its peak, those
    kept from earlier phases included, and its decomposition work, the sum
    of batch*b^3 over its eigh and Pade calls on b x b matrices.  Phases
    never coexist, so their bytes are never summed.  The ResourceLimitError
    names the phase over ARRAY_BYTES_LIMIT or over EXPM_DENSE_LIMIT^3.
    """
    name, nbytes, _ = max(phases, key=lambda phase: phase[1])
    heaviest, _, work = max(phases, key=lambda phase: phase[2])
    if nbytes > ARRAY_BYTES_LIMIT:
        reason = (
            f"{name} needs about {nbytes / 2**20:.0f} MiB of arrays, over the "
            f"{ARRAY_BYTES_LIMIT / 2**20:.0f} MiB cap"
        )
    elif work > EXPM_DENSE_LIMIT**3:
        size = round(work ** (1 / 3))
        reason = (
            f"{heaviest} takes the decomposition work of one dense matrix of dimension "
            f"{size}; dense decompositions are capped at dimension {EXPM_DENSE_LIMIT}, got {size}"
        )
    else:
        return
    raise ResourceLimitError(reason)


class DegenerateStateError(RuntimeError):
    """A state carries no usable content for the requested reduction."""


class UnsupportedProblemError(RuntimeError):
    """The problem instance lies outside what the method supports."""


class AccuracyWarning(UserWarning):
    """Inputs are legal but a documented accuracy margin is thin."""


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on [-half_width, half_width).

    The right endpoint is excluded (periodic identification), so the points
    are x_i = -half_width + i * spacing for i = 0 .. count-1 and
    spacing * count == 2 * half_width exactly.
    """

    half_width: float
    count: int

    def __post_init__(self):
        if not isinstance(self.count, (int, np.integer)) or isinstance(self.count, bool):
            raise InvalidArgumentError(f"grid count must be an integer, got {self.count!r}")
        if self.count < 2 or self.count % 2 != 0:
            raise InvalidArgumentError(f"grid count must be even and >= 2, got {self.count}")
        if not self.half_width > 0:
            raise InvalidArgumentError(f"grid half_width must be positive, got {self.half_width}")
        object.__setattr__(self, "count", int(self.count))
        object.__setattr__(self, "half_width", float(self.half_width))

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.count

    @property
    def points(self) -> np.ndarray:
        return -self.half_width + self.spacing * np.arange(self.count)


def make_grid(half_width: float, count: int) -> Grid1D:
    """Build a periodic grid; rejects odd/nonpositive counts and widths."""
    return Grid1D(half_width, count)


def fourier_modes(grid: Grid1D) -> np.ndarray:
    """Wavenumbers pi*j/half_width of a grid, DFT ordered, read-only.

    Equals 2*pi*fftfreq(count, d=spacing): j = 0..n/2-1 followed by
    j = -n/2..-1, so it contains a single unpaired mode
    -pi*(count/2)/half_width because the count is even; np.fft.fftshift
    orders it ascending.
    """
    modes = 2.0 * np.pi * np.fft.fftfreq(grid.count, d=grid.spacing)
    modes.setflags(write=False)
    return modes


@dataclass(frozen=True)
class AxisSpec:
    """One axis of a StateVector: a name, a length, and optionally a grid.

    Grid-less axes are allowed for abstract registers (e.g. the components
    of an ODE system); gridded axes are required wherever a transform or a
    quadrature acts along the axis.
    """

    name: str
    count: int
    grid: Grid1D | None = None

    def __post_init__(self):
        if not self.name:
            raise InvalidArgumentError("axis name must be non-empty")
        if self.grid is not None and self.grid.count != self.count:
            raise InvalidArgumentError(
                f"axis {self.name!r}: count {self.count} != grid count {self.grid.count}"
            )
        if self.count < 1:
            raise InvalidArgumentError(f"axis {self.name!r}: count must be positive")


def _checked_layout(size: int, layout) -> tuple[AxisSpec, ...]:
    layout = tuple(layout)
    expected = int(np.prod([ax.count for ax in layout], dtype=np.int64))
    if size != expected:
        raise InvalidArgumentError(f"amplitude length {size} != product of axis counts {expected}")
    return layout


@dataclass(frozen=True)
class StateVector:
    """Flat complex amplitude vector over an ordered list of axes.

    Amplitudes are stored row-major over ``layout`` (first axis slowest).
    The vector is immutable; all operations return new instances.
    """

    amplitudes: np.ndarray
    layout: tuple[AxisSpec, ...]

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        layout = _checked_layout(amps.size, self.layout)
        object.__setattr__(self, "amplitudes", _readonly(amps))
        object.__setattr__(self, "layout", layout)

    @classmethod
    def _adopt(cls, amplitudes: np.ndarray, layout) -> "StateVector":
        """A StateVector over ``amplitudes`` without the copy that
        construction makes, for a fresh array that the caller hands over
        and never writes again; the stored view is read-only."""
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        amps.setflags(write=False)
        state = object.__new__(cls)
        object.__setattr__(state, "amplitudes", amps)
        object.__setattr__(state, "layout", _checked_layout(amps.size, layout))
        return state

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.count for ax in self.layout)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def as_array(self) -> np.ndarray:
        return self.amplitudes.reshape(self.shape)

    def with_amplitudes(self, amplitudes: np.ndarray) -> "StateVector":
        return StateVector(np.asarray(amplitudes).reshape(-1), self.layout)

