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
    "StabilityError",
    "DegenerateStateError",
    "UnsupportedProblemError",
    "AccuracyWarning",
    "Grid1D",
    "ModeVector",
    "AxisSpec",
    "StateVector",
    "make_grid",
    "fourier_modes",
]


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class ResourceLimitError(RuntimeError):
    """A desk-scale resource cap (dimension, memory) would be exceeded."""


class StabilityError(RuntimeError):
    """A time integration left its stability region."""


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


@dataclass(frozen=True)
class ModeVector:
    """Fourier wavenumbers of a Grid1D, in DFT order.

    ``modes[j]`` is pi*j/half_width for j = 0..n/2-1 followed by
    j = -n/2..-1.  ``sort_permutation`` reorders to ascending modes
    (equivalent to an fftshift); it is its own bookkeeping inverse via
    ``np.argsort``.
    """

    modes: np.ndarray
    half_width: float

    def __post_init__(self):
        object.__setattr__(self, "modes", _readonly(np.asarray(self.modes, dtype=float)))

    @property
    def count(self) -> int:
        return self.modes.size

    @property
    def sort_permutation(self) -> np.ndarray:
        n = self.count
        return np.concatenate([np.arange(n // 2, n), np.arange(0, n // 2)])

    @property
    def sorted_modes(self) -> np.ndarray:
        return self.modes[self.sort_permutation]


def fourier_modes(grid: Grid1D) -> ModeVector:
    """Wavenumbers pi*j/half_width of a grid, DFT ordered.

    Equals 2*pi*fftfreq(count, d=spacing); contains a single unpaired
    mode -pi*(count/2)/half_width because the count is even.
    """
    modes = 2.0 * np.pi * np.fft.fftfreq(grid.count, d=grid.spacing)
    return ModeVector(modes=modes, half_width=grid.half_width)


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
        layout = tuple(self.layout)
        expected = int(np.prod([ax.count for ax in layout], dtype=np.int64))
        if amps.size != expected:
            raise InvalidArgumentError(
                f"amplitude length {amps.size} != product of axis counts {expected}"
            )
        object.__setattr__(self, "amplitudes", _readonly(amps))
        object.__setattr__(self, "layout", layout)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.count for ax in self.layout)

    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(ax.name for ax in self.layout)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def as_array(self) -> np.ndarray:
        return self.amplitudes.reshape(self.shape)

    def with_amplitudes(self, amplitudes: np.ndarray) -> "StateVector":
        return StateVector(np.asarray(amplitudes).reshape(-1), self.layout)

    def axis_index(self, name: str) -> int:
        for i, ax in enumerate(self.layout):
            if ax.name == name:
                return i
        raise InvalidArgumentError(f"no axis named {name!r} in layout {self.axis_names}")

