"""Axis-aligned slices of a solution: the data behind the contour figures.

A slice fixes all but one or two coordinates, sweeps the free axes over
uniform ranges, and evaluates the solution at a list of times.  Lagrangian
nets dispatch t = 0 to their recession-based initial-data formula; initial
data nets evaluate t = 0 directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numeric import MAX_GRID_POINTS, tensor_grid

__all__ = ["SliceSpec", "SliceTable", "SliceResult", "evaluate_slice"]


@dataclass(frozen=True)
class SliceSpec:
    """One- or two-axis slice specification.

    ``free_axes`` are 0-based coordinate indices; ``ranges`` gives
    (min, max, steps) per free axis; ``fixed_coords`` are the values of the
    remaining coordinates in increasing index order; ``times`` must be
    finite, nonnegative and sorted ascending; every coordinate is finite.
    The grid may hold at most ``numeric.MAX_GRID_POINTS`` points, and its
    points' coordinates with one value, argmin and gap a time at most that
    many floats.
    """

    free_axes: tuple[int, ...]
    ranges: tuple[tuple[float, float, int], ...]
    times: tuple[float, ...]
    fixed_coords: tuple[float, ...] = field(default=())

    def validate(self, dimension: int) -> None:
        if not 1 <= len(self.free_axes) <= 2:
            raise ValueError("a slice needs one or two free axes")
        if len(set(self.free_axes)) != len(self.free_axes):
            raise ValueError("free axes must be distinct")
        for axis in self.free_axes:
            if not 0 <= axis < dimension:
                raise ValueError(f"free axis {axis} out of range for dimension {dimension}")
        if len(self.ranges) != len(self.free_axes):
            raise ValueError("need one (min, max, steps) range per free axis")
        for lo, hi, steps in self.ranges:
            if steps < 2:
                raise ValueError("each range needs at least 2 steps")
            if not -np.inf < lo < hi < np.inf:
                raise ValueError("each range needs a finite min and max, max > min")
        points, grid = np.prod(self.grid_shape(), dtype=float), " x ".join(map(str, self.grid_shape()))
        if points > MAX_GRID_POINTS:
            raise ValueError(f"range: {grid} slice points exceed the {MAX_GRID_POINTS} point cap")
        if len(self.fixed_coords) != dimension - len(self.free_axes):
            raise ValueError(
                f"expected {dimension - len(self.free_axes)} fixed coordinates, "
                f"got {len(self.fixed_coords)}"
            )
        if not np.isfinite(self.fixed_coords).all():
            raise ValueError("fixed coordinates must be finite")
        if len(self.times) == 0:
            raise ValueError("need at least one time")
        if not all(0 <= t < np.inf for t in self.times):
            raise ValueError("times must be finite and nonnegative")
        if list(self.times) != sorted(self.times):
            raise ValueError("times must be sorted ascending")
        # Each point's n coordinates, and its value, argmin and gap per time.
        floats = points * (dimension + 3 * len(self.times))
        if floats > MAX_GRID_POINTS:
            raise ValueError(
                f"range: {grid} slice points in R^{dimension} at {len(self.times)} times hold "
                f"{floats:.0f} floats, above the {MAX_GRID_POINTS} float cap"
            )

    def axis_values(self) -> list[np.ndarray]:
        return [np.linspace(lo, hi, steps) for lo, hi, steps in self.ranges]

    def grid_shape(self) -> tuple[int, ...]:
        return tuple(steps for _, _, steps in self.ranges)

    def grid_points(self, dimension: int) -> np.ndarray:
        """All slice points as a (k, n) array in lexicographic grid order."""
        self.validate(dimension)
        free = tensor_grid(self.axis_values())
        pts = np.empty((free.shape[0], dimension))
        pts[:, [j for j in range(dimension) if j not in self.free_axes]] = self.fixed_coords
        pts[:, list(self.free_axes)] = free
        return pts


@dataclass(frozen=True)
class SliceTable:
    """Evaluations at a single time, rows in lexicographic grid order."""

    t: float
    values: np.ndarray
    argmin_indices: np.ndarray
    gaps: np.ndarray


@dataclass(frozen=True)
class SliceResult:
    spec: SliceSpec
    grid: np.ndarray  # (k, len(free_axes)) free-axis coordinates per row
    tables: tuple[SliceTable, ...]  # ascending t


def evaluate_slice(net, spec: SliceSpec) -> SliceResult:
    """Evaluate a net over a slice; one table per requested time."""
    pts = spec.grid_points(net.dimension)
    free_cols = np.stack([pts[:, axis] for axis in spec.free_axes], axis=1)
    tables = []
    for t in spec.times:
        values, argmins, gaps = net.solution_grid(pts, t)
        tables.append(SliceTable(float(t), values, argmins, gaps))
    return SliceResult(spec, free_cols, tuple(tables))
