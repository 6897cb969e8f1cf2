"""Geometric and cost primitives shared by every solver.

A point is a plain tuple of floats; datasets are immutable and give every
point a stable id equal to its position. Cluster costs follow the usual
conventions: sum of squared Euclidean deviations from the mean, or sum of
L1 deviations from the coordinatewise median (lower median on ties).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from statistics import median_low
from typing import Iterable, Sequence

Point = tuple[float, ...]


class LimitExceededError(RuntimeError):
    """An input exceeds a solver's configured size limits."""


class CostKind(Enum):
    MEANS = "means"
    MEDIANS = "medians"


@dataclass(frozen=True)
class Dataset:
    points: tuple[Point, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("dataset must contain at least one point")
        d = len(self.points[0])
        if d < 1:
            raise ValueError("points must have dimension >= 1")
        for p in self.points:
            if len(p) != d:
                raise ValueError("all points must share the same dimension")
            for c in p:
                if not math.isfinite(c):
                    raise ValueError("coordinates must be finite")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[float]]) -> "Dataset":
        return cls(tuple(tuple(float(c) for c in row) for row in rows))

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def d(self) -> int:
        return len(self.points[0])


@dataclass(frozen=True)
class Cut:
    """Axis cut: points with coords[dim] <= theta go left. dim is 1-based."""

    dim: int
    theta: float

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("cut dimension must be >= 1")

    def goes_left(self, p: Point) -> bool:
        return p[self.dim - 1] <= self.theta


@dataclass(frozen=True)
class Box:
    """Half-open axis-aligned region (a, b]; +-inf bounds are allowed."""

    a: tuple[float, ...]
    b: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.a) != len(self.b):
            raise ValueError("box bounds must have equal dimension")
        if not self.a:
            raise ValueError("box must have dimension >= 1")
        for lo, hi in zip(self.a, self.b):
            if not lo < hi:
                raise ValueError("box requires a[i] < b[i] in every dimension")

    @classmethod
    def universal(cls, d: int) -> "Box":
        return cls((-math.inf,) * d, (math.inf,) * d)

    @property
    def d(self) -> int:
        return len(self.a)

    def contains(self, p: Point) -> bool:
        return all(lo < c <= hi for lo, c, hi in zip(self.a, p, self.b))


def canonical_thresholds(ds: Dataset, dim: int) -> list[float]:
    """Sorted distinct values of the dim-th coordinate (dim is 1-based)."""
    if not 1 <= dim <= ds.d:
        raise ValueError(f"dimension {dim} out of range 1..{ds.d}")
    return sorted({p[dim - 1] for p in ds.points})


def _prefix_masks(points: Sequence[Point]) -> tuple[list[list[float]], list[list[int]]]:
    """Per dimension (0-based): the sorted distinct coordinates and, for each
    one, the bitmask of point ids whose coordinate is <= it. One sort per
    dimension; the last mask of every dimension holds every point."""
    coords: list[list[float]] = []
    masks: list[list[int]] = []
    for i in range(len(points[0])):
        values: list[float] = []
        row: list[int] = []
        m = 0
        for pid in sorted(range(len(points)), key=lambda pid: points[pid][i]):
            m |= 1 << pid
            if values and values[-1] == points[pid][i]:
                row[-1] = m
            else:
                values.append(points[pid][i])
                row.append(m)
        coords.append(values)
        masks.append(row)
    return coords, masks


def cut_apply(pts: Sequence[Point], cut: Cut) -> tuple[list[Point], list[Point]]:
    left = [p for p in pts if cut.goes_left(p)]
    right = [p for p in pts if not cut.goes_left(p)]
    return left, right


def cluster_cost(pts: Sequence[Point], kind: CostKind) -> float:
    if not pts:
        raise ValueError("cluster cost is undefined for an empty collection")
    d = len(pts[0])
    total = 0.0
    if kind is CostKind.MEANS:
        for i in range(d):
            col = [p[i] for p in pts]
            m = sum(col) / len(col)
            total += sum((c - m) ** 2 for c in col)
    else:
        for i in range(d):
            col = [p[i] for p in pts]
            med = median_low(col)
            total += sum(abs(c - med) for c in col)
    return total


def centroid(pts: Sequence[Point], kind: CostKind) -> Point:
    if not pts:
        raise ValueError("centroid is undefined for an empty collection")
    d = len(pts[0])
    if kind is CostKind.MEANS:
        return tuple(sum(p[i] for p in pts) / len(pts) for i in range(d))
    return tuple(median_low([p[i] for p in pts]) for i in range(d))


def box_members(ds: Dataset, box: Box) -> list[int]:
    """Ids of the dataset points inside the half-open box, in id order."""
    if box.d != ds.d:
        raise ValueError("box dimension does not match dataset")
    return [i for i, p in enumerate(ds.points) if box.contains(p)]
