"""Geometric and cost primitives shared by every solver.

A point is a plain tuple of floats; datasets are immutable and give every
point a stable id equal to its position. Cluster costs follow the usual
conventions: sum of squared Euclidean deviations from the mean, or sum of
L1 deviations from the coordinatewise median (lower median on ties). Every
cost is the float nearest the exact cost: the coordinates are scaled into
exact ints (``_int_columns``) and the cost is one ratio of ints, which
Python's ``/`` rounds correctly (``_exact_cost``).
"""
from __future__ import annotations

import math
from enum import Enum
from typing import Iterable, Iterator, Sequence

Point = tuple[float, ...]


class LimitExceededError(RuntimeError):
    """An input exceeds a solver's configured size limits."""


# Guard rails: exact solver -> size name -> the largest value it accepts
# unless forced. Each solver's cost grows fastest in the sizes it names;
# exact_explain's state space is exponential in the dimension.
LIMITS = {
    "exact_explain": {"n": 30, "d": 3},
    "solve_branching": {"k": 8},
    "solve_dp": {"n": 40, "d": 4},
}


def _check_limits(solver: str, force: bool, **sizes: int) -> None:
    """Raise LimitExceededError when, without force, any size that the
    solver's LIMITS entry names is above its limit. Callers pass every size
    they have; the table alone decides which of them count."""
    over = [(name, cap) for name, cap in LIMITS[solver].items() if sizes[name] > cap]
    if over and not force:
        limits = ", ".join(f"{name} <= {cap}" for name, cap in over)
        got = ", ".join(f"{name} = {sizes[name]}" for name, _ in over)
        raise LimitExceededError(f"{solver} limited to {limits}; got {got} (use force to override)")


class CostKind(Enum):
    MEANS = "means"
    MEDIANS = "medians"


# Sets a field of a _Record from the record's own __init__.
_set = object.__setattr__


class _Record:
    """Base of the package's immutable records. A subclass names its fields
    in ``__slots__`` and sets them in its own ``__init__`` with ``_set``.
    Like a frozen dataclass, a record compares equal only to a record of
    the same class with equal fields, hashes and prints its fields in
    order, refuses assignment and deletion, copies and pickles through its
    constructor, and matches its fields positionally. Keeping these few
    methods here spares every import of the package the dataclasses module
    and the inspect, ast and dis modules it loads."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls.__match_args__ = cls.__slots__

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()


class Dataset(_Record):
    __slots__ = ("points",)
    points: tuple[Point, ...]

    def __init__(self, points: tuple[Point, ...]) -> None:
        if not points:
            raise ValueError("dataset must contain at least one point")
        d = len(points[0])
        if d < 1:
            raise ValueError("points must have dimension >= 1")
        for p in points:
            if len(p) != d:
                raise ValueError("all points must share the same dimension")
            for c in p:
                if not math.isfinite(c):
                    raise ValueError("coordinates must be finite")
        _set(self, "points", points)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[float]]) -> "Dataset":
        return cls(tuple(tuple(float(c) for c in row) for row in rows))

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def d(self) -> int:
        return len(self.points[0])


class Cut(_Record):
    """Axis cut: points with coords[dim] <= theta go left. dim is 1-based."""

    __slots__ = ("dim", "theta")
    dim: int
    theta: float

    def __init__(self, dim: int, theta: float) -> None:
        if dim < 1:
            raise ValueError("cut dimension must be >= 1")
        if not math.isfinite(theta):
            raise ValueError("cut threshold must be finite")
        _set(self, "dim", dim)
        _set(self, "theta", theta)

    def goes_left(self, p: Point) -> bool:
        return p[self.dim - 1] <= self.theta


class Box(_Record):
    """Half-open axis-aligned region (a, b]; +-inf bounds are allowed."""

    __slots__ = ("a", "b")
    a: tuple[float, ...]
    b: tuple[float, ...]

    def __init__(self, a: tuple[float, ...], b: tuple[float, ...]) -> None:
        if len(a) != len(b):
            raise ValueError("box bounds must have equal dimension")
        if not a:
            raise ValueError("box must have dimension >= 1")
        for lo, hi in zip(a, b):
            if not lo < hi:
                raise ValueError("box requires a[i] < b[i] in every dimension")
        _set(self, "a", a)
        _set(self, "b", b)

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


def _prefix_masks(points: Sequence[Point]) -> list[list[int]]:
    """Per dimension (0-based), one bitmask per distinct coordinate value in
    ascending order: the ids of the points whose coordinate is <= it. One
    sort per dimension; the last mask of every dimension holds every point."""
    masks: list[list[int]] = []
    for i in range(len(points[0])):
        row: list[int] = []
        m = 0
        prev: float | None = None
        for pid in sorted(range(len(points)), key=lambda pid: points[pid][i]):
            m |= 1 << pid
            value = points[pid][i]
            if value == prev:
                row[-1] = m
            else:
                row.append(m)
            prev = value
        masks.append(row)
    return masks


def _splits(mask: int, prefix: Sequence[Sequence[int]]) -> Iterator[tuple[int, int, int]]:
    """Every canonical cut of the member set ``mask`` that leaves both sides
    nonempty, as (dim, left mask, members new to the left side). ``prefix``
    is the mask table of ``_prefix_masks``; dim is 1-based. Cuts come per
    dimension in ascending threshold order, one per distinct left side."""
    for dim, row in enumerate(prefix, start=1):
        prev = 0
        for upto in row:
            lmask = mask & upto
            if lmask == mask:
                break
            if lmask != prev:
                yield dim, lmask, lmask ^ prev
                prev = lmask


def cut_apply(pts: Sequence[Point], cut: Cut) -> tuple[list[Point], list[Point]]:
    left = [p for p in pts if cut.goes_left(p)]
    right = [p for p in pts if not cut.goes_left(p)]
    return left, right


def _int_columns(pts: Sequence[Point]) -> tuple[int, list[list[int]]]:
    """(E, columns): per dimension, every coordinate times E as an exact
    int, where E is the least common denominator of the coordinates (a
    power of two for floats and ints)."""
    ratios = [[c.as_integer_ratio() for c in col] for col in zip(*pts)]
    scale = math.lcm(*{den for col in ratios for _, den in col})
    return scale, [[num * (scale // den) for num, den in col] for col in ratios]


def _exact_cost(cols: list[list[int]], ids: Sequence[int], scale: int, kind: CostKind) -> float:
    """The float nearest the cost of the points ``ids`` of the scaled
    columns ``cols`` (see _int_columns). With m points, MEANS is
    sum over dimensions of (m * sum x**2 - (sum x)**2) / (m * E**2); MEDIANS
    is sum over dimensions of (sum of the top m // 2 values - sum of the
    bottom m // 2) / E, the L1 cost about any median. Raises OverflowError
    when the cost exceeds the largest float."""
    m = len(ids)
    num = 0
    if kind is CostKind.MEANS:
        for col in cols:
            xs = [col[i] for i in ids]
            total = sum(xs)
            num += m * sum([x * x for x in xs]) - total * total
        return num / (m * scale * scale)
    h = m >> 1
    for col in cols:
        xs = sorted([col[i] for i in ids])
        num += sum(xs[m - h:]) - sum(xs[:h])
    return num / scale


def cluster_cost(pts: Sequence[Point], kind: CostKind) -> float:
    """The float nearest the exact cost of the points ``pts``."""
    if not pts:
        raise ValueError("cluster cost is undefined for an empty collection")
    scale, cols = _int_columns(pts)
    return _exact_cost(cols, range(len(pts)), scale, kind)


def centroid(pts: Sequence[Point], kind: CostKind) -> Point:
    if not pts:
        raise ValueError("centroid is undefined for an empty collection")
    d = len(pts[0])
    if kind is CostKind.MEANS:
        return tuple(sum(p[i] for p in pts) / len(pts) for i in range(d))
    return tuple(sorted([p[i] for p in pts])[(len(pts) - 1) // 2] for i in range(d))


def box_members(ds: Dataset, box: Box) -> list[int]:
    """Ids of the dataset points inside the half-open box, in id order."""
    if box.d != ds.d:
        raise ValueError("box dimension does not match dataset")
    return [i for i, p in enumerate(ds.points) if box.contains(p)]
