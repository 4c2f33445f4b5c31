"""Domain types for parameters, regions, ODD nodes, and data points.

All types are immutable value objects; geometric operations over them live
in :mod:`oddkit.geometry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

DEFAULT_TOL = 1e-9


class DimensionClass(str, Enum):
    ENVIRONMENTAL = "environmental"
    OPERATIONAL = "operational"
    SYSTEM_HEALTH = "system_health"


class Level(str, Enum):
    SYSTEM_OD = "system_od"
    SUBSYSTEM_ODD = "subsystem_odd"
    MLC_ODD = "mlc_odd"
    MLM_ODD = "mlm_odd"


class Variant(str, Enum):
    AS_SPECIFIED = "as_specified"
    AS_OPERATED = "as_operated"


@dataclass(frozen=True)
class Distribution:
    """Named occurrence distribution attached to a parameter.

    ``uniform`` takes no arguments, ``triangular`` takes (lo, mode, hi), and
    ``histogram`` takes n+1 bin edges followed by n bin weights.
    """

    kind: str
    args: tuple[float, ...] = ()


@dataclass(frozen=True)
class Parameter:
    name: str
    unit: str
    lo: float
    hi: float
    dimension_class: DimensionClass = DimensionClass.OPERATIONAL
    distribution: Distribution | None = None

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise ValueError(f"parameter {self.name!r}: lo {self.lo} > hi {self.hi}")

    @property
    def span(self) -> float:
        # Guard against zero-span parameters so normalization stays finite.
        return (self.hi - self.lo) or 1.0


@dataclass(frozen=True)
class Polygon2D:
    """Simple (possibly non-convex) polygon over the node's two parameters.

    Vertices form an open loop: the closing edge back to the first vertex is
    implicit.
    """

    vertices: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class ConvexPolytope:
    """Intersection of halfspaces a.x <= b with an explicit vertex list."""

    halfspaces: tuple[tuple[tuple[float, ...], float], ...]
    vertices: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class PolytopeUnion:
    members: tuple[ConvexPolytope, ...]


Region = Polygon2D | PolytopeUnion


@dataclass(frozen=True)
class OddNode:
    name: str
    level: Level
    parameters: tuple[Parameter, ...]
    region: Region
    variant: Variant = Variant.AS_SPECIFIED
    allocates: str | None = None
    extends: str | None = None
    # derived from ``parameters``, so left out of equality, hashing and repr
    parameter_names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    # geometry record built by oddkit.geometry on first use, left out likewise
    compiled: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        names = tuple(p.name for p in self.parameters)
        if len(set(names)) != len(names):
            raise ValueError(f"node {self.name!r}: duplicate parameter names")
        object.__setattr__(self, "parameter_names", names)

    def parameter(self, name: str) -> Parameter:
        for p in self.parameters:
            if p.name == name:
                return p
        raise KeyError(name)

    @property
    def box(self) -> tuple[tuple[float, float], ...]:
        """Per-parameter admissible (lo, hi) pairs, in declaration order."""
        return tuple((p.lo, p.hi) for p in self.parameters)


class Containment(str, Enum):
    INSIDE = "inside"
    ON_BOUNDARY = "on_boundary"
    OUTSIDE = "outside"


@dataclass
class DataPoint:
    """A vector of parameter values with optional provenance.

    ``provenance_raw`` carries pre-processing values (the inlier mechanism),
    ``hidden_values`` carries values of parameters absent from the declared
    ODD (the novelty mechanism), and ``in_sample`` flags training membership.
    Extra keys in ``values`` are permitted and ignored by geometric
    operations.
    """

    values: dict[str, float]
    provenance_raw: dict[str, float] | None = None
    hidden_values: dict[str, float] | None = None
    in_sample: bool | None = None

    def combined_values(self) -> dict[str, float]:
        """Declared values merged with hidden-parameter values."""
        merged = dict(self.values)
        if self.hidden_values:
            merged.update(self.hidden_values)
        return merged
