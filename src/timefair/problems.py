"""Continuous test functions with known optima behind one evaluation contract.

The shipped catalog is the community-standard smoke set (Sphere, Rastrigin,
Rosenbrock, Ackley) with a unimodal/multimodal mix. Instances are addressed
by string id, e.g. ``rastrigin-d10``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

Array = np.ndarray


@dataclass(frozen=True)
class ProblemInstance:
    """A deterministic objective on a box domain, minimization direction.

    `rows_fn` evaluates a (n, d) batch of points row-wise; scalar
    evaluation goes through the same code path.
    """

    instance_id: str
    dimension: int
    lower: Array
    upper: Array
    f_opt: float | None
    rows_fn: Callable[[Array], Array]

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.lower.shape != (self.dimension,) or self.upper.shape != (self.dimension,):
            raise ValueError("bounds must have one (lower, upper) pair per coordinate")
        if np.any(self.lower >= self.upper):
            raise ValueError("lower bound must be < upper bound per coordinate")
        self.lower.setflags(write=False)
        self.upper.setflags(write=False)

    # perfbench/child.py calibrates the bare objective through this method
    def evaluate(self, x) -> float:
        """Objective value at one point. Raises on dimension mismatch."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(
                f"{self.instance_id}: expected point of dimension {self.dimension}, "
                f"got shape {x.shape}"
            )
        return float(self.rows_fn(x[None, :])[0])

    def evaluate_rows(self, xs: Array) -> Array:
        """Objective values for a (n, d) batch of points."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dimension:
            raise ValueError(self.shape_error(xs))
        return self.rows_fn(xs)

    def shape_error(self, xs: Array) -> str:
        """The message rejecting `xs`, which is not a (n, d) batch."""
        return f"{self.instance_id}: expected (n, {self.dimension}) batch, got shape {xs.shape}"

    def uniform(self, rng: np.random.Generator, n: int | None = None) -> Array:
        """Uniform in-bounds sample(s)."""
        size = (self.dimension,) if n is None else (n, self.dimension)
        return rng.uniform(self.lower, self.upper, size=size)


def _sphere(xs: Array) -> Array:
    return np.sum(xs**2, axis=1)


def _rastrigin(xs: Array) -> Array:
    d = xs.shape[1]
    return 10.0 * d + np.sum(xs**2 - 10.0 * np.cos(2.0 * np.pi * xs), axis=1)


def _rosenbrock(xs: Array) -> Array:
    a = xs[:, :-1]
    b = xs[:, 1:]
    return np.sum(100.0 * (b - a**2) ** 2 + (1.0 - a) ** 2, axis=1)


def _ackley(xs: Array) -> Array:
    d = xs.shape[1]
    s1 = np.sum(xs**2, axis=1)
    s2 = np.sum(np.cos(2.0 * np.pi * xs), axis=1)
    return -20.0 * np.exp(-0.2 * np.sqrt(s1 / d)) - np.exp(s2 / d) + 20.0 + np.e


# name -> (rows_fn, (lower, upper), x_opt coordinate, min dimension)
_CATALOG: dict[str, tuple[Callable[[Array], Array], tuple[float, float], float, int]] = {
    "sphere": (_sphere, (-5.12, 5.12), 0.0, 1),
    "rastrigin": (_rastrigin, (-5.12, 5.12), 0.0, 1),
    "rosenbrock": (_rosenbrock, (-5.0, 10.0), 1.0, 2),
    "ackley": (_ackley, (-32.768, 32.768), 0.0, 1),
}


def catalog_names() -> tuple[str, ...]:
    return tuple(_CATALOG)


def get_problem(instance_id: str) -> ProblemInstance:
    """Resolve an id like ``rastrigin-d10`` to a ProblemInstance."""
    name, sep, dim_part = instance_id.rpartition("-d")
    if not sep or not dim_part.isdigit():
        raise KeyError(f"malformed instance id {instance_id!r}, expected '<name>-d<dim>'")
    if name not in _CATALOG:
        raise KeyError(f"unknown problem {name!r}; catalog: {', '.join(_CATALOG)}")
    dimension = int(dim_part)
    rows_fn, (lo, hi), x_opt_coord, min_dim = _CATALOG[name]
    if dimension < min_dim:
        raise KeyError(f"{name} requires dimension >= {min_dim}")
    return ProblemInstance(
        instance_id=instance_id,
        dimension=dimension,
        lower=np.full(dimension, lo),
        upper=np.full(dimension, hi),
        f_opt=0.0,
        rows_fn=rows_fn,
    )


def optimum_point(instance_id: str) -> Array:
    """The known minimizer of a catalog instance."""
    name, _, _ = instance_id.rpartition("-d")
    instance = get_problem(instance_id)
    coord = _CATALOG[name][2]
    return np.full(instance.dimension, coord)
