"""Continuous test functions with known optima behind one evaluation contract.

The shipped catalog is the community-standard smoke set (Sphere, Rastrigin,
Rosenbrock, Ackley) with a unimodal/multimodal mix. Instances are addressed
by string id, e.g. ``rastrigin-d10``.

Rastrigin, Rosenbrock and Ackley are kernels: each applies its textbook
expression's operations in the expression's order, to the same operands,
but writes each step in place into at most two scratch arrays made per call
and sums with ``np.add.reduce`` (``np.sum`` without its Python dispatch).
Each scratch array is made by its first step's ufunc, so it has the layout
the expression's temporary had and the row sums add in the same order.
So every value is bit-identical to the expression's, and every log, curve
and table with it. A kernel never writes into its input and returns a fresh
array. Sphere stays the plain expression: the real-clock benchmark times
the harness against sphere's cost, so a faster sphere would move that
fairness figure for a reason that is not the harness.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

Array = np.ndarray


@dataclass(frozen=True)
class ProblemInstance:
    """A deterministic objective on a box domain, minimization direction.

    `rows_fn` evaluates a (n, d) batch of points row-wise; scalar
    evaluation goes through the same code path. The bounds are also kept as
    Python floats (`lower_floats`, `upper_floats`) for one-row checks.
    """

    instance_id: str
    dimension: int
    lower: Array
    upper: Array
    f_opt: float | None
    rows_fn: Callable[[Array], Array]
    span: Array = field(init=False, repr=False, compare=False)  # upper - lower
    lower_floats: tuple[float, ...] = field(init=False, repr=False, compare=False)
    upper_floats: tuple[float, ...] = field(init=False, repr=False, compare=False)
    # batch size n -> read-only (n, d) views of the bounds block; see `bounds`
    _bounds: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.lower.shape != (self.dimension,) or self.upper.shape != (self.dimension,):
            raise ValueError("bounds must have one (lower, upper) pair per coordinate")
        with np.errstate(over="ignore", invalid="ignore"):
            span = self.upper - self.lower
        # `uniform` draws lower + span * u: an inf or NaN bound, or a span
        # that overflows, would give inf or NaN points
        if not all(np.isfinite(a).all() for a in (self.lower, self.upper, span)):
            raise ValueError(f"{self.instance_id}: bounds and upper - lower must be finite")
        if np.any(self.lower >= self.upper):
            raise ValueError("lower bound must be < upper bound per coordinate")
        self.lower.setflags(write=False)
        self.upper.setflags(write=False)
        span.setflags(write=False)
        object.__setattr__(self, "span", span)
        object.__setattr__(self, "lower_floats", tuple(self.lower.tolist()))
        object.__setattr__(self, "upper_floats", tuple(self.upper.tolist()))
        object.__setattr__(self, "_bounds", {})

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

    def bounds(self, n: int) -> tuple[Array, Array]:
        """Read-only (n, d) lower and upper bounds, the first n rows of one
        (2, N, d) block that is rebuilt only for an n above every size asked
        so far; each size's views are cached. numpy clips an (n, d) batch
        faster against same-shape bounds than broadcast (d,) ones, same bits."""
        pair = self._bounds.get(n)
        if pair is None:
            largest = max(self._bounds, default=0)
            if n > largest:
                block = np.empty((2, n, self.dimension))
                block[0], block[1] = self.lower, self.upper
                block.setflags(write=False)
            else:
                block = self._bounds[largest]  # that block's (lower, upper) views
            pair = self._bounds[n] = (block[0][:n], block[1][:n])
        return pair

    def uniform(self, rng: np.random.Generator, n: int | None = None) -> Array:
        """Uniform in-bounds sample(s): the doubles that
        ``rng.uniform(lower, upper, size)`` returns (``lower + span * u``
        over the same stream), without its per-call broadcasting and range
        checks."""
        x = rng.random((self.dimension,) if n is None else (n, self.dimension))
        x *= self.span
        x += self.lower
        return x


def _sphere(xs: Array) -> Array:
    return np.sum(xs**2, axis=1)


def _rastrigin(xs: Array) -> Array:
    # 10 d + sum(x**2 - 10 cos(2 pi x))
    d = xs.shape[1]
    t = np.multiply(2.0 * np.pi, xs)
    np.cos(t, out=t)
    np.multiply(10.0, t, out=t)
    s = np.square(xs)
    np.subtract(s, t, out=s)
    f = np.add.reduce(s, axis=1)
    f += 10.0 * d
    return f


def _rosenbrock(xs: Array) -> Array:
    # sum(100 (b - a**2)**2 + (1 - a)**2), a = x[:-1], b = x[1:]
    a = xs[:, :-1]
    b = xs[:, 1:]
    t = np.square(a)
    np.subtract(b, t, out=t)
    np.square(t, out=t)
    np.multiply(100.0, t, out=t)
    u = np.subtract(1.0, a)
    np.square(u, out=u)
    np.add(t, u, out=t)
    return np.add.reduce(t, axis=1)


def _ackley(xs: Array) -> Array:
    # -20 exp(-0.2 sqrt(s1 / d)) - exp(s2 / d) + 20 + e,
    # s1 = sum(x**2), s2 = sum(cos(2 pi x))
    d = xs.shape[1]
    t = np.square(xs)
    f = np.add.reduce(t, axis=1)
    np.multiply(2.0 * np.pi, xs, out=t)
    np.cos(t, out=t)
    s2 = np.add.reduce(t, axis=1)
    np.true_divide(f, d, out=f)
    np.sqrt(f, out=f)
    np.multiply(-0.2, f, out=f)
    np.exp(f, out=f)
    np.multiply(-20.0, f, out=f)
    np.true_divide(s2, d, out=s2)
    np.exp(s2, out=s2)
    np.subtract(f, s2, out=f)
    f += 20.0
    f += np.e
    return f


# name -> (rows_fn, (lower, upper), min dimension)
_CATALOG: dict[str, tuple[Callable[[Array], Array], tuple[float, float], int]] = {
    "sphere": (_sphere, (-5.12, 5.12), 1),
    "rastrigin": (_rastrigin, (-5.12, 5.12), 1),
    "rosenbrock": (_rosenbrock, (-5.0, 10.0), 2),
    "ackley": (_ackley, (-32.768, 32.768), 1),
}


def get_problem(instance_id: str) -> ProblemInstance:
    """Resolve an id like ``rastrigin-d10`` to a ProblemInstance."""
    name, sep, dim_part = instance_id.rpartition("-d")
    # ASCII digits without a leading zero: one spelling per dimension
    if not sep or not re.fullmatch("0|[1-9][0-9]*", dim_part):
        raise KeyError(f"malformed instance id {instance_id!r}, expected '<name>-d<dim>'")
    if name not in _CATALOG:
        raise KeyError(f"unknown problem {name!r}; catalog: {', '.join(_CATALOG)}")
    dimension = int(dim_part)
    rows_fn, (lo, hi), min_dim = _CATALOG[name]
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

