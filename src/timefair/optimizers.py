"""Reference optimizers behind an iteration-granular stepping contract.

The protocol drives every algorithm through the same loop: ``init`` builds
a state without consuming evaluations, ``step`` performs exactly one
iteration through the run's counting evaluator and returns True once the
algorithm is done. The evaluator is the one record of the run's best, so a
state holds search state only. Budget checks happen between steps, so each
algorithm declares its evaluations per step (`evals_per_step`), which lets
the virtual-mode runner predict whether the next step still fits the
budget. An algorithm that evaluates one point per iteration, none of
them depending on an evaluation, may also show its drawn points (`drawn`)
and count them (`advance`), so that a virtual-clock runner scores several
iterations per objective call.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from .problems import ProblemInstance
from .seeds import subseed


@dataclass(frozen=True)
class PsoParams:
    """Constriction-style global-best PSO coefficients."""

    swarm_size: int = 40
    inertia: float = 0.7298
    cognitive: float = 1.49618
    social: float = 1.49618
    velocity_clamp: float = 0.5  # fraction of the per-coordinate bound range

    def __post_init__(self) -> None:
        if not isinstance(self.swarm_size, numbers.Integral) or self.swarm_size < 2:
            raise ValueError("swarm_size must be an integer >= 2")
        if not 0.0 <= self.inertia < 1.0:
            raise ValueError("inertia must lie in [0, 1)")
        if not (0 < self.cognitive < math.inf and 0 < self.social < math.inf):
            raise ValueError("cognitive and social coefficients must be finite and > 0")
        if not 0 < self.velocity_clamp < math.inf:
            raise ValueError("velocity_clamp must be finite and > 0")


class Algorithm:
    """Common surface shared by concrete optimizers and wrappers."""

    evals_per_step: int = 1
    drawn = None  # None: stepped one iteration at a time (see RandomSearch.drawn)

    def __init__(self, max_iterations: Optional[int] = None):
        if max_iterations is not None and not (
            isinstance(max_iterations, numbers.Integral) and max_iterations >= 1
        ):
            raise ValueError("max_iterations must be an integer >= 1")
        self.max_iterations = max_iterations

    def _count(self, state, k: int = 1) -> bool:
        """Count k iterations of `state`; True once max_iterations are done."""
        state.iterations += k
        return self.max_iterations is not None and state.iterations >= self.max_iterations

    def describe(self) -> dict:
        """Effective parameters, echoed into run headers and the manifest."""
        raise NotImplementedError

    def init(self, instance: ProblemInstance, seed: int):
        raise NotImplementedError

    def step(self, state, evaluator) -> bool:
        """One iteration; True when the algorithm declares it is done."""
        raise NotImplementedError


def _generator(seed: int) -> np.random.Generator:
    """The generator ``np.random.default_rng(seed)`` builds, without its
    argument dispatch: one is built per run."""
    return np.random.Generator(np.random.PCG64(seed))


# points drawn per refill; one (k, d) draw gives the same doubles, in the
# same order, as k single draws, at a fraction of the per-call cost
RANDOM_SEARCH_BLOCK = 64


@dataclass
class RandomSearchState:
    """The run's generator and its drawn `block`, not evaluated yet from row `cursor` on."""

    rng: np.random.Generator
    block: np.ndarray
    iterations: int = 0
    cursor: int = 0


class RandomSearch(Algorithm):
    """Uniform random sampling; one evaluation per step.

    Points are drawn from the run's generator in blocks of up to
    `RANDOM_SEARCH_BLOCK` rows, never past `max_iterations`; the stream is
    the one a draw per point would give. No point depends on an
    evaluation, so `drawn` shows the points drawn but not evaluated yet,
    and a virtual-clock runner scores several of them per objective call,
    counting them with `advance`.
    """

    kind = "random-search"

    def describe(self) -> dict:
        return {"kind": self.kind, "max_iterations": self.max_iterations}

    def init(self, instance: ProblemInstance, seed: int) -> RandomSearchState:
        return RandomSearchState(rng=_generator(seed), block=np.empty((0, instance.dimension)))

    def drawn(self, state: RandomSearchState, instance: ProblemInstance) -> np.ndarray:
        """The drawn points not evaluated yet: a view of the state's block
        from its cursor on, after a fresh draw if the block is spent."""
        if state.cursor == len(state.block):
            k = RANDOM_SEARCH_BLOCK
            if self.max_iterations is not None:
                k = min(k, self.max_iterations - state.iterations)
            state.block, state.cursor = instance.uniform(state.rng, k), 0
        return state.block[state.cursor :]

    def advance(self, state: RandomSearchState, k: int) -> bool:
        """Count the next k drawn points as evaluated, one iteration each;
        True once max_iterations are done."""
        state.cursor += k
        return self._count(state, k)

    def step(self, state: RandomSearchState, evaluator) -> bool:
        block, cursor = state.block, state.cursor
        if cursor == len(block):
            # `drawn` refills a spent block; called only then, because a
            # real clock charges every call of a step to the algorithm
            block, cursor = self.drawn(state, evaluator.instance), 0
        evaluator.evaluate_rows(block[cursor : cursor + 1])
        state.cursor = cursor + 1
        return self._count(state)


@dataclass
class PsoState:
    rng: np.random.Generator
    x: np.ndarray
    v: np.ndarray
    # (2, n, d): row 0 is `pbest_x`, row 1 the swarm best on every particle,
    # so one subtraction gives the differences of both pulls
    attract: np.ndarray
    pbest_x: np.ndarray  # view of `attract[0]`
    pbest_f: np.ndarray
    r: np.ndarray  # (2, n, d) scratch: r1 and r2, then the two pulls
    diff: np.ndarray  # (2, n, d) scratch: attract - x
    iterations: int = 0
    # swarm best: steers velocities, resets with the swarm; `attract[1]` holds its position
    best_f: float = math.inf


class PSO(Algorithm):
    """Global-best PSO; one full swarm update (= swarm_size FEs) per step.

    The first step evaluates the initial swarm; later steps move every
    particle and re-evaluate. Positions are clamped into bounds, velocities
    to `velocity_clamp` times the bound range.
    """

    kind = "pso"

    def __init__(self, params: PsoParams = PsoParams(), max_iterations: Optional[int] = None):
        super().__init__(max_iterations)
        self.params = params
        self._constants_for: tuple = (None, None)  # (instance, its constants)

    @property
    def evals_per_step(self) -> int:
        return self.params.swarm_size

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            **asdict(self.params),
            "topology": "global-best",
            "max_iterations": self.max_iterations,
        }

    def _constants(self, instance: ProblemInstance) -> tuple:
        """The step's constant operands for `instance`: w, (c1, c2), -vmax
        and vmax, read-only views of one (5, n, d) block built once per
        instance because restarts re-init often, and the instance's own
        (n, d) lower and upper bounds. numpy updates an (n, d) array
        several times faster with same-shape operands than with broadcast
        ones, and the products and clips are the same bit for bit."""
        cached, constants = self._constants_for
        if cached is not instance:
            p = self.params
            block = np.empty((5, p.swarm_size, instance.dimension))
            block[0] = p.inertia
            block[1] = p.cognitive
            block[2] = p.social
            block[4] = p.velocity_clamp * instance.span
            np.negative(block[4], out=block[3])
            block.setflags(write=False)
            constants = (block[0], block[1:3], block[3], block[4], *instance.bounds(p.swarm_size))
            self._constants_for = (instance, constants)
        return constants

    def init(self, instance: ProblemInstance, seed: int) -> PsoState:
        rng = _generator(seed)
        x = instance.uniform(rng, self.params.swarm_size)
        attract = np.empty((2, *x.shape))
        attract[...] = x  # row 1: the initial swarm until a best exists
        return PsoState(
            rng=rng,
            x=x,
            v=np.zeros_like(x),
            attract=attract,
            pbest_x=attract[0],
            pbest_f=np.full(len(x), math.inf),
            r=np.empty_like(attract),
            diff=np.empty_like(attract),
        )

    def step(self, state: PsoState, evaluator) -> bool:
        x, v, attract = state.x, state.v, state.attract
        if state.iterations > 0:
            # in place, with the operations and their order of
            # v = w*v + (c1*r1)*(pbest - x) + (c2*r2)*(best - x)
            inertia, coefficients, neg_vmax, vmax, lower, upper = self._constants(evaluator.instance)
            r = state.r
            state.rng.random(out=r)  # r1, then r2
            np.subtract(attract, x, out=state.diff)
            r *= coefficients
            r *= state.diff
            v *= inertia
            v += r[0]
            v += r[1]
            # the method np.clip calls, without its dispatch layer
            v.clip(neg_vmax, vmax, out=v)
            x += v
            x.clip(lower, upper, out=x)
        fs = evaluator.evaluate_rows(x)
        improved = fs < state.pbest_f
        np.copyto(state.pbest_x, x, where=improved[:, None])
        np.copyto(state.pbest_f, fs, where=improved)
        i = int(state.pbest_f.argmin())
        if state.pbest_f[i] < state.best_f:
            state.best_f = float(state.pbest_f[i])
            attract[1] = state.pbest_x[i]
        return self._count(state)


@dataclass
class StagnationRestartState:
    seed: int
    inner_state: object
    plateau_count: int = 0
    restart_count: int = 0


class StagnationRestart(Algorithm):
    """Reinitialize the inner optimizer when the run's best plateaus.

    A plateau is `plateau_window` consecutive iterations in which the
    run's best (`evaluator.best_f`) improves by less than
    `plateau_epsilon`. Each restart draws a fresh sub-seed from the run
    seed's splitmix64 stream, so the inner sequence is never replayed; the
    evaluator keeps the run's best across restarts.
    """

    def __init__(
        self,
        inner: Algorithm,
        plateau_window: int,
        plateau_epsilon: float,
        max_restarts: Optional[int] = None,
    ):
        if plateau_window < 1:
            raise ValueError("plateau_window must be >= 1")
        if not 0 <= plateau_epsilon < math.inf:
            raise ValueError("plateau_epsilon must be finite and >= 0")
        if max_restarts is not None and max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        self.inner = inner
        self.plateau_window = plateau_window
        self.plateau_epsilon = plateau_epsilon
        self.max_restarts = max_restarts
        self.evals_per_step = inner.evals_per_step

    def describe(self) -> dict:
        desc = self.inner.describe()
        desc["stagnation_restart"] = {
            "plateau_window": self.plateau_window,
            "plateau_epsilon": self.plateau_epsilon,
            "max_restarts": self.max_restarts,
        }
        return desc

    def init(self, instance: ProblemInstance, seed: int) -> StagnationRestartState:
        return StagnationRestartState(
            seed=seed,
            inner_state=self.inner.init(instance, subseed(seed, 0)),
        )

    def step(self, state: StagnationRestartState, evaluator) -> bool:
        before = evaluator.best_f
        stop = self.inner.step(state.inner_state, evaluator)
        if before - evaluator.best_f >= self.plateau_epsilon:
            state.plateau_count = 0
        else:
            state.plateau_count += 1
        if state.plateau_count >= self.plateau_window and not stop:
            if self.max_restarts is not None and state.restart_count >= self.max_restarts:
                stop = True  # retries exhausted: declare convergence
            else:
                state.restart_count += 1
                state.inner_state = self.inner.init(
                    evaluator.instance, subseed(state.seed, state.restart_count)
                )
                state.plateau_count = 0
        return stop


# Not an algorithm: the plan's virtual clock charges ``synthetic_overhead``.
# perfbench/tracer.py still looks up ``SyntheticOverhead.step``; finding no
# ``step`` here, it lists that layer as absent instead of failing.
SyntheticOverhead = None


_KINDS = ("random-search", "pso")


def make_optimizer(kind: str, params: Optional[dict] = None) -> Algorithm:
    """Build an optimizer from its catalog kind and a parameter dict.

    Unknown kinds and unknown parameter keys are errors; defaults are
    materialized so `describe()` echoes the full effective configuration.
    """
    if kind not in _KINDS:
        raise KeyError(f"unknown algorithm kind {kind!r}; available: {', '.join(_KINDS)}")
    params = dict(params or {})
    known = {"max_iterations"} | ({f.name for f in fields(PsoParams)} if kind == "pso" else set())
    unknown = sorted(set(params) - known)
    if unknown:
        raise ValueError(f"unknown parameters for {kind}: {', '.join(unknown)}")
    max_iterations = params.pop("max_iterations", None)
    if kind == "pso":
        return PSO(PsoParams(**params), max_iterations=max_iterations)
    return RandomSearch(max_iterations=max_iterations)
