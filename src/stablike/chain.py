"""Stable-like chain model: position-dependent jump profiles and stepping.

A chain is specified by three profiles over the real line: the jump
stability index alpha(x) in (0, 2), the scale gamma(x) > 0 and the
shift delta(x). From state x the chain jumps to x + J where J is
S(alpha(x), gamma(x), delta(x)). Profiles taking finitely many values
keep the heavy-tail uniformity assumptions valid by construction;
arbitrary callables are accepted behind an `unchecked` flag that marks
downstream verdicts as conditional.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .stable import StableParams, _cms_scalar, sas_sample, tail_constant


@dataclass(frozen=True)
class ProfileFn:
    """Piecewise-constant (or custom callable) function of position.

    Representations:
      constant   one value everywhere
      two_valued left value for x < 0, right value for x >= 0
      periodic   step values on cells [k*w, (k+1)*w) of width w = period/len
      piecewise  breakpoints b_1 < ... < b_k with k+1 values; value[i] on
                 [b_i, b_{i+1}), value[0] left of b_1, value[k] from b_k on
      custom     arbitrary callable (no finiteness certification)
    """

    kind: str
    values: tuple = ()
    breakpoints: tuple = ()
    period: float = 0.0
    fn: object = None

    @classmethod
    def constant(cls, v: float) -> "ProfileFn":
        return cls("constant", values=(float(v),))

    @classmethod
    def two_valued(cls, left: float, right: float) -> "ProfileFn":
        return cls("two_valued", values=(float(left), float(right)))

    @classmethod
    def periodic(cls, period: float, values) -> "ProfileFn":
        values = tuple(float(v) for v in values)
        if not period > 0.0 or not values:
            raise DomainError("periodic profile needs period > 0 and values")
        return cls("periodic", values=values, period=float(period))

    @classmethod
    def piecewise(cls, breakpoints, values) -> "ProfileFn":
        breakpoints = tuple(float(b) for b in breakpoints)
        values = tuple(float(v) for v in values)
        if len(values) != len(breakpoints) + 1:
            raise DomainError("piecewise profile needs len(values) == len(breakpoints) + 1")
        if any(b1 >= b2 for b1, b2 in zip(breakpoints, breakpoints[1:])):
            raise DomainError("piecewise breakpoints must be strictly increasing")
        return cls("piecewise", values=values, breakpoints=breakpoints)

    @classmethod
    def custom(cls, fn) -> "ProfileFn":
        return cls("custom", fn=fn)

    def __call__(self, x: float) -> float:
        if self.kind == "constant":
            return self.values[0]
        if self.kind == "two_valued":
            return self.values[0] if x < 0 else self.values[1]
        if self.kind == "periodic":
            cell_w = self.period / len(self.values)
            i = int(np.floor((x % self.period) / cell_w))
            return self.values[min(i, len(self.values) - 1)]
        if self.kind == "piecewise":
            i = int(np.searchsorted(self.breakpoints, x, side="right"))
            return self.values[i]
        return float(self.fn(x))

    def at(self, x) -> np.ndarray:
        """Vectorized lookup over an array of positions."""
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            return np.full_like(x, self.values[0])
        if self.kind == "two_valued":
            return np.where(x < 0, self.values[0], self.values[1])
        if self.kind == "periodic":
            cell_w = self.period / len(self.values)
            idx = np.floor((x % self.period) / cell_w).astype(int)
            idx = np.minimum(idx, len(self.values) - 1)
            return np.asarray(self.values)[idx]
        if self.kind == "piecewise":
            idx = np.searchsorted(self.breakpoints, x, side="right")
            return np.asarray(self.values)[idx]
        return np.vectorize(self.fn, otypes=[float])(x)

    def value_set(self) -> tuple:
        """All attainable values; undecidable for custom profiles."""
        if self.kind == "custom":
            raise DomainError("custom profiles have no enumerable value set")
        return tuple(sorted(set(self.values)))

    def limit_values(self) -> tuple:
        """Values attained at arbitrarily large |x| (both directions)."""
        if self.kind == "custom":
            raise DomainError("custom profiles have no enumerable limit set")
        if self.kind == "constant":
            return (self.values[0],)
        if self.kind == "two_valued":
            return tuple(sorted(set(self.values)))
        if self.kind == "periodic":
            return tuple(sorted(set(self.values)))
        return tuple(sorted({self.values[0], self.values[-1]}))


@dataclass(frozen=True)
class SasJump:
    """Jump family: symmetric stable steps with profile-driven parameters."""

    gamma_profile: ProfileFn
    delta_profile: ProfileFn


@dataclass(frozen=True)
class ChainSpec:
    """Full chain description; immutable and shareable across workers."""

    alpha_profile: ProfileFn
    family: SasJump
    unchecked: bool = False

    def __post_init__(self):
        if self.unchecked:
            return
        if self.alpha_profile.kind == "custom" or \
                self.family.gamma_profile.kind == "custom" or \
                self.family.delta_profile.kind == "custom":
            raise DomainError(
                "custom profiles require the unchecked=True constructor flag"
            )
        for a in self.alpha_profile.value_set():
            if not 0.0 < a < 2.0:
                raise DomainError(f"alpha profile value {a} outside (0, 2)")
        for g in self.family.gamma_profile.value_set():
            if not g > 0.0:
                raise DomainError(f"gamma profile value {g} must be > 0")
        for d in self.family.delta_profile.value_set():
            if not np.isfinite(d):
                raise DomainError(f"delta profile value {d} must be finite")


@dataclass(frozen=True)
class Trajectory:
    start: float
    states: np.ndarray
    seed: int


def make_chain(alpha, gamma=1.0, delta=0.0, unchecked: bool = False) -> ChainSpec:
    """ChainSpec from profiles or bare numbers (numbers become constants)."""

    def as_profile(v) -> ProfileFn:
        return v if isinstance(v, ProfileFn) else ProfileFn.constant(float(v))

    return ChainSpec(
        as_profile(alpha),
        SasJump(as_profile(gamma), as_profile(delta)),
        unchecked=unchecked,
    )


def alpha_at(spec: ChainSpec, x: float) -> float:
    return spec.alpha_profile(x)


def gamma_at(spec: ChainSpec, x: float) -> float:
    return spec.family.gamma_profile(x)


def delta_at(spec: ChainSpec, x: float) -> float:
    return spec.family.delta_profile(x)


def c_at(spec: ChainSpec, x: float) -> float:
    """Tail coefficient of the jump density from state x."""
    return tail_constant(StableParams(alpha_at(spec, x), gamma_at(spec, x)))


def jump_params(spec: ChainSpec, x: float) -> StableParams:
    return StableParams(alpha_at(spec, x), gamma_at(spec, x), delta_at(spec, x))


def step(spec: ChainSpec, x: float, rng: np.random.Generator) -> float:
    """One transition from x."""
    return x + sas_sample(jump_params(spec, x), rng)


def simulate(spec: ChainSpec, x0: float, n_steps: int, seed: int) -> Trajectory:
    """Single path of n_steps transitions from x0 with a derived stream.

    states[0] is the state after the first step. Constant-parameter
    stretches could be vectorized, but a position-dependent chain is
    inherently sequential, so this is a plain loop.
    """
    if n_steps < 1:
        raise DomainError("simulate requires n_steps >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    states = np.empty(n_steps)
    x = float(x0)
    a_fn = spec.alpha_profile
    g_fn = spec.family.gamma_profile
    d_fn = spec.family.delta_profile
    half_pi = np.pi / 2.0
    for i in range(n_steps):
        u = rng.uniform(-half_pi, half_pi)
        e = rng.standard_exponential()
        x = x + d_fn(x) + g_fn(x) * _cms_scalar(a_fn(x), u, e)
        states[i] = x
    return Trajectory(float(x0), states, seed)
