"""Built-in problem instances.

``example1`` and ``example2`` are the two benchmark problems with
discontinuous convection and source:

    a(x,t) = -(1 + x(1-x)) for x <= d,  +(1 + x(1-x)) for x > d,
    b(x,t) = 1 + exp(x),  c = 1,  d = 0.5,  T = 1,
    f(x,t) = -2(1+x^2)t on the left; 2(1+x^2)t (example1) or 3(1+x^2)t
    (example2) on the right,

with homogeneous boundary and initial data.  Custom problems are built in
host code by constructing a :class:`~layersolve.problem.ProblemSpec`
directly; there is deliberately no expression-parsing DSL.

The manufactured sine problem (known exact solution, eps = mu = 1) supports
the temporal-order study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import UnknownExample
from .problem import PerturbationParams, PiecewiseField, ProblemSpec

__all__ = [
    "lookup",
    "REGISTRY_KEYS",
    "ManufacturedProblem",
    "manufactured_sine",
]

_D = 0.5


def _example_spec(epsilon: float, mu: float, right_source_scale: float) -> ProblemSpec:
    a = PiecewiseField(
        left=lambda x, t: -(1.0 + x * (1.0 - x)),
        right=lambda x, t: 1.0 + x * (1.0 - x),
        d=_D)
    f = PiecewiseField(
        left=lambda x, t: -2.0 * (1.0 + x * x) * t,
        right=lambda x, t: right_source_scale * (1.0 + x * x) * t,
        d=_D)
    return ProblemSpec(
        a=a,
        f=f,
        b=lambda x, t: 1.0 + np.exp(x),
        c=lambda x, t: 1.0,
        p=lambda t: 0.0,
        r=lambda t: 0.0,
        q=lambda x: 0.0 * x,
        d=_D,
        t_final=1.0,
        params=PerturbationParams(epsilon=epsilon, mu=mu),
        alpha1=1.0,
        alpha2=1.0,
        beta=2.0,
        eta=1.0)


def example1(epsilon: float, mu: float) -> ProblemSpec:
    return _example_spec(epsilon, mu, right_source_scale=2.0)


def example2(epsilon: float, mu: float) -> ProblemSpec:
    return _example_spec(epsilon, mu, right_source_scale=3.0)


_REGISTRY: dict[str, Callable[[float, float], ProblemSpec]] = {
    "example1": example1,
    "example2": example2,
}

REGISTRY_KEYS = tuple(sorted(_REGISTRY))


def lookup(key: str, epsilon: float, mu: float) -> ProblemSpec:
    """Return the named registry problem at the given perturbation parameters."""
    try:
        factory = _REGISTRY[key]
    except KeyError:
        raise UnknownExample(
            f"unknown example {key!r}; available: {', '.join(REGISTRY_KEYS)}; custom "
            f"problems are built in host code as a ProblemSpec") from None
    return factory(epsilon, mu)


@dataclass(frozen=True)
class ManufacturedProblem:
    """A ProblemSpec with a known exact solution and its analytic derivatives.

    The forcing in ``spec`` is built branch-wise from
    f = eps*u_xx + mu*a*u_x - b*u - c*u_t, so u is the exact solution by
    construction; ``exact_x``, ``exact_xx``, ``exact_t`` let the residual be
    re-verified without finite differencing.
    """

    spec: ProblemSpec
    exact: Callable[..., np.ndarray]
    exact_x: Callable[..., np.ndarray]
    exact_xx: Callable[..., np.ndarray]
    exact_t: Callable[..., np.ndarray]


def _manufacture(u, ux, uxx, ut) -> ManufacturedProblem:
    # eps = mu = 1, a = -1/+1 branches, b = c = 1: layer-free but the forcing
    # still jumps at d, keeping the instance inside the problem class.
    def f_branch(a_sign):
        def f(x, t):
            return uxx(x, t) + a_sign * ux(x, t) - u(x, t) - ut(x, t)
        return f

    spec = ProblemSpec(
        a=PiecewiseField(left=lambda x, t: -1.0 + 0.0 * x,
                         right=lambda x, t: 1.0 + 0.0 * x, d=_D),
        f=PiecewiseField(left=f_branch(-1.0), right=f_branch(1.0), d=_D),
        b=lambda x, t: 1.0,
        c=lambda x, t: 1.0,
        p=lambda t: float(u(0.0, t)),
        r=lambda t: float(u(1.0, t)),
        q=lambda x: u(x, 0.0),
        d=_D,
        t_final=1.0,
        params=PerturbationParams(epsilon=1.0, mu=1.0),
        alpha1=1.0,
        alpha2=1.0,
        beta=1.0,
        eta=1.0)
    return ManufacturedProblem(spec=spec, exact=u, exact_x=ux, exact_xx=uxx,
                               exact_t=ut)


def manufactured_sine() -> ManufacturedProblem:
    """u = exp(-t) sin(pi x): smooth, time-decaying, zero at both boundaries."""
    pi = np.pi
    return _manufacture(
        u=lambda x, t: np.exp(-t) * np.sin(pi * x),
        ux=lambda x, t: pi * np.exp(-t) * np.cos(pi * x),
        uxx=lambda x, t: -pi * pi * np.exp(-t) * np.sin(pi * x),
        ut=lambda x, t: -np.exp(-t) * np.sin(pi * x))

