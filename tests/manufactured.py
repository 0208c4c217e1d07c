"""Manufactured problems that only the tests use, built like the library's
``manufactured_sine`` (eps = mu = 1, known exact solution)."""

import numpy as np

from layersolve.registry import _manufacture


def manufactured_linear():
    """u = exp(-t)(1 + x): linear in x, so the upwind stencil is spatially exact."""
    return _manufacture(
        u=lambda x, t: np.exp(-t) * (1.0 + x),
        ux=lambda x, t: np.exp(-t) * (1.0 + 0.0 * x),
        uxx=lambda x, t: 0.0 * x,
        ut=lambda x, t: -np.exp(-t) * (1.0 + x))


def manufactured_steady():
    """u = sin(pi x), independent of t: isolates the spatial error floor."""
    pi = np.pi
    return _manufacture(
        u=lambda x, t: np.sin(pi * x) + 0.0 * t,
        ux=lambda x, t: pi * np.cos(pi * x) + 0.0 * t,
        uxx=lambda x, t: -pi * pi * np.sin(pi * x) + 0.0 * t,
        ut=lambda x, t: 0.0 * x + 0.0 * t)
