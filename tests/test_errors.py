"""Bad arguments to library calls raise InvalidInput, a LayerSolveError and a ValueError."""

import pytest

from layersolve import (InvalidInput, LayerSolveError, UnknownExample,
                        convergence_study, lookup, uniform_mesh, uniform_time_grid)

BAD_CALLS = {
    "epsilon": lambda: lookup("example1", 0.0, 1e-6),
    "mu": lambda: lookup("example1", 1e-8, 2.0),
    "N": lambda: uniform_mesh(20),
    "M": lambda: uniform_time_grid(1.0, 0),
    "levels": lambda: convergence_study(lookup("example1", 1e-5, 1e-4), 16, 16, 1),
    "example": lambda: lookup("example9", 1e-8, 1e-6),
}


@pytest.mark.parametrize("what", sorted(BAD_CALLS))
@pytest.mark.parametrize("caught", [LayerSolveError, ValueError, InvalidInput])
def test_bad_argument_is_caught_by(what, caught):
    with pytest.raises(caught):
        BAD_CALLS[what]()


def test_unknown_example_is_invalid_input_with_host_code_hint():
    with pytest.raises(UnknownExample, match="host code") as info:
        lookup("custom", 1e-8, 1e-6)
    assert isinstance(info.value, InvalidInput)
