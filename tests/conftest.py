import numpy as np
import pytest

from mirrorsolve import GridFunction


def _check_ownership(fn, *args, inputs=()):
    """Call ``fn(*args)`` twice and check that it owns what it writes.

    The arrays of the grid-function arguments and ``inputs`` keep their bits
    and their write flags.  A grid-function result is read-only and shares
    memory with no input and not with the other call's result, and the second
    call leaves the first result's bits unchanged.  A float result repeats
    exactly.  Returns the first result.
    """
    arrays = [a.values for a in args if isinstance(a, GridFunction)] + list(inputs)
    before = [(a.tobytes(), a.flags.writeable) for a in arrays]
    first = fn(*args)
    first_bits = first.values.tobytes() if isinstance(first, GridFunction) else None
    second = fn(*args)
    if isinstance(first, GridFunction):
        for res in (first.values, second.values):
            assert not res.flags.writeable
            assert not any(np.shares_memory(res, a) for a in arrays)
        assert not np.shares_memory(first.values, second.values)
        assert first.values.tobytes() == first_bits
        assert second.values.tobytes() == first_bits
    else:
        assert isinstance(first, float) and first == second
    assert [(a.tobytes(), a.flags.writeable) for a in arrays] == before
    return first


@pytest.fixture
def check_ownership():
    return _check_ownership
