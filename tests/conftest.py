import numpy as np
import pytest

from mirrorsolve import GridFunction


def _array_of(a):
    """The node array of a grid function or an array, else None."""
    if isinstance(a, GridFunction):
        return a.values
    return a if isinstance(a, np.ndarray) else None


def _check_ownership(fn, *args, inputs=()):
    """Call ``fn(*args)`` twice and check that it owns what it writes.

    The arrays of the grid-function and array arguments and ``inputs`` keep
    their bits and their write flags.  A grid-function or array result
    shares memory with no input and not with the other call's result, and
    the second call leaves the first result's bits unchanged; a
    grid-function result is also read-only.  A float result repeats
    exactly.  Returns the first result.
    """
    arrays = [a for a in map(_array_of, args) if a is not None] + list(inputs)
    before = [(a.tobytes(), a.flags.writeable) for a in arrays]
    first = fn(*args)
    res = _array_of(first)
    first_bits = res.tobytes() if res is not None else None
    second = fn(*args)
    if res is not None:
        both = (res, _array_of(second))
        for r in both:
            assert not (isinstance(first, GridFunction) and r.flags.writeable)
            assert not any(np.shares_memory(r, a) for a in arrays)
        assert not np.shares_memory(*both)
        assert both[0].tobytes() == first_bits
        assert both[1].tobytes() == first_bits
    else:
        assert isinstance(first, float) and first == second
    assert [(a.tobytes(), a.flags.writeable) for a in arrays] == before
    return first


@pytest.fixture
def check_ownership():
    return _check_ownership


@pytest.fixture
def grid_function_count(monkeypatch):
    """A one-entry list that counts the grid functions constructed from here
    on: every construction runs ``__post_init__``."""
    count = [0]
    post_init = GridFunction.__post_init__

    def counted(self):
        count[0] += 1
        post_init(self)

    monkeypatch.setattr(GridFunction, "__post_init__", counted)
    return count
