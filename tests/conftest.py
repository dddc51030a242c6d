import numpy as np
import pytest

from mirrorsolve.grids import GridFunction


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


#: unit roundoff of IEEE double, and the largest absolute error of a
#: product that rounds into the subnormal range
_U, _ETA = 2.0 ** -53, 2.0 ** -1075


def _gamma(k):
    return k * _U / (1 - k * _U)


def _check_moment_form(got, pairs, w, v):
    """Check a factor-form product against its sum written out.

    ``got`` is sum_p b_p sum_j w_j a_p[j] v[j] for the (a, b) ``pairs``
    (node arrays or scalars), evaluated in some summation order.  Each
    evaluation of that sum lies within gamma_k S of its exact value, where
    S = sum_p |b_p| sum_j w_j |a_p[j] v[j]| and k = n + p + 2 counts the
    roundings on one term's path (weighting, product, the n-node and the
    p-term sums); see Higham, Accuracy and Stability of Numerical
    Algorithms (2002), ch. 3.  So ``got`` and the written-out sum differ by
    at most 2 gamma_k S <= gamma_2k S (the slack covers the rounding of S),
    plus k underflow errors per node and term, carried by |v| and |b_p|.
    """
    ref, scale, carry = np.zeros_like(got), np.zeros_like(got), np.zeros_like(got)
    for a, b in pairs:
        ref += b * (w * a * v).sum()
        scale += np.abs(b) * (w * np.abs(a * v)).sum()
        carry += 1.0 + np.abs(b)
    k = v.size + len(pairs) + 2
    bound = _gamma(2 * k) * scale + 2 * k * _ETA * (1.0 + np.max(np.abs(v))) * carry
    assert np.all(np.abs(got - ref) <= bound)


@pytest.fixture(scope="session")
def check_moment_form():
    # session scope, so that hypothesis tests may take it
    return _check_moment_form


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
