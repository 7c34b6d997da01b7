"""The canonical form does not depend on the scale of a direction.

`SpectralAtom` promises that ``(c * omega, mass / c)`` is the same measure.
The zero-snap is relative to each direction's largest entry, so faces must
not move under any ``c > 0``, and `standardize` must return a valid,
standardized measure for every valid input.  The measures are those of the
kernel oracle tests: entries from 1e-11 to 1, masses from 1e-12 to 1e6.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import facetail as ft
from test_kernel_oracles import EPS, measures, thresholds


def rescaled(m, c):
    return ft.ExponentMeasure(m.d, [ft.SpectralAtom(c * a.omega, a.mass / c) for a in m.atoms])


@settings(max_examples=300, deadline=None)
@given(measures(), st.integers(-40, 40), st.floats(1e-6, 1e6), st.data())
def test_rescaled_directions_keep_faces_and_exponents(m, e, c, data):
    points = np.array([[data.draw(thresholds) for _ in range(m.d)] for _ in range(4)])
    want = ft.exponent_function_grid(m, points)
    # by a power of two every product and ratio is exact: the same bits
    power = rescaled(m, 2.0 ** e)
    assert power.face_masks.tolist() == m.face_masks.tolist()
    assert ft.exponent_function_grid(power, points).tobytes() == want.tobytes()
    # by any other factor each of the J terms moves by a few roundings
    scaled = rescaled(m, c)
    assert scaled.face_masks.tolist() == m.face_masks.tolist()
    got = ft.exponent_function_grid(scaled, points)
    assert np.all(np.abs(got - want) <= (2 * m.n_atoms + 8) * EPS * want)


@settings(max_examples=300, deadline=None)
@given(measures(cover=True))
def test_standardize_returns_a_valid_standardized_measure(m):
    assert ft.validate_measure(m) == []
    std = ft.standardize(m)
    assert ft.validate_measure(std) == []
    assert ft.is_standardized(std)
