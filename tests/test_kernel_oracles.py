"""Tail masses routed through the ratio kernel against the code they replaced.

Conditional rectangle probabilities, face-interior masses, the extended
exponent and exact chi each used to compute their own ratios of directions
to points.  The ``oracle_*`` functions below are those implementations,
kept verbatim.  The kernel versions must agree with them to a few ulps and
be exactly 0.0 where the oracle is, over masses from 1e-12 to 1e6 and
direction entries down to 1e-11.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import facetail as ft

EPS = np.finfo(float).eps


def oracle_upper_rectangle(law, coords, x):
    om = law.measure.omega_matrix[np.array(law.atom_indices, dtype=int)][:, coords]
    supported = np.all(om > 0.0, axis=1)
    if not np.any(supported):
        return 0.0
    needed_radius = np.max(x[None, :] / om[supported], axis=1)
    tail = np.minimum(1.0, law.r_min[supported] / needed_radius)
    return float(law.weights[supported] @ tail)


def oracle_running_sum(terms):
    # left to right in atom order, as a plain accumulation loop adds them
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


def oracle_face_interior_mass(measure, coords, threshold=1.0):
    idx = sorted(set(int(i) for i in coords))
    imask = sum(1 << i for i in idx)
    inside = (measure.face_masks & imask) == imask
    terms = measure.mass_vector[inside] * np.min(measure.omega_matrix[inside][:, idx], axis=1)
    return oracle_running_sum(terms / threshold)


def oracle_exponent_function_extended(measure, x):
    x = np.asarray(x, dtype=float).reshape(-1)
    zero = x == 0.0
    if not np.any(zero):
        return ft.exponent_function(measure, x)
    if np.any(measure.omega_matrix[:, zero] > 0.0):
        return math.inf
    ratios = measure.omega_matrix[:, ~zero] / x[~zero]
    return oracle_running_sum(measure.mass_vector * np.max(ratios, axis=1, initial=0.0))


def oracle_chi_exact(measure, i, j):
    pair = ft.marginalize(measure, [i, j])
    # no atom charging both coordinates means chi is 0 exactly; skipping the
    # subtraction avoids reporting its roundoff as spurious dependence
    if not np.any(pair.face_masks == 0b11):
        return 0.0
    value = 2.0 - ft.exponent_function(pair, np.ones(2))
    return float(min(1.0, max(0.0, value)))


def assert_close(got, want, n_terms):
    # both sides sum n_terms positive terms, each with a few roundings
    assert (got == 0.0) == (want == 0.0), (got, want)
    assert abs(got - want) <= (2 * n_terms + 8) * EPS * abs(want), (got, want)


@st.composite
def measures(draw, d_min=1, cover=False):
    """Atoms on random faces with entries from 1e-11 to 1 and masses from
    1e-12 to 1e6, log-uniform; with ``cover`` every coordinate is charged."""
    d = draw(st.integers(d_min, 6))
    n_atoms = draw(st.integers(1, 10))
    omega = np.zeros((n_atoms, d))
    for row in omega:
        face = sorted(draw(st.sets(st.integers(0, d - 1), min_size=1)))
        row[face] = [10.0 ** draw(st.floats(-11.0, 0.0)) for _ in face]
    if cover:
        dead = ~np.any(omega > 0.0, axis=0)
        omega[0, dead] = 10.0 ** draw(st.floats(-11.0, 0.0))
    mass = [10.0 ** draw(st.floats(-12.0, 6.0)) for _ in range(n_atoms)]
    return ft.ExponentMeasure(d, [ft.SpectralAtom(row, w) for row, w in zip(omega, mass)])


thresholds = st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e)


@settings(max_examples=300, deadline=None)
@given(measures(), st.data())
def test_conditional_rectangles_match_the_pareto_tail_code(m, data):
    charged = np.flatnonzero(ft.margins(m) > 0.0).tolist()
    law = ft.conditional_law(m, data.draw(st.sampled_from(charged)))
    coords = data.draw(st.lists(st.integers(0, m.d - 1), min_size=1, unique=True))
    x = np.array([data.draw(thresholds) for _ in coords])
    assert_close(ft.marginal_rectangle_probability(law, coords, x),
                 oracle_upper_rectangle(law, np.array(coords), x), m.n_atoms)
    full = np.array([data.draw(thresholds) for _ in range(m.d)])
    assert_close(ft.rectangle_probability(law, full),
                 oracle_upper_rectangle(law, np.arange(m.d), full), m.n_atoms)


@settings(max_examples=300, deadline=None)
@given(measures(), st.data())
def test_face_interior_mass_matches_the_face_filter_code(m, data):
    coords = data.draw(st.sets(st.integers(0, m.d - 1), min_size=1))
    threshold = data.draw(thresholds)
    assert_close(ft.face_interior_mass(m, coords, threshold=threshold),
                 oracle_face_interior_mass(m, coords, threshold), m.n_atoms)


@settings(max_examples=300, deadline=None)
@given(measures(), st.data())
def test_extended_exponent_matches_the_running_sum_code(m, data):
    x = np.array([data.draw(st.one_of(st.just(0.0), thresholds)) for _ in range(m.d)])
    got, want = ft.exponent_function_extended(m, x), oracle_exponent_function_extended(m, x)
    if math.isinf(want) or want == 0.0:
        assert got == want
    else:
        assert_close(got, want, m.n_atoms)


@settings(max_examples=300, deadline=None)
@given(measures(d_min=2, cover=True), st.data())
def test_chi_exact_matches_two_minus_the_pair_exponent(m, data):
    m = ft.standardize(m)
    i, j = data.draw(st.lists(st.integers(0, m.d - 1), min_size=2, max_size=2, unique=True))
    got, want = ft.chi_exact(m, i, j), oracle_chi_exact(m, i, j)
    if np.any((m.omega_matrix[:, i] > 0.0) & (m.omega_matrix[:, j] > 0.0)):
        assert got > 0.0
    else:
        assert got == want == 0.0
    # the oracle is m_i + m_j - exponent with the margins taken as exactly 1,
    # so it is off by their gap from 2 (zero-snapping after standardizing
    # leaves up to 1e-12 per atom), plus a few ulps of 2 from the subtraction
    gap = abs(2.0 - ft.margins(m)[i] - ft.margins(m)[j])
    assert abs(got - want) <= gap + (2 * m.n_atoms + 8) * 2.0 * EPS


def test_extended_exponent_edge_cases():
    m = ft.ExponentMeasure(3, (ft.SpectralAtom(np.array([1.0, 0.5, 0.0]), 2.0),))
    # every coordinate zero: 0.0 when none is charged, +inf otherwise
    assert ft.exponent_function_extended(ft.ExponentMeasure(3, ()), np.zeros(3)) == 0.0
    assert ft.exponent_function_extended(m, np.zeros(3)) == math.inf
    # an uncharged zero coordinate is neutral
    assert ft.exponent_function_extended(m, [1.0, 1.0, 0.0]) == 2.0
