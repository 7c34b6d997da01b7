import math

import numpy as np
import pytest

import facetail as ft
from facetail import bipartition, conditional_law, marginal_rectangle_probability, rectangle_probability


# ---- law construction ------------------------------------------------------


def test_law_of_single_atom_measure(m_dep):
    law = conditional_law(m_dep, 1)
    assert law.atom_indices == (0,)
    assert np.array_equal(law.weights, [1.0])
    assert np.array_equal(law.r_min, [2.0])   # 1 / omega = 1 / 0.5
    assert law.norming_mass == 1.0


def test_law_includes_only_atoms_charging_k(m_blk):
    law0 = conditional_law(m_blk, 0)
    assert law0.atom_indices == (0,)
    assert np.array_equal(law0.weights, [1.0])
    assert np.array_equal(law0.r_min, [2.0])

    law2 = conditional_law(m_blk, 2)
    assert law2.atom_indices == (1,)
    assert np.array_equal(law2.r_min, [1.0])


def test_law_weights_mix_mass_and_direction():
    m = ft.ExponentMeasure(2, [[1.0, 0.0], [0.5, 0.5]], [0.25, 1.5])
    law = conditional_law(m, 0)
    # selection is proportional to mass * omega_k: 0.25 and 0.75
    assert law.atom_indices == (0, 1)
    assert np.allclose(law.weights, [0.25, 0.75])
    assert math.isclose(law.norming_mass, 1.0)
    assert np.array_equal(law.r_min, [1.0, 2.0])


def test_law_weights_always_sum_to_one():
    for seed in range(12):
        m = ft.random_measure(4, 7, seed=seed)
        for k in range(4):
            law = conditional_law(m, k)
            assert abs(float(np.sum(law.weights)) - 1.0) <= 1e-12
            assert np.all(law.weights > 0.0)
            assert np.all(law.r_min > 0.0)


def test_law_argument_checks(m_ind):
    with pytest.raises(ValueError):
        conditional_law(m_ind, -1)
    with pytest.raises(ValueError):
        conditional_law(m_ind, 2)
    # a coordinate nobody charges has no law (unvalidated measure on purpose)
    dead = ft.ExponentMeasure(2, [[1.0, 0.0]], [1.0])
    with pytest.raises(ValueError):
        conditional_law(dead, 1)


# ---- rectangle probabilities -----------------------------------------------


def test_rectangle_probability_by_hand(m_dep):
    law = conditional_law(m_dep, 1)
    # single ray through (0.5, 0.5): reaching (x, x) needs radius 2x
    assert rectangle_probability(law, [2.0, 2.0]) == 0.5
    assert rectangle_probability(law, [4.0, 4.0]) == 0.25
    # radii below the Pareto floor are certain
    assert rectangle_probability(law, [0.5, 0.5]) == 1.0
    assert rectangle_probability(law, [1.0, 2.0]) == 0.5


def test_rectangle_probability_zero_off_face(m_blk):
    # conditioning on the third coordinate confines mass to its axis
    law = conditional_law(m_blk, 2)
    assert rectangle_probability(law, [0.1, 0.1, 1.0]) == 0.0
    assert marginal_rectangle_probability(law, [2], [1.0]) == 1.0
    assert marginal_rectangle_probability(law, [2], [4.0]) == 0.25
    assert marginal_rectangle_probability(law, [0], [0.1]) == 0.0


def test_rectangle_probability_input_checks(m_dep):
    law = conditional_law(m_dep, 1)
    with pytest.raises(ValueError):
        rectangle_probability(law, [1.0])
    with pytest.raises(ValueError):
        rectangle_probability(law, [1.0, 0.0])
    with pytest.raises(ValueError):
        marginal_rectangle_probability(law, [0, 2], [1.0, 1.0])
    with pytest.raises(ValueError):
        marginal_rectangle_probability(law, [0], [1.0, 1.0])
    assert marginal_rectangle_probability(law, [], []) == 1.0


def test_marginal_rectangle_pairs_thresholds_with_given_coords():
    m = ft.ExponentMeasure(3, [[1.0, 0.2, 0.5], [0.0, 1.0, 1.0]], [1.0, 1.0])
    law = conditional_law(m, 0)
    # x_2 = 4 needs radius 8 along (1, .2, .5); x_0 = 1 only radius 1
    assert marginal_rectangle_probability(law, [2, 0], [4.0, 1.0]) == 0.125
    assert marginal_rectangle_probability(law, [0, 2], [1.0, 4.0]) == 0.125
    with pytest.raises(ValueError):
        marginal_rectangle_probability(law, [0, 0], [1.0])
    with pytest.raises(ValueError):
        marginal_rectangle_probability(law, [2, 2], [1.0, 1.0])


def test_marginal_rectangle_consistent_with_full(m_dep):
    law = conditional_law(m_dep, 1)
    assert marginal_rectangle_probability(law, [0, 1], [2.0, 2.0]) == \
        rectangle_probability(law, [2.0, 2.0])


def test_rectangles_recover_measure_mass():
    # norming_mass * P(Y >= x) equals the plain upper-rectangle mass
    # whenever x_k >= 1, where the conditioning slab contains the rectangle
    rng = np.random.default_rng(43)
    for seed in range(10):
        d = int(rng.integers(2, 6))
        m = ft.random_measure(d, 6, seed=seed)
        for k in range(d):
            law = conditional_law(m, k)
            for _ in range(10):
                x = rng.uniform(0.1, 5.0, size=d)
                x[k] = rng.uniform(1.0, 5.0)
                lhs = law.norming_mass * rectangle_probability(law, x)
                rhs = ft.rectangle_mass(m, x)
                assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-300)


def test_marginal_rectangle_is_the_small_threshold_limit():
    # sending the unselected thresholds to 0 reproduces the marginal query
    rng = np.random.default_rng(47)
    m = ft.random_measure(3, 6, seed=2)
    law = conditional_law(m, 0)
    for _ in range(10):
        x01 = rng.uniform(0.5, 3.0, size=2)
        marginal = marginal_rectangle_probability(law, [0, 1], x01)
        full_at = rectangle_probability(law, np.append(x01, 1e-12))
        # atoms with a zero third entry are counted by the marginal only
        assert full_at <= marginal + 1e-15
        covered = [i for i in law.atom_indices if m.omega_matrix[i, 2] > 0.0]
        if len(covered) == len(law.atom_indices):
            assert math.isclose(full_at, marginal, rel_tol=1e-9)


# ---- factorization over a bipartition --------------------------------------


def test_factorization_verdicts(m_ind, m_dep, m_blk):
    part2 = bipartition([0], [1])
    assert ft.conditional_factorization(m_ind, part2).holds
    bad = ft.conditional_factorization(m_dep, part2)
    assert not bad.holds
    assert bad.atom.tolist() == [0, 0]
    assert ft.conditional_factorization(m_blk, bipartition([0, 1], [2])).holds
    assert not ft.conditional_factorization(m_blk, bipartition([0, 2], [1])).holds


def test_factorization_reports_every_coordinate(m_blk):
    verdict = ft.conditional_factorization(m_blk, bipartition([0, 2], [1]))
    assert verdict.ok.shape == verdict.atom.shape == (3,)
    # the straddling atom charges coordinates 0 and 1 but not 2
    assert verdict.ok.tolist() == [False, False, True]
    assert verdict.atom.tolist() == [0, 0, -1]
    assert not verdict.ok.flags.writeable and not verdict.atom.flags.writeable


def test_factorization_matches_support_criterion():
    rng = np.random.default_rng(53)
    for seed in range(20):
        d = int(rng.integers(2, 7))
        split = None
        if seed % 2:
            part0 = ft.random_bipartition(d, rng)
            split = (part0.a_sorted, part0.c_sorted)
        m = ft.random_measure(d, 8, split=split, seed=seed)
        for part in ft.all_bipartitions(d):
            assert ft.conditional_factorization(m, part).holds == \
                ft.check_support(m, part)[0]


def test_factorized_law_splits_rectangle_probabilities(m_blk):
    # with no straddling atoms the blocks decouple: the joint marginal
    # rectangle equals the product of the block marginals
    law = conditional_law(m_blk, 0)
    for x0, x1 in ((1.5, 2.0), (0.5, 3.0), (2.0, 2.0)):
        joint = marginal_rectangle_probability(law, [0, 1], [x0, x1])
        p0 = marginal_rectangle_probability(law, [0], [x0])
        p1 = marginal_rectangle_probability(law, [1], [x1])
        # both block coordinates ride the same ray here, so the product
        # identity needs the other block, which carries probability 0:
        p2 = marginal_rectangle_probability(law, [2], [x1])
        joint_02 = marginal_rectangle_probability(law, [0, 2], [x0, x1])
        assert joint_02 == p0 * p2 == 0.0
        assert joint == min(p0, p1)


def test_product_identity_across_blocks():
    # a genuinely factorized two-block measure with a nontrivial law on one
    # side: P(both blocks up) = P(block A up) * P(block C up) where the C
    # factor is a point mass at 0, making the product vanish exactly
    m = ft.ExponentMeasure(3, [[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]],
                           [0.5, 0.5, 1.0])
    assert ft.validate_measure(m) == []
    law = conditional_law(m, 0)
    for xa in ([1.0, 1.0], [2.0, 0.5], [0.3, 0.8]):
        pa = marginal_rectangle_probability(law, [0, 1], xa)
        pc = marginal_rectangle_probability(law, [2], [1.0])
        joint = marginal_rectangle_probability(law, [0, 1, 2], [*xa, 1.0])
        assert pc == 0.0 and joint == 0.0
        assert joint == pa * pc
        assert pa > 0.0
