import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import facetail as ft
from facetail import bipartition
from facetail.independence import _GRID_CAP, _GRID_RANDOM


PART2 = bipartition([0], [1])
SPLIT_02_1 = bipartition([0, 2], [1])
SPLIT_01_2 = bipartition([0, 1], [2])


# ---- evaluation grid -------------------------------------------------------


def test_default_grid_shape_and_cap():
    assert ft.default_grid(2).shape == (4 ** 2 + _GRID_RANDOM, 2)
    assert ft.default_grid(6).shape == (4 ** 6 + _GRID_RANDOM, 6)
    assert ft.default_grid(7).shape == (_GRID_CAP + _GRID_RANDOM, 7)


def test_default_grid_cached_and_frozen():
    g = ft.default_grid(3)
    assert g is ft.default_grid(3)
    assert not g.flags.writeable
    assert np.all(g > 0.0)


# ---- individual criteria ---------------------------------------------------


def test_support_criterion(m_ind, m_dep, m_blk):
    assert ft.check_support(m_ind, PART2) == (True, None)
    assert ft.check_support(m_dep, PART2) == (False, 0)
    assert ft.check_support(m_blk, SPLIT_01_2) == (True, None)
    assert ft.check_support(m_blk, SPLIT_02_1) == (False, 0)


def test_additivity_verdicts(m_ind, m_dep, m_blk):
    # the defect at 1 over exponent(1): 0 exactly, 1 / 1 and 1 / 2
    assert ft.check_additivity(m_ind, PART2) == ft.AdditivityCheck(ok=True, residual=0.0)
    assert ft.check_additivity(m_dep, PART2) == ft.AdditivityCheck(ok=False, residual=1.0)
    assert ft.check_additivity(m_blk, SPLIT_01_2) == ft.AdditivityCheck(ok=True, residual=0.0)
    assert ft.check_additivity(m_blk, SPLIT_02_1) == ft.AdditivityCheck(ok=False, residual=0.5)


def test_df_factorization(m_ind, m_dep, m_blk):
    # an independent split is below resolution, never decided independent
    for m, part in ((m_ind, PART2), (m_blk, SPLIT_01_2)):
        ok, witness = ft.check_df_factorization(m, part)
        assert ok is None and abs(witness["difference"]) <= witness["bound"] < 1e-14
    ok, witness = ft.check_df_factorization(m_dep, PART2)
    assert ok is False and witness["point"] == [2.0, 2.0]
    assert ft.check_df_factorization(m_blk, SPLIT_02_1)[0] is False


def test_mixed_margin_criterion(m_ind, m_dep, m_blk):
    assert ft.check_mixed_margins(m_ind, PART2) == (True, None)
    assert ft.check_mixed_margins(m_dep, PART2) == (False, frozenset({0, 1}))
    assert ft.check_mixed_margins(m_blk, SPLIT_01_2)[0]
    ok, witness = ft.check_mixed_margins(m_blk, SPLIT_02_1)
    assert not ok and witness == frozenset({0, 1})


# ---- mixed margins against the full subset walk -----------------------------


def oracle_mixed_margins(measure, part):
    # the (size, lex) walk over every subset of two or more coordinates that
    # the criterion ran before it was reduced to pairs, kept verbatim
    d = measure.d
    masks = measure.face_masks.tolist()
    for size in range(2, d + 1):
        for combo in itertools.combinations(range(d), size):
            imask = sum(1 << i for i in combo)
            if not (imask & part.a_mask and imask & part.c_mask):
                continue
            if any(fmask & imask == imask for fmask in masks):
                return False, frozenset(combo)
    return True, None


def split_of_mask(d, a_mask):
    a = [i for i in range(d) if a_mask >> i & 1]
    return bipartition(a, sorted(set(range(d)) - set(a)))


@st.composite
def measures_with_splits(draw):
    """Measures whose faces either stay inside groups of coordinates (block
    structured, so splits along the groups are independent) or are drawn
    freely, with every bipartition for small d and a sample otherwise."""
    d = draw(st.integers(2, 12))
    groups = draw(st.lists(st.integers(0, 3), min_size=d, max_size=d))
    structured = draw(st.booleans())
    omega = np.zeros((draw(st.integers(1, 10)), d))
    for row in omega:
        pool = range(d)
        if structured:
            g = groups[draw(st.integers(0, d - 1))]
            pool = [i for i in range(d) if groups[i] == g]
        face = draw(st.sets(st.sampled_from(pool), min_size=1, max_size=4))
        row[sorted(face)] = draw(st.floats(0.05, 1.0))
    measure = ft.ExponentMeasure(d, omega, np.ones(len(omega)))
    if d <= 5:
        return measure, list(ft.all_bipartitions(d))
    masks = draw(st.lists(st.integers(1, 2 ** d - 2), min_size=1, max_size=6))
    group_split = sum(1 << i for i in range(d) if groups[i] == groups[0])
    if group_split != 2 ** d - 1:
        masks.append(group_split)
    return measure, [split_of_mask(d, mask) for mask in masks]


@settings(max_examples=150, deadline=None)
@given(measures_with_splits())
def test_pair_walk_matches_full_subset_walk(case):
    measure, parts = case
    for part in parts:
        assert ft.check_mixed_margins(measure, part) == oracle_mixed_margins(measure, part)


def test_pair_walk_on_object_masks():
    # past 62 coordinates the face masks are Python ints in an object array
    d = 70
    a, c = list(range(35)), list(range(35, d))
    part = bipartition(a, c)
    omega = np.zeros((3, d))
    omega[0, [0, 20, 34]] = 1.0
    omega[1, [40, 69]] = 0.5
    omega[2, [50, 66]] = 0.25
    m = ft.ExponentMeasure(d, omega, np.ones(len(omega)))
    assert m.face_masks.dtype == object
    assert ft.check_mixed_margins(m, part) == (True, None) == ft.check_support(m, part)
    omega[2, 3] = 0.25
    m = ft.ExponentMeasure(d, omega, np.ones(len(omega)))
    assert m.face_masks.dtype == object
    got = ft.check_mixed_margins(m, part)
    assert got == oracle_mixed_margins(m, part) == (False, frozenset({3, 50}))


# ---- region masses ---------------------------------------------------------


def test_joint_exceedance_by_hand(m_ind, m_dep, m_blk):
    assert ft.joint_exceedance_mass(m_ind, PART2, [1.0, 1.0]) == 0.0
    assert ft.joint_exceedance_mass(m_dep, PART2, [1.0, 1.0]) == 1.0
    assert ft.joint_exceedance_mass(m_dep, PART2, [1.0, 4.0]) == 0.25
    assert ft.joint_exceedance_mass(m_blk, SPLIT_02_1, [1.0, 1.0, 1.0]) == 1.0
    assert ft.joint_exceedance_mass(m_blk, SPLIT_01_2, [1.0, 1.0, 1.0]) == 0.0


def test_joint_exceedance_is_the_additivity_defect():
    rng = np.random.default_rng(31)
    for seed in range(8):
        d = int(rng.integers(2, 6))
        m = ft.random_measure(d, 7, seed=seed)
        for part in ft.all_bipartitions(d):
            for _ in range(5):
                x = rng.uniform(0.1, 10.0, size=d)
                lam = ft.exponent_function(m, x)
                lam_a = ft.exponent_function(
                    ft.marginalize(m, part.a_sorted), x[list(part.a_sorted)])
                lam_c = ft.exponent_function(
                    ft.marginalize(m, part.c_sorted), x[list(part.c_sorted)])
                defect = lam_a + lam_c - lam
                assert math.isclose(
                    ft.joint_exceedance_mass(m, part, x), defect,
                    rel_tol=1e-10, abs_tol=1e-12)


def test_joint_exceedance_symmetric_in_blocks(m_blk):
    x = [0.7, 1.3, 2.1]
    assert ft.joint_exceedance_mass(m_blk, SPLIT_02_1, x) == \
        ft.joint_exceedance_mass(m_blk, ft.bipartition(SPLIT_02_1.c, SPLIT_02_1.a), x)


def test_joint_exceedance_input_checks(m_ind):
    with pytest.raises(ValueError):
        ft.joint_exceedance_mass(m_ind, PART2, [1.0, 0.0])
    with pytest.raises(ValueError):
        ft.joint_exceedance_mass(m_ind, SPLIT_02_1, [1.0, 1.0, 1.0])


def test_face_interior_mass_by_hand(m_dep, m_blk):
    assert ft.face_interior_mass(m_dep, [0, 1]) == 1.0       # 2 * min(.5,.5)
    assert ft.face_interior_mass(m_dep, [0, 1], threshold=0.5) == 2.0
    assert ft.face_interior_mass(m_blk, [0, 1]) == 1.0
    assert ft.face_interior_mass(m_blk, [0, 2]) == 0.0
    assert ft.face_interior_mass(m_blk, [2]) == 1.0


def test_face_interior_mass_scales_inversely_with_threshold(m_blk):
    # the radial r**-2 profile makes the exceedance mass linear in 1/threshold
    base = ft.face_interior_mass(m_blk, [0, 1], threshold=1.0)
    for n in (1, 2, 4, 8):
        got = ft.face_interior_mass(m_blk, [0, 1], threshold=1.0 / n)
        assert math.isclose(got, n * base)


def test_face_interior_mass_zero_iff_no_covering_face():
    rng = np.random.default_rng(37)
    for seed in range(6):
        m = ft.random_measure(4, 6, seed=seed)
        for _ in range(10):
            size = int(rng.integers(1, 5))
            coords = frozenset(rng.choice(4, size=size, replace=False).tolist())
            covered = bool(np.any(np.all(m.omega_matrix[:, sorted(coords)] > 0.0, axis=1)))
            mass = ft.face_interior_mass(m, coords)
            assert (mass > 0.0) == covered


def test_face_interior_mass_input_checks(m_blk):
    with pytest.raises(ValueError):
        ft.face_interior_mass(m_blk, [])
    with pytest.raises(ValueError):
        ft.face_interior_mass(m_blk, [0, 3])
    with pytest.raises(ValueError):
        ft.face_interior_mass(m_blk, [0], threshold=0.0)


# ---- combined report -------------------------------------------------------


def test_report_on_independent_pair(m_ind):
    rep = ft.full_report(m_ind, PART2)
    assert rep.independent and rep.agree
    assert (rep.cond_i, rep.cond_ii, rep.cond_iii, rep.df, rep.new_notion) == \
        (True, True, True, None, True)
    assert rep.undecided == ["df"] and rep.to_dict()["undecided"] == ["df"]
    assert rep.witnesses == {}


def test_report_on_dependent_pair_with_witnesses(m_dep):
    rep = ft.full_report(m_dep, PART2)
    assert not rep.independent and rep.agree
    w = rep.witnesses
    assert w["cond_i"] == {"atom": 0}
    assert w["cond_ii"] == {"residual": 1.0, "point": [1.0, 1.0]}
    assert w["cond_iii"] == {"subset": [0, 1]}
    # exponent(1) = 1, so t = 2: F(2, 2) = exp(-1/2), F_A * F_C = exp(-1)
    assert w["df"]["point"] == [2.0, 2.0]
    assert math.isclose(w["df"]["difference"], math.exp(-0.5) - math.exp(-1.0))
    assert 0.0 < w["df"]["bound"] < 1e-14
    assert rep.undecided == []
    assert w["new_notion"]["atom"] == 0


def test_report_serialization_is_one_based(m_dep):
    d = ft.full_report(m_dep, PART2).to_dict()
    assert d["witnesses"]["cond_iii"]["subset"] == [1, 2]
    assert d["witnesses"]["new_notion"]["k"] in (1, 2)
    # atom indices stay 0-based
    assert d["witnesses"]["cond_i"]["atom"] == 0
    # against the report's own 0-based fields
    rep = ft.full_report(m_dep, PART2)
    subset = rep.witnesses["cond_iii"]["subset"]
    assert d["witnesses"]["cond_iii"]["subset"] == [i + 1 for i in subset]
    assert d["witnesses"]["new_notion"]["k"] == rep.witnesses["new_notion"]["k"] + 1


def test_report_on_block_measure_both_splits(m_blk):
    good = ft.full_report(m_blk, SPLIT_01_2)
    assert good.independent and good.agree and good.witnesses == {}
    bad = ft.full_report(m_blk, SPLIT_02_1)
    assert not bad.independent and bad.agree
    assert set(bad.witnesses) == {"cond_i", "cond_ii", "cond_iii", "df", "new_notion"}


def test_report_symmetric_under_block_swap(m_blk):
    for part in (SPLIT_01_2, SPLIT_02_1):
        a = ft.full_report(m_blk, part)
        b = ft.full_report(m_blk, ft.bipartition(part.c, part.a))
        assert (a.cond_i, a.cond_ii, a.cond_iii, a.df, a.new_notion) == \
            (b.cond_i, b.cond_ii, b.cond_iii, b.df, b.new_notion)


def test_numeric_and_structural_routes_stay_consistent():
    # the additivity verdict at one point against the exact support criterion
    rng = np.random.default_rng(41)
    for seed in range(15):
        d = int(rng.integers(2, 6))
        split = None
        if seed % 2:
            part0 = ft.random_bipartition(d, rng)
            split = (part0.a_sorted, part0.c_sorted)
        m = ft.random_measure(d, 8, split=split, seed=seed)
        for part in ft.all_bipartitions(d):
            assert ft.check_additivity(m, part).ok == ft.check_support(m, part)[0]


def test_extreme_products_are_decided_exactly():
    # products mass * omega from 1e-300 to 1e318, beyond the float range: the
    # exact sum scales them by powers of two, so each split is decided as
    # the rational defect says
    part = bipartition([0], [1])
    cases = {
        "dep": (ft.ExponentMeasure(2, [[1.0, 1.0]], [1e308]), False),
        "ind": (ft.ExponentMeasure(2, [[1.0, 0.0], [0.0, 1.0]], [1e308, 1e308]), True),
        "dep_beyond_range": (ft.ExponentMeasure(2, [[1e308, 1e308]], [1e10]), False),
        "ind_beyond_range": (ft.ExponentMeasure(2, [[1e308, 0.0], [0.0, 1e308]],
                                                [1e10, 1e10]), True),
        "tiny_straddler": (ft.ExponentMeasure(2, [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                                              [1.0, 1.0, 1e-300]), False),
    }
    for name, (m, independent) in cases.items():
        omega, mass = m.omega_matrix.tolist(), m.mass_vector.tolist()
        lam, lam_a, lam_c = (sum(Fraction(w) * Fraction(max(row[i] for i in cols))
                                 for row, w in zip(omega, mass))
                             for cols in ((0, 1), (0,), (1,)))
        defect = lam_a + lam_c - lam
        assert (defect == 0) == independent, name
        check = ft.check_additivity(m, part)
        assert check.ok is independent, name
        assert check.residual == float(defect / lam), name
        rep = ft.full_report(m, part)
        assert rep.cond_ii is independent and rep.agree and rep.independent is independent
    # a straddling product 1e-600 times the largest underflows to 0 after
    # scaling: the sum is 0, and that is "below resolution", not "independent"
    m = ft.ExponentMeasure(2, [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1e300, 1.0, 1e-300])
    assert ft.check_additivity(m, part) == ft.AdditivityCheck(ok=None, residual=0.0)
    rep = ft.full_report(m, part)
    assert (rep.cond_i, rep.cond_ii, rep.df) == (False, None, None)
    assert rep.agree and rep.undecided == ["cond_ii", "df"]


def test_overflow_to_inf_raises_no_numpy_warning():
    # an exponent past the float range, from huge masses or from huge
    # directions, raises no warning on any entry point, and is decided
    part = bipartition([0, 1], [2])
    huge = ft.ExponentMeasure(3, [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]], [1e308, 1e308])
    # a huge omega with a tiny mass: a ratio omega / x would overflow before
    # the mass scales it down
    stretched = ft.ExponentMeasure(3, [[1e308, 1e308, 0.0], [0.0, 1e308, 1e308]],
                                   [1e-308, 1e-308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in (huge, stretched):
            assert ft.full_report(m, part).cond_ii is False
            assert ft.check_additivity(m, part).ok is False
            # compared at t * 1, exp(-exponent) cannot underflow to 0 on both sides
            assert ft.check_df_factorization(m, part)[0] is False


def test_numeric_criteria_refuse_nonfinite_measures():
    # an invalid measure with an infinite entry or a NaN mass: a clear error,
    # not a warning and a verdict made of inf - inf
    part = bipartition([0], [1])
    for m in (ft.ExponentMeasure(2, [[np.inf, 1.0]], [1.0]),
              ft.ExponentMeasure(2, [[1.0, 1.0]], [np.nan])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for check in (ft.full_report, ft.check_additivity, ft.check_df_factorization):
                with pytest.raises(ValueError, match="finite directions and masses"):
                    check(m, part)


def test_a_bipartition_of_the_wrong_dimension_is_refused():
    # the report path and every one-part entry point refuse it with one message
    m = ft.ExponentMeasure(4, np.eye(4), np.ones(4))
    for check in (ft.full_report, ft.check_support, ft.check_additivity,
                  ft.check_df_factorization, ft.check_mixed_margins,
                  ft.conditional_factorization):
        with pytest.raises(ValueError, match=r"^bipartition covers 3 coordinates, measure has 4$"):
            check(m, SPLIT_02_1)


# ---- randomized battery ----------------------------------------------------


def test_battery_small_run_is_clean():
    res = ft.agreement_battery(d=3, n_atoms=6, trials=10, seed=123)
    assert res.ok
    assert res.trials == 10
    assert res.instances == 10 * 3   # all bipartitions of 3 coordinates
    assert res.notion_mismatches == 0
    assert res.disagreements == () and res.block_failures == ()


def test_battery_deterministic_and_serializable():
    a = ft.agreement_battery(d=4, n_atoms=6, trials=6, seed=7)
    b = ft.agreement_battery(d=4, n_atoms=6, trials=6, seed=7)
    assert a.to_dict() == b.to_dict()
    assert a.to_dict()["ok"] is True


def test_battery_argument_checks():
    with pytest.raises(ValueError):
        ft.agreement_battery(d=1, n_atoms=4, trials=5, seed=0)
    with pytest.raises(ValueError):
        ft.agreement_battery(d=3, n_atoms=4, trials=0, seed=0)
