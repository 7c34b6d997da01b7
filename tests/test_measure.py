import json
import math

import numpy as np
import pytest

import facetail as ft
from facetail import ExponentMeasure, SpectralAtom
from facetail.measure import MARGIN_TOL, ZERO_TOL


def random_point(rng, d, lo=0.1, hi=10.0):
    return rng.uniform(lo, hi, size=d)


# ---- construction and canonical form ---------------------------------------


def test_tiny_entries_snap_to_exact_zero():
    atom = SpectralAtom(np.array([1.0, 1e-13, -1e-13]), 1.0)
    assert atom.omega[1] == 0.0
    assert atom.omega[2] == 0.0
    assert atom.face == frozenset({0})


def test_face_is_exact_zero_test():
    atom = SpectralAtom(np.array([0.3, 0.0, 2e-12]), 1.0)
    assert atom.face == frozenset({0, 2})


def test_same_ray_atoms_merge_masses():
    m = ExponentMeasure(2, (
        SpectralAtom(np.array([0.5, 0.5]), 1.0),
        SpectralAtom(np.array([2.0, 2.0]), 3.0),   # same direction, scaled by 4
        SpectralAtom(np.array([1.0, 0.0]), 1.0),
    ))
    assert m.n_atoms == 2
    # intensity contributions add: 1*(0.5,0.5) + 3*(2,2) = 13*(0.5,0.5)
    assert m.atoms[0].mass == 13.0
    assert np.array_equal(m.atoms[0].omega, [0.5, 0.5])  # first occurrence kept


def test_merging_preserves_the_exponent_function():
    unmerged_value = 1.0 * 0.5 + 3.0 * 2.0 + 1.0 * 1.0  # at x = (1, 1), max over coords
    m = ExponentMeasure(2, (
        SpectralAtom(np.array([0.5, 0.5]), 1.0),
        SpectralAtom(np.array([2.0, 2.0]), 3.0),
        SpectralAtom(np.array([1.0, 0.0]), 1.0),
    ))
    assert ft.exponent_function(m, [1.0, 1.0]) == unmerged_value


def test_nearly_equal_directions_merge_distinct_ones_do_not():
    close = ExponentMeasure(2, (
        SpectralAtom(np.array([1.0, 0.5]), 1.0),
        SpectralAtom(np.array([1.0, 0.5 + 1e-10]), 1.0),
    ))
    assert close.n_atoms == 1
    apart = ExponentMeasure(2, (
        SpectralAtom(np.array([1.0, 0.5]), 1.0),
        SpectralAtom(np.array([1.0, 0.6]), 1.0),
    ))
    assert apart.n_atoms == 2


def test_direction_scale_is_immaterial():
    # (c * omega, mass / c) describes the same measure
    rng = np.random.default_rng(42)
    base = ft.random_measure(3, 5, seed=1)
    scales = rng.uniform(0.2, 5.0, size=base.n_atoms)
    rescaled = ExponentMeasure(3, tuple(
        SpectralAtom(a.omega * c, a.mass / c) for a, c in zip(base.atoms, scales)))
    for _ in range(20):
        x = random_point(rng, 3)
        assert math.isclose(ft.exponent_function(base, x),
                            ft.exponent_function(rescaled, x), rel_tol=1e-12)


# ---- validation ------------------------------------------------------------


def test_canonical_measures_are_valid(m_ind, m_dep, m_blk):
    for m in (m_ind, m_dep, m_blk):
        assert ft.validate_measure(m) == []


def test_wrong_length_atom_raises():
    good = SpectralAtom(np.array([1.0, 1.0]), 1.0)
    for wrong in (SpectralAtom(np.array([1.0]), 1.0), SpectralAtom(np.array([1.0, 1.0, 1.0]), 1.0)):
        with pytest.raises(ft.MeasureFormatError, match="atom 1"):
            ExponentMeasure(2, (good, wrong))


def test_validate_flags_nonpositive_mass():
    m = ExponentMeasure(2, (
        SpectralAtom(np.array([1.0, 0.0]), 0.0),
        SpectralAtom(np.array([0.0, 1.0]), 1.0),
    ))
    violations = ft.validate_measure(m)
    assert any(v.code == "nonpositive_mass" and v.atom == 0 for v in violations)


def test_validate_flags_all_zero_direction():
    m = ExponentMeasure(2, (
        SpectralAtom(np.array([0.0, 0.0]), 1.0),
        SpectralAtom(np.array([1.0, 1.0]), 1.0),
    ))
    violations = ft.validate_measure(m)
    assert any(v.code == "all_zero_direction" and v.atom == 0 for v in violations)
    # the snap is relative to the direction's largest entry: a tiny direction
    # is still the ray e_2, not the zero vector
    tiny = ExponentMeasure(2, (
        SpectralAtom(np.array([0.0, 1e-14]), 1.0),
        SpectralAtom(np.array([1.0, 1.0]), 1.0),
    ))
    assert tiny.atoms[0].face == frozenset({1})
    assert ft.validate_measure(tiny) == []


def test_validate_flags_dead_coordinate():
    m = ExponentMeasure(3, (SpectralAtom(np.array([0.7, 0.3, 0.0]), 1.0),))
    violations = ft.validate_measure(m)
    assert any(v.code == "dead_coordinate" and v.coordinate == 2 for v in violations)


def test_validate_flags_negative_direction():
    m = ExponentMeasure(2, (SpectralAtom(np.array([1.0, -0.5]), 1.0),))
    codes = [v.code for v in ft.validate_measure(m)]
    assert "negative_direction" in codes


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_validate_flags_nonfinite_direction(bad):
    # the zero-snap leaves such a direction alone, so it is reported as
    # non-finite and keeps its finite entries, however small
    m = ExponentMeasure(3, (SpectralAtom(np.array([bad, 1.0, 1e-300]), 1.0),
                            SpectralAtom(np.array([1.0, 1.0, 1.0]), 1.0)))
    assert m.atoms[0].omega[1:].tolist() == [1.0, 1e-300]
    violations = ft.validate_measure(m)
    assert [(v.code, v.atom) for v in violations] == [("nonfinite_direction", 0)]


def test_require_valid_raises_with_violation_list():
    m = ExponentMeasure(3, (SpectralAtom(np.array([0.7, 0.3, 0.0]), 1.0),))
    with pytest.raises(ft.InvalidMeasureError) as err:
        ft.require_valid(m)
    assert any(v.code == "dead_coordinate" for v in err.value.violations)


def test_single_coordinate_measures_are_allowed():
    # projections produce them, so they must validate
    m = ExponentMeasure(1, (SpectralAtom(np.array([1.0]), 1.0),))
    assert ft.validate_measure(m) == []


# ---- exponent function -----------------------------------------------------


def test_exponent_values_by_hand(m_ind, m_dep, m_blk):
    assert ft.exponent_function(m_ind, [1.0, 1.0]) == 2.0
    assert ft.exponent_function(m_dep, [1.0, 1.0]) == 1.0
    assert ft.exponent_function(m_dep, [2.0, 1.0]) == 1.0
    assert ft.exponent_function(m_blk, [1.0, 2.0, 1.0]) == 2.0


def test_exponent_rejects_nonpositive_points(m_ind):
    with pytest.raises(ValueError):
        ft.exponent_function(m_ind, [1.0, 0.0])
    with pytest.raises(ValueError):
        ft.exponent_function(m_ind, [-1.0, 1.0])
    with pytest.raises(ValueError):
        ft.exponent_function_grid(m_ind, np.array([[1.0, 0.0]]))


def test_grid_evaluation_matches_scalar(m_blk):
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.1, 10.0, size=(40, 3))
    grid_vals = ft.exponent_function_grid(m_blk, pts)
    for x, val in zip(pts, grid_vals):
        assert math.isclose(val, ft.exponent_function(m_blk, x), rel_tol=1e-14)


def test_homogeneity_order_minus_one():
    rng = np.random.default_rng(7)
    for seed in range(10):
        m = ft.random_measure(int(rng.integers(2, 6)), 7, seed=seed)
        for _ in range(30):
            x = random_point(rng, m.d)
            t = float(10.0 ** rng.uniform(-6, 6))
            lam = ft.exponent_function(m, x)
            assert abs(t * ft.exponent_function(m, t * x) - lam) <= 1e-12 * abs(lam)


def test_exponent_antitone_in_each_coordinate():
    rng = np.random.default_rng(11)
    m = ft.random_measure(4, 6, seed=0)
    for _ in range(50):
        x = random_point(rng, 4)
        y = x * rng.uniform(1.0, 3.0, size=4)  # componentwise larger
        assert ft.exponent_function(m, y) <= ft.exponent_function(m, x) + 1e-15


def test_margin_bounds_sandwich_exponent():
    rng = np.random.default_rng(13)
    for seed in range(5):
        m = ft.random_measure(3, 5, seed=seed)
        mg = ft.margins(m)
        for _ in range(20):
            x = random_point(rng, 3)
            lam = ft.exponent_function(m, x)
            assert np.max(mg / x) <= lam * (1 + 1e-12)
            assert lam <= np.sum(mg / x) * (1 + 1e-12)


def test_extended_exponent_handles_zeros(m_ind):
    assert ft.exponent_function_extended(m_ind, [0.0, 1.0]) == math.inf
    assert ft.distribution_function(m_ind, [0.0, 1.0]) == 0.0
    # a zero in a coordinate nobody charges is neutral
    half = ExponentMeasure(2, (SpectralAtom(np.array([1.0, 0.0]), 1.0),))
    assert ft.exponent_function_extended(half, [1.0, 0.0]) == 1.0
    assert ft.exponent_function_extended(half, [2.0, 0.0]) == 0.5


def test_distribution_function_values(m_ind, m_dep):
    assert math.isclose(ft.distribution_function(m_ind, [1.0, 1.0]), math.exp(-2.0))
    assert math.isclose(ft.distribution_function(m_dep, [1.0, 1.0]), math.exp(-1.0))


# ---- rectangles ------------------------------------------------------------


def test_rectangle_mass_by_hand(m_ind, m_dep):
    assert ft.rectangle_mass(m_dep, [1.0, 1.0]) == 1.0
    assert ft.rectangle_mass(m_dep, [1.0, 2.0]) == 0.5
    assert ft.rectangle_mass(m_ind, [1.0, 1.0]) == 0.0


def test_exponent_by_inclusion_exclusion():
    # the complement of a box splits into exceedance regions; in d=2:
    # exponent(x) = m1/x1 + m2/x2 - rectangle_mass(x)
    rng = np.random.default_rng(17)
    for seed in range(8):
        m = ft.random_measure(2, 4, seed=seed)
        mg = ft.margins(m)
        for _ in range(20):
            x = random_point(rng, 2)
            lhs = ft.exponent_function(m, x)
            rhs = mg[0] / x[0] + mg[1] / x[1] - ft.rectangle_mass(m, x)
            assert math.isclose(lhs, rhs, rel_tol=1e-12)


def test_exponent_by_inclusion_exclusion_d3():
    import itertools

    rng = np.random.default_rng(19)
    m = ft.random_measure(3, 6, seed=5)

    def exceed_mass(coords, x):
        # mass of {z_i > x_i for all i in coords}
        total = 0.0
        for atom in m.atoms:
            total += atom.mass * float(np.min(atom.omega[list(coords)] / x[list(coords)]))
        return total

    for _ in range(20):
        x = random_point(rng, 3)
        alternating = 0.0
        for r in (1, 2, 3):
            for coords in itertools.combinations(range(3), r):
                alternating += (-1.0) ** (r + 1) * exceed_mass(coords, x)
        assert math.isclose(ft.exponent_function(m, x), alternating, rel_tol=1e-11)


# ---- margins, marginalization, standardization -----------------------------


def test_margins_of_canonical_measures(m_ind, m_dep, m_blk):
    for m in (m_ind, m_dep, m_blk):
        assert np.allclose(ft.margins(m), 1.0)


def test_margins_by_hand():
    m = ExponentMeasure(2, (
        SpectralAtom(np.array([2.0, 0.0]), 1.0),
        SpectralAtom(np.array([0.0, 1.0]), 3.0),
    ))
    assert np.array_equal(ft.margins(m), [2.0, 3.0])


def test_marginalize_drops_atoms_that_vanish(m_ind, m_blk):
    sub = ft.marginalize(m_ind, [0])
    assert sub.d == 1 and sub.n_atoms == 1
    assert np.array_equal(sub.atoms[0].omega, [1.0])

    pair = ft.marginalize(m_blk, [0, 1])
    assert pair.n_atoms == 1
    assert np.array_equal(pair.atoms[0].omega, [0.5, 0.5])
    assert pair.atoms[0].mass == 2.0


def test_marginalize_to_everything_is_identity(m_blk):
    assert ft.measures_allclose(ft.marginalize(m_blk, [0, 1, 2]), m_blk)


def test_marginalize_rejects_bad_subsets(m_blk):
    with pytest.raises(ValueError):
        ft.marginalize(m_blk, [])
    with pytest.raises(ValueError):
        ft.marginalize(m_blk, [0, 3])


def test_marginal_evaluation_agrees_with_huge_sentinel():
    # pushing the dropped coordinates to 1e300 must reproduce the marginal
    rng = np.random.default_rng(23)
    for seed in range(6):
        d = int(rng.integers(2, 6))
        m = ft.random_measure(d, 7, seed=seed)
        coords = sorted(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))
        sub = ft.marginalize(m, coords)
        for _ in range(10):
            x = random_point(rng, d)
            lifted = np.full(d, 1e300)
            lifted[coords] = x[coords]
            assert math.isclose(ft.exponent_function(sub, x[coords]),
                                ft.exponent_function(m, lifted), rel_tol=1e-12)


def test_standardize_by_hand():
    m = ExponentMeasure(2, (
        SpectralAtom(np.array([2.0, 0.0]), 1.0),
        SpectralAtom(np.array([0.0, 1.0]), 3.0),
    ))
    std = ft.standardize(m)
    assert np.allclose(ft.margins(std), 1.0)
    assert np.array_equal(std.atoms[0].omega, [1.0, 0.0])
    assert np.allclose(std.atoms[1].omega, [0.0, 1.0 / 3.0])
    assert std.atoms[0].mass == 1.0 and std.atoms[1].mass == 3.0


def test_standardize_is_idempotent_and_keeps_faces():
    for seed in range(5):
        m = ft.random_measure(4, 6, seed=seed)
        std = ft.standardize(m)
        assert ft.measures_allclose(ft.standardize(std), std)
        assert [a.face for a in std.atoms] == [a.face for a in m.atoms]


def test_standardize_scales_the_argument():
    # unit-margin rescaling moves the exponent's argument coordinatewise
    rng = np.random.default_rng(29)
    m = ExponentMeasure(2, (
        SpectralAtom(np.array([1.5, 0.5]), 0.8),
        SpectralAtom(np.array([0.2, 2.0]), 1.7),
    ))
    std = ft.standardize(m)
    mg = ft.margins(m)
    for _ in range(20):
        x = random_point(rng, 2)
        assert math.isclose(ft.exponent_function(std, x),
                            ft.exponent_function(m, x * mg), rel_tol=1e-12)


def test_is_standardized_allows_margin_tol_only():
    def measure(margin):
        return ExponentMeasure(2, (SpectralAtom(np.array([1.0, 0.0]), margin),
                                   SpectralAtom(np.array([0.0, 1.0]), 1.0)))

    assert ft.is_standardized(measure(1.0 + 0.5 * MARGIN_TOL))
    assert not ft.is_standardized(measure(1.0 + 2.0 * MARGIN_TOL))


def test_standardize_rejects_dead_coordinates():
    m = ExponentMeasure(2, (SpectralAtom(np.array([1.0, 0.0]), 1.0),))
    with pytest.raises(ValueError):
        ft.standardize(m)


# ---- random generation -----------------------------------------------------


def test_random_measure_is_valid_and_standardized():
    for seed in range(10):
        m = ft.random_measure(4, 7, seed=seed)
        assert ft.validate_measure(m) == []
        assert ft.is_standardized(m)


def test_random_measure_deterministic_in_seed():
    a = ft.random_measure(3, 5, seed=99)
    b = ft.random_measure(3, 5, seed=99)
    assert ft.measures_allclose(a, b, rtol=0.0, atol=0.0)
    c = ft.random_measure(3, 5, seed=100)
    assert not ft.measures_allclose(a, c)


def test_random_measure_block_structure_confines_faces():
    split = ((0, 2), (1, 3))
    for seed in range(10):
        m = ft.random_measure(4, 6, split=split, seed=seed)
        for atom in m.atoms:
            assert atom.face <= {0, 2} or atom.face <= {1, 3}


def test_random_measure_argument_checks():
    with pytest.raises(ValueError):
        ft.random_measure(1, 5)
    with pytest.raises(ValueError):
        ft.random_measure(3, 2)
    with pytest.raises(ValueError):
        ft.random_measure(4, 6, split=((0, 1), (1, 2, 3)))


# ---- serialization ---------------------------------------------------------


def test_dict_round_trip(m_blk):
    again = ft.measure_from_dict(ft.measure_to_dict(m_blk))
    assert ft.measures_allclose(again, m_blk)


def test_file_round_trip(tmp_path, m_blk):
    path = tmp_path / "measure.json"
    ft.save_measure(m_blk, path)
    assert ft.measures_allclose(ft.load_measure(path), m_blk)


def test_parser_rejects_bad_values():
    base = {"d": 2, "atoms": [{"omega": [1.0, 0.0], "mass": 1.0},
                              {"omega": [0.0, 1.0], "mass": 1.0}]}

    def corrupt(**changes):
        data = json.loads(json.dumps(base))
        data.update(changes)
        return data

    for bad in (
        corrupt(d="2"),
        corrupt(d=0),
        corrupt(extra=1),
        corrupt(atoms="nope"),
        corrupt(atoms=[{"omega": [1.0], "mass": 1.0}]),
        corrupt(atoms=[{"omega": [1.0, float("nan")], "mass": 1.0}]),
        corrupt(atoms=[{"omega": [1.0, 0.0], "mass": float("inf")}]),
        corrupt(atoms=[{"omega": [1.0, -0.2], "mass": 1.0}]),
        corrupt(atoms=[{"omega": [1.0, 0.0], "mass": -1.0}]),
        corrupt(atoms=[{"omega": [1.0, 0.0], "mass": "1"}]),
        corrupt(atoms=[{"omega": [1.0, 0.0]}]),
    ):
        with pytest.raises(ft.MeasureFormatError):
            ft.measure_from_dict(bad)


def test_loader_applies_canonicalization_and_validation(tmp_path):
    # duplicate rays in the file come back merged
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({
        "d": 2,
        "atoms": [
            {"omega": [0.5, 0.5], "mass": 1.0},
            {"omega": [1.0, 1.0], "mass": 1.0},
            {"omega": [1.0, 0.0], "mass": 1.0},
        ],
    }))
    m = ft.load_measure(path)
    assert m.n_atoms == 2
    assert m.atoms[0].mass == 3.0  # 1*(0.5,0.5) + 1*(1,1) = 3*(0.5,0.5)

    bad = tmp_path / "dead.json"
    bad.write_text(json.dumps({"d": 2, "atoms": [{"omega": [1.0, 0.0], "mass": 1.0}]}))
    with pytest.raises(ft.InvalidMeasureError):
        ft.load_measure(bad)


def test_snapping_tolerance_respected_by_parser():
    m = ft.measure_from_dict({
        "d": 2,
        "atoms": [{"omega": [1.0, ZERO_TOL / 2], "mass": 1.0},
                  {"omega": [0.0, 1.0], "mass": 1.0}],
    })
    assert m.atoms[0].face == frozenset({0})
