import numpy as np
import pytest

from facetail import Bipartition, all_bipartitions, bipartition, check_dimension, random_bipartition


def test_basic_construction():
    part = bipartition([0, 2], [1])
    assert part.a == frozenset({0, 2})
    assert part.c == frozenset({1})
    assert part.d == 3
    assert part.a_sorted == (0, 2)
    assert part.c_sorted == (1,)


def test_blocks_must_cover_without_overlap():
    with pytest.raises(ValueError):
        bipartition([0], [0, 1])
    with pytest.raises(ValueError):
        bipartition([0], [2])       # gap at 1
    with pytest.raises(ValueError):
        bipartition([], [0, 1])
    with pytest.raises(ValueError):
        bipartition([0, 1], [])
    with pytest.raises(ValueError):
        bipartition([0, -1], [1])


def test_swap_exchanges_blocks():
    part = bipartition([0, 2], [1])
    assert part.swapped() == bipartition([1], [0, 2])
    assert part.swapped().swapped() == part


def test_equality_and_hashing():
    assert bipartition([0, 2], [1]) == bipartition((2, 0), (1,))
    assert bipartition([0], [1]) != bipartition([1], [0])
    seen = {bipartition([0, 2], [1]), bipartition([2, 0], [1])}
    assert len(seen) == 1


def test_masks_are_complementary():
    part = bipartition([0, 3], [1, 2])
    assert part.a_mask == 0b1001
    assert part.c_mask == 0b0110
    assert part.a_mask | part.c_mask == (1 << part.d) - 1
    assert part.a_mask & part.c_mask == 0


def test_check_dimension():
    part = bipartition([0, 2], [1])
    check_dimension(part, 3)
    with pytest.raises(ValueError):
        check_dimension(part, 4)


def test_all_bipartitions_counts_and_uniqueness():
    for d in (2, 3, 4, 5):
        parts = list(all_bipartitions(d))
        assert len(parts) == 2 ** (d - 1) - 1
        assert len(set(parts)) == len(parts)
        # unordered pairs are listed once: coordinate 0 stays in block a
        for part in parts:
            assert 0 in part.a


def test_no_bipartitions_below_two_coordinates():
    assert list(all_bipartitions(1)) == []


def test_random_bipartition_is_well_formed():
    rng = np.random.default_rng(5)
    for _ in range(50):
        part = random_bipartition(6, rng)
        assert part.d == 6
        assert part.a and part.c


def test_random_bipartition_up_to_64_coordinates():
    part = random_bipartition(64, np.random.default_rng(3))
    assert part.d == 64 and 0 in part.a
    with pytest.raises(ValueError, match="d <= 64"):
        random_bipartition(65, np.random.default_rng(3))


def test_random_bipartition_reproducible():
    first = [random_bipartition(5, np.random.default_rng(8)) for _ in range(10)]
    second = [random_bipartition(5, np.random.default_rng(8)) for _ in range(10)]
    assert first == second
