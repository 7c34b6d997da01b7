import numpy as np
import pytest

import facetail as ft
from facetail import build_graph, certify_partition_bruteforce, empirical_graph, finest_partition, to_dot


def test_graph_of_canonical_measures(m_ind, m_dep, m_blk):
    g_ind = build_graph(m_ind)
    assert g_ind.edges == ()
    assert g_ind.components == ((0,), (1,))

    g_dep = build_graph(m_dep)
    assert g_dep.edges == ((0, 1),)
    assert g_dep.components == ((0, 1),)

    g_blk = build_graph(m_blk)
    assert g_blk.edges == ((0, 1),)
    assert g_blk.components == ((0, 1), (2,))


def test_faces_become_cliques():
    m = ft.ExponentMeasure(4, [[0.4, 0.3, 0.3, 0.0], [0.0, 0.0, 0.0, 1.0]], [1.0, 1.0])
    g = build_graph(m)
    assert g.edges == ((0, 1), (0, 2), (1, 2))
    assert g.components == ((0, 1, 2), (3,))


def test_chained_faces_merge_components():
    # overlapping pairs {0,1} and {1,2} connect all three coordinates
    m = ft.ExponentMeasure(3, [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]], [1.0, 1.0])
    g = build_graph(m)
    assert g.edges == ((0, 1), (1, 2))
    assert g.components == ((0, 1, 2),)


def test_edges_match_positive_chi():
    for seed in range(8):
        m = ft.random_measure(5, 8, seed=seed)
        g = build_graph(m)
        edges = set(g.edges)
        for i in range(5):
            for j in range(i + 1, 5):
                assert ((i, j) in edges) == (ft.chi_exact(m, i, j) > 0.0)


def test_finest_partition(m_blk):
    assert finest_partition(m_blk) == (frozenset({0, 1}), frozenset({2}))


def test_graph_serialization_is_one_based(m_blk):
    d = build_graph(m_blk).to_dict()
    assert d == {"d": 3, "edges": [[1, 2]], "components": [[1, 2], [3]]}


def test_certify_canonical_measures(m_ind, m_dep, m_blk):
    assert certify_partition_bruteforce(m_ind)
    assert certify_partition_bruteforce(m_dep)
    assert certify_partition_bruteforce(m_blk)


def test_certify_random_measures():
    rng = np.random.default_rng(59)
    for seed in range(10):
        d = int(rng.integers(2, 6))
        split = None
        if seed % 2:
            part = ft.random_bipartition(d, rng)
            split = (part.a_sorted, part.c_sorted)
        m = ft.random_measure(d, 7, split=split, seed=seed)
        assert certify_partition_bruteforce(m)


def test_certify_dimension_cap():
    m = ft.random_measure(13, 13, seed=0)
    with pytest.raises(ValueError, match=r"^brute force capped at d=12 \(CERTIFY_MAX_D\), "
                                         r"got d=13$"):
        certify_partition_bruteforce(m)


def test_empirical_graph_thresholding():
    chi = np.array([
        [1.0, 0.5, 0.05],
        [0.5, 1.0, 0.1],
        [0.05, 0.1, 1.0],
    ])
    g = empirical_graph(chi, threshold=0.1)   # strictly greater only
    assert g.edges == ((0, 1),)
    assert g.components == ((0, 1), (2,))
    full = empirical_graph(chi, threshold=0.01)
    assert full.components == ((0, 1, 2),)
    with pytest.raises(ValueError):
        empirical_graph(np.zeros((2, 3)))


def test_empirical_graph_accepts_chi_matrix(m_blk):
    batch = ft.sample_max_stable(m_blk, 20_000, seed=107)
    est = ft.chi_empirical(batch)
    g = empirical_graph(est)
    assert g.components == build_graph(m_blk).components


def test_dot_output(m_blk):
    text = to_dot(build_graph(m_blk))
    assert text.startswith("graph extremal_structure {")
    assert text.endswith("}\n")
    assert "x1 -- x2;" in text
    assert "subgraph cluster_1" in text
    assert "x3;" in text
