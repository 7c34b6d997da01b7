"""The chunked ratio kernel and the bounded-memory samplers.

The kernels reduce one coordinate at a time over row blocks instead of
broadcasting an (N, J, d) array.  Their values must equal the broadcast
expressions bit for bit, their memory must not grow with the number of
rows, and sampling must not depend on where a batch is cut.
"""

import tracemalloc

import numpy as np
import pytest

import facetail as ft
from facetail import cli
from facetail.measure import _ratio_kernel, _row_blocks
from facetail.simulate import _conditional_rows, _max_stable_rows

MB = 2**20


def old_exponent_grid(measure, points, fold=np.max):
    return fold(measure.omega_matrix[None, :, :] / points[:, None, :], axis=2) @ measure.mass_vector


def grids(d):
    # row counts are multiples of 8: a multithreaded BLAS splits an odd
    # count at a point that depends on the thread count, so the broadcast
    # itself is only reproducible for such grids; the column slice is
    # F-ordered, like the block grids of the additivity and df checks
    rng = np.random.default_rng(d)
    wide = rng.uniform(0.1, 10.0, size=(8 * 131, d + 2))
    return ft.default_grid(d), wide[:, :d].copy(), wide[:, list(range(d))]


@pytest.mark.parametrize("d,n_atoms", [(1, 2), (2, 3), (3, 40), (5, 16), (6, 100)])
def test_grid_exponent_equals_the_broadcast_bit_for_bit(d, n_atoms):
    m = ft.random_measure(max(d, 2), n_atoms, seed=d * n_atoms)
    m = ft.marginalize(m, range(d))
    for grid in grids(d):
        assert ft.exponent_function_grid(m, grid).tobytes() == old_exponent_grid(m, grid).tobytes()
        # the directions' memory order must not change a bit, for either
        # reduction: the exponent plan passes them column-major
        for omega in (m.omega_matrix, np.asfortranarray(m.omega_matrix)):
            for reduce, fold in ((np.maximum, np.max), (np.minimum, np.min)):
                assert _ratio_kernel(omega, m.mass_vector, grid, reduce).tobytes() == \
                    old_exponent_grid(m, grid, fold).tobytes()


def test_grid_exponent_equals_the_broadcast_at_many_atoms():
    m = ft.random_measure(8, 2000, seed=1)
    grid = ft.default_grid(8)
    # the broadcast's (N, J) maxima one point at a time, to stay small (a
    # max is exact), then the same single matrix product
    maxima = np.stack([np.max(m.omega_matrix / x, axis=1) for x in grid])
    assert ft.exponent_function_grid(m, grid).tobytes() == (maxima @ m.mass_vector).tobytes()


@pytest.mark.parametrize("d,n_atoms", [(2, 2), (4, 30), (8, 2000)])
def test_point_kernels_equal_the_broadcast_bit_for_bit(d, n_atoms):
    m = ft.random_measure(d, n_atoms, seed=n_atoms)
    rng = np.random.default_rng(n_atoms)
    # a coordinate subset in descending order, as the subset callers pass one
    cols = list(range(d - 1, -1, -2))
    sub = m.omega_matrix[:, cols]
    for x in rng.uniform(0.1, 10.0, size=(50, d)):
        ratios = m.omega_matrix / x
        assert ft.exponent_function(m, x) == float(np.max(ratios, axis=1) @ m.mass_vector)
        assert ft.rectangle_mass(m, x) == float(np.min(ratios, axis=1) @ m.mass_vector)
        for reduce, fold in ((np.maximum, np.max), (np.minimum, np.min)):
            want = float(fold(sub / x[cols], axis=1) @ m.mass_vector)
            for omega in (sub, np.asfortranarray(sub)):
                assert _ratio_kernel(omega, m.mass_vector, x[None, cols], reduce)[0] == want


def peak_bytes(fn):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def wide_measure():
    return ft.random_measure(8, 2000, seed=11)


def test_grid_exponent_memory_is_bounded(wide_measure):
    grid = ft.default_grid(8)
    # the (N, J, d) broadcast needed about 480 MB here
    assert peak_bytes(lambda: ft.exponent_function_grid(wide_measure, grid)) < 64 * MB


def test_max_stable_sampler_memory_is_bounded(wide_measure):
    peak = peak_bytes(lambda: ft.sample_max_stable(wide_measure, 4000, seed=3))
    assert peak < 64 * MB


def test_conditional_sampler_holds_only_its_output():
    n, d = 200_000, 5
    m = ft.random_measure(d, 12, seed=5)
    peak = peak_bytes(lambda: ft.sample_conditional(m, 0, n, seed=3))
    # the read-only output is the batch's array; each row block's words,
    # uniforms, choices and radii are the rest
    assert peak <= n * d * 8 + 2 * MB


@pytest.mark.parametrize("conditional", [[], ["--conditional", "1"]])
def test_simulate_memory_does_not_grow_with_n(tmp_path, conditional):
    path = tmp_path / "measure.json"
    ft.save_measure(ft.random_measure(5, 12, seed=5), path)

    def peak(n):
        argv = ["simulate", str(path), "--n", str(n), "--seed", "7",
                "--out", str(tmp_path / "samples.csv"), *conditional]
        codes = []
        peak = peak_bytes(lambda: codes.append(cli.main(argv)))
        assert codes == [0]
        return peak

    peak(10)  # first-call imports and caches stay out of the comparison
    # the batch of 200,000 rows is 8 MB; the CLI holds one block of it
    assert abs(peak(200_000) - peak(20_000)) <= MB


def sparse_faces(d, n_atoms):
    """Atom j on face {j, j + 1} mod d, so each coordinate is charged by
    about 2/d of the atoms and divides only their exponentials."""
    rng = np.random.default_rng(n_atoms)
    omega = np.zeros((n_atoms, d))
    for j, row in enumerate(omega):
        row[[j % d, (j + 1) % d]] = 1.0 - rng.uniform(size=2)
    return ft.ExponentMeasure(d, omega, rng.uniform(0.5, 2.0, size=n_atoms))


@pytest.mark.parametrize("n_atoms", [5, 300, "sparse"])
def test_samplers_are_chunk_invariant(n_atoms):
    m = sparse_faces(5, 300) if n_atoms == "sparse" else ft.random_measure(5, n_atoms, seed=n_atoms)
    law = ft.conditional_law(m, 2)
    # 3001 rows lie inside one conditional row block; 30001 span three, and
    # the cuts fall on both sides of the first two boundaries
    blocks = _row_blocks(30001, m.d)
    assert len(blocks) == 3
    edge, edge2 = blocks[0][1], blocks[1][1]
    cases = [(3001, [(1, 2), (777, 1500), (1000, 3000)]),
             (30001, [(edge - 1, edge + 1), (edge + 1, edge2 - 1), (edge, edge2 + 7)])]
    for rows in (lambda lo, hi: _max_stable_rows(m, 9, lo, hi),
                 lambda lo, hi: _conditional_rows(law, 9, lo, hi)):
        for n, cuts in cases:
            whole = rows(0, n).tobytes()
            for a, b in cuts:
                assert np.concatenate([rows(0, a), rows(a, b), rows(b, n)]).tobytes() == whole
