"""How reports evaluate exponents, against the per-report code it replaced.

Every `full_report`, `check_additivity` and `check_df_factorization` on a
measure reads one full exponent on `default_grid`, computed by the first
of them (`_full_exponents`) and freed with the measure, and evaluates each
block exponent over the measure's own columns, only at the distinct points
of the block's projection (`_split_sum`).  Reports on one measure share no
writable memory, so they may run concurrently.  The ``oracle_*`` functions
below are full-grid evaluations and the per-report code built on them;
reports must equal the column-subset oracle bit for bit, and the earlier
split through `marginalize`, which re-canonicalises each block, to within
the rounding of its sums.  The grid has no zero coordinate, and a property
test shows that such points could decide nothing.
"""

import gc
import inspect
import itertools
import subprocess
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import facetail as ft
import facetail.independence as independence
import facetail.measure as measure_module
from facetail.conditional import conditional_factorization
from facetail.independence import (
    ADDITIVITY_TOL,
    IndependenceReport,
    _full_exponents,
    _split_sum,
    check_mixed_margins,
    check_support,
)
from facetail.measure import _ratio_kernel, exponent_function_grid, marginalize

MB = 2**20


def oracle_column_split(measure, part, grid):
    # one pass shared by the additivity and df checks: each block exponent
    # over the whole grid and the measure's own columns of the block
    lam_a, lam_c = (_ratio_kernel(measure.omega_matrix[:, list(block)], measure.mass_vector,
                                  grid[:, list(block)], np.maximum)
                    for block in (part.a_sorted, part.c_sorted))
    return exponent_function_grid(measure, grid), lam_a + lam_c


def oracle_split_exponents(measure, part, grid):
    # the same through the block marginals, which drop the atoms that miss
    # the block and merge the rest anew, so the sums round differently
    lam_a, lam_c = (exponent_function_grid(marginalize(measure, block), grid[:, list(block)])
                    for block in (part.a_sorted, part.c_sorted))
    return exponent_function_grid(measure, grid), lam_a + lam_c


def within_ulps(got, want, ulps):
    return bool(np.all((got == want) | (np.abs(got - want) <= ulps * np.spacing(np.abs(want)))))


def oracle_full_report(measure, part):
    grid = ft.default_grid(measure.d)

    support_ok, support_witness = check_support(measure, part)

    lam, lam_sum = oracle_column_split(measure, part, grid)
    add_residuals = np.abs(lam - lam_sum) / (1.0 + np.abs(lam))
    df_diffs = np.abs(np.exp(-lam) - np.exp(-lam_sum)) / (1.0 + np.exp(-lam))

    witnesses: dict = {}
    if not support_ok:
        witnesses["cond_i"] = {"atom": support_witness}

    cond_ii = not (add_residuals.max() > ADDITIVITY_TOL)
    if not cond_ii:
        witnesses["cond_ii"] = {"residual": float(add_residuals.max()),
                                "point": grid[int(np.argmax(add_residuals))].tolist()}

    mixed_ok, mixed_witness = check_mixed_margins(measure, part)
    if not mixed_ok:
        witnesses["cond_iii"] = {"subset": sorted(mixed_witness)}

    df_ok = not (df_diffs.max() > ADDITIVITY_TOL)
    if not df_ok:
        witnesses["df"] = {"difference": float(df_diffs.max()),
                           "point": grid[int(np.argmax(df_diffs))].tolist()}

    factorization = conditional_factorization(measure, part)
    if not factorization.holds:
        k = int(np.flatnonzero(~factorization.ok)[0])
        witnesses["new_notion"] = {"k": k, "atom": int(factorization.atom[k])}

    flags = (support_ok, cond_ii, mixed_ok, df_ok, factorization.holds)
    return IndependenceReport(
        cond_i=support_ok,
        cond_ii=cond_ii,
        cond_iii=mixed_ok,
        df=df_ok,
        new_notion=factorization.holds,
        agree=len(set(flags)) == 1,
        witnesses=witnesses,
    )


def split_of_mask(d, a_mask):
    a = [i for i in range(d) if a_mask >> i & 1]
    return ft.bipartition(a, sorted(set(range(d)) - set(a)))


@st.composite
def measures(draw, d_min, d_max, max_atoms):
    """Atoms with entries from 1e-11 to 1 and masses from 1e-12 to 1e6,
    log-uniform, on faces inside the two blocks of a random split (so that
    split is independent) or on free faces, with every coordinate charged.
    Returns the measure and the split's A mask, or None for free faces."""
    d = draw(st.integers(d_min, d_max))
    n_atoms = draw(st.integers(1, max_atoms))
    a_mask = draw(st.one_of(st.none(), st.integers(1, 2 ** d - 2)))
    pools = [list(range(d))] if a_mask is None else \
        [[i for i in range(d) if a_mask >> i & 1], [i for i in range(d) if not a_mask >> i & 1]]
    omega = np.zeros((n_atoms, d))
    for row in omega:
        pool = draw(st.sampled_from(pools))
        face = sorted(draw(st.sets(st.sampled_from(pool), min_size=1)))
        row[face] = [10.0 ** draw(st.floats(-11.0, 0.0)) for _ in face]
    for i in np.flatnonzero(~np.any(omega > 0.0, axis=0)).tolist():
        omega[draw(st.integers(0, n_atoms - 1)), i] = 10.0 ** draw(st.floats(-11.0, 0.0))
    mass = [10.0 ** draw(st.floats(-12.0, 6.0)) for _ in range(n_atoms)]
    m = ft.ExponentMeasure(d, omega, mass)
    return m, a_mask


@settings(max_examples=60, deadline=None)
@given(measures(2, 10, 40), st.data())
def test_plan_reports_equal_the_per_report_split_bit_for_bit(drawn, data):
    m, a_mask = drawn
    d = m.d
    masks = data.draw(st.lists(st.integers(1, 2 ** d - 2), min_size=1, max_size=6))
    if a_mask is not None:
        masks.append(a_mask)
    parts = data.draw(st.permutations([split_of_mask(d, mask) for mask in masks]))
    grid = ft.default_grid(d)
    for part in parts:
        assert ft.full_report(m, part).to_dict() == oracle_full_report(m, part).to_dict()
        # to_dict hides the residual bits of an independent split
        split = _full_exponents(m)[0], _split_sum(m, part)
        for got, want in zip(split, oracle_column_split(m, part, grid)):
            assert np.array_equal(got, want)
        # the marginals' sums run over other atoms in another order: two
        # sums of at most J nonnegative terms each, a few ulps for the merges
        lam, lam_sum = oracle_split_exponents(m, part, grid)
        assert np.array_equal(split[0], lam)
        assert within_ulps(split[1], lam_sum, 2 * m.n_atoms + 8)


@pytest.mark.parametrize("d", range(1, 13))
def test_default_grid_is_the_truncated_lex_product(d):
    # the layout _split_sum relies on: the lex-first 4096 rows of the product,
    # so only the last min(d, 6) coordinates vary, then the random rows
    grid = ft.default_grid(d)
    tensor = np.array(list(itertools.islice(
        itertools.product(independence._GRID_AXIS, repeat=d), independence._GRID_CAP)))
    random_part = np.random.default_rng(independence._GRID_SEED).uniform(
        0.1, 10.0, size=(independence._GRID_RANDOM, d))
    assert np.array_equal(grid, np.vstack([tensor, random_part]))
    assert grid.flags.c_contiguous and not grid.flags.writeable
    first, k = independence._grid_layout(d)
    assert (first, k) == (d - min(d, 6), min(d, 6))
    assert np.all(grid[:4 ** k, :first] == 0.5)


@settings(max_examples=200, deadline=None)
@given(measures(2, 6, 10), st.data())
def test_boundary_points_decide_nothing(drawn, data):
    # why the grid has no zero coordinate: with every coordinate charged,
    # F(x) = 0 = F_A(x_A) * F_C(x_C) wherever x has one
    m, _ = drawn
    d = m.d
    x = np.array([data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 5.0, 1e-300, 1e300]))
                  for _ in range(d)])
    x[data.draw(st.integers(0, d - 1))] = 0.0
    assert ft.distribution_function(m, x) == 0.0
    for part in ft.all_bipartitions(d):
        a, c = list(part.a_sorted), list(part.c_sorted)
        product = ft.distribution_function(marginalize(m, a), x[a]) \
            * ft.distribution_function(marginalize(m, c), x[c])
        assert product == 0.0


@pytest.fixture
def kernel_calls(monkeypatch):
    """Record ``(columns, rows)`` of every `_ratio_kernel` call."""
    kernel = measure_module._ratio_kernel
    calls = []

    def counting(omega, mass, points, *args, **kwargs):
        calls.append((omega.shape[1], len(points)))
        return kernel(omega, mass, points, *args, **kwargs)

    monkeypatch.setattr(measure_module, "_ratio_kernel", counting)
    monkeypatch.setattr(independence, "_ratio_kernel", counting)
    return calls


def test_certification_evaluates_the_full_exponent_once(kernel_calls, monkeypatch):
    m = ft.random_measure(10, 16, seed=3)
    merges = []
    merge_rays = measure_module._merge_rays

    def counting_merges(omega, mass, masks):
        merges.append(len(mass))
        return merge_rays(omega, mass, masks)

    monkeypatch.setattr(measure_module, "_merge_rays", counting_merges)
    tracemalloc.start()
    try:
        assert ft.certify_partition_bruteforce(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one report per bipartition recomputed it 511 times; keeping every
    # block exponent as well would add about 34 MB
    assert sum(cols == m.d for cols, _ in kernel_calls) == 1
    assert len(kernel_calls) == 1 + 2 * 511
    # each block exponent at the distinct points of its projection only:
    # 1022 blocks of 4160 rows were 4,251,520
    assert sum(rows for cols, rows in kernel_calls if cols < m.d) == 311_800
    assert peak < 4 * MB
    # block exponents are sums over the measure's own atoms: no report
    # builds a marginal measure, so none re-canonicalises one
    assert merges == []


def test_full_exponent_is_computed_once_per_measure(kernel_calls):
    m = ft.random_measure(8, 40, seed=5)
    dependent, other = ft.bipartition([0, 1, 2], [3, 4, 5, 6, 7]), ft.bipartition([0], range(1, 8))
    reports = [ft.full_report(m, part).to_dict() for part in (dependent, other)]
    additivity = ft.check_additivity(m, dependent)
    df_ok, _ = ft.check_df_factorization(m, other)
    assert [cols for cols, _ in kernel_calls].count(m.d) == 1
    assert reports[0]["cond_ii"] == additivity.ok and reports[1]["df"] == df_ok
    # the cached vectors are shared read-only, never handed out writable
    lam, df = independence._FULL_EXPONENTS[m]
    assert not lam.flags.writeable and not df.flags.writeable
    assert _full_exponents(m)[0] is lam and _full_exponents(m)[1] is df
    with pytest.raises(ValueError):
        _full_exponents(m)[0][0] = 0.0
    assert np.array_equal(df, np.exp(-exponent_function_grid(m, ft.default_grid(8))))


def test_full_exponent_is_freed_with_its_measure():
    # the cache holds a measure weakly, so memory stays bounded in the
    # number of measures a process has seen
    cache = independence._FULL_EXPONENTS
    gc.collect()
    before = len(cache)
    m = ft.random_measure(8, 40, seed=6)
    ft.full_report(m, ft.bipartition([0, 1], range(2, 8)))
    assert len(cache) == before + 1
    refs = [weakref.ref(m), *(weakref.ref(array) for array in cache[m])]
    del m
    gc.collect()
    assert all(ref() is None for ref in refs) and len(cache) == before


def test_concurrent_reports_on_one_measure():
    # reports on one measure share only the read-only full exponent, so two
    # threads racing through every bipartition, the cache cold at the start,
    # each get what one thread gets alone on a fresh measure
    m = ft.random_measure(8, 40, seed=5)
    parts = list(ft.all_bipartitions(8))
    assert len(parts) == 127
    start, results = threading.Barrier(2), [None, None]

    def run(slot):
        start.wait()
        results[slot] = [ft.full_report(m, part).to_dict() for part in parts]

    threads = [threading.Thread(target=run, args=(slot,)) for slot in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside reports too
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    fresh = ft.random_measure(8, 40, seed=5)
    expected = [ft.full_report(fresh, part).to_dict() for part in parts]
    assert results == [expected, expected]


def oracle_max_stable_rows(measure, seed, n):
    # the sampler before its row blocks, coordinate-major rays and in-place
    # buffers: one (n, J) temporary per coordinate, and the uniforms written
    # out here rather than taken from the code under test
    from facetail.simulate import _batch_key, _sample_words
    ticks = max(1, -(-measure.n_atoms // 4))
    words = _sample_words(_batch_key(seed, "max_stable", None), ticks, 0, n, measure.n_atoms)
    uniforms = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    exponentials = -np.log(uniforms)
    rays = measure.omega_matrix * measure.mass_vector[:, None]
    return np.stack([np.max(rays[:, i] / exponentials, axis=1) for i in range(measure.d)],
                    axis=1)


SPLIT_HASH = """
import hashlib
import numpy as np
import facetail as ft
from facetail.independence import _full_exponents, _split_sum
from facetail.measure import _ratio_kernel, exponent_function_grid
from facetail.simulate import _max_stable_rows

{oracle}

{sampler_oracle}

split_hash, oracle_hash = hashlib.sha256(), hashlib.sha256()
for d, n_atoms, seed in [(4, 8, 1), (4, 300, 2), (6, 8, 3), (6, 120, 4),
                         (8, 8, 5), (8, 300, 6), (10, 10, 7), (10, 16, 8), (10, 300, 9)]:
    rng = np.random.default_rng(seed)
    block = seed % 2 == 0
    a = sorted(rng.choice(d, size=d // 2, replace=False).tolist())
    m = ft.random_measure(d, n_atoms, split=(a, sorted(set(range(d)) - set(a))) if block
                          else None, seed=seed)
    # the first call computes the full exponent, every later one reads it back
    _full_exponents(m)
    for mask in rng.integers(1, 2 ** d - 1, size=12).tolist():
        a = [i for i in range(d) if mask >> i & 1]
        part = ft.bipartition(a, sorted(set(range(d)) - set(a)))
        oracle = oracle_column_split(m, part, ft.default_grid(d))
        for _ in range(2):
            split = _full_exponents(m)[0], _split_sum(m, part)
            for h, arrays in ((split_hash, split), (oracle_hash, oracle)):
                for array in arrays:
                    h.update(array.tobytes())
    split_hash.update(_max_stable_rows(m, seed, 0, 1001).tobytes())
    oracle_hash.update(oracle_max_stable_rows(m, seed, 1001).tobytes())
print(split_hash.hexdigest(), oracle_hash.hexdigest())
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_plan_split_is_bit_identical_under_blas_threads(threads, child_env):
    # how BLAS sums a row may depend on the thread count and the rows around
    # it; the projected rows, a cached full exponent and the sampler must
    # reproduce the full-grid call and the unchunked draw either way
    code = SPLIT_HASH.format(oracle=inspect.getsource(oracle_column_split),
                             sampler_oracle=inspect.getsource(oracle_max_stable_rows))
    env = {**child_env, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    split_hash, oracle_hash = proc.stdout.split()
    assert split_hash == oracle_hash
