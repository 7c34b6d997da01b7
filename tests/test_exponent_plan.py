"""One exponent plan per (measure, grid) against the per-report code it replaced.

Certification and the agreement battery run every bipartition of a measure
through one `_ExponentPlan`, which computes the full exponent once, keeps
one kernel work buffer and, on `default_grid`, evaluates each block exponent
only at the distinct points of the block's projection.  The ``oracle_*`` functions below are the earlier
per-report split exponents, the report built on them and the per-point df
difference for grids with zero coordinates, kept verbatim.  Reports must
equal the oracle's bit for bit; zero-coordinate df differences, now computed
by the kernel over whole grids, must be within a few ulps of it.
"""

import inspect
import itertools
import math
import os
import subprocess
import sys
import tracemalloc

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
    _df_differences,
    _ExponentPlan,
    _report,
    check_mixed_margins,
    check_support,
)
from facetail.measure import exponent_function_extended, exponent_function_grid, marginalize

EPS = np.finfo(float).eps
MB = 2**20


def oracle_split_exponents(measure, part, grid):
    # one pass shared by the additivity and df checks
    lam_a, lam_c = (exponent_function_grid(marginalize(measure, block), grid[:, list(block)])
                    for block in (part.a_sorted, part.c_sorted))
    return exponent_function_grid(measure, grid), lam_a + lam_c


def oracle_full_report(measure, part):
    grid = ft.default_grid(measure.d)

    support_ok, support_witness = check_support(measure, part)

    lam, lam_sum = oracle_split_exponents(measure, part, grid)
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
        bad = factorization.witness()
        witnesses["new_notion"] = {"k": bad.k, "atom": bad.witness}

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


def oracle_df_difference(measure, part, x):
    x = np.asarray(x, dtype=float)
    lam_a, lam_c = (exponent_function_extended(marginalize(measure, block), x[list(block)])
                    for block in (part.a_sorted, part.c_sorted))
    full = math.exp(-exponent_function_extended(measure, x))
    return abs(full - math.exp(-lam_a) * math.exp(-lam_c)) / (1.0 + full)


def split_of_mask(d, a_mask):
    a = [i for i in range(d) if a_mask >> i & 1]
    return ft.bipartition(a, sorted(set(range(d)) - set(a)))


@st.composite
def measures(draw, d_min, d_max, max_atoms, cover=True):
    """Atoms with entries from 1e-11 to 1 and masses from 1e-12 to 1e6,
    log-uniform, on faces inside the two blocks of a random split (so that
    split is independent) or on free faces.  Returns the measure and the
    split's A mask, or None for free faces.  With ``cover`` every
    coordinate is charged."""
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
    if cover:
        for i in np.flatnonzero(~np.any(omega > 0.0, axis=0)).tolist():
            omega[draw(st.integers(0, n_atoms - 1)), i] = 10.0 ** draw(st.floats(-11.0, 0.0))
    mass = [10.0 ** draw(st.floats(-12.0, 6.0)) for _ in range(n_atoms)]
    m = ft.ExponentMeasure(d, [ft.SpectralAtom(row, w) for row, w in zip(omega, mass)])
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
    plan = _ExponentPlan(m)
    grid = ft.default_grid(d)
    for part in parts:
        assert _report(plan, part).to_dict() == oracle_full_report(m, part).to_dict()
        # to_dict hides the residual bits of an independent split
        for got, want in zip(plan.split(part), oracle_split_exponents(m, part, grid)):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("d", range(1, 13))
def test_default_grid_is_the_truncated_lex_product(d):
    # the layout the plan relies on: the lex-first 4096 rows of the product,
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


@st.composite
def zero_grids(draw, d):
    """Rows of 0 and of values from 0.1 to 10, with all-zero rows."""
    n = draw(st.integers(1, 12))
    grid = np.array([[draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 5.0]))
                      if draw(st.booleans()) else 10.0 ** draw(st.floats(-1.0, 1.0))
                      for _ in range(d)] for _ in range(n)])
    grid[draw(st.integers(0, n - 1))] = 0.0
    return grid


@settings(max_examples=300, deadline=None)
@given(measures(2, 6, 10, cover=False), st.data())
def test_zero_grid_df_matches_the_per_point_code(drawn, data):
    # dead coordinates (cover=False) give zeros that no atom charges
    m, _ = drawn
    grid = data.draw(zero_grids(m.d))
    part = split_of_mask(m.d, data.draw(st.integers(1, 2 ** m.d - 2)))
    want = np.array([oracle_df_difference(m, part, x) for x in grid])
    plan = _ExponentPlan(m, grid)
    got = _df_differences(*plan.split(part))
    assert np.all(np.abs(got - want) <= (2 * m.n_atoms + 8) * EPS), (got, want)
    ok, witness = ft.check_df_factorization(m, part, grid)
    assert ok == (want.max() <= ADDITIVITY_TOL)
    if ok:
        assert witness is None
    else:
        # a point whose oracle difference ties the largest to those ulps
        near = grid[want >= want.max() - (2 * m.n_atoms + 8) * EPS]
        assert any(np.array_equal(witness, x) for x in near)


def test_zero_grid_rows_charged_and_neutral():
    # coordinate 2 is dead, so a zero there is neutral; a zero in coordinate
    # 0 or 1 is charged and sends the exponent to +inf
    m = ft.ExponentMeasure(3, [ft.SpectralAtom([1.0, 1.0, 0.0], 1.0)])
    grid = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    lam, lam_sum = _ExponentPlan(m, grid).split(ft.bipartition([0], [1, 2]))
    assert lam.tolist() == [1.0, math.inf, math.inf, 1.0]
    assert lam_sum.tolist() == [1.5, math.inf, math.inf, 2.0]


def test_certification_evaluates_the_full_exponent_once(monkeypatch):
    m = ft.random_measure(10, 16, seed=3)
    kernel = measure_module._ratio_kernel
    full_width = []
    block_rows = []

    def counting(omega, mass, points, *args, **kwargs):
        full_width.append(omega.shape[1] == m.d)
        if omega.shape[1] < m.d:
            block_rows.append(len(points))
        return kernel(omega, mass, points, *args, **kwargs)

    monkeypatch.setattr(measure_module, "_ratio_kernel", counting)
    monkeypatch.setattr(independence, "_ratio_kernel", counting)
    tracemalloc.start()
    try:
        assert ft.certify_partition_bruteforce(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one report per bipartition recomputed it 511 times; keeping every
    # block exponent as well would add about 34 MB
    assert sum(full_width) == 1
    assert len(full_width) == 1 + 2 * 511
    # each block exponent at the distinct points of its projection only:
    # 1022 blocks of 4160 rows were 4,251,520
    assert sum(block_rows) == 311_800
    assert peak < 4 * MB


SPLIT_HASH = """
import hashlib
import numpy as np
import facetail as ft
from facetail.independence import _ExponentPlan
from facetail.measure import exponent_function_grid, marginalize

{oracle}

plan_hash, oracle_hash = hashlib.sha256(), hashlib.sha256()
for d, n_atoms, seed in [(4, 8, 1), (4, 300, 2), (6, 8, 3), (6, 120, 4),
                         (8, 8, 5), (8, 300, 6), (10, 10, 7), (10, 16, 8), (10, 300, 9)]:
    rng = np.random.default_rng(seed)
    block = seed % 2 == 0
    a = sorted(rng.choice(d, size=d // 2, replace=False).tolist())
    m = ft.random_measure(d, n_atoms, split=(a, sorted(set(range(d)) - set(a))) if block
                          else None, seed=seed)
    plan = _ExponentPlan(m)
    for mask in rng.integers(1, 2 ** d - 1, size=12).tolist():
        a = [i for i in range(d) if mask >> i & 1]
        part = ft.bipartition(a, sorted(set(range(d)) - set(a)))
        for h, arrays in ((plan_hash, plan.split(part)),
                          (oracle_hash, oracle_split_exponents(m, part, ft.default_grid(d)))):
            for array in arrays:
                h.update(array.tobytes())
print(plan_hash.hexdigest(), oracle_hash.hexdigest())
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_plan_split_is_bit_identical_under_blas_threads(threads):
    # how BLAS sums a row may depend on the thread count and the rows around
    # it; the projected rows must reproduce the full-grid call either way
    code = SPLIT_HASH.format(oracle=inspect.getsource(oracle_split_exponents))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    plan_hash, oracle_hash = proc.stdout.split()
    assert plan_hash == oracle_hash
