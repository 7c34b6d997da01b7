import json
import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import facetail as ft
from facetail import (
    bipartition,
    chi_empirical,
    chi_exact,
    factorization_test,
    permutation_independence_test,
)
from facetail.estimate import _midranks


# ---- exact chi -------------------------------------------------------------


def test_chi_exact_oracles(m_ind, m_dep, m_blk):
    assert chi_exact(m_ind, 0, 1) == 0.0
    assert chi_exact(m_dep, 0, 1) == 1.0
    assert chi_exact(m_blk, 0, 1) == 1.0
    assert chi_exact(m_blk, 0, 2) == 0.0
    assert chi_exact(m_blk, 2, 0) == 0.0   # symmetric


def test_chi_exact_intermediate_value():
    # equal mix of a comonotone ray and two axis rays: chi = shared mass
    m = ft.ExponentMeasure(2, [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]], [0.4, 0.6, 0.6])
    assert ft.is_standardized(m)
    assert math.isclose(chi_exact(m, 0, 1), 0.4)


def test_chi_exact_argument_checks(m_ind):
    with pytest.raises(ValueError):
        chi_exact(m_ind, 0, 0)
    with pytest.raises(ValueError):
        chi_exact(m_ind, 0, 2)
    lopsided = ft.ExponentMeasure(2, [[2.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
    with pytest.raises(ValueError):
        chi_exact(lopsided, 0, 1)
    assert chi_exact(ft.standardize(lopsided), 0, 1) == 0.0


# ---- midranks --------------------------------------------------------------


@st.composite
def tie_heavy_arrays(draw):
    # few distinct values, a share of exact zeros, or continuous draws;
    # 1-D arrays and (n, d) arrays ranked column by column
    n = draw(st.integers(1, 2000))
    shape = (n,) if draw(st.booleans()) else (n, draw(st.integers(1, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["levels", "zeros", "continuous"]))
    if kind == "levels":
        x = rng.integers(0, draw(st.integers(1, 6)), size=shape).astype(float)
    elif kind == "zeros":
        share = draw(st.floats(0.0, 1.0))
        x = np.where(rng.random(shape) < share, 0.0, rng.pareto(1.0, size=shape))
    else:
        x = rng.standard_normal(shape)
    return x


@st.composite
def plain_columns(draw):
    # the shapes the rank kernel special-cases or may trip on: no ties at
    # all, one tie group, two groups, and a single entry
    n = draw(st.integers(1, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["distinct", "tied", "two-valued", "single"]))
    if kind == "distinct":
        return rng.permutation(n) - n / 3.0
    if kind == "tied":
        return np.full(n, draw(st.sampled_from([0.0, -2.0, 7.5])))
    if kind == "two-valued":
        return np.where(rng.random(n) < draw(st.floats(0.0, 1.0)), 1.0, -1.0)
    return np.array([draw(st.floats(-1e6, 1e6))])


def test_midranks_equal_scipy_bit_for_bit():
    stats = pytest.importorskip("scipy.stats")

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(tie_heavy_arrays(), plain_columns()))
    def check(x):
        if x.ndim == 1:
            assert np.array_equal(_midranks(x), stats.rankdata(x, method="average"))
        else:
            ours = np.column_stack([_midranks(column) for column in x.T])
            assert np.array_equal(ours, stats.rankdata(x, axis=0, method="average"))

    check()


def test_midranks_average_tied_positions():
    x = np.array([3.0, 0.0, 3.0, 1.0, 0.0, 3.0])
    assert _midranks(x).tolist() == [5.0, 1.5, 5.0, 3.0, 1.5, 5.0]


def test_import_does_not_load_scipy(child_env):
    code = "import sys, facetail; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


#: every public path a session takes, on a small measure; numpy imports
#: `numpy.ma` lazily (`np.unique` does), which costs about 9 ms and 1 MB of
#: resident memory in a fresh process
PUBLIC_PATHS = """
import os, sys, tempfile
import facetail as ft
m = ft.ExponentMeasure(3, [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]], [2.0, 1.0])
part = ft.bipartition([0, 1], [2])
ft.build_graph(m)
ft.certify_partition_bruteforce(m)
ft.full_report(m, part)
law = ft.conditional_law(m, 0)
ft.rectangle_probability(law, [1.5, 1.0, 2.0])
ft.marginal_rectangle_probability(law, [2, 0], [1.0, 1.5])
cond = ft.sample_conditional(m, 0, 500, seed=1)
batch = ft.sample_max_stable(m, 2000, seed=1)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "samples.csv")
    ft.save_batch(batch, path)
    batch = ft.load_batch(path)
ft.empirical_graph(ft.chi_empirical(batch))
ft.factorization_test(cond, part, n_perm=19, seed=1)
print(sorted(name for name in sys.modules if name.split(".")[:2] == ["numpy", "ma"]))
"""


def test_no_public_path_loads_numpy_ma(child_env):
    proc = subprocess.run([sys.executable, "-c", PUBLIC_PATHS], capture_output=True, text=True,
                          env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---- empirical chi ---------------------------------------------------------


def test_chi_empirical_recovers_extremes(m_dep, m_ind):
    dep = ft.sample_max_stable(m_dep, 20_000, seed=61)
    est = chi_empirical(dep)
    assert est.chi[0, 1] > 0.95

    ind = ft.sample_max_stable(m_ind, 20_000, seed=61)
    est2 = chi_empirical(ind)
    assert est2.chi[0, 1] < 0.12


def test_chi_empirical_near_exact_value():
    m = ft.ExponentMeasure(2, [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]], [0.4, 0.6, 0.6])
    batch = ft.sample_max_stable(m, 100_000, seed=67)
    est = chi_empirical(batch)
    assert abs(est.chi[0, 1] - chi_exact(m, 0, 1)) < 0.05


def test_chi_matrix_shape_and_counts(m_blk):
    batch = ft.sample_max_stable(m_blk, 5000, seed=71)
    est = chi_empirical(batch, q=0.9)
    assert est.d == 3 and est.n == 5000 and est.q == 0.9
    assert np.array_equal(est.chi, est.chi.T)
    assert np.all(np.diag(est.chi) == 1.0)
    assert np.all(est.chi >= 0.0) and np.all(est.chi <= 1.0)
    # diagonal counts are the marginal exceedance counts, n/10 each
    assert np.all(np.diag(est.counts) == 500)
    # comonotone pair shares every exceedance under midranks
    assert est.counts[0, 1] == 500
    with pytest.raises(ValueError):
        est.chi[0, 1] = 0.5   # read-only


def test_chi_matrix_serialization(tmp_path, m_blk):
    est = chi_empirical(ft.sample_max_stable(m_blk, 2000, seed=73))
    parsed = json.loads(json.dumps(est.to_dict()))
    assert parsed["d"] == 3 and parsed["n"] == 2000
    assert parsed["chi"][0][0] == 1.0

    out = tmp_path / "chi.csv"
    est.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "x1,x2,x3"
    assert len(lines) == 4


def test_chi_empirical_input_checks(m_ind):
    small = ft.sample_max_stable(m_ind, 999, seed=1)
    with pytest.raises(ValueError):
        chi_empirical(small)
    batch = ft.sample_max_stable(m_ind, 2000, seed=1)
    with pytest.raises(ValueError):
        chi_empirical(batch, q=1.0)
    with pytest.raises(ValueError):
        chi_empirical(batch, q=0.999)   # < 20 marginal exceedances
    # the short column is named by its 1-based CSV header
    tied = np.column_stack([batch.data[:, 0], np.ones(2000)])
    with pytest.raises(ValueError, match=r"^column x2 has only 0 exceedances above q=0\.95; "
                                         r"need at least 20 per coordinate$"):
        chi_empirical(tied)
    with pytest.raises(ValueError):
        chi_empirical(np.zeros(5))
    # plain arrays are accepted
    est = chi_empirical(batch.data)
    assert est.d == 2


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_chi_empirical_rejects_non_finite_samples(m_ind, bad):
    data = np.array(ft.sample_max_stable(m_ind, 2000, seed=1).data)
    data[7, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        chi_empirical(data)


# ---- permutation test ------------------------------------------------------


def test_permutation_test_rejects_monotone_dependence():
    rng = np.random.default_rng(79)
    u = rng.uniform(size=400)
    res = permutation_independence_test(u, 2.0 * u + 1.0, seed=1)
    assert res.reject and not res.degenerate
    assert res.p_value == 1.0 / 500.0   # nothing beats perfect correlation
    assert math.isclose(res.statistic, 1.0)


def test_permutation_test_accepts_independence():
    rng = np.random.default_rng(83)
    u, v = rng.uniform(size=400), rng.uniform(size=400)
    res = permutation_independence_test(u, v, seed=2)
    assert not res.reject
    assert res.p_value > 0.05


def test_permutation_test_degenerate_input_is_trivially_independent():
    rng = np.random.default_rng(89)
    res = permutation_independence_test(np.zeros(100), rng.uniform(size=100), seed=3)
    assert res.degenerate and not res.reject
    assert res.p_value == 1.0 and res.statistic == 0.0


def test_permutation_test_p_value_granularity_and_determinism():
    rng = np.random.default_rng(97)
    u, v = rng.uniform(size=50), rng.uniform(size=50)
    a = permutation_independence_test(u, v, n_perm=99, seed=4)
    b = permutation_independence_test(u, v, n_perm=99, seed=4)
    assert a == b
    assert a.n_perm == 99
    # p-values live on the grid k/100
    assert math.isclose((a.p_value * 100) % 1, 0.0, abs_tol=1e-9)


def test_permutation_test_input_checks():
    with pytest.raises(ValueError):
        permutation_independence_test([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        permutation_independence_test([1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        permutation_independence_test(np.arange(5), np.arange(5), n_perm=0)
    with pytest.raises(ValueError):
        permutation_independence_test(np.arange(5), np.arange(5), alpha=1.0)


def test_permutation_test_rejects_non_finite_samples():
    # a nan statistic never counts a permutation hit, so it would report
    # p = 1/(n_perm + 1) and reject independence
    rng = np.random.default_rng(101)
    u, v = rng.uniform(size=100), rng.uniform(size=100)
    v[3] = math.nan
    with pytest.raises(ValueError, match="non-finite"):
        permutation_independence_test(u, v, seed=1)
    with pytest.raises(ValueError, match="non-finite"):
        permutation_independence_test(np.full(100, -math.inf), u, seed=1)


def oracle_permutation_loop(u, v, n_perm, seed):
    # the earlier loop, which gathered rv through rng.permutation's index
    # array; returns (statistic, p_value, hits)
    u = np.asarray(u, dtype=float).reshape(-1)
    v = np.asarray(v, dtype=float).reshape(-1)
    ru = _midranks(u)
    rv = _midranks(v)
    ru -= ru.mean()
    rv -= rv.mean()
    ru /= float(np.linalg.norm(ru))
    rv /= float(np.linalg.norm(rv))
    statistic = float(ru @ rv)

    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(n_perm):
        if abs(float(ru @ rv[rng.permutation(rv.size)])) >= abs(statistic):
            hits += 1
    p_value = (1.0 + hits) / (n_perm + 1.0)
    return statistic, p_value, hits


@pytest.mark.parametrize("n", [3, 4, 7, 50, 333, 5000])
@pytest.mark.parametrize("ties", [False, True])
def test_permutation_test_equals_the_index_array_loop(n, ties):
    # shuffling a copy of rv in place draws the same Fisher-Yates stream as
    # rng.permutation, so statistic, p-value and hit count are identical
    rng = np.random.default_rng(1000 * n + ties)
    u = rng.uniform(size=n)
    v = 0.3 * u + rng.uniform(size=n)
    if ties:
        u, v = np.floor(4 * u), np.floor(3 * v)
        u[:2], v[:2] = (0.0, 3.0), (2.0, 0.0)   # neither sample constant
    n_perm = 499 if n < 1000 else 99
    for seed in (0, 1, 2, 12345):
        res = permutation_independence_test(u, v, n_perm=n_perm, seed=seed)
        statistic, p_value, hits = oracle_permutation_loop(u, v, n_perm, seed)
        assert res.statistic == statistic
        assert res.p_value == p_value
        assert round(res.p_value * (n_perm + 1)) - 1 == hits


# ---- block factorization test ----------------------------------------------


def test_factorization_test_on_straddling_atom(m_dep):
    batch = ft.sample_conditional(m_dep, 0, 2000, seed=101)
    res = factorization_test(batch, bipartition([0], [1]), seed=5)
    # both block maxima ride one shared radius: dependence is perfect
    assert res.reject and res.p_value == 1.0 / 500.0


def test_factorization_test_on_split_blocks(m_blk):
    batch = ft.sample_conditional(m_blk, 2, 2000, seed=103)
    res = factorization_test(batch, bipartition([0, 1], [2]), seed=6)
    # the first block maximum is constant zero: degenerate, no rejection
    assert res.degenerate and not res.reject and res.p_value == 1.0


def test_factorization_test_equals_the_gathered_block_maxima():
    # blocks of two and three coordinates, one of them not contiguous: the
    # column-view maxima give the result of the (n, |block|) gather's
    m = ft.ExponentMeasure(5, [[1.0, 0.5, 0.0, 0.2, 0.0], [0.0, 1.0, 1.0, 0.0, 0.3],
                               [0.4, 0.0, 0.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0, 1.0]],
                           [1.0, 0.5, 0.8, 0.3])
    for k, (a, c) in ((1, ([0, 1], [2, 3, 4])), (0, ([0, 2, 4], [1, 3])), (3, ([1, 4], [0, 2, 3]))):
        batch = ft.sample_conditional(m, k, 3000, seed=107 + k)
        res = factorization_test(batch, bipartition(a, c), n_perm=199, seed=k)
        want = permutation_independence_test(batch.data[:, a].max(axis=1),
                                             batch.data[:, c].max(axis=1), n_perm=199, seed=k)
        assert res == want and not res.degenerate


def test_estimators_peak_memory_in_columns():
    # tracemalloc peaks at n = 2e5, d = 5, in units of one float column (8n
    # bytes): chi holds the (n, d) boolean exceedances, one column copy for
    # the selection and one boolean column; the factorization test ranks each
    # block maximum as soon as it is built, so it peaks while ranking the
    # second with the first's ranks held, with ties (k = 3: one block's
    # maximum is 0 in a share of rows) or not: 5.13 and 5.63 columns, where
    # holding both maxima through the shuffle loop read 6.13 and 6.63
    n, d = 200_000, 5
    m = ft.ExponentMeasure(d, [[1.0, 1.0, 0.5, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0, 1.0],
                               [1.0, 0.5, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0, 0.0],
                               [1.0, 1.0, 1.0, 1.0, 1.0]], [0.5] * 5)
    sample = ft.sample_max_stable(m, n, seed=109).data
    part = bipartition([0, 1], [2, 3, 4])
    runs = [lambda: chi_empirical(sample)]
    for k in (0, 3):
        batch = ft.sample_conditional(m, k, n, seed=113 + k)
        runs.append(lambda batch=batch: factorization_test(batch, part, n_perm=2))
    peaks = []
    for run in runs:
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1] / (8 * n))
        finally:
            tracemalloc.stop()
    chi_peak, *test_peaks = peaks
    assert chi_peak < 2 + d / 8, peaks
    assert max(test_peaks) < 6, peaks


def test_factorization_test_raises_what_the_permutation_test_raises():
    # ranking each block maximum as soon as it is built keeps the checks of
    # the test on both maxima, and their order
    part = bipartition([0, 1], [2])
    for n, bad, n_perm, alpha in ((2, (0, np.nan), 0, 0.05), (9, (2, np.nan), 0, 0.05),
                                  (9, (0, np.nan), 9, 1.0), (9, (0, np.nan), 9, 0.05),
                                  (9, (2, np.inf), 9, 0.05)):
        data = np.arange(3.0 * n).reshape(n, 3)
        data[n // 2, bad[0]] = bad[1]
        batch = ft.SampleBatch(kind="conditional", k=0, n=n, seed=0, data=data)
        with pytest.raises(ValueError) as want:
            permutation_independence_test(data[:, :2].max(axis=1), data[:, 2], n_perm=n_perm,
                                          alpha=alpha)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            factorization_test(batch, part, n_perm=n_perm, alpha=alpha)


def test_factorization_test_input_checks(m_blk, m_ind):
    ms = ft.sample_max_stable(m_blk, 1000, seed=1)
    with pytest.raises(ValueError):
        factorization_test(ms, bipartition([0, 1], [2]))
    cond = ft.sample_conditional(m_ind, 0, 1000, seed=1)
    with pytest.raises(ValueError):
        factorization_test(cond, bipartition([0, 1], [2]))
