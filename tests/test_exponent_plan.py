"""How reports decide the numeric criteria: at one point, never on a grid.

`full_report`, `check_additivity` and `check_df_factorization` read the
measure's atoms at the point 1 only, through terms built once per measure
and pass over its parts.  Additivity is the sign of the exact
defect ``exponent_A(1) + exponent_C(1) - exponent(1)``; the ``oracle_*``
functions below sum the three exponents in exact rational arithmetic
(`fractions.Fraction`) and evaluate the df comparison at 60 digits
(`decimal`), so the report must match the first exactly and the second
within the rounding bound it states.  Reports keep nothing between calls,
so they may run concurrently.
"""

import inspect
import itertools
import subprocess
import sys
import threading
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import facetail as ft
import facetail.independence as independence
import facetail.measure as measure_module
from facetail.measure import marginalize

MB = 2**20
EPS = np.finfo(float).eps


def oracle_exponents(measure, part):
    """``exponent_A(1)``, ``exponent_C(1)`` and ``exponent(1)``, each an
    exact sum over the measure's atoms (an atom off a block adds 0)."""
    omega, mass = measure.omega_matrix.tolist(), measure.mass_vector.tolist()

    def exponent(cols):
        return sum((Fraction(w) * Fraction(max(row[i] for i in cols))
                    for row, w in zip(omega, mass)), Fraction(0))

    return exponent(part.a_sorted), exponent(part.c_sorted), exponent(range(measure.d))


def oracle_df_difference(exponents, t):
    """``F(t * 1) - F_A(t * 1) * F_C(t * 1)`` at 60 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        lam_a, lam_c, lam = (Decimal(f.numerator) / Decimal(f.denominator) / Decimal(t)
                             for f in exponents)
        return (-lam).exp() - (-lam_a).exp() * (-lam_c).exp()


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
def test_reports_decide_as_the_exact_defect(drawn, data):
    m, a_mask = drawn
    d = m.d
    masks = data.draw(st.lists(st.integers(1, 2 ** d - 2), min_size=1, max_size=6))
    if a_mask is not None:
        masks.append(a_mask)
    for part in [split_of_mask(d, mask) for mask in masks]:
        report = ft.full_report(m, part)
        lam_a, lam_c, lam = exponents = oracle_exponents(m, part)
        defect = lam_a + lam_c - lam
        # products within 1e30 of each other never underflow after scaling
        assert report.cond_ii == (defect == 0) == report.cond_i
        additivity = ft.check_additivity(m, part)
        assert additivity.ok == report.cond_ii
        # the defect and exponent(1) are each rounded once, then divided
        want = float(defect / lam)
        assert abs(additivity.residual - want) <= 2 * EPS * want
        if defect:
            assert report.witnesses["cond_ii"] == {"residual": additivity.residual,
                                                   "point": [1.0] * d}
        # floating point can show the df factorization fail, never hold,
        # and the stated bound covers the difference's rounding
        df_ok, witness = ft.check_df_factorization(m, part)
        assert df_ok == report.df and df_ok in (False, None)
        assert df_ok is None or defect > 0
        t = witness["point"][0]
        assert witness["point"] == [t] * d and 0.5 <= float(lam) / t < 1.0
        error = Decimal(witness["difference"]) - oracle_df_difference(exponents, t)
        assert abs(error) <= Decimal(witness["bound"])
        assert report.agree


@pytest.mark.parametrize("d", range(1, 13))
def test_default_grid_is_the_truncated_lex_product(d):
    # the lex-first 4096 rows of the product, so only the last min(d, 6)
    # coordinates vary, then the random rows
    grid = ft.default_grid(d)
    tensor = np.array(list(itertools.islice(
        itertools.product(independence._GRID_AXIS, repeat=d), independence._GRID_CAP)))
    random_part = np.random.default_rng(independence._GRID_SEED).uniform(
        0.1, 10.0, size=(independence._GRID_RANDOM, d))
    assert np.array_equal(grid, np.vstack([tensor, random_part]))
    assert grid.flags.c_contiguous and not grid.flags.writeable
    k = min(d, 6)
    assert np.all(grid[:4 ** k, :d - k] == 0.5)


@settings(max_examples=200, deadline=None)
@given(measures(2, 6, 10), st.data())
def test_boundary_points_decide_nothing(drawn, data):
    # why the df is compared at a point with no zero coordinate: with every
    # coordinate charged, F(x) = 0 = F_A(x_A) * F_C(x_C) wherever x has one
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


@pytest.fixture
def term_calls(monkeypatch):
    """Record each build of a measure's per-measure terms, as ``("terms", J)``
    for `_point_terms` (the scaled atoms at the point 1, the one place a
    report reads the full exponent ``exponent(1)``) and ``("cover", d)`` for
    `_pair_cover` (which coordinate pairs some face holds)."""
    point_terms, pair_cover = independence._point_terms, independence._pair_cover
    calls = []

    def counting_terms(measure):
        calls.append(("terms", measure.n_atoms))
        return point_terms(measure)

    def counting_cover(charges):
        calls.append(("cover", len(charges)))
        return pair_cover(charges)

    monkeypatch.setattr(independence, "_point_terms", counting_terms)
    monkeypatch.setattr(independence, "_pair_cover", counting_cover)
    return calls


def test_certification_evaluates_the_full_exponent_once(kernel_calls, term_calls, monkeypatch):
    # once per measure: certification runs its 511 bipartitions through the
    # criteria in chunks, on terms built once, and no report evaluates an
    # exponent on the grid
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
    assert term_calls == [("terms", m.n_atoms), ("cover", m.d)]
    part = ft.bipartition([0, 1, 2], range(3, 10))
    ft.check_additivity(m, part)
    ft.check_df_factorization(m, part)
    assert term_calls[2:] == [("terms", m.n_atoms)] * 2
    # 511 reports at one point each: no kernel call over default_grid's 4160
    # rows, no block exponent kept, no marginal measure built or merged
    assert kernel_calls == [] and merges == []
    assert peak < MB
    # the battery builds the terms once per random measure, for all its parts
    del term_calls[:]
    assert ft.agreement_battery(6, 10, 5, seed=1).instances > 5
    assert [name for name, _ in term_calls] == ["terms", "cover"] * 5


def test_certification_memory_does_not_grow_with_the_parts():
    # 2047 bipartitions of a d=12, J=4000 ring (atom faces {i, i + 1 mod 12})
    # go through the criteria one part per chunk, as J * d is large: the
    # peak is that of a single report, not of 2047 of them
    rng = np.random.default_rng(12)
    d, n_atoms = 12, 4000
    omega = np.zeros((n_atoms, d))
    first = rng.integers(0, d, n_atoms)
    for coords in (first, (first + 1) % d):
        omega[np.arange(n_atoms), coords] = rng.uniform(0.1, 1.0, n_atoms)
    m = ft.ExponentMeasure(d, omega, rng.uniform(0.5, 2.0, n_atoms))
    assert m.n_atoms == n_atoms
    part = ft.bipartition(range(6), range(6, 12))
    peaks = []
    for run in (lambda: ft.full_report(m, part), lambda: ft.certify_partition_bruteforce(m)):
        tracemalloc.start()
        try:
            assert run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    one, certify = peaks
    assert certify < 4 * MB and certify < one + MB // 2


def test_full_exponent_is_computed_once_per_measure(kernel_calls, term_calls):
    # the terms are built once per pass over a measure's parts and kept
    # nowhere: each call reads the measure's own read-only arrays again, and
    # the standalone checks reach the reports' verdicts from the same kernels
    m = ft.random_measure(8, 40, seed=5)
    state = dict(vars(m))
    dependent, other = ft.bipartition([0, 1, 2], [3, 4, 5, 6, 7]), ft.bipartition([0], range(1, 8))
    reports = [report.to_dict() for report in independence._reports(m, [dependent, other])]
    assert term_calls == [("terms", m.n_atoms), ("cover", m.d)]
    assert reports == [ft.full_report(m, part).to_dict() for part in (dependent, other)]
    assert term_calls == [("terms", m.n_atoms), ("cover", m.d)] * 3
    additivity = ft.check_additivity(m, dependent)
    df_ok, _ = ft.check_df_factorization(m, other)
    assert term_calls[6:] == [("terms", m.n_atoms)] * 2 and kernel_calls == []
    assert reports[0]["cond_ii"] == additivity.ok and reports[1]["df"] == df_ok
    assert vars(m).keys() == state.keys()
    assert all(vars(m)[key] is value for key, value in state.items())
    for array in (m.omega_matrix, m.mass_vector, m.face_masks):
        assert not array.flags.writeable


def test_concurrent_reports_on_one_measure():
    # reports keep nothing between calls, so two threads racing through every
    # bipartition each get what one thread gets alone on a fresh measure
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
    from facetail.simulate import _batch_key
    ticks = max(1, -(-measure.n_atoms // 4))
    bits = np.random.Philox(key=_batch_key(seed, "max_stable", None), counter=0)
    words = bits.random_raw(4 * ticks * n).reshape(n, 4 * ticks)[:, :measure.n_atoms]
    uniforms = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    exponentials = -np.log(uniforms)
    rays = measure.omega_matrix * measure.mass_vector[:, None]
    return np.stack([np.max(rays[:, i] / exponentials, axis=1) for i in range(measure.d)],
                    axis=1)


def mixed_support_measure(kind):
    """Measures whose coordinates take both of the sampler's paths: each
    coordinate divides the logs of only the atoms charging it when they are
    at most half the atoms, and the whole row otherwise."""
    rng = np.random.default_rng(24)
    if kind == "d64":  # faces of two or three coordinates, Python-int masks
        d, n_atoms = 64, 200
        omega = np.zeros((n_atoms, d))
        for j, row in enumerate(omega):
            row[[j % d, *rng.choice(d, size=int(rng.integers(1, 3)), replace=False)]] = 1.0
        omega *= 1.0 - rng.uniform(size=omega.shape)
        return ft.ExponentMeasure(d, omega, rng.uniform(0.5, 2.0, size=n_atoms))
    if kind == "underflow":
        # every mass * omega on coordinates 2 (two of three atoms: whole
        # rows) and 3 (one atom) is 1e-340, below the smallest subnormal: 0.0
        return ft.ExponentMeasure(4, [[1.0, 0.5, 0.0, 0.0], [0.0, 1e-170, 1e-170, 1e-170],
                                      [0.0, 0.0, 1e-170, 0.0]], [1.0, 1e-170, 1e-170])
    d, n_atoms = 8, 40
    omega = np.zeros((n_atoms, d))
    for j, row in enumerate(omega):  # atom j on {j, j + 3} mod d: a quarter each
        row[[j % d, (j + 3) % d]] = 1.0 - rng.uniform(size=2)
    if kind == "half":
        # charge coordinate 1 by exactly half of the atoms, and 2 by one more
        for i, extra in [(1, 10), (2, 11)]:
            omega[np.flatnonzero(omega[:, i] == 0.0)[:extra], i] = rng.uniform(0.1, 1.0, extra)
    elif kind == "full":
        omega[:, 0] = rng.uniform(0.1, 1.0, size=n_atoms)
    return ft.ExponentMeasure(d, omega, rng.uniform(0.5, 2.0, size=n_atoms))


@pytest.mark.parametrize("kind", ["sparse", "half", "full", "d64", "underflow"])
def test_face_restricted_draws_match_the_oracle(kind):
    from facetail.simulate import _max_stable_rows
    m = mixed_support_measure(kind)
    shares = (m.omega_matrix > 0.0).sum(axis=0) / m.n_atoms
    assert {"sparse": shares.max() <= 0.5,
            "half": shares[1] == 0.5 and shares[2] > 0.5,
            "full": shares[0] == 1.0 and shares[1:].max() <= 0.5,
            "d64": m.face_masks.dtype == object and shares.max() <= 0.5,
            "underflow": shares[2] > 0.5 >= shares[3] and not ft.margins(m)[2:].any()}[kind]
    want = oracle_max_stable_rows(m, 12, 1200)
    assert _max_stable_rows(m, 12, 0, 1200).tobytes() == want.tobytes()
    assert _max_stable_rows(m, 12, 333, 1100).tobytes() == want[333:1100].tobytes()


def blas_digests():
    import hashlib
    import json
    from facetail.simulate import _max_stable_rows

    report_hash, sample_hash, oracle_hash = (hashlib.sha256() for _ in range(3))
    for d, n_atoms, seed in [(4, 8, 1), (4, 300, 2), (6, 8, 3), (6, 120, 4),
                             (8, 8, 5), (8, 300, 6), (10, 10, 7), (10, 16, 8), (10, 300, 9)]:
        rng = np.random.default_rng(seed)
        block = seed % 2 == 0
        a = sorted(rng.choice(d, size=d // 2, replace=False).tolist())
        m = ft.random_measure(d, n_atoms, split=(a, sorted(set(range(d)) - set(a))) if block
                              else None, seed=seed)
        for mask in rng.integers(1, 2 ** d - 1, size=12).tolist():
            a = [i for i in range(d) if mask >> i & 1]
            part = ft.bipartition(a, sorted(set(range(d)) - set(a)))
            # the df witness is given either way, so its bits show even when
            # the report has no df entry
            payload = [ft.full_report(m, part).to_dict(), ft.check_df_factorization(m, part)]
            report_hash.update(json.dumps(payload, sort_keys=True).encode())
        sample_hash.update(_max_stable_rows(m, seed, 0, 1001).tobytes())
        oracle_hash.update(oracle_max_stable_rows(m, seed, 1001).tobytes())
    return report_hash.hexdigest(), sample_hash.hexdigest(), oracle_hash.hexdigest()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_plan_split_is_bit_identical_under_blas_threads(threads, child_env):
    # how BLAS sums a row may depend on the thread count: the df sums, and so
    # every report digit, must not, and the sampler must reproduce the
    # unchunked draw either way; a child at each thread count must print the
    # digests this process computes
    code = "\n\n".join(["import numpy as np\nimport facetail as ft",
                         inspect.getsource(oracle_max_stable_rows),
                         inspect.getsource(blas_digests), "print(*blas_digests())"])
    env = {**child_env, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    report_hash, sample_hash, oracle_hash = proc.stdout.split()
    assert sample_hash == oracle_hash
    assert (report_hash, sample_hash) == blas_digests()[:2]
