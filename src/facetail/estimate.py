"""Estimation: tail dependence coefficients and a rank permutation test.

Links the exact, measure-level quantities to what is recoverable from
simulated (or observed) samples: the pairwise tail dependence coefficient
chi, and a permutation test for independence of block maxima under a
conditional law.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .measure import ExponentMeasure, _ratio_kernel, is_standardized
from .partition import Bipartition
from .simulate import SampleBatch


def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-D array, ties sharing their mean position.

    Equals ``scipy.stats.rankdata(x, method="average")`` bit for bit for
    finite input: midranks are integers or half-integers, so exact.
    """
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    new = np.empty(x.size, dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    del ordered
    ranks = np.empty(x.size)
    if new.all():
        # no ties: sorted position p has the midrank (p + (p + 1) + 1) / 2
        ranks[order] = np.arange(1.0, x.size + 1.0)
        return ranks
    # the tie group at sorted positions [start, start + size) has the
    # midrank start + (size + 1) / 2, exact in floating point
    starts = np.flatnonzero(new)
    sizes = np.diff(starts, append=x.size)
    ranks[order] = np.repeat(starts + (sizes + 1) / 2.0, sizes)
    return ranks


def _require_finite(data: np.ndarray, what: str) -> None:
    if not np.isfinite(data).all():
        raise ValueError(f"{what} holds non-finite values (nan or inf)")


def chi_exact(measure: ExponentMeasure, i: int, j: int) -> float:
    """Tail dependence coefficient of coordinates i and j, from the measure.

    Requires a standardized measure (unit marginal masses, to `MARGIN_TOL`);
    then ``chi = 2 - exponent_{ij}(1, 1)``, the rectangle mass of the pair
    at ``(1, 1)``: ``sum_j mass_j * min(omega_ji, omega_jj')``.  Computed as
    that sum, with no subtraction, so it is exactly 0 when no atom charges
    both coordinates.  Lies in [0, 1]; clipped against roundoff at the ends.
    """
    if i == j or not (0 <= i < measure.d and 0 <= j < measure.d):
        raise ValueError(f"need two distinct coordinates in range(d={measure.d})")
    if not is_standardized(measure):
        raise ValueError("chi_exact needs a standardized measure (unit margins)")
    value = _ratio_kernel(measure.omega_matrix[:, [i, j]], measure.mass_vector,
                          np.ones((1, 2)), np.minimum)[0]
    return float(min(1.0, max(0.0, value)))


@dataclass(frozen=True, eq=False)
class ChiMatrix:
    """Empirical pairwise tail dependence estimates.

    ``chi`` is symmetric with unit diagonal, clipped to [0, 1].  ``counts``
    holds joint exceedance counts off the diagonal and marginal exceedance
    counts on it; the marginal counts are the effective sample sizes.
    """

    q: float
    n: int
    chi: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)

    @property
    def d(self) -> int:
        return self.chi.shape[0]

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "q": self.q,
            "chi": [[float(v) for v in row] for row in self.chi],
            "counts": [[int(v) for v in row] for row in self.counts],
        }

    def to_csv(self, path) -> None:
        header = ",".join(f"x{i + 1}" for i in range(self.d))
        np.savetxt(path, self.chi, fmt="%.17g", delimiter=",",
                   header=header, comments="")


def _exceedances(column: np.ndarray, q: float, buf: np.ndarray, out: np.ndarray) -> int:
    """Write ``midrank / (n + 1) > q`` for each entry of ``column`` into
    ``out``, with the quotient rounded as a float, and return the count.

    No ranks are computed.  A midrank ``(#{x < v} + #{x <= v} + 1) / 2`` is
    nondecreasing in v, so the exceedances are ``{x >= v*}`` for one order
    statistic v*.  The smallest half-integer midrank r* that passes sets the
    sorted position p = ceil(r*) - 1: every tie group ending at or before p
    has a midrank of at most p < r*, and the group after p's one of at least
    p + 2 > r*.  So p's own group decides between ``x >= v`` and ``x > v``
    for its value v, found by one partition of ``buf``, a copy of the column.
    """
    n = column.size

    def passes(k: int) -> bool:  # the midrank k/2, scaled as a rank array is
        return k / 2.0 / (n + 1.0) > q

    k = min(max(int(2.0 * q * (n + 1.0)), 2), 2 * n)
    while k > 2 and passes(k - 1):
        k -= 1
    while k <= 2 * n and not passes(k):
        k += 1
    if k > 2 * n:  # not even the largest midrank, n, passes
        out[:] = False
        return 0
    p = (k + 1) // 2 - 1
    np.copyto(buf, column)
    buf.partition(p)
    v = buf[p]
    below, through = np.count_nonzero(buf < v), np.count_nonzero(buf <= v)
    if passes(below + through + 1):
        np.greater_equal(column, v, out=out)
        return n - below
    np.greater(column, v, out=out)
    return n - through


def chi_empirical(batch, q: float = 0.95) -> ChiMatrix:
    """Estimate all pairwise chi coefficients by joint rank exceedances.

    With empirical margins ``rank/(n+1)``, the estimate for a pair is the
    joint exceedance frequency above level q divided by ``1 - q``.  Needs
    at least 1000 rows and at least 20 marginal exceedances per coordinate.
    Accepts a `SampleBatch` or a plain (n, d) array; nan or inf raises.
    """
    data = batch.data if isinstance(batch, SampleBatch) else np.asarray(batch, dtype=float)
    if data.ndim != 2:
        raise ValueError("need an (n, d) sample array")
    n, d = data.shape
    if n < 1000:
        raise ValueError(f"need n >= 1000 rows for stable rank exceedances, got {n}")
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    _require_finite(data, "sample")
    # no ranks are held: one reused column buffer for the selection, the
    # boolean exceedances, and one boolean buffer for the joint counts
    exceed = np.empty((n, d), dtype=bool, order="F")
    buf = np.empty(n)
    marginal = np.array([_exceedances(column, q, buf, exceed[:, i])
                         for i, column in enumerate(data.T)], dtype=np.int64)
    if np.min(marginal) < 20:
        bad = int(np.argmin(marginal))
        raise ValueError(
            f"column x{bad + 1} has only {int(marginal[bad])} exceedances above q={q}; "
            "need at least 20 per coordinate")
    counts = np.diag(marginal)
    both = np.empty(n, dtype=bool)
    for i, j in itertools.combinations(range(d), 2):
        np.logical_and(exceed[:, i], exceed[:, j], out=both)
        counts[i, j] = counts[j, i] = np.count_nonzero(both)
    chi = counts / ((1.0 - q) * n)
    np.fill_diagonal(chi, 1.0)
    chi = np.clip(chi, 0.0, 1.0)
    chi.flags.writeable = False
    counts.flags.writeable = False
    return ChiMatrix(q=float(q), n=n, chi=chi, counts=counts)


# ---- permutation test ------------------------------------------------------


@dataclass(frozen=True)
class TestResult:
    """Outcome of a rank permutation test of independence.

    ``degenerate`` marks the short-circuit where one input is constant,
    which is reported as trivially independent (p = 1, no rejection)
    rather than an error: a point mass is independent of anything.
    """

    reject: bool
    p_value: float
    statistic: float
    n_perm: int
    alpha: float
    degenerate: bool = False


def permutation_independence_test(
    u,
    v,
    n_perm: int = 499,
    alpha: float = 0.05,
    seed: int | None = None,
) -> TestResult:
    """Two-sided permutation test of independence via Spearman correlation.

    Ranks use midranks for ties.  The permutation p-value is
    ``(1 + #{|rho_perm| >= |rho|}) / (n_perm + 1)``, uniform under
    independence up to its granularity of ``1/(n_perm + 1)``; the
    permutation stream is fixed by ``seed``, so the result does not depend
    on scheduling or worker count.  nan or inf in either sample raises:
    a nan statistic would never count a hit and so reject independence.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    v = np.asarray(v, dtype=float).reshape(-1)
    if u.shape != v.shape:
        raise ValueError("need two equal-length samples with at least 3 points")
    _check_test(u.size, n_perm, alpha)
    _require_finite(u, "u")
    _require_finite(v, "v")
    return _rank_test(_midranks(u), _midranks(v), n_perm, alpha, seed)


def _check_test(n: int, n_perm: int, alpha: float) -> None:
    if n < 3:
        raise ValueError("need two equal-length samples with at least 3 points")
    if n_perm < 1:
        raise ValueError("need n_perm >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")


def _rank_test(ru: np.ndarray, rv: np.ndarray, n_perm: int, alpha: float,
               seed: int | None) -> TestResult:
    """`permutation_independence_test` on the midranks of its samples."""
    ru -= ru.mean()
    rv -= rv.mean()
    norm_u = float(np.linalg.norm(ru))
    norm_v = float(np.linalg.norm(rv))
    if norm_u == 0.0 or norm_v == 0.0:
        return TestResult(reject=False, p_value=1.0, statistic=0.0,
                          n_perm=n_perm, alpha=alpha, degenerate=True)
    ru /= norm_u
    rv /= norm_v
    statistic = float(ru @ rv)

    # Generator.permutation(n) shuffles a fresh arange(n); shuffling a copy
    # of rv in place draws the same stream and gives the same permuted vector
    # without the index array and the gather
    rng = np.random.default_rng(seed)
    buf = np.empty_like(rv)
    hits = 0
    for _ in range(n_perm):
        np.copyto(buf, rv)
        rng.shuffle(buf)
        if abs(float(ru @ buf)) >= abs(statistic):
            hits += 1
    p_value = (1.0 + hits) / (n_perm + 1.0)
    return TestResult(reject=p_value <= alpha, p_value=p_value, statistic=statistic,
                      n_perm=n_perm, alpha=alpha)


def factorization_test(
    batch: SampleBatch,
    part: Bipartition,
    n_perm: int = 499,
    alpha: float = 0.05,
    seed: int | None = None,
) -> TestResult:
    """Permutation test of block independence for a conditional batch.

    Reduces each sample to its two block maxima and tests those for
    independence.  Under a factorizing conditional law one block maximum
    is constant zero, triggering the degenerate (trivially independent)
    short circuit; a block-straddling atom couples the maxima through the
    shared radius and is what the test is powered against.
    """
    if batch.kind != "conditional":
        raise ValueError(f"factorization test needs a conditional batch, got {batch.kind!r}")
    if part.d != batch.d:
        raise ValueError(f"bipartition covers {part.d} coordinates, batch has {batch.d}")
    # the checks of `permutation_independence_test`, in its order; each block
    # maximum is ranked as soon as it is built, so neither lives through the
    # shuffle loop
    _check_test(len(batch.data), n_perm, alpha)
    ru = _block_ranks(batch.data, part.a_sorted, "u")
    rv = _block_ranks(batch.data, part.c_sorted, "v")
    return _rank_test(ru, rv, n_perm, alpha, seed)


def _block_ranks(data: np.ndarray, coords, name: str) -> np.ndarray:
    """Midranks of the row maxima of ``data`` over ``coords``; the maxima are
    dropped on return."""
    maximum = _block_maximum(data, coords)
    _require_finite(maximum, name)
    return _midranks(maximum)


def _block_maximum(data: np.ndarray, coords) -> np.ndarray:
    """Row maxima of ``data`` over the columns ``coords``, read as column
    views into one output column: the (n, |block|) gather is never made."""
    first, *rest = coords
    out = data[:, first].copy()
    for k in rest:
        np.maximum(out, data[:, k], out=out)
    return out
