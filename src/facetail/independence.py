"""Extremal independence of a coordinate bipartition.

For an atomic exponent measure and a split (A, C) of the coordinates,
four equivalent formulations of independence are implemented side by side:

* support: no atom's face straddles both blocks;
* additivity: the tail exponent splits as a sum of block exponents;
* mixed margins: marginals onto subsets meeting both blocks put no mass
  on the all-positive part of their domain;
* distribution function: the induced max-stable df factorizes over blocks.

A fifth check, factorization of every conditional tail law, lives in
`facetail.conditional` and is folded into `full_report`.  The checks are
computed independently and never reconciled: a disagreement is reported
as data, since for exact atomic input it can only mean an implementation
bug.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

import numpy as np

from .conditional import conditional_factorization
from .measure import (ExponentMeasure, _check_coordinate_subset, _check_positive_point,
                      _ratio_kernel)
from .partition import Bipartition, check_dimension

#: relative tolerance for all additivity and factorization comparisons
ADDITIVITY_TOL = 1e-9

_GRID_AXIS = (0.5, 1.0, 2.0, 5.0)
_GRID_CAP = 4096
_GRID_RANDOM = 64
_GRID_SEED = 0

def _grid_layout(d: int) -> tuple[int, int]:
    """``(first, k)`` for the tensor part of `default_grid(d)`: the lex
    product of ``_GRID_AXIS`` over coordinates ``first, ..., d - 1``, with
    ``k = d - first`` the most that fit in ``_GRID_CAP`` rows, and every
    coordinate before ``first`` fixed at ``_GRID_AXIS[0]``."""
    k = 0
    while k < d and len(_GRID_AXIS) ** (k + 1) <= _GRID_CAP:
        k += 1
    return d - k, k


def _grid_digits(k: int) -> np.ndarray:
    """The base-4 digits of rows ``0, ..., 4**k - 1``, most significant
    first: row r of the lex product of ``_GRID_AXIS`` over k coordinates is
    ``_GRID_AXIS[digits[r]]``."""
    base = len(_GRID_AXIS)
    return np.arange(base ** k)[:, None] // base ** np.arange(k - 1, -1, -1) % base


@lru_cache(maxsize=32)
def default_grid(d: int) -> np.ndarray:
    """Evaluation grid for numeric checks in dimension d.

    The tensor grid over ``{0.5, 1, 2, 5}`` per coordinate, truncated to
    4096 points, plus 64 reproducible uniform points in ``(0.1, 10)^d``.
    Truncation keeps the lex-first rows: the last ``k = min(d, 6)``
    coordinates run over the full product and the others stay at 0.5 (see
    `_grid_layout`), which lets `_split_sum` evaluate a block exponent
    once per distinct point of the block's projection.  Deterministic in d,
    returned read-only.
    """
    if d < 1:
        raise ValueError("grid needs d >= 1")
    first, k = _grid_layout(d)
    tensor = np.full((len(_GRID_AXIS) ** k, d), _GRID_AXIS[0])
    tensor[:, first:] = np.array(_GRID_AXIS)[_grid_digits(k)]
    rng = np.random.default_rng(_GRID_SEED)
    random_part = rng.uniform(0.1, 10.0, size=(_GRID_RANDOM, d))
    grid = np.vstack([tensor, random_part])
    grid.flags.writeable = False
    return grid


@lru_cache(maxsize=None)
def _projected_rows(k: int, pattern: int) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, spread)`` for a block of a `default_grid` whose tensor part
    varies ``k`` coordinates, of which the block holds those in the bit mask
    ``pattern`` (bit i: the i-th varying coordinate).

    ``rows`` are the distinct points of the block's projection: the tensor
    rows whose varying digits outside the block are 0, then the random rows,
    padded by repeating the last to a multiple of 8 rows (so BLAS sums each
    row as in the full-grid call, see `_row_blocks`).  ``spread`` maps the
    values at ``rows`` back onto every grid row.  Both are int16: at most 64
    patterns per k are cached, whatever the block."""
    base = len(_GRID_AXIS)
    digits = _grid_digits(k)
    inside = [(pattern >> i & 1) == 1 for i in range(k)]
    kept = np.flatnonzero(~digits[:, np.logical_not(inside)].any(axis=1))
    spread = digits[:, inside] @ base ** np.arange(sum(inside) - 1, -1, -1)
    rows = np.concatenate([kept, base ** k + np.arange(_GRID_RANDOM)])
    rows = np.concatenate([rows, np.full(-len(rows) % 8, rows[-1])])
    spread = np.concatenate([spread, len(kept) + np.arange(_GRID_RANDOM)])
    return rows.astype(np.int16), spread.astype(np.int16)


# ---- the individual criteria ----------------------------------------------


def check_support(measure: ExponentMeasure, part: Bipartition) -> tuple[bool, int | None]:
    """Does every atom's face lie within a single block?

    Returns ``(ok, witness)`` where the witness is the index of the first
    atom whose face meets both blocks, or None.
    """
    check_dimension(part, measure.d)
    masks = measure.face_masks
    straddling = np.flatnonzero(((masks & part.a_mask) != 0) & ((masks & part.c_mask) != 0))
    return (False, int(straddling[0])) if straddling.size else (True, None)


@dataclass(frozen=True)
class AdditivityCheck:
    """Result of the numeric tail-exponent additivity check.

    ``ok`` is the grid verdict at relative tolerance ``ADDITIVITY_TOL``,
    ``max_residual`` the largest residual and ``witness`` its grid point
    when the check fails.  The exact support criterion is a separate
    check; `full_report` compares the two.
    """

    ok: bool
    max_residual: float
    witness: np.ndarray | None = field(repr=False, default=None)


def check_additivity(measure: ExponentMeasure, part: Bipartition) -> AdditivityCheck:
    """Check ``exponent(x) == exponent_A(x_A) + exponent_C(x_C)`` on a grid.

    The residual is measured relative to ``1 + exponent(x)`` at each point
    of `default_grid`.
    """
    check_dimension(part, measure.d)
    lam = _full_exponents(measure)[0]
    ok, residual, witness = _worst(_additivity_residuals(lam, _split_sum(measure, part)),
                                   measure.d)
    return AdditivityCheck(ok=ok, max_residual=residual, witness=witness)


def check_df_factorization(measure: ExponentMeasure,
                           part: Bipartition) -> tuple[bool, np.ndarray | None]:
    """Check that the induced df factorizes: F(x) = F_A(x_A) * F_C(x_C).

    The points are those of `default_grid`, none with a zero coordinate: at
    such a point F is 0 on both sides when every coordinate is charged.
    Returns ``(ok, witness)``.
    """
    check_dimension(part, measure.d)
    df = _full_exponents(measure)[1]
    ok, _, witness = _worst(_df_differences(df, _split_sum(measure, part)), measure.d)
    return ok, witness


def _additivity_residuals(lam, lam_sum):
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(lam - lam_sum) / (1.0 + np.abs(lam))


def _df_differences(df, lam_sum):
    # df is exp(-lam), which `_full_exponents` keeps per measure
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(df - np.exp(-lam_sum)) / (1.0 + df)


def _worst(defects: np.ndarray, d: int) -> tuple[bool, float, np.ndarray | None]:
    """``(ok, largest defect, its point of `default_grid` unless ok)`` of the
    grid ``defects`` against ``ADDITIVITY_TOL``.  A NaN defect, where the
    exponent overflowed to +inf on both sides, decides nothing and is
    skipped; a grid of NaN defects only fails."""
    worst = int(np.argmax(np.where(np.isnan(defects), -np.inf, defects)))
    ok = bool(defects[worst] <= ADDITIVITY_TOL)
    return ok, float(defects[worst]), None if ok else default_grid(d)[worst].copy()


#: ``(exponent, exp(-exponent))`` on `default_grid`, read-only, per live
#: measure; an entry goes when its measure is freed
_FULL_EXPONENTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _full_exponents(measure: ExponentMeasure) -> tuple[np.ndarray, np.ndarray]:
    """``(exponent, exp(-exponent))`` of ``measure`` on `default_grid`.

    Computed by the first call on a measure and kept read-only in
    `_FULL_EXPONENTS` (33 KB each at 4160 grid rows) until the measure is
    freed: every later `full_report`, `check_additivity` and
    `check_df_factorization` on that measure reads it back.  Nothing else
    is kept between calls, so reports on one measure share no writable
    memory and may run concurrently; threads that meet a cold cache each
    compute the same bits, and the last one stores them.  A value beyond
    the float range is +inf, without a warning.
    """
    full = _FULL_EXPONENTS.get(measure)
    if full is None:
        with np.errstate(over="ignore", invalid="ignore"):
            lam = _exponent(measure, list(range(measure.d)), default_grid(measure.d))
            full = lam, np.exp(-lam)
        for array in full:
            array.flags.writeable = False
        _FULL_EXPONENTS[measure] = full
    return full


def _split_sum(measure: ExponentMeasure, part: Bipartition) -> np.ndarray:
    """``exponent_A + exponent_C`` at every point of `default_grid`.

    Each block exponent is a sum over the measure's own atoms (`_exponent`
    over the block's columns; an atom off the block adds 0), dropped after
    the sum (kept, all 2 * (2**(d-1) - 1) block vectors of a certification
    at d=10 would hold 34 MB).  It is evaluated once per distinct point of
    the block's projection and spread back over the grid: the grid's tensor
    part varies only its last k = min(d, 6) coordinates, so a block holding
    j of them sees 4**j distinct tensor points, plus the 64 random rows
    (`_projected_rows`).  The values are bit-identical to a full-grid
    evaluation.  A value beyond the float range is +inf, without a warning.
    """
    grid = default_grid(measure.d)
    first, k = _grid_layout(measure.d)
    exponents = []
    with np.errstate(over="ignore", invalid="ignore"):
        for block, mask in ((part.a_sorted, part.a_mask), (part.c_sorted, part.c_mask)):
            rows, spread = _projected_rows(k, mask >> first)
            # the projected rows are gathered F-ordered, as a column gather
            # of the C-ordered grid is, which fixes how BLAS sums each row
            points = grid.take(rows, axis=0).T.take(list(block), axis=0).T
            exponents.append(_exponent(measure, list(block), points).take(spread))
        return exponents[0] + exponents[1]


def _exponent(measure: ExponentMeasure, cols: list[int], points: np.ndarray) -> np.ndarray:
    """Exponent of the ``cols`` marginal at each row of ``points``: the
    kernel over the column-major gather ``omega[:, cols]``, which it reads a
    coordinate at a time, with the same bits as row-major directions."""
    return _ratio_kernel(measure.omega_matrix[:, cols], measure.mass_vector, points, np.maximum)


def check_mixed_margins(
    measure: ExponentMeasure,
    part: Bipartition,
) -> tuple[bool, frozenset[int] | None]:
    """Do marginals onto block-straddling subsets avoid the interior?

    A subset I meeting both blocks violates the criterion when some atom's
    face contains all of I, because the I-marginal then charges the
    all-positive region of its domain.  Any violating I contains a
    violating pair (one coordinate from each block, both in that face), so
    only pairs are walked, in lex order.  Returns ``(ok, witness)`` with
    the witness the first violating pair, which is also the smallest
    violating subset in (size, lex) order.  The test is on face masks, not
    on interior masses, so a product of tiny masses cannot underflow into
    a false "independent".
    """
    check_dimension(part, measure.d)
    masks = measure.face_masks.tolist()
    for i, j in itertools.combinations(range(measure.d), 2):
        imask = (1 << i) | (1 << j)
        if imask & part.a_mask and imask & part.c_mask \
                and any(fmask & imask == imask for fmask in masks):
            return False, frozenset((i, j))
    return True, None


# ---- proof-device region masses -------------------------------------------


def joint_exceedance_mass(measure: ExponentMeasure, part: Bipartition, x) -> float:
    """Mass of the region where both blocks are exceeded simultaneously.

    The region collects points with ``z_a > x_a`` for some a in A and
    ``z_c > x_c`` for some c in C.  On a ray it is a radial tail, giving
    ``sum_j mass_j * min(max_A omega_ja/x_a, max_C omega_jc/x_c)``.  The
    value is also the additivity defect ``exponent_A + exponent_C -
    exponent``, which makes it the exact certificate behind the numeric
    additivity check.
    """
    check_dimension(part, measure.d)
    ratios = measure.omega_matrix / _check_positive_point(measure, x)
    max_a = ratios[:, list(part.a_sorted)].max(axis=1)
    max_c = ratios[:, list(part.c_sorted)].max(axis=1)
    return float(np.minimum(max_a, max_c) @ measure.mass_vector)


def face_interior_mass(measure: ExponentMeasure, coords: Iterable[int],
                       threshold: float = 1.0) -> float:
    """Marginal mass above ``threshold`` in every coordinate of a subset.

    This is the upper-rectangle mass of the ``coords`` marginal at
    ``threshold * 1``: ``sum_j mass_j * min_{i in coords}(omega_ji /
    threshold)``.  An atom whose face misses a coordinate of ``coords`` has
    minimum exactly 0, so only atoms whose face contains the whole subset
    contribute.  Nondecreasing as the threshold drops; its divergence (or
    vanishing) as threshold -> 0 is what the mixed-margins criterion
    detects, so this is the finite, testable version of that quantity.
    """
    idx = _check_coordinate_subset(measure, coords)
    if not threshold > 0.0:
        raise ValueError("threshold must be positive")
    point = np.full((1, len(idx)), float(threshold))
    return float(_ratio_kernel(measure.omega_matrix[:, idx], measure.mass_vector, point,
                               np.minimum)[0])


# ---- combined report -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class IndependenceReport:
    """All five independence verdicts for one (measure, bipartition) pair.

    ``agree`` is True when the five booleans coincide; ``witnesses`` holds
    one entry per failing check.  Atom indices are 0-based; `to_dict`
    renders coordinates 1-based for the serialized form.
    """

    cond_i: bool
    cond_ii: bool
    cond_iii: bool
    df: bool
    new_notion: bool
    agree: bool
    witnesses: dict

    @property
    def independent(self) -> bool:
        """The headline verdict (meaningful when ``agree`` is True)."""
        return self.cond_i

    def to_dict(self) -> dict:
        witnesses = {}
        for key, value in self.witnesses.items():
            value = dict(value)
            if "subset" in value:
                value["subset"] = [i + 1 for i in value["subset"]]
            if "k" in value:
                value["k"] = value["k"] + 1
            witnesses[key] = value
        return {
            "cond_i": self.cond_i,
            "cond_ii": self.cond_ii,
            "cond_iii": self.cond_iii,
            "df": self.df,
            "new_notion": self.new_notion,
            "agree": self.agree,
            "witnesses": witnesses,
        }


def full_report(measure: ExponentMeasure, part: Bipartition) -> IndependenceReport:
    """Run every independence check and collect the verdicts.

    The two numeric criteria share one evaluation of the block exponents on
    `default_grid`; the full exponent is computed once per measure and
    reused by every later report on it (`_full_exponents`).  Never raises on
    disagreement; the ``agree`` flag and the witnesses carry the evidence
    either way.
    """
    check_dimension(part, measure.d)
    witnesses: dict = {}

    support_ok, support_witness = check_support(measure, part)
    if not support_ok:
        witnesses["cond_i"] = {"atom": support_witness}

    lam, df = _full_exponents(measure)
    lam_sum = _split_sum(measure, part)
    cond_ii, residual, point = _worst(_additivity_residuals(lam, lam_sum), measure.d)
    if not cond_ii:
        witnesses["cond_ii"] = {"residual": residual, "point": point.tolist()}

    mixed_ok, mixed_witness = check_mixed_margins(measure, part)
    if not mixed_ok:
        witnesses["cond_iii"] = {"subset": sorted(mixed_witness)}

    df_ok, difference, point = _worst(_df_differences(df, lam_sum), measure.d)
    if not df_ok:
        witnesses["df"] = {"difference": difference, "point": point.tolist()}

    factorization = conditional_factorization(measure, part)
    if not factorization.holds:
        k = int(np.argmin(factorization.ok))
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


# ---- randomized agreement battery -----------------------------------------


@dataclass(frozen=True, eq=False)
class BatteryResult:
    """Aggregate outcome of `agreement_battery`.

    ``disagreements`` lists every (trial, blocks, flags) where the five
    verdicts failed to coincide; ``block_failures`` lists block-structured
    trials whose generating bipartition was not certified independent;
    ``notion_mismatches`` counts instances where the support criterion and
    the conditional-law factorization differed (a subset of
    disagreements, tracked separately because the two notions' equivalence
    is the headline claim).
    """

    d: int
    trials: int
    instances: int
    disagreements: tuple
    block_failures: tuple
    notion_mismatches: int

    @property
    def ok(self) -> bool:
        return not self.disagreements and not self.block_failures

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "trials": self.trials,
            "instances": self.instances,
            "disagreements": [
                {"trial": t, "A": sorted(i + 1 for i in a), "C": sorted(i + 1 for i in c),
                 "flags": flags}
                for (t, a, c, flags) in self.disagreements
            ],
            "block_failures": [
                {"trial": t, "A": sorted(i + 1 for i in a), "C": sorted(i + 1 for i in c)}
                for (t, a, c) in self.block_failures
            ],
            "notion_mismatches": self.notion_mismatches,
            "ok": self.ok,
        }


def agreement_battery(d: int, n_atoms: int, trials: int, seed: int) -> BatteryResult:
    """Random-measure battery for the equivalence of all five checks.

    Per trial a random standardized measure is drawn with between d and
    ``n_atoms`` atoms; every even-numbered trial is block structured along
    a random bipartition.  All bipartitions are tested for d <= 4,
    otherwise 10 random ones (plus, for block trials, the generating
    split).  Each trial's reports share one full exponent on the grid,
    computed once per measure.  Deterministic in ``seed``.
    """
    from .measure import random_measure
    from .partition import all_bipartitions, random_bipartition

    if d < 2:
        raise ValueError("battery needs d >= 2")
    if trials < 1:
        raise ValueError("battery needs at least one trial")
    n_atoms = max(n_atoms, d)
    children = np.random.SeedSequence(seed).spawn(trials)

    disagreements = []
    block_failures = []
    notion_mismatches = 0
    instances = 0
    for t in range(trials):
        rng = np.random.default_rng(children[t])
        block = t % 2 == 0
        atoms_t = int(rng.integers(d, n_atoms + 1))
        generating = random_bipartition(d, rng) if block else None
        measure = random_measure(d, atoms_t, split=None if generating is None
                                 else (generating.a_sorted, generating.c_sorted), seed=rng)

        if d <= 4:
            parts = list(all_bipartitions(d))
        else:
            parts = [random_bipartition(d, rng) for _ in range(10)]
        if generating is not None and generating not in parts:
            parts.insert(0, generating)

        for part in parts:
            rep = full_report(measure, part)
            instances += 1
            flags = {"cond_i": rep.cond_i, "cond_ii": rep.cond_ii,
                     "cond_iii": rep.cond_iii, "df": rep.df,
                     "new_notion": rep.new_notion}
            if not rep.agree:
                disagreements.append((t, part.a, part.c, flags))
            if rep.cond_i != rep.new_notion:
                notion_mismatches += 1
            if generating is not None and part == generating and not all(flags.values()):
                block_failures.append((t, part.a, part.c))

    return BatteryResult(
        d=d,
        trials=trials,
        instances=instances,
        disagreements=tuple(disagreements),
        block_failures=tuple(block_failures),
        notion_mismatches=notion_mismatches,
    )
