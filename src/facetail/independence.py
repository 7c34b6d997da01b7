"""Extremal independence of a coordinate bipartition.

For an atomic exponent measure and a split (A, C) of the coordinates,
four equivalent formulations of independence are implemented side by side:

* support: no atom's face straddles both blocks;
* additivity: the tail exponent splits as a sum of block exponents, decided
  by the sign of the exactly summed defect at the point 1;
* mixed margins: marginals onto subsets meeting both blocks put no mass
  on the all-positive part of their domain;
* distribution function: the induced max-stable df factorizes over blocks,
  compared in floating point at one point ``t * 1``.

A fifth check, factorization of every conditional tail law, lives in
`facetail.conditional` and is folded into `full_report`.  The checks are
computed independently and never reconciled: a disagreement between
decided criteria is reported as data, since for exact atomic input it can
only mean an implementation bug.  A numeric criterion that rounding cannot
decide is None ("below resolution"), never "independent".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .conditional import _factor_hits
from .measure import (ExponentMeasure, _charges, _check_coordinate_subset,
                      _check_positive_point, _ratio_kernel, random_measure)
from .partition import (Bipartition, _code_membership, _decode, _first, _membership,
                        _random_code, _straddling, check_dimension)

_GRID_AXIS = (0.5, 1.0, 2.0, 5.0)
_GRID_CAP = 4096
_GRID_RANDOM = 64
_GRID_SEED = 0

#: the unit roundoff of binary64
_U = 2.0 ** -53
#: Veltkamp's splitting constant for binary64, 2**27 + 1
_SPLITTER = 134217729.0

#: parts x atoms x coordinates in one chunk of `_reports`: each temporary
#: stays near 64 KB, and a chunk's parts and results stay far below 1 MB
_CHUNK_CELLS = 1 << 13

#: the five criteria in report order
_CRITERIA = ("cond_i", "cond_ii", "cond_iii", "df", "new_notion")


@lru_cache(maxsize=32)
def default_grid(d: int) -> np.ndarray:
    """A fixed evaluation grid in dimension d, for `exponent_function_grid`.

    The tensor grid over ``{0.5, 1, 2, 5}`` per coordinate, truncated to its
    lex-first 4096 points (the last ``min(d, 6)`` coordinates run over the
    full product and the others stay at 0.5), plus 64 reproducible uniform
    points in ``(0.1, 10)^d``.  No independence check reads it.
    Deterministic in d, returned read-only.
    """
    if d < 1:
        raise ValueError("grid needs d >= 1")
    base = len(_GRID_AXIS)
    k = min(d, round(math.log(_GRID_CAP, base)))
    digits = np.arange(base ** k)[:, None] // base ** np.arange(k - 1, -1, -1) % base
    tensor = np.full((base ** k, d), _GRID_AXIS[0])
    tensor[:, d - k:] = np.array(_GRID_AXIS)[digits]
    rng = np.random.default_rng(_GRID_SEED)
    random_part = rng.uniform(0.1, 10.0, size=(_GRID_RANDOM, d))
    grid = np.vstack([tensor, random_part])
    grid.flags.writeable = False
    return grid


# ---- the individual criteria ----------------------------------------------
#
# Each criterion is one array computation over a batch of P bipartitions of
# one measure, given as the (P, d) `_membership` booleans; a check_* function
# is its one-part case, and `_reports` runs all five over many parts at once.


def check_support(measure: ExponentMeasure, part: Bipartition) -> tuple[bool, int | None]:
    """Does every atom's face lie within a single block?

    Returns ``(ok, witness)`` where the witness is the index of the first
    atom whose face meets both blocks, or None.
    """
    in_a = _membership([part], measure.d)
    return _support(_straddling(_charges(measure), in_a))[0]


def _support(straddle: np.ndarray) -> list[tuple[bool, int | None]]:
    return [(True, None) if atom < 0 else (False, atom) for atom in _first(straddle).tolist()]


class _Terms(NamedTuple):
    """The exponents' terms at the point 1 as exact scaled factors: for a
    block X of coordinates, ``mass_j * max_X omega_j == mass[j] * max_X
    scaled[:, j] * 2**(shift[j] + top)``, and ``row_max[j] == max scaled[:, j]``.

    Each direction is scaled by the power of two that puts its largest
    entry in [0.5, 1), which is the same measure with the mass scaled back,
    and no entry underflows (the zero-snap keeps entries above 1e-12 of
    their row's largest).  ``mass`` is the mantissa of the mass, ``top``
    the largest binary exponent of a product, so ``shift <= 0``.
    """

    mass: np.ndarray  # (J,)
    halves: tuple  # Veltkamp's halves of mass
    weights: np.ndarray  # (J,) mass * 2**shift
    scaled: np.ndarray  # (d, J), one contiguous row per coordinate
    row_max: np.ndarray  # (J,)
    shift: np.ndarray  # (J,)
    top: int


def _point_terms(measure: ExponentMeasure) -> _Terms:
    """The measure's `_Terms`, built once per measure; `_block_max` then takes
    the maxima per part."""
    omega = measure.omega_matrix.T.copy()  # reduced over contiguous rows of J atoms
    row_max, a = np.frexp(omega.max(axis=0, initial=0.0))
    scaled = np.ldexp(omega, -a, out=omega)
    mass, e = np.frexp(measure.mass_vector)
    if not (np.isfinite(row_max) & np.isfinite(mass)).all():
        raise ValueError("the numeric criteria need finite directions and masses")
    e += a
    live = e[(mass != 0.0) & (row_max != 0.0)]
    top = int(live.max()) if live.size else 0
    shift = e - top
    return _Terms(mass, _split(mass), np.ldexp(mass, shift), scaled, row_max, shift, top)


def _block_max(terms: _Terms, in_a: np.ndarray) -> np.ndarray:
    """(P, 3, J) maxima of ``terms.scaled`` over block a, block c and all
    coordinates (rows 0, 1, 2), per part.  Reduced over the coordinate
    axis, so each step is a contiguous run of J atoms."""
    out = np.empty((len(in_a), 3, terms.scaled.shape[1]))
    for x, block in enumerate((in_a, ~in_a)):
        np.maximum.reduce(np.where(block[:, :, None], terms.scaled, -np.inf), axis=1,
                          out=out[:, x])
    out[:, 2] = terms.row_max
    return out


@dataclass(frozen=True)
class AdditivityCheck:
    """Result of the additivity check at the point 1.

    ``ok`` is True when the defect ``exponent_A(1) + exponent_C(1) -
    exponent(1)`` is exactly 0 and False when it is not.  It is None,
    "below resolution", when the sum is 0 but a product lost bits to
    underflow after scaling (mass * omega ratios beyond about 2**925 within
    one measure), so a straddling atom may have vanished.  ``residual`` is
    the defect over ``exponent(1)``, from exact sums each rounded once.
    """

    ok: bool | None
    residual: float


def check_additivity(measure: ExponentMeasure, part: Bipartition) -> AdditivityCheck:
    """Check ``exponent(x) == exponent_A(x_A) + exponent_C(x_C)`` at x = 1.

    The defect at 1 is ``sum_j mass_j * min(max_A omega_j, max_C omega_j)``,
    positive exactly when an atom straddles the split, so one point decides.
    The three exponents are summed separately, never through that minimum:
    each ``mass_j * max omega_j`` is an exact high and low double (Dekker's
    product on Veltkamp halves) scaled by a power of two, and one `math.fsum`
    of the six parts of every atom that can add to the defect rounds the
    exact sum once (Shewchuk 1997): its sign is exact.
    """
    in_a = _membership([part], measure.d)
    terms = _point_terms(measure)
    return _additivity(terms, _block_max(terms, in_a))[0][0]


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Veltkamp: a == high + low, each with at most 26 significant bits
    scaled = _SPLITTER * a
    high = scaled - (scaled - a)
    return high, a - high


def _additivity(terms: _Terms, b: np.ndarray,
                full: tuple | None = None) -> tuple[list[AdditivityCheck], tuple]:
    """One `AdditivityCheck` per part, for the (P, 3, J) block maxima ``b``
    that `_block_max` takes from the parts' (P, d) membership rows.

    The high and low terms of the atoms that can add to a defect are
    gathered once for all P parts, into one contiguous run of floats per
    part, and each run is summed by one `math.fsum`.  The exactness of the
    power-of-two shifts is checked only once some sum is 0, where it
    decides the verdict.

    ``full`` carries the full exponent's terms between the chunks of one
    measure, as they are the same in every part: its (2, J) negated parts
    and ``exponent(1)`` over ``2**top`` (exactly summed, rounded once), or
    None until a residual needs it.  A measure's first chunk takes None and
    computes the parts from row 2 of ``b`` with the blocks' rows; pass back
    what it returns, and the next chunks compute rows 0 and 1 only.  Their
    shift needs no check of its own there: an atom's maximum over all
    coordinates is its maximum over A or over C, so its full-exponent parts
    are its A or its C parts, bit for bit."""
    b_rows = b if full is None else b[:, :2]
    # Dekker's product: high + low == a * b exactly, for factors in [0.5, 1)
    # or 0, so nothing underflows before the power-of-two shift; a is the mass
    shift = terms.shift
    high = terms.mass * b_rows
    (a1, a2), (b1, b2) = terms.halves, _split(b_rows)
    unscaled = np.concatenate([high, ((a1 * b1 - high) + a1 * b2 + a2 * b1) + a2 * b2], axis=1)
    if full is None:
        # rows per part: the high parts of the A, C and full exponents, then
        # the low parts; the defect subtracts the full exponent's
        unscaled[:, 2::3] *= -1.0
    parts = scaled = np.ldexp(unscaled, shift)
    if full is None:
        full = (parts[0, 2::3].copy(), None)
    else:
        # rows per part: the A and C exponents' high and low parts, then the
        # full exponent's
        parts = np.concatenate([parts, np.broadcast_to(full[0], (len(b), *full[0].shape))],
                               axis=1)
    full_parts, value = full
    # an atom with min(max_A, max_C) == 0 adds nothing to the defect: one
    # block's maximum is 0 and the other's is its overall maximum, so its six
    # parts cancel exactly even when rounded, and the sum leaves it out
    kept = np.minimum(b[:, 0], b[:, 1]) != 0.0
    # the kept atoms' six parts, gathered once: one contiguous run per part
    gathered = parts.transpose(0, 2, 1)[kept]
    ends = kept.sum(axis=1).cumsum().tolist()
    checks, exact = [], None
    for p, (start, end) in enumerate(zip([0] + ends, ends)):
        # floats straight from the buffer; fsum's one rounding of the exact
        # sum does not depend on the order of its terms
        total = math.fsum(memoryview(gathered[start:end].ravel()))
        if total == 0.0:
            # only a straddling atom that underflowed to 0 can hide; a shift
            # into the subnormal range may round a part, and undoing it shows that
            if exact is None:
                exact = (np.ldexp(scaled, -shift) == unscaled).all(axis=(1, 2)).tolist()
            checks.append(AdditivityCheck(ok=True if exact[p] else None, residual=0.0))
            continue
        if value is None:
            value = -math.fsum(memoryview(full_parts.ravel()))
        checks.append(AdditivityCheck(ok=False, residual=total / value))
    return checks, (full_parts, value)


def check_df_factorization(measure: ExponentMeasure,
                           part: Bipartition) -> tuple[bool | None, dict]:
    """Compare the induced df F with ``F_A * F_C`` at one point ``t * 1``.

    Returns ``(ok, witness)``: ``ok`` is False when they differ by more than
    the comparison's rounding bound and None ("below resolution")
    otherwise, since floating point can show the factorization fail, never
    hold.  The witness holds the ``difference`` ``F - F_A * F_C``, its
    ``bound`` and the ``point`` ``t * 1``, with t a power of two near
    ``exponent(1)``, so ``exponent(t * 1)`` is in [0.5, 1) and nothing
    underflows.
    """
    in_a = _membership([part], measure.d)
    terms = _point_terms(measure)
    return _df(terms, _block_max(terms, in_a), measure.d)[0]


def _df(terms: _Terms, block_max: np.ndarray, d: int) -> list[tuple[bool | None, dict]]:
    # exponent_A(1), exponent_C(1) and exponent(1) over 2**top: sums of n = J
    # nonnegative products, each within gamma_n (Higham, eq. 3.5); a mass
    # rounded by its shift adds far less.  One matrix-vector product per part.
    sums = block_max @ terms.weights
    top, n = terms.top, len(terms.weights)
    # homogeneity: exponent(t * 1) == exponent(1) / t exactly, t = 2**(top + sigma)
    sigmas = np.frexp(sums[:, 2])[1]
    lams = np.ldexp(sums, -sigmas[:, None]).tolist()
    # each exponent within gamma_n, each exp within one ulp (2u), the product
    # and difference rounded once; the factor 2 covers second-order terms
    gamma = n * _U / (1.0 - n * _U)
    out = []
    for (lam_a, lam_c, lam), sigma in zip(lams, sigmas.tolist()):
        joint, product = math.exp(-lam), math.exp(-lam_a) * math.exp(-lam_c)
        difference = joint - product
        bound = (joint + product) * (2.0 * gamma * (lam + lam_a + lam_c) + 6.0 * _U) \
            + _U * abs(difference)
        t = math.inf if top + sigma > 1023 else math.ldexp(1.0, top + sigma)
        witness = {"difference": difference, "bound": bound, "point": [t] * d}
        out.append(((False if abs(difference) > bound else None), witness))
    return out


def check_mixed_margins(
    measure: ExponentMeasure,
    part: Bipartition,
) -> tuple[bool, frozenset[int] | None]:
    """Do marginals onto block-straddling subsets avoid the interior?

    A subset I meeting both blocks violates the criterion when some atom's
    face contains all of I, because the I-marginal then charges the
    all-positive region of its domain.  Any violating I contains a
    violating pair (one coordinate from each block, both in that face), so
    only pairs are tested, in lex order.  Returns ``(ok, witness)`` with
    the witness the first violating pair, which is also the smallest
    violating subset in (size, lex) order.  The test is on face masks, not
    on interior masses, so a product of tiny masses cannot underflow into
    a false "independent".
    """
    in_a = _membership([part], measure.d)
    return _mixed_margins(_pair_cover(_charges(measure)), in_a)[0]


def _pair_cover(charges: np.ndarray) -> np.ndarray:
    """(d, d) booleans: some atom charges both i and j, from the (d, J) 0/1
    floats ``charges`` (see `measure._charges`)."""
    return charges @ charges.T > 0.0


def _mixed_margins(cover: np.ndarray, in_a: np.ndarray) -> list[tuple[bool, frozenset | None]]:
    d = in_a.shape[1]
    # pairs (i, j) across the blocks that a face holds, flat in lex order: the
    # relation is symmetric, so the first pair found has i < j
    violating = ((in_a[:, :, None] != in_a[:, None, :]) & cover).reshape(len(in_a), d * d)
    return [(False, frozenset(divmod(flat, d))) if any_ else (True, None)
            for any_, flat in zip(violating.any(axis=1).tolist(),
                                  violating.argmax(axis=1).tolist())]


# ---- proof-device region masses -------------------------------------------


def joint_exceedance_mass(measure: ExponentMeasure, part: Bipartition, x) -> float:
    """Mass of the region where both blocks are exceeded simultaneously.

    The region collects points with ``z_a > x_a`` for some a in A and
    ``z_c > x_c`` for some c in C.  On a ray it is a radial tail, giving
    ``sum_j mass_j * min(max_A omega_ja/x_a, max_C omega_jc/x_c)``.  The
    value is also the additivity defect ``exponent_A + exponent_C -
    exponent``, whose sign at x = 1 `check_additivity` sums exactly.
    """
    check_dimension(part, measure.d)
    with np.errstate(over="ignore"):  # a ratio past the largest float is +inf
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
    return _ratio_kernel(measure.omega_matrix[:, idx], measure.mass_vector,
                         np.full(len(idx), float(threshold)), np.minimum)


# ---- combined report -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class IndependenceReport:
    """All five independence verdicts for one (measure, bipartition) pair.

    A numeric verdict (``cond_ii``, ``df``) is None when rounding cannot
    decide it; ``undecided`` names those.  ``agree`` is True when the
    decided verdicts coincide; ``witnesses`` holds one entry per failing
    check.  Atom indices are 0-based; `to_dict` renders coordinates 1-based
    for the serialized form.
    """

    cond_i: bool
    cond_ii: bool | None
    cond_iii: bool
    df: bool | None
    new_notion: bool
    agree: bool
    witnesses: dict

    @property
    def independent(self) -> bool:
        """The headline verdict (meaningful when ``agree`` is True)."""
        return self.cond_i

    @property
    def flags(self) -> dict:
        """The five verdicts by name, in report order."""
        return {name: getattr(self, name) for name in _CRITERIA}

    @property
    def undecided(self) -> list[str]:
        """The criteria that rounding left undecided, in report order."""
        return [name for name, flag in self.flags.items() if flag is None]

    def to_dict(self) -> dict:
        witnesses = {}
        for key, value in self.witnesses.items():
            value = dict(value)
            if "subset" in value:
                value["subset"] = [i + 1 for i in value["subset"]]
            if "k" in value:
                value["k"] = value["k"] + 1
            witnesses[key] = value
        return {**self.flags, "agree": self.agree, "undecided": self.undecided,
                "witnesses": witnesses}


def full_report(measure: ExponentMeasure, part: Bipartition) -> IndependenceReport:
    """Run every independence check and collect the verdicts.

    The one-part case of `_reports`, the one report path: certification
    and the battery run all bipartitions of a measure through it at once.
    The two numeric criteria read one set of scaled per-atom block maxima
    at the point 1 (`_point_terms`, `_block_max`), and then decide
    separately: additivity from an exact sum, the df from a floating-point
    comparison at ``t * 1``.  Nothing is kept between calls.  Never raises
    on disagreement; the ``agree`` flag and the witnesses carry the
    evidence either way.
    """
    [report] = _reports(measure, _membership([part], measure.d))
    return report


def _reports(measure: ExponentMeasure, in_a: np.ndarray) -> Iterator[IndependenceReport]:
    """`full_report` for each part, in order, computed chunk by chunk.

    The parts are one (P, d) membership array, True on block ``a`` of each
    (see `partition._membership`), already checked against ``measure.d``.
    The per-measure terms (scaled directions, the coordinates each atom
    charges, the pair cover) are built once; each criterion then runs as its own array
    computation over a chunk of parts, and the verdicts meet only in the
    report.  A chunk holds about ``_CHUNK_CELLS`` parts x atoms x coordinates,
    so temporaries stay bounded however many parts there are.
    """
    d = measure.d
    terms = _point_terms(measure)
    charges = _charges(measure)
    cover = _pair_cover(charges)
    full = None
    # parts per chunk: the largest temporaries hold (P, d, J) and (P, 6, J) cells
    rows = max(1, _CHUNK_CELLS // (max(d, 6) * max(measure.n_atoms, d)))
    for lo in range(0, len(in_a), rows):
        chunk = in_a[lo:lo + rows]
        straddle = _straddling(charges, chunk)
        block_max = _block_max(terms, chunk)
        checks, full = _additivity(terms, block_max, full)
        # the law at k factorizes unless an atom charging k straddles; the
        # first such (k, atom) in row-major order is `_factorization`'s first
        # failing k and its atom there, or -1 where the part holds
        factor_first = _first(_factor_hits(charges, straddle).reshape(len(chunk), -1))
        criteria = zip(_support(straddle), checks,
                       _mixed_margins(cover, chunk), _df(terms, block_max, d),
                       factor_first.tolist())
        for (support_ok, support_atom), additivity, (mixed_ok, mixed_pair), \
                (df_ok, df_witness), first in criteria:
            holds = first < 0
            witnesses: dict = {}
            if not support_ok:
                witnesses["cond_i"] = {"atom": support_atom}
            if additivity.ok is False:
                witnesses["cond_ii"] = {"residual": additivity.residual, "point": [1.0] * d}
            if not mixed_ok:
                witnesses["cond_iii"] = {"subset": sorted(mixed_pair)}
            if df_ok is False:
                witnesses["df"] = df_witness
            if not holds:
                k, atom = divmod(first, measure.n_atoms)
                witnesses["new_notion"] = {"k": k, "atom": atom}
            flags = (support_ok, additivity.ok, mixed_ok, df_ok, holds)
            yield IndependenceReport(
                cond_i=support_ok,
                cond_ii=additivity.ok,
                cond_iii=mixed_ok,
                df=df_ok,
                new_notion=holds,
                agree=len(set(flags) - {None}) == 1,
                witnesses=witnesses,
            )


# ---- randomized agreement battery -----------------------------------------


@dataclass(frozen=True, eq=False)
class BatteryResult:
    """Aggregate outcome of `agreement_battery`.

    ``disagreements`` lists every (trial, blocks, flags) where the decided
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
    split), all of a measure's parts at once through the one report path
    of `full_report`.  A block failure is a generating split that some
    decided criterion calls dependent.  Deterministic in ``seed``.
    """
    if d < 2:
        raise ValueError("battery needs d >= 2")
    if trials < 1:
        raise ValueError("battery needs at least one trial")
    n_atoms = max(n_atoms, d)
    children = np.random.SeedSequence(seed).spawn(trials)
    # parts are `_decode` codes, drawn as `random_bipartition` draws them; a
    # `Bipartition` is built only for a record
    every = list(range(2 ** (d - 1) - 1)) if d <= 4 else None

    disagreements = []
    block_failures = []
    notion_mismatches = 0
    instances = 0
    for t in range(trials):
        rng = np.random.default_rng(children[t])
        block = t % 2 == 0
        atoms_t = int(rng.integers(d, n_atoms + 1))
        generating = _random_code(d, rng) if block else None
        split = None
        if block:
            [in_generating] = _code_membership(d, [generating])
            split = (np.flatnonzero(in_generating), np.flatnonzero(~in_generating))
        measure = random_measure(d, atoms_t, split=split, seed=rng)

        if every is not None:
            codes = list(every)
        else:
            codes = [_random_code(d, rng) for _ in range(10)]
        if generating is not None and generating not in codes:
            codes.insert(0, generating)

        for code, rep in zip(codes, _reports(measure, _code_membership(d, codes))):
            instances += 1
            if not rep.agree:
                part = _decode(d, code)
                disagreements.append((t, part.a, part.c, rep.flags))
            if rep.cond_i != rep.new_notion:
                notion_mismatches += 1
            # only a decided criterion can fail to certify the generating split
            if code == generating and False in rep.flags.values():
                part = _decode(d, code)
                block_failures.append((t, part.a, part.c))

    return BatteryResult(
        d=d,
        trials=trials,
        instances=instances,
        disagreements=tuple(disagreements),
        block_failures=tuple(block_failures),
        notion_mismatches=notion_mismatches,
    )
