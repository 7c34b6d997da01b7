"""Atomic exponent measures on the punctured orthant.

The central object is a finite collection of spectral atoms, held as a
(J, d) array of directions and a (J,) array of masses: rays
``r * omega`` with ``r > 0``, each carrying mass ``h`` spread along the ray
with radial density ``r**-2``.  Summed over atoms this defines a measure on
``[0, inf)^d \\ {0}`` that is homogeneous of order -1 and induces a
multivariate max-stable distribution ``P(X <= x) = exp(-tail_mass(x))``.

Coordinates are 0-based throughout the Python API.  Serialization helpers
(`measure_to_dict`, `load_measure`) speak the JSON schema
``{"d": int, "atoms": [{"omega": [...], "mass": ...}]}``.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable

import numpy as np

#: an entry of omega whose absolute value is at or below this times the
#: largest absolute entry of its direction is snapped to 0.0 at construction,
#: so face membership is an exact and scale-free zero test afterwards.
ZERO_TOL = 1e-12

#: atoms on one face are one ray when every sup-normalized entry is within this
#: many ulps of the other's: normalized, fl(c1 * omega) and fl(c2 * omega) are six
#: roundings apart (c * x_i, c * x_max and a quotient each), each of relative size
#: 2^-53 at most (Higham 2002, sec. 2.2), so at most 6 ulps, barring under/overflow
RAY_ULPS = 6

#: how far a marginal mass may lie from 1 in `is_standardized`: a fixed
#: constant, not yet derived from the rounding bound of the margin sums
MARGIN_TOL = 1e-9


class MeasureFormatError(ValueError):
    """Raised when serialized measure data does not match the schema."""


class InvalidMeasureError(ValueError):
    """Raised when a structurally parseable measure fails validation."""

    def __init__(self, violations: "list[Violation]"):
        self.violations = list(violations)
        summary = "; ".join(str(v) for v in self.violations)
        super().__init__(f"invalid measure: {summary}")


class ExponentMeasure:
    """Finite atomic exponent measure in dimension ``d``.

    Parameters
    ----------
    d : int
        Dimension.
    omega : array_like
        (J, d) directions, one row per atom: the atom's mass is spread along
        the ray ``r * omega``, ``r > 0``.  A row of another length raises
        `MeasureFormatError` naming it; an empty ``omega`` is J = 0.
    mass : array_like
        (J,) masses, one per row of ``omega``.

    Held as read-only arrays: ``omega_matrix`` (J, d), ``mass_vector`` (J,)
    and ``face_masks`` (J,), bit i set iff coordinate i is positive.
    Construction zero-snaps each direction relative to its largest entry
    (see ``ZERO_TOL``) and merges each atom into the first kept atom of
    its face whose sup-normalized entries are each within ``RAY_ULPS``
    ulps of its own (never across a sign, so an atom with a negative entry
    never merges into a valid one), adding its intensity ``mass * omega``
    to that atom's mass; kept atoms keep first-occurrence order.  When no
    two atoms of one face have sums of sup-normalized entries within the
    rounding slack of ``RAY_ULPS``, nothing can merge and the measure is
    kept as given without a walk, as when its faces are all distinct.
    Otherwise each coordinate's entries are cut into cells at the gaps wider
    than ``RAY_ULPS``, and one stable sort puts the atoms that share every
    cell in runs; only runs of two or more are walked.  Each walked atom
    makes one bisection among the kept atoms of its run, so the merge does
    O(J*d) Python work on the walked atoms unless many kept atoms of one run
    lie within ``RAY_ULPS`` of each other in the column with the most
    distinct entries.

    Directions are stored as given (no normalization): every operation in
    this package depends only on the products ``mass * omega`` and the snap
    is scale-free, so ``(c * omega, mass / c)`` is the same measure, faces
    too.  The class uses identity semantics; compare measures with
    `measures_allclose`.
    """

    def __init__(self, d: int, omega, mass):
        d = int(d)
        try:
            omega = np.array(omega, dtype=float)
        except ValueError:  # ragged rows
            _raise_bad_row(d, omega)
            raise
        if omega.ndim == 1 and omega.size == 0:
            omega = omega.reshape(0, d)
        if omega.ndim != 2 or omega.shape[1] != d:
            if omega.ndim:
                _raise_bad_row(d, omega)
            raise MeasureFormatError(f"omega must be a (J, {d}) array, not of shape {omega.shape}")
        mass = np.array(mass, dtype=float)
        if mass.shape != (len(omega),):
            raise MeasureFormatError(f"expected one mass per row of omega ({len(omega)}), "
                                     f"got shape {mass.shape}")
        _snap_zeros(omega)
        # int64 bit masks; Python ints (object dtype) past 62 coordinates
        dtype = np.int64 if d < 63 else object
        masks = (omega > 0.0).astype(dtype) @ np.array([1 << i for i in range(d)], dtype)
        keep = _merge_rays(omega, mass, masks)
        self.d = d
        self.omega_matrix, self.mass_vector, self.face_masks = omega[keep], mass[keep], masks[keep]
        for array in (self.omega_matrix, self.mass_vector, self.face_masks):
            array.flags.writeable = False

    @property
    def n_atoms(self) -> int:
        return len(self.mass_vector)

    def __repr__(self) -> str:
        return (f"ExponentMeasure({self.d}, {self.omega_matrix.tolist()!r}, "
                f"{self.mass_vector.tolist()!r})")


def _raise_bad_row(d: int, omega) -> None:
    """Raise `MeasureFormatError` for the first row of ``omega`` whose length is
    not ``d``; return if there is none."""
    for j, row in enumerate(omega):
        if np.size(row) != d:
            raise MeasureFormatError(f"atom {j}: omega has length {np.size(row)}, not {d}")


def _snap_zeros(omega: np.ndarray) -> None:
    """Zero-snap each direction (last axis) in place, by ``ZERO_TOL``; its largest
    entry is never snapped, and a direction with a NaN or an infinity is left alone."""
    size = np.abs(omega)
    peak = size.max(axis=-1, keepdims=True, initial=0.0)
    omega[size <= ZERO_TOL * np.where(peak < np.inf, peak, np.nan)] = 0.0


def _merge_rays(omega, mass, masks):
    """Indices of the kept atoms; merges the absorbed masses into ``mass``.  The atoms
    are the rows of ``omega`` and ``mass``, with their face ``masks``.  First a proof
    that nothing merges: atoms within reach share a face and sums of unit entries
    within a slack, so when no two atoms of a face, sorted by that sum, lie within it,
    every atom is kept.  Otherwise a column's cells end at its gaps wider than
    RAY_ULPS, so atoms within reach share every cell, and a cell holds one sign (a
    zero entry is billions of ulps from any other).  One stable sort of the atoms'
    cell rows puts those that share every cell in runs, in input order, and only runs
    of two or more are walked.  A run's kept atoms stay sorted on the column with the
    most distinct entries, so an atom is compared only with those within RAY_ULPS of
    it there."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        peak = omega.max(axis=1, initial=-np.inf)
        unit = omega / peak[:, None]
        mergeable = np.flatnonzero((masks != 0) & np.all(np.isfinite(unit), axis=1))
        rows, faces, n = unit[mergeable], masks[mergeable], omega.shape[1]
        # within reach, the exact sums of n entries of size at most `big` differ by
        # RAY_ULPS ulps of each, an ulp at most 2u * big with u = 2**-53, and a computed
        # sum errs by at most gamma_n * n * big, gamma_n = n * u / (1 - n * u) (Higham
        # 2002, eq. 3.5): by n * big * 2u * (RAY_ULPS + n / (1 - n * u)) in all.  The
        # slack doubles that for its own roundings.  A sum overflows only when 2 * n * big
        # does, and then the slack is inf and every shared face is walked
        sums, big = rows.sum(axis=1), max(rows.max(initial=0.0), -rows.min(initial=0.0))
        slack = 2.0 * n * big * 2.0 ** -52 * (RAY_ULPS + n / (1.0 - n * 2.0 ** -53))
        by_sum = np.lexsort((sums, faces))
        sums, faces = sums[by_sum], faces[by_sum]
        close = (faces[1:] == faces[:-1]) & ~(sums[1:] - sums[:-1] > slack)
    if not close.any():
        return np.arange(len(mass))
    bits = rows.view(np.int64)  # differences count ulps within one sign
    order, columns = np.argsort(bits, axis=0), np.arange(bits.shape[1])
    ranked = bits[order, columns]
    gaps = np.zeros(ranked.shape, dtype=bool)
    np.greater(ranked[1:], ranked[:-1] + RAY_ULPS, out=gaps[1:])  # finite bits: no overflow
    cells = np.empty_like(order)
    cells[order, columns] = np.cumsum(gaps, axis=0)
    rows = cells.view(np.dtype((np.void, cells.itemsize * cells.shape[1]))).ravel()
    runs = np.argsort(rows, kind="stable")
    key, same = rows[runs], np.zeros(len(runs) + 1, dtype=bool)
    same[1:-1] = key[1:] == key[:-1]  # same[i]: runs[i - 1] and runs[i] share every cell
    joins, walked = same[:-1], same[:-1] | same[1:]
    if not walked.any():  # every atom alone in its cells
        return np.arange(len(mass))
    col = int(np.argmax((ranked[1:] != ranked[:-1]).sum(axis=0)))
    target = np.arange(len(mass))
    for a, joined, row in zip(mergeable[runs[walked]].tolist(), joins[walked].tolist(),
                              bits[runs[walked]].tolist()):
        if not joined:  # a run's first atom
            sort_bits, group = [], []  # its kept atoms' bits at col, and (atom, bits)
        at = row[col]
        near = group[bisect_left(sort_bits, at - RAY_ULPS):bisect_right(sort_bits, at + RAY_ULPS)]
        # the first kept atom within reach: kept atoms are in input order
        target[a] = k = min((j for j, other in near
                             if max(abs(p - q) for p, q in zip(row, other)) <= RAY_ULPS), default=a)
        if k == a:
            where = bisect_right(sort_bits, at)
            sort_bits.insert(where, at)
            group.insert(where, (a, row))
    stays = target == np.arange(len(mass))
    merged = np.flatnonzero(~stays)
    np.add.at(mass, target[merged], mass[merged] * (peak[merged] / peak[target[merged]]))
    return np.flatnonzero(stays)


# ---- validation ------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by `validate_measure`.

    ``code`` is machine readable; ``atom`` and ``coordinate`` locate the
    offender where that makes sense (0-based).
    """

    code: str
    atom: int | None = None
    coordinate: int | None = None
    detail: str = ""

    def __str__(self) -> str:
        where = []
        if self.atom is not None:
            where.append(f"atom {self.atom}")
        if self.coordinate is not None:
            where.append(f"coordinate {self.coordinate}")
        loc = " at " + ", ".join(where) if where else ""
        msg = f"{self.code}{loc}"
        return f"{msg} ({self.detail})" if self.detail else msg


def validate_measure(measure: ExponentMeasure) -> list[Violation]:
    """Collect every invariant violation of ``measure``.

    Checks, in order: the dimension is a positive integer, every atom's
    direction has nonnegative finite entries, every mass is
    strictly positive and finite, no direction is identically zero, and
    every coordinate is charged by at least one atom.  An empty list means
    the measure is valid.
    """
    out: list[Violation] = []
    d = measure.d
    if d < 1:
        out.append(Violation("invalid_dimension", detail=f"d={d}"))
        return out
    omega, mass = measure.omega_matrix, measure.mass_vector
    nonfinite = ~np.all(np.isfinite(omega), axis=1)
    negative = np.any(omega < 0.0, axis=1)
    bad_mass = ~(np.isfinite(mass) & (mass > 0.0))
    no_face = measure.face_masks == 0
    direction_ok = ~(nonfinite | negative)
    for j in np.flatnonzero(~direction_ok | bad_mass | no_face).tolist():
        if nonfinite[j]:
            out.append(Violation("nonfinite_direction", atom=j))
        elif negative[j]:
            out.append(Violation("negative_direction", atom=j,
                                 coordinate=int(np.argmax(omega[j] < 0.0))))
        else:
            if bad_mass[j]:
                out.append(Violation("nonpositive_mass", atom=j, detail=f"mass={float(mass[j])}"))
            if no_face[j]:
                out.append(Violation("all_zero_direction", atom=j))
    charged = np.any(omega[direction_ok] > 0.0, axis=0)
    for i in np.nonzero(~charged)[0]:
        out.append(Violation("dead_coordinate", coordinate=int(i),
                             detail="no atom charges this coordinate"))
    return out


def require_valid(measure: ExponentMeasure) -> ExponentMeasure:
    """Return ``measure`` unchanged, raising `InvalidMeasureError` if invalid."""
    violations = validate_measure(measure)
    if violations:
        raise InvalidMeasureError(violations)
    return measure


# ---- evaluation ------------------------------------------------------------


def exponent_function(measure: ExponentMeasure, x) -> float:
    """Tail mass of the complement of the box [0, x], for x > 0.

    For an atomic measure this is ``sum_j mass_j * max_i(omega_ji / x_i)``,
    the exponent of the induced max-stable distribution at x.  Homogeneous
    of order -1: scaling x by t divides the value by t.
    """
    return exponent_function_extended(measure, _check_positive_point(measure, x))


def exponent_function_grid(measure: ExponentMeasure, points: np.ndarray) -> np.ndarray:
    """`exponent_function` at each row of a strictly positive (N, d) array,
    one point at a time, so row i is ``exponent_function(measure, points[i])``
    bit for bit."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != measure.d:
        raise ValueError(f"expected (N, {measure.d}) grid, got shape {pts.shape}")
    if not np.all(pts > 0.0):
        raise ValueError("grid points must be strictly positive")
    return np.array([_ratio_kernel(measure.omega_matrix, measure.mass_vector, x, np.maximum)
                     for x in pts], dtype=float)


def exponent_function_extended(measure: ExponentMeasure, x) -> float:
    """`exponent_function` extended to x >= 0.

    A zero coordinate that some atom charges pushes the value to +inf
    (the corresponding box has probability zero).  Zero coordinates that
    no atom charges are neutral.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (measure.d,):
        raise ValueError(f"expected point of length {measure.d}, got {x.shape[0]}")
    if not np.all(x >= 0.0):  # NaN fails too
        raise ValueError("point must be componentwise >= 0")
    zero = x == 0.0
    if not zero.any():
        return _ratio_kernel(measure.omega_matrix, measure.mass_vector, x, np.maximum)
    if np.any(measure.omega_matrix[:, zero] > 0.0):
        return math.inf
    if np.all(zero):
        return 0.0
    return _ratio_kernel(measure.omega_matrix[:, ~zero], measure.mass_vector, x[~zero],
                         np.maximum)


def distribution_function(measure: ExponentMeasure, x) -> float:
    """P(X <= x) = exp(-exponent) of the induced max-stable law, for x >= 0."""
    return math.exp(-exponent_function_extended(measure, x))


def rectangle_mass(measure: ExponentMeasure, x) -> float:
    """Mass of the closed upper rectangle [x, inf) for strictly positive x.

    An atom's ray meets the rectangle where ``r * omega >= x`` holds in every
    coordinate, which needs the full face and gives radial mass
    ``min_i(omega_ji / x_i)``.
    """
    return _ratio_kernel(measure.omega_matrix, measure.mass_vector,
                         _check_positive_point(measure, x), np.minimum)


def _ratio_kernel(omega: np.ndarray, mass: np.ndarray, x: np.ndarray, reduce) -> float:
    """``sum_j mass_j * reduce_i(omega_ji / x_i)`` at one point x of shape (d,),
    with ``reduce`` np.maximum (exponent) or np.minimum (rectangle mass),
    taking one coordinate at a time into a (J,) accumulator.

    The one place a mass-weighted min or max of ``omega / x`` is computed.
    Over a coordinate subset, pass ``omega[:, cols]`` with ``x[cols]``;
    ``omega`` needs at least one column.  A ratio past the largest float (a
    tiny x_i) is +inf, without a warning: a min may still drop it."""
    with np.errstate(over="ignore"):
        acc = omega[:, 0] / x[0]
        for i in range(1, omega.shape[1]):
            reduce(acc, omega[:, i] / x[i], out=acc)
    return float(acc @ mass)


def _charges(measure: ExponentMeasure) -> np.ndarray:
    """(d, J) floats: 1.0 where atom j charges coordinate i (``omega > 0``),
    else 0.0, so that matrix products count coordinates exactly."""
    return (measure.omega_matrix.T > 0.0).astype(float, order="C")


def _check_positive_point(measure: ExponentMeasure, x) -> np.ndarray:
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (measure.d,):
        raise ValueError(f"expected point of length {measure.d}, got {x.shape[0]}")
    if not np.all(x > 0.0):
        raise ValueError("point must be componentwise > 0")
    return x


def _check_coordinate_subset(measure: ExponentMeasure, coords: Iterable[int]) -> list[int]:
    """``coords`` sorted without repeats, checked nonempty and within range(d)."""
    idx = sorted(set(int(i) for i in coords))
    if not idx:
        raise ValueError("need a nonempty coordinate subset")
    if idx[0] < 0 or idx[-1] >= measure.d:
        raise ValueError(f"coordinates out of range for d={measure.d}")
    return idx


# ---- structural operations -------------------------------------------------


def margins(measure: ExponentMeasure) -> np.ndarray:
    """Per-coordinate marginal masses ``m_i = sum_j mass_j * omega_ji``.

    Coordinate i of the induced max-stable vector is Frechet with scale
    ``m_i``; the measure is standardized when every ``m_i`` equals 1.
    """
    return measure.mass_vector @ measure.omega_matrix


def marginalize(measure: ExponentMeasure, coords: Iterable[int]) -> ExponentMeasure:
    """Project the measure onto a nonempty subset of coordinates.

    Directions are restricted to ``coords`` (ascending order), masses kept,
    and atoms whose restriction is identically zero are dropped.  Note the
    projection of the domain is taken within the punctured orthant of the
    kept coordinates, hence the dropped atoms.
    """
    idx = _check_coordinate_subset(measure, coords)
    omega = measure.omega_matrix[:, idx]
    live = np.any(omega > 0.0, axis=1)
    return ExponentMeasure(len(idx), omega[live], measure.mass_vector[live])


def standardize(measure: ExponentMeasure) -> ExponentMeasure:
    """Rescale coordinates so every marginal mass equals 1.

    Each direction entry is divided by its coordinate's marginal mass and
    masses are untouched, so every face is kept: a division that would
    shrink an entry to ``ZERO_TOL`` of its direction's largest entry or
    below, where the zero-snap would drop it from its face, raises
    ValueError naming the atom and the coordinate.  Requires a valid
    measure (in particular no dead coordinate, so every ``m_i`` is positive).
    """
    m = margins(measure)
    if np.any(~np.isfinite(m)) or np.any(m <= 0.0):
        raise ValueError("standardize needs strictly positive marginal masses")
    snapped = measure.omega_matrix / m
    _snap_zeros(snapped)
    lost = (measure.omega_matrix > 0.0) & (snapped == 0.0)
    if lost.any():  # rare: locate the first lost entry only then
        j, i = np.argwhere(lost)[0].tolist()
        raise ValueError(f"standardize would snap atom {j}'s entry at coordinate {i} to 0, "
                         f"removing coordinate {i} from its face")
    return ExponentMeasure(measure.d, snapped, measure.mass_vector)


def is_standardized(measure: ExponentMeasure) -> bool:
    """True when every marginal mass is within ``MARGIN_TOL`` of 1."""
    m = margins(measure)
    return bool(np.all(np.abs(m - 1.0) <= MARGIN_TOL))


# ---- random generation -----------------------------------------------------

_COVERAGE_RETRIES = 10_000


def random_measure(
    d: int,
    n_atoms: int,
    split: "tuple[Iterable[int], Iterable[int]] | None" = None,
    seed: "int | np.random.Generator | None" = None,
) -> ExponentMeasure:
    """Draw a random valid standardized measure with ``n_atoms`` atoms.

    Faces are drawn uniformly among nonempty subsets of ``range(d)``;
    when ``split = (A, C)`` is given they are drawn uniformly among nonempty
    subsets of A or of C, so the result is block structured by construction.
    Positive direction entries are uniform on (0, 1], masses uniform on
    [0.25, 4], and the result is standardized.  The face multiset is redrawn
    until every coordinate is charged, at most ``_COVERAGE_RETRIES`` times.

    A split face falls in A or C with weights ``2**|A| - 1`` and ``2**|C| - 1``,
    their counts of nonempty subsets, so a block much smaller than the other
    is rarely charged: with blocks of 22 and 42 coordinates a face lands in
    the smaller one with chance about 2**-20, and the call spends its redraws
    and raises, though a covering draw exists.

    Deterministic for a fixed ``seed``.  A `Generator` passed as ``seed`` is
    drawn from in a fixed order of doubles, and no further:

    - face by face, unsplit: ``d`` doubles per attempt, the coordinates whose
      double is below 0.5 forming the face, until an attempt is nonempty;
    - face by face, split: one double choosing A or C, weighted by their
      counts of nonempty subsets and read on ``Generator.choice``'s cdf, then
      ``|pool|`` doubles per attempt on the chosen pool's sorted coordinates;
    - all ``n_atoms`` faces again while some coordinate is uncharged;
    - atom by atom: one double ``u`` per face coordinate in increasing order,
      the entry ``1 - u``, then one for the mass ``0.25 + 3.75 * u``.
    """
    if d < 2:
        raise ValueError("random_measure needs d >= 2")
    if n_atoms < d:
        raise ValueError("need n_atoms >= d so every coordinate can be charged")
    rng = np.random.default_rng(seed)
    if split is not None:
        part_a = sorted(set(int(i) for i in split[0]))
        part_c = sorted(set(int(i) for i in split[1]))
        if not part_a or not part_c or set(part_a) & set(part_c) \
                or set(part_a) | set(part_c) != set(range(d)):
            raise ValueError("split must be a bipartition of range(d)")

    for _ in range(_COVERAGE_RETRIES):
        faces = (_random_faces(rng, d, n_atoms) if split is None
                 else _random_split_faces(rng, d, n_atoms, [part_a, part_c]))
        if faces.any(axis=0).all():
            break
    else:
        weights = "" if split is None else (
            f"; the split's blocks of {len(part_a)} and {len(part_c)} coordinates are drawn "
            f"with weights {2 ** len(part_a) - 1} and {2 ** len(part_c) - 1}, "
            f"their counts of nonempty subsets")
        raise ValueError(f"could not cover every coordinate in {_COVERAGE_RETRIES} draws "
                         f"of {n_atoms} faces{weights}")

    # each row's slots, in draw order: its face's entries, then its mass
    slots = np.ones((n_atoms, d + 1), dtype=bool)
    slots[:, :d] = faces
    draws = np.zeros(slots.shape)
    draws[slots] = rng.random(np.count_nonzero(slots))
    omega = np.where(faces, 1.0 - draws[:, :d], 0.0)  # (0, 1]
    return standardize(ExponentMeasure(d, omega, 0.25 + 3.75 * draws[:, d]))


def _random_faces(rng: np.random.Generator, d: int, n_atoms: int) -> np.ndarray:
    """(n_atoms, d) face masks, uniform over nonempty subsets of range(d): an
    empty row is a failed attempt, and each block draws only the rows the faces
    still missing need at least."""
    faces = np.empty((0, d), dtype=bool)
    while len(faces) < n_atoms:
        rows = rng.random((n_atoms - len(faces), d)) < 0.5
        faces = np.concatenate([faces, rows[rows.any(axis=1)]])
    return faces


def _random_split_faces(rng: np.random.Generator, d: int, n_atoms: int,
                        pools: "list[list[int]]") -> np.ndarray:
    """(n_atoms, d) face masks, each uniform over nonempty subsets of one pool,
    the pools weighted by subset count: the pre-drawn doubles are read in the
    order a draw per face takes them, and a refill draws only what the faces
    still missing need at least (one choice and one attempt on the smaller pool)."""
    counts = np.array([2 ** len(p) - 1 for p in pools], dtype=float)
    cdf = (counts / counts.sum()).cumsum()
    cdf /= cdf[-1]
    edges, least = cdf.tolist(), 1 + min(map(len, pools))
    u, at, j, pool, rows, cols = [], 0, 0, None, [], []
    while j < n_atoms:
        size = 1 if pool is None else len(pool)
        if at + size > len(u):
            need = (n_atoms - j) * least + (0 if pool is None else len(pool) - least)
            u, at = u[at:] + rng.random(need - (len(u) - at)).tolist(), 0
        if pool is None:
            pool = pools[bisect_right(edges, u[at])]  # as cdf.searchsorted(u, "right")
        else:
            face = [i for i, x in zip(pool, u[at:at + size]) if x < 0.5]
            if face:
                rows += [j] * len(face)
                cols += face
                j, pool = j + 1, None
        at += size
    faces = np.zeros((n_atoms, d), dtype=bool)
    faces[rows, cols] = True
    return faces


# ---- serialization ---------------------------------------------------------


def measure_to_dict(measure: ExponentMeasure) -> dict:
    return {
        "d": measure.d,
        "atoms": [{"omega": omega, "mass": mass} for omega, mass
                  in zip(measure.omega_matrix.tolist(), measure.mass_vector.tolist())],
    }


def measure_from_dict(data: dict) -> ExponentMeasure:
    """Build a measure from the JSON schema, strictly.

    Rejects missing or extra structure, non-numeric entries, NaN or
    infinite values, and negative values.  The result is canonicalized but
    not validated; run `validate_measure` or use `load_measure` for that.
    """
    if not isinstance(data, dict):
        raise MeasureFormatError("top level must be an object")
    if set(data.keys()) != {"d", "atoms"}:
        raise MeasureFormatError('top level must have exactly the keys "d" and "atoms"')
    d = data["d"]
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise MeasureFormatError('"d" must be a positive integer')
    raw_atoms = data["atoms"]
    if not isinstance(raw_atoms, list):
        raise MeasureFormatError('"atoms" must be a list')
    # one type scan per atom, then one vectorised value check; the walk
    # entry by entry runs only when these find a problem, to name it
    omegas, masses = [], []
    for entry in raw_atoms:
        if type(entry) is not dict or entry.keys() != {"omega", "mass"} \
                or type(entry["omega"]) is not list or len(entry["omega"]) != d \
                or type(entry["mass"]) not in (int, float) \
                or not set(map(type, entry["omega"])) <= {int, float}:
            return _walk_atoms(raw_atoms, d)
        omegas.append(entry["omega"])
        masses.append(entry["mass"])
    omega, mass = np.array(omegas, dtype=float), np.array(masses, dtype=float)
    if np.all(np.isfinite(omega) & (omega >= 0.0)) and np.all(np.isfinite(mass) & (mass >= 0.0)):
        return ExponentMeasure(d, omega, mass)
    return _walk_atoms(raw_atoms, d)


def _walk_atoms(raw_atoms: list, d: int) -> ExponentMeasure:
    """`measure_from_dict`'s atoms checked entry by entry, raising at the first
    bad atom and entry; numbers the type scan skips (numpy scalars) pass."""
    omegas, masses = [], []
    for j, entry in enumerate(raw_atoms):
        if not isinstance(entry, dict) or set(entry.keys()) != {"omega", "mass"}:
            raise MeasureFormatError(f'atom {j} must be an object with keys "omega" and "mass"')
        omega = entry["omega"]
        if not isinstance(omega, list) or len(omega) != d:
            raise MeasureFormatError(f'atom {j}: "omega" must be a list of length {d}')
        for i, v in enumerate(omega):
            _check_json_number(v, f'atom {j}, omega[{i}]')
        _check_json_number(entry["mass"], f'atom {j}, mass')
        omegas.append(omega)
        masses.append(float(entry["mass"]))
    return ExponentMeasure(d, omegas, masses)


def _check_json_number(v, where: str) -> None:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise MeasureFormatError(f"{where}: not a number")
    v = float(v)
    if math.isnan(v) or math.isinf(v):
        raise MeasureFormatError(f"{where}: NaN and infinities are not allowed")
    if v < 0.0:
        raise MeasureFormatError(f"{where}: negative values are not allowed")


def load_measure(path) -> ExponentMeasure:
    """Read, parse, and validate a measure JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MeasureFormatError(f"not valid JSON: {exc}") from exc
    return require_valid(measure_from_dict(data))


def save_measure(measure: ExponentMeasure, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(measure_to_dict(measure), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---- comparison ------------------------------------------------------------


def measures_allclose(a: ExponentMeasure, b: ExponentMeasure,
                      rtol: float = 1e-9, atol: float = 1e-12) -> bool:
    """Equality up to floating tolerance: same d, same atoms in order."""
    return (a.d == b.d and a.omega_matrix.shape == b.omega_matrix.shape
            and bool(np.allclose(a.omega_matrix, b.omega_matrix, rtol=rtol, atol=atol))
            and all(math.isclose(x, y, rel_tol=rtol, abs_tol=atol)
                    for x, y in zip(a.mass_vector.tolist(), b.mass_vector.tolist())))
