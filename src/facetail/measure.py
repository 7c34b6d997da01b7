"""Atomic exponent measures on the punctured orthant.

The central object is a finite collection of spectral atoms: rays
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
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

#: an entry of omega whose absolute value is at or below this times the
#: largest absolute entry of its direction is snapped to 0.0 at construction,
#: so face membership is an exact and scale-free zero test afterwards.
ZERO_TOL = 1e-12

#: two atoms are the same ray when their faces agree and their sup-norm
#: normalized directions differ by at most this, componentwise.
RAY_TOL = 1e-9

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


@dataclass(frozen=True, eq=False)
class SpectralAtom:
    """One ray of an atomic exponent measure.

    Parameters
    ----------
    omega : array_like
        Nonnegative direction vector of length d, zero-snapped relative to
        its largest entry (see ``ZERO_TOL``).
    mass : float
        Total mass carried by the ray.

    The direction is stored as given (no normalization): every operation in
    this package depends only on the products ``mass * omega`` and the snap
    is scale-free, so ``(c * omega, mass / c)`` is the same measure, faces too.
    """

    omega: np.ndarray
    mass: float

    def __post_init__(self):
        om = np.array(self.omega, dtype=float).reshape(-1)
        _snap_zeros(om)
        om.flags.writeable = False
        object.__setattr__(self, "omega", om)
        object.__setattr__(self, "mass", float(self.mass))

    @cached_property
    def face(self) -> frozenset[int]:
        """Indices of the strictly positive coordinates of ``omega``."""
        return frozenset(int(i) for i in np.nonzero(self.omega > 0.0)[0])

    def __repr__(self) -> str:  # compact, round-trippable enough for debugging
        return f"SpectralAtom(omega={self.omega.tolist()}, mass={self.mass})"


class ExponentMeasure:
    """Finite atomic exponent measure in dimension ``d``.

    Held as read-only arrays: ``omega_matrix`` (J, d), ``mass_vector`` (J,)
    and ``face_masks`` (J,), bit i set iff coordinate i is positive, with
    ``atoms`` as a view.  Construction zero-snaps directions
    (see `SpectralAtom`) and merges each atom into the first kept atom of
    its face whose sup-normalized direction is within ``RAY_TOL``
    componentwise, adding its intensity ``mass * omega`` to that atom's
    mass; kept atoms keep first-occurrence order.  Only kept atoms whose
    normalized entries have a sum within a window are compared, so the
    merge is O(J) for distinct directions.  An atom whose direction is not
    of length d raises `MeasureFormatError`.  The class uses identity
    semantics; compare measures with `measures_allclose`.
    """

    def __init__(self, d: int, atoms: Iterable[SpectralAtom]):
        atoms = tuple(atoms)
        for j, atom in enumerate(atoms):
            if not isinstance(atom, SpectralAtom):
                raise TypeError(f"expected SpectralAtom, got {type(atom).__name__}")
            if atom.omega.size != d:
                raise MeasureFormatError(f"atom {j}: omega has length {atom.omega.size}, not {d}")
        omega = np.array([atom.omega for atom in atoms]).reshape(len(atoms), int(d))
        self._canonicalize(int(d), omega, [atom.mass for atom in atoms])

    @classmethod
    def _from_arrays(cls, d: int, omega, mass) -> "ExponentMeasure":
        measure = cls.__new__(cls)
        measure._canonicalize(d, omega, mass)
        return measure

    def _canonicalize(self, d, omega, mass) -> None:
        omega = np.array(omega, dtype=float)
        _snap_zeros(omega)
        # int64 bit masks; Python ints (object dtype) past 62 coordinates
        dtype = np.int64 if d < 63 else object
        masks = (omega > 0.0).astype(dtype) @ np.array([1 << i for i in range(d)], dtype)
        mass = np.array(mass, dtype=float)
        keep = _merge_rays(omega, mass, masks)
        self.d = d
        self.omega_matrix, self.mass_vector, self.face_masks = omega[keep], mass[keep], masks[keep]
        for array in (self.omega_matrix, self.mass_vector, self.face_masks):
            array.flags.writeable = False

    @cached_property
    def atoms(self) -> tuple[SpectralAtom, ...]:
        return tuple(SpectralAtom(row, mass)
                     for row, mass in zip(self.omega_matrix, self.mass_vector.tolist()))

    @property
    def n_atoms(self) -> int:
        return len(self.mass_vector)

    def __repr__(self) -> str:
        return f"ExponentMeasure(d={self.d}, atoms={list(self.atoms)!r})"


def _snap_zeros(omega: np.ndarray) -> None:
    """Zero-snap each direction (last axis) in place, by ``ZERO_TOL``; its largest
    entry is never snapped, and a direction with a NaN or an infinity is left alone."""
    size = np.abs(omega)
    peak = size.max(axis=-1, keepdims=True, initial=0.0)
    omega[size <= ZERO_TOL * np.where(peak < np.inf, peak, np.nan)] = 0.0


def _merge_rays(omega, mass, masks):
    """Indices of the kept atoms; merges the absorbed masses into ``mass``."""
    width = omega.shape[1]
    with np.errstate(invalid="ignore", divide="ignore"):
        peak = omega.max(axis=1, initial=-np.inf)
        unit = omega / peak[:, None]
    # atoms within RAY_TOL have face sums within slack/2 even after roundoff,
    # so they sit in the same or adjacent cells of one face's window; a NaN
    # or infinite normalized entry never compares within RAY_TOL
    slack = 2.0 * width * (RAY_TOL + width * 2.0 ** -52)
    cells = np.floor(np.maximum(unit, 0.0).sum(axis=1) / slack).tolist()
    mergeable = np.flatnonzero((masks != 0) & np.all(np.isfinite(unit), axis=1))
    rows, faces = unit.tolist(), masks.tolist()
    target, kept = np.arange(len(mass)), {}  # kept: (face, cell) -> kept atoms
    for a in mergeable.tolist():
        near = [k for cell in (cells[a] - 1, cells[a], cells[a] + 1)
                for k in kept.get((faces[a], cell), ())
                if max(abs(p - q) for p, q in zip(rows[a], rows[k])) <= RAY_TOL]
        if near:
            target[a] = min(near)
        else:
            kept.setdefault((faces[a], cells[a]), []).append(a)
    merged = np.flatnonzero(target != np.arange(len(mass)))
    np.add.at(mass, target[merged], mass[merged] * (peak[merged] / peak[target[merged]]))
    return np.flatnonzero(target == np.arange(len(mass)))


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
    x = _check_positive_point(measure, x)
    return float(_ratio_kernel(measure.omega_matrix, measure.mass_vector, x[None, :], np.maximum)[0])


def exponent_function_grid(measure: ExponentMeasure, points: np.ndarray) -> np.ndarray:
    """Vectorized `exponent_function` over rows of a strictly positive (N, d) array."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != measure.d:
        raise ValueError(f"expected (N, {measure.d}) grid, got shape {pts.shape}")
    if not np.all(pts > 0.0):
        raise ValueError("grid points must be strictly positive")
    return _ratio_kernel(measure.omega_matrix, measure.mass_vector, pts, np.maximum)


def exponent_function_extended(measure: ExponentMeasure, x) -> float:
    """`exponent_function` extended to x >= 0.

    A zero coordinate that some atom charges pushes the value to +inf
    (the corresponding box has probability zero).  Zero coordinates that
    no atom charges are neutral.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (measure.d,):
        raise ValueError(f"expected point of length {measure.d}, got {x.shape[0]}")
    if np.any(x < 0.0) or np.any(np.isnan(x)):
        raise ValueError("point must be componentwise >= 0")
    zero = x == 0.0
    if np.any(measure.omega_matrix[:, zero] > 0.0):
        return math.inf
    if np.all(zero):
        return 0.0
    return float(_ratio_kernel(measure.omega_matrix[:, ~zero], measure.mass_vector,
                               x[None, ~zero], np.maximum)[0])


def distribution_function(measure: ExponentMeasure, x) -> float:
    """P(X <= x) = exp(-exponent) of the induced max-stable law, for x >= 0."""
    return math.exp(-exponent_function_extended(measure, x))


def rectangle_mass(measure: ExponentMeasure, x) -> float:
    """Mass of the closed upper rectangle [x, inf) for strictly positive x.

    An atom's ray meets the rectangle where ``r * omega >= x`` holds in every
    coordinate, which needs the full face and gives radial mass
    ``min_i(omega_ji / x_i)``.
    """
    x = _check_positive_point(measure, x)
    return float(_ratio_kernel(measure.omega_matrix, measure.mass_vector, x[None, :], np.minimum)[0])


#: cells (rows x atoms) per row block of the chunked kernels, so each of
#: their temporaries stays near 512 KB, which keeps it in cache
CHUNK_CELLS = 1 << 16


def _row_blocks(n_rows: int, n_atoms: int) -> list[tuple[int, int]]:
    """Row blocks of about CHUNK_CELLS cells, a multiple of 8 rows each, and
    a lone last row joins the block before it (a one-row product goes through
    dot, not gemv), so BLAS reduces each row as in one unchunked product."""
    rows = max(8, CHUNK_CELLS // max(n_atoms, 1) // 8 * 8)
    bounds = list(range(0, n_rows, rows)) + [n_rows]
    if n_rows % rows == 1 and n_rows > rows:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


def _ratio_kernel(omega: np.ndarray, mass: np.ndarray, points: np.ndarray, reduce) -> np.ndarray:
    """``sum_j mass_j * reduce_i(omega_ji / x_i)`` per row x of ``points``, with
    ``reduce`` np.maximum (exponent) or np.minimum (rectangle mass), taking
    one coordinate at a time into a (rows, J) accumulator per row block.

    The one place a mass-weighted min or max of ``omega / x`` is computed.
    Over a coordinate subset, pass ``omega[:, cols]`` with the matching point
    columns; ``omega`` needs at least one column."""
    # the accumulator follows the memory order of the points, which fixes how
    # BLAS sums each row: C- and F-ordered rows are summed in different orders
    order = "F" if points.flags.f_contiguous and not points.flags.c_contiguous else "C"
    blocks = _row_blocks(len(points), len(mass))
    # one work space per call, sized for its largest row block, holds the
    # accumulator and one ratio buffer of every block: fresh temporaries per
    # block, their allocations and page faults, dominated small-J calls
    work = np.empty(2 * len(mass) * max((hi - lo for lo, hi in blocks), default=0))
    out = np.empty(len(points))
    for lo, hi in blocks:
        x, shape = points[lo:hi], (hi - lo, len(mass))
        acc = work[:shape[0] * shape[1]].reshape(shape, order=order)
        ratio = work[acc.size:2 * acc.size].reshape(shape, order=order)
        np.divide(omega[:, 0], x[:, :1], out=acc)
        for i in range(1, omega.shape[1]):
            reduce(acc, np.divide(omega[:, i], x[:, i:i + 1], out=ratio), out=acc)
        out[lo:hi] = acc @ mass
    return out


def _check_positive_point(measure: ExponentMeasure, x) -> np.ndarray:
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (measure.d,):
        raise ValueError(f"expected point of length {measure.d}, got {x.shape[0]}")
    if not np.all(x > 0.0):
        raise ValueError("point must be componentwise > 0")
    return x


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
    idx = sorted(set(int(i) for i in coords))
    if not idx:
        raise ValueError("cannot marginalize to an empty coordinate set")
    if idx[0] < 0 or idx[-1] >= measure.d:
        raise ValueError(f"coordinates out of range for d={measure.d}")
    omega = measure.omega_matrix[:, idx]
    live = np.any(omega > 0.0, axis=1)
    return ExponentMeasure._from_arrays(len(idx), omega[live], measure.mass_vector[live])


def standardize(measure: ExponentMeasure) -> ExponentMeasure:
    """Rescale coordinates so every marginal mass equals 1.

    Each direction entry is divided by its coordinate's marginal mass and
    masses are untouched.  Faces are preserved unless the division shrinks
    an entry to ``ZERO_TOL`` of its direction's largest entry or below:
    the zero-snap then drops it, and its share of the margin with it.
    Requires a valid measure (in particular no dead coordinate, so every
    ``m_i`` is positive).
    """
    m = margins(measure)
    if np.any(~np.isfinite(m)) or np.any(m <= 0.0):
        raise ValueError("standardize needs strictly positive marginal masses")
    return ExponentMeasure._from_arrays(measure.d, measure.omega_matrix / m, measure.mass_vector)


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
    seed: int | None = None,
) -> ExponentMeasure:
    """Draw a random valid standardized measure with ``n_atoms`` atoms.

    Faces are drawn uniformly among nonempty subsets of ``range(d)``;
    when ``split = (A, C)`` is given they are drawn uniformly among nonempty
    subsets of A or of C, so the result is block structured by construction.
    Positive direction entries are uniform on (0, 1], masses uniform on
    [0.25, 4], and the result is standardized.  The face multiset is redrawn
    until every coordinate is charged.

    Deterministic for a fixed ``seed``.
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
        pools = [part_a, part_c]
    else:
        pools = [list(range(d))]

    for _ in range(_COVERAGE_RETRIES):
        faces = [_random_face(rng, pools) for _ in range(n_atoms)]
        if set().union(*faces) == set(range(d)):
            break
    else:
        raise ValueError("could not cover every coordinate; constraints unsatisfiable?")

    omega = np.zeros((n_atoms, d))
    mass = np.empty(n_atoms)
    for j, face in enumerate(faces):
        omega[j, sorted(face)] = 1.0 - rng.uniform(size=len(face))  # (0, 1]
        mass[j] = rng.uniform(0.25, 4.0)
    return standardize(ExponentMeasure._from_arrays(d, omega, mass))


def _random_face(rng: np.random.Generator, pools: Sequence[Sequence[int]]) -> frozenset[int]:
    # uniform over nonempty subsets of a pool, pools weighted by subset count
    counts = np.array([2 ** len(p) - 1 for p in pools], dtype=float)
    pool = pools[rng.choice(len(pools), p=counts / counts.sum())] if len(pools) > 1 else pools[0]
    while True:
        mask = rng.uniform(size=len(pool)) < 0.5
        if np.any(mask):
            return frozenset(p for p, keep in zip(pool, mask) if keep)


# ---- serialization ---------------------------------------------------------


def measure_to_dict(measure: ExponentMeasure) -> dict:
    return {
        "d": measure.d,
        "atoms": [{"omega": a.omega.tolist(), "mass": a.mass} for a in measure.atoms],
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
    return ExponentMeasure._from_arrays(d, np.array(omegas, dtype=float).reshape(-1, d), masses)


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
