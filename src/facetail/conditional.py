"""Conditional tail laws of an atomic exponent measure.

Restricting the measure to the slab where coordinate k exceeds 1 and
normalizing by the marginal mass ``m_k`` yields a probability law: pick an
atom with probability proportional to ``mass_j * omega_jk``, then draw a
radius from the normalized radial tail of that ray.  These laws carry the
same information as the measure above level 1 in coordinate k, and their
block-factorization structure characterizes extremal independence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .measure import ExponentMeasure, _charges, _check_positive_point, _ratio_kernel, margins
from .partition import Bipartition, _first, _membership, _straddling


@dataclass(frozen=True, eq=False)
class ConditionalLaw:
    """Distribution of the measure restricted to ``{y : y_k > 1}``.

    Attributes
    ----------
    measure : ExponentMeasure
        The source measure.
    k : int
        Conditioning coordinate, 0-based.
    atom_indices : tuple of int
        Rows of ``measure.omega_matrix`` of the atoms charging coordinate k.
        Only these can produce a point with ``y_k > 0``.
    weights : ndarray
        Selection probability of each included atom; sums to 1.
    r_min : ndarray
        Per included atom, the smallest radius compatible with ``y_k > 1``,
        namely ``1 / omega_jk``.  The radial law is Pareto(1) above it.
    norming_mass : float
        Marginal mass ``m_k`` used to normalize; multiplying probabilities
        by it recovers plain measure mass.
    """

    measure: ExponentMeasure
    k: int
    atom_indices: tuple[int, ...]
    weights: np.ndarray
    r_min: np.ndarray
    norming_mass: float

    @property
    def d(self) -> int:
        return self.measure.d


def conditional_law(measure: ExponentMeasure, k: int) -> ConditionalLaw:
    """Build the conditional law of ``measure`` at coordinate ``k``.

    Requires ``0 <= k < d`` and a positive marginal mass ``m_k`` (an
    uncharged coordinate has no tail to condition on).
    """
    if not 0 <= k < measure.d:
        raise ValueError(f"coordinate {k} out of range for d={measure.d}")
    m = margins(measure)
    if not m[k] > 0.0:
        raise ValueError(f"coordinate {k} carries no mass; conditional law undefined")
    col = measure.omega_matrix[:, k]
    idx = np.nonzero(col > 0.0)[0]
    weights = measure.mass_vector[idx] * col[idx] / m[k]
    r_min = 1.0 / col[idx]
    weights.flags.writeable = False
    r_min.flags.writeable = False
    return ConditionalLaw(
        measure=measure,
        k=int(k),
        atom_indices=tuple(int(i) for i in idx),
        weights=weights,
        r_min=r_min,
        norming_mass=float(m[k]),
    )


def rectangle_probability(law: ConditionalLaw, x) -> float:
    """Probability of the closed upper rectangle ``[x, inf)``, x > 0.

    The law is the measure restricted to ``{y_k > 1}`` over ``m_k``, so this
    is the measure's upper-rectangle mass at x with ``x_k`` raised to
    ``max(x_k, 1)``, divided by ``m_k``: ``sum_j mass_j * min_i(omega_ji /
    x_i) / m_k``.  An atom without a full face, which includes every atom
    not charging k, contributes exactly 0.
    """
    x = _check_positive_point(law.measure, x).copy()
    x[law.k] = max(x[law.k], 1.0)
    return _law_mass(law, law.measure.omega_matrix, x)


def marginal_rectangle_probability(law: ConditionalLaw, coords: Iterable[int], x) -> float:
    """Probability that every coordinate in ``coords`` weakly exceeds ``x``.

    This is the rectangle probability of the restriction to a coordinate
    subset, i.e. the limit of full rectangles as the remaining coordinates
    drop to 0.  Point-mass components at 0 are thereby counted, which is
    what makes block-factorization statements exact rather than limiting.
    ``x[i]`` is the threshold of ``coords[i]``; coordinates must be distinct.
    Computed like `rectangle_probability`, over ``coords`` and k, with a
    threshold of 1 at k when k is not in ``coords``.
    """
    idx = np.array([int(i) for i in coords], dtype=int)
    if idx.size == 0:
        return 1.0
    if idx.min() < 0 or idx.max() >= law.d:
        raise ValueError(f"coordinates out of range for d={law.d}")
    if len(set(idx.tolist())) != idx.size:  # np.unique would import numpy.ma
        raise ValueError("coordinates must be distinct")
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (idx.size,):
        raise ValueError(f"expected {idx.size} thresholds, got {x.shape[0]}")
    if not np.all(x > 0.0):
        raise ValueError("thresholds must be strictly positive")
    # the rectangle over coords and k, with x_k at least 1
    point = dict(zip(idx.tolist(), x.tolist()))
    point[law.k] = max(point.get(law.k, 1.0), 1.0)
    return _law_mass(law, law.measure.omega_matrix[:, list(point)], np.array(list(point.values())))


def _law_mass(law: ConditionalLaw, omega: np.ndarray, x: np.ndarray) -> float:
    """The measure's upper-rectangle mass at x over the columns of ``omega``,
    over ``m_k``."""
    return _ratio_kernel(omega, law.measure.mass_vector, x, np.minimum) / law.norming_mass


# ---- structural factorization check ---------------------------------------


@dataclass(frozen=True, eq=False)
class FactorizationVerdict:
    """Outcome of `conditional_factorization` for every coordinate.

    ``ok[k]`` says whether the law at coordinate k factorizes; ``atom[k]`` is
    the first atom that charges k and straddles the two blocks, or -1 where
    ``ok[k]``.  Both are read-only (d,) arrays.
    """

    ok: np.ndarray
    atom: np.ndarray

    @property
    def holds(self) -> bool:
        return bool(self.ok.all())


def conditional_factorization(measure: ExponentMeasure, part: Bipartition) -> FactorizationVerdict:
    """Decide whether every conditional law splits over the two blocks.

    For an atomic measure, the law at coordinate k factorizes into
    independent block components (one of them a point mass at 0) exactly
    when no atom charging k straddles both blocks.  The verdict is checked
    for every coordinate; `holds` is the conjunction.
    """
    in_a = _membership([part], measure.d)
    charges = _charges(measure)
    atom = _factorization(charges, _straddling(charges, in_a))[0]
    ok = atom < 0
    ok.flags.writeable = atom.flags.writeable = False
    return FactorizationVerdict(ok=ok, atom=atom)


def _factorization(charges: np.ndarray, straddle: np.ndarray) -> np.ndarray:
    """`conditional_factorization`'s ``atom`` as a (P, d) array, for the (d, J)
    0/1 floats ``charges`` (see `measure._charges`) and one row of
    ``straddle`` (see `_straddling`) per part; ``ok`` is ``atom < 0``."""
    return _first(_factor_hits(charges, straddle))


def _factor_hits(charges: np.ndarray, straddle: np.ndarray) -> np.ndarray:
    """(P, d, J) booleans: atom j straddles part p and charges coordinate k, so
    the law at k does not factorize."""
    return np.logical_and(straddle[:, None, :], charges)
