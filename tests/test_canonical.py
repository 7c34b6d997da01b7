"""Canonicalisation against the original per-atom merge loop.

`oracle_merge` is the merge `ExponentMeasure` ran before its canonical form
became arrays, kept verbatim.  The array merge must return the same atoms
in the same order with bit-identical directions and masses.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from facetail import ExponentMeasure, SpectralAtom
from facetail.measure import RAY_TOL, ZERO_TOL


def oracle_merge(atoms):
    # first-occurrence order; the kept atom absorbs the other's intensity
    # contribution mass * omega, so its mass grows by the direction ratio
    kept: list[SpectralAtom] = []
    for atom in atoms:
        if not isinstance(atom, SpectralAtom):
            raise TypeError(f"expected SpectralAtom, got {type(atom).__name__}")
        merged = False
        if atom.face:
            peak = float(np.max(atom.omega))
            for idx, other in enumerate(kept):
                if other.face != atom.face or other.omega.shape != atom.omega.shape:
                    continue
                other_peak = float(np.max(other.omega))
                if np.max(np.abs(atom.omega / peak - other.omega / other_peak)) <= RAY_TOL:
                    scale = peak / other_peak
                    kept[idx] = SpectralAtom(other.omega, other.mass + atom.mass * scale)
                    merged = True
                    break
        if not merged:
            kept.append(atom)
    return tuple(kept)


def assert_same_atoms(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.omega.shape == b.omega.shape
        assert a.omega.tobytes() == b.omega.tobytes()
        assert np.float64(a.mass).tobytes() == np.float64(b.mass).tobytes()


def assert_matches_oracle(d, atoms):
    measure = ExponentMeasure(d, atoms)
    assert_same_atoms(measure.atoms, oracle_merge(atoms))
    # idempotence: canonicalising a canonical measure changes nothing
    again = ExponentMeasure(d, measure.atoms)
    assert again.omega_matrix.tobytes() == measure.omega_matrix.tobytes()
    assert again.mass_vector.tobytes() == measure.mass_vector.tobytes()
    assert again.face_masks.tolist() == measure.face_masks.tolist()


@st.composite
def atom_lists(draw):
    """Directions built to hit every merge path: scaled duplicates, chains
    of steps just under the tolerance in one or in every coordinate below
    the peak, entries that snap to zero, and repeated faces."""
    d = draw(st.integers(1, 5))
    n_base = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0.0), st.floats(0.05, 1.0), st.just(ZERO_TOL / 2))
    bases = [np.array(draw(st.lists(entry, min_size=d, max_size=d))) for _ in range(n_base)]
    atoms = []
    for _ in range(draw(st.integers(1, 24))):
        om = bases[draw(st.integers(0, n_base - 1))].copy()
        kind = draw(st.sampled_from(["copy", "scaled", "chain", "shift", "snap"]))
        if kind == "scaled":
            om = om * draw(st.floats(0.25, 4.0))
        elif kind == "chain" and np.any(om > 0.0):
            i = int(np.argmin(np.where(om > 0.0, om, np.inf)))
            om[i] += draw(st.sampled_from([0.9, 1.8, 2.7, -0.9])) * RAY_TOL * np.max(om)
        elif kind == "shift":
            below_peak = (om > 0.0) & (om < np.max(om))
            om[below_peak] += draw(st.sampled_from([0.9, -0.9, 1.8])) * RAY_TOL * np.max(om)
        elif kind == "snap":
            om[draw(st.integers(0, d - 1))] = draw(st.sampled_from([ZERO_TOL, -ZERO_TOL, 1e-13]))
        atoms.append(SpectralAtom(om, draw(st.floats(1e-3, 1e3))))
    return d, tuple(atoms)


@settings(max_examples=300, deadline=None)
@given(atom_lists())
def test_merge_matches_the_per_atom_loop(case):
    assert_matches_oracle(*case)


def test_near_tolerance_chain_is_not_transitive():
    a = np.array([1.0, 0.5, 0.25])
    step = np.array([0.0, 0.9 * RAY_TOL, 0.0])
    chain = [SpectralAtom(a + k * step, 1.0) for k in range(3)]
    # a keeps, a + 0.9 tol joins it, a + 1.8 tol is too far from a: two atoms
    assert ExponentMeasure(3, chain).n_atoms == 2
    assert_matches_oracle(3, tuple(chain))
    # led by the middle atom, both neighbours are within tolerance: one atom
    middle_first = (chain[1], chain[0], chain[2])
    assert ExponentMeasure(3, middle_first).n_atoms == 1
    assert_matches_oracle(3, middle_first)


def test_directions_exactly_one_tolerance_apart_merge():
    # 2e-9 - 1e-9 is exactly RAY_TOL in binary floating point
    atoms = (SpectralAtom(np.array([1.0, RAY_TOL]), 1.0),
             SpectralAtom(np.array([1.0, 2 * RAY_TOL]), 1.0))
    assert ExponentMeasure(2, atoms).n_atoms == 1
    assert_matches_oracle(2, atoms)


def test_every_coordinate_just_inside_the_tolerance_merges():
    # moving all entries below the peak at once moves the direction sum by
    # almost (d - 1) tolerances, the widest gap the merge window must span
    rng = np.random.default_rng(8)
    for base in rng.uniform(0.05, 0.95, size=(50, 5)):
        base[0] = 1.0
        moved = base + np.r_[0.0, np.full(4, 0.99 * RAY_TOL)]
        atoms = (SpectralAtom(base, 1.0), SpectralAtom(moved, 2.0))
        assert ExponentMeasure(5, atoms).n_atoms == 1
        assert_matches_oracle(5, atoms)


def test_scaled_duplicates_add_masses_in_input_order():
    rng = np.random.default_rng(5)
    base = rng.uniform(0.1, 1.0, size=(40, 4)) * (rng.uniform(size=(40, 4)) < 0.7)
    base[:, 0] += 0.1
    rows = base[rng.integers(0, 40, size=400)] * rng.uniform(0.5, 2.0, size=(400, 1))
    atoms = tuple(SpectralAtom(om, m) for om, m in zip(rows, rng.uniform(0.1, 5.0, size=400)))
    assert_matches_oracle(4, atoms)


def test_invalid_atoms_merge_like_the_loop():
    # negative and non-finite directions never break the merge
    atoms = (
        SpectralAtom(np.array([1.0, -0.5, 0.0]), 1.0),
        SpectralAtom(np.array([2.0, -1.0, 0.0]), 1.0),
        SpectralAtom(np.array([1.0, np.nan, 0.0]), 1.0),
        SpectralAtom(np.array([1.0, np.nan, 0.0]), 1.0),
        SpectralAtom(np.array([np.inf, 1.0, 0.0]), 1.0),
        SpectralAtom(np.array([0.0, 0.0, 0.0]), 1.0),
        SpectralAtom(np.array([0.0, 0.0, 0.0]), 2.0),
    )
    assert_same_atoms(ExponentMeasure(3, atoms).atoms, oracle_merge(atoms))
