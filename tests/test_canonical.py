"""Canonicalisation against the original per-atom merge loop.

`oracle_merge` is the merge `ExponentMeasure` ran before its canonical form
became arrays, kept verbatim on (row, mass) pairs.  The array merge must
return the same atoms in the same order with bit-identical directions and
masses.  `test_canonical_form_is_pinned` pins the digests of the canonical
arrays on fixed inputs.
"""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from facetail import ExponentMeasure
from facetail.measure import RAY_TOL, ZERO_TOL


def snapped(row):
    # zero-snap one direction relative to its largest entry; a direction
    # with a NaN or an infinity is left alone
    row = np.array(row, dtype=float)
    size = np.abs(row)
    peak = size.max(initial=0.0)
    if np.isfinite(peak):
        row[size <= ZERO_TOL * peak] = 0.0
    return row


def oracle_merge(rows, masses):
    # first-occurrence order; the kept atom absorbs the other's intensity
    # contribution mass * omega, so its mass grows by the direction ratio
    kept: list[tuple[np.ndarray, float]] = []
    for row, mass in zip(rows, masses):
        omega, mass = snapped(row), float(mass)
        face = frozenset(np.flatnonzero(omega > 0.0).tolist())
        merged = False
        if face:
            peak = float(np.max(omega))
            for idx, (other, other_mass) in enumerate(kept):
                if frozenset(np.flatnonzero(other > 0.0).tolist()) != face:
                    continue
                other_peak = float(np.max(other))
                if np.max(np.abs(omega / peak - other / other_peak)) <= RAY_TOL:
                    scale = peak / other_peak
                    kept[idx] = (other, other_mass + mass * scale)
                    merged = True
                    break
        if not merged:
            kept.append((omega, mass))
    return kept


def assert_same_atoms(measure, want):
    assert measure.n_atoms == len(want)
    for omega, mass, (want_omega, want_mass) in zip(measure.omega_matrix,
                                                    measure.mass_vector, want):
        assert omega.tobytes() == want_omega.tobytes()
        assert mass.tobytes() == np.float64(want_mass).tobytes()


def assert_matches_oracle(d, rows, masses):
    measure = ExponentMeasure(d, rows, masses)
    assert_same_atoms(measure, oracle_merge(rows, masses))
    # idempotence: canonicalising a canonical measure changes nothing
    again = ExponentMeasure(d, measure.omega_matrix, measure.mass_vector)
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
    rows, masses = [], []
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
        rows.append(om)
        masses.append(draw(st.floats(1e-3, 1e3)))
    return d, np.array(rows), masses


@settings(max_examples=300, deadline=None)
@given(atom_lists())
def test_merge_matches_the_per_atom_loop(case):
    assert_matches_oracle(*case)


def test_near_tolerance_chain_is_not_transitive():
    a = np.array([1.0, 0.5, 0.25])
    step = np.array([0.0, 0.9 * RAY_TOL, 0.0])
    chain = np.array([a + k * step for k in range(3)])
    ones = [1.0, 1.0, 1.0]
    # a keeps, a + 0.9 tol joins it, a + 1.8 tol is too far from a: two atoms
    assert ExponentMeasure(3, chain, ones).n_atoms == 2
    assert_matches_oracle(3, chain, ones)
    # led by the middle atom, both neighbours are within tolerance: one atom
    middle_first = chain[[1, 0, 2]]
    assert ExponentMeasure(3, middle_first, ones).n_atoms == 1
    assert_matches_oracle(3, middle_first, ones)


def test_directions_exactly_one_tolerance_apart_merge():
    # 2e-9 - 1e-9 is exactly RAY_TOL in binary floating point
    rows = [[1.0, RAY_TOL], [1.0, 2 * RAY_TOL]]
    assert ExponentMeasure(2, rows, [1.0, 1.0]).n_atoms == 1
    assert_matches_oracle(2, rows, [1.0, 1.0])


def test_every_coordinate_just_inside_the_tolerance_merges():
    # moving all entries below the peak at once moves the direction sum by
    # almost (d - 1) tolerances, the widest gap the merge window must span
    rng = np.random.default_rng(8)
    for base in rng.uniform(0.05, 0.95, size=(50, 5)):
        base[0] = 1.0
        moved = base + np.r_[0.0, np.full(4, 0.99 * RAY_TOL)]
        assert ExponentMeasure(5, [base, moved], [1.0, 2.0]).n_atoms == 1
        assert_matches_oracle(5, [base, moved], [1.0, 2.0])


def test_scaled_duplicates_add_masses_in_input_order():
    rng = np.random.default_rng(5)
    base = rng.uniform(0.1, 1.0, size=(40, 4)) * (rng.uniform(size=(40, 4)) < 0.7)
    base[:, 0] += 0.1
    rows = base[rng.integers(0, 40, size=400)] * rng.uniform(0.5, 2.0, size=(400, 1))
    assert_matches_oracle(4, rows, rng.uniform(0.1, 5.0, size=400))


def test_invalid_atoms_merge_like_the_loop():
    # negative and non-finite directions never break the merge
    rows = [
        [1.0, -0.5, 0.0],
        [2.0, -1.0, 0.0],
        [1.0, np.nan, 0.0],
        [1.0, np.nan, 0.0],
        [np.inf, 1.0, 0.0],
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
    ]
    masses = [1.0] * 6 + [2.0]
    assert_same_atoms(ExponentMeasure(3, rows, masses), oracle_merge(rows, masses))


#: SHA-256 of the canonical arrays of each case in `canonical_cases`, as
#: built from the same atoms before the constructor took arrays
PINNED_DIGESTS = {
    "m_ind": "c9af8035ee58bb77a4a41152a7bed6ca0571fc50736ebfdf6b7f657190084280",
    "m_dep": "6d486d767656b32f228728ea10974a69de88386723c22efd01c5f2ddda06ef3d",
    "m_blk": "e42336b49239c5884d25903c2b66aa19bb12a3545eac6eb70de84bb8ce725bdf",
    "empty": "1f1868f06925b61765ed3f845bb2c9d04e2dc1ae4356b7495dcae6bc18ed7150",
    "chain": "e45521328ee11c97bd42a427f670763ca2783d95b4c7914cb17bdc1e3572c2c1",
    "chain_middle_first": "df6debf2dfdd370992b50f532309da5ff0901cb687c9a3bdaa8abbf03e03501b",
    "one_tolerance_apart": "bb3ef6bb92ebf48b33cd2c2fd2848b70f41b9c84a6236d5d493be1d7f968d9f1",
    "ray_tol_window": "2a0fe13da60c401153da229b35798f60c443923cb2853328870568d54f81edc4",
    "scaled_duplicates": "1aa34b45493748576aef7f19b8fe6dddca3faf94f96f2141098772757d01c5c2",
    "invalid": "400ce385bf55ee3f4ce98d36ca5caeedcec516767e658bda482bbd27bd3ebc0a",
    "seeded_0": "c25da813b7b5b5671284b039f4d44a5365439db84807f784d3544d7e083eb9fa",
    "seeded_1": "417cd6912f879154a78cbc2476638f14366f72abb530e490998012c473710b4b",
    "seeded_2": "caba17ca6eae993fcc23a2a2a2d43d80e00c7d5243b0ad6ba2a3a1289cca7b9d",
    "seeded_3": "7cb22159855a5ef90d558cacd05186635e0a1076495d65ca6d0958b52fb669fe",
    "seeded_4": "b8249ddc534d0f35dcbce996ac08d95e1a870a3aa9f9aa58924f42fd7b4bff04",
    "seeded_5": "4db4914a13d8d465eb8583d53de4b2c702c739fe65ce234b6510594a24d463b0",
}


def canonical_cases():
    """name -> (d, rows, masses), or a list of them: the conftest measures,
    no atoms, the chain and `RAY_TOL`-window cases above, and seeded lists
    with scaled duplicates, snapped entries and NaN, inf, negative, zero and
    huge rows."""
    cases = {
        "m_ind": (2, [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0]),
        "m_dep": (2, [[0.5, 0.5]], [2.0]),
        "m_blk": (3, [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]], [2.0, 1.0]),
        "empty": (3, np.zeros((0, 3)), []),
    }
    a, step = np.array([1.0, 0.5, 0.25]), np.array([0.0, 0.9 * RAY_TOL, 0.0])
    chain = [a + k * step for k in range(3)]
    cases["chain"] = (3, chain, [1.0, 1.0, 1.0])
    cases["chain_middle_first"] = (3, [chain[1], chain[0], chain[2]], [1.0, 1.0, 1.0])
    cases["one_tolerance_apart"] = (2, [[1.0, RAY_TOL], [1.0, 2 * RAY_TOL]], [1.0, 1.0])
    rng = np.random.default_rng(8)
    window = []
    for base in rng.uniform(0.05, 0.95, size=(50, 5)):
        base[0] = 1.0
        moved = base + np.r_[0.0, np.full(4, 0.99 * RAY_TOL)]
        window.append((5, [base, moved], [1.0, 2.0]))
    cases["ray_tol_window"] = window
    rng = np.random.default_rng(5)
    base = rng.uniform(0.1, 1.0, size=(40, 4)) * (rng.uniform(size=(40, 4)) < 0.7)
    base[:, 0] += 0.1
    rows = base[rng.integers(0, 40, size=400)] * rng.uniform(0.5, 2.0, size=(400, 1))
    cases["scaled_duplicates"] = (4, rows, rng.uniform(0.1, 5.0, size=400))
    cases["invalid"] = (3, [[1.0, -0.5, 0.0], [2.0, -1.0, 0.0], [1.0, np.nan, 0.0],
                            [1.0, np.nan, 0.0], [np.inf, 1.0, 0.0], [0.0, 0.0, 0.0],
                            [0.0, 0.0, 0.0]], [1.0] * 6 + [2.0])
    for seed in range(6):
        rng = np.random.default_rng(100 + seed)
        d = int(rng.integers(1, 7))
        base = rng.uniform(0.05, 1.0, size=(8, d)) * (rng.uniform(size=(8, d)) < 0.6)
        rows = base[rng.integers(0, 8, size=60)] * rng.uniform(0.25, 4.0, size=(60, 1))
        pick = rng.uniform(size=rows.shape)
        rows[pick < 0.05] = ZERO_TOL / 2
        rows[(pick >= 0.05) & (pick < 0.08)] = 1e-13
        rows[(pick >= 0.08) & (pick < 0.10)] = -ZERO_TOL
        special = rng.integers(0, 60, size=5)
        rows[special[0], 0] = np.nan
        rows[special[1], -1] = np.inf
        rows[special[2]] = -rows[special[2]]
        rows[special[3]] = 0.0
        rows[special[4]] *= 1e300
        cases[f"seeded_{seed}"] = (d, rows, rng.uniform(1e-3, 1e3, size=60))
    return cases


def digest(measures):
    h = hashlib.sha256()
    for measure in measures:
        h.update(repr(measure.omega_matrix.shape).encode())
        h.update(measure.omega_matrix.astype("<f8").tobytes())
        h.update(measure.mass_vector.astype("<f8").tobytes())
        h.update(measure.face_masks.astype("<i8").tobytes())
    return h.hexdigest()


def test_canonical_form_is_pinned():
    got = {}
    for name, case in canonical_cases().items():
        cases = case if isinstance(case, list) else [case]
        got[name] = digest([ExponentMeasure(d, rows, masses) for d, rows, masses in cases])
    assert got == PINNED_DIGESTS
