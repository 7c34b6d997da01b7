"""Canonicalisation against the pairwise merge rule.

`oracle_merge` is the rule itself, one atom at a time: an atom joins the
first kept atom of its face whose sup-normalized entries are each within
`RAY_ULPS` ulps of its own, counted by `np.nextafter` steps, and adds its
intensity to that atom's mass.  The keyed merge of `ExponentMeasure` must
return the same atoms in the same order with bit-identical directions and
masses, and a canonical measure must canonicalise to itself.
`test_canonical_form_is_pinned` pins the digests of the canonical arrays
on fixed inputs, and `test_random_measures_are_pinned` those of a few
`random_measure` draws.
"""

import hashlib
import math
import time
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from facetail import ExponentMeasure, random_measure
from facetail.measure import RAY_ULPS, ZERO_TOL

B = RAY_ULPS


def snapped(row):
    # zero-snap one direction relative to its largest entry; a direction
    # with a NaN or an infinity is left alone
    row = np.array(row, dtype=float)
    size = np.abs(row)
    peak = size.max(initial=0.0)
    if np.isfinite(peak):
        row[size <= ZERO_TOL * peak] = 0.0
    return row


def ulps_apart(x, y):
    """Number of `np.nextafter` steps from x to y, or None for opposite signs
    (an entry never reaches one of the other sign)."""
    if math.copysign(1.0, x) != math.copysign(1.0, y):
        return None
    steps, x, y = 0, min(x, y), max(x, y)
    while x < y and steps <= B:
        x, steps = np.nextafter(x, math.inf), steps + 1
    return steps


def oracle_merge(rows, masses):
    # first-occurrence order; the kept atom absorbs the other's intensity
    # contribution mass * omega, so its mass grows by the direction ratio
    kept: list[tuple[np.ndarray, float]] = []
    for row, mass in zip(rows, masses):
        omega, mass = snapped(row), float(mass)
        face = frozenset(np.flatnonzero(omega > 0.0).tolist())
        peak = float(np.max(omega))
        with np.errstate(invalid="ignore", divide="ignore"):
            unit = omega / peak
        mergeable = bool(face) and bool(np.all(np.isfinite(unit)))
        for idx, (other, other_mass) in enumerate(kept):
            other_peak = float(np.max(other))
            with np.errstate(invalid="ignore", divide="ignore"):
                other_unit = other / other_peak
            if mergeable and np.all(np.isfinite(other_unit)) \
                    and frozenset(np.flatnonzero(other > 0.0).tolist()) == face \
                    and all(ulps_apart(p, q) is not None and ulps_apart(p, q) <= B
                            for p, q in zip(unit.tolist(), other_unit.tolist())):
                kept[idx] = (other, other_mass + mass * (peak / other_peak))
                break
        else:
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
    return measure


def moved(x, steps):
    """x moved ``steps`` ulps up (down for negative steps), by `np.nextafter`."""
    for _ in range(abs(steps)):
        x = np.nextafter(x, math.copysign(math.inf, steps))
    return x


def step_below_peak(om, steps, coords):
    """``om`` (largest entry exactly 1.0) with its positive entries below the
    peak at ``coords`` moved ``steps`` ulps, none of them past the peak."""
    om = om.copy()
    for i in coords:
        if 0.0 < om[i] < 1.0:
            om[i] = min(moved(om[i], steps), np.nextafter(1.0, 0.0))
    return om


@st.composite
def atom_lists(draw):
    """Directions built to hit every merge path: scaled duplicates, steps of
    B - 1, B and B + 1 ulps in one entry or in every entry below the peak
    (from a base or from an earlier row, so steps chain), entries that snap
    to zero or stay just negative, and repeated faces."""
    d = draw(st.integers(1, 5))
    n_base = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0.0), st.floats(0.05, 1.0), st.just(ZERO_TOL / 2))
    bases = []
    for _ in range(n_base):
        base = np.array(draw(st.lists(entry, min_size=d, max_size=d)))
        bases.append(base / base.max() if base.max() > ZERO_TOL else base)
    rows, masses = [], []
    for _ in range(draw(st.integers(1, 24))):
        pool = bases + rows
        om = pool[draw(st.integers(0, len(pool) - 1))].copy()
        kind = draw(st.sampled_from(["copy", "scaled", "one", "all", "snap", "negative"]))
        if kind == "scaled":
            om = om * draw(st.floats(0.25, 4.0))
        elif kind in ("one", "all") and om.max() == 1.0:
            steps = draw(st.sampled_from([B - 1, B, B + 1, 1 - B, -B, -B - 1]))
            coords = [draw(st.integers(0, d - 1))] if kind == "one" else range(d)
            om = step_below_peak(om, steps, coords)
        elif kind == "snap":
            om[draw(st.integers(0, d - 1))] = draw(st.sampled_from([ZERO_TOL, -ZERO_TOL, 1e-13]))
        elif kind == "negative":
            om[draw(st.integers(0, d - 1))] = -2 * ZERO_TOL * np.max(np.abs(om))
        rows.append(om)
        masses.append(draw(st.floats(1e-3, 1e3)))
    return d, np.array(rows), masses


@settings(max_examples=300, deadline=None)
@given(atom_lists())
def test_merge_matches_the_per_atom_loop(case):
    assert_matches_oracle(*case)


@st.composite
def packed_clusters(draw):
    """Up to 40 atoms on one face whose entries below the peak lie within 3B
    ulps of a base's, so many pairs are within B and the gaps that end the
    merge's cells fall between them."""
    d = draw(st.integers(2, 4))
    base = np.array([1.0] + draw(st.lists(st.floats(0.05, 0.99), min_size=d - 1,
                                          max_size=d - 1)))
    n = draw(st.integers(2, 40))
    rows = [np.r_[1.0, [moved(x, draw(st.integers(0, 3 * B))) for x in base[1:]]]
            for _ in range(n)]
    return d, np.array(rows), draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(packed_clusters())
def test_packed_clusters_merge_like_the_loop(case):
    assert_matches_oracle(*case)


def stepped_chain(steps, coords, d=4):
    """Atoms whose entries at ``coords`` move by ``steps`` ulps from one atom to
    the next, from 0.75, with peak 1.0 and 0.75 elsewhere: a step of B + 1 is
    a gap that ends a cell, a step of B is not."""
    rows = np.full((len(steps) + 1, d), 0.75)
    rows[:, 0] = 1.0
    for k, step in enumerate(steps):
        rows[k + 1, coords] = moved(rows[k, coords[0]], step)
    return rows


def test_chains_across_cell_edges_merge_like_the_loop():
    rng = np.random.default_rng(3)
    for steps, atoms in (([B] * 9, 5), ([B + 1] * 9, 10), ([B, B + 1] * 5, 6),
                         ([B + 1, 1, B, B + 1, B - 1, 1, B + 1], None)):
        for coords in ([1], [1, 2], [1, 2, 3]):
            rows = stepped_chain(steps, coords)
            if atoms is not None:
                # each kept atom takes in the next one when it is B ulps on,
                # never the one after
                assert ExponentMeasure(4, rows, np.ones(len(rows))).n_atoms == atoms
            for order in (rows, rows[::-1], rng.permutation(rows)):
                assert_matches_oracle(4, order, np.ones(len(rows)))


def test_near_tolerance_chain_is_not_transitive():
    chain = np.array([np.r_[1.0, moved(0.5, k * B), 0.25] for k in range(3)])
    ones = [1.0, 1.0, 1.0]
    # a keeps, a + B ulps joins it, a + 2B ulps is too far from a: two atoms
    assert ExponentMeasure(3, chain, ones).n_atoms == 2
    assert_matches_oracle(3, chain, ones)
    # led by the middle atom, both neighbours are within B ulps: one atom
    middle_first = chain[[1, 0, 2]]
    assert ExponentMeasure(3, middle_first, ones).n_atoms == 1
    assert_matches_oracle(3, middle_first, ones)


def test_directions_exactly_one_tolerance_apart_merge():
    # B ulps apart merge and B + 1 do not, across binade edges too, where
    # the ulp halves (0.5 stepped down) or doubles (nextafter(0.5, 0) up)
    for x in (0.3, 0.5, np.nextafter(0.5, 0.0), 2.0 ** -20, 0.999):
        for steps in (B, -B):
            rows = [[1.0, x], [1.0, moved(x, steps)]]
            assert assert_matches_oracle(2, rows, [1.0, 1.0]).n_atoms == 1
        for steps in (B + 1, -B - 1):
            rows = [[1.0, x], [1.0, moved(x, steps)]]
            assert assert_matches_oracle(2, rows, [1.0, 1.0]).n_atoms == 2


def test_every_coordinate_just_inside_the_tolerance_merges():
    rng = np.random.default_rng(8)
    for base in rng.uniform(0.05, 0.95, size=(50, 5)):
        base[0] = 1.0
        inside, outside = step_below_peak(base, B, range(5)), step_below_peak(base, B + 1, [4])
        assert assert_matches_oracle(5, [base, inside], [1.0, 2.0]).n_atoms == 1
        assert assert_matches_oracle(5, [base, outside], [1.0, 2.0]).n_atoms == 2


def test_scaled_duplicates_add_masses_in_input_order():
    rng = np.random.default_rng(5)
    base = rng.uniform(0.1, 1.0, size=(40, 4)) * (rng.uniform(size=(40, 4)) < 0.7)
    base[:, 0] += 0.1
    picks = rng.integers(0, 40, size=400)
    rows = base[picks] * rng.uniform(0.5, 2.0, size=(400, 1))
    measure = assert_matches_oracle(4, rows, rng.uniform(0.1, 5.0, size=400))
    assert measure.n_atoms == len(set(picks.tolist()))


@st.composite
def scaled_clusters(draw):
    """Atoms c * omega for a few rays omega on a coarse grid, c = e^U(-40, 40)."""
    d = draw(st.integers(1, 5))
    grid = st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.5, 0.7, 1.0])
    rays = [np.array(draw(st.lists(grid, min_size=d, max_size=d))) for _ in range(3)]
    rays = [ray for ray in rays if ray.max() > 0.0] or [np.ones(d)]
    n = draw(st.integers(1, 30))
    rows = [rays[draw(st.integers(0, len(rays) - 1))] * math.exp(draw(st.floats(-40, 40)))
            for _ in range(n)]
    masses = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    return d, np.array(rows), np.array(masses), draw(st.permutations(range(n)))


def normalized(measure):
    """(face, ray mass, sup-normalized direction) per atom, in a fixed order."""
    peak = measure.omega_matrix.max(axis=1)
    unit = measure.omega_matrix / peak[:, None]
    atoms = zip(measure.face_masks.tolist(), measure.mass_vector * peak, unit)
    return sorted(atoms, key=lambda atom: (atom[0], np.round(atom[2], 6).tolist()))


@settings(max_examples=200, deadline=None)
@given(scaled_clusters())
def test_permuting_scaled_duplicates_moves_only_roundoff(case):
    # any two scaled copies of one ray are within B ulps once normalized, so
    # every order leaves one atom per ray; the kept copy and the order of the
    # mass sums change, by B ulps per entry and gamma_n of each ray's mass
    d, rows, masses, order = case
    first = ExponentMeasure(d, rows, masses)
    permuted = ExponentMeasure(d, rows[order], masses[order])
    rays = {tuple(np.round(row / row.max(), 12).tolist()) for row in rows}
    assert permuted.n_atoms == first.n_atoms == len(rays)
    n = len(rows) + 4
    gamma = n * 2.0 ** -53 / (1 - n * 2.0 ** -53)
    for (face, mass, unit), (face2, mass2, unit2) in zip(normalized(first), normalized(permuted)):
        assert face == face2
        assert all(ulps_apart(p, q) <= B for p, q in zip(unit.tolist(), unit2.tolist()))
        assert abs(mass - mass2) <= 2 * gamma * mass


@st.composite
def loners_and_near_duplicates(draw):
    """Atoms alone on their face among groups that share one: copies of a
    base moved 0, B or B + 1 ulps in one entry or in every entry below the
    peak, scaled by a power of two, some with a NaN entry (never mergeable),
    in a shuffled order.  With ``alone`` every face is distinct; at d = 64
    the face masks are Python ints."""
    d = draw(st.sampled_from([2, 3, 4, 5, 6, 64]))
    faces = draw(st.lists(st.integers(1, 2 ** d - 1), min_size=1, max_size=10, unique=True))
    alone = draw(st.booleans())
    rows = []
    for mask in faces:
        coords = [i for i in range(d) if mask >> i & 1]
        base = np.zeros(d)
        base[coords] = draw(st.lists(st.floats(0.05, 1.0), min_size=len(coords),
                                     max_size=len(coords)))
        base /= base.max()
        rows.append(base)
        for _ in range(0 if alone else draw(st.integers(0, 3))):
            steps = draw(st.sampled_from([0, B, -B, B + 1, -B - 1]))
            moved_at = [draw(st.sampled_from(coords))] if draw(st.booleans()) else coords
            om = step_below_peak(base, steps, moved_at) * draw(st.sampled_from([1.0, 0.5, 4.0]))
            if draw(st.integers(0, 9)) == 0:
                om[draw(st.sampled_from(coords))] = np.nan
            rows.append(om)
    order = draw(st.permutations(range(len(rows))))
    masses = draw(st.lists(st.floats(1e-3, 1e3), min_size=len(rows), max_size=len(rows)))
    return d, np.array(rows)[order], np.array(masses)[order]


@settings(max_examples=300, deadline=None)
@given(loners_and_near_duplicates())
def test_atoms_alone_on_their_face_stay_out_of_the_walk(case):
    # leaving them out changes the cells of the others, never whom they merge with
    assert_matches_oracle(*case)


def test_all_distinct_faces_are_kept_as_given():
    # every nonempty face of d = 5 once, and 40 faces of d = 64 holding
    # coordinate 63, so their masks are Python ints past 2**63
    rng = np.random.default_rng(9)
    for d, masks in ((5, rng.permutation(31) + 1),
                     (64, [1 << 63 | int(m) for m in rng.choice(2 ** 62, 40, replace=False)])):
        rows = np.array([[rng.uniform(0.1, 1.0) if int(m) >> i & 1 else 0.0 for i in range(d)]
                         for m in masks])
        masses = rng.uniform(0.5, 2.0, len(rows))
        measure = assert_matches_oracle(d, rows, masses)
        assert measure.omega_matrix.tobytes() == rows.tobytes()
        assert measure.mass_vector.tobytes() == masses.tobytes()
        assert measure.face_masks.tolist() == [int(m) for m in masks]


def test_merges_past_62_coordinates_match_the_loop():
    # faces holding coordinate 63 have Python-int masks: on each shared face a
    # base, its scaled copies and copies moved B ulps (every entry below the
    # peak, or one) join the base, a copy moved B + 1 ulps stays; plus one
    # atom alone on its face, the faces interleaved
    rng = np.random.default_rng(64)
    shared, alone = [[63, 0, 5], [63, 1, 2, 40], [0, 63]], [63, 7]
    groups = []
    for coords in shared:
        base = np.zeros(64)
        base[coords] = rng.uniform(0.1, 1.0, len(coords))
        base /= base.max()
        groups.append([base, 4.0 * base, 3.0 * base, step_below_peak(base, B, coords),
                       step_below_peak(base, B + 1, coords), step_below_peak(base, -B, coords[1:2])])
    loner = np.zeros(64)
    loner[alone] = [0.5, 1.0]
    rows = np.array([row for step in zip(*groups) for row in step] + [loner])
    measure = assert_matches_oracle(64, rows, rng.uniform(0.5, 2.0, len(rows)))
    assert measure.face_masks.dtype == object
    assert measure.face_masks.tolist() == [sum(1 << i for i in c) for c in shared] * 2 \
        + [1 << 63 | 1 << 7]


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


def test_same_sum_directions_build_in_linear_time():
    # [1, a, 0.5 - a] all have one entry sum, the input that made a window
    # of entry sums compare every pair; rays B + 1 ulps apart in one entry,
    # the closest two distinct rays can be, each end a cell; all J are kept
    a = np.linspace(0.01, 0.49, 4000)
    packed = (np.float64(0.5).view(np.int64) + (B + 1) * np.arange(4000)).view(np.float64)
    for omega in (np.c_[np.ones_like(a), a, 0.5 - a], np.c_[np.ones_like(a), packed]):
        start = time.perf_counter()
        measure = ExponentMeasure(omega.shape[1], omega, np.ones_like(a))
        assert time.perf_counter() - start < 1.0
        assert measure.n_atoms == 4000


def chained_rays(n):
    """Rays ``[1, 0.5 + 3k ulps]``: each is within B ulps of the next two, so
    all n share one cell, and every third atom is kept."""
    x = (np.float64(0.5).view(np.int64) + 3 * np.arange(n)).view(np.float64)
    return np.c_[np.ones(n), x], np.random.default_rng(n).uniform(0.5, 2.0, n)


def test_chained_rays_build_in_linear_time():
    # a kept atom is compared only with the kept atoms of its cell within B
    # ulps in one column, not with the whole cell: J = 4000 once took 2.3 s
    omega, masses = chained_rays(4000)
    start = time.perf_counter()
    measure = ExponentMeasure(2, omega, masses)
    assert time.perf_counter() - start < 1.0
    # atom 3m absorbs 3m + 1 and 3m + 2 (3 and 6 ulps on); 3m + 3 is 9 ulps on
    assert measure.omega_matrix.tobytes() == omega[::3].tobytes()
    want = masses[::3].copy()
    np.add.at(want, np.arange(4000)[1::3] // 3, masses[1::3])
    np.add.at(want, np.arange(4000)[2::3] // 3, masses[2::3])
    assert measure.mass_vector.tobytes() == want.tobytes()
    # the pairwise oracle is quadratic here, so it runs on a shorter chain,
    # forwards and backwards
    for omega, masses in (chained_rays(300), [a[::-1] for a in chained_rays(299)]):
        assert_matches_oracle(2, omega, masses)


def test_canonicalisation_memory_is_proportional_to_its_input():
    # J = 2e5 random d = 8 directions, about 40% of entries nonzero, and 10%
    # scaled copies, peak in units of the directions' J * d * 8 bytes under
    # tracemalloc: walking only atoms that share every cell takes about 9,
    # Python lists of every face-sharing atom's cells and bits about 22
    rng = np.random.default_rng(2)
    J, d = 200_000, 8
    base = np.where(rng.random((J, d)) < 1 / 3, rng.uniform(0.05, 1.0, (J, d)), 0.0)
    base[np.arange(J), rng.integers(0, d, J)] = rng.uniform(0.05, 1.0, J)  # no empty row
    copies = rng.choice(J, J // 10, replace=False)
    omega = np.vstack([base, base[copies] * rng.choice([0.5, 2.0, 3.0], (len(copies), 1))])
    tracemalloc.start()
    try:
        measure = ExponentMeasure(d, omega, rng.uniform(0.5, 2.0, len(omega)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14 * omega.nbytes
    # the copies merge, and so do the rows whose one positive entry is in one
    # coordinate; no other two rows are one ray
    single = (base > 0.0).sum(axis=1) == 1
    assert measure.n_atoms == J - single.sum() + len(np.unique(base[single].argmax(axis=1)))


#: SHA-256 of the canonical arrays of each case in `canonical_cases`, as
#: built from the same atoms before the constructor took arrays; under
#: `RAY_ULPS` the 1e-9 chains and pairs stay apart, and in the seeded lists a
#: row with a -1e-12 entry no longer merges with a valid row, nor a row
#: whose 5e-13 entry normalizes about 1e-12 from another's
PINNED_DIGESTS = {
    "m_ind": "c9af8035ee58bb77a4a41152a7bed6ca0571fc50736ebfdf6b7f657190084280",
    "m_dep": "6d486d767656b32f228728ea10974a69de88386723c22efd01c5f2ddda06ef3d",
    "m_blk": "e42336b49239c5884d25903c2b66aa19bb12a3545eac6eb70de84bb8ce725bdf",
    "empty": "1f1868f06925b61765ed3f845bb2c9d04e2dc1ae4356b7495dcae6bc18ed7150",
    "chain": "c6ba4a8ef5b1e722bd577515201e4cf70b50c38a09208a9694381f467835cae7",
    "chain_middle_first": "334730149c1a1548793cf016a39e073512fae7416c4dcfb0b571198d42effed2",
    "one_tolerance_apart": "af288e2db8c2d0987bad0d21536e8a8975fbf07285b120ebc3a3821da74e33f4",
    "ray_tol_window": "fc6013ce6b94e9416c7e53715de8492da658f8b4748cc5bda6ad0e7a0cbb0602",
    "scaled_duplicates": "1aa34b45493748576aef7f19b8fe6dddca3faf94f96f2141098772757d01c5c2",
    "invalid": "400ce385bf55ee3f4ce98d36ca5caeedcec516767e658bda482bbd27bd3ebc0a",
    "seeded_0": "c25da813b7b5b5671284b039f4d44a5365439db84807f784d3544d7e083eb9fa",
    "seeded_1": "49437eba9c560daafa3e8366b1e37961ef6c925fdc1bb4f7865c09840917aa21",
    "seeded_2": "601651cc69f3f22aff081d8c0c2c1567208e50be507d1a1a1350b7798a434d6b",
    "seeded_3": "c55da03a755b8ee03b7b207787e0a395b54ae1484d32ea22ae97a65d89dd74a3",
    "seeded_4": "67bdac237d12dee08598f00beada868cf98c72034d2c8723d75fcdeec52f3909",
    "seeded_5": "e399455b86849fde71426a83f6b3874c2ee12b1ab1fc16704f755abe7b2eef0c",
}


def canonical_cases():
    """name -> (d, rows, masses), or a list of them: the conftest measures,
    no atoms, chains and pairs 1e-9 apart (the fixed window the merge used before
    `RAY_ULPS`, so these rays now stay apart), and seeded lists
    with scaled duplicates, snapped entries and NaN, inf, negative, zero and
    huge rows."""
    cases = {
        "m_ind": (2, [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0]),
        "m_dep": (2, [[0.5, 0.5]], [2.0]),
        "m_blk": (3, [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]], [2.0, 1.0]),
        "empty": (3, np.zeros((0, 3)), []),
    }
    a, step = np.array([1.0, 0.5, 0.25]), np.array([0.0, 0.9e-9, 0.0])
    chain = [a + k * step for k in range(3)]
    cases["chain"] = (3, chain, [1.0, 1.0, 1.0])
    cases["chain_middle_first"] = (3, [chain[1], chain[0], chain[2]], [1.0, 1.0, 1.0])
    cases["one_tolerance_apart"] = (2, [[1.0, 1e-9], [1.0, 2e-9]], [1.0, 1.0])
    rng = np.random.default_rng(8)
    window = []
    for base in rng.uniform(0.05, 0.95, size=(50, 5)):
        base[0] = 1.0
        shifted = base + np.r_[0.0, np.full(4, 0.99e-9)]
        window.append((5, [base, shifted], [1.0, 2.0]))
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


#: SHA-256 over the shape, the directions and the masses (little-endian
#: float64) of `random_measure(d, n_atoms, split, seed)`, as drawn one face,
#: entry and mass at a time; the faces follow from the directions
PINNED_RANDOM_MEASURES = {
    (4, 7, None, 11): "354cd93798df449673f594ba931cf7bf51bd0c0c5c8670a2fdd2bd6c963b83fd",
    (6, 10, ((0, 2, 4), (1, 3, 5)), 12):
        "758a9c7d659592104a5a27517cc850b66e7f4dea9ee68f58b2dbe61a9da1d39e",
    (10, 16, None, 13): "a56b97116cca4a8f75a054b4a9470561066398a59d30d3dae37145302c0deb72",
    (64, 80, (tuple(range(32)), tuple(range(32, 64))), 14):
        "d9a6511f5baba009d6804f78132d1d07904127faf8527ab9594150a06bc6c0f3",
}


def test_random_measures_are_pinned():
    got = {}
    for d, n_atoms, split, seed in PINNED_RANDOM_MEASURES:
        m = random_measure(d, n_atoms, split=split, seed=seed)
        h = hashlib.sha256()
        h.update(repr(m.omega_matrix.shape).encode())
        h.update(m.omega_matrix.astype("<f8").tobytes())
        h.update(m.mass_vector.astype("<f8").tobytes())
        got[d, n_atoms, split, seed] = h.hexdigest()
    assert got == PINNED_RANDOM_MEASURES
