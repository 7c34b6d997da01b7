"""Kernels against the code they replaced.

Conditional rectangle probabilities, face-interior masses, the extended
exponent and exact chi each used to compute their own ratios of directions
to points.  The ``oracle_*`` functions below are those implementations,
kept verbatim.  The kernel versions must agree with them to a few ulps and
be exactly 0.0 where the oracle is, over masses from 1e-12 to 1e6 and
direction entries down to 1e-11.

The reports used to run one bipartition at a time; `oracle_full_report`
and its helpers are that code, kept verbatim, and the criteria run over a
batch of bipartitions must reproduce it bit for bit.

The empirical chi used to rank every column by sorting;
`oracle_chi_empirical` and `oracle_midranks` are that code, kept verbatim,
and the exceedances found by selection must reproduce it bit for bit.

`random_measure` used to draw each face, entry and mass with its own
generator call; `oracle_random_measure` is that loop, kept verbatim, and the
bulk draws must give the same bytes and leave a passed `Generator` in the
same state.

The conditional sampler used to binary-search every row's uniform;
`oracle_conditional_rows` is that code, kept verbatim, and the search
started from the cell table must draw the same bytes.

Certification and the battery used to build one `Bipartition` per part;
they now build membership rows from the parts' integer codes.  The rows,
certification's expected verdicts and `oracle_battery`, that loop kept
verbatim, must agree with the per-part code.

Dependence graphs read their components off a transitive closure built by
squaring; `oracle_graph` is a plain breadth-first search over the same
edges, and both must give the same edges and components.
"""

import collections
import contextlib
import dataclasses
import io
import itertools
import json
import math
import os
import re
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import facetail as ft
import facetail.independence as independence
from facetail.cli import main
from facetail.estimate import ChiMatrix, _exceedances, _require_finite
from facetail.measure import ZERO_TOL
from facetail.partition import _code_membership, _decode, _membership
from facetail.simulate import (_CELLS_PER_ATOM, _KIND_CONDITIONAL, _WORDS_PER_TICK, _batch_key,
                               _conditional_rows, _row_blocks, _uniforms)

EPS = np.finfo(float).eps


def oracle_upper_rectangle(law, coords, x):
    om = law.measure.omega_matrix[np.array(law.atom_indices, dtype=int)][:, coords]
    supported = np.all(om > 0.0, axis=1)
    if not np.any(supported):
        return 0.0
    needed_radius = np.max(x[None, :] / om[supported], axis=1)
    tail = np.minimum(1.0, law.r_min[supported] / needed_radius)
    return float(law.weights[supported] @ tail)


def oracle_running_sum(terms):
    # left to right in atom order, as a plain accumulation loop adds them
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


def oracle_face_interior_mass(measure, coords, threshold=1.0):
    idx = sorted(set(int(i) for i in coords))
    imask = sum(1 << i for i in idx)
    inside = (measure.face_masks & imask) == imask
    terms = measure.mass_vector[inside] * np.min(measure.omega_matrix[inside][:, idx], axis=1)
    return oracle_running_sum(terms / threshold)


def oracle_exponent_function_extended(measure, x):
    x = np.asarray(x, dtype=float).reshape(-1)
    zero = x == 0.0
    if not np.any(zero):
        return ft.exponent_function(measure, x)
    if np.any(measure.omega_matrix[:, zero] > 0.0):
        return math.inf
    ratios = measure.omega_matrix[:, ~zero] / x[~zero]
    return oracle_running_sum(measure.mass_vector * np.max(ratios, axis=1, initial=0.0))


def oracle_chi_exact(measure, i, j):
    pair = ft.marginalize(measure, [i, j])
    # no atom charging both coordinates means chi is 0 exactly; skipping the
    # subtraction avoids reporting its roundoff as spurious dependence
    if not np.any(pair.face_masks == 0b11):
        return 0.0
    value = 2.0 - ft.exponent_function(pair, np.ones(2))
    return float(min(1.0, max(0.0, value)))


def assert_close(got, want, n_terms):
    # both sides sum n_terms positive terms, each with a few roundings
    assert (got == 0.0) == (want == 0.0), (got, want)
    assert abs(got - want) <= (2 * n_terms + 8) * EPS * abs(want), (got, want)


@st.composite
def measures(draw, d_min=1, cover=False):
    """Atoms on random faces with entries from 1e-11 to 1 and masses from
    1e-12 to 1e6, log-uniform; with ``cover`` every coordinate is charged."""
    d = draw(st.integers(d_min, 6))
    n_atoms = draw(st.integers(1, 10))
    omega = np.zeros((n_atoms, d))
    for row in omega:
        face = sorted(draw(st.sets(st.integers(0, d - 1), min_size=1)))
        row[face] = [10.0 ** draw(st.floats(-11.0, 0.0)) for _ in face]
    if cover:
        dead = ~np.any(omega > 0.0, axis=0)
        omega[0, dead] = 10.0 ** draw(st.floats(-11.0, 0.0))
    mass = [10.0 ** draw(st.floats(-12.0, 6.0)) for _ in range(n_atoms)]
    return ft.ExponentMeasure(d, omega, mass)


thresholds = st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e)


def standardized(m):
    """``standardize(m)`` with its faces checked, or None when `standardize`
    refuses, after checking that the entry it names would indeed fall to
    the zero-snap and leave its face."""
    try:
        std = ft.standardize(m)
    except ValueError as exc:
        j, i = (int(word) for word in re.findall(r"(?:atom|coordinate) (\d+)", str(exc))[:2])
        row = m.omega_matrix[j] / ft.margins(m)
        assert m.omega_matrix[j, i] > 0.0 and row[i] <= ZERO_TOL * row.max()
        return None
    # atoms that scaling brings within RAY_ULPS of each other merge, on one face
    assert set(std.face_masks.tolist()) == set(m.face_masks.tolist())
    return std


@settings(max_examples=300, deadline=None)
@given(measures(), st.data())
def test_conditional_rectangles_match_the_pareto_tail_code(m, data):
    charged = np.flatnonzero(ft.margins(m) > 0.0).tolist()
    law = ft.conditional_law(m, data.draw(st.sampled_from(charged)))
    coords = data.draw(st.lists(st.integers(0, m.d - 1), min_size=1, unique=True))
    x = np.array([data.draw(thresholds) for _ in coords])
    assert_close(ft.marginal_rectangle_probability(law, coords, x),
                 oracle_upper_rectangle(law, np.array(coords), x), m.n_atoms)
    full = np.array([data.draw(thresholds) for _ in range(m.d)])
    assert_close(ft.rectangle_probability(law, full),
                 oracle_upper_rectangle(law, np.arange(m.d), full), m.n_atoms)


@settings(max_examples=300, deadline=None)
@given(measures(), st.data())
def test_full_rectangles_are_the_marginal_ones_over_every_coordinate(m, data):
    # the full rectangle divides the measure's own columns, the marginal one
    # a gathered copy of them: the same numbers in the same order
    charged = np.flatnonzero(ft.margins(m) > 0.0).tolist()
    law = ft.conditional_law(m, data.draw(st.sampled_from(charged)))
    x = np.array([data.draw(thresholds) for _ in range(m.d)])
    got = ft.rectangle_probability(law, x)
    assert got == ft.marginal_rectangle_probability(law, range(m.d), x)
    assert math.copysign(1.0, got) == 1.0


@settings(max_examples=300, deadline=None)
@given(measures(), st.data())
def test_face_interior_mass_matches_the_face_filter_code(m, data):
    coords = data.draw(st.sets(st.integers(0, m.d - 1), min_size=1))
    threshold = data.draw(thresholds)
    assert_close(ft.face_interior_mass(m, coords, threshold=threshold),
                 oracle_face_interior_mass(m, coords, threshold), m.n_atoms)


@settings(max_examples=300, deadline=None)
@given(measures(), st.data())
def test_extended_exponent_matches_the_running_sum_code(m, data):
    x = np.array([data.draw(st.one_of(st.just(0.0), thresholds)) for _ in range(m.d)])
    got, want = ft.exponent_function_extended(m, x), oracle_exponent_function_extended(m, x)
    if math.isinf(want) or want == 0.0:
        assert got == want
    else:
        assert_close(got, want, m.n_atoms)


@settings(max_examples=300, deadline=None)
@given(measures(d_min=2, cover=True), st.data())
def test_chi_exact_matches_two_minus_the_pair_exponent(m, data):
    m = standardized(m)
    if m is None:
        return
    i, j = data.draw(st.lists(st.integers(0, m.d - 1), min_size=2, max_size=2, unique=True))
    got, want = ft.chi_exact(m, i, j), oracle_chi_exact(m, i, j)
    if np.any((m.omega_matrix[:, i] > 0.0) & (m.omega_matrix[:, j] > 0.0)):
        assert got > 0.0
    else:
        assert got == want == 0.0
    # the oracle is m_i + m_j - exponent with the margins taken as exactly 1,
    # so it is off by their gap from 2 (zero-snapping after standardizing
    # leaves up to 1e-12 per atom), plus a few ulps of 2 from the subtraction
    gap = abs(2.0 - ft.margins(m)[i] - ft.margins(m)[j])
    assert abs(got - want) <= gap + (2 * m.n_atoms + 8) * 2.0 * EPS


def test_extended_exponent_edge_cases():
    m = ft.ExponentMeasure(3, [[1.0, 0.5, 0.0]], [2.0])
    # every coordinate zero: 0.0 when none is charged, +inf otherwise
    assert ft.exponent_function_extended(ft.ExponentMeasure(3, (), ()), np.zeros(3)) == 0.0
    assert ft.exponent_function_extended(m, np.zeros(3)) == math.inf
    # an uncharged zero coordinate is neutral
    assert ft.exponent_function_extended(m, [1.0, 1.0, 0.0]) == 2.0


@settings(max_examples=200, deadline=None)
@given(measures(d_min=2, cover=True), st.data())
def test_a_straddling_atom_never_makes_the_criteria_disagree(m, data):
    # one atom across a split, its product mass * max omega from 1e-30 to
    # 1e6 times the measure's largest: every decided criterion calls that
    # split dependent, no bipartition disagrees, and `check` never exits 4
    d = m.d
    a_mask = data.draw(st.integers(1, 2 ** d - 2))
    part = ft.bipartition([i for i in range(d) if a_mask >> i & 1],
                          [i for i in range(d) if not a_mask >> i & 1])
    face = {data.draw(st.sampled_from(part.a_sorted)), data.draw(st.sampled_from(part.c_sorted))}
    face |= data.draw(st.sets(st.integers(0, d - 1)))
    row = np.zeros(d)
    row[sorted(face)] = [10.0 ** data.draw(st.floats(-11.0, 0.0)) for _ in face]
    largest = float(np.max(m.mass_vector * m.omega_matrix.max(axis=1)))
    mass = 10.0 ** data.draw(st.floats(-30.0, 6.0)) * largest / row.max()
    m = ft.ExponentMeasure(d, np.vstack([m.omega_matrix, row]), [*m.mass_vector, mass])
    report = ft.full_report(m, part)
    assert report.agree and not report.independent
    assert report.cond_ii is False and report.df in (False, None)
    for other in ft.all_bipartitions(d):
        assert ft.full_report(m, other).agree
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        ft.save_measure(m, path)
        blocks = [",".join(str(i + 1) for i in block) for block in (part.a_sorted, part.c_sorted)]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["check", path, "--A", blocks[0], "--C", blocks[1]])
    assert code == 3 and json.loads(out.getvalue())["agree"] is True


# ---- reports, one bipartition at a time -------------------------------------

_U = 2.0 ** -53
_SPLITTER = 134217729.0
_SIGNS = np.array([[1.0], [1.0], [-1.0]] * 2)


def oracle_check_support(measure, part):
    masks = measure.face_masks
    straddling = np.flatnonzero(((masks & part.a_mask) != 0) & ((masks & part.c_mask) != 0))
    return (False, int(straddling[0])) if straddling.size else (True, None)


def oracle_point_terms(measure, part):
    omega = measure.omega_matrix
    row_max, a = np.frexp(omega.max(axis=1, initial=0.0))
    scaled = np.ldexp(omega, -a[:, None])
    mass, e = np.frexp(measure.mass_vector)
    if not np.all(np.isfinite(row_max) & np.isfinite(mass)):
        raise ValueError("the numeric criteria need finite directions and masses")
    e += a
    live = e[(mass != 0.0) & (row_max != 0.0)]
    top = int(live.max()) if live.size else 0
    block_max = np.stack([scaled[:, list(part.a_sorted)].max(axis=1),
                          scaled[:, list(part.c_sorted)].max(axis=1), row_max])
    return mass, block_max, e - top, top


def oracle_split(a):
    high = _SPLITTER * a - (_SPLITTER * a - a)
    return high, a - high


def oracle_additivity(a, b, shift):
    high = a * b
    (a1, a2), (b1, b2) = oracle_split(a), oracle_split(b)
    unscaled = np.concatenate([high, ((a1 * b1 - high) + a1 * b2 + a2 * b1) + a2 * b2])
    parts = np.ldexp(unscaled, shift)
    exact = np.array_equal(np.ldexp(parts, -shift), unscaled)
    parts *= _SIGNS
    total = math.fsum(memoryview(parts.ravel()))
    if total == 0.0:
        return ft.AdditivityCheck(ok=True if exact else None, residual=0.0)
    return ft.AdditivityCheck(ok=False,
                              residual=total / -math.fsum(memoryview(parts[2::3].ravel())))


def oracle_df(mass, block_max, shift, top, d):
    sums = block_max @ np.ldexp(mass, shift)
    _, sigma = math.frexp(sums[2])
    lam_a, lam_c, lam = np.ldexp(sums, -sigma).tolist()
    joint, product = math.exp(-lam), math.exp(-lam_a) * math.exp(-lam_c)
    difference = joint - product
    gamma = mass.size * _U / (1.0 - mass.size * _U)
    bound = (joint + product) * (2.0 * gamma * (lam + lam_a + lam_c) + 6.0 * _U) \
        + _U * abs(difference)
    t = math.inf if top + sigma > 1023 else math.ldexp(1.0, top + sigma)
    witness = {"difference": difference, "bound": bound, "point": [t] * d}
    return (False if abs(difference) > bound else None), witness


def oracle_check_mixed_margins(measure, part):
    masks = set(measure.face_masks.tolist())
    for i, j in itertools.combinations(range(measure.d), 2):
        imask = (1 << i) | (1 << j)
        if imask & part.a_mask and imask & part.c_mask \
                and any(fmask & imask == imask for fmask in masks):
            return False, frozenset((i, j))
    return True, None


def oracle_conditional_factorization(measure, part):
    masks = measure.face_masks
    straddling = np.flatnonzero(((masks & part.a_mask) != 0) & ((masks & part.c_mask) != 0))
    charges = measure.omega_matrix[straddling] > 0.0
    ok = ~charges.any(axis=0)
    atom = np.full(measure.d, -1)
    if straddling.size:
        atom[~ok] = straddling[charges.argmax(axis=0)[~ok]]
    return ok, atom


def oracle_full_report(measure, part):
    witnesses = {}
    support_ok, support_witness = oracle_check_support(measure, part)
    if not support_ok:
        witnesses["cond_i"] = {"atom": support_witness}
    terms = oracle_point_terms(measure, part)
    additivity = oracle_additivity(*terms[:3])
    if additivity.ok is False:
        witnesses["cond_ii"] = {"residual": additivity.residual, "point": [1.0] * measure.d}
    mixed_ok, mixed_witness = oracle_check_mixed_margins(measure, part)
    if not mixed_ok:
        witnesses["cond_iii"] = {"subset": sorted(mixed_witness)}
    df_ok, df_witness = oracle_df(*terms, measure.d)
    if df_ok is False:
        witnesses["df"] = df_witness
    ok, atom = oracle_conditional_factorization(measure, part)
    holds = bool(ok.all())
    if not holds:
        k = int(np.argmin(ok))
        witnesses["new_notion"] = {"k": k, "atom": int(atom[k])}
    flags = (support_ok, additivity.ok, mixed_ok, df_ok, holds)
    return ft.IndependenceReport(cond_i=support_ok, cond_ii=additivity.ok, cond_iii=mixed_ok,
                                 df=df_ok, new_notion=holds,
                                 agree=len(set(flags) - {None}) == 1, witnesses=witnesses)


def report_bytes(report):
    # repr round-trips every float, so equal bytes are equal bits
    return json.dumps(report.to_dict(), sort_keys=True)


@st.composite
def part_lists(draw, d):
    """Bipartitions of range(d) with repeats and both orientations of a split."""
    masks = draw(st.lists(st.integers(1, 2 ** d - 2), min_size=1, max_size=8))
    parts = [ft.bipartition([i for i in range(d) if mask >> i & 1],
                            [i for i in range(d) if not mask >> i & 1]) for mask in masks]
    extra = draw(st.lists(st.tuples(st.integers(0, len(parts) - 1), st.booleans()), max_size=6))
    for index, swap in extra:
        parts.insert(draw(st.integers(0, len(parts))),
                     ft.bipartition(parts[index].c, parts[index].a) if swap else parts[index])
    return parts


@settings(max_examples=300, deadline=None)
@given(measures(d_min=2), st.data())
def test_batched_reports_match_the_per_part_code(m, data):
    # masses brought to at most 1 and scaled by 1e-300 or 1e295, and
    # directions by 1e20, make products underflow after scaling (undecided
    # additivity) and the df point t * 1 overflow
    if data.draw(st.booleans()):
        scale = st.lists(st.sampled_from([1.0, 1e-300, 1e295]), min_size=m.n_atoms,
                         max_size=m.n_atoms)
        rows = st.lists(st.sampled_from([1.0, 1e20]), min_size=m.n_atoms, max_size=m.n_atoms)
        m = ft.ExponentMeasure(m.d, m.omega_matrix * np.array(data.draw(rows))[:, None],
                               m.mass_vector / m.mass_vector.max() * np.array(data.draw(scale)))
    parts = data.draw(part_lists(m.d))
    want = [report_bytes(oracle_full_report(m, part)) for part in parts]
    # parts per chunk from 1 to all of them, so chunk edges fall anywhere
    rows = data.draw(st.integers(1, len(parts)))
    cells = rows * max(m.d, 6) * max(m.n_atoms, m.d)
    with mock.patch.object(independence, "_CHUNK_CELLS", cells):
        assert [report_bytes(r) for r in independence._reports(m, _membership(parts, m.d))] == want
    assert [report_bytes(r) for r in independence._reports(m, _membership(parts, m.d))] == want
    # each check is the one-part case of the same kernels
    part = parts[0]
    assert report_bytes(ft.full_report(m, part)) == want[0]
    assert ft.check_support(m, part) == oracle_check_support(m, part)
    assert ft.check_mixed_margins(m, part) == oracle_check_mixed_margins(m, part)
    terms = oracle_point_terms(m, part)
    additivity = ft.check_additivity(m, part)
    assert additivity == oracle_additivity(*terms[:3])
    assert math.copysign(1.0, additivity.residual) == \
        math.copysign(1.0, oracle_additivity(*terms[:3]).residual)
    assert json.dumps(ft.check_df_factorization(m, part)) == json.dumps(oracle_df(*terms, m.d))
    verdict, (ok, atom) = ft.conditional_factorization(m, part), \
        oracle_conditional_factorization(m, part)
    assert verdict.ok.tobytes() == ok.tobytes() and verdict.atom.tobytes() == atom.tobytes()
    assert verdict.ok.dtype == ok.dtype and verdict.atom.dtype == atom.dtype


def test_batched_reports_cross_the_default_chunk_edge():
    # one chunk holds _CHUNK_CELLS / (6 * 16) = 85 parts of this d = 6, J = 16
    # measure; 4 passes over its 31 bipartitions, in both orientations, take 248
    m = ft.random_measure(6, 16, seed=6)
    assert m.n_atoms == 16
    parts = [p for part in ft.all_bipartitions(6)
             for p in (part, ft.bipartition(part.c, part.a))] * 4
    got = [report_bytes(r) for r in independence._reports(m, _membership(parts, m.d))]
    assert got == [report_bytes(oracle_full_report(m, part)) for part in parts]


# ---- parts as codes -----------------------------------------------------------


def test_code_membership_is_the_decoded_parts_membership():
    for d in range(2, 13):
        codes = np.arange(2 ** (d - 1) - 1)
        parts = list(ft.all_bipartitions(d))
        assert parts == [_decode(d, code) for code in codes.tolist()]
        got = _code_membership(d, codes)
        assert got.dtype == bool and got.shape == (len(parts), d)
        assert got.tobytes() == _membership(parts, d).tobytes()


def acceptance_measures():
    """The 200 measures that the acceptance gate certifies, drawn alike."""
    rng = np.random.default_rng(347)
    for i in range(200):
        d = 2 + i % 5
        split = None
        if i % 2:
            part = ft.random_bipartition(d, rng)
            split = (part.a_sorted, part.c_sorted)
        yield ft.random_measure(d, 8, split=split, seed=int(rng.integers(2 ** 31)))


def test_certification_expects_what_the_per_part_rule_expects(monkeypatch):
    # reports that agree and say independent exactly when no component is
    # split, by the per-part rule: certification passes on every measure, and
    # fails once a single report says otherwise
    from facetail import graphs

    class Report:
        agree = True

        def __init__(self, independent):
            self.independent = independent

    for m in acceptance_measures():
        parts = list(ft.all_bipartitions(m.d))
        components = [frozenset(c) for c in ft.build_graph(m).components]
        rule = [all(c <= part.a or c <= part.c for c in components) for part in parts]
        seen = []

        def reports(measure, in_a, flip=None):
            seen.append(in_a.tobytes())
            return (Report(want != (p == flip)) for p, want in enumerate(rule))

        monkeypatch.setattr(graphs, "_reports", reports)
        assert ft.certify_partition_bruteforce(m)
        assert seen == [_membership(parts, m.d).tobytes()]
        flip = len(parts) // 2
        monkeypatch.setattr(graphs, "_reports", lambda measure, in_a: reports(measure, in_a, flip))
        assert not ft.certify_partition_bruteforce(m)


def oracle_battery(d, n_atoms, trials, seed):
    n_atoms = max(n_atoms, d)
    children = np.random.SeedSequence(seed).spawn(trials)
    every = list(ft.all_bipartitions(d)) if d <= 4 else None

    disagreements = []
    block_failures = []
    notion_mismatches = 0
    instances = 0
    for t in range(trials):
        rng = np.random.default_rng(children[t])
        block = t % 2 == 0
        atoms_t = int(rng.integers(d, n_atoms + 1))
        generating = ft.random_bipartition(d, rng) if block else None
        measure = ft.random_measure(d, atoms_t, split=None if generating is None
                                    else (generating.a_sorted, generating.c_sorted), seed=rng)

        if every is not None:
            parts = list(every)
        else:
            parts = [ft.random_bipartition(d, rng) for _ in range(10)]
        if generating is not None and generating not in parts:
            parts.insert(0, generating)

        for part in parts:
            rep = ft.full_report(measure, part)
            instances += 1
            if not rep.agree:
                disagreements.append((t, part.a, part.c, rep.flags))
            if rep.cond_i != rep.new_notion:
                notion_mismatches += 1
            if generating is not None and part == generating \
                    and False in rep.flags.values():
                block_failures.append((t, part.a, part.c))

    return ft.BatteryResult(d=d, trials=trials, instances=instances,
                            disagreements=tuple(disagreements),
                            block_failures=tuple(block_failures),
                            notion_mismatches=notion_mismatches)


def count_part_objects(monkeypatch):
    """A list that grows by one on each `Bipartition` built."""
    built = []
    post_init = ft.Bipartition.__post_init__
    monkeypatch.setattr(ft.Bipartition, "__post_init__",
                        lambda self: built.append(1) or post_init(self))
    return built


@pytest.mark.parametrize("d, n_atoms, trials", [(4, 8, 12), (6, 10, 10)])
def test_battery_records_match_the_per_part_loop(monkeypatch, d, n_atoms, trials):
    # mixed margins made to call every split dependent: each independent
    # part is then a disagreement and each generating split a block failure
    monkeypatch.setattr(independence, "_mixed_margins",
                        lambda cover, in_a: [(False, frozenset({0, 1}))] * len(in_a))
    want = oracle_battery(d, n_atoms, trials, seed=5)
    assert want.disagreements and want.block_failures
    built = count_part_objects(monkeypatch)
    got = ft.agreement_battery(d, n_atoms, trials, seed=5)
    assert got.to_dict() == want.to_dict()
    assert (got.disagreements, got.block_failures) == (want.disagreements, want.block_failures)
    # one part object per record, none per part
    assert len(built) == len(got.disagreements) + len(got.block_failures)


def test_certification_builds_no_part_objects(monkeypatch):
    built = count_part_objects(monkeypatch)
    for split in (None, (range(4), range(4, 8))):
        assert ft.certify_partition_bruteforce(ft.random_measure(8, 12, split=split, seed=1))
    assert built == []


# ---- empirical chi, by sorting ----------------------------------------------


def oracle_midranks(x):
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    new = np.empty(x.size, dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    ends = np.append(starts[1:], x.size)
    ranks = np.empty(x.size)
    ranks[order] = ((starts + ends + 1) / 2.0)[np.cumsum(new) - 1]
    return ranks


def oracle_chi_empirical(batch, q=0.95):
    data = batch.data if isinstance(batch, ft.SampleBatch) else np.asarray(batch, dtype=float)
    if data.ndim != 2:
        raise ValueError("need an (n, d) sample array")
    n, d = data.shape
    if n < 1000:
        raise ValueError(f"need n >= 1000 rows for stable rank exceedances, got {n}")
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    _require_finite(data, "sample")
    # one column of midranks at a time, scaled in place: the (n, d) ranks
    # and their quotient are never held, only the boolean exceedances
    exceed = np.empty((n, d), dtype=bool, order="F")
    for i, column in enumerate(data.T):
        ranks = oracle_midranks(column)
        ranks /= n + 1.0
        np.greater(ranks, q, out=exceed[:, i])
    marginal = exceed.sum(axis=0)
    if np.min(marginal) < 20:
        bad = int(np.argmin(marginal))
        raise ValueError(
            f"column x{bad + 1} has only {int(marginal[bad])} exceedances above q={q}; "
            "need at least 20 per coordinate")
    hits = exceed.astype(np.int64)
    counts = hits.T @ hits
    chi = counts / ((1.0 - q) * n)
    np.fill_diagonal(chi, 1.0)
    chi = np.clip(chi, 0.0, 1.0)
    chi.flags.writeable = False
    counts.flags.writeable = False
    return ChiMatrix(q=float(q), n=n, chi=chi, counts=counts)


@st.composite
def chi_samples(draw, n_min):
    """(n, d) samples whose columns are tied (few levels), constant,
    two-valued or all distinct, and a level q: drawn from [0.5, 0.99], or
    ``r/(n+1)`` rounded for a half-integer midrank r, or a neighbour of it."""
    n = draw(st.integers(n_min, max(n_min, 2500)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["tied", "constant", "two-valued", "distinct"]))
        if kind == "tied":
            columns.append(rng.integers(0, draw(st.integers(2, 40)), n).astype(float))
        elif kind == "constant":
            columns.append(np.full(n, draw(st.sampled_from([0.0, -1.5, 3.0]))))
        elif kind == "two-valued":
            columns.append(np.where(rng.random(n) < draw(st.floats(0.0, 1.0)), 2.0, 0.5))
        else:
            columns.append(rng.permutation(n) * 0.25 - rng.random() * n)
    if draw(st.booleans()):
        q = draw(st.floats(0.5, 0.99))
    else:
        q = draw(st.integers(2, 2 * n)) / 2.0 / (n + 1.0)
        q = float(np.nextafter(q, draw(st.sampled_from([0.0, q, 1.0]))))
    return np.column_stack(columns), q


@settings(max_examples=300, deadline=None)
@given(chi_samples(n_min=1), chi_samples(n_min=1000))
def test_chi_by_selection_matches_the_sorting_code(short, sample):
    # every column's exceedances from n = 1 up, then the whole estimate,
    # or the same ValueError text when a column has under 20 exceedances
    for data, q in (short, sample):
        n = len(data)
        for column in data.T:
            ranks = oracle_midranks(column)
            ranks /= n + 1.0
            out = np.empty(n, dtype=bool)
            count = _exceedances(column, q, np.empty(n), out)
            assert np.array_equal(out, ranks > q) and count == np.count_nonzero(out)
    data, q = sample
    try:
        want = oracle_chi_empirical(data, q)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            ft.chi_empirical(data, q)
        assert str(got.value) == str(exc)
        return
    got = ft.chi_empirical(data, q)
    assert (got.q, got.n) == (want.q, want.n)
    assert got.counts.dtype == want.counts.dtype and got.chi.dtype == want.chi.dtype
    assert got.counts.tobytes() == want.counts.tobytes()
    assert got.chi.tobytes() == want.chi.tobytes()
    assert not got.chi.flags.writeable and not got.counts.flags.writeable


# ---- random measures, one face at a time ------------------------------------


def oracle_random_face(rng, pools):
    # uniform over nonempty subsets of a pool, pools weighted by subset count
    counts = np.array([2 ** len(p) - 1 for p in pools], dtype=float)
    pool = pools[rng.choice(len(pools), p=counts / counts.sum())] if len(pools) > 1 else pools[0]
    while True:
        mask = rng.uniform(size=len(pool)) < 0.5
        if np.any(mask):
            return frozenset(p for p, keep in zip(pool, mask) if keep)


def oracle_random_measure(d, n_atoms, split=None, seed=None):
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

    for _ in range(10_000):
        faces = [oracle_random_face(rng, pools) for _ in range(n_atoms)]
        if set().union(*faces) == set(range(d)):
            break
    else:
        raise ValueError("could not cover every coordinate; constraints unsatisfiable?")

    omega = np.zeros((n_atoms, d))
    mass = np.empty(n_atoms)
    for j, face in enumerate(faces):
        omega[j, sorted(face)] = 1.0 - rng.uniform(size=len(face))  # (0, 1]
        mass[j] = rng.uniform(0.25, 4.0)
    return ft.standardize(ft.ExponentMeasure(d, omega, mass))


def assert_draws_like_the_loop(d, n_atoms, split, seed, as_generator):
    """The same measure bytes, and a passed `Generator` left where the loop
    leaves it: its state and its next draws agree."""
    if as_generator:
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = ft.random_measure(d, n_atoms, split=split, seed=got_rng)
        want = oracle_random_measure(d, n_atoms, split=split, seed=want_rng)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert got_rng.random(3).tobytes() == want_rng.random(3).tobytes()
    else:
        got = ft.random_measure(d, n_atoms, split=split, seed=seed)
        want = oracle_random_measure(d, n_atoms, split=split, seed=seed)
    assert got.omega_matrix.tobytes() == want.omega_matrix.tobytes()
    assert got.mass_vector.tobytes() == want.mass_vector.tobytes()
    assert got.face_masks.tolist() == want.face_masks.tolist()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_bulk_draws_match_the_per_face_loop(data):
    # n_atoms = d often needs the coverage redraw, and a split with a
    # one-coordinate block makes the pools' sizes and weights far apart
    d = data.draw(st.integers(2, 12))
    n_atoms = data.draw(st.integers(d, 3 * d + 1))
    split = None
    if data.draw(st.booleans()):
        a_mask = data.draw(st.integers(1, 2 ** d - 2))
        split = ([i for i in range(d) if a_mask >> i & 1],
                 [i for i in range(d) if not a_mask >> i & 1])
    assert_draws_like_the_loop(d, n_atoms, split, data.draw(st.integers(0, 2 ** 32 - 1)),
                               data.draw(st.booleans()))


@pytest.mark.parametrize("as_generator", [False, True])
@pytest.mark.parametrize("seed", [0, 64])
def test_bulk_draws_match_the_per_face_loop_past_62_coordinates(seed, as_generator):
    # interleaved blocks of 64 coordinates; the faces' masks are Python ints
    split = (list(range(0, 64, 2)), list(range(1, 64, 2)))
    assert_draws_like_the_loop(64, 80, split, seed, as_generator)


# ---- conditional draws through the cell table --------------------------------


def oracle_conditional_rows(law, seed, start, stop, out=None):
    """Samples ``[start, stop)``, into ``out`` when given."""
    # row blocks bound every temporary, as in `_max_stable_rows`
    key = _batch_key(seed, _KIND_CONDITIONAL, law.k)
    cum = np.cumsum(law.weights)
    cum[-1] = 1.0  # guard the last bin against accumulated roundoff
    atoms = np.array(law.atom_indices, dtype=int)
    omega = law.measure.omega_matrix
    out = np.empty((stop - start, law.measure.d)) if out is None else out
    blocks = _row_blocks(stop - start, law.measure.d)
    # one buffer of uniforms for every block: one tick per sample, two words used
    u = np.empty((blocks[0][1], _WORDS_PER_TICK))
    for lo, hi in blocks:
        uniforms = _uniforms(key, 1, start + lo, u[:hi - lo])
        choice = np.searchsorted(cum, uniforms[:, 0], side="left")
        radius = law.r_min[choice] / uniforms[:, 1]
        np.take(omega, atoms[choice], axis=0, out=out[lo:hi])
        out[lo:hi] *= radius[:, None]
    return out


def law_with_weights(weights):
    """A conditional law at coordinate 0 of J = len(weights) distinct rays,
    with its selection weights replaced by ``weights``: the samplers read
    the weights as given, so any positive weights can be tested."""
    n_atoms = len(weights)
    omega = np.stack([np.ones(n_atoms), 1.0 + np.arange(n_atoms) * 2.0 ** -20], axis=1)
    law = ft.conditional_law(ft.ExponentMeasure(2, omega, np.ones(n_atoms)), 0)
    assert len(law.weights) == n_atoms
    return dataclasses.replace(law, weights=np.array(weights, dtype=float))


#: sixths that a cumsum takes past 1.0 (to 1.0000000000000002) before the last
ROUNDED_UP = [0.24684028505801844, 0.14098409184371033, 0.051279018274417214,
              0.25851762562124936, 0.18920127732422473, 0.11317770187838004]


@st.composite
def cell_weights(draw):
    """Selection weights that stress the cell table: exact dyadic weights with
    cumulative weights on cell edges i / (c J) and several in one cell (J a
    power of two from 1), or normalized weights and a last one below the
    cumsum's roundoff, so that an entry before the last may exceed 1.0."""
    if draw(st.booleans()):
        n_atoms = 2 ** draw(st.integers(0, 6))
        fine = 2 ** 10  # units per cell: the total, c J cells, is a power of two
        units = [draw(st.one_of(st.integers(1, 3), st.integers(1, _CELLS_PER_ATOM).map(
            lambda cells: cells * fine))) for _ in range(n_atoms - 1)]
        total = _CELLS_PER_ATOM * n_atoms * fine
        return [u / total for u in units + [total - sum(units)]]
    raw = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=30)))
    return (raw / raw.sum()).tolist() + [10.0 ** draw(st.floats(-300.0, -17.0))]


@settings(max_examples=200, deadline=None)
@given(cell_weights(), st.integers(0, 50_000), st.sampled_from([1, 2, 9, 500, 33_000]),
       st.integers(0, 2 ** 32 - 1))
def test_cell_table_draws_match_the_search_code(weights, start, rows, seed):
    # 33,000 rows cross the 32,768-row block of d = 2, and every start but 0
    # lies within a block of the stream
    law = law_with_weights(weights)
    assert (_conditional_rows(law, seed, start, start + rows).tobytes()
            == oracle_conditional_rows(law, seed, start, start + rows).tobytes())


def test_cell_table_draws_match_where_the_cumsum_passes_one():
    law = law_with_weights(ROUNDED_UP + [1e-20])
    assert np.cumsum(law.weights)[-2] > 1.0
    for start, stop in [(0, 40_000), (777, 1500)]:
        assert (_conditional_rows(law, 3, start, stop).tobytes()
                == oracle_conditional_rows(law, 3, start, stop).tobytes())


def searched_keys(law, n, monkeypatch):
    """How many uniforms of an n-row conditional draw reach `np.searchsorted`;
    the draw must match the search code's."""
    keys = []
    search = np.searchsorted

    def counting(a, v, *args, **kwargs):
        keys.append(np.size(v))
        return search(a, v, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np, "searchsorted", counting)
        got = _conditional_rows(law, 5, 0, n)
    assert got.tobytes() == oracle_conditional_rows(law, 5, 0, n).tobytes()
    return sum(keys)


def test_only_rows_in_crowded_cells_are_searched(monkeypatch):
    n, pairs = 20_000, 256
    # equal weights: one cumulative weight per cell, so no row is searched
    law = law_with_weights(np.full(2 * pairs, 1.0 / (2 * pairs)))
    cum = np.cumsum(law.weights)
    cells = (np.minimum(cum, 1.0) * _CELLS_PER_ATOM * cum.size).astype(int)
    assert np.unique(cells).size == cum.size
    assert searched_keys(law, n, monkeypatch) == 0
    # half a cell, then a tiny weight after each large one, so that each
    # cell holding two cumulative weights holds both at its middle, and the
    # uniforms of its upper half are searched: about n / (4c) rows, against
    # the bound of n / (2c).  Dyadic weights make every sum exact.
    cell = 1.0 / (_CELLS_PER_ATOM * 2 * pairs)
    tiny = 2.0 ** -40
    weights = [cell / 2] + [tiny, 1.0 / pairs - tiny] * (pairs - 1) + [tiny]
    weights[-1] = 1.0 - sum(weights[:-1])
    law = law_with_weights(weights)
    searched = searched_keys(law, n, monkeypatch)
    assert 0 < searched <= 0.75 * n / (2 * _CELLS_PER_ATOM)


# ---- dependence graphs against a breadth-first search ------------------------


def oracle_graph(d, adjacent):
    """Edges ``(i, j)`` with ``i < j`` and ``adjacent(i, j)``, in lex order, and
    components by breadth-first search from each unvisited coordinate in
    increasing order, each sorted."""
    edges = [(i, j) for i in range(d) for j in range(i + 1, d) if adjacent(i, j)]
    neighbours = [[] for _ in range(d)]
    for i, j in edges:
        neighbours[i].append(j)
        neighbours[j].append(i)
    seen, components = [False] * d, []
    for root in range(d):
        if seen[root]:
            continue
        seen[root] = True
        queue, component = collections.deque([root]), []
        while queue:
            i = queue.popleft()
            component.append(i)
            for j in neighbours[i]:
                if not seen[j]:
                    seen[j] = True
                    queue.append(j)
        components.append(tuple(sorted(component)))
    return tuple(edges), tuple(components)


def assert_graph_like_the_search(m):
    faces = [set(np.flatnonzero(row > 0.0).tolist()) for row in m.omega_matrix]
    edges, components = oracle_graph(m.d, lambda i, j: any(i in f and j in f for f in faces))
    graph = ft.build_graph(m)
    assert (graph.d, graph.edges, graph.components) == (m.d, edges, components)
    assert ft.finest_partition(m) == tuple(frozenset(c) for c in components)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_graphs_match_the_search(data):
    d = data.draw(st.integers(2, 12))
    n_atoms = data.draw(st.integers(d, 3 * d + 1))
    split = None
    if data.draw(st.booleans()):
        a_mask = data.draw(st.integers(1, 2 ** d - 2))
        split = ([i for i in range(d) if a_mask >> i & 1],
                 [i for i in range(d) if not a_mask >> i & 1])
    assert_graph_like_the_search(
        ft.random_measure(d, n_atoms, split=split, seed=data.draw(st.integers(0, 2 ** 32 - 1))))


@pytest.mark.parametrize("d, n_atoms", [(64, 80), (256, 512)])
def test_graphs_of_interleaved_splits_match_the_search(d, n_atoms):
    # past 62 coordinates the face masks are Python ints
    split = (list(range(0, d, 2)), list(range(1, d, 2)))
    m = ft.random_measure(d, n_atoms, split=split, seed=d)
    assert len(ft.build_graph(m).components) == 2
    assert_graph_like_the_search(m)


@pytest.mark.parametrize("d", [2, 3, 17, 33, 130])
@pytest.mark.parametrize("shuffled", [False, True])
def test_graphs_of_paths_match_the_search(d, shuffled):
    # faces {p_i, p_(i+1)} along a path: the closure needs ceil(log2(d - 1))
    # squarings, the most for d coordinates; a shuffled path's components
    # are rooted away from its ends
    order = np.random.default_rng(d).permutation(d) if shuffled else np.arange(d)
    omega = np.zeros((d - 1, d))
    omega[np.arange(d - 1)[:, None], np.stack([order[:-1], order[1:]], axis=1)] = 0.5
    path = ft.ExponentMeasure(d, omega, np.ones(d - 1))
    assert_graph_like_the_search(path)
    # a path missing one link: two components
    assert_graph_like_the_search(ft.ExponentMeasure(d, np.delete(omega, d // 2 - 1, axis=0),
                                                    np.ones(d - 2)))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 8).flatmap(lambda d: st.lists(
    st.sampled_from([0.0, 0.05, 0.1, 0.1, 0.5, 1.0, math.nan, -math.inf]),
    min_size=d * d, max_size=d * d).map(lambda v: np.array(v).reshape(d, d))))
def test_empirical_graphs_match_the_search(chi):
    # asymmetric: only the entries above the diagonal count; NaN and an
    # entry equal to the threshold draw no edge
    d = len(chi)
    graph = ft.empirical_graph(chi, threshold=0.1)
    edges, components = oracle_graph(d, lambda i, j: chi[i, j] > 0.1)
    assert (graph.d, graph.edges, graph.components) == (d, edges, components)
