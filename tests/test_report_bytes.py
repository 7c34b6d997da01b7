"""Report bytes pinned over a seeded corpus of measures and bipartitions.

The SHA-256 below covers ``json.dumps(full_report(m, part).to_dict(),
sort_keys=True)`` for every bipartition of each corpus measure with d <= 10
(and 24 seeded random ones at d = 64), in order.  Any change to a verdict, a
witness or a digit of a residual, df difference, bound or point moves it.
"""

import hashlib
import json

import numpy as np

import facetail as ft

#: the digest of the corpus below; re-pin it only with a CHANGES entry that
#: says which report moved and why
REPORT_DIGEST = "2719b871bf65247c4e55ab74b2dc3f8df1a9e189c31b5076e3226cd42607f836"


def corpus():
    """``(measure, parts)`` pairs, deterministic."""
    for d in range(2, 11):
        for n_atoms in (d, 3 * d + 2, 40):
            seed = 100 * d + n_atoms
            a = list(range(0, d, 2))
            for split in (None, (a, sorted(set(range(d)) - set(a)))):
                yield ft.random_measure(d, n_atoms, split=split, seed=seed), \
                    list(ft.all_bipartitions(d))
    # a straddling atom 1e-330 below the others: its products underflow after
    # scaling, so additivity and the df are undecided on the splits it straddles
    tiny = ft.ExponentMeasure(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [1, 1, 0, 0]],
                              [1e300, 1e300, 1e300, 1e-30])
    yield tiny, list(ft.all_bipartitions(4))
    # exponent(1) beyond 2**1023, so the df point t * 1 is infinite
    huge = ft.ExponentMeasure(3, [[1e10, 0, 0], [0, 1e10, 3e9], [2e9, 1e10, 0]],
                              [1e300, 2e300, 1e300])
    yield huge, list(ft.all_bipartitions(3))
    # no atoms at all
    yield ft.ExponentMeasure(3, (), ()), list(ft.all_bipartitions(3))
    # face masks are Python ints past 62 coordinates
    rng = np.random.default_rng(64)
    for split in (None, (list(range(32)), list(range(32, 64)))):
        m = ft.random_measure(64, 80, split=split, seed=rng)
        parts = [ft.random_bipartition(64, rng) for _ in range(24)]
        if split is not None:
            parts.append(ft.bipartition(*split))
        yield m, parts


def report_digest():
    h = hashlib.sha256()
    for m, parts in corpus():
        for part in parts:
            h.update(json.dumps(ft.full_report(m, part).to_dict(), sort_keys=True).encode())
    return h.hexdigest()


def test_corpus_covers_the_edge_cases():
    measures = list(corpus())
    dicts = [ft.full_report(m, part).to_dict() for m, parts in measures[-5:-2] for part in parts]
    assert any(r["cond_ii"] is None and r["agree"] for r in dicts)
    assert any(r["witnesses"].get("df", {}).get("point", [0])[0] == float("inf") for r in dicts)
    assert measures[-1][0].face_masks.dtype == object


def test_report_bytes_are_pinned():
    assert report_digest() == REPORT_DIGEST
