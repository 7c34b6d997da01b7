import hashlib
import json
import math

import numpy as np
import pytest

import facetail as ft
from facetail import load_batch, sample_conditional, sample_max_stable, save_batch
from facetail import cli, simulate
from facetail.simulate import _conditional_rows, _max_stable_rows, sidecar_path, write_samples


N_MC = 100_000


def three_sigma(p, n=N_MC):
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


# ---- max-stable sampler ----------------------------------------------------


def test_unit_frechet_margin():
    # d = 1, single unit atom: P(X <= x) = exp(-1/x)
    m = ft.ExponentMeasure(1, [[1.0]], [1.0])
    batch = sample_max_stable(m, N_MC, seed=11)
    x = batch.data[:, 0]
    assert np.all(x > 0.0)
    for q in (0.5, 1.0, 2.0):
        p = math.exp(-1.0 / q)
        assert abs(np.mean(x <= q) - p) <= three_sigma(p)


def test_joint_distribution_matches_exponent(m_ind, m_blk):
    for m, pt in ((m_ind, [1.0, 1.0]), (m_blk, [1.0, 2.0, 1.0])):
        batch = sample_max_stable(m, N_MC, seed=19)
        p = ft.distribution_function(m, pt)
        emp = np.mean(np.all(batch.data <= np.asarray(pt), axis=1))
        assert abs(emp - p) <= three_sigma(p)


def test_independent_blocks_sample_independently(m_ind):
    batch = sample_max_stable(m_ind, N_MC, seed=23)
    x, y = batch.data[:, 0], batch.data[:, 1]
    # P(X<=1, Y<=1) should match P(X<=1) * P(Y<=1) within noise
    joint = np.mean((x <= 1.0) & (y <= 1.0))
    split = np.mean(x <= 1.0) * np.mean(y <= 1.0)
    assert abs(joint - split) <= three_sigma(math.exp(-2.0))


def test_comonotone_atom_gives_exactly_equal_coordinates(m_dep, m_blk):
    dep = sample_max_stable(m_dep, 1000, seed=3)
    assert np.array_equal(dep.data[:, 0], dep.data[:, 1])
    blk = sample_max_stable(m_blk, 1000, seed=3)
    assert np.array_equal(blk.data[:, 0], blk.data[:, 1])
    assert not np.array_equal(blk.data[:, 0], blk.data[:, 2])


def test_max_stable_rejects_bad_input(m_ind):
    with pytest.raises(ValueError):
        sample_max_stable(m_ind, 0, seed=1)
    with pytest.raises(ValueError):
        sample_max_stable(m_ind, 10, seed=-1)
    dead = ft.ExponentMeasure(2, [[1.0, 0.0]], [1.0])
    with pytest.raises(ft.InvalidMeasureError):
        sample_max_stable(dead, 10, seed=1)


# ---- conditional sampler ---------------------------------------------------


def test_conditional_support_is_exact(m_blk):
    # conditioning on the axis coordinate: others are exact zeros
    batch = sample_conditional(m_blk, 2, N_MC, seed=29)
    assert np.all(batch.data[:, 0] == 0.0)
    assert np.all(batch.data[:, 1] == 0.0)
    assert np.all(batch.data[:, 2] > 1.0)

    # conditioning inside the first block: the axis coordinate is zero
    other = sample_conditional(m_blk, 0, 1000, seed=29)
    assert np.all(other.data[:, 2] == 0.0)
    assert np.array_equal(other.data[:, 0], other.data[:, 1])
    assert np.all(other.data[:, 0] > 1.0)


def test_conditional_radius_is_pareto(m_blk):
    batch = sample_conditional(m_blk, 2, N_MC, seed=31)
    r = batch.data[:, 2]
    for q in (2.0, 4.0, 10.0):
        p = 1.0 / q   # P(R > q) for Pareto(1) with floor 1
        assert abs(np.mean(r > q) - p) <= three_sigma(p)


def test_conditional_atom_selection_frequencies():
    m = ft.ExponentMeasure(2, [[1.0, 0.0], [0.5, 0.5]], [0.25, 1.5])
    batch = sample_conditional(m, 0, N_MC, seed=37)
    # the mixed atom is the only source of positive second coordinates
    frac = np.mean(batch.data[:, 1] > 0.0)
    assert abs(frac - 0.75) <= three_sigma(0.75)


def test_conditional_rectangles_match_law():
    rng = np.random.default_rng(41)
    m = ft.random_measure(3, 6, seed=4)
    law = ft.conditional_law(m, 1)
    batch = sample_conditional(m, 1, N_MC, seed=43)
    for _ in range(5):
        x = rng.uniform(0.3, 3.0, size=3)
        p = ft.rectangle_probability(law, x)
        emp = np.mean(np.all(batch.data >= x, axis=1))
        assert abs(emp - p) <= max(three_sigma(p), 3e-4)


def test_conditional_rejects_bad_input(m_blk):
    with pytest.raises(ValueError):
        sample_conditional(m_blk, 3, 10, seed=1)
    with pytest.raises(ValueError):
        sample_conditional(m_blk, 0, 0, seed=1)
    with pytest.raises(ValueError):
        sample_conditional(m_blk, 0, 10, seed=-2)


# ---- reproducibility and stream layout -------------------------------------


def test_bit_reproducible_across_calls(m_blk):
    a = sample_max_stable(m_blk, 500, seed=5)
    b = sample_max_stable(m_blk, 500, seed=5)
    assert np.array_equal(a.data, b.data)
    c = sample_conditional(m_blk, 0, 500, seed=5)
    d = sample_conditional(m_blk, 0, 500, seed=5)
    assert np.array_equal(c.data, d.data)


def test_streams_differ_by_seed_kind_and_coordinate(m_blk):
    base = sample_max_stable(m_blk, 200, seed=5).data
    assert not np.array_equal(base, sample_max_stable(m_blk, 200, seed=6).data)
    cond0 = sample_conditional(m_blk, 0, 200, seed=5).data
    cond2 = sample_conditional(m_blk, 2, 200, seed=5).data
    assert not np.array_equal(cond0[:, 0], cond2[:, 2])


class FixedDoubles:
    """Stands in for `np.random.Generator`: every double it draws is ``value``."""

    value = 0.0

    def __init__(self, bits):
        pass

    def random(self, out):
        out.fill(self.value)
        return out


@pytest.mark.parametrize("word, uniform", [(0, 2.0 ** -54), (2 ** 53 - 1, 1.0 - 2.0 ** -53)])
def test_the_extreme_words_give_open_uniforms(monkeypatch, m_blk, word, uniform):
    # a word w gives Philox's double (w >> 11) * 2**-53; for the top one,
    # adding 2**-54 is a tie that rounds to 1.0, whose log is 0
    monkeypatch.setattr(FixedDoubles, "value", word * 2.0 ** -53)
    monkeypatch.setattr(np.random, "Generator", FixedDoubles)
    assert np.all(simulate._uniforms(np.zeros(2, np.uint64), 2, 0, np.empty((3, 8))) == uniform)
    assert np.all(-np.log(uniform) > 0.0)
    # every exponential is then positive: each coordinate's max is finite
    data = sample_max_stable(m_blk, 5, seed=1).data
    assert np.all(np.isfinite(data)) and np.all(data > 0.0)
    data = sample_conditional(m_blk, 0, 5, seed=1).data
    assert np.all(np.isfinite(data)) and np.all(data[:, 0] >= 1.0)


def test_chunked_assembly_is_bit_identical(m_blk):
    full = _max_stable_rows(m_blk, 17, 0, 300)
    pieces = np.vstack([
        _max_stable_rows(m_blk, 17, 0, 100),
        _max_stable_rows(m_blk, 17, 100, 250),
        _max_stable_rows(m_blk, 17, 250, 300),
    ])
    assert np.array_equal(full, pieces)

    law = ft.conditional_law(m_blk, 0)
    full_c = _conditional_rows(law, 17, 0, 300)
    pieces_c = np.vstack([
        _conditional_rows(law, 17, 0, 7),
        _conditional_rows(law, 17, 7, 300),
    ])
    assert np.array_equal(full_c, pieces_c)


def test_batch_data_is_read_only(m_ind):
    batch = sample_max_stable(m_ind, 10, seed=1)
    with pytest.raises(ValueError):
        batch.data[0, 0] = 0.0


def test_batches_keep_their_own_array_and_copy_a_callers(tmp_path, monkeypatch, m_blk):
    made = []

    def keep(fn):
        def wrapped(*args, **kwargs):
            made.append(fn(*args, **kwargs))
            return made[-1]
        return wrapped

    monkeypatch.setattr(simulate, "_max_stable_rows", keep(simulate._max_stable_rows))
    monkeypatch.setattr(simulate, "_conditional_rows", keep(simulate._conditional_rows))
    monkeypatch.setattr(np, "loadtxt", keep(np.loadtxt))
    batches = [sample_max_stable(m_blk, 20, seed=1), sample_conditional(m_blk, 0, 20, seed=1)]
    save_batch(batches[0], tmp_path / "b.csv")
    batches.append(load_batch(tmp_path / "b.csv"))
    assert len(made) == 3
    for batch, array in zip(batches, made):
        assert np.shares_memory(batch.data, array)
        assert not batch.data.flags.writeable

    mine = np.ones((4, 2))
    batch = ft.SampleBatch(kind="max_stable", k=None, n=4, seed=1, data=mine)
    assert not np.shares_memory(batch.data, mine)
    assert mine.flags.writeable
    mine.flags.writeable = False
    assert ft.SampleBatch(kind="max_stable", k=None, n=4, seed=1, data=mine).data is mine


def test_metadata_contents(m_blk):
    ms = sample_max_stable(m_blk, 10, seed=9)
    assert ms.metadata() == {"kind": "max_stable", "k": None, "n": 10,
                             "seed": 9, "rng": "philox4x64"}
    cond = sample_conditional(m_blk, 2, 10, seed=9)
    assert cond.metadata()["k"] == 3   # serialized 1-based
    assert cond.k == 2                 # in-memory 0-based


# ---- persistence -----------------------------------------------------------


def test_csv_round_trip_is_exact(tmp_path, m_blk):
    batch = sample_conditional(m_blk, 0, 50, seed=13)
    out = tmp_path / "batch.csv"
    save_batch(batch, out)

    header = out.read_text().splitlines()[0]
    assert header == "x1,x2,x3"
    meta = json.loads((tmp_path / "batch.csv.meta.json").read_text())
    assert meta == {"kind": "conditional", "k": 1, "n": 50, "seed": 13,
                    "rng": "philox4x64"}

    again = load_batch(out)
    assert again.kind == batch.kind and again.k == batch.k
    assert again.n == batch.n and again.seed == batch.seed
    assert np.array_equal(again.data, batch.data)   # 17 digits round-trip float64


def test_load_batch_requires_sidecar(tmp_path, m_ind):
    out = tmp_path / "orphan.csv"
    save_batch(sample_max_stable(m_ind, 5, seed=1), out)
    (tmp_path / "orphan.csv.meta.json").unlink()
    with pytest.raises(FileNotFoundError):
        load_batch(out)


def test_load_batch_checks_consistency(tmp_path, m_ind):
    out = tmp_path / "short.csv"
    save_batch(sample_max_stable(m_ind, 5, seed=1), out)
    meta_file = tmp_path / "short.csv.meta.json"
    meta = json.loads(meta_file.read_text())

    meta["n"] = 6
    meta_file.write_text(json.dumps(meta))
    with pytest.raises(ValueError):
        load_batch(out)

    del meta["n"]
    meta_file.write_text(json.dumps(meta))
    with pytest.raises(ValueError):
        load_batch(out)


def test_batch_k_must_fit_its_kind():
    data = np.ones((2, 3))
    for kind, k in (("max_stable", 0), ("conditional", None), ("conditional", -1),
                    ("conditional", 3)):
        with pytest.raises(ValueError, match="k="):
            ft.SampleBatch(kind=kind, k=k, n=2, seed=1, data=data)
    assert ft.SampleBatch(kind="conditional", k=2, n=2, seed=1, data=data).k == 2


@pytest.mark.parametrize("kind, k", [("conditional", 0), ("conditional", 4),
                                     ("conditional", None), ("max_stable", 1)])
def test_load_batch_rejects_a_sidecar_k_that_does_not_fit(tmp_path, m_blk, kind, k):
    # the sidecar's k is 1-based: 0 and d + 1 are out of range
    out = tmp_path / "edited.csv"
    save_batch(sample_conditional(m_blk, 0, 5, seed=1), out)
    meta_file = tmp_path / "edited.csv.meta.json"
    meta = json.loads(meta_file.read_text())
    meta["kind"], meta["k"] = kind, k
    meta_file.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="k="):
        load_batch(out)


def test_save_batch_writes_savetxt_text_across_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr(simulate, "SAVE_ROWS", 4)
    rng = np.random.default_rng(17)
    data = rng.standard_normal((11, 3)) * 10.0 ** rng.integers(-300, 300, size=(11, 3))
    data[0, 0], data[5, 2] = -0.0, 0.0
    batch = ft.SampleBatch(kind="max_stable", k=None, n=11, seed=1, data=data)
    save_batch(batch, tmp_path / "blocks.csv")
    np.savetxt(tmp_path / "ref.csv", data, fmt="%.17g", delimiter=",",
               header="x1,x2,x3", comments="")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert np.array_equal(load_batch(tmp_path / "blocks.csv").data, data)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_load_batch_rejects_non_finite_values(tmp_path, m_ind, bad):
    out = tmp_path / "bad.csv"
    save_batch(sample_max_stable(m_ind, 5, seed=1), out)
    lines = out.read_text().splitlines()
    lines[3] = bad + lines[3][lines[3].index(","):]
    out.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="non-finite value in data row 3"):
        load_batch(out)


def test_sidecar_path_convention():
    assert sidecar_path("runs/a.csv") == "runs/a.csv.meta.json"


# ---- streamed writes and pinned streams --------------------------------------


@pytest.mark.parametrize("k", [None, 1])
def test_streamed_csv_equals_the_saved_batch(tmp_path, k):
    m = ft.random_measure(4, 9, seed=8)
    n = 10_000  # several blocks of SAVE_ROWS, the last one short
    assert n > 2 * simulate.SAVE_ROWS
    batch = sample_max_stable(m, n, seed=5) if k is None else sample_conditional(m, k, n, seed=5)
    save_batch(batch, tmp_path / "saved.csv")
    meta = write_samples(m, n, 5, tmp_path / "streamed.csv", k=k)
    assert meta == batch.metadata()
    for name in ("{}.csv", "{}.csv.meta.json"):
        saved = (tmp_path / name.format("saved")).read_bytes()
        assert (tmp_path / name.format("streamed")).read_bytes() == saved


def test_write_samples_checks_its_input_before_writing(tmp_path, m_blk):
    out = tmp_path / "never.csv"
    for n, seed, k in [(0, 1, None), (10, -1, None), (0, 1, 0), (10, -1, 0), (10, 1, 3)]:
        with pytest.raises(ValueError):
            write_samples(m_blk, n, seed, out, k=k)
        assert not out.exists()


# A fixed measure whose draws at n=1000, seed 7 are pinned by SHA-256, so a
# change to a Philox stream or to the sampler arithmetic fails here: the
# float64 bytes of both kinds (conditional at coordinate 1) and the CSV that
# `facetail simulate` writes for the max-stable draw.
REFERENCE = {"d": 3, "atoms": [{"omega": [1, 1, 0], "mass": 0.5},
                               {"omega": [0.5, 0, 1], "mass": 0.6},
                               {"omega": [0, 1, 0], "mass": 0.5},
                               {"omega": [0.2, 0, 0.1], "mass": 1.0}]}
REFERENCE_SHA256 = {
    "max_stable": "8c88e720057676d5690784087003eba14ec01540d927194027cdabb2356bb82c",
    "conditional": "3dbc8a206d9d7b746b1265da7e3f2e77134cb539e92d95676fd9a68c499da6b3",
    "csv": "00d89e4dd570f80e61b71b8534957dfe07a67e3871c0d1c303cff902d3f20cd5",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_reference_draws_are_pinned(tmp_path, capsys):
    m = ft.measure_from_dict(REFERENCE)
    for batch in (sample_max_stable(m, 1000, seed=7), sample_conditional(m, 0, 1000, seed=7)):
        data = np.ascontiguousarray(batch.data, dtype="<f8")
        assert sha256(data.tobytes()) == REFERENCE_SHA256[batch.kind]
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(REFERENCE))
    out = tmp_path / "reference.csv"
    assert cli.main(["simulate", str(path), "--n", "1000", "--seed", "7", "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out) == {"out": str(out), "kind": "max_stable",
                                                   "k": None, "n": 1000, "seed": 7,
                                                   "rng": "philox4x64"}
    assert sha256(out.read_bytes()) == REFERENCE_SHA256["csv"]
    save_batch(sample_max_stable(m, 1000, seed=7), tmp_path / "saved.csv")
    assert sha256((tmp_path / "saved.csv").read_bytes()) == REFERENCE_SHA256["csv"]
