"""Exact samplers for the max-stable law and the conditional tail laws.

Randomness comes from Philox (4x64), a counter-based generator: sample i
of a batch owns a fixed, disjoint block of counter positions derived from
(seed, i), so batches are reproducible bit for bit, independent of chunk
boundaries, and safe to assemble in any order.  The generator name is
recorded in batch metadata as ``"philox4x64"``.

All uniforms are taken in the open interval (0, 1), from 2**-54 to
1 - 2**-53, and transformed by inversion, so radii and exponentials are
finite and positive by construction.

Each sampler computes only what its draw uses, with the bits of the plain
loops, so streams and CSV bytes do not depend on it.  A max-stable
coordinate charged by at most half of the atoms (`_GATHER_SHARE`, the
measured crossover) divides only those atoms' exponentials: the others'
ratios are +0.0, which never win a max.  A conditional draw starts its
search for the first cumulative weight at or above its uniform from a
table of `_CELLS_PER_ATOM` cells per atom and steps once; only a row whose
cell holds two cumulative weights below its uniform reaches
`np.searchsorted`, with chance at most 1/(2 * _CELLS_PER_ATOM) per row,
whatever the weights.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .conditional import ConditionalLaw, conditional_law
from .measure import ExponentMeasure, _row_blocks, require_valid

RNG_ID = "philox4x64"

#: rows per drawn and string-formatted block in `save_batch` and
#: `write_samples`: 4096-row blocks made glibc trim and re-fault its heap
#: on every block, 1024-row blocks reuse their pages
SAVE_ROWS = 1024

_KIND_MAX_STABLE = "max_stable"
_KIND_CONDITIONAL = "conditional"
_KIND_CODES = {_KIND_MAX_STABLE: 1, _KIND_CONDITIONAL: 2}

#: one Philox counter tick yields this many 64-bit words
_WORDS_PER_TICK = 4

#: the largest share of the atoms whose exponentials a coordinate gathers
#: (``np.take``) and divides alone; a coordinate charged by more divides
#: the whole row.  Per 64K-cell block at J = 500 and 2000, gathering and
#: dividing half the atoms took 0.91-0.95x the whole row's time, and 60%
#: took 1.07-1.08x.
_GATHER_SHARE = 0.5

#: cells per atom in the conditional sampler's cell table.  A row is left
#: for `np.searchsorted` only when its cell holds two cumulative weights
#: below it; at most J/2 of the c*J cells hold two, so a row's chance of
#: that is at most 1/(2c), whatever the weights.  On a law that meets the
#: bound (each large weight ending on a cell edge, a tiny one just above
#: it), c = 1, 2, 4 and 8 sent 50%, 25%, 12.5% and 6.3% of the rows and
#: took 0.71, 0.51, 0.44 and 0.40x the time of a search on every row; c = 4
#: also took 0.92-0.99x c = 2's time on the many-atoms and dense laws, with
#: a table (4J+1 indices) that stays in cache.
_CELLS_PER_ATOM = 4


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """A simulated (n, d) sample with its provenance.

    ``kind`` is "max_stable" or "conditional"; ``k`` is the conditioning
    coordinate (0-based, below d) for conditional batches, None otherwise;
    any other ``k`` raises ValueError.  The
    data array is read-only: a read-only array is kept as is, without a
    copy (the samplers and `load_batch` hand theirs over that way), and a
    writeable one is copied.  `metadata` mirrors the sidecar JSON written
    next to CSV exports, where ``k`` appears 1-based.
    """

    kind: str
    k: int | None
    n: int
    seed: int
    data: np.ndarray = field(repr=False)
    rng: str = RNG_ID

    def __post_init__(self):
        if self.kind not in _KIND_CODES:
            raise ValueError(f"unknown batch kind {self.kind!r}")
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2 or data.shape[0] != self.n:
            raise ValueError(f"data must be (n, d) with n={self.n}, got {data.shape}")
        if self.kind == _KIND_MAX_STABLE and self.k is not None:
            raise ValueError(f"a max_stable batch has no conditioning coordinate, got k={self.k}")
        if self.kind == _KIND_CONDITIONAL and not (self.k is not None
                                                   and 0 <= self.k < data.shape[1]):
            raise ValueError(f"conditioning coordinate k={self.k} (0-based) is out of range "
                             f"for d={data.shape[1]}")
        data = data.copy() if data.flags.writeable else data
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @property
    def d(self) -> int:
        return self.data.shape[1]

    def metadata(self) -> dict:
        return _metadata(self.kind, self.k, self.n, self.seed, self.rng)


def _metadata(kind: str, k: int | None, n: int, seed: int, rng: str = RNG_ID) -> dict:
    return {"kind": kind, "k": None if k is None else k + 1, "n": n, "seed": seed, "rng": rng}


# ---- stream plumbing -------------------------------------------------------


def _check_seed(seed: int) -> None:
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError("seed must be a nonnegative integer")


def _batch_key(seed: int, kind: str, k: int | None) -> np.ndarray:
    _check_seed(seed)
    entropy = [int(seed), _KIND_CODES[kind], 0 if k is None else int(k) + 1]
    return np.random.SeedSequence(entropy).generate_state(2, np.uint64)


def _uniforms(key: np.ndarray, ticks: int, start: int, out: np.ndarray) -> np.ndarray:
    """Open uniforms of samples ``start, start + 1, ...`` into the rows of
    ``out``, C-ordered (rows, 4 * t): sample i owns ticks ``[i * t, (i + 1)
    * t)``, and each 64-bit word w gives ``((w >> 11) + 1/2) * 2**-53``, which
    is Philox's double ``(w >> 11) * 2**-53`` plus 2**-54, rounded alike.  The
    top word's sum is a tie that rounds to 1.0, so it is clamped to the
    largest double below 1, ``1 - 2**-53``; no other word moves."""
    bits = np.random.Philox(key=key, counter=start * ticks)
    np.random.Generator(bits).random(out=out)
    out += 2.0 ** -54
    np.minimum(out, 1.0 - 2.0 ** -53, out=out)
    return out


def _largest(blocks) -> int:
    return max((hi - lo for lo, hi in blocks), default=0)


# ---- samplers --------------------------------------------------------------


def sample_max_stable(measure: ExponentMeasure, n: int, seed: int) -> SampleBatch:
    """Draw n exact samples of the max-stable law induced by the measure.

    Per sample, each atom j gets an independent unit-mean exponential E_j
    and contributes the point ``mass_j * omega_j / E_j``; the sample is
    the coordinatewise maximum.  The resulting distribution function is
    exactly ``exp(-exponent_function(x))``, no approximation involved.
    A coordinate charged by at most half of the atoms takes its maximum
    over those atoms only, which gives the same bits.
    """
    return _sample(measure, None, n, seed)


def sample_conditional(measure: ExponentMeasure, k: int, n: int, seed: int) -> SampleBatch:
    """Draw n samples of the conditional law at coordinate k.

    Per sample: pick an atom by its selection weight, then a radius from
    the Pareto(1) tail above that atom's ``r_min``.  Coordinates off the
    chosen atom's face are exact zeros.  The atom is the first whose
    cumulative weight reaches the sample's uniform, found through a cell
    table and, with chance at most 1/(2 * _CELLS_PER_ATOM) per sample, a
    binary search.
    """
    return _sample(measure, k, n, seed)


def _sample(measure: ExponentMeasure, k: int | None, n: int, seed: int) -> SampleBatch:
    kind, rows = _row_function(measure, k, n, seed)
    data = rows(0, n)
    data.flags.writeable = False  # so the batch keeps this array, not a copy
    return SampleBatch(kind=kind, k=None if k is None else int(k), n=n, seed=int(seed),
                       data=data)


def _row_function(measure: ExponentMeasure, k: int | None, n: int, seed: int):
    """Check a draw of n samples, max-stable for k None and conditional at k
    otherwise, before any row exists; return its kind and its row function
    ``(start, stop, out=None) -> rows``."""
    if k is None:
        require_valid(measure)
        kind, rows = _KIND_MAX_STABLE, partial(_max_stable_rows, measure, seed)
    else:
        law = conditional_law(require_valid(measure), k)
        kind, rows = _KIND_CONDITIONAL, partial(_conditional_rows, law, seed)
    if n < 1:
        raise ValueError("need n >= 1")
    _check_seed(seed)
    return kind, rows


def _max_stable_rows(measure: ExponentMeasure, seed: int, start: int, stop: int,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Samples ``[start, stop)``, into ``out`` when given."""
    # row blocks bound every temporary; Philox makes them chunk-invariant
    n_atoms = measure.n_atoms
    key = _batch_key(seed, _KIND_MAX_STABLE, None)
    ticks = max(1, math.ceil(n_atoms / _WORDS_PER_TICK))
    width = _WORDS_PER_TICK * ticks
    # rays coordinate-major, so each coordinate's row is contiguous, negated,
    # so that they divide log u rather than -log u (``fl(-r / log u)`` is
    # ``fl(r / -log u)``), and padded with -0.0 to all of a sample's words: a
    # padding ratio is +0.0, which never wins the max over nonnegative ones
    rays = np.zeros((measure.d, width))
    rays[:, :n_atoms] = (measure.omega_matrix * measure.mass_vector[:, None]).T
    np.negative(rays, out=rays)
    # coordinate i divides only the logs of the atoms that charge it: the
    # others' ratios are +0.0 and a max is exact in any order, so the bits
    # hold; a valid measure charges every coordinate, so no set is empty
    plans = [(rays[i], None) if cols.size > _GATHER_SHARE * n_atoms else (rays[i, cols], cols)
             for i, cols in enumerate(map(np.flatnonzero, measure.omega_matrix.T > 0.0))]
    out = np.empty((stop - start, measure.d)) if out is None else out
    blocks = _row_blocks(stop - start, n_atoms)
    # one buffer of uniforms and one division buffer, shared by every block
    size = _largest(blocks) * width
    work = np.empty(2 * size)
    for lo, hi in blocks:
        logs = work[:(hi - lo) * width].reshape(-1, width)
        _uniforms(key, ticks, start + lo, logs)
        np.log(logs, out=logs)  # (rows, width), finite negative
        for i, (ray, cols) in enumerate(plans):
            ratio = work[size:size + (hi - lo) * ray.size].reshape(-1, ray.size)
            if cols is None:
                np.divide(ray, logs, out=ratio)
            else:  # mode "clip" writes ``out`` directly, "raise" through a buffer
                np.divide(ray, np.take(logs, cols, axis=1, out=ratio, mode="clip"), out=ratio)
            np.max(ratio, axis=1, out=out[lo:hi, i])
    return out


def _conditional_rows(law: ConditionalLaw, seed: int, start: int, stop: int,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Samples ``[start, stop)``, into ``out`` when given."""
    # row blocks bound every temporary, as in `_max_stable_rows`
    key = _batch_key(seed, _KIND_CONDITIONAL, law.k)
    cum = np.cumsum(law.weights)
    cum[-1] = 1.0  # guard the last bin against accumulated roundoff
    # the atom of uniform u is the first with cum >= u; the cell map
    # ``(v * cells).astype(intp)`` is monotone, so no atom in a cell before
    # u's reaches u, and u's search starts at first[cell of u], the first
    # atom in its cell or later.  cum is clipped to 1.0, which bounds u, so
    # that no cell passes `cells` where roundoff lifts an entry above 1.0.
    cells = _CELLS_PER_ATOM * cum.size
    counts = np.bincount((np.minimum(cum, 1.0) * cells).astype(np.intp), minlength=cells + 1)
    first = np.cumsum(counts) - counts  # the number of atoms in the cells before
    atoms = np.array(law.atom_indices, dtype=int)
    omega = law.measure.omega_matrix
    out = np.empty((stop - start, law.measure.d)) if out is None else out
    blocks = _row_blocks(stop - start, law.measure.d)
    # one buffer of uniforms for every block: one tick per sample, two words used
    u = np.empty((_largest(blocks), _WORDS_PER_TICK))
    for lo, hi in blocks:
        uniforms = _uniforms(key, 1, start + lo, u[:hi - lo])
        pick = uniforms[:, 0]
        choice = first[(pick * cells).astype(np.intp)]
        choice += cum[choice] < pick  # one step, past an atom of u's cell below u
        # a row still behind has two cumulative weights below it in its cell
        behind = np.flatnonzero(cum[choice] < pick)
        choice[behind] = np.searchsorted(cum, pick[behind], side="left")
        radius = law.r_min[choice] / uniforms[:, 1]
        np.take(omega, atoms[choice], axis=0, out=out[lo:hi])
        out[lo:hi] *= radius[:, None]
    return out


# ---- CSV + sidecar persistence --------------------------------------------


def sidecar_path(csv_path) -> str:
    return str(csv_path) + ".meta.json"


def _write_csv(csv_path, d: int, blocks, meta: dict) -> None:
    # the one CSV writer: one string format per row block, so the text is
    # what ``np.savetxt`` writes and memory follows the block, not n
    row = "%.17g," * (d - 1) + "%.17g\n"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"x{i + 1}" for i in range(d)) + "\n")
        for block in blocks:
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))
    with open(sidecar_path(csv_path), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_batch(batch: SampleBatch, csv_path) -> None:
    """Write samples as CSV (17 significant digits) plus a metadata sidecar.

    Rows go out in blocks of `SAVE_ROWS`, one string format per block, so
    memory stays bounded in n; the text is what ``np.savetxt`` writes.
    """
    _write_csv(csv_path, batch.d,
               (batch.data[lo:lo + SAVE_ROWS] for lo in range(0, batch.n, SAVE_ROWS)),
               batch.metadata())


def write_samples(measure: ExponentMeasure, n: int, seed: int, csv_path,
                  k: int | None = None) -> dict:
    """Write what ``save_batch(sample_max_stable(measure, n, seed), csv_path)``
    writes, or for a k ``sample_conditional(measure, k, n, seed)``, without
    ever holding the batch; return the sidecar metadata.

    Rows ``[lo, lo + SAVE_ROWS)`` are drawn into one reused output block
    and written one block at a time.  Sample i owns a fixed slice of the
    Philox stream, so the blocks are the batch's rows bit for bit and
    memory does not grow with n.
    """
    kind, rows = _row_function(measure, k, n, seed)
    meta = _metadata(kind, None if k is None else int(k), n, int(seed))
    block = np.empty((min(n, SAVE_ROWS), measure.d))  # one output block for the stream
    _write_csv(csv_path, measure.d,
               (rows(lo, min(lo + SAVE_ROWS, n), out=block[:n - lo])
                for lo in range(0, n, SAVE_ROWS)), meta)
    return meta


def load_batch(csv_path) -> SampleBatch:
    """Read a batch written by `save_batch`; a nan or inf entry raises."""
    meta_path = sidecar_path(csv_path)
    if not os.path.exists(meta_path):
        raise FileNotFoundError(f"missing metadata sidecar {meta_path}")
    with open(meta_path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    for field_name in ("kind", "k", "n", "seed", "rng"):
        if field_name not in meta:
            raise ValueError(f"metadata sidecar lacks {field_name!r}")
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise ValueError(f"{csv_path} holds a non-finite value in data row "
                         f"{int(np.argmin(finite)) + 1}")
    if data.shape[0] != meta["n"]:
        raise ValueError(f"CSV has {data.shape[0]} rows, sidecar says n={meta['n']}")
    data.flags.writeable = False  # so the batch keeps this array, not a copy
    return SampleBatch(
        kind=meta["kind"],
        k=None if meta["k"] is None else int(meta["k"]) - 1,
        n=int(meta["n"]),
        seed=int(meta["seed"]),
        data=data,
        rng=str(meta["rng"]),
    )
