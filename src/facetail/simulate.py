"""Exact samplers for the max-stable law and the conditional tail laws.

Randomness comes from Philox (4x64), a counter-based generator: sample i
of a batch owns a fixed, disjoint block of counter positions derived from
(seed, i), so batches are reproducible bit for bit, independent of chunk
boundaries, and safe to assemble in any order.  The generator name is
recorded in batch metadata as ``"philox4x64"``.

All uniforms are taken in the open interval (0, 1) and transformed by
inversion, so radii and exponentials are finite and positive by
construction.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .conditional import ConditionalLaw, conditional_law
from .measure import ExponentMeasure, _row_blocks, require_valid

RNG_ID = "philox4x64"

#: rows per string-format block in `save_batch`
SAVE_ROWS = 4096

_KIND_MAX_STABLE = "max_stable"
_KIND_CONDITIONAL = "conditional"
_KIND_CODES = {_KIND_MAX_STABLE: 1, _KIND_CONDITIONAL: 2}

#: one Philox counter tick yields this many 64-bit words
_WORDS_PER_TICK = 4


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """A simulated (n, d) sample with its provenance.

    ``kind`` is "max_stable" or "conditional"; ``k`` is the conditioning
    coordinate (0-based) for conditional batches, None otherwise.  The
    data array is read-only.  `metadata` mirrors the sidecar JSON written
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
        data = data.copy() if data.flags.writeable else data
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @property
    def d(self) -> int:
        return self.data.shape[1]

    def metadata(self) -> dict:
        return {
            "kind": self.kind,
            "k": None if self.k is None else self.k + 1,
            "n": self.n,
            "seed": self.seed,
            "rng": self.rng,
        }


# ---- stream plumbing -------------------------------------------------------


def _batch_key(seed: int, kind: str, k: int | None) -> np.ndarray:
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    entropy = [int(seed), _KIND_CODES[kind], 0 if k is None else int(k) + 1]
    return np.random.SeedSequence(entropy).generate_state(2, np.uint64)


def _open_uniform(words: np.ndarray) -> np.ndarray:
    # top 53 bits, centered: values in (0, 1) strictly
    return ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


def _sample_words(key: np.ndarray, ticks_per_sample: int,
                  start: int, stop: int, words_per_sample: int) -> np.ndarray:
    # rows = samples [start, stop); sample i owns ticks [i*t, (i+1)*t)
    bg = np.random.Philox(key=key, counter=start * ticks_per_sample)
    raw = bg.random_raw(_WORDS_PER_TICK * ticks_per_sample * (stop - start))
    return raw.reshape(stop - start, _WORDS_PER_TICK * ticks_per_sample)[:, :words_per_sample]


# ---- samplers --------------------------------------------------------------


def sample_max_stable(measure: ExponentMeasure, n: int, seed: int) -> SampleBatch:
    """Draw n exact samples of the max-stable law induced by the measure.

    Per sample, each atom j gets an independent unit-mean exponential E_j
    and contributes the point ``mass_j * omega_j / E_j``; the sample is
    the coordinatewise maximum.  The resulting distribution function is
    exactly ``exp(-exponent_function(x))``, no approximation involved.
    """
    require_valid(measure)
    if n < 1:
        raise ValueError("need n >= 1")
    data = _max_stable_rows(measure, seed, 0, n)
    return SampleBatch(kind=_KIND_MAX_STABLE, k=None, n=n, seed=int(seed), data=data)


def _max_stable_rows(measure: ExponentMeasure, seed: int, start: int, stop: int) -> np.ndarray:
    # row blocks bound every temporary; Philox makes them chunk-invariant
    n_atoms = measure.n_atoms
    key = _batch_key(seed, _KIND_MAX_STABLE, None)
    ticks = max(1, math.ceil(n_atoms / _WORDS_PER_TICK))
    # rays coordinate-major, so each coordinate's row is contiguous
    rays = np.ascontiguousarray((measure.omega_matrix * measure.mass_vector[:, None]).T)
    out = np.empty((stop - start, measure.d))
    for lo, hi in _row_blocks(stop - start, n_atoms):
        words = _sample_words(key, ticks, start + lo, start + hi, n_atoms)
        exponentials = -np.log(_open_uniform(words))  # (rows, n_atoms), finite positive
        ratio = np.empty_like(exponentials)  # one division buffer for every coordinate
        for i in range(measure.d):
            np.max(np.divide(rays[i], exponentials, out=ratio), axis=1, out=out[lo:hi, i])
    return out


def sample_conditional(measure: ExponentMeasure, k: int, n: int, seed: int) -> SampleBatch:
    """Draw n samples of the conditional law at coordinate k.

    Per sample: pick an atom by its selection weight, then a radius from
    the Pareto(1) tail above that atom's ``r_min``.  Coordinates off the
    chosen atom's face are exact zeros.
    """
    law = conditional_law(require_valid(measure), k)
    if n < 1:
        raise ValueError("need n >= 1")
    data = _conditional_rows(law, seed, 0, n)
    return SampleBatch(kind=_KIND_CONDITIONAL, k=int(k), n=n, seed=int(seed), data=data)


def _conditional_rows(law: ConditionalLaw, seed: int, start: int, stop: int) -> np.ndarray:
    key = _batch_key(seed, _KIND_CONDITIONAL, law.k)
    words = _sample_words(key, 1, start, stop, 2)
    u = _open_uniform(words)
    cum = np.cumsum(law.weights)
    cum[-1] = 1.0  # guard the last bin against accumulated roundoff
    choice = np.searchsorted(cum, u[:, 0], side="left")
    radius = law.r_min[choice] / u[:, 1]
    rows = np.array(law.atom_indices, dtype=int)[choice]
    return law.measure.omega_matrix[rows] * radius[:, None]


# ---- CSV + sidecar persistence --------------------------------------------


def sidecar_path(csv_path) -> str:
    return str(csv_path) + ".meta.json"


def save_batch(batch: SampleBatch, csv_path) -> None:
    """Write samples as CSV (17 significant digits) plus a metadata sidecar.

    Rows go out in blocks of `SAVE_ROWS`, one string format per block, so
    memory stays bounded in n; the text is what ``np.savetxt`` writes.
    """
    row = "%.17g," * (batch.d - 1) + "%.17g\n"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"x{i + 1}" for i in range(batch.d)) + "\n")
        for start in range(0, batch.n, SAVE_ROWS):
            block = batch.data[start:start + SAVE_ROWS]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))
    with open(sidecar_path(csv_path), "w", encoding="utf-8") as fh:
        json.dump(batch.metadata(), fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    return SampleBatch(
        kind=meta["kind"],
        k=None if meta["k"] is None else int(meta["k"]) - 1,
        n=int(meta["n"]),
        seed=int(meta["seed"]),
        data=data,
        rng=str(meta["rng"]),
    )
