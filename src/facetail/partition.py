"""Two-block coordinate partitions and enumeration helpers."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np


@dataclass(frozen=True)
class Bipartition:
    """An ordered split of ``{0, ..., d-1}`` into two nonempty blocks.

    Both blocks must be nonempty and disjoint, and together they must cover
    an initial integer range; ``d`` is inferred from their union.
    """

    a: frozenset[int]
    c: frozenset[int]

    def __post_init__(self):
        a = frozenset(int(i) for i in self.a)
        c = frozenset(int(i) for i in self.c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)
        if not a or not c:
            raise ValueError("both blocks must be nonempty")
        if a & c:
            raise ValueError(f"blocks overlap: {sorted(a & c)}")
        d = len(a) + len(c)
        if a | c != frozenset(range(d)):
            raise ValueError(f"blocks must cover range({d}), got {sorted(a | c)}")

    @property
    def d(self) -> int:
        return len(self.a) + len(self.c)

    @cached_property
    def a_sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.a))

    @cached_property
    def c_sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.c))

    @cached_property
    def a_mask(self) -> int:
        return sum(1 << i for i in self.a)

    @cached_property
    def c_mask(self) -> int:
        return sum(1 << i for i in self.c)

    def __repr__(self) -> str:
        return f"Bipartition({sorted(self.a)}, {sorted(self.c)})"


def bipartition(a: Iterable[int], c: Iterable[int]) -> Bipartition:
    """Convenience constructor accepting any iterables of coordinates."""
    return Bipartition(frozenset(a), frozenset(c))


def check_dimension(part: Bipartition, d: int) -> Bipartition:
    """Return ``part`` unchanged, raising if it does not partition range(d)."""
    if part.d != d:
        raise ValueError(f"bipartition covers {part.d} coordinates, measure has {d}")
    return part


def _membership(parts: Sequence[Bipartition], d: int) -> np.ndarray:
    """(P, d) booleans, True on block ``a`` of each part; raises like
    `check_dimension` for a part that does not partition range(d)."""
    in_a = np.zeros((len(parts), d), dtype=bool)
    in_a.ravel()[[p * d + i for p, part in enumerate(parts)
                  for i in check_dimension(part, d).a]] = True
    return in_a


def _straddling(charges: np.ndarray, in_a: np.ndarray) -> np.ndarray:
    """(P, J) booleans: the face of atom j meets both blocks of part p, for
    the (d, J) 0/1 floats ``charges`` (see `measure._charges`) and the
    `_membership` booleans ``in_a``."""
    # the coordinates of each face in either block, counted exactly
    return (in_a @ charges > 0.0) & (~in_a @ charges > 0.0)


def _first(mask: np.ndarray) -> np.ndarray:
    """The index of the first True along the last axis of ``mask``, or -1
    where there is none."""
    if not mask.shape[-1]:
        return np.full(mask.shape[:-1], -1)
    return np.where(mask.any(axis=-1), mask.argmax(axis=-1), -1)


def all_bipartitions(d: int) -> Iterator[Bipartition]:
    """Unordered bipartitions of range(d), one orientation each.

    Coordinate 0 is kept in block ``a`` so each unordered split appears
    exactly once; there are ``2**(d-1) - 1`` of them.
    """
    if d < 2:
        return
    for rest in range(2 ** (d - 1) - 1):
        yield _decode(d, rest)


def random_bipartition(d: int, rng: np.random.Generator) -> Bipartition:
    """One uniform draw from `all_bipartitions`, for ``2 <= d <= 64``."""
    if d < 2:
        raise ValueError("bipartitions need d >= 2")
    if d > 64:  # the draw's bound 2**(d-1) - 1 must fit numpy's int64
        raise ValueError(f"random bipartitions need d <= 64, got d={d}")
    return _decode(d, int(rng.integers(0, 2 ** (d - 1) - 1)))


def _decode(d: int, rest: int) -> Bipartition:
    """The bipartition of range(d) whose block ``a`` holds 0 and i + 1 for each
    bit i set in ``rest``."""
    a = {0} | {i + 1 for i in range(d - 1) if rest >> i & 1}
    return Bipartition(frozenset(a), frozenset(set(range(d)) - a))
