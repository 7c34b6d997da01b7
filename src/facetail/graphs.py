"""Extremal dependence graphs and partition certification."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .independence import full_report
from .measure import ExponentMeasure
from .partition import all_bipartitions

#: the largest d that `certify_partition_bruteforce` takes: 2**(d-1) - 1
#: reports, 2047 at d=12
CERTIFY_MAX_D = 12


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


@dataclass(frozen=True, eq=False)
class ExtremalGraph:
    """Undirected dependence graph on coordinates 0..d-1.

    An edge joins coordinates that can be large together; components are
    the connected components, listed sorted by smallest member.
    """

    d: int
    edges: tuple[tuple[int, int], ...]
    components: tuple[tuple[int, ...], ...]

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "edges": [[i + 1, j + 1] for i, j in self.edges],
            "components": [[i + 1 for i in comp] for comp in self.components],
        }


def _assemble(d: int, edges: set[tuple[int, int]]) -> ExtremalGraph:
    uf = _UnionFind(d)
    for i, j in edges:
        uf.union(i, j)
    groups: dict[int, list[int]] = {}
    for i in range(d):
        groups.setdefault(uf.find(i), []).append(i)
    components = tuple(tuple(sorted(g)) for _, g in sorted(groups.items()))
    return ExtremalGraph(d=d, edges=tuple(sorted(edges)), components=components)


def build_graph(measure: ExponentMeasure) -> ExtremalGraph:
    """Dependence graph of a measure: each atom's face becomes a clique.

    Two coordinates share an edge exactly when some atom charges both,
    which for a standardized measure is the same as a positive pairwise
    tail dependence coefficient.
    """
    support = (measure.omega_matrix > 0.0).astype(np.int64)
    i, j = np.nonzero(np.triu(support.T @ support, k=1))  # an atom charges both i < j
    return _assemble(measure.d, set(zip(i.tolist(), j.tolist())))


def finest_partition(measure: ExponentMeasure) -> tuple[frozenset[int], ...]:
    """The finest coordinate partition into mutually independent groups."""
    return tuple(frozenset(c) for c in build_graph(measure).components)


def certify_partition_bruteforce(measure: ExponentMeasure) -> bool:
    """Verify `finest_partition` against every bipartition, exhaustively.

    For each of the ``2**(d-1) - 1`` bipartitions, runs `full_report` and
    demands (a) internal agreement and (b) an independent verdict exactly
    when the bipartition splits no component.  The reports share one full
    exponent on the grid, computed once.  Exponential in d, hence the cap
    ``CERTIFY_MAX_D``.
    """
    if measure.d > CERTIFY_MAX_D:
        raise ValueError(f"brute force capped at d={CERTIFY_MAX_D} (CERTIFY_MAX_D), "
                         f"got d={measure.d}")
    components = [frozenset(c) for c in build_graph(measure).components]
    for part in all_bipartitions(measure.d):
        expected = all(c <= part.a or c <= part.c for c in components)
        report = full_report(measure, part)
        if not report.agree or report.independent != expected:
            return False
    return True


def empirical_graph(chi_matrix, threshold: float = 0.1) -> ExtremalGraph:
    """Threshold an estimated chi matrix into a dependence graph.

    Accepts a `ChiMatrix` or a plain symmetric array; an edge is drawn
    where the off-diagonal estimate exceeds the threshold strictly.
    """
    chi = getattr(chi_matrix, "chi", chi_matrix)
    chi = np.asarray(chi, dtype=float)
    if chi.ndim != 2 or chi.shape[0] != chi.shape[1]:
        raise ValueError("need a square chi matrix")
    d = chi.shape[0]
    edges = {(i, j) for i in range(d) for j in range(i + 1, d) if chi[i, j] > threshold}
    return _assemble(d, edges)


def to_dot(graph: ExtremalGraph) -> str:
    """Render the graph in DOT as ``graph extremal_structure``, one cluster
    per independent component."""
    lines = ["graph extremal_structure {"]
    for idx, comp in enumerate(graph.components):
        lines.append(f"  subgraph cluster_{idx} {{")
        lines.append(f'    label="component {idx}";')
        for i in comp:
            lines.append(f"    x{i + 1};")
        lines.append("  }")
    for i, j in graph.edges:
        lines.append(f"  x{i + 1} -- x{j + 1};")
    lines.append("}")
    return "\n".join(lines) + "\n"
