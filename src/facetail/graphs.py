"""Extremal dependence graphs and partition certification."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .independence import _pair_cover, _reports
from .measure import ExponentMeasure, _charges
from .partition import all_bipartitions

#: the largest d that `certify_partition_bruteforce` takes: 2**(d-1) - 1
#: reports, 2047 at d=12
CERTIFY_MAX_D = 12


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


def _assemble(adjacent: np.ndarray) -> ExtremalGraph:
    """The graph of the (d, d) booleans ``adjacent``, read above the diagonal.

    Edges come in lex order from `np.nonzero`.  Components are the rows of
    the reflexive transitive closure, squared as 0/1 floats until it stops
    growing: at most ceil(log2 d) + 1 products, each exact, since an entry
    counts at most d coordinates.  A component's root is the coordinate
    that reaches no smaller one, and its closure row lists it.
    """
    d = len(adjacent)
    idx = np.arange(d)
    below = idx[:, None] > idx
    upper = adjacent & below.T
    i, j = np.nonzero(upper)
    reach = (upper | upper.T) + np.eye(d)
    known = 0
    while (found := np.count_nonzero(reach)) > known:
        known, reach = found, np.minimum(reach @ reach, 1.0)
    roots = np.flatnonzero(~(reach * below).any(axis=1))
    return ExtremalGraph(d=d, edges=tuple(zip(i.tolist(), j.tolist())),
                         components=tuple(tuple(np.flatnonzero(reach[r]).tolist()) for r in roots))


def build_graph(measure: ExponentMeasure) -> ExtremalGraph:
    """Dependence graph of a measure: each atom's face becomes a clique.

    Two coordinates share an edge exactly when some atom charges both,
    which for a standardized measure is the same as a positive pairwise
    tail dependence coefficient.  The components are read off the
    transitive closure of that pair cover, by repeated squaring.
    """
    return _assemble(_pair_cover(_charges(measure)))


def finest_partition(measure: ExponentMeasure) -> tuple[frozenset[int], ...]:
    """The finest coordinate partition into mutually independent groups."""
    return tuple(frozenset(c) for c in build_graph(measure).components)


def certify_partition_bruteforce(measure: ExponentMeasure) -> bool:
    """Verify `finest_partition` against every bipartition, exhaustively.

    For each of the ``2**(d-1) - 1`` bipartitions, takes its `full_report`
    and demands (a) internal agreement and (b) an independent verdict
    exactly when the bipartition splits no component; agreement counts only
    the decided criteria.  The reports come from the one report path, all
    bipartitions at once in chunks of bounded memory, on terms built once
    per measure, and it stops at the first failing one.  Exponential in d,
    hence the cap ``CERTIFY_MAX_D``.
    """
    if measure.d > CERTIFY_MAX_D:
        raise ValueError(f"brute force capped at d={CERTIFY_MAX_D} (CERTIFY_MAX_D), "
                         f"got d={measure.d}")
    components = [frozenset(c) for c in build_graph(measure).components]
    parts, reported = itertools.tee(all_bipartitions(measure.d))
    for part, report in zip(parts, _reports(measure, reported)):
        expected = all(c <= part.a or c <= part.c for c in components)
        if not report.agree or report.independent != expected:
            return False
    return True


def empirical_graph(chi_matrix, threshold: float = 0.1) -> ExtremalGraph:
    """Threshold an estimated chi matrix into a dependence graph.

    Accepts a `ChiMatrix` or a plain symmetric array; an edge is drawn
    where the estimate above the diagonal exceeds the threshold strictly
    (never at NaN), and components come from the same closure as in
    `build_graph`.
    """
    chi = getattr(chi_matrix, "chi", chi_matrix)
    chi = np.asarray(chi, dtype=float)
    if chi.ndim != 2 or chi.shape[0] != chi.shape[1]:
        raise ValueError("need a square chi matrix")
    return _assemble(chi > threshold)


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
