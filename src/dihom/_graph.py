"""Traversals of graphs on vertices ``0 .. n-1``.

Every reachability question the package asks goes through one of these:
components of hom complexes and their one-skeleta, paths between
homomorphisms, acyclicity of Morse matchings and of DAG sources, the peel
levels of a DAG source and the height of a poset.  Most take
adjacency lists; :func:`reach` takes one successor bitset per vertex,
from any indexable object, so the bitsets may be computed on demand.
"""

from __future__ import annotations

from typing import Sequence


def bfs_distances(adj: Sequence[Sequence[int]], start: int) -> list[int]:
    """Fewest arrows from ``start`` to each vertex, ``-1`` if unreachable."""
    dist = [-1] * len(adj)
    dist[start] = 0
    queue = [start]
    for v in queue:  # the queue grows while it is read
        d = dist[v] + 1
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = d
                queue.append(w)
    return dist


def reach(adj: Sequence[int], start: int, goal: int | None = None) -> int:
    """The bitset of vertices reachable from ``start``, itself included,
    when the successors of ``v`` are the set bits of ``adj[v]``.

    With a ``goal`` the search stops as soon as it reaches ``goal``: the
    result then holds ``goal`` exactly when ``goal`` is reachable."""
    seen = todo = 1 << start
    stop = 0 if goal is None else 1 << goal
    while todo and not seen & stop:
        low = todo & -todo
        todo ^= low
        new = adj[low.bit_length() - 1] & ~seen
        seen |= new
        todo |= new
    return seen


def components(adj: Sequence[Sequence[int]]) -> list[list[int]]:
    """Connected components of a symmetric adjacency.

    Each component lists its vertices in ascending order; components come
    in order of their least vertex.
    """
    seen = [False] * len(adj)
    comps = []
    for root in range(len(adj)):
        if seen[root]:
            continue
        seen[root] = True
        comp = [root]
        for v in comp:
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        comp.sort()
        comps.append(comp)
    return comps


def topological_order(succ: Sequence[Sequence[int]]) -> list[int] | None:
    """A Kahn order of the digraph with successor lists ``succ``, or
    ``None`` when it has a directed cycle (a loop counts as one)."""
    indeg = [0] * len(succ)
    for ws in succ:
        for w in ws:
            indeg[w] += 1
    order = [v for v in range(len(succ)) if indeg[v] == 0]
    for v in order:
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                order.append(w)
    return order if len(order) == len(succ) else None


def levels(succ: Sequence[Sequence[int]]) -> list[int] | None:
    """The most arrows on a path out of each vertex (sinks get 0) of the
    digraph with successor lists ``succ``, or ``None`` when it has a
    directed cycle."""
    order = topological_order(succ)
    if order is None:
        return None
    level = [0] * len(succ)
    for v in reversed(order):
        level[v] = max((level[w] + 1 for w in succ[v]), default=0)
    return level
