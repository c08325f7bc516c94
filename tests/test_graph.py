"""Tests for the traversal helpers against a brute-force transitive closure."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from dihom._graph import bfs_distances, components, levels, reach, topological_order

# Successor lists of digraphs on up to 6 vertices; loops and repeated arcs
# are allowed, and n = 0 gives the empty graph.
successor_lists = st.integers(0, 6).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, n - 1), max_size=4) if n else st.nothing(),
        min_size=n,
        max_size=n,
    )
)


def closure(succ: list[list[int]]) -> list[list[bool]]:
    """``reach[u][v]``: a path of at least one arc leads from u to v."""
    n = len(succ)
    reach = [[w in succ[u] for w in range(n)] for u in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    reach[i][j] = reach[i][j] or reach[k][j]
    return reach


def symmetric(succ: list[list[int]]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in succ]
    for u, ws in enumerate(succ):
        for w in ws:
            adj[u].append(w)
            adj[w].append(u)
    return adj


@settings(max_examples=150, deadline=None)
@given(successor_lists)
def test_bfs_distances_are_shortest_path_lengths(succ):
    # The bitset closure ``reach`` must reach exactly what the search does.
    paths = closure(succ)
    masks = [sum(1 << w for w in set(ws)) for ws in succ]
    for s in range(len(succ)):
        dist = bfs_distances(succ, s)
        reached = reach(masks, s)
        assert dist[s] == 0
        for v in range(len(succ)):
            assert (dist[v] >= 0) == (v == s or paths[s][v]) == bool(reached >> v & 1)
            # A search that stops at ``v`` finds it exactly when it is reachable.
            assert bool(reach(masks, s, v) >> v & 1) == (dist[v] >= 0)
        # Distances are shortest: no arc shortcuts them, and every reached
        # vertex but the start has a predecessor one step closer.
        for u, ws in enumerate(succ):
            for w in ws:
                if dist[u] >= 0:
                    assert 0 <= dist[w] <= dist[u] + 1
        for v in range(len(succ)):
            if dist[v] > 0:
                assert any(
                    dist[u] == dist[v] - 1 and v in succ[u] for u in range(len(succ))
                )


@settings(max_examples=150, deadline=None)
@given(successor_lists)
def test_components_match_undirected_reachability(succ):
    adj = symmetric(succ)
    reach = closure(adj)
    comps = components(adj)
    assert sorted(v for c in comps for v in c) == list(range(len(succ)))
    assert [c[0] for c in comps] == sorted(c[0] for c in comps)
    label = {v: i for i, c in enumerate(comps) for v in c}
    for c in comps:
        assert c == sorted(c)
    for u in range(len(succ)):
        for v in range(len(succ)):
            assert (label[u] == label[v]) == (u == v or reach[u][v])


@settings(max_examples=150, deadline=None)
@given(successor_lists)
def test_topological_order_exactly_on_acyclic_digraphs(succ):
    reach = closure(succ)
    order = topological_order(succ)
    if any(reach[v][v] for v in range(len(succ))):
        assert order is None
        return
    assert order is not None
    assert sorted(order) == list(range(len(succ)))
    position = {v: i for i, v in enumerate(order)}
    for u, ws in enumerate(succ):
        for w in ws:
            assert position[u] < position[w]


def longest_path(succ: list[list[int]], v: int) -> int:
    """Most arrows on a path out of ``v``, by its recursive definition
    (the digraph must be acyclic)."""
    return max((longest_path(succ, w) + 1 for w in succ[v]), default=0)


@settings(max_examples=150, deadline=None)
@given(successor_lists)
def test_levels_are_longest_path_lengths(succ):
    level = levels(succ)
    if topological_order(succ) is None:
        assert level is None
    else:
        assert level == [longest_path(succ, v) for v in range(len(succ))]


def test_loop_is_a_cycle():
    assert topological_order([[0]]) is None
    assert levels([[0]]) is None
    assert topological_order([[1], []]) == [0, 1]


def test_empty_graph():
    assert components([]) == []
    assert topological_order([]) == []
    assert levels([]) == []
