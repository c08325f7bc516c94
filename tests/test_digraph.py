from __future__ import annotations

import itertools
import random
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dihom import (
    Digraph,
    InvalidRange,
    InvalidVertex,
    MalformedPartition,
    ShapeMismatch,
    SimplicialComplex,
    SizeCapExceeded,
    VertexMap,
    complete_bipartite_digraph,
    contains_bipartite,
    coproduct,
    directed_cycle,
    directed_path,
    enumerate_homomorphisms,
    exponential,
    exponential_maps,
    has_homomorphism,
    induced_subgraph,
    is_homomorphism,
    looped_part,
    product,
    quotient,
    transitive_tournament,
    underlying_symmetrization,
    universality_graph,
)
from dihom.digraph import _arrows, _bits, _faces, _multihoms, _pack, _unpack
from dihom.homcomplex import _skeleton
from conftest import (
    back_pointing,
    brute_force_cells,
    brute_force_homs,
    digraphs,
    edge_cases,
    random_digraph,
    relabelled_digraphs,
)


small_digraphs = digraphs(3)
# Sources whose arcs may point back to lower labels: the search must not
# depend on the labels for its cells or their order.
sources = st.one_of(small_digraphs, relabelled_digraphs(4))


def full_size(test):
    """Pin 4-vertex pairs that random draws seldom reach: a path from a
    looped vertex into a dense looped target, and a looped 4-cycle into a
    looped transitive tournament."""
    for pair in (
        (
            Digraph(4, [(0, 0), (0, 1), (1, 2), (2, 3)]),
            Digraph(4, [(u, v) for u in range(4) for v in range(4) if (u, v) != (3, 0)]),
        ),
        (
            Digraph(4, [(v, v) for v in range(4)] + [(v, (v + 1) % 4) for v in range(4)]),
            Digraph(4, [(u, v) for u in range(4) for v in range(4) if u <= v]),
        ),
    ):
        test = example(*pair)(test)
    return test


def dimension(masks: tuple[int, ...]) -> int:
    return sum(bin(m).count("1") - 1 for m in masks)


def search(g: Digraph, h: Digraph, **kwargs) -> list[tuple[int, ...]]:
    """``_multihoms`` decoded into mask tuples; its ints must ascend strictly."""
    cells = _multihoms(g, h, **kwargs)
    assert all(a < b for a, b in zip(cells, cells[1:]))
    return list(_unpack(cells, g.n, max(h.n, 1)))


def search_nodes(g: Digraph, h: Digraph) -> tuple[int, int]:
    """The number of calls of ``_multihoms``'s inner ``rec`` and the number
    of cells, counted with a profile hook.  One call is one search node: a
    position before the last of the search order, with the prefix placed
    before it and a nonempty allowed set that its parent's forward check
    left.  The last vertex's sets go straight into the cells, so neither
    they nor a set whose next allowed set is empty make a call."""
    consts = _multihoms.__code__.co_consts
    rec = next(c for c in consts if getattr(c, "co_name", "") == "rec")
    nodes = 0

    def hook(frame, event, arg):
        nonlocal nodes
        if event == "call" and frame.f_code is rec:
            nodes += 1

    old = sys.getprofile()
    sys.setprofile(hook)
    try:
        cells = _multihoms(g, h)
    finally:
        sys.setprofile(old)
    return nodes, len(cells)


def star(centre: int, out: bool) -> Digraph:
    """The 4-leaf star on 5 vertices around ``centre``, arcs pointing out
    of it or into it."""
    leaves = [v for v in range(5) if v != centre]
    return Digraph(5, [(centre, v) if out else (v, centre) for v in leaves])


# A fan whose centre has the top label, and its forward-labelled copy.
FAN = Digraph(5, [(1, 4), (4, 2), (4, 3)])
FORWARD_FAN = Digraph(5, [(0, 1), (1, 2), (1, 3)])

# The 16-vertex digraph whose out-neighbourhood complex is the 6-vertex
# projective plane: ten apex vertices, each pointing at one triangle.
H16 = universality_graph(
    SimplicialComplex(
        range(6),
        [
            (0, 1, 2), (0, 2, 3), (0, 1, 5), (0, 3, 4), (0, 4, 5),
            (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5),
        ],
    )
)


class TestDigraph:
    def test_basic_accessors(self):
        g = Digraph(3, [(0, 1), (1, 2), (2, 2)])
        assert g.n == 3
        assert g.edge_count == 3
        assert g.out_neighbors(0) == {1}
        assert g.in_neighbors(2) == {1, 2}
        assert g.has_edge(0, 1) and not g.has_edge(1, 0)
        assert g.has_loop(2) and not g.has_loop(0)

    def test_duplicate_edges_collapse(self):
        g = Digraph(2, [(0, 1), (0, 1), (0, 1)])
        assert g.edge_count == 1

    def test_out_of_range_vertex(self):
        with pytest.raises(InvalidVertex):
            Digraph(2, [(0, 2)])
        with pytest.raises(InvalidVertex):
            Digraph(2, [(-1, 0)])

    def test_vertex_limit(self):
        with pytest.raises(SizeCapExceeded):
            Digraph(65, [])
        assert Digraph(64, []).n == 64

    def test_equality_is_label_sensitive(self):
        a = Digraph(2, [(0, 1)])
        b = Digraph(2, [(1, 0)])
        assert a != b
        assert a == Digraph(2, [(0, 1)])
        assert hash(a) == hash(Digraph(2, [(0, 1)]))

    def test_reverse(self, rng):
        for _ in range(20):
            g = random_digraph(rng, rng.randint(0, 5))
            r = g.reverse()
            assert r.reverse() == g
            assert set(r.edges) == {(v, u) for (u, v) in g.edges}
            for v in range(g.n):
                assert r.out_neighbors(v) == g.in_neighbors(v)

    def test_degrees_match_edges(self, rng):
        g = random_digraph(rng, 6, 0.5)
        assert sum(g.out_degree(v) for v in range(6)) == g.edge_count
        assert sum(g.in_degree(v) for v in range(6)) == g.edge_count

    def test_is_acyclic(self):
        assert transitive_tournament(4).is_acyclic()
        assert not directed_cycle(3).is_acyclic()
        # a loop is a cycle
        assert not Digraph(1, [(0, 0)]).is_acyclic()
        assert Digraph(0, []).is_acyclic()

    def test_weak_components(self):
        g = coproduct(directed_path(2), directed_path(3))
        comps = g.weak_components()
        assert sorted(sorted(c) for c in comps) == [[0, 1], [2, 3, 4]]
        assert not g.is_weakly_connected()
        assert directed_cycle(4).is_weakly_connected()


class TestVertexMap:
    def test_call_and_image(self):
        f = VertexMap((2, 0, 1))
        assert f(0) == 2 and f(2) == 1
        assert f.image == (2, 0, 1)
        assert len(f) == 3

    def test_hash_and_order(self):
        assert VertexMap((0, 1)) == VertexMap((0, 1))
        assert VertexMap((0, 1)) < VertexMap((0, 2))
        assert len({VertexMap((0,)), VertexMap((0,))}) == 1


class TestProductCoproduct:
    def test_product_edges(self, rng):
        g = random_digraph(rng, 3)
        h = random_digraph(rng, 3)
        p = product(g, h)
        assert p.n == 9
        for (a, x), (b, y) in itertools.product(
            itertools.product(range(3), range(3)), repeat=2
        ):
            expected = g.has_edge(a, b) and h.has_edge(x, y)
            assert p.has_edge(a * 3 + x, b * 3 + y) == expected

    def test_coproduct_shifts_second_factor(self):
        g = directed_path(2)
        h = directed_cycle(3)
        c = coproduct(g, h)
        assert c.n == 5
        assert set(c.edges) == {(0, 1), (2, 3), (3, 4), (4, 2)}

    def test_hom_counts_from_coproduct_multiply(self, rng):
        # Maps out of a disjoint union are pairs of maps out of the parts.
        for _ in range(10):
            a = random_digraph(rng, 2)
            b = random_digraph(rng, 2)
            c = random_digraph(rng, 3)
            lhs = len(enumerate_homomorphisms(coproduct(a, b), c))
            rhs = len(enumerate_homomorphisms(a, c)) * len(enumerate_homomorphisms(b, c))
            assert lhs == rhs


class TestExponential:
    def test_vertices_are_all_maps(self):
        h = Digraph(2, [(0, 1)])
        g = directed_path(2)
        e = exponential(h, g)
        maps = exponential_maps(h, g)
        assert e.n == 4 == len(maps)
        assert [m.image for m in maps] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_edge_rule(self, rng):
        # (f, g) is an edge iff every edge (v, w) of G has (f(v), g(w)) in H.
        g = random_digraph(rng, 2)
        h = random_digraph(rng, 3)
        e = exponential(h, g)
        maps = exponential_maps(h, g)
        for i, f in enumerate(maps):
            for j, k in enumerate(maps):
                expected = all(h.has_edge(f(v), k(w)) for (v, w) in g.edges)
                assert e.has_edge(i, j) == expected

    def test_size_cap(self):
        with pytest.raises(SizeCapExceeded):
            exponential(transitive_tournament(5), directed_path(4), cap=100)

    def test_adjunction_bijection(self, rng):
        # Currying: maps G x H -> K correspond to maps G -> K^H.
        for _ in range(12):
            g = random_digraph(rng, 2, 0.5)
            h = random_digraph(rng, 2, 0.5)
            k = random_digraph(rng, 3, 0.5)
            lhs = len(enumerate_homomorphisms(product(g, h), k))
            rhs = len(enumerate_homomorphisms(g, exponential(k, h)))
            assert lhs == rhs


class TestQuotientInduced:
    def test_quotient_of_hexagon_is_triangle(self):
        c6 = directed_cycle(6)
        q = quotient(c6, [[0, 3], [1, 4], [2, 5]])
        assert q == directed_cycle(3)

    def test_quotient_rejects_bad_partition(self):
        g = directed_path(3)
        with pytest.raises(MalformedPartition):
            quotient(g, [[0, 1]])  # vertex 2 missing
        with pytest.raises(MalformedPartition):
            quotient(g, [[0, 1], [1, 2]])  # overlap

    def test_induced_subgraph_relabels_in_sorted_order(self):
        g = Digraph(4, [(0, 1), (1, 3), (3, 0), (2, 2)])
        sub = induced_subgraph(g, [3, 0, 1])
        # kept vertices 0,1,3 become 0,1,2
        assert sub == Digraph(3, [(0, 1), (1, 2), (2, 0)])

    def test_symmetrization_and_looped_part(self):
        g = Digraph(3, [(0, 1), (1, 1), (2, 2), (2, 0)])
        u = underlying_symmetrization(g)
        assert u.has_edge(1, 0) and u.has_edge(0, 2)
        lp = looped_part(g)
        assert lp.n == 2  # vertices 1 and 2, relabeled 0 and 1
        assert lp.has_loop(0) and lp.has_loop(1)


class TestHomomorphisms:
    def test_is_homomorphism(self):
        g = directed_path(3)
        h = transitive_tournament(3)
        assert is_homomorphism(VertexMap((0, 1, 2)), g, h)
        assert not is_homomorphism(VertexMap((2, 1, 0)), g, h)
        with pytest.raises(ShapeMismatch):
            is_homomorphism(VertexMap((0, 1)), g, h)

    @settings(max_examples=60, deadline=None)
    @given(small_digraphs, small_digraphs)
    def test_enumeration_matches_brute_force(self, g, h):
        assert enumerate_homomorphisms(g, h) == brute_force_homs(g, h)

    def test_enumeration_is_lexicographic(self):
        homs = enumerate_homomorphisms(directed_path(2), transitive_tournament(3))
        assert homs == sorted(homs)
        assert [f.image for f in homs] == [(0, 1), (0, 2), (1, 2)]

    def test_has_homomorphism_agrees_with_enumeration(self, rng):
        for _ in range(25):
            g = random_digraph(rng, 3, 0.5)
            h = random_digraph(rng, 3, 0.4)
            assert has_homomorphism(g, h) == bool(enumerate_homomorphisms(g, h))

    def test_cycle_to_tournament_has_no_hom(self):
        assert not has_homomorphism(directed_cycle(3), transitive_tournament(5))


class TestMultihomSearch:
    @settings(max_examples=80, deadline=None)
    @given(sources, small_digraphs)
    @edge_cases
    @back_pointing
    @full_size
    def test_cells_match_brute_force(self, g, h):
        # The search's two modes: every cell, or the 0-cells alone.  These
        # come out in lexicographic order already.
        every = brute_force_cells(g, h)
        assert search(g, h) == every
        homs = [c for c in every if dimension(c) == 0]
        assert search(g, h, max_dim=0) == homs
        assert has_homomorphism(g, h) == bool(homs)

    @settings(max_examples=80, deadline=None)
    @given(sources, small_digraphs)
    @edge_cases
    @back_pointing
    @full_size
    def test_skeleton_matches_brute_force(self, g, h):
        # The one-skeleton read off the 0-cells alone against the one read
        # off the 1-cells: each 1-cell joins its two faces.  Looped sources
        # are covered, where maps that differ at one vertex may not be
        # joined.
        n, w = g.n, max(h.n, 1)
        every = [_pack(c, n, w) for c in brute_force_cells(g, h)]
        maps = [c for c in every if c.bit_count() == n]
        index = {c: i for i, c in enumerate(maps)}
        adj = [[] for _ in maps]
        for a, b in _faces([c for c in every if c.bit_count() == n + 1], n, w):
            adj[index[a]].append(index[b])
            adj[index[b]].append(index[a])
        assert _skeleton(maps, g, h) == [sorted(js) for js in adj]

    @settings(max_examples=80, deadline=None)
    @given(sources, small_digraphs)
    @edge_cases
    @back_pointing
    @full_size
    def test_limit_stops_early(self, g, h):
        # ``limit`` bounds the count, not the prefix: the cells found come
        # back ascending, and all of them once there are at most ``limit``.
        # In both modes the last vertex's sets go straight into the cells
        # and every other vertex makes a call, so both modes are checked.
        for max_dim in (0, None):
            cells = _multihoms(g, h, max_dim=max_dim)
            for limit in {1, 2, len(cells) // 2 + 1, len(cells), len(cells) + 1}:
                found = _multihoms(g, h, max_dim=max_dim, limit=limit)
                assert found == sorted(found)
                assert set(found) <= set(cells)
                assert len(found) == min(limit, len(cells))
                if limit >= len(cells):
                    assert found == cells

    def test_limit_stops_a_huge_search_at_once(self):
        # 2**40 - 1 cells unbounded, and 64 single values for the one
        # vertex into 64: the first five found come back.
        assert _multihoms(Digraph(1), Digraph(40), limit=5) == [1, 2, 3, 4, 5]
        cells = _multihoms(Digraph(1), Digraph(64), max_dim=0, limit=5)
        assert cells == [1, 2, 4, 8, 16]

    def test_limit_stops_the_last_vertex_walk(self):
        # The arc's head may take any of the 2**24 - 1 sets once its tail
        # has one value: the walk of them stops at the five still wanted.
        k24 = Digraph(24, itertools.product(range(24), repeat=2))
        tracemalloc.start()
        try:
            cells = _multihoms(Digraph(2, [(0, 1)]), k24, limit=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cells == [1 << 24 | s for s in range(1, 6)]
        assert peak < 50_000

    @settings(max_examples=80, deadline=None)
    @given(small_digraphs, small_digraphs)
    @edge_cases
    def test_arrows_match_the_pairwise_rule(self, g, h):
        maps = exponential_maps(h, g)
        expected = [
            [
                j
                for j, f2 in enumerate(maps)
                if all(h.has_edge(f(v), f2(w)) for v, w in g.edges)
            ]
            for f in maps
        ]
        # The rule reads packed maps, which ascend in the same order.
        cells = [_pack([1 << t for t in f.image], g.n, max(h.n, 1)) for f in maps]
        assert cells == sorted(cells)
        succ = _arrows(g, h, cells)
        assert [list(_bits(succ(k))) for k in range(len(cells))] == expected
        # The reversed pair gives the transposed relation: the predecessors.
        transposed = [
            [i for i, js in enumerate(expected) if j in js] for j in range(len(maps))
        ]
        pred = _arrows(g.reverse(), h.reverse(), cells)
        assert [list(_bits(pred(k))) for k in range(len(cells))] == transposed

    def test_faces_drop_one_member_of_a_doubled_block(self):
        # Two 3-bit blocks, vertex 0 high: [{1, 2}, {0, 1}] and [{2}, {0}].
        assert list(_faces([0b110_011, 0b100_001], 2, 3)) == [
            [0b100_011, 0b010_011, 0b110_010, 0b110_001],
            [],
        ]
        # One block is a simplex: its facets, members dropped in ascending order.
        assert list(_faces([0b1011, 0b1000], 1, 4)) == [[0b1010, 0b1001, 0b0011], []]


class TestSearchOrder:
    """The search places vertices in a connected order, so arcs that
    point back to lower labels cost no more than forward ones."""

    def test_fan_into_t6_makes_few_nodes_per_cell(self):
        nodes, cells = search_nodes(FAN, transitive_tournament(6))
        assert cells == 35_343
        assert nodes < cells

    def test_forward_check_prunes_the_sets_of_a_tail(self):
        # The arc's tail has 2**16 - 1 sets, but only 151 have a common
        # out-neighbour: two disjoint arcs are the product of one arc's
        # 241 cells with itself, found in fewer nodes than cells.  Walking
        # every set of each tail made 15,859,712 nodes.
        one = _multihoms(Digraph(2, [(0, 1)]), H16)
        assert len(one) == 241
        two_arcs = Digraph(4, [(0, 1), (2, 3)])
        cells = _multihoms(two_arcs, H16)
        assert cells == [a << 32 | b for a in one for b in one]
        nodes, count = search_nodes(two_arcs, H16)
        assert count == 58_081
        assert nodes <= count

    @pytest.mark.parametrize(
        "g, forward, n",
        [
            (FAN, FORWARD_FAN, 6),
            (Digraph(5, [(0, 3), (3, 1), (1, 4), (4, 2)]), directed_path(5), 6),
            # 4-leaf out- and in-stars centred on the top label
            (star(4, out=True), star(0, out=True), 5),
            (star(4, out=False), star(0, out=False), 5),
        ],
    )
    def test_node_count_does_not_depend_on_labels(self, g, forward, n):
        t = transitive_tournament(n)
        assert search_nodes(g, t) == search_nodes(forward, t)


class TestBipartiteDetection:
    def test_complete_bipartite_contains_itself(self):
        g = complete_bipartite_digraph(2, 3)
        assert contains_bipartite(g, 2, 3)
        assert contains_bipartite(g, 2, 2)
        assert contains_bipartite(g, 1, 3)
        assert not contains_bipartite(g, 3, 2)

    def test_path_contains_only_trivial_pattern(self):
        p = directed_path(4)
        assert contains_bipartite(p, 1, 1)
        assert not contains_bipartite(p, 1, 2)
        assert not contains_bipartite(p, 2, 1)

    def test_source_sink_star(self):
        # two sources each pointing at the same two sinks
        g = Digraph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        assert contains_bipartite(g, 2, 2)

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(InvalidRange):
            contains_bipartite(directed_path(2), 0, 1)
