from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings

from dihom import (
    Digraph,
    InvalidRange,
    InvalidVertex,
    MalformedPartition,
    MultiHom,
    ShapeMismatch,
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
    is_multihom,
    looped_part,
    product,
    quotient,
    transitive_tournament,
    underlying_symmetrization,
)
from dihom.digraph import _arrows, _faces, _multihoms, _unpack
from conftest import brute_force_homs, digraphs, edge_cases, random_digraph


small_digraphs = digraphs(3)


def brute_force_cells(g: Digraph, h: Digraph) -> list[tuple[int, ...]]:
    """Mask tuples of every multihomomorphism, in lexicographic order, found
    by trying all assignments of nonempty target sets."""
    return [
        masks
        for masks in itertools.product(range(1, 1 << h.n), repeat=g.n)
        if is_multihom(
            MultiHom([t for t in range(h.n) if m >> t & 1] for m in masks), g, h
        )
    ]


def dimension(masks: tuple[int, ...]) -> int:
    return sum(bin(m).count("1") - 1 for m in masks)


def search(g: Digraph, h: Digraph, **kwargs) -> list[tuple[int, ...]]:
    """``_multihoms`` decoded into mask tuples; its ints must ascend strictly."""
    cells = _multihoms(g, h, **kwargs)
    assert all(a < b for a, b in zip(cells, cells[1:]))
    return list(_unpack(cells, g.n, max(h.n, 1)))


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
    @given(small_digraphs, small_digraphs)
    @edge_cases
    def test_cells_match_brute_force(self, g, h):
        every = brute_force_cells(g, h)
        for max_dim in (0, 1, 2, None):
            expected = [c for c in every if max_dim is None or dimension(c) <= max_dim]
            assert search(g, h, max_dim=max_dim) == expected
        # The 0-cells come out in lexicographic order already.
        homs = [c for c in every if dimension(c) == 0]
        assert search(g, h, max_dim=0) == homs
        assert has_homomorphism(g, h) == bool(homs)

    @settings(max_examples=80, deadline=None)
    @given(small_digraphs, small_digraphs)
    @edge_cases
    def test_limit_stops_early(self, g, h):
        cells = _multihoms(g, h)
        for limit in {1, 2, len(cells) // 2 + 1, len(cells), len(cells) + 1}:
            assert _multihoms(g, h, limit=limit) == cells[:limit]

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
        assert _arrows(g, h, maps) == expected

    def test_faces_drop_one_member_of_a_doubled_block(self):
        # Two 3-bit blocks, vertex 0 high: [{1, 2}, {0, 1}] and [{2}, {0}].
        assert list(_faces([0b110_011, 0b100_001], 2, 3)) == [
            [0b100_011, 0b010_011, 0b110_010, 0b110_001],
            [],
        ]
        # One block is a simplex: its facets, members dropped in ascending order.
        assert list(_faces([0b1011, 0b1000], 1, 4)) == [[0b1010, 0b1001, 0b0011], []]


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
