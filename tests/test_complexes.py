from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dihom import (
    Digraph,
    EmptyComplex,
    FaceNotInComplex,
    Poset,
    SimplicialComplex,
    SizeCapExceeded,
    directed_clique_complex,
    directed_cycle,
    directed_path,
    empty_complex,
    face_poset,
    full_simplex,
    hom_poset,
    in_neighborhood_complex,
    order_complex,
    out_neighborhood_complex,
    poset_product,
    reduced_homology,
    simplex_boundary,
    transitive_tournament,
    universality_graph,
    void_complex,
)
from dihom._graph import components

from conftest import digraphs, nbd_example_digraph, random_digraph


def fs(*members):
    return frozenset(members)


class TestSimplicialComplex:
    def test_faces_are_downward_closed(self):
        x = SimplicialComplex(range(3), [[0, 1, 2]])
        assert x.faces() == {
            fs(), fs(0), fs(1), fs(2), fs(0, 1), fs(0, 2), fs(1, 2), fs(0, 1, 2),
        }

    def test_dominated_generators_are_absorbed(self):
        x = SimplicialComplex(range(3), [[0, 1], [0], [0, 1]])
        assert x.f_vector() == (2, 1)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.frozensets(st.integers(0, 5), max_size=4), max_size=10))
    @example([])
    @example([[]])
    @example([[], []])
    @example([[], [3]])
    @example([[0, 1], [1, 0], [1]])
    @example([[0], [0, 1], [0, 1, 2], [2], [0, 1, 2]])
    def test_facets_are_the_generators_nothing_else_contains(self, gens):
        sets = {frozenset(f) for f in gens}
        expected = {f for f in sets if not any(f < g for g in sets)}
        assert SimplicialComplex(range(6), gens).facets == expected

    def test_f_vector_dimension_euler(self):
        x = simplex_boundary(2)
        assert x.f_vector() == (3, 3)
        assert x.dimension() == 1
        assert x.euler_characteristic() == 0  # unreduced: 3 - 3
        assert full_simplex(2).euler_characteristic() == 1

    def test_void_and_empty_are_distinct(self):
        v, e = void_complex(), empty_complex()
        assert v.is_void and not v.is_empty
        assert e.is_empty and not e.is_void
        assert v.dimension() == -2
        assert e.dimension() == -1
        assert e.faces() == {fs()}
        assert v.faces() == frozenset()

    def test_has_face(self):
        x = SimplicialComplex("abc", [["a", "b"]])
        assert x.has_face(["a"])
        assert x.has_face([])
        assert not x.has_face(["a", "c"])

    def test_link(self):
        x = simplex_boundary(3)
        lk = x.link([0])
        assert lk == simplex_boundary(2).induced([1, 2, 3]) or lk.f_vector() == (3, 3)
        # link of a facet is the empty complex
        assert x.link([0, 1, 2]).is_empty
        with pytest.raises(FaceNotInComplex):
            x.link([0, 1, 2, 3])

    def test_induced(self):
        x = simplex_boundary(2)
        y = x.induced([0, 1])
        assert y.f_vector() == (2, 1)

    def test_suspension_of_two_points_is_a_square(self):
        two = SimplicialComplex([0, 1], [[0], [1]])
        s = two.suspension()
        assert s.f_vector() == (4, 4)
        assert s.euler_characteristic() == 0

    def test_suspension_of_empty_complex_is_two_points(self):
        s = empty_complex().suspension()
        assert s.f_vector() == (2,)

    def test_equality(self):
        assert SimplicialComplex([0, 1], [[0, 1]]) == full_simplex(1)
        assert simplex_boundary(2) != full_simplex(2)


class TestPoset:
    def test_from_covers_roundtrip(self):
        p = Poset.from_covers("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
        assert p.lt("a", "d")
        assert p.lt("a", "b")
        assert not p.lt("b", "c") and not p.lt("c", "b")
        assert set(p.covering_pairs()) == {("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")}
        assert p.minimal_elements() == ["a"]
        assert p.maximal_elements() == ["d"]

    def test_from_covers_rejects_cycles(self):
        with pytest.raises(ValueError):
            Poset.from_covers("ab", [("a", "b"), ("b", "a")])

    def test_direct_construction_validates(self):
        p = Poset(["x", "y"], [("x", "y")])
        assert p.lt("x", "y") and not p.lt("y", "x")
        with pytest.raises(ValueError):
            Poset("ab", [("a", "b"), ("b", "a")])  # antisymmetry
        with pytest.raises(ValueError):
            Poset("abc", [("a", "b"), ("b", "c")])  # missing a < c

    def test_connectivity(self):
        chain = Poset.from_covers([0, 1, 2], [(0, 1), (1, 2)])
        assert chain.is_connected()
        antichain = Poset([0, 1, 2], [])
        assert not antichain.is_connected()
        assert not Poset([], []).is_connected()

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(1, 7).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))),
            )
        )
    )
    @example((3, [(0, 2), (1, 2)]))
    @example((4, [(0, 1), (2, 1), (2, 3)]))
    def test_connectivity_matches_the_covers_route(self, drawn):
        # Comparability and the cover relation have the same components; the
        # examples are connected only through a path that goes down and up.
        n, pairs = drawn
        p = Poset.from_covers(range(n), [(i, j) for i, j in pairs if i < j])
        adj: list[list[int]] = [[] for _ in range(n)]
        for i, j in p.covering_index_pairs():
            adj[i].append(j)
            adj[j].append(i)
        assert p.is_connected() == (len(components(adj)) == 1)

    def test_product(self):
        chain2 = Poset.from_covers([0, 1], [(0, 1)])
        square = poset_product(chain2, chain2)
        assert len(square) == 4
        assert len(square.covering_index_pairs()) == 4
        assert square.lt((0, 0), (1, 1))
        assert not square.lt((0, 1), (1, 0))


class TestFaceAndOrderComplexes:
    def test_face_poset_of_triangle_boundary(self):
        p = face_poset(simplex_boundary(2))
        assert len(p) == 6  # empty face excluded
        assert len(p.covering_index_pairs()) == 6

    def test_face_poset_cap(self):
        with pytest.raises(SizeCapExceeded):
            face_poset(simplex_boundary(3), cap=13)  # 14 faces, 7 per facet
        assert len(face_poset(simplex_boundary(3), cap=14)) == 14

    def test_face_poset_cap_on_one_facet_enumerates_nothing(self, monkeypatch):
        def fail(self):
            raise AssertionError("faces enumerated")

        monkeypatch.setattr(SimplicialComplex, "_face_masks", fail)
        with pytest.raises(SizeCapExceeded):
            face_poset(full_simplex(40), cap=10)

    def test_face_poset_cap_stops_the_enumeration(self):
        # 2000 random 9-vertex facets on 40 vertices: over 500,000 faces.
        rng = random.Random(0)
        x = SimplicialComplex(
            range(40), [rng.sample(range(40), 9) for _ in range(2000)]
        )
        with pytest.raises(SizeCapExceeded):
            face_poset(x, cap=1000)
        assert x._masks is None
        y = simplex_boundary(3)
        assert y.f_vector() == (4, 6, 4)  # caches all 14 faces
        with pytest.raises(SizeCapExceeded):
            face_poset(y, cap=13)

    def test_order_complex_of_face_poset_is_barycentric(self):
        oc = order_complex(face_poset(simplex_boundary(2)))
        assert oc.f_vector() == (6, 6)  # hexagon
        assert oc.euler_characteristic() == 0

    def test_order_complex_of_chain_is_simplex(self):
        chain = Poset.from_covers(range(4), [(i, i + 1) for i in range(3)])
        assert order_complex(chain) == full_simplex(3)

    def test_order_complex_of_antichain(self):
        p = Poset(range(3), [])
        assert order_complex(p).f_vector() == (3,)

    def test_order_complex_of_empty_poset(self):
        p = Poset([], [])
        assert order_complex(p).is_empty

    def test_order_complex_of_a_large_hom_poset(self):
        # 30,240 maximal chains, all of them facets.
        p = hom_poset(Digraph(3, [(0, 1), (1, 2)]), transitive_tournament(8))
        x = order_complex(p.as_poset())
        assert len(x.facets) == 30240
        assert {len(f) for f in x.facets} == {6}

    def test_order_complex_builds_the_down_masks_once(self, monkeypatch):
        # A diamond with a top: two maximal chains through covers only.
        covers = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]
        p = Poset.from_covers(range(5), covers)
        calls = []
        down_masks = Poset.down_masks

        def counted(self):
            calls.append(self)
            return down_masks(self)

        monkeypatch.setattr(Poset, "down_masks", counted)
        x = order_complex(p)
        assert calls == [p]
        assert x.facets == {fs(0, 1, 3, 4), fs(0, 2, 3, 4)}
        assert sorted(p.covering_index_pairs()) == covers

    def test_order_complex_cap(self):
        chain = Poset.from_covers(range(12), [(i, i + 1) for i in range(11)])
        with pytest.raises(SizeCapExceeded):
            order_complex(chain, cap=100)


class TestNeighborhoodComplexes:
    def test_worked_example_facets(self):
        g = nbd_example_digraph()
        out = out_neighborhood_complex(g)
        assert set(out.faces_by_dimension()[out.dimension()]) == {fs(0, 1, 3), fs(0, 2, 3)}
        inn = in_neighborhood_complex(g)
        maximal = {f for f in inn.faces() if not any(f < g2 for g2 in inn.faces())}
        assert maximal == {fs(2, 3, 4), fs(0, 2), fs(1, 2, 4)}

    def test_vertices_require_positive_in_degree(self):
        g = Digraph(3, [(0, 1)])  # vertex 2 is isolated, vertex 0 has no in-edge
        x = out_neighborhood_complex(g)
        assert x.f_vector() == (1,)

    def test_edgeless_graph_gives_empty_complex(self):
        assert out_neighborhood_complex(Digraph(3)).is_empty

    def test_in_complex_is_out_complex_of_reverse(self, rng):
        for _ in range(15):
            g = random_digraph(rng, 5)
            assert in_neighborhood_complex(g) == out_neighborhood_complex(g.reverse())

    @given(digraphs(7))
    @example(Digraph(0))
    @example(Digraph(4))
    # loops, and isolated vertices 2 and 4
    @example(Digraph(5, [(0, 0), (0, 1), (1, 3), (3, 3)]))
    # in-degree 0 at 2 and 3, out-degree 0 at 2 and 4: mid-label gaps
    @example(Digraph(6, [(0, 1), (3, 1), (3, 4), (1, 5), (5, 0)]))
    @settings(max_examples=150, deadline=None)
    def test_mask_built_complexes_match_the_constructor(self, g):
        # The reference builds each complex from frozenset neighborhoods.
        vs = range(g.n)
        for built, ref in (
            (
                out_neighborhood_complex(g),
                SimplicialComplex(
                    [v for v in vs if g.in_degree(v)], map(g.out_neighbors, vs)
                ),
            ),
            (
                in_neighborhood_complex(g),
                SimplicialComplex(
                    [v for v in vs if g.out_degree(v)], map(g.in_neighbors, vs)
                ),
            ),
        ):
            assert built.vertices == ref.vertices
            assert built.facets == ref.facets
            assert built._tops == ref._tops
            assert reduced_homology(built) == reduced_homology(ref)
        assert in_neighborhood_complex(g) == out_neighborhood_complex(g.reverse())

    def test_transitive_tournament_out_complex_is_simplex(self):
        x = out_neighborhood_complex(transitive_tournament(4))
        # out-neighborhood of vertex 0 is everything below it: {1,2,3}
        assert x.dimension() == 2
        assert x.has_face([1, 2, 3])


class TestUniversality:
    def test_recovers_arbitrary_complexes(self):
        for faces in ([[0, 1, 2], [2, 3]], [[0], [1], [2]], [[0, 1], [1, 2], [0, 2]]):
            vertices = sorted({v for f in faces for v in f})
            x = SimplicialComplex(vertices, faces)
            g = universality_graph(x)
            assert out_neighborhood_complex(g) == x

    def test_apex_count(self):
        x = SimplicialComplex(range(3), [[0, 1], [1, 2]])
        g = universality_graph(x)
        assert g.n == 3 + 2  # one apex per facet

    def test_void_complex_rejected(self):
        with pytest.raises(EmptyComplex):
            universality_graph(void_complex())


class TestDirectedCliqueComplex:
    def test_transitive_tournament_gives_full_simplex(self):
        assert directed_clique_complex(transitive_tournament(3)) == full_simplex(2)

    def test_directed_triangle_gives_hollow_triangle(self):
        x = directed_clique_complex(directed_cycle(3))
        assert x.f_vector() == (3, 3)

    def test_path_gives_its_edges(self):
        x = directed_clique_complex(directed_path(3))
        assert x.f_vector() == (3, 2)

    def test_vertex_guard(self):
        with pytest.raises(SizeCapExceeded):
            directed_clique_complex(Digraph(17), max_vertices=16)
