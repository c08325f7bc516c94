"""Tests for multihomomorphism cells, hom posets, and their certificates."""

import itertools
import math
import random

import pytest
from hypothesis import example, given, settings

from dihom import (
    ChainComplex,
    Digraph,
    Disconnected,
    EmptyComplex,
    EmptyHom,
    HomPoset,
    HomologyGroups,
    InvalidRange,
    MultiHom,
    Poset,
    ShapeMismatch,
    SizeCapExceeded,
    StaircaseCell,
    VertexMap,
    closure_nu,
    collapse_free_pairs,
    directed_cycle,
    directed_path,
    complete_bipartite_digraph,
    diameter,
    enumerate_homomorphisms,
    enumerate_tournaments,
    full_simplex,
    hom_one_skeleton,
    hom_poset,
    homotopy_classes,
    is_connected_hom,
    is_multihom,
    is_n_leray,
    multihom_of_map,
    order_complex,
    out_neighborhood_complex,
    reduced_homology,
    sphere_tournament,
    staircase_cells,
    tournament_matching,
    transitive_tournament,
)
from dihom import _graph

from conftest import (
    back_pointing,
    brute_force_cells,
    brute_force_homs,
    digraphs,
    edge_cases,
    nbd_example_digraph,
    pentagon_tournament,
    random_digraph,
    relabelled_digraphs,
)


class TestMultiHom:
    def test_assignments_roundtrip(self):
        a = MultiHom([{0}, {2, 3}, {1}])
        assert a.assignments == (frozenset({0}), frozenset({2, 3}), frozenset({1}))
        assert a.masks == (0b0001, 0b1100, 0b0010)
        assert len(a) == 3
        assert a[1] == {2, 3}

    def test_dimension_counts_extra_members(self):
        assert MultiHom([{0}, {1}]).dimension() == 0
        assert MultiHom([{0}, {2, 3}]).dimension() == 1
        assert MultiHom([{0, 1}, {2, 3}]).dimension() == 2

    def test_order_is_pointwise_containment(self):
        small = MultiHom([{0}, {2}])
        big = MultiHom([{0}, {2, 3}])
        assert small.leq(big)
        assert big.leq(big)
        assert not big.leq(small)
        assert not MultiHom([{1}, {2}]).leq(big)
        # Different lengths never compare.
        assert not MultiHom([{0}]).leq(big)

    def test_singleton_cells_are_vertex_maps(self):
        f = VertexMap([2, 0, 1])
        cell = multihom_of_map(f)
        assert cell.is_singleton()
        assert cell.singleton_map() == f
        assert cell.dimension() == 0

        fat = MultiHom([{0, 1}, {2}])
        assert not fat.is_singleton()
        with pytest.raises(ShapeMismatch):
            fat.singleton_map()

    def test_value_equality_and_hash(self):
        a = MultiHom([{0}, {1, 2}])
        b = MultiHom([[0], [2, 1]])
        assert a == b
        assert hash(a) == hash(b)
        assert a != MultiHom([{0}, {1}])
        assert len({a, b}) == 1

    def test_key_is_sorted_tuples(self):
        assert MultiHom([{3, 1}, {0}]).key() == ((1, 3), (0,))

    def test_rejects_empty_assignment(self):
        with pytest.raises(ShapeMismatch):
            MultiHom([{0}, set()])

    def test_rejects_negative_vertex(self):
        with pytest.raises(ShapeMismatch):
            MultiHom([{0}, {-1}])


_ARC = Digraph(2, [(0, 1)])
_IMMUTABLE = {
    "Digraph": lambda: _ARC,
    "VertexMap": lambda: VertexMap([0, 1]),
    "MultiHom": lambda: MultiHom([{0}]),
    "HomPoset": lambda: hom_poset(_ARC, transitive_tournament(3)),
    "HomSkeleton": lambda: hom_one_skeleton(_ARC, transitive_tournament(3)),
    "NuReduction": lambda: closure_nu(_ARC),
    "StaircaseCell": lambda: staircase_cells(2, 3)[0],
    "HomologyGroups": lambda: HomologyGroups({0: 1}),
    "ChainComplex": lambda: ChainComplex(full_simplex(1)),
    "LerayCertificate": lambda: is_n_leray(full_simplex(1), 0),
    "HomotopyClasses": lambda: homotopy_classes(_ARC, transitive_tournament(3)),
    "Matching": lambda: tournament_matching(_ARC, 3),
    "CollapseResult": lambda: collapse_free_pairs(full_simplex(1)),
    "SimplicialComplex": lambda: full_simplex(1),
    "Poset": lambda: Poset(range(2), [(0, 1)]),
}


@pytest.mark.parametrize("name", sorted(_IMMUTABLE))
def test_immutable(name):
    obj = _IMMUTABLE[name]()
    assert type(obj).__name__ == name
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        obj.n = 0


class TestIsMultihom:
    def setup_method(self):
        self.k2 = transitive_tournament(2)
        self.k4 = transitive_tournament(4)

    def test_valid_cell(self):
        assert is_multihom(MultiHom([{0}, {2, 3}]), self.k2, self.k4)

    def test_missing_edge_fails(self):
        # 1 -> 1 would have to be a loop of the target.
        assert not is_multihom(MultiHom([{0, 1}, {1, 2}]), self.k2, self.k4)

    def test_wrong_arrow_direction_fails(self):
        assert not is_multihom(MultiHom([{3}, {0}]), self.k2, self.k4)

    def test_loop_needs_looped_clique(self):
        loop = Digraph(1, [(0, 0)])
        looped_pair = Digraph(2, [(0, 0), (1, 1)])
        assert is_multihom(MultiHom([{0}]), loop, looped_pair)
        # {0, 1} is not mutually adjacent in the target, so the doubled
        # assignment is not a cell even though both singletons are.
        assert not is_multihom(MultiHom([{0, 1}]), loop, looped_pair)

    def test_shape_errors(self):
        with pytest.raises(ShapeMismatch):
            is_multihom(MultiHom([{0}]), self.k2, self.k4)
        with pytest.raises(ShapeMismatch):
            is_multihom(MultiHom([{0}, {4}]), self.k2, self.k4)


class TestHomPoset:
    def test_census_of_edge_into_k4(self):
        p = hom_poset(transitive_tournament(2), transitive_tournament(4))
        assert len(p) == 17
        assert p.dimension_census() == {0: 6, 1: 8, 2: 3}
        assert p.euler_characteristic() == 1

    @pytest.mark.parametrize("n,total", [(4, 17), (5, 49), (6, 129)])
    def test_census_growth(self, n, total):
        p = hom_poset(transitive_tournament(2), transitive_tournament(n))
        assert len(p) == total

    def test_minimal_cells_are_the_homomorphisms(self):
        g = transitive_tournament(2)
        h = transitive_tournament(4)
        p = hom_poset(g, h)
        assert p.homomorphisms() == enumerate_homomorphisms(g, h)
        assert all(c.dimension() == 0 for c in p.minimal_cells())

    def test_covers_are_single_element_extensions(self):
        p = hom_poset(transitive_tournament(2), transitive_tournament(4))
        cells = list(p)
        expected = {
            (i, j)
            for i, a in enumerate(cells)
            for j, b in enumerate(cells)
            if a.leq(b) and b.dimension() == a.dimension() + 1
        }
        assert set(p.covering_index_pairs()) == expected

    def test_membership_and_index(self):
        p = hom_poset(transitive_tournament(2), transitive_tournament(4))
        cell = MultiHom([{0}, {2, 3}])
        assert cell in p
        assert list(p)[p.index(cell)] == cell
        assert MultiHom([{0, 1}, {1}]) not in p
        # Lookups bisect the sorted cells; these pack past either end.
        above, below = MultiHom([{3}, {3}]), MultiHom([{0}, {0}])
        assert above.masks > max(c.masks for c in p)
        assert below.masks < min(c.masks for c in p)
        for outside in (above, below):
            assert outside not in p
            with pytest.raises(KeyError):
                p.index(outside)

    def test_members_past_the_block_width_do_not_alias(self):
        # Packed 4 bits per vertex with vertex 1 lowest, member 4 of
        # vertex 1 lands on member 0 of vertex 0: [{0}, {1, 4}] would read
        # as the cell [{0}, {1}].
        p = hom_poset(transitive_tournament(2), transitive_tournament(4))
        alias = MultiHom([{0}, {1, 4}])
        assert alias not in p
        with pytest.raises(KeyError):
            p.index(alias)
        assert MultiHom([{0}, {1}]) in p

    def test_cells_of_the_wrong_length_are_not_members(self):
        p = hom_poset(transitive_tournament(2), transitive_tournament(4))
        assert MultiHom([{0}]) not in p
        assert MultiHom([{0}, {1}, {2}]) not in p
        assert (0, 1) not in p
        with pytest.raises(KeyError):
            p.index(MultiHom([{1}]))

    def test_constructor_sorts_and_rejects_foreign_shapes(self):
        g, h = transitive_tournament(2), transitive_tournament(4)
        p = hom_poset(g, h)
        assert HomPoset(g, h, reversed(p.cells)).cells == p.cells
        with pytest.raises(ShapeMismatch):
            HomPoset(g, h, [MultiHom([{0}, {1, 4}])])
        with pytest.raises(ShapeMismatch):
            HomPoset(g, h, [MultiHom([{0}])])
        # not a multihomomorphism: the edge 0 -> 1 has no image
        with pytest.raises(ShapeMismatch):
            HomPoset(Digraph(2, [(0, 1)]), Digraph(2), [MultiHom([{0}, {1}])])
        # not closed under dropping a member: {0} and {1} are missing
        with pytest.raises(ShapeMismatch):
            HomPoset(Digraph(1), Digraph(2), [MultiHom([{0, 1}])])
        closed = [MultiHom([{0}]), MultiHom([{1}]), MultiHom([{0, 1}])]
        assert len(HomPoset(Digraph(1), Digraph(2), closed)) == 3
        # closed, but the 1-cell joining its two maps is missing: the
        # components are read off the 0-cells, which would join them
        with pytest.raises(ShapeMismatch):
            HomPoset(Digraph(1), Digraph(2), closed[:2])
        # a looped source vertex whose two values are not joined both
        # ways: the two maps are no edge, so none is missing
        p = HomPoset(Digraph(1, [(0, 0)]), Digraph(2, [(0, 0), (1, 1)]), closed[:2])
        assert len(p.components()) == 2

    @settings(max_examples=80, deadline=None)
    @given(digraphs(3), digraphs(4))
    @edge_cases
    def test_covers_match_brute_force(self, g, h):
        p = hom_poset(g, h)
        if len(p) > 300:
            return
        cells = list(p)
        expected = {
            (i, j)
            for i, a in enumerate(cells)
            for j, b in enumerate(cells)
            if a.leq(b) and b.dimension() == a.dimension() + 1
        }
        covers = p.covering_index_pairs()
        assert len(covers) == len(expected)
        assert set(covers) == expected

    @settings(max_examples=80, deadline=None)
    @given(digraphs(3), digraphs(4))
    @edge_cases
    def test_cells_ascend_in_packed_order(self, g, h):
        p = hom_poset(g, h)
        w = max(h.n, 1)
        packed = [sum(m << w * (g.n - 1 - v) for v, m in enumerate(c.masks)) for c in p]
        assert all(a < b for a, b in zip(packed, packed[1:]))
        assert [c.masks for c in p] == sorted(c.masks for c in p)
        assert [p.index(c) for c in p] == list(range(len(p)))
        minimal = p.minimal_cells()
        assert [c.singleton_map() for c in minimal] == enumerate_homomorphisms(g, h)
        assert minimal == [c for c in p if c.is_singleton()]

    @settings(max_examples=60, deadline=None)
    @given(relabelled_digraphs(4), digraphs(3))
    @edge_cases
    @back_pointing
    def test_relabelled_sources_match_brute_force(self, g, h):
        # Cells and their order do not depend on the source's labels.
        assert [c.masks for c in hom_poset(g, h)] == brute_force_cells(g, h)

    def test_empty_when_no_homomorphism_exists(self):
        p = hom_poset(directed_cycle(3), transitive_tournament(5))
        assert len(p) == 0
        assert p.homomorphisms() == []
        assert not p.is_connected()

    def test_empty_source_has_one_cell(self):
        p = hom_poset(Digraph(0, []), transitive_tournament(3))
        assert len(p) == 1
        assert p.euler_characteristic() == 1
        assert p.is_connected()

    def test_rotation_components(self):
        p = hom_poset(directed_cycle(3), directed_cycle(3))
        comps = p.components()
        assert len(comps) == 3
        assert all(len(c) == 1 for c in comps)

    def test_as_poset_matches_strict_order(self):
        p = hom_poset(transitive_tournament(2), transitive_tournament(3))
        q = p.as_poset()
        assert len(q.elements) == len(p)
        for a in p:
            for b in p:
                assert q.lt(a, b) == (a != b and a.leq(b))

    def test_cap(self):
        with pytest.raises(SizeCapExceeded):
            hom_poset(transitive_tournament(2), transitive_tournament(6), cap=100)

    @pytest.mark.parametrize("cap", [0, -1, -10])
    def test_cap_below_one_raises_at_the_first_cell(self, cap):
        with pytest.raises(SizeCapExceeded):
            hom_poset(transitive_tournament(2), transitive_tournament(4), cap=cap)
        with pytest.raises(SizeCapExceeded):
            hom_poset(Digraph(0), transitive_tournament(3), cap=cap)
        # An empty poset never reaches a first cell.
        assert len(hom_poset(directed_cycle(3), transitive_tournament(4), cap=cap)) == 0

    def test_exactly_cap_cells_pass(self):
        g, h = transitive_tournament(2), transitive_tournament(4)
        assert len(hom_poset(g, h, cap=17)) == 17
        with pytest.raises(SizeCapExceeded):
            hom_poset(g, h, cap=16)

    @settings(max_examples=80, deadline=None)
    @given(relabelled_digraphs(3), digraphs(4))
    @edge_cases
    @back_pointing
    @example(directed_cycle(3), directed_cycle(3))
    @example(  # two disjoint triangles: two components with edges in each
        Digraph(2, [(0, 1)]),
        Digraph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]),
    )
    def test_connected_iff_one_component(self, g, h):
        # The oracle joins every cell to all its covers, not only the
        # 0-cells to the 1-cells.
        p = hom_poset(g, h)
        adj = [[] for _ in range(len(p))]
        for i, j in p.covering_index_pairs():
            adj[i].append(j)
            adj[j].append(i)
        expected = [[p.cells[i] for i in c] for c in _graph.components(adj)]
        assert p.components() == expected
        assert p.is_connected() == (len(expected) == 1)

    def test_maximal_cells_of_edge_into_k4(self):
        p = hom_poset(transitive_tournament(2), transitive_tournament(4))
        tops = {c.key() for c in p.maximal_cells()}
        assert tops == {
            ((0,), (1, 2, 3)),
            ((0, 1), (2, 3)),
            ((0, 1, 2), (3,)),
        }


class TestOneSkeleton:
    def test_codimension_one_tournament_pair_is_a_path(self):
        s = hom_one_skeleton(transitive_tournament(3), transitive_tournament(4))
        assert len(s) == 4
        assert len(s.edges) == 3
        assert s.is_connected()
        degrees = sorted(len(s.neighbors(i)) for i in range(len(s)))
        assert degrees == [1, 1, 2, 2]

    @pytest.mark.parametrize("r,s,count", [(2, 2, 1), (2, 5, 4), (3, 5, 3), (5, 5, 1)])
    def test_path_into_path_counts(self, r, s, count):
        sk = hom_one_skeleton(directed_path(r), directed_path(s))
        assert len(sk) == count
        # Distinct shifts differ everywhere, so no two maps are adjacent.
        assert len(sk.edges) == 0

    @pytest.mark.parametrize("r,s", [(3, 3), (6, 3), (5, 3), (4, 3), (8, 4), (6, 4)])
    def test_cycle_into_cycle_counts(self, r, s):
        sk = hom_one_skeleton(directed_cycle(r), directed_cycle(s))
        assert len(sk) == (s if r % s == 0 else 0)

    def test_triangle_into_pentagon_tournament_is_a_long_cycle(self):
        sk = hom_one_skeleton(directed_cycle(3), pentagon_tournament())
        assert len(sk) == 15
        assert len(sk.edges) == 15
        assert sk.is_connected()
        assert all(len(sk.neighbors(i)) == 2 for i in range(15))
        # Closed walk along the unique cycle returns to the start after 15
        # steps, so the skeleton is one circle rather than several.
        dist = sk.bfs_distances(0)
        assert max(dist) == 7
        assert sk.components() == [list(range(15))]

    def test_loops_can_disconnect_the_skeleton(self):
        g = Digraph(1, [(0, 0)])
        h = Digraph(2, [(0, 0), (1, 1)])
        sk = hom_one_skeleton(g, h)
        assert len(sk) == 2
        assert len(sk.edges) == 0
        assert not sk.is_connected()
        assert sk.components() == [[0], [1]]

    @settings(max_examples=80, deadline=None)
    @given(digraphs(3), digraphs(3))
    @edge_cases
    @example(Digraph(2), transitive_tournament(24))
    @example(Digraph(2, [(0, 1)]), transitive_tournament(24))
    def test_matches_single_vertex_moves(self, g, h):
        # Oracle: maps that differ at one vertex, with the doubled cell a
        # multihom.
        maps = brute_force_homs(g, h)
        expected = set()
        for (i, f), (j, f2) in itertools.combinations(enumerate(maps), 2):
            diff = [v for v in range(g.n) if f(v) != f2(v)]
            if len(diff) == 1:
                doubled = MultiHom(
                    {f(u), f2(u)} if u == diff[0] else {f(u)} for u in range(g.n)
                )
                if is_multihom(doubled, g, h):
                    expected.add((i, j))
        sk = hom_one_skeleton(g, h)
        assert list(sk.maps) == maps
        assert sk.edges == expected
        adj = [[] for _ in maps]
        for i, j in expected:
            adj[i].append(j)
            adj[j].append(i)
        for i in range(len(sk)):
            assert list(sk.neighbors(i)) == sorted(adj[i])
        comps = _graph.components(adj)
        assert sk.components() == comps
        if not maps:
            with pytest.raises(EmptyHom):
                is_connected_hom(g, h)
            return
        assert is_connected_hom(g, h) == (len(comps) == 1)
        if len(comps) > 1:
            with pytest.raises(Disconnected):
                diameter(g, h)
        elif len(maps) <= 64:
            # A search from every map is quadratic; the T_24 examples
            # have hundreds of maps.
            dist = [_graph.bfs_distances(adj, i) for i in range(len(maps))]
            assert diameter(g, h) == max(map(max, dist))

    def test_only_pairs_are_formed_in_a_large_target(self):
        # Every two of the 64 values form a 1-cell.  The skeleton is read
        # off the 64 maps; a search that walked all 2**64 subsets of the
        # target at the source vertex would never get here.
        sk = hom_one_skeleton(Digraph(1), transitive_tournament(64))
        assert len(sk) == 64
        assert sk.edges == set(itertools.combinations(range(64), 2))

    def test_bfs_distance_unreachable_is_minus_one(self):
        sk = hom_one_skeleton(Digraph(1, [(0, 0)]), Digraph(2, [(0, 0), (1, 1)]))
        assert sk.bfs_distances(0) == [0, -1]


class TestClosureNu:
    def test_bipartite_orientation_closes_to_a_point(self):
        red = closure_nu(complete_bipartite_digraph(2, 3))
        assert len(red.image_poset.elements) == 1
        assert red.order_complex_dimension == 0
        assert set(red.mapping.values()) == {frozenset({2, 3, 4})}

    def test_height_is_order_complex_dimension(self):
        # The longest chain of the image poset is a top simplex of its
        # order complex.  Heights 0 to 4 all occur among these images.
        rng = random.Random(0)
        graphs = [sphere_tournament(1), sphere_tournament(2)]
        graphs += enumerate_tournaments(5) + enumerate_tournaments(6)
        graphs += [random_digraph(rng, rng.randint(3, 7)) for _ in range(200)]
        heights = set()
        for g in graphs:
            if not g.edges:
                continue
            red = closure_nu(g)
            height = red.order_complex_dimension
            assert height == order_complex(red.image_poset).dimension(), g
            heights.add(height)
        assert heights == set(range(5))

    def test_extensive_idempotent_monotone(self):
        red = closure_nu(nbd_example_digraph())
        m = red.mapping
        for face, closed in m.items():
            assert face <= closed
            assert m[closed] == closed
        for a in m:
            for b in m:
                if a <= b:
                    assert m[a] <= m[b]

    @pytest.mark.parametrize(
        "g",
        [nbd_example_digraph(), sphere_tournament(1), pentagon_tournament()],
        ids=["worked-example", "hexagon", "pentagon"],
    )
    def test_image_complex_preserves_homology(self, g):
        red = closure_nu(g)
        assert reduced_homology(red.image_complex) == reduced_homology(
            out_neighborhood_complex(g)
        )

    def test_image_complex_preserves_homology_randomized(self, rng):
        hits = 0
        for _ in range(25):
            g = random_digraph(rng, 4, p=0.5, loops=False)
            if g.edge_count == 0:
                continue
            hits += 1
            red = closure_nu(g)
            assert reduced_homology(red.image_complex) == reduced_homology(
                out_neighborhood_complex(g)
            )
        assert hits >= 15

    def test_edgeless_digraph_raises(self):
        with pytest.raises(EmptyComplex):
            closure_nu(Digraph(3, []))


class TestStaircase:
    def test_two_into_four(self):
        cells = staircase_cells(2, 4)
        assert len(cells) == 3
        assert all(c.is_staircase for c in cells)
        assert {c.blocks for c in cells} == {
            ((0,), (1, 2, 3)),
            ((0, 1), (2, 3)),
            ((0, 1, 2), (3,)),
        }

    def test_three_into_five(self):
        cells = staircase_cells(3, 5)
        assert len(cells) == 6
        assert all(c.is_staircase for c in cells)

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 6), (3, 4), (4, 6), (5, 5)])
    def test_count_is_compositions(self, m, n):
        assert len(staircase_cells(m, n)) == math.comb(n - 1, m - 1)

    def test_rejects_bad_ranges(self):
        with pytest.raises(InvalidRange):
            staircase_cells(1, 3)
        with pytest.raises(InvalidRange):
            staircase_cells(3, 2)

    def test_predicate_rejects_non_staircases(self):
        # Gap between blocks.
        assert not StaircaseCell(MultiHom([{0}, {2}]), 3).is_staircase
        # Does not start at zero.
        assert not StaircaseCell(MultiHom([{1}, {2}]), 3).is_staircase
        # Non-contiguous block.
        assert not StaircaseCell(MultiHom([{0, 2}, {1}]), 3).is_staircase
        # Leftover target vertex.
        assert not StaircaseCell(MultiHom([{0}, {1}]), 3).is_staircase
        # Overlapping blocks.
        assert not StaircaseCell(MultiHom([{0, 1}, {1, 2}]), 3).is_staircase
