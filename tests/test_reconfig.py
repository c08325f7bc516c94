"""Tests for reconfiguration walks and oriented chromatic numbers."""

import random

import pytest

import dihom
from dihom import (
    Digraph,
    Disconnected,
    EmptyHom,
    HasLoop,
    MultiHom,
    NotAHomomorphism,
    SizeCapExceeded,
    VertexMap,
    diameter,
    directed_cycle,
    enumerate_homomorphisms,
    has_homomorphism,
    hom_one_skeleton,
    is_connected_hom,
    is_homomorphism,
    is_multihom,
    meet_path,
    oriented_chromatic_number,
    transitive_tournament,
)

from conftest import random_dag, random_digraph


def hamming(a: VertexMap, b: VertexMap) -> int:
    return sum(x != y for x, y in zip(a.image, b.image))


class TestConnectivity:
    def test_edge_into_tournament_is_connected(self):
        assert is_connected_hom(transitive_tournament(2), transitive_tournament(3))

    def test_cycle_rotations_are_isolated(self):
        assert not is_connected_hom(directed_cycle(3), directed_cycle(3))

    def test_no_homomorphisms_raises(self):
        with pytest.raises(EmptyHom):
            is_connected_hom(directed_cycle(3), transitive_tournament(5))

    def test_connected_needs_no_skeleton(self, monkeypatch):
        pairs = [
            (transitive_tournament(2), transitive_tournament(3)),
            (directed_cycle(3), directed_cycle(3)),
            # Two maps differing at one looped vertex, with no edge.
            (Digraph(1, [(0, 0)]), Digraph(2, [(0, 0), (1, 1)])),
        ]
        rng = random.Random(3)
        for _ in range(40):
            pairs.append((random_digraph(rng, 3), random_digraph(rng, 4, p=0.6)))
        pairs = [(g, h) for g, h in pairs if has_homomorphism(g, h)]
        expected = [hom_one_skeleton(g, h).is_connected() for g, h in pairs]
        assert True in expected and False in expected

        def fail(*args, **kwargs):
            raise AssertionError("skeleton built")

        monkeypatch.setattr(dihom.homcomplex, "HomSkeleton", fail)
        monkeypatch.setattr(dihom.digraph.VertexMap, "__init__", fail)
        assert [is_connected_hom(g, h) for g, h in pairs] == expected
        with pytest.raises(EmptyHom):
            is_connected_hom(directed_cycle(3), transitive_tournament(5))


class TestDiameter:
    @pytest.mark.parametrize("m,n,expected", [(2, 4, 2), (3, 4, 3), (2, 3, 2)])
    def test_tournament_pairs(self, m, n, expected):
        assert diameter(transitive_tournament(m), transitive_tournament(n)) == expected

    def test_empty(self):
        with pytest.raises(EmptyHom):
            diameter(directed_cycle(3), transitive_tournament(4))

    def test_disconnected(self):
        with pytest.raises(Disconnected):
            diameter(directed_cycle(3), directed_cycle(3))


class TestMeetPath:
    def test_simple_walk(self):
        f, g = VertexMap([0, 1]), VertexMap([2, 3])
        path = meet_path(f, g, transitive_tournament(2), 4)
        assert path == [VertexMap([0, 1]), VertexMap([0, 3]), VertexMap([2, 3])]

    def test_comparable_endpoints_walk_straight_down(self):
        f, g = VertexMap([0, 1]), VertexMap([0, 3])
        path = meet_path(f, g, transitive_tournament(2), 4)
        assert path == [f, g]

    def test_identical_endpoints(self):
        f = VertexMap([1, 2])
        assert meet_path(f, f, transitive_tournament(2), 3) == [f]

    def test_rejects_non_homomorphisms(self):
        with pytest.raises(NotAHomomorphism):
            meet_path(
                VertexMap([1, 0]), VertexMap([0, 1]), transitive_tournament(2), 4
            )

    def test_random_instances_realize_hamming_distance(self, rng):
        target_size = 5
        target = transitive_tournament(target_size)
        runs = 0
        for _ in range(15):
            g = random_dag(rng, 4, p=0.5)
            maps = enumerate_homomorphisms(g, target)
            if len(maps) < 2:
                continue
            runs += 1
            f, m = rng.sample(maps, 2)
            path = meet_path(f, m, g, target_size)
            assert path[0] == f and path[-1] == m
            assert len(path) == hamming(f, m) + 1
            for step in path:
                assert is_homomorphism(step, g, target)
            for a, b in zip(path, path[1:]):
                assert hamming(a, b) == 1
                # The doubled cell between the two steps is a cell of the
                # hom complex, so each step is an edge of its one-skeleton.
                doubled = MultiHom([{x, y} for x, y in zip(a.image, b.image)])
                assert is_multihom(doubled, g, target)
        assert runs >= 10


class TestOrientedChromaticNumber:
    def test_directed_triangle_needs_the_cyclic_tournament(self):
        n, witness = oriented_chromatic_number(directed_cycle(3))
        assert n == 3
        assert not witness.is_acyclic()
        assert has_homomorphism(directed_cycle(3), witness)

    def test_tournament_needs_itself(self):
        t4 = transitive_tournament(4)
        n, witness = oriented_chromatic_number(t4)
        assert n == 4
        assert witness.is_acyclic()
        assert has_homomorphism(t4, witness)

    @pytest.mark.parametrize("k,expected", [(3, 3), (4, 4), (5, 5)])
    def test_directed_cycles(self, k, expected):
        assert oriented_chromatic_number(directed_cycle(k))[0] == expected

    def test_edgeless_needs_one_color(self):
        n, witness = oriented_chromatic_number(Digraph(3, []))
        assert n == 1
        assert witness.n == 1

    def test_empty_digraph(self):
        assert oriented_chromatic_number(Digraph(0, [])) == (0, Digraph(0, []))

    def test_loop_is_rejected(self):
        with pytest.raises(HasLoop):
            oriented_chromatic_number(Digraph(2, [(0, 0), (0, 1)]))

    def test_bidirected_pair_exhausts_the_search(self):
        with pytest.raises(SizeCapExceeded):
            oriented_chromatic_number(Digraph(2, [(0, 1), (1, 0)]))
