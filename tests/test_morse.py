"""Tests for acyclic matchings, collapsing engines, and Morse vectors."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dihom import (
    Digraph,
    EmptyHom,
    InvalidMatching,
    InvalidVariant,
    Matching,
    MultiHom,
    NotAcyclic,
    Poset,
    ShapeMismatch,
    SimplicialComplex,
    VertexMap,
    collapse_free_pairs,
    directed_cycle,
    directed_path,
    full_simplex,
    hom_poset,
    is_acyclic_matching,
    multihom_of_map,
    out_neighborhood_complex,
    random_discrete_morse,
    replay_collapses,
    simplex_boundary,
    sphere_tournament,
    tournament_matching,
    transitive_tournament,
)

from conftest import digraphs, edge_cases


def square_boundary_poset() -> Poset:
    """Face poset of the 4-cycle: vertices 0..3 under edge frozensets."""
    verts = [frozenset({i}) for i in range(4)]
    edges = [frozenset({i, (i + 1) % 4}) for i in range(4)]
    covers = [(v, e) for v in verts for e in edges if v < e]
    return Poset.from_covers(verts + edges, covers)


class TestMatchingValidation:
    def setup_method(self):
        self.chain = Poset.from_covers("abc", [("a", "b"), ("b", "c")])

    def test_valid_chain_matching(self):
        assert is_acyclic_matching(self.chain, Matching([("a", "b")], ["c"]))
        assert is_acyclic_matching(self.chain, Matching([("b", "c")], ["a"]))

    def test_pair_must_be_a_cover(self):
        with pytest.raises(InvalidMatching):
            is_acyclic_matching(self.chain, Matching([("a", "c")], ["b"]))

    def test_unknown_cells(self):
        with pytest.raises(InvalidMatching):
            is_acyclic_matching(self.chain, Matching([("a", "z")], ["b", "c"]))
        with pytest.raises(InvalidMatching):
            is_acyclic_matching(self.chain, Matching([], ["a", "b", "c", "z"]))

    def test_cell_in_two_pairs(self):
        diamond = Poset.from_covers(
            "abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
        )
        with pytest.raises(InvalidMatching):
            is_acyclic_matching(diamond, Matching([("a", "b"), ("a", "c")], ["d"]))

    def test_matched_cell_cannot_be_critical(self):
        with pytest.raises(InvalidMatching):
            is_acyclic_matching(self.chain, Matching([("a", "b")], ["b", "c"]))

    def test_must_partition(self):
        with pytest.raises(InvalidMatching):
            is_acyclic_matching(self.chain, Matching([("a", "b")], []))

    def test_matching_equality_ignores_order(self):
        a = Matching([(1, 2), (3, 4)], [5])
        b = Matching([(3, 4), (1, 2)], [5])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Matching([(1, 2)], [3, 4, 5])


class TestAcyclicity:
    def test_rotating_square_matching_has_a_cycle(self):
        p = square_boundary_poset()
        pairs = [
            (frozenset({i}), frozenset({i, (i + 1) % 4})) for i in range(4)
        ]
        assert not is_acyclic_matching(p, Matching(pairs, []))

    def test_square_collapse_matching_is_acyclic(self):
        p = square_boundary_poset()
        pairs = [
            (frozenset({i + 1}), frozenset({i, i + 1})) for i in range(3)
        ]
        critical = [frozenset({0}), frozenset({0, 3})]
        assert is_acyclic_matching(p, Matching(pairs, critical))


class TestTournamentMatching:
    def test_path_collapses_to_level_map(self):
        g = directed_path(3)
        m = tournament_matching(g, 3)
        assert m.critical == (multihom_of_map(VertexMap([0, 1, 2])),)
        assert is_acyclic_matching(hom_poset(g, transitive_tournament(3)), m)

    def test_diamond_critical_cell_is_the_level_map(self):
        g = Digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        m = tournament_matching(g, 4)
        assert m.critical == (multihom_of_map(VertexMap([1, 2, 2, 3])),)

    def test_edgeless_pair_counts(self):
        g = Digraph(2, [])
        p = hom_poset(g, transitive_tournament(2))
        m = tournament_matching(g, 2, poset=p)
        assert len(p) == 9
        assert len(m.pairs) == 4
        assert m.critical == (MultiHom([{1}, {1}]),)
        assert is_acyclic_matching(p, m)

    def test_pairs_are_covers(self):
        for lower, upper in tournament_matching(directed_path(2), 4).pairs:
            assert lower.leq(upper)
            assert upper.dimension() == lower.dimension() + 1

    def test_empty_source(self):
        m = tournament_matching(Digraph(0, []), 3)
        assert m.pairs == ()
        assert len(m.critical) == 1

    def test_too_long_a_path_raises(self):
        with pytest.raises(EmptyHom):
            tournament_matching(directed_path(4), 3)

    def test_cycle_raises(self):
        with pytest.raises(NotAcyclic):
            tournament_matching(directed_cycle(3), 5)

    def test_poset_of_another_target_is_rejected(self):
        p = hom_poset(directed_path(2), transitive_tournament(3))
        with pytest.raises(ShapeMismatch):
            tournament_matching(directed_path(2), 4, poset=p)

    def test_poset_of_another_source_is_rejected(self):
        p = hom_poset(Digraph(3), transitive_tournament(4))
        with pytest.raises(ShapeMismatch):
            tournament_matching(directed_path(2), 4, poset=p)


def _verdict(p, m):
    try:
        return is_acyclic_matching(p, m)
    except InvalidMatching as e:
        return f"InvalidMatching: {e}"


def _perturbations(p, m):
    """Broken variants of ``m``: a dropped or repeated critical cell, a
    pair turned upside down, a cell used twice, a pair two members apart,
    a pair whose lower cell is not contained in the upper, and an
    aliasing cell outside the poset."""
    cells = list(p)
    crit = list(m.critical)
    out = [Matching(m.pairs, crit[1:]), Matching(m.pairs, crit + crit[:1])]
    if m.pairs:
        a, b = m.pairs[0]
        out.append(Matching(((b, a),) + m.pairs[1:], crit))
        out.append(Matching(m.pairs + ((a, b),), crit))
        out.append(Matching(m.pairs, crit + [b]))
    two_apart = (
        (a, b) for a in cells for b in cells
        if b.dimension() == a.dimension() + 2 and a.leq(b)
    )
    not_below = (
        (a, b) for a in cells for b in cells
        if b.dimension() == a.dimension() + 1 and not a.leq(b)
    )
    for a, b in filter(None, (next(two_apart, None), next(not_below, None))):
        out.append(Matching([(a, b)], [c for c in cells if c not in (a, b)]))
    if cells and len(cells[0]):
        # A member at the block width would spill into a packed neighbour.
        alias = [set(x) for x in cells[0].assignments]
        alias[-1].add(max(p.target.n, 1))
        out.append(Matching(m.pairs, crit + [MultiHom(alias)]))
    return out


def _greedy_matching(p, rnd):
    """Match covers first come, first served in a random order; acyclic
    or not."""
    cells = list(p)
    covers = p.covering_index_pairs()
    rnd.shuffle(covers)
    used = set()
    pairs = []
    for i, j in covers:
        if i not in used and j not in used:
            used.update((i, j))
            pairs.append((cells[i], cells[j]))
    return Matching(pairs, [c for k, c in enumerate(cells) if k not in used])


dags = digraphs(4).map(lambda g: Digraph(g.n, [(u, v) for u, v in g.edges if u < v]))


class TestPackedMatchingCheck:
    """The structural cover test on a :class:`HomPoset` gives the same
    verdict, or the same :class:`InvalidMatching`, as the generic
    :class:`Poset` route over its explicit covers."""

    @settings(max_examples=60, deadline=None)
    @given(dags, st.integers(1, 4))
    @example(Digraph(0), 2)
    @example(Digraph(2), 1)
    @example(Digraph(3, [(0, 1), (1, 2)]), 3)
    def test_tournament_matchings(self, g, n):
        t = transitive_tournament(n)
        p = hom_poset(g, t)
        if not len(p):
            with pytest.raises(EmptyHom):
                tournament_matching(g, n, poset=p)
            return
        if len(p) > 400:
            return
        m = tournament_matching(g, n, poset=p)
        q = p.as_poset()
        assert is_acyclic_matching(p, m) is is_acyclic_matching(q, m) is True
        for bad in _perturbations(p, m):
            assert _verdict(p, bad) == _verdict(q, bad)

    @settings(max_examples=60, deadline=None)
    @given(digraphs(3), digraphs(3))
    @edge_cases
    def test_greedy_matchings(self, g, h):
        p = hom_poset(g, h)
        if len(p) > 300:
            return
        m = _greedy_matching(p, random.Random(len(p)))
        q = p.as_poset()
        assert _verdict(p, m) == _verdict(q, m)
        for bad in _perturbations(p, m):
            assert _verdict(p, bad) == _verdict(q, bad)


class TestCollapseFreePairs:
    def test_hexagon_sphere_stops_at_the_triangle_boundary(self):
        x = out_neighborhood_complex(sphere_tournament(1))
        res = collapse_free_pairs(x)
        assert res.log == (
            (frozenset({4}), frozenset({0, 4})),
            (frozenset({3}), frozenset({0, 2, 3})),
        )
        assert res.complex == SimplicialComplex(
            range(5), [[0, 1], [1, 2], [0, 2]]
        )

    def test_full_simplex_collapses_to_a_point(self):
        res = collapse_free_pairs(full_simplex(3))
        assert [tuple(sorted(t)) for t, _ in res.log] == [(0,), (1,), (2,)]
        assert res.complex == SimplicialComplex(range(4), [[3]])
        assert res.complex.euler_characteristic() == 1

    def test_no_free_faces_means_no_collapses(self):
        x = simplex_boundary(2)
        res = collapse_free_pairs(x)
        assert res.log == ()
        assert res.complex == x

    def test_random_strategy_is_seed_reproducible(self):
        x = full_simplex(3)
        a = collapse_free_pairs(x, strategy="random", seed=7)
        b = collapse_free_pairs(x, strategy="random", seed=7)
        assert a.log == b.log
        assert a.complex == b.complex
        assert a.complex.f_vector() == (1,)

    def test_unknown_strategy(self):
        with pytest.raises(InvalidVariant):
            collapse_free_pairs(full_simplex(2), strategy="greedy")


class TestReplay:
    def test_replay_reproduces_the_fixpoint(self):
        x = out_neighborhood_complex(sphere_tournament(1))
        res = collapse_free_pairs(x)
        assert replay_collapses(x, res.log) == res.complex

    def test_rejects_non_free_face(self):
        with pytest.raises(ValueError, match="not a free face"):
            replay_collapses(
                full_simplex(2), [(frozenset({0, 1, 2}), frozenset({0, 1, 2}))]
            )
        with pytest.raises(ValueError, match="not a free face"):
            replay_collapses(full_simplex(2), [(frozenset(), frozenset({0, 1, 2}))])

    def test_rejects_wrong_facet(self):
        with pytest.raises(ValueError, match="not the facet over"):
            replay_collapses(full_simplex(2), [(frozenset({0, 1}), frozenset({0, 1}))])

    def test_rejects_stale_log(self):
        x = full_simplex(2)
        log = collapse_free_pairs(x).log
        with pytest.raises(ValueError):
            replay_collapses(x, log + log[:1])


class TestRandomDiscreteMorse:
    @pytest.mark.parametrize("seed", range(5))
    def test_full_simplex_is_optimal(self, seed):
        assert random_discrete_morse(full_simplex(3), seed) == (1, 0, 0, 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_sphere_needs_two_critical_cells(self, seed):
        assert random_discrete_morse(simplex_boundary(3), seed) == (1, 0, 1)

    def test_same_seed_same_vector(self):
        x = out_neighborhood_complex(sphere_tournament(2))
        assert random_discrete_morse(x, 3) == random_discrete_morse(x, 3)

    def test_vector_bounds_betti_numbers(self):
        # The hexagon sphere is a homology circle: any Morse vector has at
        # least one critical vertex and one critical edge.
        x = out_neighborhood_complex(sphere_tournament(1))
        for seed in range(10):
            vec = random_discrete_morse(x, seed)
            assert vec[0] >= 1
            assert vec[1] >= 1
            assert sum(vec[i] * (-1) ** i for i in range(len(vec))) == 0
