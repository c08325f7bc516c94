"""Tests for acyclic matchings, collapsing engines, and Morse vectors."""

import json
import random
from itertools import chain
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dihom.cli
import dihom.morse
from dihom import (
    Digraph,
    EmptyHom,
    HomPoset,
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
    empty_complex,
    full_simplex,
    hom_poset,
    is_acyclic_matching,
    multihom_of_map,
    out_neighborhood_complex,
    random_discrete_morse,
    reduced_homology,
    replay_collapses,
    simplex_boundary,
    sphere_tournament,
    tournament_matching,
    transitive_tournament,
    void_complex,
)
from dihom.cli import emit_digraph, run
from dihom.digraph import _faces, _pack, _shifts
from dihom.morse import (
    _collapse,
    _face_dict,
    _in_stages,
    _is_packed_partition,
    _packed_acyclic,
    _stage_matching,
    _stages,
)

from conftest import complexes, digraphs, edge_cases


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


    def test_ungraded_poset_gets_the_full_check(self):
        # a -> b -> c -> d -> e -> a alternates up and down but steps down
        # twice in a row (b > c > d), so it is no V-path: only the full
        # modified Hasse diagram sees this cycle.
        p = Poset.from_covers(
            "abcde", [("a", "b"), ("c", "b"), ("d", "c"), ("a", "e"), ("d", "e")]
        )
        m = Matching([("a", "b"), ("d", "e")], ["c"])
        assert not is_acyclic_matching(p, m)


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

    def test_views_are_built_on_first_use(self):
        g = Digraph(3, [(0, 1)])
        p = hom_poset(g, transitive_tournament(3))
        m = tournament_matching(g, 3, poset=p)
        assert (m._pairs, m._critical) == (None, None)
        assert repr(m) == f"Matching({(len(p) - 1) // 2} pairs, 1 critical)"
        assert (m._pairs, m._critical) == (None, None)
        same = Matching(reversed(m.pairs), m.critical)
        assert m == same and hash(m) == hash(same)
        assert repr(m) == repr(same)

    def test_packed_and_view_matchings_fail_alike(self):
        g = directed_path(2)
        p = hom_poset(g, transitive_tournament(3))
        lowers, uppers, critical = tournament_matching(g, 3, poset=p)._packed
        outside = (1 << 6) - 1  # both blocks full: not a multihomomorphism
        swapped = uppers[:1] + lowers[1:], lowers[:1] + uppers[1:]
        bad = {
            "not a covering pair": [
                (*swapped, critical),
                (swapped[0], swapped[1][:1] + [outside] + uppers[2:], critical),
            ],
            "mentions unknown cells": [(lowers, [outside] + uppers[1:], critical)],
            "two pairs": [(lowers + lowers[:1], uppers + uppers[:1], critical)],
            "both matched and critical": [(lowers, uppers, critical + uppers[:1])],
            "do not partition": [(lowers, uppers, critical[1:])],
        }
        for message, cases in bad.items():
            for packed in cases:
                m = Matching._from_packed(p, *packed)
                views = Matching(m.pairs, m.critical)
                with pytest.raises(InvalidMatching, match=message) as packed_error:
                    is_acyclic_matching(p, m)
                with pytest.raises(InvalidMatching) as view_error:
                    is_acyclic_matching(p, views)
                assert str(packed_error.value) == str(view_error.value)

    def test_poset_of_another_target_is_rejected(self):
        p = hom_poset(directed_path(2), transitive_tournament(3))
        with pytest.raises(ShapeMismatch):
            tournament_matching(directed_path(2), 4, poset=p)

    def test_poset_of_another_source_is_rejected(self):
        p = hom_poset(Digraph(3), transitive_tournament(4))
        with pytest.raises(ShapeMismatch):
            tournament_matching(directed_path(2), 4, poset=p)

    def test_poset_of_some_cells_is_rejected(self):
        # Closed under faces, with the right source and target, but not
        # every cell: the six cells below the full triangle leave the edge
        # {0, 1} unmatched, and no cells at all leave no critical cell.
        t = transitive_tournament(3)
        cells = [c for c in hom_poset(Digraph(1), t) if c.dimension() < 2]
        assert len(cells) == 6
        for some in (cells, []):
            with pytest.raises(ShapeMismatch):
                tournament_matching(Digraph(1), 3, poset=HomPoset(Digraph(1), t, some))


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


def _oracle(p, m):
    """The verdict of ``is_acyclic_matching`` by brute force: covers are
    the pairs one dimension apart under ``leq``, and the modified Hasse
    diagram is searched for a cycle by peeling cells with no arrow in.
    ``"invalid"`` when ``m`` is not a matching that partitions ``p``."""
    cells = list(p)
    pos = {c: i for i, c in enumerate(cells)}
    covers = {
        (pos[a], pos[b])
        for a in cells
        for b in cells
        if b.dimension() == a.dimension() + 1 and a.leq(b)
    }
    up = set()
    for a, b in m.pairs:
        if (pos.get(a), pos.get(b)) not in covers:
            return "invalid"
        up.add((pos[a], pos[b]))
    seen = [pos.get(c) for c in m.critical] + [i for pair in up for i in pair]
    if len(up) != len(m.pairs) or len(seen) != len(cells) or set(seen) != set(pos.values()):
        return "invalid"
    arrows = {(i, j) if (i, j) in up else (j, i) for i, j in covers}
    live = set(range(len(cells)))
    while live:
        sources = {i for i in live if not any((k, i) in arrows for k in live)}
        if not sources:
            return False
        live -= sources
    return True


def _check_against_oracle(p, m):
    """``m`` on the hom poset ``p`` and on its plain :class:`Poset` gets
    the oracle's verdict."""
    expected = _oracle(p, m)
    for q in (p, p.as_poset()):
        if expected == "invalid":
            with pytest.raises(InvalidMatching):
                is_acyclic_matching(q, m)
        else:
            assert is_acyclic_matching(q, m) is expected


def _packed_cells(p, m):
    """The packed lower, upper and critical cells of ``m`` on the hom poset
    ``p``; ``None`` when one of them is no cell of ``p``'s shape."""
    n, w = p.source.n, p._width
    lowers = [_pack(a.masks, n, w) for a, _ in m.pairs]
    uppers = [_pack(b.masks, n, w) for _, b in m.pairs]
    critical = [_pack(c.masks, n, w) for c in m.critical]
    if None in lowers + uppers + critical:
        return None
    return lowers, uppers, critical


def _check_packed_verdict(p, m):
    """``m``, a matching of views, gets the same verdict or message when it
    is given as packed cells."""
    packed = _packed_cells(p, m)
    if packed is not None:
        assert _verdict(p, Matching._from_packed(p, *packed)) == _verdict(p, m)


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


def _search_verdict(p, lowers, uppers):
    """The V-path search's own verdict on the packed pairs of ``p``, with
    the stage test that precedes it switched off."""
    with mock.patch.object(dihom.morse, "_in_stages", lambda *args: False):
        return _packed_acyclic(p, lowers, uppers)


class TestVPathArrows:
    """The V-path search, whose arrows are read off :func:`digraph._faces`,
    gives the verdict of the modified Hasse diagram of the plain
    :class:`Poset`, and a packed matching, validated in bulk or pair by
    pair, gets the verdict or the message of its views."""

    @settings(max_examples=60, deadline=None)
    @given(dags, st.integers(1, 4))
    @example(Digraph(0), 2)
    @example(directed_path(2), 3)
    @example(Digraph(3, [(0, 1), (1, 2)]), 3)
    def test_tournament_matchings(self, g, n):
        p = hom_poset(g, transitive_tournament(n))
        if not len(p) or len(p) > 400:
            return
        m = tournament_matching(g, n, poset=p)
        lowers, uppers, critical = m._packed
        assert _search_verdict(p, lowers, uppers) is True
        for bad in _perturbations(p, m):
            _check_packed_verdict(p, bad)
        # A cover-shaped pair whose lower cell empties a block of the upper
        # one: it passes the subset and popcount tests, not the sort.
        full = (1 << p._width) - 1
        blocks = [full << s for s in _shifts(g.n, p._width)]
        for k, c in enumerate(uppers):
            single = [b for b in blocks if (c & b).bit_count() == 1]
            if single:
                lows = lowers[:k] + [c & ~single[0]] + lowers[k + 1 :]
                assert all(a & b == a for a, b in zip(lows, uppers))
                assert sum(map(int.bit_count, uppers)) - sum(map(int.bit_count, lows)) == len(lows)
                assert sorted(chain(lows, uppers, critical)) != p._packed
                bad = Matching._from_packed(p, lows, uppers, critical)
                message = _verdict(p, bad)
                assert "mentions unknown cells" in message
                assert message == _verdict(p, Matching(bad.pairs, bad.critical))
                break

    @settings(max_examples=60, deadline=None)
    @given(digraphs(3), digraphs(3))
    @edge_cases
    def test_greedy_matchings(self, g, h):
        p = hom_poset(g, h)
        if len(p) > 300:
            return
        m = _greedy_matching(p, random.Random(len(p)))
        lowers, uppers, _ = _packed_cells(p, m)
        assert _search_verdict(p, lowers, uppers) is is_acyclic_matching(p.as_poset(), m)
        for bad in [m, *_perturbations(p, m)]:
            _check_packed_verdict(p, bad)


class TestMatchingCheckOracle:
    """Both poset types go through one matching check; a brute-force
    oracle over ``leq`` is the independent reference."""

    @settings(max_examples=40, deadline=None)
    @given(dags, st.integers(1, 4))
    @example(Digraph(2), 2)
    @example(Digraph(3, [(0, 1), (1, 2)]), 3)
    def test_tournament_matchings(self, g, n):
        p = hom_poset(g, transitive_tournament(n))
        if not len(p) or len(p) > 150:
            return
        m = tournament_matching(g, n, poset=p)
        assert _oracle(p, m) is True
        for bad in [m, *_perturbations(p, m)]:
            _check_against_oracle(p, bad)

    @settings(max_examples=40, deadline=None)
    @given(digraphs(3), digraphs(3))
    @edge_cases
    def test_greedy_matchings(self, g, h):
        p = hom_poset(g, h)
        if len(p) > 150:
            return
        m = _greedy_matching(p, random.Random(len(p)))
        for bad in [m, *_perturbations(p, m)]:
            _check_against_oracle(p, bad)

    def test_rotating_triangle_matching_has_a_cycle(self):
        p = hom_poset(Digraph(1), Digraph(3))  # a full triangle
        pairs = [(MultiHom([{i}]), MultiHom([{i, (i + 1) % 3}])) for i in range(3)]
        m = Matching(pairs, [MultiHom([{0, 1, 2}])])
        assert _oracle(p, m) is False
        _check_against_oracle(p, m)


def _swapped_lowers(p, lowers, uppers, critical, rnd):
    """``lowers[k] < uppers[k]`` with the lower cell of one pair traded
    for another lower or critical cell that is also a face of its upper
    cell, the old one taking that cell's place; ``None`` when no pair has
    such a second face."""
    n, w = p.source.n, p._width
    pair_of = {f: k for k, f in enumerate(lowers)}
    spare = set(critical)
    order = list(range(len(uppers)))
    rnd.shuffle(order)
    for k in order:
        own = lowers[k]
        for f in next(_faces([uppers[k]], n, w)):
            if f == own:
                continue
            lows, crit = list(lowers), list(critical)
            if f in spare:
                crit[crit.index(f)] = own
            elif f in pair_of and own & uppers[pair_of[f]] == own:
                lows[pair_of[f]] = own
            else:
                continue
            lows[k] = f
            return lows, list(uppers), crit
    return None


def _stage_candidates(p, m, rnd):
    """Packed matchings of ``p`` around the tournament matching ``m``: ``m``
    itself and a sub-matching (both must pass the stage check), a greedy
    matching and matchings with swapped lower cells (either way)."""
    lowers, uppers, critical = m._packed
    pairs = list(zip(lowers, uppers))
    keep = [rnd.random() < 0.7 for _ in pairs]
    kept = [pair for pair, k in zip(pairs, keep) if k]
    dropped = [c for pair, k in zip(pairs, keep) if not k for c in pair]
    sub = ([a for a, _ in kept], [b for _, b in kept], critical + dropped)
    must_pass = [(lowers, uppers, critical), sub]
    others = [_packed_cells(p, _greedy_matching(p, rnd))]
    others += [_swapped_lowers(p, *packed, rnd) for packed in must_pass]
    return must_pass, [packed for packed in others if packed is not None]


class TestStageCheck:
    """The stage check of a matching on the hom poset of a DAG into ``T_n``
    only ever says acyclic; every matching it does not pass gets the
    V-path search and its verdict."""

    @settings(max_examples=60, deadline=None)
    @given(dags, st.integers(2, 4), st.integers(0, 2**32))
    @example(Digraph(2), 2, 0)
    @example(Digraph(3, [(0, 1), (1, 2)]), 3, 1)
    @example(Digraph(3, [(0, 2)]), 3, 2)
    def test_acceptance_implies_acyclic(self, g, n, seed):
        p = hom_poset(g, transitive_tournament(n))
        if not len(p) or len(p) > 150:
            return
        rnd = random.Random(seed)
        m = tournament_matching(g, n, poset=p)
        must_pass, others = _stage_candidates(p, m, rnd)
        for packed in must_pass:
            assert _is_packed_partition(p._packed, *packed)
            assert _in_stages(p, *packed[:2])
        for packed in must_pass + others:
            m = Matching._from_packed(p, *packed)
            if _is_packed_partition(p._packed, *packed) and _in_stages(p, *packed[:2]):
                assert _oracle(p, m) is True
            assert _verdict(p, m) == _verdict(p, Matching(m.pairs, m.critical))
            _check_against_oracle(p, m)

    @staticmethod
    def _walks(monkeypatch):
        """Count the V-path searches that ``is_acyclic_matching`` runs: in
        ``morse`` only the search reads ``_faces``."""
        calls = []

        def counted(*args):
            calls.append(args)
            return _faces(*args)

        monkeypatch.setattr(dihom.morse, "_faces", counted)
        return calls

    def _check_walked(self, monkeypatch, p, packed, expected):
        assert _is_packed_partition(p._packed, *packed)
        assert not _in_stages(p, *packed[:2])
        m = Matching._from_packed(p, *packed)
        walks = self._walks(monkeypatch)
        assert is_acyclic_matching(p, m) is expected
        assert len(walks) == 1
        assert _oracle(p, m) is expected

    def test_swapped_pair_reaches_the_walk(self, monkeypatch):
        p = hom_poset(Digraph(2), transitive_tournament(3))
        lowers, uppers, critical = tournament_matching(Digraph(2), 3, poset=p)._packed
        swapped = _swapped_lowers(p, lowers, uppers, critical, random.Random(0))
        assert swapped is not None and swapped[0] != lowers
        expected = _oracle(p, Matching._from_packed(p, *swapped))
        self._check_walked(monkeypatch, p, swapped, expected)

    def test_wrong_stage_element_reaches_the_walk(self, monkeypatch):
        # Into T_2 both isolated vertices have stage value 1, vertex 0
        # first.  Matching vertex 1's element first is also acyclic, but
        # its pairs at cells whose set at vertex 0 is {0} or {0, 1}
        # toggle the element of the wrong stage.
        p = hom_poset(Digraph(2), transitive_tournament(2))
        one, both = 0b10, 0b11
        lowers = [x << 2 | 0b01 for x in (0b01, one, both)] + [0b01 << 2 | one]
        uppers = [x << 2 | both for x in (0b01, one, both)] + [both << 2 | one]
        self._check_walked(monkeypatch, p, (lowers, uppers, [one << 2 | one]), True)

    def test_cyclic_partition_reaches_the_walk(self, monkeypatch):
        # The rotating matching of the triangle: a closed V-path through
        # three covers that pass the bulk partition test.
        p = hom_poset(Digraph(1), transitive_tournament(3))
        lowers = [1 << i for i in range(3)]
        uppers = [1 << i | 1 << (i + 1) % 3 for i in range(3)]
        self._check_walked(monkeypatch, p, (lowers, uppers, [0b111]), False)

    def test_other_targets_go_straight_to_the_walk(self, monkeypatch):
        # Vertex 0 of a one-vertex source has stage value 2 into T_3.
        # Matching by that element passes the stage check there; into the
        # edgeless target on three vertices, with the same cells, the
        # V-path search decides.
        lowers = [0b001, 0b010, 0b011]
        uppers = [0b101, 0b110, 0b111]
        tournament = hom_poset(Digraph(1), transitive_tournament(3))
        assert _in_stages(tournament, lowers, uppers)
        p = hom_poset(Digraph(1), Digraph(3))
        assert p._packed == tournament._packed
        self._check_walked(monkeypatch, p, (lowers, uppers, [0b100]), True)

    def test_views_and_other_posets_get_the_stage_check(self, monkeypatch):
        # A matching of views, and a packed matching checked against a
        # second poset object of the same graphs, go through the scan and
        # are then certified by their stages, with no V-path search.
        g = Digraph(4, [(0, 2), (1, 2), (2, 3)])
        t = transitive_tournament(4)
        p = hom_poset(g, t)
        m = tournament_matching(g, 4, poset=p)
        views = Matching(m.pairs, m.critical)
        other = hom_poset(g, t)
        walks = self._walks(monkeypatch)
        assert is_acyclic_matching(p, views) is True
        assert is_acyclic_matching(other, m) is True
        assert walks == []

    def test_hom_poset_routes_list_no_covers(self, monkeypatch):
        p = hom_poset(Digraph(2), transitive_tournament(3))
        lowers, uppers, critical = tournament_matching(Digraph(2), 3, poset=p)._packed
        swapped = _swapped_lowers(p, lowers, uppers, critical, random.Random(0))
        expected = _oracle(p, Matching._from_packed(p, *swapped))
        flipped = (uppers[:1] + lowers[1:], lowers[:1] + uppers[1:], critical)
        bad = {
            "not a covering pair": flipped,
            "do not partition": (lowers, uppers, critical[1:]),
        }

        def fail(self):
            raise AssertionError("covers listed")

        monkeypatch.setattr(HomPoset, "covering_index_pairs", fail)
        walks = self._walks(monkeypatch)
        for packed, verdict, searches in [
            ((lowers, uppers, critical), True, 0),
            (swapped, expected, 1),
        ]:
            m = Matching._from_packed(p, *packed)
            for matching in (m, Matching(m.pairs, m.critical)):
                walks.clear()
                assert is_acyclic_matching(p, matching) is verdict
                assert len(walks) == searches
        for message, packed in bad.items():
            m = Matching._from_packed(p, *packed)
            with pytest.raises(InvalidMatching, match=message):
                is_acyclic_matching(p, m)
            assert (m._pairs, m._critical) == (None, None)
            with pytest.raises(InvalidMatching, match=message):
                is_acyclic_matching(p, Matching(m.pairs, m.critical))

    def test_dihom_morse_never_walks(self, monkeypatch, tmp_path, capsys):
        def fail(*args):
            raise AssertionError("V-path search ran")

        monkeypatch.setattr(dihom.morse, "_faces", fail)
        sources = [
            Digraph(0),
            Digraph(3),
            Digraph(3, [(0, 1)]),
            directed_path(3),
            Digraph(3, [(0, 2), (1, 2)]),
            Digraph(3, [(2, 0), (2, 1), (0, 1)]),
            Digraph(4, [(0, 1), (2, 3)]),
            Digraph(5, [(1, 4), (4, 2), (4, 3)]),
        ]
        for k, g in enumerate(sources):
            path = tmp_path / f"g{k}.json"
            path.write_text(emit_digraph(g), encoding="utf-8")
            for n in range(1, 5):
                code = run(["morse", str(path), str(n)])
                out = capsys.readouterr().out
                if code == 0:
                    assert json.loads(out)["acyclic"] is True
                else:
                    with pytest.raises(EmptyHom):
                        _stages(g, n)


class TestCertificateOrder:
    """A packed matching on its own poset is certified by the sort and the
    stage test alone; one that fails either gets the bulk cover tests, the
    scan or the V-path search, with the same verdict or message as its
    views."""

    @staticmethod
    def _same_as_views(p, packed):
        m = Matching._from_packed(p, *packed)
        verdict = _verdict(p, m)
        assert verdict == _verdict(p, Matching(m.pairs, m.critical))
        return verdict

    @pytest.mark.parametrize(
        "g, n", [(Digraph(2), 3), (Digraph(3, [(0, 2), (1, 2)]), 3), (directed_path(3), 4)]
    )
    def test_reversed_pair_is_no_cover(self, monkeypatch, g, n):
        # Turned upside down, a pair still toggles its stage's element and
        # its cells are still every cell once, but the upper cell lacks the
        # element: the stage test rejects it, and the scan names it.
        p = hom_poset(g, transitive_tournament(n))
        lowers, uppers, critical = tournament_matching(g, n, poset=p)._packed
        walks = TestStageCheck._walks(monkeypatch)
        for k in range(0, len(lowers), 3):
            lows = lowers[:k] + [uppers[k]] + lowers[k + 1 :]
            ups = uppers[:k] + [lowers[k]] + uppers[k + 1 :]
            assert not _in_stages(p, lows, ups)
            verdict = self._same_as_views(p, (lows, ups, critical))
            assert "is not a covering pair" in verdict
        assert walks == []

    def test_earlier_stage_disagreement_gets_the_walk(self, monkeypatch):
        # The stages of two isolated vertices into T_3, taken in reverse:
        # every pair toggles a stage's element, but pairs of vertex 1 whose
        # set at vertex 0 is not {2} disagree with vertex 0's earlier stage.
        p = hom_poset(Digraph(2), transitive_tournament(3))
        packed = _stage_matching(p, _stages(Digraph(2), 3)[::-1])._packed
        elements = {b ^ a for a, b in zip(*packed[:2])}
        assert len(elements) == 2
        assert _is_packed_partition(p._packed, *packed)
        assert not _in_stages(p, *packed[:2])
        walks = TestStageCheck._walks(monkeypatch)
        assert self._same_as_views(p, packed) is True
        assert len(walks) == 2  # the packed matching and its views
        assert _oracle(p, Matching._from_packed(p, *packed)) is True

    def test_missing_or_repeated_cells_raise(self, monkeypatch):
        g = Digraph(3, [(0, 2), (1, 2)])
        p = hom_poset(g, transitive_tournament(3))
        lowers, uppers, critical = tournament_matching(g, 3, poset=p)._packed
        walks = TestStageCheck._walks(monkeypatch)
        for packed, message in [
            ((lowers, uppers, []), "do not partition"),
            ((lowers[1:], uppers[1:], critical + uppers[:1]), "do not partition"),
            ((lowers, uppers, critical * 2), "both matched and critical"),
            ((lowers, uppers, critical + lowers[-1:]), "both matched and critical"),
        ]:
            assert message in self._same_as_views(p, packed)
        assert walks == []

    def test_dihom_morse_peels_once_per_factor(self, monkeypatch, tmp_path, capsys):
        # One peel of the whole source builds every factor's matching; the
        # certificate peels each factor itself.
        peeled = []

        def counted(g, n):
            peeled.append(g)
            return _stages(g, n)

        monkeypatch.setattr(dihom.morse, "_stages", counted)
        monkeypatch.setattr(dihom.cli, "_stages", counted)
        g = Digraph(5, [(3, 0), (0, 4), (2, 1)])
        path = tmp_path / "g.json"
        path.write_text(emit_digraph(g), encoding="utf-8")
        assert run(["morse", str(path), "4"]) == 0
        out = json.loads(capsys.readouterr().out)
        # Levels 1, 0, 1, 2, 0 give the values 4 - 1 - level.
        assert out["critical"] == [[[2], [3], [2], [1], [3]]]
        assert out["acyclic"] is True
        assert peeled == [g, Digraph(3, [(1, 0), (0, 2)]), Digraph(2, [(1, 0)])]


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
        with pytest.raises(ValueError, match="not a free face"):
            replay_collapses(full_simplex(2), [(frozenset({0, 9}), frozenset({0, 1, 2}))])

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
        assert random_discrete_morse(x, 3) == (1, 0, 1, 0, 0)

    def test_vector_bounds_betti_numbers(self):
        # The hexagon sphere is a homology circle: any Morse vector has at
        # least one critical vertex and one critical edge.
        x = out_neighborhood_complex(sphere_tournament(1))
        for seed in range(10):
            vec = random_discrete_morse(x, seed)
            assert vec[0] >= 1
            assert vec[1] >= 1
            assert sum(vec[i] * (-1) ** i for i in range(len(vec))) == 0


def _log(*steps):
    """A collapse log from ``(tau, sigma)`` pairs of label tuples."""
    return tuple((frozenset(t), frozenset(s)) for t, s in steps)


# A 2-complex on nine vertices whose random Morse vectors are not all
# alike, and a complex whose vertex order is not the order of its labels.
TANGLE = SimplicialComplex(
    range(9),
    [[0, 5, 8], [0, 6, 7], [1, 2, 4], [1, 3, 5], [1, 4, 6], [1, 5, 6],
     [1, 5, 8], [1, 6, 7], [2, 4, 8], [3, 4, 7], [3, 5, 7]],
)
SHUFFLED = SimplicialComplex(
    ["d", "b", "a", "c", "e"],
    [["a", "b", "c"], ["c", "d"], ["d", "e", "b"], ["a", "e"]],
)


class TestPinnedCollapses:
    """Frozen logs and vectors: the lex order and the seeded draws must
    not drift, whatever the working encoding of the complex."""

    def test_tangle_vectors(self):
        vectors = [random_discrete_morse(TANGLE, seed) for seed in range(10)]
        assert vectors == [(1, 4, 0)] * 7 + [(2, 5, 0)] + [(1, 4, 0)] * 2

    def test_tangle_lex_log(self):
        assert collapse_free_pairs(TANGLE).log == _log(
            ((0, 5), (0, 5, 8)), ((0, 6), (0, 6, 7)), ((1, 2), (1, 2, 4)),
            ((2,), (2, 4, 8)), ((1, 3), (1, 3, 5)), ((1, 4), (1, 4, 6)),
            ((1, 7), (1, 6, 7)), ((1, 6), (1, 5, 6)), ((1,), (1, 5, 8)),
            ((3, 4), (3, 4, 7)), ((3,), (3, 5, 7)),
        )

    @pytest.mark.parametrize(
        "seed, log",
        [
            (0, _log(
                ((5, 6), (1, 5, 6)), ((1, 7), (1, 6, 7)), ((4, 8), (2, 4, 8)),
                ((1, 6), (1, 4, 6)), ((0, 5), (0, 5, 8)), ((1, 4), (1, 2, 4)),
                ((6, 7), (0, 6, 7)), ((4, 7), (3, 4, 7)), ((5, 7), (3, 5, 7)),
                ((3, 5), (1, 3, 5)), ((5, 8), (1, 5, 8)), ((5,), (1, 5)),
            )),
            (1, _log(
                ((0, 7), (0, 6, 7)), ((4, 7), (3, 4, 7)), ((6, 7), (1, 6, 7)),
                ((0, 8), (0, 5, 8)), ((3, 7), (3, 5, 7)), ((1, 3), (1, 3, 5)),
                ((4, 6), (1, 4, 6)), ((5, 8), (1, 5, 8)), ((1, 6), (1, 5, 6)),
                ((4, 8), (2, 4, 8)), ((1, 2), (1, 2, 4)),
            )),
            (2, _log(
                ((5, 6), (1, 5, 6)), ((5, 7), (3, 5, 7)), ((0, 5), (0, 5, 8)),
                ((0, 7), (0, 6, 7)), ((1, 3), (1, 3, 5)), ((3, 4), (3, 4, 7)),
                ((1, 7), (1, 6, 7)), ((2, 8), (2, 4, 8)), ((2,), (1, 2, 4)),
                ((4, 6), (1, 4, 6)), ((1, 5), (1, 5, 8)),
            )),
        ],
    )
    def test_tangle_random_logs(self, seed, log):
        assert collapse_free_pairs(TANGLE, "random", seed).log == log

    @pytest.mark.parametrize(
        "seed, log",
        [
            (0, _log(
                ((0, 6), (0, 1, 6)), ((6,), (1, 6)),
                ((1, 3, 4, 5), (0, 1, 3, 4, 5)), ((0, 2, 3), (0, 2, 3, 4)),
                ((1, 4, 5), (0, 1, 4, 5)), ((4, 5), (0, 3, 4, 5)),
                ((1, 4), (0, 1, 3, 4)), ((3, 5), (0, 1, 3, 5)),
                ((1, 5), (0, 1, 5)), ((5,), (0, 5)),
            )),
            (1, _log(
                ((0, 1, 4, 5), (0, 1, 3, 4, 5)), ((2, 4), (0, 2, 3, 4)),
                ((6,), (0, 1, 6)), ((0, 1, 4), (0, 1, 3, 4)),
                ((0, 4, 5), (0, 3, 4, 5)), ((0, 1, 5), (0, 1, 3, 5)),
                ((3, 4, 5), (1, 3, 4, 5)), ((0, 5), (0, 3, 5)),
                ((3, 5), (1, 3, 5)), ((5,), (1, 4, 5)), ((0, 4), (0, 3, 4)),
                ((1, 4), (1, 3, 4)), ((4,), (3, 4)),
            )),
            (2, _log(
                ((0, 1, 3, 4), (0, 1, 3, 4, 5)), ((0, 1, 4), (0, 1, 4, 5)),
                ((0, 1, 5), (0, 1, 3, 5)), ((0, 6), (0, 1, 6)),
                ((0, 3, 5), (0, 3, 4, 5)), ((3, 4, 5), (1, 3, 4, 5)),
                ((2, 3, 4), (0, 2, 3, 4)), ((3, 5), (1, 3, 5)),
                ((1, 5), (1, 4, 5)), ((5,), (0, 4, 5)), ((1, 4), (1, 3, 4)),
                ((6,), (1, 6)), ((2, 4), (0, 2, 4)), ((3, 4), (0, 3, 4)),
                ((4,), (0, 4)),
            )),
        ],
    )
    def test_sphere_tournament_random_logs(self, seed, log):
        x = out_neighborhood_complex(sphere_tournament(2))
        assert collapse_free_pairs(x, "random", seed).log == log

    def test_shuffled_vertex_order_lex_log(self):
        # Positions, not labels, break ties: "d" and "b" come first.
        res = collapse_free_pairs(SHUFFLED)
        assert res.log == _log(
            (("b", "d"), ("b", "d", "e")), (("a", "b"), ("a", "b", "c"))
        )
        assert replay_collapses(SHUFFLED, res.log) == res.complex


class TestCollapseOracle:
    """Homology, Euler characteristic and the weak Morse inequalities
    bound what any collapse run or Morse vector can report."""

    @given(complexes(max_vertices=8), st.integers(0, 3))
    @example(void_complex(), 0)
    @example(empty_complex(), 0)
    @example(SHUFFLED, 1)
    @settings(max_examples=150, deadline=None)
    def test_collapses_keep_homology_and_replay(self, x, seed):
        h = reduced_homology(x)
        for res in (
            collapse_free_pairs(x),
            collapse_free_pairs(x, strategy="random", seed=seed),
        ):
            assert reduced_homology(res.complex) == h
            assert replay_collapses(x, res.log) == res.complex

    @given(complexes(max_vertices=8), st.integers(0, 3))
    @example(void_complex(), 0)
    @example(empty_complex(), 0)
    @example(TANGLE, 7)
    @settings(max_examples=150, deadline=None)
    def test_morse_vector_bounds(self, x, seed):
        vec = random_discrete_morse(x, seed)
        assert sum((-1) ** d * c for d, c in enumerate(vec)) == x.euler_characteristic()
        if x.is_void or x.is_empty:
            assert vec == ()
            return
        h = reduced_homology(x)
        assert len(vec) == x.dimension() + 1
        assert vec[0] >= h.rank(0) + 1
        assert all(c >= h.rank(d) for d, c in enumerate(vec) if d)

    @given(complexes(max_vertices=7), st.integers(0, 3))
    @example(empty_complex(), 0)
    @example(TANGLE, 7)
    @settings(max_examples=100, deadline=None)
    def test_free_faces_and_facets_are_kept_up_to_date(self, x, seed):
        # The sets _shift keeps against a rescan of the face dict, after
        # every collapse and every removal of a facet.
        faces, free, facets = _face_dict(x)
        rng = random.Random(seed)
        while len(faces) > 1:
            assert facets == {m for m, (_, total) in faces.items() if m == total}
            assert free == {
                m for m, (k, total) in faces.items() if k == 1 and m and m != total
            }
            tau = rng.choice(sorted(free or facets))
            _collapse(faces, free, facets, tau, faces[tau][1])
        assert facets == set(faces)
