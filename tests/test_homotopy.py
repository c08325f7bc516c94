"""Tests for folds, stiff reductions, and the three homotopy relations."""

import random
import tracemalloc

import pytest
from hypothesis import example, given, settings

from dihom import (
    Digraph,
    InvalidFold,
    InvalidVariant,
    NotAHomomorphism,
    VertexMap,
    all_folds,
    bihomotopic,
    dihomotopic,
    directed_cycle,
    enumerate_homomorphisms,
    find_fold,
    fold,
    hom_one_skeleton,
    homotopy_classes,
    homotopy_witness_pair,
    is_dismantlable,
    is_homomorphism,
    is_isomorphic,
    is_stiff,
    line_homotopic,
    stiff_reduction,
    transitive_tournament,
)

from dihom._graph import bfs_distances
from dihom.digraph import _bits
from dihom.homotopy import _HomRelations

from conftest import brute_force_homs, circulant, digraphs, random_digraph


def looped_clique(n: int) -> Digraph:
    """All ``n * n`` arrows, loops included."""
    return Digraph(n, [(i, j) for i in range(n) for j in range(n)])


class TestFolds:
    def setup_method(self):
        # A directed triangle with a pendant sink hanging off vertex 2.
        self.tailed = Digraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])

    def test_pendant_vertex_folds_onto_the_cycle(self):
        assert all_folds(self.tailed) == [(3, 0)]
        assert find_fold(self.tailed) == (3, 0)
        assert fold(self.tailed, 3, 0) == directed_cycle(3)

    def test_fold_requires_nested_neighborhoods(self):
        with pytest.raises(InvalidFold):
            fold(self.tailed, 0, 3)
        with pytest.raises(InvalidFold):
            fold(self.tailed, 1, 1)
        with pytest.raises(InvalidFold):
            fold(self.tailed, 5, 0)

    def test_stiffness(self):
        assert not is_stiff(self.tailed)
        assert is_stiff(directed_cycle(3))
        assert is_stiff(transitive_tournament(4))
        assert is_stiff(Digraph(1, [(0, 0)]))

    def test_folds_preserve_homomorphism_counts(self, rng):
        # Folding the source changes nothing up to homotopy; in particular
        # a homomorphism into any target exists before iff after.
        targets = [looped_clique(2), transitive_tournament(3), directed_cycle(3)]
        folded = 0
        for _ in range(20):
            g = random_digraph(rng, 4, p=0.5)
            f = find_fold(g)
            if f is None:
                continue
            folded += 1
            reduced = fold(g, *f)
            for h in targets:
                before = bool(enumerate_homomorphisms(g, h))
                after = bool(enumerate_homomorphisms(reduced, h))
                assert before == after
        assert folded >= 8


class TestStiffReduction:
    def test_stiff_input_is_returned_unchanged(self):
        g = directed_cycle(3)
        assert stiff_reduction(g) is g

    def test_looped_clique_reduces_to_a_point(self):
        r = stiff_reduction(looped_clique(3))
        assert r.n == 1
        assert r.has_loop(0)

    def test_reduction_is_stiff(self, rng):
        for _ in range(15):
            g = random_digraph(rng, 4, p=0.5)
            assert is_stiff(stiff_reduction(g))

    def test_reduction_invariant_under_relabeling(self):
        # The reduced digraph may depend on the fold order, but only up to
        # isomorphism.
        g = Digraph(4, [(0, 0), (1, 1), (0, 1), (1, 0), (0, 2), (1, 3)])
        h = Digraph(4, [(1, 1), (0, 0), (1, 0), (0, 1), (1, 3), (0, 2)])
        assert is_isomorphic(stiff_reduction(g), stiff_reduction(h))


class TestDismantlability:
    @pytest.mark.parametrize(
        "g,expected",
        [
            (Digraph(1, [(0, 0)]), True),
            (Digraph(1, []), False),
            (looped_clique(3), True),
            (Digraph(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1)]), True),
            (directed_cycle(3), False),
            (transitive_tournament(3), False),
            (Digraph(2, [(0, 0), (1, 1)]), False),
        ],
        ids=[
            "looped-point",
            "bare-point",
            "looped-clique",
            "looped-bidirected-path",
            "directed-triangle",
            "tournament",
            "two-loops",
        ],
    )
    def test_examples(self, g, expected):
        assert is_dismantlable(g) is expected


class TestHomotopyRelations:
    def setup_method(self):
        self.g, self.h = homotopy_witness_pair()
        self.f = VertexMap([0, 1])
        self.fw = VertexMap([3, 2])
        self.fl = VertexMap([4, 5])

    def test_directed_but_not_bidirected(self):
        assert dihomotopic(self.f, self.fw, self.g, self.h)
        assert not dihomotopic(self.fw, self.f, self.g, self.h)
        assert not bihomotopic(self.f, self.fw, self.g, self.h)

    def test_line_but_not_directed(self):
        assert line_homotopic(self.f, self.fl, self.g, self.h)
        assert not dihomotopic(self.f, self.fl, self.g, self.h)
        assert not dihomotopic(self.fl, self.f, self.g, self.h)

    def test_every_map_is_self_homotopic(self):
        for m in enumerate_homomorphisms(self.g, self.h):
            assert bihomotopic(m, m, self.g, self.h)
            assert dihomotopic(m, m, self.g, self.h)
            assert line_homotopic(m, m, self.g, self.h)

    def test_non_homomorphism_is_rejected(self):
        bad = VertexMap([0, 0])
        with pytest.raises(NotAHomomorphism):
            bihomotopic(bad, self.f, self.g, self.h)
        with pytest.raises(NotAHomomorphism):
            dihomotopic(self.f, bad, self.g, self.h)
        with pytest.raises(NotAHomomorphism):
            line_homotopic(bad, bad, self.g, self.h)

    def test_each_map_is_checked_once(self, monkeypatch):
        # The four questions of `dihom homotopy` on one instance check each
        # of their two maps once; a bad map is never remembered, so every
        # question that names it raises.
        checked = []

        def counting(f, g, h):
            checked.append(f)
            return is_homomorphism(f, g, h)

        rel = _HomRelations(self.g, self.h)
        monkeypatch.setattr("dihom.homotopy.is_homomorphism", counting)
        assert rel.dihomotopic(self.f, self.fw)
        assert not rel.dihomotopic(self.fw, self.f)
        assert not rel.bihomotopic(self.f, self.fw)
        assert rel.line_homotopic(self.f, self.fw)
        assert checked == [self.f, self.fw]
        bad = VertexMap([0, 0])
        for _ in range(2):
            with pytest.raises(NotAHomomorphism):
                rel.dihomotopic(bad, self.f)
        assert checked == [self.f, self.fw, bad, bad]


class TestHomotopyClasses:
    def setup_method(self):
        self.g, self.h = homotopy_witness_pair()

    def test_bidirected_classes_are_singletons(self):
        hc = homotopy_classes(self.g, self.h, "bi")
        assert len(hc.classes) == 6
        assert all(len(c) == 1 for c in hc.classes)
        assert hc.preorder is None

    def test_line_classes(self):
        hc = homotopy_classes(self.g, self.h, "line")
        assert {frozenset(m.image for m in c) for c in hc.classes} == {
            frozenset({(0, 1), (3, 2), (4, 5)}),
            frozenset({(1, 0), (2, 3), (5, 4)}),
        }
        assert hc.class_of(VertexMap([0, 1])) == hc.class_of(VertexMap([4, 5]))

    def test_directed_classes_carry_the_preorder(self):
        hc = homotopy_classes(self.g, self.h, "di")
        line = homotopy_classes(self.g, self.h, "line")
        assert hc.classes == line.classes
        assert (VertexMap([0, 1]), VertexMap([3, 2])) in hc.preorder
        assert (VertexMap([3, 2]), VertexMap([0, 1])) not in hc.preorder
        # Reflexive pairs are always present.
        for m in enumerate_homomorphisms(self.g, self.h):
            assert (m, m) in hc.preorder

    def test_unknown_relation(self):
        with pytest.raises(InvalidVariant):
            homotopy_classes(self.g, self.h, "up-to-phase")

    def test_class_of_unknown_map(self):
        hc = homotopy_classes(self.g, self.h, "bi")
        with pytest.raises(KeyError):
            hc.class_of(VertexMap([9, 9]))


class TestRelationImplications:
    def test_bi_implies_di_implies_line(self, rng):
        checked = 0
        for _ in range(12):
            g = random_digraph(rng, 3, p=0.5)
            h = random_digraph(rng, 3, p=0.6)
            maps = enumerate_homomorphisms(g, h)
            if not 2 <= len(maps) <= 8:
                continue
            checked += 1
            for f in maps:
                for m in maps:
                    if bihomotopic(f, m, g, h):
                        assert dihomotopic(f, m, g, h)
                        assert dihomotopic(m, f, g, h)
                    if dihomotopic(f, m, g, h):
                        assert line_homotopic(f, m, g, h)
        assert checked >= 3


class TestBihomotopyMatchesSkeleton:
    def test_same_component_of_the_one_skeleton(self, rng):
        checked = 0
        for _ in range(40):
            g = random_digraph(rng, 3, p=0.4)
            h = random_digraph(rng, 4, p=0.55)
            maps = enumerate_homomorphisms(g, h)
            if not 2 <= len(maps) <= 12:
                continue
            checked += 1
            skeleton = hom_one_skeleton(g, h)
            component = {
                skeleton.maps[i]: k
                for k, comp in enumerate(skeleton.components())
                for i in comp
            }
            for f in maps:
                for m in maps:
                    assert bihomotopic(f, m, g, h) == (component[f] == component[m])
        assert checked >= 10


def reference_relations(g: Digraph, h: Digraph):
    """The homomorphisms in lexicographic order and the ``bi``, ``di`` and
    ``line`` adjacency lists, from the pairwise arrow rule, inverted
    predecessor lists and set operations."""
    maps = brute_force_homs(g, h)
    succ = [
        [
            j
            for j, m in enumerate(maps)
            if all(h.has_edge(f(v), m(w)) for v, w in g.edges)
        ]
        for f in maps
    ]
    pred: list[list[int]] = [[] for _ in maps]
    for i, js in enumerate(succ):
        for j in js:
            pred[j].append(i)
    adj = {
        "bi": [sorted(set(s) & set(p)) for s, p in zip(succ, pred)],
        "di": succ,
        "line": [sorted(set(s) | set(p)) for s, p in zip(succ, pred)],
    }
    return maps, adj


class TestRelationsMatchAllPairs:
    @settings(max_examples=40, deadline=None)
    @given(digraphs(3), digraphs(4))
    @example(*homotopy_witness_pair())
    @example(Digraph(0), Digraph(2, [(0, 1)]))
    @example(Digraph(2, [(0, 1)]), Digraph(0))
    def test_relations_and_classes(self, g, h):
        maps, adj = reference_relations(g, h)
        reached = {
            r: [[d >= 0 for d in bfs_distances(a, i)] for i in range(len(maps))]
            for r, a in adj.items()
        }
        rel = _HomRelations(g, h)
        assert rel.maps == maps
        # The packed rules give the arrows out of and into each map.
        succ = [set(_bits(rel.succ(k))) for k in range(len(maps))]
        pred = [set(_bits(rel.pred(k))) for k in range(len(maps))]
        assert [sorted(s & p) for s, p in zip(succ, pred)] == adj["bi"]
        assert [sorted(s) for s in succ] == adj["di"]
        assert [sorted(s | p) for s, p in zip(succ, pred)] == adj["line"]
        for i, f in enumerate(maps):
            for j, m in enumerate(maps):
                assert rel.bihomotopic(f, m) == reached["bi"][i][j]
                assert rel.dihomotopic(f, m) == reached["di"][i][j]
                assert rel.line_homotopic(f, m) == reached["line"][i][j]
        for relation in ("bi", "di", "line"):
            # Classes in order of their least map, as a search from each
            # least unvisited map finds them.
            symmetric = reached["bi" if relation == "bi" else "line"]
            classes, seen = [], set()
            for i in range(len(maps)):
                if i not in seen:
                    c = [j for j in range(len(maps)) if symmetric[i][j]]
                    seen.update(c)
                    classes.append(frozenset(maps[j] for j in c))
            hc = homotopy_classes(g, h, relation)
            assert hc.classes == tuple(classes)
            if relation == "di":
                assert hc.preorder == tuple(
                    (f, maps[j])
                    for i, f in enumerate(maps)
                    for j in range(len(maps))
                    if reached["di"][i][j]
                )
            else:
                assert hc.preorder is None


class TestProductRule:
    """Hom(G1 + G2, H) = Hom(G1, H) x Hom(G2, H), and every map has an arrow
    to itself, so one factor can wait while the other moves: a relation
    holds on a coproduct exactly when it holds on both factors."""

    # Looped, with even shifts only: two classes per factor, so a pair of
    # maps of the coproduct is related exactly when both factors are.
    target = circulant(12, (0, 2, 4, 6))
    arc = Digraph(2, [(0, 1)])
    two_arcs = Digraph(4, [(0, 1), (2, 3)])

    def test_relations_on_two_arcs_follow_the_factors(self):
        maps, adj = reference_relations(self.arc, self.target)
        index = {f: i for i, f in enumerate(maps)}
        reached = {
            r: [[d >= 0 for d in bfs_distances(a, i)] for i in range(len(maps))]
            for r, a in adj.items()
        }

        def expected(r, f, g):
            # The restrictions to the first arc, then to the second.
            return all(
                reached[r][index[VertexMap(f.image[v : v + 2])]][
                    index[VertexMap(g.image[v : v + 2])]
                ]
                for v in (0, 2)
            )

        def product_map(rng):
            return VertexMap(rng.choice(maps).image + rng.choice(maps).image)

        rel = _HomRelations(self.two_arcs, self.target)
        assert len(rel.cells) == len(maps) ** 2 == 2304
        rng = random.Random(0)
        answers = set()
        for _ in range(25):
            f, g = product_map(rng), product_map(rng)
            for r, ask in (
                ("bi", rel.bihomotopic),
                ("di", rel.dihomotopic),
                ("line", rel.line_homotopic),
            ):
                assert ask(f, g) == expected(r, f, g)
                answers.add(ask(f, g))
            assert rel.dihomotopic(g, f) == expected("di", g, f)
        assert answers == {True, False}

    def test_peak_memory_stays_below_the_all_pairs_bitsets(self):
        # Three successor bitsets of 2304 bits for each of 2304 maps are
        # about 3.4 MB at their peak; reading the arrows on demand peaked at
        # about 0.13 MB.
        f, g = VertexMap([0, 0, 0, 0]), VertexMap([11, 11, 1, 1])
        tracemalloc.start()
        try:
            rel = _HomRelations(self.two_arcs, self.target)
            assert not rel.bihomotopic(f, g)
            assert not rel.dihomotopic(f, g)
            assert not rel.line_homotopic(f, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
