from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import tracemalloc

import pytest

import dihom.constructions
from dihom import (
    Digraph,
    InvalidRange,
    InvalidSize,
    InvalidVariant,
    SizeCapExceeded,
    automorphism_group_order,
    canonical_form,
    canonical_key,
    complete_bipartite_digraph,
    coproduct,
    digraph_from_key,
    directed_cycle,
    directed_path,
    enumerate_homomorphisms,
    enumerate_tournaments,
    homotopy_witness_pair,
    hom_poset,
    induced_subgraph,
    interval_bidirected,
    interval_directed_looped,
    is_isomorphic,
    line_digraph,
    mycielskian,
    product,
    quotient,
    sphere_tournament,
    transitive_tournament,
)
from dihom.cli import run
from dihom.constructions import _INTERVALS, _least_orderings
from dihom.digraph import _bits
from conftest import random_digraph, random_tournament, relabel


# Complete digraphs, every loop included.
_K16 = Digraph(16, itertools.product(range(16), repeat=2))
_K64 = Digraph(64, itertools.product(range(64), repeat=2))

# Calls over the 64-vertex limit whose edge lists would take hundreds of
# kilobytes or more.
_OVERSIZED = [
    (product, (_K16, _K16)),
    (coproduct, (_K64, _K64)),
    (directed_path, (10**5,)),
    (directed_cycle, (10**5,)),
    (interval_bidirected, (10**5,)),
    (interval_directed_looped, (10**5,)),
    (line_digraph, (10**5, range(1, 10**5 + 1))),  # all forward
    (complete_bipartite_digraph, (300, 300)),
    (digraph_from_key, (300, 0)),
]


class TestFamilies:
    def test_transitive_tournament(self):
        t = transitive_tournament(4)
        assert t.edge_count == 6
        assert all(t.has_edge(i, j) for i in range(4) for j in range(i + 1, 4))
        assert t.is_acyclic()

    def test_transitive_tournament_is_kept(self):
        assert transitive_tournament(5) is transitive_tournament(5)
        assert transitive_tournament(5) is not transitive_tournament(6)
        # A failed call keeps nothing, so a bad n raises every time.
        for _ in range(2):
            with pytest.raises(InvalidSize):
                transitive_tournament(0)
            with pytest.raises(SizeCapExceeded):
                transitive_tournament(65)

    def test_directed_path_and_cycle(self):
        p = directed_path(4)
        assert set(p.edges) == {(0, 1), (1, 2), (2, 3)}
        c = directed_cycle(4)
        assert set(c.edges) == {(0, 1), (1, 2), (2, 3), (3, 0)}
        assert not c.is_acyclic()

    def test_complete_bipartite(self):
        g = complete_bipartite_digraph(2, 3)
        assert g.n == 5
        assert set(g.edges) == {(u, v) for u in range(2) for v in range(2, 5)}

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: transitive_tournament(0),
            lambda: directed_path(0),
            lambda: directed_cycle(2),
            lambda: complete_bipartite_digraph(0, 3),
            lambda: interval_bidirected(-1),
        ],
    )
    def test_size_validation(self, bad):
        with pytest.raises(InvalidSize):
            bad()

    @pytest.mark.parametrize("family", [transitive_tournament, sphere_tournament])
    def test_size_cap_before_edges(self, family, monkeypatch):
        # The check must come before the quadratic edge list, so the graph
        # is never built.
        def fail(*args, **kwargs):
            raise AssertionError("Digraph built")

        monkeypatch.setattr(dihom.constructions, "Digraph", fail)
        with pytest.raises(SizeCapExceeded):
            family(65)

    @pytest.mark.parametrize(
        "family, args", _OVERSIZED, ids=[f.__name__ for f, _ in _OVERSIZED]
    )
    def test_size_cap_before_any_edge(self, family, args):
        # The vertex count is checked before any edge is formed, so the
        # call allocates almost nothing.
        tracemalloc.start()
        try:
            with pytest.raises(SizeCapExceeded):
                family(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32_000

    def test_interval_family(self):
        # n indexes the number of steps, so there are n + 1 looped vertices.
        bi = interval_bidirected(3)
        assert bi.n == 4
        assert all(bi.has_loop(v) for v in range(4))
        assert bi.edge_count == 4 + 6  # loops plus both directions of each step
        fw = interval_directed_looped(3)
        assert fw.edge_count == 4 + 3
        assert fw.has_edge(1, 2) and not fw.has_edge(2, 1)

    def test_line_digraph_orientations(self):
        g = line_digraph(3, [1, 0, 0])
        oriented = {e for e in g.edges if e[0] != e[1]}
        assert oriented == {(0, 1), (2, 1), (3, 2)}
        assert all(g.has_loop(v) for v in range(4))
        with pytest.raises(InvalidSize):
            line_digraph(2, [1])  # wrong number of bits


class TestMycielskian:
    def test_vertex_counts(self):
        c3 = directed_cycle(3)
        assert mycielskian(c3, 1).n == 7
        assert mycielskian(c3, 2).n == 7
        assert mycielskian(c3, 3).n == 5

    @pytest.mark.parametrize("variant", [1, 2, 3])
    def test_base_is_induced_copy(self, variant, rng):
        for _ in range(5):
            g = random_digraph(rng, rng.randint(1, 4))
            m = mycielskian(g, variant)
            assert induced_subgraph(m, range(g.n)) == g

    def test_third_variant_apexes(self):
        m = mycielskian(directed_cycle(3), 3)
        # one apex dominates the base, the other is dominated by it
        assert m.out_neighbors(3) == {0, 1, 2}
        assert m.in_neighbors(4) == {0, 1, 2}

    @pytest.mark.parametrize("variant", [1, 2, 3])
    def test_matches_the_quotient_of_the_product(self, variant, rng):
        # The oracle forms the product with the interval, vertex (v, layer)
        # at 3 * v + layer, and collapses its layers.
        for _ in range(20):
            g = random_digraph(rng, rng.randint(1, 6))
            n = g.n
            layer = [[3 * v + k] for k in range(3) for v in range(n)]
            if variant in (1, 2):
                classes = layer[: 2 * n] + [[3 * v + 2 for v in range(n)]]
            else:
                classes = layer[n : 2 * n] + [[3 * v + k for v in range(n)] for k in (0, 2)]
            expected = quotient(product(g, _INTERVALS[variant]), classes)
            assert mycielskian(g, variant) == expected

    def test_size_limit_applies_to_the_result(self):
        # The result, not the 3n-vertex product, must fit in 64 vertices.
        for variant, n, size in [(1, 31, 63), (2, 31, 63), (3, 62, 64)]:
            m = mycielskian(directed_path(n), variant)
            assert m.n == size
            assert induced_subgraph(m, range(n)) == directed_path(n)
        for variant, n in [(1, 32), (2, 32), (3, 63)]:
            with pytest.raises(SizeCapExceeded, match="got 65$"):
                mycielskian(directed_path(n), variant)

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidVariant):
            mycielskian(directed_cycle(3), 4)
        with pytest.raises(InvalidSize):
            mycielskian(Digraph(0), 1)


class TestSphereTournament:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_is_tournament(self, n):
        t = sphere_tournament(n)
        assert t.n == 2 * n + 3
        for u, v in itertools.combinations(range(t.n), 2):
            assert t.has_edge(u, v) != t.has_edge(v, u)
        assert not any(t.has_loop(v) for v in range(t.n))

    def test_smallest_instance_adjacency(self):
        t = sphere_tournament(1)
        outs = {v: t.out_neighbors(v) for v in range(5)}
        assert outs == {0: {3}, 1: {0, 4}, 2: {0, 1}, 3: {1, 2}, 4: {0, 2, 3}}

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidSize):
            sphere_tournament(0)


def brute_force_key(g: Digraph) -> int:
    """The least adjacency bit string over every vertex ordering.

    Placing ``v`` after ``p_0 .. p_{k-1}`` appends ``loop(v)`` and then
    ``(e(v, p_j), e(p_j, v))`` for each ``j < k``.  Deliberately naive;
    serves as the oracle for :func:`canonical_key`.
    """
    return min(ordering_key(g, order) for order in itertools.permutations(range(g.n)))


def ordering_key(g: Digraph, order: tuple[int, ...]) -> int:
    """The adjacency bit string revealed by placing vertices in ``order``."""
    key = 0
    for k, v in enumerate(order):
        key = key << 1 | g.has_edge(v, v)
        for p in order[:k]:
            key = key << 2 | g.has_edge(v, p) << 1 | g.has_edge(p, v)
    return key


def brute_force_automorphisms(g: Digraph) -> int:
    """The permutations ``p`` with ``{(p[u], p[v]) for (u, v) in E} == E``."""
    edges = set(g.edges)
    return sum(
        {(p[u], p[v]) for u, v in edges} == edges
        for p in itertools.permutations(range(g.n))
    )


def tuple_least_orderings(g: Digraph) -> tuple[int, int]:
    """The key search with one profile int per vertex in an ``n``-tuple.

    The slower form the packed search replaced, kept as its oracle on
    digraphs too large for brute force: the same states, merged the same
    way, so the key and the count must agree.
    """
    n = g.n
    out = g._out
    states = {((1 << n) - 1, (0,) * n): 1}
    key = 0
    for k in range(n):
        best = 2 << 2 * k
        found: dict[tuple[int, tuple[int, ...]], int] = {}
        for (rem, prof), count in states.items():
            for v in _bits(rem):
                seg = (out[v] >> v & 1) << 2 * k | prof[v]
                if seg > best:
                    continue
                if seg < best:
                    best, found = seg, {}
                rest = rem & ~(1 << v)
                state = (rest, tuple(
                    prof[w] << 2 | (out[w] >> v & 1) << 1 | out[v] >> w & 1
                    if rest >> w & 1 else 0
                    for w in range(n)
                ))
                found[state] = found.get(state, 0) + count
        key = key << 2 * k + 1 | best
        states = found
    return key, sum(states.values())


# A sparse 10-vertex digraph with two isolated vertices and a loop: many
# orderings tie for long stretches of the search.
SPARSE_10 = Digraph(
    10, [(1, 3), (2, 7), (2, 8), (3, 7), (4, 3), (5, 5), (7, 4), (7, 8), (8, 9)]
)


class TestCanonicalKeyOracle:
    def test_every_digraph_up_to_three_vertices(self):
        count = 0
        for n in range(4):
            pairs = list(itertools.product(range(n), repeat=2))
            for mask in range(1 << len(pairs)):
                g = Digraph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
                assert canonical_key(g) == brute_force_key(g)
                assert automorphism_group_order(g) == brute_force_automorphisms(g)
                count += 1
        assert count == 531

    def test_random_digraphs_four_to_six_vertices(self):
        rng = random.Random(12)
        for n in (4, 5, 6):
            for p in (0.1, 0.3, 0.5, 0.7, 0.9):
                for loops in (False, True):
                    for _ in range(3):
                        g = random_digraph(rng, n, p, loops)
                        assert canonical_key(g) == brute_force_key(g)
                        assert automorphism_group_order(g) == (
                            brute_force_automorphisms(g)
                        )

    def test_frozen_keys(self):
        assert [canonical_key(t) for t in enumerate_tournaments(5)] == [
            2435669, 2435673, 2435685, 2435686, 2435733, 2435734,
            2435737, 2435738, 2435749, 2437781, 2437782, 2443941,
        ]
        assert canonical_key(sphere_tournament(2)) == 40863815354714
        assert canonical_key(directed_cycle(5)) == 77956
        assert canonical_key(Digraph(4)) == 0
        assert canonical_key(Digraph(3, [(0, 0), (0, 1)])) == 18
        assert canonical_key(SPARSE_10) == 11264016798973952

    def test_packed_search_matches_tuple_search(self):
        rng = random.Random(20)
        graphs = [Digraph(9), directed_cycle(8), SPARSE_10, sphere_tournament(3)]
        for n in (7, 8, 9, 10):
            for p in (0.1, 0.3, 0.5, 0.9):
                for loops in (False, True):
                    graphs += [random_digraph(rng, n, p, loops) for _ in range(3)]
            graphs.append(random_tournament(rng, n))
        for g in graphs:
            assert _least_orderings(g) == tuple_least_orderings(g)


class TestCanonicalForms:
    def test_canonical_form_is_isomorphic_copy(self, rng):
        for _ in range(25):
            g = random_digraph(rng, rng.randint(0, 5))
            c = canonical_form(g)
            assert is_isomorphic(c, g)
            assert canonical_key(c) == canonical_key(g)

    def test_key_is_relabeling_invariant(self, rng):
        for _ in range(25):
            n = rng.randint(1, 5)
            g = random_digraph(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_key(g) == canonical_key(relabel(g, perm))

    def test_key_roundtrip(self, rng):
        g = random_digraph(rng, 4)
        key = canonical_key(g)
        assert canonical_form(g) == digraph_from_key(4, key)

    def test_key_decodes_in_label_order(self):
        for n in range(4):
            for key in range(1 << n * n):
                assert ordering_key(digraph_from_key(n, key), tuple(range(n))) == key

    def test_key_out_of_range(self):
        with pytest.raises(InvalidRange):
            digraph_from_key(2, 1 << 4)
        with pytest.raises(InvalidRange):
            digraph_from_key(2, 1 << 10)
        with pytest.raises(InvalidRange):
            digraph_from_key(2, -1)
        assert digraph_from_key(2, (1 << 4) - 1) == Digraph(
            2, [(0, 0), (0, 1), (1, 0), (1, 1)]
        )

    def test_distinguishes_nonisomorphic(self):
        assert not is_isomorphic(directed_cycle(3), directed_path(3))
        assert not is_isomorphic(Digraph(2, [(0, 1)]), Digraph(2, [(0, 1), (1, 0)]))
        a = Digraph(1, [(0, 0)])
        b = Digraph(1, [])
        assert canonical_key(a) != canonical_key(b)

    def test_automorphism_orders(self):
        assert automorphism_group_order(directed_cycle(5)) == 5
        assert automorphism_group_order(transitive_tournament(4)) == 1
        assert automorphism_group_order(Digraph(4)) == math.factorial(4)
        assert automorphism_group_order(Digraph(2, [(0, 1), (1, 0)])) == 2
        assert automorphism_group_order(Digraph(0)) == 1
        # 12! orderings reveal the key of the empty digraph; the search
        # merges them into 2 ** 12 states instead of visiting each.
        assert automorphism_group_order(Digraph(12)) == math.factorial(12)

    def test_orbit_counting(self, rng):
        # |orbit| * |stabilizer| = n! lets us cross-check the two primitives.
        for _ in range(10):
            n = rng.randint(1, 4)
            g = random_digraph(rng, n)
            orbit = {
                tuple(sorted(relabel(g, list(perm)).edges))
                for perm in itertools.permutations(range(n))
            }
            assert len(orbit) * automorphism_group_order(g) == math.factorial(n)


class TestTournamentEnumeration:
    def test_counts(self):
        assert [len(enumerate_tournaments(n)) for n in range(1, 8)] == [1, 1, 2, 4, 12, 56, 456]

    def test_members_are_canonical_tournaments(self):
        reps = enumerate_tournaments(4)
        for t in reps:
            assert t == canonical_form(t)
            for u, v in itertools.combinations(range(4), 2):
                assert t.has_edge(u, v) != t.has_edge(v, u)
        assert len({canonical_key(t) for t in reps}) == len(reps)

    def test_every_tournament_is_represented(self, rng):
        reps = enumerate_tournaments(5)
        for _ in range(10):
            t = random_tournament(rng, 5)
            assert sum(is_isomorphic(t, r) for r in reps) == 1

    def test_size_limits(self):
        with pytest.raises(InvalidSize):
            enumerate_tournaments(0)
        with pytest.raises(SizeCapExceeded):
            enumerate_tournaments(8)

    @pytest.mark.parametrize("n", [4, 5])
    def test_every_labelled_tournament_has_its_class(self, n):
        # The extensions are filtered by an invariant of the new vertex;
        # every labelled tournament's key must still be listed.
        pairs = list(itertools.combinations(range(n), 2))
        keys = {
            canonical_key(Digraph(n, [(v, u) if mask >> i & 1 else (u, v)
                                      for i, (u, v) in enumerate(pairs)]))
            for mask in range(1 << len(pairs))
        }
        assert keys == {canonical_key(t) for t in enumerate_tournaments(n)}

    def test_keys_only_extensions_with_a_maximal_new_vertex(self, monkeypatch):
        # Keying every extension would take 2, 4, 16, 64, 384 and 3584 keys
        # for sizes 2 to 7.
        sizes = []

        def counted(g):
            sizes.append(g.n)
            return _least_orderings(g)

        monkeypatch.setattr(dihom.constructions, "_least_orderings", counted)
        assert len(enumerate_tournaments(7)) == 456
        assert [sizes.count(n) for n in range(2, 8)] == [1, 2, 4, 14, 71, 551]

    @pytest.mark.parametrize(
        "n, digest",
        [
            (6, "bdb6f8127efeb86c487812fa1f05f9427416dbb1f810797b2dd46b5832842b5a"),
            (7, "e4b72e165d3801142778efbe81c2c890ca3ed9b601ac1a7183e08ca72237d852"),
        ],
    )
    def test_cli_output_is_frozen(self, n, digest, capsys):
        assert run(["tournaments", str(n)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("n", range(1, 7))
    def test_cli_automorphisms_match_the_group_order(self, n, capsys):
        assert run(["tournaments", str(n)]) == 0
        rows = json.loads(capsys.readouterr().out)["tournaments"]
        for row in rows:
            t = Digraph(n, [tuple(e) for e in row["edges"]])
            assert row["automorphisms"] == automorphism_group_order(t)
            if n <= 5:
                assert row["automorphisms"] == brute_force_automorphisms(t)


class TestHomotopyWitnessPair:
    def test_shape(self):
        g, h = homotopy_witness_pair()
        assert (g.n, h.n) == (2, 6)
        assert set(g.edges) == {(0, 1), (1, 0)}
        assert set(h.edges) == {
            (0, 2), (1, 3), (0, 1), (1, 0),
            (2, 3), (3, 2), (4, 2), (5, 3), (4, 5), (5, 4),
        }

    def test_hom_complex_is_six_isolated_points(self):
        g, h = homotopy_witness_pair()
        assert len(enumerate_homomorphisms(g, h)) == 6
        p = hom_poset(g, h)
        assert len(p.cells) == 6
        assert all(c.dimension() == 0 for c in p.cells)
