"""End-to-end acceptance checks, one test per headline guarantee.

These run the package on real catalogues: exhaustive isomorphism-class
sweeps, frozen reference homology, and randomized cross-validation of
independent code paths against each other.  They are slower than the
unit tests (the whole module takes around a minute), but each test
stands alone so a failure pinpoints exactly which guarantee broke.
"""

from __future__ import annotations

import json
import math
import random

from conftest import (
    dag_classes,
    dihom_output,
    heptagon_tournament,
    loopy_classes,
    oriented_classes,
    pentagon_tournament,
    random_dag,
    random_digraph,
    random_oriented,
    split_diameter,
    unsplit_diameter,
    unsplit_hom,
    unsplit_homology,
    unsplit_morse,
)
from dihom import (
    Digraph,
    HomologyGroups,
    SimplicialComplex,
    SizeCapExceeded,
    all_folds,
    bihomotopic,
    collapse_free_pairs,
    diameter,
    dihomotopic,
    directed_cycle,
    enumerate_homomorphisms,
    enumerate_tournaments,
    exponential,
    fold,
    has_homomorphism,
    hom_poset,
    homology_of_poset,
    homotopy_witness_pair,
    in_neighborhood_complex,
    induced_subgraph,
    is_acyclic_matching,
    is_dismantlable,
    is_isomorphic,
    is_n_leray,
    line_homotopic,
    meet_path,
    mycielskian,
    out_neighborhood_complex,
    poset_product,
    product,
    reduced_homology,
    sphere_homology,
    sphere_tournament,
    staircase_cells,
    tournament_matching,
    transitive_tournament,
)

# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def hom_profile(h: HomologyGroups) -> dict[int, tuple[int, tuple[int, ...]]]:
    """Collapse homology to a comparable dict; trivial groups give {}."""
    return {d: (h.rank(d), h.torsion(d)) for d in h.degrees()}


def nbd_homology(g: Digraph) -> HomologyGroups:
    return reduced_homology(out_neighborhood_complex(g))


def gated_homology(p, cells: int = 200, chain_cap: int = 2500):
    """Poset homology, or None when the input is too big to afford.

    Randomized identity checks use this so that the rare oversized sample
    skips the homology comparison (cheap structural checks still run)
    instead of stalling the suite in Smith normal form.
    """
    if len(p) > cells:
        return None
    try:
        return homology_of_poset(p, cap=chain_cap)
    except SizeCapExceeded:
        return None


def hamming(a, b) -> int:
    return sum(x != y for x, y in zip(a.image, b.image))


# ---------------------------------------------------------------------------
# 1. Homology of out-neighborhood complexes across all 5-vertex tournaments
# ---------------------------------------------------------------------------

# One row per isomorphism class: out-neighborhoods, and the nontrivial part
# of the reduced homology of the out-neighborhood complex as
# {degree: (rank, torsion)}.  Recomputed by hand from the facet lists.
TOURNAMENT_TABLE: list[tuple[dict[int, list[int]], dict]] = [
    ({0: [], 1: [0], 2: [0, 1], 3: [0, 1, 2], 4: [0, 1, 2, 3]}, {}),
    ({0: [2], 1: [0], 2: [1], 3: [0, 1, 2], 4: [0, 1, 2, 3]}, {}),
    ({0: [], 1: [0, 3], 2: [0, 1], 3: [0, 2], 4: [0, 1, 2, 3]}, {}),
    ({0: [3], 1: [0], 2: [0, 1], 3: [1, 2], 4: [0, 1, 2, 3]}, {}),
    ({0: [], 1: [0], 2: [0, 1, 4], 3: [0, 1, 2], 4: [0, 1, 3]}, {}),
    ({0: [], 1: [0, 3, 4], 2: [0, 1], 3: [0, 2], 4: [0, 2, 3]}, {}),
    ({0: [3], 1: [0], 2: [0, 1], 3: [1, 2, 4], 4: [0, 1, 2]}, {0: (1, ())}),
    ({0: [3], 1: [0], 2: [0, 1, 4], 3: [1, 2], 4: [0, 1, 3]}, {}),
    ({0: [3, 4], 1: [0], 2: [0, 1], 3: [1, 2], 4: [1, 2, 3]}, {}),
    ({0: [3], 1: [0, 4], 2: [0, 1], 3: [1, 2], 4: [0, 2, 3]}, {1: (1, ())}),
    ({0: [4], 1: [0, 3], 2: [0, 1], 3: [0, 2], 4: [1, 2, 3]}, {0: (1, ()), 1: (2, ())}),
    ({0: [3, 4], 1: [0, 4], 2: [0, 1], 3: [1, 2], 4: [2, 3]}, {1: (1, ())}),
]


def test_c01_five_vertex_tournament_homology_table():
    found = enumerate_tournaments(5)
    assert len(found) == 12

    rows = [
        (Digraph(5, [(u, v) for u, out in nbrs.items() for v in out]), expected)
        for nbrs, expected in TOURNAMENT_TABLE
    ]
    matched = set()
    for t in found:
        hits = [i for i, (g, _) in enumerate(rows) if is_isomorphic(t, g)]
        assert len(hits) == 1, f"tournament matched rows {hits}"
        (i,) = hits
        assert i not in matched, f"row {i} matched twice"
        matched.add(i)
        assert hom_profile(nbd_homology(t)) == rows[i][1], f"row {i + 1}"
    assert matched == set(range(12))


# ---------------------------------------------------------------------------
# 2-3. Frozen circle-homotopy-type hom posets over circulant tournaments
# ---------------------------------------------------------------------------


def test_c02_seven_vertex_circulant_hom_poset_is_a_circle():
    p = hom_poset(directed_cycle(3), heptagon_tournament())
    assert p.euler_characteristic() == 0
    assert homology_of_poset(p) == HomologyGroups({1: 1})


def test_c03_pentagon_hom_poset_is_a_circle():
    p = hom_poset(directed_cycle(3), pentagon_tournament())
    assert len(p.minimal_cells()) == 15
    assert p.dimension_census() == {0: 15, 1: 15}
    assert homology_of_poset(p) == HomologyGroups({1: 1})


# ---------------------------------------------------------------------------
# 4. Collapsibility of hom posets from acyclic sources into tournaments
# ---------------------------------------------------------------------------


def check_collapsible(g: Digraph, n: int, stats: dict) -> None:
    """Certify that the hom poset of ``g`` into T_n collapses to a point.

    The certificate is an acyclic matching with one critical cell.  When
    the poset is too large to build at once, the source splits into weak
    components and each factor is certified on its own (the poset of a
    disjoint union is the product of the factors' posets, and a product
    of collapsibles is collapsible).  Every poset built also gets its
    homology computed outright.
    """
    try:
        p = hom_poset(g, transitive_tournament(n), cap=300_000)
    except SizeCapExceeded:
        comps = g.weak_components()
        assert len(comps) > 1, f"connected poset above cap: {g.edges}, n={n}"
        for comp in comps:
            check_collapsible(induced_subgraph(g, sorted(comp)), n, stats)
        stats["split"] += 1
        return
    stats["posets"] += 1
    m = tournament_matching(g, n, poset=p)
    assert is_acyclic_matching(p, m)
    assert len(m.critical) == 1
    assert homology_of_poset(p).is_trivial
    stats["homology"] += 1


def test_c04_acyclic_sources_give_collapsible_posets():
    counts = []
    stats = {"homology": 0, "split": 0, "posets": 0}
    pairs = 0
    for size in range(1, 6):
        classes = dag_classes(size)
        counts.append(len(classes))
        for g in classes:
            for n in range(2, 6):
                if not has_homomorphism(g, transitive_tournament(n)):
                    continue
                check_collapsible(g, n, stats)
                pairs += 1
    assert counts == [1, 2, 6, 31, 302]
    assert pairs == 799
    assert stats["split"] > 0
    assert stats["homology"] == stats["posets"]


# ---------------------------------------------------------------------------
# 5. Reconfiguration geometry of homomorphisms into transitive tournaments
# ---------------------------------------------------------------------------


def test_c05_hom_graph_diameter_and_geodesics():
    for m in range(2, 6):
        for n in range(m + 1, 7):
            assert diameter(transitive_tournament(m), transitive_tournament(n)) == m

    rng = random.Random(50)
    hits = 0
    for _ in range(600):
        if hits >= 200:
            break
        g = random_dag(rng, rng.randint(2, 4))
        n = rng.randint(2, 5)
        target = transitive_tournament(n)
        if not has_homomorphism(g, target):
            continue
        maps = enumerate_homomorphisms(g, target)
        if not 2 <= len(maps) <= 300:
            continue
        assert diameter(g, target) <= g.n
        f, h = rng.sample(maps, 2)
        path = meet_path(f, h, g, n)
        assert len(path) - 1 == hamming(f, h)
        hits += 1
    assert hits == 200


# ---------------------------------------------------------------------------
# 6. Sphere tournaments realize spheres, with an explicit collapse witness
# ---------------------------------------------------------------------------


def test_c06_sphere_tournaments_realize_spheres():
    for n in (1, 2, 3):
        assert nbd_homology(sphere_tournament(n)) == sphere_homology(n)

    result = collapse_free_pairs(out_neighborhood_complex(sphere_tournament(1)))
    assert result.log == (
        (frozenset({4}), frozenset({0, 4})),
        (frozenset({3}), frozenset({0, 2, 3})),
    )
    assert result.complex == SimplicialComplex(range(5), [[0, 1], [1, 2], [0, 2]])


# ---------------------------------------------------------------------------
# 7. Mycielskians shift or preserve out-neighborhood homology
# ---------------------------------------------------------------------------


def test_c07_mycielskian_homology():
    rng = random.Random(70)
    hits = 0
    while hits < 30:
        g = random_digraph(rng, rng.randint(2, 5), p=0.45)
        if g.edge_count == 0:
            continue
        base = nbd_homology(g)
        assert nbd_homology(mycielskian(g, 3)) == base.shifted(1), g.edges

        # One and two levels add a contractible cone vertex: one extra
        # component, everything else untouched.
        for levels in (1, 2):
            got = nbd_homology(mycielskian(g, levels))
            assert got.rank(0) == base.rank(0) + 1, (g.edges, levels)
            assert got.torsion(0) == base.torsion(0)
            for d in set(got.degrees()) | set(base.degrees()):
                if d != 0:
                    assert got.rank(d) == base.rank(d), (g.edges, levels, d)
                    assert got.torsion(d) == base.torsion(d)
        hits += 1
    assert hits == 30


# ---------------------------------------------------------------------------
# 8. Out-neighborhood complexes of oriented graphs are 1-Leray
# ---------------------------------------------------------------------------


def test_c08_oriented_graphs_are_one_leray():
    counts = []
    for n in range(1, 5):
        classes = oriented_classes(n)
        counts.append(len(classes))
        for g in classes:
            assert is_n_leray(out_neighborhood_complex(g), 1), g.edges
    assert counts == [1, 2, 7, 42]

    # Induced subcomplexes of an out-neighborhood complex are again
    # out-neighborhood complexes of induced subgraphs, so on random big
    # instances checking vanishing from degree 2 up exercises the same
    # bound without the exhaustive sweep.
    rng = random.Random(80)
    for _ in range(200):
        g = random_oriented(rng, 6)
        assert nbd_homology(g).is_trivial_from(2), g.edges


# ---------------------------------------------------------------------------
# 9. Structural identities, each validated on >= 50 random instances
# ---------------------------------------------------------------------------


def test_c09a_identity_product_exponential_adjunction():
    rng = random.Random(91)
    hits = 0
    for _ in range(400):
        if hits >= 50:
            break
        a = random_digraph(rng, rng.randint(1, 3), p=0.5)
        b = random_digraph(rng, rng.randint(1, 2), p=0.5)
        c = random_digraph(rng, rng.randint(1, 3), p=0.45)
        try:
            exp = exponential(c, b, cap=3000)
            left = hom_poset(product(a, b), c, cap=3000)
            right = hom_poset(a, exp, cap=3000)
        except SizeCapExceeded:
            continue
        assert len(enumerate_homomorphisms(product(a, b), c)) == len(
            enumerate_homomorphisms(a, exp)
        )
        hl, hr = gated_homology(left), gated_homology(right)
        if hl is not None and hr is not None:
            assert hl == hr, (a.edges, b.edges, c.edges)
        hits += 1
    assert hits >= 50


def test_c09b_identity_hom_poset_of_product_target():
    rng = random.Random(92)
    hits = 0
    for _ in range(400):
        if hits >= 50:
            break
        t = random_digraph(rng, rng.randint(1, 2), p=0.5)
        g = random_digraph(rng, rng.randint(1, 3), p=0.5)
        h = random_digraph(rng, rng.randint(1, 3), p=0.5)
        try:
            pg = hom_poset(t, g, cap=3000)
            ph = hom_poset(t, h, cap=3000)
            combined = hom_poset(t, product(g, h), cap=3000)
        except SizeCapExceeded:
            continue
        if len(pg) == 0 or len(ph) == 0:
            assert len(combined) == 0
            hits += 1
            continue
        if len(pg) * len(ph) > 200:
            continue
        hc = gated_homology(combined)
        hp = gated_homology(poset_product(pg.as_poset(), ph.as_poset()))
        if hc is not None and hp is not None:
            assert hc == hp, (t.edges, g.edges, h.edges)
        hits += 1
    assert hits >= 50


def test_c09c_identity_folds_preserve_hom_poset_homology():
    rng = random.Random(93)
    hits_src = hits_tgt = 0
    for _ in range(400):
        if hits_src >= 50 and hits_tgt >= 50:
            break
        g = random_digraph(rng, rng.randint(2, 4), p=0.5)
        folds = all_folds(g)
        if not folds:
            continue
        v, w = folds[rng.randrange(len(folds))]
        folded = fold(g, v, w)
        other = random_digraph(rng, rng.randint(1, 3), p=0.5)
        try:
            if hits_src < 50:
                a = gated_homology(hom_poset(g, other, cap=3000))
                b = gated_homology(hom_poset(folded, other, cap=3000))
                if a is not None and b is not None:
                    assert a == b, (g.edges, (v, w), other.edges)
                hits_src += 1
            if hits_tgt < 50:
                a = gated_homology(hom_poset(other, g, cap=3000))
                b = gated_homology(hom_poset(other, folded, cap=3000))
                if a is not None and b is not None:
                    assert a == b, (g.edges, (v, w), other.edges)
                hits_tgt += 1
        except SizeCapExceeded:
            continue
    assert hits_src >= 50 and hits_tgt >= 50


def test_c09d_identity_out_and_in_complexes_share_homology():
    rng = random.Random(94)
    for _ in range(60):
        g = random_digraph(rng, rng.randint(1, 6))
        out_h = nbd_homology(g)
        in_h = reduced_homology(in_neighborhood_complex(g))
        assert out_h == in_h, g.edges


def test_c09e_identity_edge_hom_poset_matches_out_complex():
    rng = random.Random(95)
    edge = Digraph(2, [(0, 1)])
    hits = 0
    for _ in range(400):
        if hits >= 50:
            break
        g = random_digraph(rng, rng.randint(2, 4), p=0.5)
        try:
            p = hom_poset(edge, g, cap=3000)
        except SizeCapExceeded:
            continue
        assert homology_of_poset(p) == nbd_homology(g), g.edges
        hits += 1
    assert hits >= 50


# ---------------------------------------------------------------------------
# 10. The three homotopy relations are strictly nested
# ---------------------------------------------------------------------------


def test_c10_homotopy_relation_hierarchy():
    g, h = homotopy_witness_pair()
    maps = enumerate_homomorphisms(g, h)
    assert len(maps) == 6

    by_image = {f.image: f for f in maps}
    f01, f32 = by_image[(0, 1)], by_image[(3, 2)]
    f45 = by_image[(4, 5)]
    # Strictness witnesses: a directed homotopy that is not bidirected,
    # and a line homotopy that is not directed either way.
    assert dihomotopic(f01, f32, g, h)
    assert not bihomotopic(f01, f32, g, h)
    assert line_homotopic(f01, f45, g, h)
    assert not dihomotopic(f01, f45, g, h)
    assert not dihomotopic(f45, f01, g, h)

    rng = random.Random(100)
    checked = 0
    for _ in range(200):
        src = random_digraph(rng, rng.randint(2, 3), p=0.5)
        tgt = random_digraph(rng, rng.randint(2, 4), p=0.5)
        maps = enumerate_homomorphisms(src, tgt)
        if not 2 <= len(maps) <= 10:
            continue
        for f in maps:
            for k in maps:
                di = dihomotopic(f, k, src, tgt)
                if bihomotopic(f, k, src, tgt):
                    assert di and dihomotopic(k, f, src, tgt)
                if di:
                    assert line_homotopic(f, k, src, tgt)
                checked += 1
    assert checked >= 200


# ---------------------------------------------------------------------------
# 11. Dismantlability == all tournament hom posets nonempty and connected
# ---------------------------------------------------------------------------


def test_c11_dismantlable_iff_hom_posets_connected():
    classes = [g for n in range(1, 4) for g in loopy_classes(n)]
    assert [len(loopy_classes(n)) for n in range(1, 4)] == [2, 10, 104]

    def all_posets_connected(g: Digraph) -> bool:
        for t in classes:
            p = hom_poset(t, g)
            if len(p) == 0 or not p.is_connected():
                return False
        return True

    dismantlable = 0
    for g in classes:
        expected = is_dismantlable(g)
        assert all_posets_connected(g) == expected, g.edges
        dismantlable += expected
    assert dismantlable == 45


# ---------------------------------------------------------------------------
# 12. Maximal cells between transitive tournaments are staircases
# ---------------------------------------------------------------------------


def test_c12_staircase_maximal_cells():
    cells = staircase_cells(2, 4)
    assert sorted(c.blocks for c in cells) == [
        ((0,), (1, 2, 3)),
        ((0, 1), (2, 3)),
        ((0, 1, 2), (3,)),
    ]
    assert len(staircase_cells(3, 5)) == 6

    for m in range(2, 7):
        for n in range(m, 7):
            cells = staircase_cells(m, n)
            assert all(c.is_staircase for c in cells)
            assert len(cells) == math.comb(n - 1, m - 1)
            p = hom_poset(transitive_tournament(m), transitive_tournament(n))
            assert p.euler_characteristic() == 1


# ---------------------------------------------------------------------------
# 13. A disjoint union of sources gives the product of the hom complexes
# ---------------------------------------------------------------------------


def check_split(g: Digraph, h: Digraph, cap: int) -> None:
    """``dihom hom`` of ``(g, h)`` and :func:`homology_of_poset`, both
    read off the weak components of ``g``, against the whole poset; and
    :func:`diameter` against a search on the whole one-skeleton."""
    code, out, err = dihom_output("hom", [g, h], cap=cap)
    try:
        expected = unsplit_hom(g, h, cap)
    except SizeCapExceeded as e:
        assert (code, err) == (1, f"error: {e}\n")
        return
    assert code == 0 and json.loads(out) == expected
    p = hom_poset(g, h, cap)
    assert homology_of_poset(p) == unsplit_homology(p)
    if len(p.minimal_cells()) <= 200:
        assert split_diameter(g, h) == unsplit_diameter(g, h)


def test_c13_split_sources_match_the_unsplit_route():
    # Every source of two or more weak components in the catalogues; the
    # DAGs also into T_2 .. T_5 under morse, up to 20,000 cells.
    looped = Digraph(3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2)])
    targets = [transitive_tournament(3), directed_cycle(3), pentagon_tournament(), looped]
    checked = {"loopy": 0, "oriented": 0, "dag": 0, "morse": 0}
    for g in [g for n in range(2, 4) for g in loopy_classes(n)]:
        if len(g.weak_components()) > 1:
            for h in targets:
                check_split(g, h, 20_000)
            checked["loopy"] += 1
    for g in [g for n in range(2, 5) for g in oriented_classes(n)]:
        if len(g.weak_components()) > 1:
            for h in targets:
                check_split(g, h, 20_000)
            checked["oriented"] += 1
    for g in [g for n in range(2, 6) for g in dag_classes(n)]:
        if len(g.weak_components()) < 2:
            continue
        checked["dag"] += 1
        for n in range(2, 6):
            if not has_homomorphism(g, transitive_tournament(n)):
                continue
            try:
                expected = unsplit_morse(g, n, 20_000)
            except SizeCapExceeded:
                continue
            code, out, _ = dihom_output("morse", [g], [n], cap=20_000)
            assert code == 0 and json.loads(out) == expected
            check_split(g, transitive_tournament(n), 20_000)
            checked["morse"] += 1
    assert checked == {"loopy": 21, "oriented": 11, "dag": 45, "morse": 129}
