from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dihom.homology
from dihom import (
    ChainComplex,
    Digraph,
    HomologyGroups,
    HomPoset,
    SimplicialComplex,
    SizeCapExceeded,
    directed_cycle,
    empty_complex,
    face_poset,
    full_simplex,
    hom_poset,
    homology_of_poset,
    is_n_leray,
    order_complex,
    out_neighborhood_complex,
    reduced_homology,
    simplex_boundary,
    smith_normal_form,
    sphere_homology,
    sphere_tournament,
    void_complex,
)
from dihom.homology import _cellular_chains, _homology

from conftest import digraphs, edge_cases, pentagon_tournament, random_digraph


def invariant_factors_via_minors(matrix: list[list[int]]) -> tuple[int, ...]:
    """Invariant factors of an integer matrix from gcds of k x k minors.

    The k-th determinantal divisor d_k is the gcd of all k x k minors, and
    the k-th invariant factor is d_k / d_{k-1}.  Hopeless for big matrices,
    perfect as an oracle for small random ones.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0

    def minor(rs, cs):
        sub = [[matrix[r][c] for c in cs] for r in rs]
        k = len(rs)
        if k == 0:
            return 1
        total = 0
        for perm in itertools.permutations(range(k)):
            sign = 1
            seen = list(perm)
            for i in range(k):
                for j in range(i + 1, k):
                    if seen[i] > seen[j]:
                        sign = -sign
            term = sign
            for i in range(k):
                term *= sub[i][perm[i]]
            total += term
        return total

    factors = []
    previous = 1
    for k in range(1, min(rows, cols) + 1):
        d = 0
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                d = math.gcd(d, minor(rs, cs))
        if d == 0:
            break
        factors.append(d // previous)
        previous = d
    return tuple(factors)


def reference_homology(x: SimplicialComplex) -> HomologyGroups:
    """Reduced homology from simplicial chains built the textbook way.

    Faces are position-sorted tuples from ``itertools.combinations`` over
    each facet; dropping the ``i``-th vertex has sign ``(-1)^i``.  Shares
    only the Smith normal form with the library, so it is the oracle for
    the library's one chain builder.
    """
    if x.is_void:
        return HomologyGroups()
    pos = {v: i for i, v in enumerate(x.vertices)}
    faces: set[tuple] = set()
    for f in x.facets:
        ordered = sorted(f, key=pos.__getitem__)
        for k in range(len(ordered) + 1):
            faces.update(itertools.combinations(ordered, k))
    index: dict[int, dict[tuple, int]] = {}
    for f in faces:
        level = index.setdefault(len(f) - 1, {})
        level[f] = len(level)
    boundaries: dict[int, dict[int, dict[int, int]]] = {}
    for d, level in index.items():
        if d < 0:
            continue
        rows = boundaries[d] = {}
        for f, j in level.items():
            for i in range(len(f)):
                rows.setdefault(index[d - 1][f[:i] + f[i + 1:]], {})[j] = (-1) ** i
    return _homology({d: len(level) for d, level in index.items()}, boundaries)


def reference_leray_failures(x: SimplicialComplex) -> list[tuple[frozenset, list[int]]]:
    """Each face in ``(dimension, face key)`` order with the degrees where
    the homology of its link (built by ``x.link``) is nonzero."""
    order = sorted(x.faces(), key=lambda f: (len(f), x.face_key(f)))
    return [(f, reference_homology(x.link(f)).degrees()) for f in order]


@st.composite
def complexes(draw, max_vertices: int = 7) -> SimplicialComplex:
    """Random complexes whose vertex order differs from label order."""
    labels = draw(st.permutations(range(draw(st.integers(0, max_vertices)))))
    face = st.frozensets(st.sampled_from(labels)) if labels else st.just(frozenset())
    return SimplicialComplex(labels, draw(st.lists(face, max_size=6)))


small_matrices = st.integers(1, 3).flatmap(
    lambda r: st.integers(1, 3).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


class TestSmithNormalForm:
    def test_known_matrix(self):
        factors, rank = smith_normal_form([[2, 4], [6, 8]])
        assert factors == (2, 4)
        assert rank == 2

    def test_identity(self):
        assert smith_normal_form([[1, 0], [0, 1]]) == ((1, 1), 2)

    def test_zero_matrix(self):
        assert smith_normal_form([[0, 0], [0, 0]]) == ((), 0)

    def test_divisibility_chain(self):
        factors, _ = smith_normal_form([[6, 0, 0], [0, 10, 0], [0, 0, 15]])
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0

    @settings(max_examples=80, deadline=None)
    @given(small_matrices)
    def test_matches_minor_gcd_oracle(self, matrix):
        factors, rank = smith_normal_form(matrix)
        assert factors == invariant_factors_via_minors(matrix)
        assert rank == len(factors)

    # Small entries make repeated pivots, zero columns and torsion common.
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda r: st.integers(1, 5).flatmap(
                lambda c: st.lists(
                    st.lists(st.integers(-6, 6), min_size=c, max_size=c),
                    min_size=r,
                    max_size=r,
                )
            )
        )
    )
    def test_matches_minor_gcd_oracle_up_to_5x5(self, matrix):
        factors, rank = smith_normal_form(matrix)
        assert factors == invariant_factors_via_minors(matrix)
        assert rank == len(factors)


class TestHomologyGroups:
    def test_accessors(self):
        h = HomologyGroups({0: 2, 1: 1}, {1: (2,)})
        assert h.rank(0) == 2
        assert h.rank(5) == 0
        assert h.torsion(1) == (2,)
        assert not h.is_trivial
        assert sorted(h.degrees()) == [0, 1]

    def test_trivial_and_shift(self):
        assert HomologyGroups({}, {}).is_trivial
        h = HomologyGroups({1: 1}, {})
        assert h.shifted(1) == HomologyGroups({2: 1}, {})
        assert h.is_trivial_from(2)
        assert not h.is_trivial_from(1)

    def test_normalization_drops_zero_entries(self):
        assert HomologyGroups({0: 0, 1: 1}, {2: ()}) == HomologyGroups({1: 1}, {})

    def test_sphere_homology_helper(self):
        assert sphere_homology(2) == HomologyGroups({2: 1}, {})


class TestReducedHomology:
    def test_point_is_trivial(self):
        assert reduced_homology(full_simplex(0)).is_trivial

    def test_contractible_simplex(self):
        assert reduced_homology(full_simplex(3)).is_trivial

    def test_two_points(self):
        x = SimplicialComplex([0, 1], [[0], [1]])
        assert reduced_homology(x) == HomologyGroups({0: 1}, {})

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sphere_from_simplex_boundary(self, n):
        assert reduced_homology(simplex_boundary(n + 1)) == sphere_homology(n)

    def test_empty_complex_has_degree_minus_one(self):
        h = reduced_homology(empty_complex())
        assert h == HomologyGroups({-1: 1}, {})

    def test_void_complex_is_trivial(self):
        assert reduced_homology(void_complex()).is_trivial

    def test_projective_plane_torsion(self):
        # The 6-vertex triangulation of the real projective plane.
        facets = [
            (1, 2, 3), (1, 3, 4), (1, 2, 6), (1, 4, 5), (1, 5, 6),
            (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
        ]
        x = SimplicialComplex(range(1, 7), facets)
        h = reduced_homology(x)
        assert h.rank(1) == 0 and h.rank(2) == 0
        assert h.torsion(1) == (2,)

    def test_disjoint_circles(self):
        faces = [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]]
        x = SimplicialComplex(range(6), faces)
        assert reduced_homology(x) == HomologyGroups({0: 1, 1: 2}, {})

    @settings(max_examples=200, deadline=None)
    @given(complexes())
    @example(void_complex())
    @example(empty_complex())
    @example(full_simplex(0))
    @example(SimplicialComplex(range(1, 7), [
        (1, 2, 3), (1, 3, 4), (1, 2, 6), (1, 4, 5), (1, 5, 6),
        (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
    ]))
    def test_homology_and_leray_match_reference(self, x):
        assert reduced_homology(x) == reference_homology(x)
        failures = reference_leray_failures(x)
        for n in range(4):
            cert = is_n_leray(x, n)
            witness = next(
                ((f, d) for f, degrees in failures for d in degrees if d >= n), None
            )
            assert cert.holds == (witness is None)
            if witness is not None:
                assert (cert.witness_face, cert.witness_degree) == witness


def assert_boundary_squares_to_zero(cc: ChainComplex) -> None:
    assert_squares_to_zero({d: cc.boundary_sparse(d) for d in cc.dimensions()})


def assert_squares_to_zero(boundaries: dict[int, dict[int, dict[int, int]]]) -> None:
    for d, upper in boundaries.items():  # rows: (d-1)-cells, columns: d-cells
        product: dict[tuple[int, int], int] = {}
        for r2, row in boundaries.get(d - 1, {}).items():
            for r, s2 in row.items():
                for j, s in upper.get(r, {}).items():
                    product[r2, j] = product.get((r2, j), 0) + s2 * s
        assert not any(product.values()), f"boundary of boundary nonzero in degree {d}"


class TestChainComplex:
    def test_boundary_matrix_shapes(self):
        cc = ChainComplex(simplex_boundary(2))
        d1 = cc.boundary_matrix(1)
        assert len(d1) == 3 and len(d1[0]) == 3
        # each edge has boundary with entries +1 and -1
        for col in range(3):
            entries = sorted(d1[row][col] for row in range(3))
            assert entries == [-1, 0, 1]

    def test_faces_in_packed_order_and_fresh_boundaries(self):
        x = SimplicialComplex("abc", ["ab", "bc", "ac"])
        cc = ChainComplex(x)
        fs = frozenset
        assert cc.faces == {
            -1: [fs()],
            0: [fs("a"), fs("b"), fs("c")],
            1: [fs("ab"), fs("ac"), fs("bc")],
        }
        assert cc.dimensions() == [-1, 0, 1]
        assert [cc.rank(d) for d in (-2, -1, 0, 1, 2)] == [0, 1, 3, 3, 0]
        cc.boundary_sparse(1).clear()
        assert sum(map(len, cc.boundary_sparse(1).values())) == 6
        assert ChainComplex(void_complex()).dimensions() == []

    def test_one_block_signs_are_by_position(self):
        cc = ChainComplex(full_simplex(2))
        assert cc.boundary_matrix(1) == [[-1, -1, 0], [1, 0, -1], [0, 1, 1]]
        assert cc.boundary_matrix(2) == [[1], [-1], [1]]

    def test_boundary_squares_to_zero(self):
        cc = ChainComplex(full_simplex(3))
        d2 = cc.boundary_matrix(2)
        d1 = cc.boundary_matrix(1)
        rows = len(d1)
        cols = len(d2[0])
        inner = len(d2)
        for i in range(rows):
            for j in range(cols):
                assert sum(d1[i][k] * d2[k][j] for k in range(inner)) == 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_boundary_squares_to_zero_on_small_hom_posets(self, seed):
        rng = random.Random(seed)
        p = hom_poset(random_digraph(rng, 2, 0.5), random_digraph(rng, 4, 0.5))
        if len(p) > 40:
            return
        assert_boundary_squares_to_zero(ChainComplex(order_complex(p.as_poset())))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_boundary_squares_to_zero_on_out_neighborhood_complexes(self, seed):
        g = random_digraph(random.Random(seed), 6, 0.45)
        assert_boundary_squares_to_zero(ChainComplex(out_neighborhood_complex(g)))


class TestCellularHomology:
    """A hom poset's homology comes from the cellular chains of the hom
    complex; the order complex of the same poset, through the reference
    simplicial chains, is the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(digraphs(3), digraphs(4))
    @edge_cases
    @example(directed_cycle(3), pentagon_tournament())
    @example(Digraph(2, [(0, 1)]), Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]))
    def test_matches_order_complex(self, g, h):
        try:
            p = hom_poset(g, h, cap=120)
            oracle = reference_homology(order_complex(p.as_poset(), cap=4000))
        except SizeCapExceeded:
            return
        assert homology_of_poset(p) == oracle

    @settings(max_examples=150, deadline=None)
    @given(digraphs(3), digraphs(4))
    @edge_cases
    def test_boundary_squares_to_zero(self, g, h):
        try:
            p = hom_poset(g, h, cap=2000)
        except SizeCapExceeded:
            return
        ranks, boundaries = _cellular_chains(p._packed, g.n, max(h.n, 1))
        assert ranks == {-1: 1, **p.dimension_census()}
        assert_squares_to_zero(boundaries)
        # An incidence function: one entry of ±1 per face of each cell.
        entries = [s for b in boundaries.values() for row in b.values() for s in row.values()]
        assert set(entries) <= {-1, 1}
        assert len(entries) == len(p.covering_index_pairs()) + ranks.get(0, 0)

    def test_builds_no_covers_and_no_order_complex(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("order-complex route taken")

        monkeypatch.setattr(HomPoset, "covering_index_pairs", fail)
        monkeypatch.setattr(HomPoset, "as_poset", fail)
        monkeypatch.setattr(dihom.homology, "order_complex", fail)
        p = hom_poset(Digraph(2, [(0, 1)]), pentagon_tournament())
        assert homology_of_poset(p) == sphere_homology(1)


class TestPosetHomology:
    def test_face_poset_of_sphere(self):
        p = face_poset(simplex_boundary(2))
        assert homology_of_poset(p) == sphere_homology(1)

    def test_chain_poset_is_contractible(self):
        from dihom import Poset

        chain = Poset.from_covers(range(3), [(0, 1), (1, 2)])
        assert homology_of_poset(chain).is_trivial


class TestLeray:
    def test_full_simplex_is_0_leray(self):
        assert bool(is_n_leray(full_simplex(2), 0))

    def test_sphere_boundary(self):
        x = simplex_boundary(2)
        assert not is_n_leray(x, 0)
        assert not is_n_leray(x, 1)
        assert bool(is_n_leray(x, 2))

    def test_witness_points_at_offending_link(self):
        cert = is_n_leray(simplex_boundary(2), 1)
        assert cert.witness_face == frozenset()
        assert cert.witness_degree == 1

    def test_two_triangles_sharing_a_vertex(self):
        # the link of the shared vertex is two disjoint edges
        x = SimplicialComplex(range(5), [[0, 1, 2], [0, 3, 4]])
        assert bool(is_n_leray(x, 1))
        assert not is_n_leray(x, 0)

    def test_builds_no_link_and_no_chain_complex(self, monkeypatch):
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(SimplicialComplex, "link", counting("link", SimplicialComplex.link))
        monkeypatch.setattr(dihom.homology, "ChainComplex", counting("ChainComplex", ChainComplex))
        x = out_neighborhood_complex(sphere_tournament(2))
        # n = 3 holds, so every face's link is examined.
        assert bool(is_n_leray(x, 3))
        assert calls == []

    def test_circle_complex(self):
        from dihom import out_neighborhood_complex, sphere_tournament

        x = out_neighborhood_complex(sphere_tournament(1))
        assert not is_n_leray(x, 1)
        assert bool(is_n_leray(x, 2))
