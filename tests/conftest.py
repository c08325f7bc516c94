"""Shared helpers for the test suite.

Random-instance generators all take an explicit ``random.Random`` so every
test that samples is reproducible from its own seed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import example
from hypothesis import strategies as st

from dihom import (
    Digraph,
    Disconnected,
    EmptyHom,
    MultiHom,
    SimplicialComplex,
    VertexMap,
    canonical_key,
    diameter,
    hom_one_skeleton,
    hom_poset,
    is_acyclic_matching,
    is_multihom,
    tournament_matching,
    transitive_tournament,
)
from dihom.cli import _HOMOLOGY_CELL_LIMIT, _homology_json, emit_digraph, run
from dihom.homology import _homology, _morse_chains

DATA_DIR = Path(__file__).parent / "data"


def brute_force_homs(g: Digraph, h: Digraph) -> list[VertexMap]:
    """Every homomorphism g -> h, found by trying all |H|^|G| vertex maps.

    Deliberately naive; serves as the oracle for the backtracking search.
    """
    found = []
    for image in itertools.product(range(h.n), repeat=g.n):
        if all(h.has_edge(image[u], image[v]) for (u, v) in g.edges):
            found.append(VertexMap(image))
    return found


def brute_force_cells(g: Digraph, h: Digraph) -> list[tuple[int, ...]]:
    """Mask tuples of every multihomomorphism, in lexicographic order, found
    by trying all assignments of nonempty target sets."""
    return [
        masks
        for masks in itertools.product(range(1, 1 << h.n), repeat=g.n)
        if is_multihom(MultiHom._from_masks(masks), g, h)
    ]


def digraphs(max_n: int) -> st.SearchStrategy[Digraph]:
    """Digraphs on 0 .. max_n vertices with arbitrary arcs, loops included."""
    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda n: st.builds(
            Digraph,
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n * n)
            if n
            else st.just([]),
        )
    )


@st.composite
def relabelled_digraphs(draw, max_n: int) -> Digraph:
    """Digraphs on 0 .. max_n vertices under a drawn permutation, so arcs
    point back to lower labels as often as forward."""
    g = draw(digraphs(max_n))
    return relabel(g, draw(st.permutations(range(g.n))))


@st.composite
def complexes(draw, max_vertices: int = 7) -> SimplicialComplex:
    """Random complexes whose vertex order differs from label order."""
    labels = draw(st.permutations(range(draw(st.integers(0, max_vertices)))))
    face = st.frozensets(st.sampled_from(labels)) if labels else st.just(frozenset())
    return SimplicialComplex(labels, draw(st.lists(face, max_size=6)))


def edge_cases(test):
    """Pin source/target pairs that random draws may miss: loops on both
    sides, a 0-vertex source, an edgeless target, two edgeless graphs."""
    for pair in (
        (
            Digraph(2, [(0, 0), (0, 1)]),
            Digraph(3, [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 2)]),
        ),
        (Digraph(0), Digraph(2, [(0, 1), (1, 1)])),
        (Digraph(2, [(0, 1)]), Digraph(3)),
        (Digraph(2), Digraph(2)),
    ):
        test = example(*pair)(test)
    return test


def back_pointing(test):
    """Pin sources whose search order differs from label order, so their
    cells are found out of order: a vertex left isolated between two
    joined ones, and a reversed path."""
    for pair in (
        (Digraph(3, [(0, 2)]), Digraph(2, [(0, 0), (0, 1)])),
        (
            Digraph(4, [(3, 2), (2, 1), (1, 0)]),
            Digraph(3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)]),
        ),
    ):
        test = example(*pair)(test)
    return test


def random_digraph(rng: random.Random, n: int, p: float = 0.4, loops: bool = True) -> Digraph:
    edges = []
    for u in range(n):
        for v in range(n):
            if u == v and not loops:
                continue
            if rng.random() < p:
                edges.append((u, v))
    return Digraph(n, edges)


def random_oriented(rng: random.Random, n: int, p: float = 0.6) -> Digraph:
    """Loopless digraph with at most one edge per unordered pair."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            r = rng.random()
            if r < p / 2:
                edges.append((u, v))
            elif r < p:
                edges.append((v, u))
    return Digraph(n, edges)


def random_dag(rng: random.Random, n: int, p: float = 0.5) -> Digraph:
    """Random acyclic digraph; edges only go from lower to higher labels."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Digraph(n, edges)


def random_tournament(rng: random.Random, n: int) -> Digraph:
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            edges.append((u, v) if rng.random() < 0.5 else (v, u))
    return Digraph(n, edges)


# ---------------------------------------------------------------------------
# Catalogues of small digraphs up to isomorphism, swept by the acceptance
# checks and the CLI tests.
# ---------------------------------------------------------------------------


def iso_classes(n: int, pair_states: int, edges_of) -> list[Digraph]:
    """Enumerate digraphs on ``n`` vertices up to isomorphism.

    ``edges_of(mask)`` decodes a base-``pair_states`` mask over the
    unordered vertex pairs (or the full vertex grid) into an edge list.
    """
    reps: dict = {}
    for mask in range(pair_states):
        g = Digraph(n, edges_of(mask))
        reps.setdefault(canonical_key(g), g)
    return [reps[k] for k in sorted(reps)]


def dag_classes(n: int) -> list[Digraph]:
    """All acyclic digraphs on ``n`` vertices up to isomorphism.

    Every DAG relabels to one whose edges go up a fixed linear order, so
    ranging over subsets of the upper triangle hits every class.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return iso_classes(
        n,
        2 ** len(pairs),
        lambda mask: [pairs[i] for i in range(len(pairs)) if mask >> i & 1],
    )


def oriented_classes(n: int) -> list[Digraph]:
    """All loopless digon-free digraphs on ``n`` vertices up to iso."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    reps: dict = {}

    def rec(i: int, edges: list[tuple[int, int]]) -> None:
        if i == len(pairs):
            g = Digraph(n, edges)
            reps.setdefault(canonical_key(g), g)
            return
        u, v = pairs[i]
        rec(i + 1, edges)
        rec(i + 1, edges + [(u, v)])
        rec(i + 1, edges + [(v, u)])

    rec(0, [])
    return [reps[k] for k in sorted(reps)]


def loopy_classes(n: int) -> list[Digraph]:
    """All digraphs on ``n`` vertices (loops allowed) up to isomorphism."""
    grid = [(u, v) for u in range(n) for v in range(n)]
    return iso_classes(
        n,
        2 ** len(grid),
        lambda mask: [grid[i] for i in range(len(grid)) if mask >> i & 1],
    )


def circulant(n: int, shifts: tuple[int, ...]) -> Digraph:
    return Digraph(n, [(i, (i + s) % n) for i in range(n) for s in shifts])


def relabel(g: Digraph, perm: list[int]) -> Digraph:
    """Copy of g with vertex v renamed perm[v]."""
    return Digraph(g.n, [(perm[u], perm[v]) for (u, v) in g.edges])


# The two tournaments whose hom complexes from the directed triangle are a
# 15-gon and a Moebius strip.  Both are rotational: i beats i+s (mod n).
def pentagon_tournament() -> Digraph:
    return circulant(5, (3, 4))


def heptagon_tournament() -> Digraph:
    return circulant(7, (4, 5, 6))


# Five-vertex digraph used to exercise the neighborhood complexes by hand;
# its out-complex has facets {0,1,3} and {0,2,3}, its in-complex has facets
# {2,3,4}, {0,2} and {1,2,4}.
def nbd_example_digraph() -> Digraph:
    return Digraph(
        5,
        [(0, 1), (2, 0), (2, 1), (3, 0), (2, 3), (4, 0), (4, 2), (4, 3), (1, 3)],
    )


# ---------------------------------------------------------------------------
# The unsplit route: answers read off the whole hom poset of a source, the
# oracle for the answers read off its weak components.
# ---------------------------------------------------------------------------


def dihom_output(command: str, graphs: list[Digraph], args=(), cap: int = 10**6):
    """Exit code, stdout and stderr of ``dihom --cap cap command`` on the
    ``graphs`` written to files, then ``args``."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, g in enumerate(graphs):
            path = Path(tmp, f"g{i}.json")
            path.write_text(emit_digraph(g), encoding="utf-8")
            paths.append(str(path))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["--cap", str(cap), command, *paths, *map(str, args)])
    return code, out.getvalue(), err.getvalue()


def unsplit_homology(p):
    """The homology of a hom poset from the chains of all its cells."""
    return _homology(*_morse_chains(p._packed, p.source.n, p._width))


def unsplit_hom(g: Digraph, h: Digraph, cap: int) -> dict:
    """What ``dihom hom`` prints for ``(g, h)``, read off the whole poset."""
    p = hom_poset(g, h, cap)
    census = p.dimension_census()
    homology = None
    if 0 < len(p) <= _HOMOLOGY_CELL_LIMIT:
        homology = _homology_json(unsplit_homology(p))
    return {
        "cells": len(p),
        "dimension_census": [[d, c] for d, c in sorted(census.items())],
        "euler_characteristic": sum((-1) ** d * c for d, c in census.items()),
        "homomorphisms": census.get(0, 0),
        "connected": p.is_connected(),
        "homology": homology,
    }


def unsplit_morse(g: Digraph, n: int, cap: int) -> dict:
    """What ``dihom morse`` prints for ``(g, n)``, read off the whole
    poset and its tournament matching."""
    p = hom_poset(g, transitive_tournament(n), cap)
    m = tournament_matching(g, n, poset=p)
    return {
        "cells": len(p),
        "pairs": len(m.pairs),
        "critical": [[sorted(s) for s in c.assignments] for c in m.critical],
        "acyclic": is_acyclic_matching(p, m),
    }


def unsplit_diameter(g: Digraph, h: Digraph):
    """The diameter of the whole one-skeleton by a search from every map,
    or the class of the error :func:`diameter` raises."""
    sk = hom_one_skeleton(g, h)
    if not len(sk):
        return EmptyHom
    if not sk.is_connected():
        return Disconnected
    return max(max(sk.bfs_distances(i)) for i in range(len(sk)))


def split_diameter(g: Digraph, h: Digraph):
    """:func:`diameter`, or the class of the error it raises."""
    try:
        return diameter(g, h)
    except (EmptyHom, Disconnected) as e:
        return type(e)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xD16)
