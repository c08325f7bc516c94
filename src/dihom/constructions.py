"""Standard digraph families, Mycielski-type constructions and
isomorphism utilities.

All constructors return :class:`~dihom.digraph.Digraph` objects on dense
labels.  The enumeration of tournaments works up to isomorphism and is
deterministic: representatives are canonical forms, emitted in increasing
canonical-key order.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import Iterable, Sequence

from .digraph import Digraph, _bits, _check_vertex_count
from .errors import InvalidRange, InvalidSize, InvalidVariant, SizeCapExceeded


@lru_cache(maxsize=None, typed=True)
def transitive_tournament(n: int) -> Digraph:
    """The transitive tournament: edge ``(i, j)`` for every ``i < j``.

    A :class:`Digraph` is immutable, so equal ``n`` gives the same object;
    at most 64 are ever kept.  A call that raises keeps nothing, and
    ``typed`` keeps ``5``, ``5.0`` and ``True`` apart, so every call
    answers as the function body would."""
    if n < 1:
        raise InvalidSize(f"transitive tournament needs n >= 1, got {n}")
    _check_vertex_count(n)
    return Digraph(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def directed_path(n: int) -> Digraph:
    """The directed path on ``n`` vertices ``0 -> 1 -> ... -> n-1``."""
    if n < 1:
        raise InvalidSize(f"directed path needs n >= 1, got {n}")
    return Digraph(n, ((i, i + 1) for i in range(n - 1)))


def directed_cycle(n: int) -> Digraph:
    """The directed cycle ``0 -> 1 -> ... -> n-1 -> 0`` (``n >= 3``)."""
    if n < 3:
        raise InvalidSize(f"directed cycle needs n >= 3, got {n}")
    return Digraph(n, ((i, (i + 1) % n) for i in range(n)))


def interval_bidirected(n: int) -> Digraph:
    """Fully looped path on ``n + 1`` vertices with both directions of
    every consecutive edge: the reflexive "interval" used for homotopies
    that may move back and forth."""
    if n < 0:
        raise InvalidSize(f"interval length must be non-negative, got {n}")
    loops = ((i, i) for i in range(n + 1))
    forward = ((i, i + 1) for i in range(n))
    backward = ((i + 1, i) for i in range(n))
    return Digraph(n + 1, chain(loops, forward, backward))


def interval_directed_looped(n: int) -> Digraph:
    """Fully looped path on ``n + 1`` vertices with forward edges only."""
    if n < 0:
        raise InvalidSize(f"interval length must be non-negative, got {n}")
    loops = ((i, i) for i in range(n + 1))
    return Digraph(n + 1, chain(loops, ((i, i + 1) for i in range(n))))


def line_digraph(n: int, orientation: Sequence[int]) -> Digraph:
    """Fully looped path on ``n + 1`` vertices with one edge per
    consecutive pair, oriented by ``orientation``.

    ``orientation[i]`` truthy gives ``i -> i+1``; falsy gives ``i+1 -> i``.
    For example ``line_digraph(3, [1, 0, 0])`` has edges
    ``0 -> 1``, ``2 -> 1``, ``3 -> 2`` besides the loops.
    """
    if n < 0:
        raise InvalidSize(f"interval length must be non-negative, got {n}")
    if len(orientation) != n:
        raise InvalidSize(
            f"orientation must have exactly {n} entries, got {len(orientation)}"
        )
    loops = ((i, i) for i in range(n + 1))
    steps = ((i, i + 1) if bit else (i + 1, i) for i, bit in enumerate(orientation))
    return Digraph(n + 1, chain(loops, steps))


def complete_bipartite_digraph(m: int, n: int) -> Digraph:
    """All ``m * n`` edges from ``{0..m-1}`` to ``{m..m+n-1}``."""
    if m < 1 or n < 1:
        raise InvalidSize(f"both sides must be nonempty, got ({m}, {n})")
    return Digraph(m + n, ((i, m + j) for i in range(m) for j in range(n)))


# ---------------------------------------------------------------------------
# Mycielski-type constructions
# ---------------------------------------------------------------------------

# The three looped interval templates the constructions quotient against.
# Layer 0 of the product is the base copy for variants 1 and 2; variant 3
# keeps layer 1 and collapses both outer layers.
_INTERVALS = {
    1: Digraph(3, [(0, 0), (0, 1), (1, 2)]),
    2: Digraph(3, [(0, 0), (1, 0), (2, 1)]),
    3: Digraph(3, [(1, 1), (0, 1), (1, 2)]),
}


def mycielskian(g: Digraph, variant: int) -> Digraph:
    """Directed Mycielskian of ``g``.

    All three variants are quotients of the product of ``g`` with a looped
    three-vertex interval; they differ in the interval's orientation and in
    which layers get collapsed to a point.

    * ``variant=1`` and ``variant=2``: ``2 * g.n + 1`` vertices.  Labels
      ``0..n-1`` are the base copy of ``g``, ``n..2n-1`` the twin copy,
      ``2n`` the apex obtained by collapsing the outer layer.
    * ``variant=3``: ``g.n + 2`` vertices.  Labels ``0..n-1`` are the base
      copy, ``n`` and ``n+1`` the two apexes obtained by collapsing each
      outer layer.
    """
    if variant not in _INTERVALS:
        raise InvalidVariant(f"variant must be 1, 2 or 3, got {variant!r}")
    if g.n == 0:
        raise InvalidSize("mycielskian needs a nonempty digraph")
    # The quotient's edges come straight from the arcs of ``g`` and the
    # interval, so the 3n-vertex product is never formed.  ``layers[k][v]``
    # is the class of vertex ``v`` in layer ``k``: a copy of ``g``'s labels,
    # or one apex for the whole layer.
    n = g.n
    if variant in (1, 2):
        size, layers = 2 * n + 1, (range(n), range(n, 2 * n), [2 * n] * n)
    else:
        size, layers = n + 2, ([n] * n, range(n), [n + 1] * n)
    arcs = _INTERVALS[variant].edges
    edges = ((layers[b][u], layers[d][v]) for u, v in g.edges for b, d in arcs)
    return Digraph(size, edges)


# ---------------------------------------------------------------------------
# Sphere tournaments
# ---------------------------------------------------------------------------


def sphere_tournament(n: int) -> Digraph:
    """A tournament on ``2n + 3`` vertices whose out-neighborhood complex
    is a triangulated ``n``-sphere.

    The ``n = 1`` instance is a fixed 5-vertex tournament; for ``n >= 2``
    the out-neighborhoods follow a uniform pattern.  Vertices are labeled
    ``0 .. 2n+2``.
    """
    if n < 1:
        raise InvalidSize(f"sphere tournament needs n >= 1, got {n}")
    _check_vertex_count(2 * n + 3)
    if n == 1:
        outs = {0: {3}, 1: {0, 4}, 2: {0, 1}, 3: {1, 2}, 4: {0, 2, 3}}
    else:
        # Stated 1-indexed on [2n+3], shifted down by one.  The set
        # difference below is intentionally vacuous when i - n - 2 < 1.
        outs = {}
        size = 2 * n + 3
        outs[0] = {n + 2}
        for i in range(2, n + 2):  # 2 <= i <= n+1
            outs[i - 1] = set(range(i - 1)) | {n + 1 + i}
        for i in range(n + 2, size + 1):  # n+2 <= i <= 2n+3
            outs[i - 1] = set(range(i - 1)) - {i - n - 3}
    edges = ((v, w) for v, targets in outs.items() for w in targets)
    return Digraph(max(outs) + 1, edges)


# ---------------------------------------------------------------------------
# Canonical forms and isomorphism
# ---------------------------------------------------------------------------


def _least_orderings(g: Digraph) -> tuple[int, int]:
    """The canonical key of ``g`` (see :func:`canonical_key`) and the
    number of vertex orderings that reveal it.

    Two orderings reveal the same bit string exactly when they differ by
    an automorphism, so the orderings that reveal the key form one coset
    of the automorphism group and their number is its order.
    """
    n = g.n
    out = g._out
    width = 2 * n
    full = (1 << width) - 1
    field = [full << width * w for w in range(n)]
    loop = [out[v] >> v & 1 for v in range(n)]
    # inout[v] holds, in field w, the two bits that placing v reveals
    # about w: the arc w -> v, then the arc v -> w.
    inout = [
        sum(((out[w] >> v & 1) << 1 | out[v] >> w & 1) << width * w for w in range(n))
        for v in range(n)
    ]
    # A state is ``(rem, prof)``: ``rem`` is the union of the fields of the
    # unplaced vertices, and field w of ``prof`` holds the 2k bits unplaced
    # w would reveal against the k placed vertices (0 for a placed vertex).
    # Placing v updates every profile at once.  Only states whose prefix is
    # least are kept, each with the number of orderings reaching it; equal
    # states have equal completions, so merging them adds their counts.
    states = {((1 << width * n) - 1, 0): 1}
    key = 0
    for k in range(n):
        best = 2 << 2 * k  # above every (2k + 1)-bit segment
        found: dict[tuple[int, int], int] = {}
        for (rem, prof), count in states.items():
            todo = rem
            while todo:
                v = (todo & -todo).bit_length() // width
                todo ^= field[v]
                seg = loop[v] << 2 * k | prof >> width * v & full
                if seg > best:
                    continue
                if seg < best:
                    best, found = seg, {}
                rest = rem ^ field[v]
                state = (rest, (prof << 2 | inout[v]) & rest)
                found[state] = found.get(state, 0) + count
        key = key << 2 * k + 1 | best
        states = found
    return key, sum(states.values())


def canonical_key(g: Digraph) -> int:
    """A complete isomorphism invariant: the lexicographically smallest
    adjacency bit string over all vertex orderings.

    Bits are revealed by growing the leading principal submatrix: placing
    a vertex contributes its loop bit followed by its adjacency with each
    previously placed vertex (both directions).  The result is packed into
    an integer, most significant bit first (``n * n`` bits total).
    """
    return _least_orderings(g)[0]


def digraph_from_key(n: int, key: int) -> Digraph:
    """Rebuild the digraph encoded by a canonical key (inverse of the
    packing used in :func:`canonical_key`).  Raises
    :class:`SizeCapExceeded` for ``n > 64``, before it reads ``key``, and
    :class:`InvalidRange` unless ``0 <= key < 2 ** (n * n)``."""
    _check_vertex_count(n)
    if not 0 <= key < 1 << n * n:
        raise InvalidRange(f"key {key} does not fit in {n * n} adjacency bits")
    slots = []
    for k in range(n):
        slots.append((k, k))
        for p in range(k):
            slots += [(k, p), (p, k)]
    # The last slot is the least significant bit.
    return Digraph(n, (arc for i, arc in enumerate(reversed(slots)) if key >> i & 1))


def canonical_form(g: Digraph) -> Digraph:
    """A canonical representative of the isomorphism class of ``g``."""
    return digraph_from_key(g.n, canonical_key(g))


def is_isomorphic(g: Digraph, h: Digraph) -> bool:
    """Digraph isomorphism via canonical forms.

    The cost is that of two :func:`canonical_key` calls.  Measured on
    CPython 3.11 (one core of a shared Xeon host; median and worst of 15
    random digraphs), a key takes about 0.3 ms (at most 0.4 ms) on a
    12-vertex digraph with arc density 0.5 or 0.9, but about 3 ms (at
    most 30 ms) on a sparse (density 0.1) 10-vertex one and 30 ms (at
    most 0.13 s) on a sparse 12-vertex one, where many orderings tie for
    long.
    """
    if g.n != h.n or len(g.edges) != len(h.edges):
        return False
    prof_g = sorted((g.out_degree(v), g.in_degree(v), g.has_loop(v)) for v in range(g.n))
    prof_h = sorted((h.out_degree(v), h.in_degree(v), h.has_loop(v)) for v in range(h.n))
    if prof_g != prof_h:
        return False
    return canonical_key(g) == canonical_key(h)


def automorphism_group_order(g: Digraph) -> int:
    """Number of adjacency-preserving permutations of the vertices.

    Counted by the same search as :func:`canonical_key`, at the same cost:
    the orderings that reveal the key are one coset of the group."""
    return _least_orderings(g)[1]


def enumerate_tournaments(n: int) -> list[Digraph]:
    """All tournaments on ``n`` vertices up to isomorphism.

    Representatives are canonical forms, listed in increasing canonical-key
    order.  Supported for ``1 <= n <= 7`` (456 classes, 643 keys in all);
    ``n = 8`` would need 7,768 more keys of 8-vertex tournaments.  See
    :func:`_tournament_classes` for how the classes are found.
    """
    return [digraph_from_key(n, key) for key, _ in _tournament_classes(n)]


def _tournament_classes(n: int) -> list[tuple[int, int]]:
    """The canonical key and automorphism group order of every tournament
    class on ``n`` vertices, in increasing key order.

    Each class on ``n - 1`` vertices is extended by a new vertex in every
    way, and an extension is keyed only when its new vertex is
    lexicographically maximal in (score, sum of its out-neighbours'
    scores), ties kept.  No class is lost: a maximal vertex ``u`` of any
    class ``T`` leaves a listed class ``T - u``, and one of its extensions
    rebuilds ``T`` with ``u`` as the new vertex.  The counts come from the
    key search that found each class.
    """
    if n < 1:
        raise InvalidSize(f"tournament size must be >= 1, got {n}")
    if n > 7:
        raise SizeCapExceeded(f"tournament enumeration supported up to n = 7, got {n}")
    classes = {0: 1}  # the one-vertex tournament: key 0, one automorphism
    for size in range(2, n + 1):
        new = size - 1
        found: dict[int, int] = {}
        for parent in classes:
            t = digraph_from_key(new, parent)
            out = t._out
            score = [m.bit_count() for m in out]
            for mask in range(1 << new):
                # The new vertex beats the j in mask; every other j gains
                # a point by beating it.
                top = mask.bit_count()
                scores = [s + (not mask >> j & 1) for j, s in enumerate(score)]
                if max(scores) > top:
                    continue
                mine = sum(scores[j] for j in _bits(mask))
                if any(
                    sum(scores[w] for w in _bits(out[j])) + (not mask >> j & 1) * top > mine
                    for j, s in enumerate(scores)
                    if s == top
                ):
                    continue
                arcs = [(new, j) if mask >> j & 1 else (j, new) for j in range(new)]
                key, count = _least_orderings(Digraph(size, [*t.edges, *arcs]))
                found[key] = count
        classes = found
    return sorted(classes.items())


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


def homotopy_witness_pair() -> tuple[Digraph, Digraph]:
    """A digraph pair ``(G, H)`` separating the three homotopy relations.

    ``G`` is the bidirected edge without loops.  ``H`` is built so that the
    homomorphism complex of ``(G, H)`` consists of six isolated points
    while the exponential digraph still has one-way arrows between some of
    them: there are map pairs that are connected by a directed homotopy but
    not a bidirected one, and pairs connected by an undirected homotopy but
    not a directed one in either orientation.
    """
    g = Digraph(2, [(0, 1), (1, 0)])
    h = Digraph(
        6,
        [
            (0, 2),
            (1, 3),
            (0, 1),
            (1, 0),
            (2, 3),
            (3, 2),
            (4, 2),
            (5, 3),
            (4, 5),
            (5, 4),
        ],
    )
    return g, h
