"""Foldings, stiff reductions, and homotopy relations on homomorphisms.

A vertex ``v`` folds onto ``w`` when both neighborhoods of ``v`` are
contained in those of ``w``; deleting ``v`` then changes nothing up to
homotopy, on either side of the hom complex.  Iterating all folds gives
the *stiff reduction*, which is unique up to isomorphism regardless of the
fold order.  A digraph is *dismantlable* when its stiff reduction is the
single looped vertex.

Three successively coarser relations on homomorphisms ``G -> H`` are
provided.  Consider the digraph whose vertices are the homomorphisms, with
an arrow ``f -> g`` when ``(f(v), g(w))`` is an edge of ``H`` for every
edge ``(v, w)`` of ``G``:

* *bihomotopic*: joined by a path of mutual arrows (equivalently, in the
  same connected component of the hom complex);
* *dihomotopic*: joined by a directed path (a preorder, not symmetric);
* *line-homotopic*: joined by a path of arrows ignoring direction.

The homomorphisms stay the packed 0-cells of the hom complex, in
ascending order.  The arrows out of a map are read when a search asks for
them, as one successor bitset (``digraph._arrows``), and its predecessors
as the arrows of the reversed pair.  The mutual arrows are their AND, the
arrows either way their OR.  Whether ``f`` and ``g`` are related is one
bitset reachability search from ``f`` that stops once it reaches ``g``
(``_graph.reach``); no relation is kept for all pairs of maps.  Only
:func:`homotopy_classes`, which needs the whole relation, lists a
successor bitset per map.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from operator import and_, or_
from typing import Callable

from . import _graph
from .digraph import (
    Digraph,
    VertexMap,
    _Frozen,
    _arrows,
    _bits,
    _decode_maps,
    _multihoms,
    _pack,
    induced_subgraph,
    is_homomorphism,
)
from .errors import InvalidFold, InvalidVariant, NotAHomomorphism, SizeCapExceeded


def all_folds(g: Digraph) -> list[tuple[int, int]]:
    """All pairs ``(v, w)`` such that ``v`` folds onto ``w``."""
    out = []
    for v in range(g.n):
        iv, ov = g.in_mask(v), g.out_mask(v)
        for w in range(g.n):
            if w != v and iv & ~g.in_mask(w) == 0 and ov & ~g.out_mask(w) == 0:
                out.append((v, w))
    return out


def find_fold(g: Digraph) -> tuple[int, int] | None:
    """The lexicographically smallest fold pair, or ``None`` if stiff."""
    folds = all_folds(g)
    return min(folds) if folds else None


def fold(g: Digraph, v: int, w: int) -> Digraph:
    """Delete the foldable vertex ``v`` (labels above ``v`` shift down).

    Raises :class:`InvalidFold` unless ``v`` genuinely folds onto ``w``.
    """
    if not (0 <= v < g.n and 0 <= w < g.n) or v == w:
        raise InvalidFold(f"({v}, {w}) is not a fold")
    if g.in_mask(v) & ~g.in_mask(w) or g.out_mask(v) & ~g.out_mask(w):
        raise InvalidFold(
            f"vertex {v} does not fold onto {w}: neighborhoods not nested"
        )
    return induced_subgraph(g, (u for u in range(g.n) if u != v))


def is_stiff(g: Digraph) -> bool:
    return find_fold(g) is None


def _fold_to_stiff(g: Digraph) -> tuple[list[tuple[int, int]], Digraph]:
    """The folds :func:`stiff_reduction` takes, in order, and its result."""
    trace = []
    while (f := find_fold(g)) is not None:
        trace.append(f)
        g = fold(g, *f)
    return trace, g


def stiff_reduction(g: Digraph) -> Digraph:
    """Fold until stiff, always taking the lexicographically first fold.

    The result is independent of the fold order up to isomorphism, so this
    deterministic policy is just a convenient normal form.
    """
    return _fold_to_stiff(g)[1]


def _is_looped_point(r: Digraph) -> bool:
    return r.n == 1 and r.has_loop(0)


def is_dismantlable(g: Digraph) -> bool:
    """True when the stiff reduction is a single looped vertex."""
    return _is_looped_point(stiff_reduction(g))


# ---------------------------------------------------------------------------
# Homotopy relations
# ---------------------------------------------------------------------------


def _require_hom(f: VertexMap, g: Digraph, h: Digraph) -> None:
    if not is_homomorphism(f, g, h):
        raise NotAHomomorphism(f"{f!r} is not a homomorphism")


class _OnDemand:
    """Successor bitsets for :func:`_graph.reach`, computed as the search
    asks: ``self[k]`` is ``rule(k)``."""

    __slots__ = ("rule",)

    def __init__(self, rule: Callable[[int], int]):
        self.rule = rule

    def __getitem__(self, k: int) -> int:
        return self.rule(k)


class _HomRelations:
    """The homomorphisms ``g -> h`` as ascending packed 0-cells, and the
    arrow rules between them, queried for any of the three relations.

    ``succ(k)`` and ``pred(k)`` are the arrows out of and into map ``k`` as
    bitsets over map indices, computed when asked and not kept.  A query
    locates its two maps by bisection, each map checked and located once
    per instance, and searches from the first along
    ``succ`` (``di``), ``succ & pred`` (``bi``) or ``succ | pred``
    (``line``), stopping once it reaches the second.  ``maps`` decodes the
    cells the first time it is read.  With ``cap`` the enumeration stops
    after ``cap + 1`` maps and raises :class:`SizeCapExceeded` when there
    are more than ``cap``."""

    def __init__(self, g: Digraph, h: Digraph, cap: int | None = None):
        self.source, self.target = g, h
        limit = None if cap is None else max(cap, 0) + 1
        self.cells = _multihoms(g, h, max_dim=0, limit=limit)
        if cap is not None and len(self.cells) > max(cap, 0):
            raise SizeCapExceeded(f"homotopy: hom set exceeds cap of {cap} maps")
        # Every homomorphism has an arrow to itself; such loops change no
        # reachability, so the bitsets keep them.
        self.succ = _arrows(g, h, self.cells)
        self.pred = _arrows(g.reverse(), h.reverse(), self.cells)
        # The index of each map a query has located: a map is checked once.
        self._located: dict[VertexMap, int] = {}

    @functools.cached_property
    def maps(self) -> list[VertexMap]:
        return _decode_maps(self.cells, self.source.n, max(self.target.n, 1))

    def _locate(self, f: VertexMap) -> int:
        if (i := self._located.get(f)) is None:
            _require_hom(f, self.source, self.target)
            n, w = self.source.n, max(self.target.n, 1)
            cell = _pack([1 << t for t in f.image], n, w)
            i = self._located[f] = bisect_left(self.cells, cell)
        return i

    def _joined(self, rule: Callable[[int], int], f: VertexMap, g: VertexMap) -> bool:
        i, j = self._locate(f), self._locate(g)
        return bool(_graph.reach(_OnDemand(rule), i, j) >> j & 1)

    def bihomotopic(self, f: VertexMap, g: VertexMap) -> bool:
        succ, pred = self.succ, self.pred
        return self._joined(lambda k: succ(k) & pred(k), f, g)

    def dihomotopic(self, f: VertexMap, g: VertexMap) -> bool:
        return self._joined(self.succ, f, g)

    def line_homotopic(self, f: VertexMap, g: VertexMap) -> bool:
        succ, pred = self.succ, self.pred
        return self._joined(lambda k: succ(k) | pred(k), f, g)


def bihomotopic(f: VertexMap, g: VertexMap, source: Digraph, target: Digraph) -> bool:
    """Are ``f`` and ``g`` joined by a path of mutual arrows?

    This is the same as lying in one component of the hom complex's
    one-skeleton, because multiple assignment entries can be exchanged one
    vertex at a time; the test suite checks the two against each other.
    """
    return _HomRelations(source, target).bihomotopic(f, g)


def dihomotopic(f: VertexMap, g: VertexMap, source: Digraph, target: Digraph) -> bool:
    """Is there a directed arrow path from ``f`` to ``g``?  Not symmetric."""
    return _HomRelations(source, target).dihomotopic(f, g)


def line_homotopic(f: VertexMap, g: VertexMap, source: Digraph, target: Digraph) -> bool:
    """Are ``f`` and ``g`` joined by a path of arrows ignoring direction?"""
    return _HomRelations(source, target).line_homotopic(f, g)


class HomotopyClasses(_Frozen):
    """Partition of the homomorphisms under one of the three relations.

    For the directed relation the classes come from the equivalence
    closure of the preorder; the raw preorder (all reachable ordered pairs,
    reflexive pairs included) is kept alongside since it carries strictly
    more information.
    """

    __slots__ = ("relation", "classes", "preorder")

    def __init__(self, relation: str, classes, preorder=None):
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "preorder", preorder)

    def class_of(self, f: VertexMap) -> frozenset:
        for c in self.classes:
            if f in c:
                return c
        raise KeyError(f)

    def __repr__(self) -> str:
        return f"HomotopyClasses({self.relation}, {len(self.classes)} classes)"


def homotopy_classes(
    source: Digraph, target: Digraph, relation: str = "bi"
) -> HomotopyClasses:
    """Partition all homomorphisms under ``"bi"``, ``"di"`` or ``"line"``.

    Directed homotopy is only a preorder; its classes are those of the
    equivalence closure (which coincide with the line-homotopy classes),
    and the returned object also carries the raw reachability pairs.
    Any other ``relation`` raises :class:`InvalidVariant`.
    """
    if relation not in ("bi", "di", "line"):
        raise InvalidVariant(f"unknown relation {relation!r}")
    rel = _HomRelations(source, target)
    maps = rel.maps
    # Every class, and the preorder, asks for every map's arrows, so here
    # alone they are listed once.
    succ = list(map(rel.succ, range(len(maps))))
    pred = map(rel.pred, range(len(maps)))
    adj = list(map(and_ if relation == "bi" else or_, succ, pred))
    # Both relations are symmetric, so each class is what its least
    # unvisited map reaches; the maps are in lexicographic order, so the
    # classes are sorted by their least map.
    classes = []
    left = (1 << len(maps)) - 1
    while left:
        c = _graph.reach(adj, (left & -left).bit_length() - 1)
        classes.append(frozenset(maps[i] for i in _bits(c)))
        left &= ~c
    preorder = None
    if relation == "di":
        preorder = tuple(
            (f, maps[j])
            for i, f in enumerate(maps)
            for j in _bits(_graph.reach(succ, i))
        )
    return HomotopyClasses(relation, tuple(classes), preorder)
