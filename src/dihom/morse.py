"""Discrete Morse matchings and collapsibility.

A partial matching on a poset pairs elements along covering relations.  It
is *acyclic* when the Hasse diagram, with matched covers pointing up and
all other covers pointing down, has no directed cycle.  On a poset graded
by dimension, such as a hom poset, that is the same as having no closed
V-path through the matched pairs.  An acyclic matching with one critical
cell on the face poset of a complex certifies collapsibility.

Besides the generic checker this module provides the explicit matching
that collapses homomorphism posets into transitive tournaments, and one
collapsing engine for simplicial complexes that works on face masks.

The collapse of ``Hom(G, T_n)`` for a DAG ``G`` runs in stages, one per
vertex ``a_k`` of ``G`` in peel order, each with a value ``t_k``
(:func:`_stages`).  A cell's stage is the first ``k`` at which its set at
``a_k`` is not ``{t_k}``, and stage ``k`` pairs cells by adding or
removing ``t_k`` at ``a_k``: an *element matching* (Jonsson 2008).  The
checker certifies such a matching in one pass over its pairs.  The stage
never rises from a cell to its faces, and an element matching has no
V-path, so by the Patchwork theorem (Kozlov 2008, Thm 11.10) the union of
the stages is acyclic.  Every valid matching on a hom poset tries this
test first; one that fails it gets the V-path search, which reads the
faces of each upper cell off :func:`digraph._faces` and decides every
case.
"""

from __future__ import annotations

import random
from functools import cache
from itertools import chain
from operator import and_, eq
from typing import Hashable, Iterable

from . import _graph
from .complexes import Poset, SimplicialComplex, _positions
from .constructions import transitive_tournament
from .digraph import DEFAULT_CAP, Digraph, _Frozen, _bits, _faces, _shifts
from .errors import (
    EmptyHom,
    InvalidMatching,
    InvalidVariant,
    NotAcyclic,
    ShapeMismatch,
)
from .homcomplex import HomPoset, hom_poset


class Matching(_Frozen):
    """A partial matching: ``pairs`` of (lower, upper) cells plus the
    leftover ``critical`` cells.  Plain data; validation against a poset
    happens in :func:`is_acyclic_matching`.

    A matching made by :func:`tournament_matching` keeps the packed ints
    of its lower, upper and critical cells together with the
    :class:`HomPoset` they index, and builds the ``pairs`` and
    ``critical`` views on first use, as :attr:`HomPoset.cells` does.
    """

    __slots__ = ("_pairs", "_critical", "_poset", "_packed")

    def __init__(
        self,
        pairs: Iterable[tuple[Hashable, Hashable]],
        critical: Iterable[Hashable],
    ):
        object.__setattr__(self, "_pairs", tuple((a, b) for a, b in pairs))
        object.__setattr__(self, "_critical", tuple(critical))
        object.__setattr__(self, "_poset", None)
        object.__setattr__(self, "_packed", None)

    @classmethod
    def _from_packed(
        cls, poset: HomPoset, lowers: list[int], uppers: list[int], critical: list[int]
    ) -> "Matching":
        """The matching of the cells ``lowers[k] < uppers[k]`` of ``poset``
        with ``critical`` left over, all as packed ints."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "_pairs", None)
        object.__setattr__(obj, "_critical", None)
        object.__setattr__(obj, "_poset", poset)
        object.__setattr__(obj, "_packed", (lowers, uppers, critical))
        return obj

    @property
    def pairs(self) -> tuple[tuple[Hashable, Hashable], ...]:
        if self._pairs is None:
            lowers, uppers, _ = self._packed
            views = self._poset._views
            object.__setattr__(self, "_pairs", tuple(zip(views(lowers), views(uppers))))
        return self._pairs

    @property
    def critical(self) -> tuple[Hashable, ...]:
        if self._critical is None:
            critical = tuple(self._poset._views(self._packed[2]))
            object.__setattr__(self, "_critical", critical)
        return self._critical

    def _sizes(self) -> tuple[int, int]:
        """The numbers of pairs and of critical cells, read without
        building the views."""
        if self._packed is None:
            return len(self._pairs), len(self._critical)
        lowers, _, critical = self._packed
        return len(lowers), len(critical)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return set(self.pairs) == set(other.pairs) and set(self.critical) == set(
            other.critical
        )

    def __hash__(self) -> int:
        return hash((frozenset(self.pairs), frozenset(self.critical)))

    def __repr__(self) -> str:
        pairs, critical = self._sizes()
        return f"Matching({pairs} pairs, {critical} critical)"


def is_acyclic_matching(p: Poset | HomPoset, m: Matching) -> bool:
    """Validate ``m`` against ``p`` and check acyclicity.

    Raises :class:`InvalidMatching` when a pair is not a covering relation,
    an element is matched twice, or pairs and critical cells fail to
    partition the poset; the first failing pair decides the message.
    Otherwise returns ``False`` exactly when the modified Hasse diagram,
    matched covers pointing up and all others down, has a directed cycle.

    A :class:`HomPoset` is graded by dimension, so such a cycle is a closed
    V-path: it alternates between the lower and upper cells of matched
    pairs one dimension apart (Forman 1998).  There the check works on
    packed cells: a pair is a cover when the two cells differ in one
    member, held by the upper one.  A matching that keeps the packed
    cells of ``p`` itself, as :func:`tournament_matching` makes one, is
    validated in bulk with no index of the cells
    (:func:`_is_packed_partition`): its packed cells, sorted, must be the
    poset's, and each upper cell must hold its lower cell plus one
    member.  Only when that fails does the pair-by-pair scan run, to name
    the first failing pair.  A plain :class:`Poset` need not be graded,
    so it gets the full modified Hasse diagram.

    Every valid matching on a :class:`HomPoset`, packed or not, is then
    checked by :func:`_packed_acyclic`.  On the hom poset of a DAG into
    ``T_n`` it is first tested against the stages of the tournament
    collapse (:func:`_in_stages`), which reads only ``p.source`` and
    ``p.target``.  Say a cell is at stage ``k`` when its set at ``a_k``
    is the first that differs from ``{t_k}``.  When every pair adds
    ``t_k`` at ``a_k`` for the stage ``k`` of its cells, the matching is
    acyclic: a face is at the same or a later stage than its cell, so a
    V-path never returns to an earlier stage, and within a stage every
    pair toggles the one element ``(a_k, t_k)`` (an element matching,
    Jonsson 2008), so the face that a V-path steps down to keeps that
    element and is no lower cell of the stage.  That is the Patchwork
    theorem (Kozlov 2008, Thm 11.10) for the stage map.  The test never
    rejects: a matching that fails it gets the V-path search, over the
    faces that :func:`digraph._faces` gives.
    """
    if m._poset is p:
        lowers, uppers, critical = m._packed
        if _is_packed_partition(p._packed, lowers, uppers, critical):
            return _packed_acyclic(p, lowers, uppers)
        locate = p._position

        def show(c: Hashable) -> Hashable:
            return next(p._views((c,)))

    else:
        lowers = [a for a, _ in m.pairs]
        uppers = [b for _, b in m.pairs]
        critical = m.critical
        locate = p._find

        def show(c: Hashable) -> Hashable:
            return c

    graded = isinstance(p, HomPoset)
    if graded:
        packed = p._packed
    else:
        succ: list[list[int]] = [[] for _ in range(len(p))]
        for i, j in p.covering_index_pairs():
            succ[j].append(i)

    pairs = list(zip(map(locate, lowers), map(locate, uppers)))
    # Pairs up to the first with an unknown cell; that one fails unless an
    # earlier pair does.
    known = next(
        (k for k, (i, j) in enumerate(pairs) if i is None or j is None), len(pairs)
    )
    used: set[int] = set()
    for k, (i, j) in enumerate(pairs[:known]):
        if graded:
            # Cell j is cell i plus one member.  No cell has an empty
            # block, so the member joins a block that cell i already fills.
            d = packed[i] ^ packed[j]
            cover = d & (d - 1) == 0 and packed[j] & d != 0
        else:
            cover = i in succ[j]
        if not cover:
            a, b = show(lowers[k]), show(uppers[k])
            raise InvalidMatching(f"({a!r}, {b!r}) is not a covering pair")
        if i in used or j in used:
            raise InvalidMatching("a cell appears in two pairs")
        used.add(i)
        used.add(j)
    if known < len(pairs):
        a, b = show(lowers[known]), show(uppers[known])
        raise InvalidMatching(f"pair ({a!r}, {b!r}) mentions unknown cells")
    crit = set()
    for c in critical:
        ic = locate(c)
        if ic is None:
            raise InvalidMatching(f"unknown critical cell {show(c)!r}")
        if ic in used or ic in crit:
            raise InvalidMatching(f"cell {show(c)!r} is both matched and critical")
        crit.add(ic)
    if len(used) + len(crit) != len(p):
        raise InvalidMatching("pairs and critical cells do not partition the poset")

    if graded:
        return _packed_acyclic(
            p, [packed[i] for i, _ in pairs], [packed[j] for _, j in pairs]
        )
    # Modified Hasse diagram: matched covers point up, the rest down.
    for i, j in pairs:
        succ[j].remove(i)
        succ[i].append(j)
    return _graph.topological_order(succ) is not None


def _is_packed_partition(
    cells: list[int], lowers: list[int], uppers: list[int], critical: list[int]
) -> bool:
    """Whether each ``lowers[k] < uppers[k]`` is a cover of the hom poset
    with packed ``cells`` and, with ``critical``, they hold every cell
    once.

    Sorted, the cells named must be ``cells``: each is a cell, and none is
    named twice.  Each lower cell then lies in its upper one and differs
    from it, so each upper cell holds at least one more member, and the
    popcount sums leave room for exactly one.  That is the one-member
    cover test of the pair-by-pair scan in :func:`is_acyclic_matching`.
    """
    return (
        len(lowers) == len(uppers)
        and sorted(chain(lowers, uppers, critical)) == cells
        and all(map(eq, map(and_, lowers, uppers), lowers))
        and sum(map(int.bit_count, uppers)) - sum(map(int.bit_count, lowers))
        == len(lowers)
    )


def _packed_acyclic(p: HomPoset, lowers: list[int], uppers: list[int]) -> bool:
    """Whether the pairs ``lowers[k] < uppers[k]`` of packed cells of
    ``p``, covers with every cell used once, form an acyclic matching.

    The stage test (:func:`_in_stages`) comes first.  Failing it, the
    matching is acyclic when it has no closed V-path: pair ``k`` points to
    pair ``k'`` when the lower cell of ``k'`` is one of the
    :func:`digraph._faces` of the upper cell of ``k`` other than its lower
    cell.
    """
    if _in_stages(p, lowers, uppers):
        return True
    pair_of = {f: k for k, f in enumerate(lowers)}
    # Most pairs have no arrow; they share the empty tuple, not a list each.
    arrows = [
        [pair_of[f] for f in faces if f in pair_of and f != own] or ()
        for own, faces in zip(lowers, _faces(uppers, p.source.n, p._width))
    ]
    del pair_of  # the largest object here; the search does not need it
    return _graph.topological_order(arrows) is not None


def _stages(g: Digraph, n: int) -> list[tuple[int, int]]:
    """The stages of the collapse of the hom poset of ``(g, T_n)``: the
    vertices of ``g`` in peel order, sinks first and by label within a
    level, each with the bit of its value ``n - 1 - level``.

    Raises :class:`NotAcyclic` for non-DAGs and :class:`EmptyHom` when
    ``g`` peels into more than ``n`` levels.
    """
    # Longest-path-from-vertex levels: sinks are level 0.
    level = _graph.levels([list(_bits(m)) for m in g._out])
    if level is None:
        raise NotAcyclic("digraph has a directed cycle")
    if g.n and max(level) >= n:
        raise EmptyHom(
            f"no homomorphism: longest directed path has {max(level) + 1} vertices"
        )
    # The sort is stable, so vertices keep their label order within a level.
    order = sorted(range(g.n), key=level.__getitem__)
    return [(a, 1 << n - 1 - level[a]) for a in order]


def _in_stages(p: HomPoset, lowers: list[int], uppers: list[int]) -> bool:
    """Whether each pair ``lowers[k] < uppers[k]`` of ``p``, a cover with
    every cell used once (:func:`_is_packed_partition`), toggles the
    element of its upper cell's stage; then the matching is acyclic.

    Only a hom poset into a transitive tournament ``T_n`` from a source
    that peels within ``n`` levels has stages (a_k, t_k) (:func:`_stages`).
    A cell's stage is the first ``k`` at which its block at ``a_k`` is not
    ``{t_k}``.  A pair passes when its upper cell less its lower cell is
    the element ``t_k`` of block ``a_k`` and the upper cell's blocks at
    ``a_0 .. a_(k-1)`` are ``{t_0} .. {t_(k-1)}``.  The lower cell's block
    at ``a_k`` is then not empty, as no cell's is, so both cells of the
    pair are at stage ``k``.
    """
    t = p.target
    if not t.n or t != transitive_tournament(t.n):
        return False
    try:
        stages = _stages(p.source, t.n)
    except (NotAcyclic, EmptyHom):
        return False
    full = (1 << p._width) - 1
    offsets = _shifts(p.source.n, p._width)
    # Each stage's element, with the blocks of the stages before it and
    # their values.
    before: dict[int, tuple[int, int]] = {}
    blocks = values = 0
    for a, bit in stages:
        element = bit << offsets[a]
        before[element] = (blocks, values)
        blocks |= full << offsets[a]
        values |= element
    for lower, upper in zip(lowers, uppers):
        prior = before.get(upper ^ lower)
        if prior is None or upper & prior[0] != prior[1]:
            return False
    return True


def tournament_matching(
    g: Digraph,
    n: int,
    cap: int = DEFAULT_CAP,
    poset: HomPoset | None = None,
) -> Matching:
    """The acyclic matching that collapses the hom poset of ``(g, T_n)``
    (``T_n`` the transitive tournament) to a single critical cell.

    Peels the DAG ``g`` one sink layer at a time.  A sink at peel level
    ``l`` gets the value ``n - 1 - l``; among the cells agreeing with all
    previously frozen sinks, those containing the value at the current sink
    are matched with the cells obtained by removing it.  The single
    unmatched cell is the homomorphism sending each vertex to its level
    value.  The stages come from :func:`_stages`, which
    :func:`is_acyclic_matching` reads too.  The matching keeps the packed
    cells of the poset and builds its :class:`MultiHom` views only when
    they are read.

    Raises :class:`NotAcyclic` for non-DAGs, :class:`EmptyHom` when
    there is no homomorphism (a directed path on more than ``n`` vertices)
    and :class:`ShapeMismatch` when ``poset`` is given but is not the hom
    poset of ``(g, T_n)``.  ``T_n`` is built first, so a bad ``n`` is
    reported before anything about ``g``, and ``g`` is peeled before any
    search, so the first two errors come at once.
    """
    t = transitive_tournament(n)
    stages = _stages(g, n)
    if poset is None:
        poset = hom_poset(g, t, cap)
    elif poset.source != g or poset.target != t:
        raise ShapeMismatch(f"{poset!r} is not the hom poset of the source into T_{n}")
    # Work on the packed cells: vertex a's assignment is the block at
    # ``offsets[a]``.
    full = (1 << poset._width) - 1
    offsets = _shifts(g.n, poset._width)
    uppers: list[int] = []
    lowers: list[int] = []
    live = poset._packed
    upper, lower = uppers.append, lowers.append
    for a, bit in stages:
        # The block of vertex ``a`` and its stage bit, both in place.
        block, e = full << offsets[a], bit << offsets[a]
        survivors = []
        survive = survivors.append
        for c in live:
            b = c & block
            if b == e:
                survive(c)
            elif b & e:
                upper(c)
                lower(c ^ e)
            # cells without the bit are exactly the lowers added above
        live = survivors
    # A hom poset is closed under faces, so every lower cell formed is one
    # of its cells: the counts add up exactly when the pairs and the one
    # critical cell hold every cell.
    if len(live) != 1 or 2 * len(lowers) + 1 != len(poset):
        raise ShapeMismatch(f"{poset!r} is not the hom poset of the source into T_{n}")
    return Matching._from_packed(poset, lowers, uppers, live)


# ---------------------------------------------------------------------------
# Collapsing simplicial complexes on face masks
# ---------------------------------------------------------------------------
#
# A complex being collapsed is one dict ``faces: mask -> (k, total)`` over
# the position bitmasks of ``SimplicialComplex`` (bit ``i`` for
# ``vertices[i]``), the empty face included: ``k`` live facets lie over
# the face and their masks sum to ``total``.  It starts from the facet
# masks the complex keeps (``_tops``); a logged face becomes a mask
# through ``SimplicialComplex._mask``.  A face over exactly one facet is
# that facet when it equals its total, since a facet lies in no other
# facet; otherwise it is free when nonempty, and the facet is its total.
# The sets ``free`` of free faces and ``facets`` of facets are kept up to
# date as each face's entry changes, so no step rescans the dict.
_Faces = dict[int, tuple[int, int]]


def _shift(faces: _Faces, free: set[int], facets: set[int], f: int, step: int) -> None:
    """Add (``step=1``) or remove (``step=-1``) the facet ``f``."""
    sub = f
    while True:
        k, total = faces.get(sub, (0, 0))
        k += step
        total += step * f
        if k:
            faces[sub] = (k, total)
        else:
            del faces[sub]
        # Each step moves a count by one, so a face now over one facet was
        # over none or two, and one now over three or more was over two or
        # more: neither was a facet or free before.
        if k == 1:
            if sub == total:
                facets.add(sub)
            elif sub:
                free.add(sub)
        elif k <= 2:
            free.discard(sub)
            facets.discard(sub)
        if not sub:
            return
        sub = (sub - 1) & f


def _face_dict(x: SimplicialComplex) -> tuple[_Faces, set[int], set[int]]:
    """The face dict of ``x``, its free faces and its facets."""
    faces: _Faces = {}
    free: set[int] = set()
    facets: set[int] = set()
    for t in x._tops:
        _shift(faces, free, facets, t, 1)
    return faces, free, facets


def _collapse(
    faces: _Faces, free: set[int], facets: set[int], tau: int, sigma: int
) -> None:
    """Remove the interval ``[tau, sigma]``; re-expose the rest of the
    boundary of ``sigma`` as new facets where needed."""
    _shift(faces, free, facets, sigma, -1)
    for t in _bits(tau):
        delta = sigma & ~(1 << t)
        if delta not in faces:
            _shift(faces, free, facets, delta, 1)


def _complex(x: SimplicialComplex, facets: set[int]) -> SimplicialComplex:
    return SimplicialComplex(x.vertices, map(x._face, facets))


class CollapseResult(_Frozen):
    """Outcome of :func:`collapse_free_pairs`: the fixpoint complex and the
    ordered, replayable log of removed free pairs."""

    __slots__ = ("complex", "log")

    def __init__(self, complex: SimplicialComplex, log: tuple):
        object.__setattr__(self, "complex", complex)
        object.__setattr__(self, "log", log)

    def __repr__(self) -> str:
        return f"CollapseResult({len(self.log)} collapses)"


def collapse_free_pairs(
    x: SimplicialComplex,
    strategy: str = "lex",
    seed: int | None = None,
) -> CollapseResult:
    """Repeatedly remove free pairs until none remain.

    A free pair is a face ``tau`` properly contained in exactly one facet
    ``sigma``; removing it deletes the whole interval ``[tau, sigma]``.

    * ``strategy="lex"`` picks the smallest pair by
      ``(dim tau, dim sigma, key tau, key sigma)`` each round, so the run
      is fully deterministic.
    * ``strategy="random"`` draws the free face uniformly using ``seed``.

    The returned log can be replayed with :func:`replay_collapses`.
    """
    if strategy not in ("lex", "random"):
        raise InvalidVariant(f"unknown strategy {strategy!r}")
    rng = random.Random(seed)
    faces, free, facets = _face_dict(x)
    key = cache(_positions)  # each face's key is built once per run
    log: list[tuple[frozenset, frozenset]] = []
    while free:
        if strategy == "lex":
            tau = min(
                free,
                key=lambda m: (m.bit_count(), faces[m][1].bit_count(), key(m)),
            )
        else:
            tau = rng.choice(sorted(free, key=key))
        sigma = faces[tau][1]
        _collapse(faces, free, facets, tau, sigma)
        log.append((x._face(tau), x._face(sigma)))
    return CollapseResult(_complex(x, facets), tuple(log))


def replay_collapses(
    x: SimplicialComplex, log: Iterable[tuple[frozenset, frozenset]]
) -> SimplicialComplex:
    """Re-apply a collapse log, verifying every step is a free pair."""
    faces, free, facets = _face_dict(x)
    for step, (tau, sigma) in enumerate(log):
        m = x._mask(tau)
        if m not in free:
            raise ValueError(f"step {step}: {set(tau)} is not a free face")
        total = faces[m][1]
        if x._face(total) != sigma:
            raise ValueError(f"step {step}: {set(sigma)} is not the facet over the face")
        _collapse(faces, free, facets, m, total)
    return _complex(x, facets)


def random_discrete_morse(x: SimplicialComplex, seed: int) -> tuple[int, ...]:
    """Random discrete Morse vector: collapse random free pairs, and when
    stuck remove a random top-dimensional facet as a critical cell.

    Returns the per-dimension critical cell counts, indexed from 0 to the
    dimension of the input.  A collapsible complex can report an optimal
    ``(1, 0, ..., 0)``, but random runs may do worse; the counts always
    bound the Betti numbers from above.
    """
    rng = random.Random(seed)
    counts = [0] * (x.dimension() + 1)
    faces, free, facets = _face_dict(x)
    key = cache(_positions)  # each face's key is built once per run
    # The largest facets, in key order.  A removed facet only exposes
    # smaller ones, so until none of that size is left the list only
    # loses members and is never sorted again.
    tops: list[int] = []
    # Left with at most the empty face, the complex is void or empty.
    while len(faces) > 1:
        if free:
            tau = rng.choice(sorted(free, key=key))
            _collapse(faces, free, facets, tau, faces[tau][1])
            continue
        tops = [m for m in tops if m in facets]
        if not tops:
            size = max(map(int.bit_count, facets))
            tops = sorted((m for m in facets if m.bit_count() == size), key=key)
        sigma = rng.choice(tops)
        counts[sigma.bit_count() - 1] += 1
        # Just the facet; its boundary stays.
        _collapse(faces, free, facets, sigma, sigma)
    return tuple(counts)
