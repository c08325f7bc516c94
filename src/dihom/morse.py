"""Discrete Morse matchings and collapsibility.

A partial matching on a poset pairs elements along covering relations.  It
is *acyclic* when the Hasse diagram, with matched covers pointing up and
all other covers pointing down, has no directed cycle.  On a poset graded
by dimension, such as a hom poset, that is the same as having no closed
V-path through the matched pairs.  An acyclic matching with one critical
cell on the face poset of a complex certifies collapsibility.

Besides the generic checker this module provides the explicit matching
that collapses homomorphism posets into transitive tournaments, and two
facet-driven collapsing engines for simplicial complexes.
"""

from __future__ import annotations

import itertools
import random
from typing import Hashable, Iterable, Sequence

from . import _graph
from .complexes import Poset, SimplicialComplex
from .constructions import transitive_tournament
from .digraph import DEFAULT_CAP, Digraph, _shifts
from .errors import (
    EmptyHom,
    InvalidMatching,
    InvalidVariant,
    NotAcyclic,
    ShapeMismatch,
)
from .homcomplex import HomPoset, hom_poset


class Matching:
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

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("Matching is immutable")

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
    pairs one dimension apart (Forman 1998).  There the check looks only
    at the faces of the matched upper cells and searches the graph of
    pairs, with an arrow from pair ``k`` to pair ``k'`` when the lower
    cell of ``k'`` is a face of the upper cell of ``k`` other than its
    lower cell.  A matching made from ``p`` itself is looked up by its
    packed ints.  A plain :class:`Poset` need not be graded, so it gets
    the full modified Hasse diagram.
    """
    if m._poset is p:
        lowers, uppers, critical = m._packed
        locate = p._index.get

        def show(c: Hashable) -> Hashable:
            return next(p._views((c,)))

    else:
        lowers = [a for a, _ in m.pairs]
        uppers = [b for _, b in m.pairs]
        critical = m.critical
        locate = p._find

        def show(c: Hashable) -> Hashable:
            return c

    pairs = list(zip(map(locate, lowers), map(locate, uppers)))
    # Pairs up to the first with an unknown cell; that one fails unless an
    # earlier pair does.
    known = next(
        (k for k, (i, j) in enumerate(pairs) if i is None or j is None), len(pairs)
    )
    graded = isinstance(p, HomPoset)
    if graded:
        below = p._lower_covers(j for _, j in pairs[:known])
    else:
        succ = p._lower_covers(range(len(p)))
        below = [succ[j] for _, j in pairs[:known]]
    used: set[int] = set()
    for k, ((i, j), faces) in enumerate(zip(pairs, below)):
        if i not in faces:
            a, b = show(lowers[k]), show(uppers[k])
            raise InvalidMatching(f"({a!r}, {b!r}) is not a covering pair")
        if i in used or j in used:
            raise InvalidMatching("a cell appears in two pairs")
        used.update((i, j))
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
        pair_of = {i: k for k, (i, _) in enumerate(pairs)}
        succ = [
            [pair_of[f] for f in faces if f != i and f in pair_of]
            for (i, _), faces in zip(pairs, below)
        ]
    else:
        # Modified Hasse diagram: matched covers point up, the rest down.
        for i, j in pairs:
            succ[j].remove(i)
            succ[i].append(j)
    return _graph.topological_order(succ) is not None


def _peel_levels(g: Digraph) -> list[int]:
    """Longest-path-from-vertex levels of a DAG (sinks are level 0)."""
    succ = [list(g.out_neighbors(v)) for v in range(g.n)]
    order = _graph.topological_order(succ)
    if order is None:
        raise NotAcyclic("digraph has a directed cycle")
    level = [0] * g.n
    for v in reversed(order):
        level[v] = max((level[w] + 1 for w in succ[v]), default=0)
    return level


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
    value.  The matching keeps the packed cells of the poset and builds
    its :class:`MultiHom` views only when they are read.

    Raises :class:`NotAcyclic` for non-DAGs, :class:`EmptyHom` when
    there is no homomorphism (a directed path on more than ``n`` vertices)
    and :class:`ShapeMismatch` when ``poset`` is given but is not the hom
    poset of ``(g, T_n)``.
    """
    level = _peel_levels(g)
    if g.n and max(level) >= n:
        raise EmptyHom(
            f"no homomorphism: longest directed path has {max(level) + 1} vertices"
        )
    t = transitive_tournament(n)
    if poset is None:
        poset = hom_poset(g, t, cap)
    elif poset.source != g or poset.target != t:
        raise ShapeMismatch(f"{poset!r} is not the hom poset of the source into T_{n}")
    by_level: dict[int, list[int]] = {}
    for v in range(g.n):
        by_level.setdefault(level[v], []).append(v)
    # Work on the packed cells: vertex a's assignment is the block at
    # ``offsets[a]``.
    full = (1 << poset._width) - 1
    offsets = _shifts(g.n, poset._width)
    uppers: list[int] = []
    lowers: list[int] = []
    live = poset._packed
    for lvl in sorted(by_level):
        bit = 1 << n - 1 - lvl
        for a in sorted(by_level[lvl]):
            offset = offsets[a]
            survivors = []
            for c in live:
                mask = c >> offset & full
                if mask == bit:
                    survivors.append(c)
                elif mask & bit:
                    uppers.append(c)
                    lowers.append(c ^ bit << offset)
                # cells without the bit are exactly the lowers added above
            live = survivors
    return Matching._from_packed(poset, lowers, uppers, live)


# ---------------------------------------------------------------------------
# Facet-driven collapsing of simplicial complexes
# ---------------------------------------------------------------------------


class _FacetComplex:
    """Mutable working copy of a complex: facets plus, for every face, the
    number of facets containing it.  A face is *free* when that count is 1
    and it is not itself the facet."""

    def __init__(self, x: SimplicialComplex):
        self.positions = {v: i for i, v in enumerate(x.vertices)}
        self.facets: set[frozenset] = set()
        self.count: dict[frozenset, int] = {}
        for f in x.facets:
            self.add_facet(f)

    def key(self, face: frozenset) -> tuple[int, ...]:
        return tuple(sorted(self.positions[v] for v in face))

    def add_facet(self, f: frozenset) -> None:
        self.facets.add(f)
        elems = tuple(f)
        for k in range(len(elems) + 1):
            for sub in itertools.combinations(elems, k):
                s = frozenset(sub)
                self.count[s] = self.count.get(s, 0) + 1

    def remove_facet(self, f: frozenset) -> None:
        self.facets.discard(f)
        elems = tuple(f)
        for k in range(len(elems) + 1):
            for sub in itertools.combinations(elems, k):
                s = frozenset(sub)
                c = self.count[s] - 1
                if c:
                    self.count[s] = c
                else:
                    del self.count[s]

    def free_faces(self) -> list[frozenset]:
        return [
            f
            for f, c in self.count.items()
            if c == 1 and f and f not in self.facets
        ]

    def facet_over(self, face: frozenset) -> frozenset:
        for f in self.facets:
            if face <= f:
                return f
        raise KeyError(face)

    def collapse(self, tau: frozenset, sigma: frozenset) -> None:
        """Remove the interval ``[tau, sigma]``; re-expose the rest of the
        boundary of ``sigma`` as new facets where needed."""
        self.remove_facet(sigma)
        for t in tau:
            delta = sigma - {t}
            if self.count.get(delta, 0) == 0:
                self.add_facet(delta)

    def to_complex(self, vertices: Sequence) -> SimplicialComplex:
        return SimplicialComplex(vertices, self.facets)


class CollapseResult:
    """Outcome of :func:`collapse_free_pairs`: the fixpoint complex and the
    ordered, replayable log of removed free pairs."""

    __slots__ = ("complex", "log")

    def __init__(self, complex: SimplicialComplex, log: tuple):
        object.__setattr__(self, "complex", complex)
        object.__setattr__(self, "log", log)

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("CollapseResult is immutable")

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
    work = _FacetComplex(x)
    log: list[tuple[frozenset, frozenset]] = []
    while True:
        free = work.free_faces()
        if not free:
            break
        if strategy == "lex":
            min_dim = min(len(f) for f in free)
            best = None
            for tau in free:
                if len(tau) != min_dim:
                    continue
                sigma = work.facet_over(tau)
                cand = (len(sigma), work.key(tau), work.key(sigma), tau, sigma)
                if best is None or cand[:3] < best[:3]:
                    best = cand
            tau, sigma = best[3], best[4]
        else:
            tau = rng.choice(sorted(free, key=work.key))
            sigma = work.facet_over(tau)
        work.collapse(tau, sigma)
        log.append((tau, sigma))
    return CollapseResult(work.to_complex(x.vertices), tuple(log))


def replay_collapses(
    x: SimplicialComplex, log: Iterable[tuple[frozenset, frozenset]]
) -> SimplicialComplex:
    """Re-apply a collapse log, verifying every step is a free pair."""
    work = _FacetComplex(x)
    for step, (tau, sigma) in enumerate(log):
        if work.count.get(tau, 0) != 1 or tau in work.facets or not tau:
            raise ValueError(f"step {step}: {set(tau)} is not a free face")
        if work.facet_over(tau) != sigma:
            raise ValueError(f"step {step}: {set(sigma)} is not the facet over the face")
        work.collapse(tau, sigma)
    return work.to_complex(x.vertices)


def random_discrete_morse(x: SimplicialComplex, seed: int) -> tuple[int, ...]:
    """Random discrete Morse vector: collapse random free pairs, and when
    stuck remove a random top-dimensional facet as a critical cell.

    Returns the per-dimension critical cell counts, indexed from 0 to the
    dimension of the input.  A collapsible complex can report an optimal
    ``(1, 0, ..., 0)``, but random runs may do worse; the counts always
    bound the Betti numbers from above.
    """
    rng = random.Random(seed)
    top = max((len(f) - 1 for f in x.facets), default=-1)
    counts = [0] * (top + 1)
    work = _FacetComplex(x)
    while work.facets and work.facets != {frozenset()}:
        free = work.free_faces()
        if free:
            tau = rng.choice(sorted(free, key=work.key))
            work.collapse(tau, work.facet_over(tau))
            continue
        dim = max(len(f) for f in work.facets) - 1
        tops = sorted((f for f in work.facets if len(f) - 1 == dim), key=work.key)
        sigma = rng.choice(tops)
        counts[dim] += 1
        work.collapse(sigma, sigma)  # just the facet; its boundary stays
    return tuple(counts)
