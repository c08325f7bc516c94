"""Integral homology via Smith normal form: of simplicial complexes, and of
hom complexes through their cellular chains.

Both kinds of complex are products of simplices with one face rule and
one sign rule.  A hom complex cell is a packed int of one vertex-set
block per source vertex; a simplicial complex is the one-block case,
each face a bitmask over the complex's vertex positions.  A cell's
faces drop one member of a block that holds two or more
(:func:`digraph._faces`), and dropping member bit ``b`` of cell ``c``
has sign ``(-1)^popcount(c & ((1 << b) - 1))`` (:func:`_sign`), the
simplicial sign of the cell's members in ascending bit order; for a
simplex that is the usual sign by position.  :func:`_cellular_chains`
builds the whole chain complex from them, and :func:`_morse_chains` the
Morse complex.

Homology is read off a Morse complex, not the whole chain complex
(:func:`_morse_chains`).  An iterated element matching pairs each cell
with the face that drops one member bit, bit by bit, and leaves the
critical cells (Jonsson 2008; Kozlov 2008, Patchwork theorem); the
complex has the homology of a chain complex with one cell per critical
cell (Forman 1998).  One critical 0-cell is set against the augmentation
cell, and when no two adjacent degrees then both hold critical cells the
counts are the Betti numbers and no further boundary is built.
Otherwise the boundary between critical cells is read along the
gradient paths (Harker, Mischaikow, Mrozek and Nanda 2014), and only
these matrices go to Smith normal form.  :class:`ChainComplex` keeps the
whole augmented chain complex.

Everything here is *reduced* homology of the augmented chain complex: a
point has trivial homology everywhere, and the empty complex (whose only
face is the empty set) has one unit of homology in degree ``-1``.  The
void complex has no homology at all.

A simplicial complex is first reduced through its facets, read as the
position masks its constructor keeps (``SimplicialComplex._tops``).
The facets cover it and every intersection of facets is a simplex, so
the complex has the homotopy type of its facet nerve: one vertex per
facet, one simplex per set of facets with a common vertex (Borsuk 1948;
Björner 2003, "Nerves, fibers and homotopy groups").  The nerve's
facets are the maximal sets of facets that share a vertex, kept by the
same filter the constructor uses (``complexes._maximal``).  The nerve
is taken again while it has fewer vertices than the complex it
replaces, and only the last nerve's faces (``complexes._downset``) go
to the element matching.  The Leray check reads each link off the facet
masks too, and visits only the faces that are intersections of facets:
every facet holding any other face ``f`` also holds some vertex outside
``f``, so the link of ``f`` is a cone.  The link of the empty face is the
complex itself, so that test reads the homology :func:`reduced_homology`
keeps on the complex, before any intersection is formed.

The Smith normal form routine is a sparse, pure-integer elimination;
Python's arbitrary-precision arithmetic means entry growth is a speed
concern, not a correctness one.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

from .complexes import (
    Poset,
    SimplicialComplex,
    _downset,
    _face_order,
    _maximal,
    order_complex,
)
from .digraph import DEFAULT_CAP, _Frozen, _bits, _faces, _shifts, _split
from .errors import SizeCapExceeded
from .homcomplex import HomPoset, _factor_posets


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], int]:
    """Invariant factors and rank of an integer matrix.

    Returns ``(factors, rank)`` where ``factors`` is the full chain of
    positive invariant factors ``d1 | d2 | ... | dr`` (units included) and
    ``rank == len(factors)``.
    """
    rows: dict[int, dict[int, int]] = {}
    for r, row in enumerate(matrix):
        entries = {c: int(v) for c, v in enumerate(row) if v}
        if entries:
            rows[r] = entries
    return _snf_sparse(rows)


def _snf_sparse(rows: dict[int, dict[int, int]]) -> tuple[tuple[int, ...], int]:
    cols: dict[int, dict[int, int]] = {}
    for r, row in rows.items():
        for c, v in row.items():
            cols.setdefault(c, {})[r] = v
    diagonal: list[int] = []

    def set_entry(r: int, c: int, v: int) -> None:
        if v:
            rows.setdefault(r, {})[c] = v
            cols.setdefault(c, {})[r] = v
        else:
            row = rows.get(r)
            if row and c in row:
                del row[c]
                if not row:
                    del rows[r]
            col = cols.get(c)
            if col and r in col:
                del col[r]
                if not col:
                    del cols[c]

    def add_col(dst: int, src: int, q: int) -> None:
        # column dst += q * column src
        for r, v in list(cols.get(src, {}).items()):
            set_entry(r, dst, rows.get(r, {}).get(dst, 0) + q * v)

    def add_row(dst: int, src: int, q: int) -> None:
        for c, v in list(rows.get(src, {}).items()):
            set_entry(dst, c, rows.get(dst, {}).get(c, 0) + q * v)

    # An emptied column never fills again (entries are only ever written
    # into columns that hold an entry of the pivot row), so one pass over
    # the columns in order finds each pivot column.
    order = iter(sorted(cols))
    lead = next(order, None)
    while rows:
        while lead not in cols:
            lead = next(order)
        # Pivot: the entry of least magnitude in the first live column, on
        # the shortest row among those.
        col = cols[lead]
        pr = min(col, key=lambda r: (abs(col[r]), len(rows[r])))
        pc = lead
        # Euclidean steps until the pivot divides its whole row and column.
        while True:
            v = rows[pr][pc]
            offender = next(
                (c for c, x in rows[pr].items() if c != pc and x % v), None
            )
            if offender is not None:
                q = rows[pr][offender] // v
                add_col(offender, pc, -q)
                pc = offender  # remainder is strictly smaller
                continue
            offender = next(
                (r for r, x in cols[pc].items() if r != pr and x % v), None
            )
            if offender is not None:
                q = cols[pc][offender] // v
                add_row(offender, pr, -q)
                pr = offender
                continue
            break
        v = rows[pr][pc]
        for c in [c for c in rows[pr] if c != pc]:
            add_col(c, pc, -(rows[pr][c] // v))
        for r in [r for r in cols[pc] if r != pr]:
            add_row(r, pr, -(cols[pc][r] // v))
        diagonal.append(abs(v))
        set_entry(pr, pc, 0)

    # The elimination yields an equivalent diagonal matrix.
    return _divisibility_chain(diagonal), len(diagonal)


def _divisibility_chain(diagonal: list[int]) -> tuple[int, ...]:
    """The invariant factors ``d1 | d2 | ...`` of the diagonal matrix with
    the positive entries ``diagonal`` (sorted in place), found by gcd/lcm
    exchanges; units are kept, so the length is unchanged."""
    changed = True
    while changed:
        changed = False
        diagonal.sort()
        for i in range(len(diagonal) - 1):
            a, b = diagonal[i], diagonal[i + 1]
            if b % a:
                g = math.gcd(a, b)
                diagonal[i], diagonal[i + 1] = g, a * b // g
                changed = True
    return tuple(diagonal)


class HomologyGroups(_Frozen):
    """Finitely generated graded abelian groups, i.e. a rank and a torsion
    tuple per degree.  Zero groups are never stored, so two results compare
    equal iff they describe the same homology."""

    __slots__ = ("_ranks", "_torsion")

    def __init__(
        self,
        ranks: Mapping[int, int] | None = None,
        torsion: Mapping[int, Iterable[int]] | None = None,
    ):
        rs = {d: int(r) for d, r in (ranks or {}).items() if r}
        ts = {}
        for d, factors in (torsion or {}).items():
            t = tuple(int(f) for f in factors if int(f) > 1)
            if t:
                ts[d] = t
        object.__setattr__(self, "_ranks", rs)
        object.__setattr__(self, "_torsion", ts)

    def rank(self, degree: int) -> int:
        return self._ranks.get(degree, 0)

    def torsion(self, degree: int) -> tuple[int, ...]:
        return self._torsion.get(degree, ())

    def degrees(self) -> list[int]:
        return sorted(set(self._ranks) | set(self._torsion))

    @property
    def is_trivial(self) -> bool:
        return not self._ranks and not self._torsion

    def is_trivial_from(self, degree: int) -> bool:
        return all(d < degree for d in self.degrees())

    def shifted(self, offset: int) -> "HomologyGroups":
        return HomologyGroups(
            {d + offset: r for d, r in self._ranks.items()},
            {d + offset: t for d, t in self._torsion.items()},
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HomologyGroups):
            return NotImplemented
        return self._ranks == other._ranks and self._torsion == other._torsion

    def __hash__(self) -> int:
        return hash(
            (
                tuple(sorted(self._ranks.items())),
                tuple(sorted(self._torsion.items())),
            )
        )

    def __repr__(self) -> str:
        if self.is_trivial:
            return "HomologyGroups(trivial)"
        parts = []
        for d in self.degrees():
            desc = []
            if self.rank(d):
                desc.append(f"Z^{self.rank(d)}" if self.rank(d) > 1 else "Z")
            desc.extend(f"Z/{t}" for t in self.torsion(d))
            parts.append(f"{d}: " + " + ".join(desc))
        return "HomologyGroups({" + ", ".join(parts) + "})"


def sphere_homology(n: int) -> HomologyGroups:
    """Reduced homology of the ``n``-sphere (``n = -1`` gives the empty
    complex's single unit in degree ``-1``)."""
    return HomologyGroups({n: 1})


class ChainComplex(_Frozen):
    """The augmented simplicial chain complex of a finite complex.

    A view over :func:`_cellular_chains` with the complex as one-block
    cells: within each dimension the faces come in packed order, i.e.
    ascending by their bitmask over vertex positions (not face-key
    order), and the empty face is the one cell in dimension ``-1``
    unless the complex is void.  Boundary matrices carry the usual
    alternating signs by position, so ``boundary . boundary == 0`` (the
    test suite checks it).
    """

    __slots__ = ("_x", "_ranks", "_boundaries")

    def __init__(self, x: SimplicialComplex):
        w = max(len(x.vertices), 1)
        ranks, boundaries = _cellular_chains(x._face_masks(), 1, w, not x.is_void)
        object.__setattr__(self, "_x", x)
        object.__setattr__(self, "_ranks", ranks)
        object.__setattr__(self, "_boundaries", boundaries)

    @property
    def faces(self) -> dict[int, list[frozenset]]:
        """The faces of each dimension, in row and column order."""
        x = self._x
        out: dict[int, list[frozenset]] = {} if x.is_void else {-1: [frozenset()]}
        for m in x._face_masks():
            out.setdefault(m.bit_count() - 1, []).append(x._face(m))
        return out

    def dimensions(self) -> list[int]:
        return sorted(self._ranks)

    def rank(self, d: int) -> int:
        return self._ranks.get(d, 0)

    def boundary_matrix(self, d: int) -> list[list[int]]:
        """Dense boundary matrix from ``d``-chains to ``(d-1)``-chains."""
        m = [[0] * self.rank(d) for _ in range(self.rank(d - 1))]
        for r, row in self._boundaries.get(d, {}).items():
            for j, s in row.items():
                m[r][j] = s
        return m

    def boundary_sparse(self, d: int) -> dict[int, dict[int, int]]:
        """Sparse boundary matrix ``{row: {column: entry}}``, a fresh copy."""
        return {r: dict(row) for r, row in self._boundaries.get(d, {}).items()}


def reduced_homology(x: SimplicialComplex) -> HomologyGroups:
    """Reduced integral homology of a simplicial complex, computed on its
    iterated facet nerve (see the module docstring); no face of ``x``
    itself is enumerated unless the nerve is no smaller.  The result is
    kept on ``x``, so :func:`is_n_leray` reads it for the empty face."""
    if x._homology is None:
        object.__setattr__(x, "_homology", _facet_homology(x._tops))
    return x._homology


def _facet_homology(tops: Sequence[int]) -> HomologyGroups:
    """Reduced homology of the complex whose facets are the distinct,
    pairwise incomparable bitmasks ``tops`` (none for the void complex).

    While there are fewer facets than vertices, the complex is replaced by
    its facet nerve, whose facets are the maximal sets of facets sharing a
    vertex.  One facet left is a simplex: a cone, or the empty complex."""
    while len(tops) > 1:
        holders: dict[int, int] = {}
        for i, t in enumerate(tops):
            for v in _bits(t):
                holders[v] = holders.get(v, 0) | 1 << i
        if len(tops) >= len(holders):
            break
        tops = _maximal(holders.values())
    if not tops:
        return HomologyGroups()
    if len(tops) == 1:
        return HomologyGroups({} if tops[0] else {-1: 1})
    return _homology(*_morse_chains(_downset(tops), 1, max(tops).bit_length()))


def _homology(
    ranks: Mapping[int, int], boundaries: Mapping[int, dict[int, dict[int, int]]]
) -> HomologyGroups:
    """Homology of a chain complex with ``ranks[d]`` cells in degree ``d``
    and sparse boundary matrices ``boundaries[d]`` (rows are the
    ``(d-1)``-cells, columns the ``d``-cells; a missing degree is zero)."""
    snf = {d: _snf_sparse(b) for d, b in boundaries.items()}
    out = {}
    torsion = {}
    for d, n in ranks.items():
        factors_in, rank_in = snf.get(d + 1, ((), 0))
        out[d] = n - snf.get(d, ((), 0))[1] - rank_in
        torsion[d] = factors_in
    return HomologyGroups(out, torsion)


def _kunneth(factors: Sequence[HomologyGroups]) -> HomologyGroups:
    """Reduced homology of the product of complexes, none of them void,
    with the reduced homologies ``factors``, by the Künneth formula over Z.

    Each factor's homology is made unreduced, one more free class in
    degree 0, and an empty factor, the one with a class in degree -1,
    makes the product empty.  Unreduced,
    ``H_n(X × Y) = ⊕_{i+j=n} H_i(X) ⊗ H_j(Y) ⊕ ⊕_{i+j=n-1} Tor(H_i(X), H_j(Y))``,
    where ``Z ⊗ A = A``, ``Z/s ⊗ Z/t = Tor(Z/s, Z/t) = Z/gcd(s, t)`` and
    Tor with a free group vanishes.  The torsion of each degree is put in
    the divisibility chain that :func:`_snf_sparse` emits.  One factor is
    its own product and is returned as it is.
    """
    if len(factors) == 1:
        return factors[0]
    ranks: dict[int, int] = {0: 1}  # a point, unreduced
    torsion: dict[int, list[int]] = {}
    for h in factors:
        if h.rank(-1):
            return HomologyGroups({-1: 1})
        product_ranks: dict[int, int] = {}
        product_torsion: dict[int, list[int]] = {}
        for i in ranks.keys() | torsion.keys():
            a, s = ranks.get(i, 0), torsion.get(i, [])
            for j in {0, *h.degrees()}:
                b, t = h.rank(j) + (j == 0), h.torsion(j)
                tor = [math.gcd(x, y) for x in s for y in t]
                product_ranks[i + j] = product_ranks.get(i + j, 0) + a * b
                product_torsion.setdefault(i + j, []).extend(s * b + [*t] * a + tor)
                product_torsion.setdefault(i + j + 1, []).extend(tor)
        ranks, torsion = product_ranks, product_torsion
    ranks[0] -= 1
    return HomologyGroups(
        ranks, {d: _divisibility_chain(t) for d, t in torsion.items() if t}
    )


def _morse_chains(
    cells: Sequence[int], n: int, w: int
) -> tuple[dict[int, int], dict[int, dict[int, dict[int, int]]]]:
    """Cell counts and boundary matrices of the augmented Morse complex of
    the complex on the packed ``cells`` (``n`` blocks of ``w`` bits,
    closed under dropping members); it has the complex's reduced homology.

    The critical cells come from :func:`_element_matching`.  The
    augmentation cell stays, in degree ``-1``, under every critical
    0-cell.  When no two adjacent degrees both hold critical cells once
    one 0-cell is set against the augmentation cell, every other Morse
    differential is zero and only that row is built.  Otherwise each
    critical cell's boundary flows down the gradient paths to the
    critical cells a degree below (Harker, Mischaikow, Mrozek and Nanda
    2014, "Discrete Morse theoretic algorithms for computing homology of
    complexes and maps"), with the faces and signs of
    :func:`_cellular_chains`."""
    live, pairs = _element_matching(cells, n, w)
    critical = sorted(live)
    index: dict[int, dict[int, int]] = {-1: {-1: 0}}
    for c in critical:
        level = index.setdefault(c.bit_count() - n, {})
        level[c] = len(level)
    ranks = {d: len(level) for d, level in index.items()}
    boundaries: dict[int, dict[int, dict[int, int]]] = {}
    if 0 in ranks:
        boundaries[0] = {0: dict.fromkeys(range(ranks[0]), 1)}
    reduced = {**ranks, -1: 0, 0: ranks.get(0, 1) - 1}
    if all(not (reduced[d] and reduced.get(d + 1)) for d in reduced):
        return ranks, boundaries
    partner = {c ^ x: c for x, ups in pairs for c in ups}
    for d, level in index.items():
        if d < 1:
            continue
        lower = index.get(d - 1, {})
        flows: dict[int, dict[int, int]] = {}
        rows = boundaries[d] = {}
        for (c, j), faces in zip(level.items(), _faces(level, n, w)):
            _flow(faces, lower, partner, flows, n, w)
            for t, v in _chain(c, faces, 1, flows).items():
                rows.setdefault(lower[t], {})[j] = v
    return ranks, boundaries


def _element_matching(
    cells: Iterable[int], n: int, w: int
) -> tuple[set[int], list[tuple[int, list[int]]]]:
    """The critical cells of an iterated element matching on the packed
    ``cells`` (``n`` blocks of ``w`` bits, closed under dropping members),
    and its pairs as ``(x, uppers)``: each upper cell ``c`` pairs with
    ``c ^ x``.

    For each bit ``x`` in turn, every live cell holding ``x`` whose face
    without ``x`` is live pairs with that face, and both leave.  The union
    of these element matchings is acyclic (Jonsson 2008, *Simplicial
    Complexes of Graphs*, on iterated element matchings; Kozlov 2008,
    Patchwork theorem).  The bits go value by value from the top bit of
    each block down, every block at each value: on the hom posets of the
    benchmark this leaves the counts decisive more often than plain bit
    order.  The pass stops once fewer than two cells are live."""
    live = set(cells)
    pairs = []
    shifts = _shifts(n, w)
    for v in range(w - 1, -1, -1):
        for s in shifts:
            if len(live) < 2:
                return live, pairs
            x = 1 << s + v
            ups = [c for c in live if c & x and c ^ x in live]
            if ups:
                live.difference_update(ups)
                live.difference_update(c ^ x for c in ups)
                pairs.append((x, ups))
    return live, pairs


def _flow(
    cells: Iterable[int],
    critical: Mapping[int, int],
    partner: Mapping[int, int],
    flows: dict[int, dict[int, int]],
    n: int,
    w: int,
) -> None:
    """Put in ``flows`` the chain of ``critical`` cells that each of
    ``cells`` flows to, and the chains of the cells met on the way.

    A critical cell flows to itself and an upper cell to zero.  A lower
    cell ``g`` with partner ``u`` flows to
    ``-[∂u:g] · Σ_{f≠g} [∂u:f] · flow(f)`` over the faces ``f`` of ``u``.
    The matching is acyclic, so a depth-first walk with an explicit stack
    computes the flows, each once, however long the gradient paths are."""
    stack = list(cells)
    while stack:
        g = stack[-1]
        u = partner.get(g)
        if g in flows:
            stack.pop()
        elif u is None:
            flows[g] = {g: 1} if g in critical else {}
            stack.pop()
        else:
            faces = [f for f in next(_faces((u,), n, w)) if f != g]
            pending = [f for f in faces if f not in flows]
            if pending:
                stack += pending
            else:
                stack.pop()
                flows[g] = _chain(u, faces, -_sign(u, g), flows)


def _chain(
    c: int, faces: Iterable[int], sign: int, flows: Mapping[int, dict[int, int]]
) -> dict[int, int]:
    """``sign · Σ [∂c:f] · flows[f]`` over ``faces``, zero terms dropped."""
    chain: dict[int, int] = {}
    for f in faces:
        s = sign * _sign(c, f)
        for t, v in flows[f].items():
            chain[t] = chain.get(t, 0) + s * v
    return {t: v for t, v in chain.items() if v}


def _sign(c: int, f: int) -> int:
    """The incidence ``[∂c:f]`` of the face ``f`` of ``c``: dropping member
    bit ``b`` has sign ``(-1)^popcount(c & ((1 << b) - 1))``."""
    return -1 if (c & (c ^ f) - 1).bit_count() & 1 else 1


def _cellular_chains(
    cells: Iterable[int], n: int, w: int, augmented: bool = True
) -> tuple[dict[int, int], dict[int, dict[int, dict[int, int]]]]:
    """Cell counts and boundary matrices of the cellular chain complex on
    the packed ``cells`` of ``n`` ``w``-bit blocks, with the augmentation
    cell in degree ``-1`` when ``augmented``.  A simplicial complex is the
    case ``n == 1``: a face is one block, the bitmask of its vertex
    positions.

    The facets of a cell are its faces under :func:`digraph._faces` that
    are among ``cells``; the others are skipped.  Dropping member bit
    ``b`` from cell ``c`` has sign :func:`_sign`,
    ``(-1)^popcount(c & ((1 << b) - 1))``: the simplicial sign of the
    cell's members in ascending bit order.  For one block that is the
    usual sign by position.  For a product of simplices it is still an
    incidence function of the regular CW complex (every entry is ±1,
    ``∂∂ = 0``, the two ends of an edge get opposite signs), so the
    homology is the cellular homology (Massey, *A Basic Course in
    Algebraic Topology*, ch. IX).  Every 0-cell has boundary ``1 * ()``,
    the augmentation cell, when there is one.
    """
    index: dict[int, dict[int, int]] = {-1: {-1: 0}} if augmented else {}
    for c in cells:
        level = index.setdefault(c.bit_count() - n, {})
        level[c] = len(level)
    boundaries: dict[int, dict[int, dict[int, int]]] = {}
    if augmented and 0 in index:
        boundaries[0] = {0: dict.fromkeys(range(len(index[0])), 1)}
    for d, level in index.items():
        if d < 1:
            continue
        lower = index.get(d - 1, {})
        rows = boundaries[d] = {}
        for (c, j), faces in zip(level.items(), _faces(level, n, w)):
            for f in faces:
                i = lower.get(f)
                if i is not None:
                    rows.setdefault(i, {})[j] = _sign(c, f)
    return {d: len(level) for d, level in index.items()}, boundaries


def homology_of_poset(p: Poset | HomPoset, cap: int = DEFAULT_CAP) -> HomologyGroups:
    """Reduced homology of a poset's order complex.

    A :class:`HomPoset` is the face poset of the hom complex, so its order
    complex is the hom complex subdivided: the homology is computed from
    the Morse complex of the hom complex's cells (one per
    multihomomorphism, a product of simplices), and no order complex is
    built.  ``cap`` then plays no part, since :func:`hom_poset` already
    bounded the cells.  When the source has two or more weak components
    and the poset holds every cell of the product of their hom posets, the
    homology is that of each factor combined by :func:`_kunneth`, so the
    product's cells are never listed.  A plain :class:`Poset` goes through
    :func:`order_complex`, which raises :class:`SizeCapExceeded` beyond
    ``cap`` chains.
    """
    if isinstance(p, Poset):
        return reduced_homology(order_complex(p, cap))
    parts = _split(p.source)
    if len(parts) > 1 and len(p):
        # A poset built from cells may hold only some of the product's
        # cells.  It holds them all exactly when the product has no more
        # cells than it, so its size is the cap on the product.
        try:
            factors = _factor_posets(parts, p.target, len(p))
        except SizeCapExceeded:
            pass
        else:
            return _kunneth([homology_of_poset(f) for f in factors])
    return _homology(*_morse_chains(p._packed, p.source.n, p._width))


class LerayCertificate(_Frozen):
    """Outcome of a Leray check; truthy iff the property holds.

    On failure, ``witness_face`` and ``witness_degree`` identify a face
    whose link has nontrivial reduced homology in too high a degree.
    """

    __slots__ = ("holds", "witness_face", "witness_degree")

    def __init__(self, holds: bool, face=None, degree=None):
        object.__setattr__(self, "holds", holds)
        object.__setattr__(self, "witness_face", face)
        object.__setattr__(self, "witness_degree", degree)

    def __bool__(self) -> bool:
        return self.holds

    def __repr__(self) -> str:
        if self.holds:
            return "LerayCertificate(holds)"
        return (
            f"LerayCertificate(fails: link of {set(self.witness_face)} has "
            f"homology in degree {self.witness_degree})"
        )


def is_n_leray(x: SimplicialComplex, n: int) -> LerayCertificate:
    """Check that every link (the empty face included, so the complex
    itself too) has trivial reduced homology in degrees ``>= n``.

    Faces are visited by dimension, then by face key, and the first
    failing one is the witness.  Only the empty face and the intersections
    of facets are visited: the link of any other face is a cone.  The
    link of the empty face is ``x`` itself, so it is tested first, from
    :func:`reduced_homology`, before any intersection is formed.  The
    link of face ``f`` has the facets ``{t ^ f : t ⊇ f}`` over the facets
    ``t``, and its homology comes from :func:`_facet_homology`.
    """
    for d in reduced_homology(x).degrees():
        if d >= n:
            return LerayCertificate(False, frozenset(), d)
    tops = x._tops
    for f in sorted(_meets(tops) - {0}, key=_face_order):
        link = [t ^ f for t in tops if t & f == f]
        for d in _facet_homology(link).degrees():
            if d >= n:
                return LerayCertificate(False, x._face(f), d)
    return LerayCertificate(True)


def _meets(tops: Sequence[int]) -> set[int]:
    """The facet masks ``tops`` and every intersection of two or more."""
    meets = set(tops)
    fresh = meets
    while fresh:
        fresh = {a & t for a in fresh for t in tops} - meets
        meets |= fresh
    return meets
