"""Seeded, size-banded inputs for the benchmark workloads.

Every workload is a list of ops.  An op is one ``dihom`` command line: its
``argv`` names graph files as ``@name`` placeholders, ``graphs`` holds the
JSON documents behind them, and ``expect`` holds facts the generator
computed on its own (never through ``dihom``) for the oracle to check.

Each generator draws random candidates and keeps them only while the band
of its size predictor still has room.  The predictor is a quantity the
generator can compute cheaply and that tracks the op's cost: order-complex
chains for ``hom``, cells plus prefix visits for ``morse``, faces and the
1-Leray property for ``nbd``, homomorphism counts for ``homotopy`` and
``reconfig``.  Fixed quotas per band give every
seed a pass of the same shape, so run-to-run spread comes from the code and
the machine, not from one unlucky draw.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from functools import lru_cache

# --------------------------------------------------------------------------
# Graphs: (n, sorted tuple of arcs)
# --------------------------------------------------------------------------


def graph(n, edges):
    return (n, tuple(sorted(set(edges))))


def doc(g):
    n, edges = g
    return {"vertices": n, "edges": [list(e) for e in edges]}


def relabel(rng, g):
    n, edges = g
    perm = list(range(n))
    rng.shuffle(perm)
    return graph(n, ((perm[u], perm[v]) for u, v in edges))


def random_oriented(rng, n, density):
    """Each pair gets one arc, in a random direction, with probability
    ``density``; ``density = 1`` gives a tournament."""
    edges = []
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < density:
            edges.append((i, j) if rng.random() < 0.5 else (j, i))
    return graph(n, edges)


def random_dag(rng, n, density):
    order = list(range(n))
    rng.shuffle(order)
    edges = [
        (order[i], order[j])
        for i, j in itertools.combinations(range(n), 2)
        if rng.random() < density
    ]
    return graph(n, edges)


def transitive(n):
    return graph(n, itertools.combinations(range(n), 2))


def out_masks(g):
    n, edges = g
    out = [0] * n
    for u, v in edges:
        out[u] |= 1 << v
    return out


def in_masks(g):
    n, edges = g
    inn = [0] * n
    for u, v in edges:
        inn[v] |= 1 << u
    return inn


# --------------------------------------------------------------------------
# Independent enumerators (the oracle relies on these, not on dihom)
# --------------------------------------------------------------------------


class _TooBig(Exception):
    pass


def multihom_sizes(src, tgt, limit):
    """Set sizes of every multihomomorphism from the loopless ``src`` to
    ``tgt``, or ``None`` when there are more than ``limit``.

    A multihomomorphism picks a nonempty vertex set ``S(v)`` of ``tgt`` for
    each source vertex with ``S(u) x S(v)`` inside the arcs for every arc
    ``u -> v``.
    """
    sn, sedges = src
    tn = tgt[0]
    neighbours = (out_masks(tgt), in_masks(tgt))
    full = (1 << tn) - 1

    def common(kind, m):
        r = full
        for x in range(tn):
            if m >> x & 1:
                r &= neighbours[kind][x]
        return r

    # Arcs to already-chosen vertices: (u, 0) means u -> v, (u, 1) v -> u.
    earlier = [
        [(u, 0) for u, w in sedges if w == v and u < v]
        + [(w, 1) for u, w in sedges if u == v and w < v]
        for v in range(sn)
    ]
    chosen = [0] * sn
    found = []

    def rec(v):
        if len(found) > limit:
            raise _TooBig
        if v == sn:
            found.append(tuple(m.bit_count() for m in chosen))
            return
        allowed = full
        for u, kind in earlier[v]:
            allowed &= common(kind, chosen[u])
        s = allowed
        while s:
            chosen[v] = s
            rec(v + 1)
            s = (s - 1) & allowed
        chosen[v] = 0

    try:
        rec(0)
    except _TooBig:
        return None
    return found


def cells_into_transitive(dag, n):
    """Number of multihomomorphisms from a DAG into ``T_n``.

    Into ``T_n`` an arc ``u -> v`` asks exactly ``max S(u) < min S(v)``, and
    ``2^(M - m - 1)`` sets have minimum ``m < M`` and maximum ``M``.  So the
    count sums over (min, max) pairs in topological order, remembering
    only the lower bound each later vertex inherits.
    """
    k, arcs = dag
    succ = [[v for u, v in arcs if u == w] for w in range(k)]
    indeg = [sum(1 for _, v in arcs if v == w) for w in range(k)]
    order = []
    todo = [w for w in range(k) if indeg[w] == 0]
    while todo:
        w = todo.pop()
        order.append(w)
        for v in succ[w]:
            indeg[v] -= 1
            if indeg[v] == 0:
                todo.append(v)

    @lru_cache(maxsize=None)
    def count(i, floors):
        if i == k:
            return 1
        v = order[i]
        total = 0
        for lo in range(floors[v] + 1, n):
            for hi in range(lo, n):
                raised = list(floors)
                for s in succ[v]:
                    raised[s] = max(raised[s], hi)
                raised[v] = -1
                total += (1 if hi == lo else 1 << (hi - lo - 1)) * count(
                    i + 1, tuple(raised)
                )
        return total

    return count(0, (-1,) * k)


@lru_cache(maxsize=None)
def chains_topped_by(sizes):
    """Chains of the hom poset whose top cell has these set sizes.

    Everything below a cell is a product of nonempty-subset lattices, so
    the count depends on the sizes alone.
    """
    total = 1
    for sub in itertools.product(*(range(1, s + 1) for s in sizes)):
        if sub != sizes:
            ways = math.prod(math.comb(s, k) for s, k in zip(sizes, sub))
            total += ways * chains_topped_by(tuple(sorted(sub)))
    return total


def homomorphisms(src, tgt):
    """All homomorphisms ``src -> tgt`` as image tuples, lexicographic."""
    sn, sedges = src
    tset = set(tgt[1])
    out = []
    for image in itertools.product(range(tgt[0]), repeat=sn):
        if all((image[u], image[v]) in tset for u, v in sedges):
            out.append(image)
    return out


def neighborhood_faces(g):
    """Nonempty faces of the out-neighborhood complex, as bitmasks."""
    faces = set()
    for m in set(out_masks(g)):
        sub = m
        while sub:
            faces.add(sub)
            sub = (sub - 1) & m
    return faces


def euler_of_faces(faces):
    return sum(1 if f.bit_count() % 2 else -1 for f in faces)


def is_one_leray(faces):
    """Whether the complex with these nonempty faces is 1-Leray.

    A complex is 1-Leray exactly when it is the clique complex of a chordal
    graph (Wegner 1975): every clique of its edge graph is a face, and
    simplicial vertices can be stripped off one at a time.
    """
    adj = {}
    for f in faces:
        if f.bit_count() == 2:
            low = f & -f
            a, b = low.bit_length() - 1, (f ^ low).bit_length() - 1
            adj[a] = adj.get(a, 0) | 1 << b
            adj[b] = adj.get(b, 0) | 1 << a
    for f in faces:
        common = -1
        for v in _bit_list(f):
            common &= adj.get(v, 0)
        if any((f | 1 << v) not in faces for v in _bit_list(common & ~f)):
            return False
    left = sum(1 << v for v in adj)
    while left:
        for v in _bit_list(left):
            near = adj[v] & left
            if all(near & ~adj[u] & ~(1 << u) == 0 for u in _bit_list(near)):
                left &= ~(1 << v)
                break
        else:
            return False
    return True


def _bit_list(mask):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


# --------------------------------------------------------------------------
# Banded drawing
# --------------------------------------------------------------------------


def fill_bands(rng, draw, bands, tries=200_000):
    """Draw candidates until every band holds its quota.

    ``bands`` lists ``(lo, hi, quota)``; ``draw(rng)`` returns
    ``(size, op)`` or ``None``.  A candidate lands in the band with
    ``lo <= size < hi`` if that band still has room, else it is dropped.
    """
    slots = [[] for _ in bands]
    for _ in range(tries):
        if all(len(s) == q for s, (_, _, q) in zip(slots, bands)):
            ops = [o for s in slots for o in s]
            rng.shuffle(ops)
            return ops
        got = draw(rng)
        if got is None:
            continue
        size, o = got
        for s, (lo, hi, q) in zip(slots, bands):
            if lo <= size < hi and len(s) < q:
                o["size"] = size
                s.append(o)
                break
    raise RuntimeError(f"could not fill bands {bands} in {tries} draws")


def op(argv, graphs=None, **expect):
    return {"argv": list(argv), "graphs": graphs or {}, "expect": expect}


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

HOM_SOURCES = {
    "C3": graph(3, [(0, 1), (1, 2), (2, 0)]),
    "C4": graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    "P2": graph(3, [(0, 1), (1, 2)]),
    "P3": graph(4, [(0, 1), (1, 2), (2, 3)]),
    "arc": graph(2, [(0, 1)]),
    "TT3": graph(3, [(0, 1), (1, 2), (0, 2)]),
}
# Order-complex chains (the simplices homology runs on); an op's time grows
# as chains^1.76 to within about 7%.  The median and the 90th percentile
# fall inside the two narrow bands of 30 and 20 ops, and the narrow top
# band keeps a handful of the largest ops from swinging a pass.
HOM_BANDS = [
    (20, 80, 25),
    (80, 220, 20),
    (220, 250, 30),
    (250, 800, 20),
    (900, 1000, 20),
    (1300, 1400, 5),
]


def _draw_hom(rng):
    name = rng.choice(sorted(HOM_SOURCES))
    src = HOM_SOURCES[name]
    tgt = random_oriented(rng, rng.randint(5, 7), rng.choice((1.0, 0.7)))
    # Chains outnumber cells, so the chain band's top bounds the cells too.
    sizes = multihom_sizes(src, tgt, HOM_BANDS[-1][1])
    if not sizes:
        return None
    census = {}
    for s in sizes:
        d = sum(s) - len(s)
        census[d] = census.get(d, 0) + 1
    chains = sum(chains_topped_by(tuple(sorted(s))) for s in sizes)
    return chains, op(
        ["hom", "@src", "@tgt"],
        {"src": src, "tgt": tgt},
        cells=len(sizes),
        census=sorted(census.items()),
    )


def hom_homology(rng):
    return fill_bands(rng, _draw_hom, HOM_BANDS)


# Estimated cost in cells, about 30 microseconds each.  hom_poset assigns
# source vertices in label order and visits every multihomomorphism of
# each vertex prefix, roughly 30 times cheaper than a finished cell; a DAG
# whose arcs point back to low labels visits millions of prefixes for a
# few thousand cells, so the estimate counts them.  The two largest ops
# set the peak memory.
MORSE_BANDS = [
    (500, 1000, 25),
    (1000, 1500, 20),
    (1500, 1800, 30),
    (1800, 3000, 20),
    (3000, 3500, 20),
    (3500, 5000, 5),
    (38000, 39000, 2),
]
PREFIX_VISIT_COST = 1 / 30


def _draw_morse(rng):
    k = rng.randint(3, 5)
    src = random_dag(rng, k, rng.choice((0.3, 0.5, 0.7)))
    n = rng.randint(4, 6)
    cells = cells_into_transitive(src, n)
    prefixes = sum(
        cells_into_transitive(graph(j, (a for a in src[1] if max(a) < j)), n)
        for j in range(1, k)
    )
    cost = cells + int(prefixes * PREFIX_VISIT_COST)
    return cost, op(["morse", "@dag", str(n)], {"dag": src}, cells=cells)


def morse_sweep(rng):
    return fill_bands(rng, _draw_morse, MORSE_BANDS)


# Nonempty faces of the out-neighborhood complex, banded separately for
# complexes where is_n_leray(x, 1) holds and takes one link homology per
# face, and for those where it fails, mostly at the first face (the empty
# one), costing little.  Holding complexes cluster on full simplices (31,
# 63, 127 faces); the 40 with 63 faces cost the same to within a few
# percent and hold the 90th percentile.
# Complexes of more than 160 faces (an out-neighbourhood of 7 or more
# vertices) cost 40-200 ms each and would set the pass time alone.
NBD_HOLDS_BANDS = [(10, 40, 20), (40, 63, 20), (63, 64, 40), (64, 130, 10)]
NBD_FAILS_BANDS = [(10, 50, 60), (50, 100, 60), (100, 160, 60)]


def _draw_nbd(holds):
    def draw(rng):
        g = random_oriented(rng, rng.randint(6, 9), rng.choice((1.0, 0.8)))
        faces = neighborhood_faces(g)
        if is_one_leray(faces) != holds:
            return None
        return len(faces), op(
            ["nbd", "@g", "--check-leray", "1"],
            {"g": g},
            euler=euler_of_faces(faces),
            leray=holds,
        )

    return draw


def nbd_catalogue(rng):
    ops = fill_bands(rng, _draw_nbd(True), NBD_HOLDS_BANDS)
    ops += fill_bands(rng, _draw_nbd(False), NBD_FAILS_BANDS)
    rng.shuffle(ops)
    fixed = [
        op(["table1"], rows=12),
        op(["tournaments", "6"], count=56),
        op(["sphere", "3"], n=3),
    ]
    for f in fixed:
        ops.insert(rng.randrange(len(ops) + 1), f)
    return ops


def random_digraph(rng, n, density, loops):
    edges = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if (u != v and rng.random() < density) or (u == v and rng.random() < loops)
    ]
    return graph(n, edges)


# homotopy: N^2 (|E| + |V|) for N homomorphisms from the source (V, E),
# since each relation tests every ordered pair of maps on every arc.
# reconfig: N, for a BFS from every map.  Fold ops are cheap and unbanded.
# The 40 largest homotopy ops hold the 90th percentile at their middle,
# and the median falls in the middle band of reconfig ops.
HOMOTOPY_BANDS = [(1500, 6000, 10), (40000, 50000, 40)]
RECONFIG_BANDS = [(10, 40, 30), (40, 60, 60), (60, 120, 20)]
FOLD_OPS = 40


def _draw_homotopy(rng):
    src = relabel(rng, random_dag(rng, rng.randint(2, 3), 0.8))
    tgt = random_digraph(rng, rng.randint(5, 8), 0.45, 0.4)
    maps = homomorphisms(src, tgt)
    if len(maps) < 2:
        return None
    f, g = rng.sample(maps, 2)
    return len(maps) ** 2 * (len(src[1]) + src[0]), op(
        ["homotopy", "@src", "@tgt", ",".join(map(str, f)), ",".join(map(str, g))],
        {"src": src, "tgt": tgt},
    )


def _draw_reconfig(rng):
    src = random_dag(rng, rng.randint(2, 4), 0.5)
    n = rng.randint(3, 7)
    count = len(homomorphisms(src, transitive(n)))
    if count == 0:
        return None
    return count, op(["reconfig", "@dag", str(n)], {"dag": src}, homs=count)


def _draw_fold(rng):
    return random_digraph(rng, rng.randint(5, 10), 0.35, 0.5)


def homotopy_reconfig(rng):
    ops = fill_bands(rng, _draw_homotopy, HOMOTOPY_BANDS)
    ops += fill_bands(rng, _draw_reconfig, RECONFIG_BANDS)
    ops += [op(["fold", "@g"], {"g": _draw_fold(rng)}) for _ in range(FOLD_OPS)]
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "hom-homology": hom_homology,
    "morse-sweep": morse_sweep,
    "nbd-catalogue": nbd_catalogue,
    "homotopy-reconfig": homotopy_reconfig,
}


def generate(workload, seed):
    """The op list of ``workload`` for ``seed``; equal seeds, equal ops."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))


def materialize(ops, workdir):
    """Write every op's graphs under ``workdir``; return the argv lists."""
    argvs = []
    for i, o in enumerate(ops):
        paths = {}
        for name, g in o["graphs"].items():
            path = os.path.join(workdir, f"op{i}-{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc(g), fh)
            paths["@" + name] = path
        argvs.append([paths.get(a, a) for a in o["argv"]])
    return argvs
