"""Traced replay: the public calls each ``dihom`` subcommand makes, timed.

For every op the replay makes the same public calls as the matching
``_cmd_*`` in ``dihom.cli``, in the same order, each inside a span.  Spans
stay in memory and are summed into the per-layer metrics at the end.

A composite call is timed as a whole during the replay.  Its inner public
calls are timed again on their own afterwards, outside the replay's wall
time, so the outer call's self time can be derived:
``homology_of_poset`` holds ``as_poset``, ``order_complex`` and
``reduced_homology``; ``reduced_homology`` holds ``ChainComplex``;
``is_acyclic_matching`` holds ``covering_index_pairs``.  Counts come from
return values, so they repeat exactly.

Each replay also returns the output fields it recomputed, which must equal
the untraced CLI output (``drift``).
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

from dihom.cli import parse_digraph
from dihom.complexes import in_neighborhood_complex, order_complex, out_neighborhood_complex
from dihom.constructions import (
    automorphism_group_order,
    enumerate_tournaments,
    sphere_tournament,
    transitive_tournament,
)
from dihom.digraph import VertexMap, enumerate_homomorphisms
from dihom.errors import DihomError
from dihom.homcomplex import hom_one_skeleton, hom_poset
from dihom.homology import ChainComplex, homology_of_poset, is_n_leray, reduced_homology
from dihom.homotopy import (
    bihomotopic,
    dihomotopic,
    find_fold,
    fold,
    is_dismantlable,
    line_homotopic,
)
from dihom.morse import is_acyclic_matching, tournament_matching
from dihom.reconfig import meet_path

LAYERS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "layers.json")


class Tracer:
    """Spans ``(op, name, start, end, raised)`` and counts, in memory."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.op = None

    def call(self, name, fn, *args, **kwargs):
        raised = False
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except DihomError:
            raised = True
            raise
        finally:
            end = time.perf_counter()
            self.spans.append((self.op, name, start, end, raised))

    def count(self, name, n):
        self.counts[name] += n


def _homology_json(h):
    return [{"dim": d, "rank": h.rank(d), "torsion": list(h.torsion(d))} for d in h.degrees()]


def _graph_json(g):
    return {"vertices": g.n, "edges": sorted(map(list, g.edges))}


def _load(t, path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return t.call("cli.parse_digraph", parse_digraph, text)


def _chain_complex(t, x):
    """Inner span: the chain complex that ``reduced_homology(x)`` builds."""
    cc = t.call("homology.chain_complex", ChainComplex, x)
    cells = sum(cc.rank(d) for d in cc.dimensions())
    t.count("homology.chain_cells", cells)
    t.count(
        "homology.boundary_nnz",
        sum(len(row) for d in cc.dimensions() for row in cc.boundary_sparse(d).values()),
    )
    return cells


def _hom(t, argv):
    g, h = _load(t, argv[1]), _load(t, argv[2])
    p = t.call("homcomplex.hom_poset", hom_poset, g, h)
    t.count("homcomplex.cells", len(p))
    values = {
        "cells": len(p),
        "dimension_census": [[d, c] for d, c in sorted(p.dimension_census().items())],
        "euler_characteristic": p.euler_characteristic(),
        "homomorphisms": len(p.minimal_cells()),
        "connected": t.call("homcomplex.is_connected", p.is_connected) if len(p) else False,
        "homology": _homology_json(t.call("homology.homology_of_poset", homology_of_poset, p)),
    }

    def inner():
        poset = t.call("homcomplex.as_poset", p.as_poset)
        x = t.call("complexes.order_complex", order_complex, poset)
        t.count("complexes.order_facets", len(x.facets))
        t.count("homology.order_chain_cells", _chain_complex(t, x))
        t.call("homology.reduced_homology", reduced_homology, x)
        t.count("homology.reduced_homology.calls", 1)

    return values, inner


def _morse(t, argv):
    g, n = _load(t, argv[1]), int(argv[2])
    p = t.call("homcomplex.hom_poset", hom_poset, g, transitive_tournament(n))
    m = t.call("morse.tournament_matching", tournament_matching, g, n, poset=p)
    acyclic = t.call("morse.is_acyclic_matching", is_acyclic_matching, p, m)
    t.count("homcomplex.cells", len(p))
    t.count("morse.pairs", len(m.pairs))
    values = {
        "cells": len(p),
        "pairs": len(m.pairs),
        "critical": [[sorted(s) for s in c.assignments] for c in m.critical],
        "acyclic": acyclic,
    }

    def inner():
        covers = t.call("homcomplex.covering_index_pairs", p.covering_index_pairs)
        t.count("homcomplex.covers", len(covers))

    return values, inner


def _neighborhood(t, g):
    nb = t.call("complexes.out_neighborhood_complex", out_neighborhood_complex, g)
    return nb, lambda: t.count("complexes.faces", len(nb.faces()))


def _reduced(t, x):
    h = t.call("homology.reduced_homology", reduced_homology, x)
    t.count("homology.reduced_homology.calls", 1)
    return h, lambda: _chain_complex(t, x)


def _nbd(t, argv):
    g = _load(t, argv[1])
    nb, faces = _neighborhood(t, g)
    out_facets = sorted(sorted(f) for f in nb.facets)
    in_facets = sorted(sorted(f) for f in in_neighborhood_complex(g).facets)
    euler = t.call("complexes.euler_characteristic", nb.euler_characteristic)
    h, chains = _reduced(t, nb)
    cert = t.call("homology.is_n_leray", is_n_leray, nb, int(argv[3]))
    values = {
        "vertices": list(nb.vertices),
        "out_facets": out_facets,
        "in_facets": in_facets,
        "euler_characteristic": euler,
        "homology": _homology_json(h),
        "leray": {
            "n": int(argv[3]),
            "holds": cert.holds,
            "witness_face": sorted(cert.witness_face) if not cert.holds else None,
            "witness_degree": cert.witness_degree,
        },
    }

    def inner():
        faces()
        chains()

    return values, inner


def _table1(t, argv):
    rows, later = [], []
    for i, g in enumerate(t.call("constructions.enumerate_tournaments", enumerate_tournaments, 5)):
        nb, faces = _neighborhood(t, g)
        h, chains = _reduced(t, nb)
        later += [faces, chains]
        rows.append(
            {
                "index": i,
                "outdegree_sequence": sorted((g.out_degree(v) for v in range(5)), reverse=True),
                "edges": sorted(map(list, g.edges)),
                "homology": _homology_json(h),
            }
        )
    return {"count": len(rows), "tournaments": rows}, lambda: [f() for f in later]


def _tournaments(t, argv):
    ts = t.call("constructions.enumerate_tournaments", enumerate_tournaments, int(argv[1]))
    rows = [
        {
            "edges": sorted(map(list, g.edges)),
            "automorphisms": t.call(
                "constructions.automorphism_group_order", automorphism_group_order, g
            ),
        }
        for g in ts
    ]
    return {"count": len(ts), "tournaments": rows}, None


def _sphere(t, argv):
    g = sphere_tournament(int(argv[1]))
    nb, faces = _neighborhood(t, g)
    values = {"graph": _graph_json(g), "facets": sorted(sorted(f) for f in nb.facets)}
    return values, faces


def _reconfig(t, argv):
    g, n = _load(t, argv[1]), int(argv[2])
    sk = t.call("homcomplex.hom_one_skeleton", hom_one_skeleton, g, transitive_tournament(n))
    t.count("homcomplex.skeleton_edges", len(sk.edges))
    connected = sk.is_connected()
    diameter = None
    if connected:
        diameter = max(
            max(t.call("homcomplex.bfs_distances", sk.bfs_distances, i)) for i in range(len(sk))
        )
    a, b = sk.maps[0], sk.maps[-1]
    path = t.call("reconfig.meet_path", meet_path, a, b, g, n)
    values = {
        "homomorphisms": len(sk),
        "edges": len(sk.edges),
        "connected": connected,
        "diameter": diameter,
        "sample_path": {
            "from": list(a.image),
            "to": list(b.image),
            "length": len(path) - 1,
            "path": [list(m.image) for m in path],
        },
    }
    return values, None


def _homotopy(t, argv):
    g, h = _load(t, argv[1]), _load(t, argv[2])
    f1 = VertexMap(int(x) for x in argv[3].split(","))
    f2 = VertexMap(int(x) for x in argv[4].split(","))
    values = {
        "f": list(f1.image),
        "g": list(f2.image),
        "bihomotopic": t.call("homotopy.bihomotopic", bihomotopic, f1, f2, g, h),
        "dihomotopic": t.call("homotopy.dihomotopic", dihomotopic, f1, f2, g, h),
        "dihomotopic_reverse": t.call("homotopy.dihomotopic", dihomotopic, f2, f1, g, h),
        "line_homotopic": t.call("homotopy.line_homotopic", line_homotopic, f1, f2, g, h),
    }

    def inner():
        maps = t.call("digraph.enumerate_homomorphisms", enumerate_homomorphisms, g, h)
        t.count("homotopy.homs", len(maps))

    return values, inner


def _fold(t, argv):
    g = _load(t, argv[1])
    trace, current = [], g
    while (f := t.call("homotopy.find_fold", find_fold, current)) is not None:
        trace.append(list(f))
        current = fold(current, *f)
    t.count("homotopy.folds", len(trace))
    values = {
        "fold_trace": trace,
        "stiff": _graph_json(current),
        "dismantlable": t.call("homotopy.is_dismantlable", is_dismantlable, g),
    }
    return values, None


REPLAYS = {
    "hom": _hom,
    "morse": _morse,
    "nbd": _nbd,
    "table1": _table1,
    "tournaments": _tournaments,
    "sphere": _sphere,
    "reconfig": _reconfig,
    "homotopy": _homotopy,
    "fold": _fold,
}


def drift(values, stdout):
    """Fields where the replay disagrees with the CLI output."""
    out = json.loads(stdout)
    return sorted(k for k, v in values.items() if out.get(k) != v)


def replay_op(t, i, argv):
    """Replay op ``i``; return its recomputed fields and its wall time,
    which leaves out the inner calls timed after it."""
    t.op = i
    start = time.perf_counter()
    values, inner = REPLAYS[argv[0]](t, argv)
    wall = time.perf_counter() - start
    if inner is not None:
        inner()
    return values, wall


def load_layers():
    with open(LAYERS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def layer_metrics(t, replay_s, cli_s):
    """Every per-layer metric named in ``layers.json``, from the spans."""
    by_name = defaultdict(float)
    for _, name, start, end, _ in t.spans:
        by_name[name] += end - start
    c = t.counts
    derived = {
        # Self times: the outer span minus its inner public calls.
        "homology.snf.s": by_name["homology.reduced_homology"] - by_name["homology.chain_complex"],
        "morse.is_acyclic_matching.s": by_name["morse.is_acyclic_matching"]
        - by_name["homcomplex.covering_index_pairs"],
        "homology.chain_cells_per_cell": c["homology.order_chain_cells"] / c["homcomplex.cells"]
        if c["homology.order_chain_cells"]
        else 0.0,
        "trace.dihom_errors": sum(1 for s in t.spans if s[4]),
        "trace.overhead_ratio": replay_s / cli_s,
    }
    metrics = {}
    for m in load_layers()["metrics"]:
        name = m["name"]
        if name in derived:
            value = derived[name]
        elif m["unit"] == "s":
            value = by_name[name[: -len(".s")]]
        else:
            value = c[name]
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics
