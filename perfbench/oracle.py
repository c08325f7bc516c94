"""Correctness checks for one op's output.

Each check takes a route independent of the code being timed: counts the
generator computed on its own, identities between fields (the Euler
characteristic against the homology ranks), or properties the benchmark
re-derives from the input graph.  ``check`` returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import json

from gen import euler_of_faces


def _reduced_euler(homology):
    return sum((-1) ** h["dim"] * h["rank"] for h in homology)


def _hom(op, out):
    e = op["expect"]
    census = dict(map(tuple, out["dimension_census"]))
    problems = []
    if out["cells"] != e["cells"]:
        problems.append(f"cells {out['cells']} != {e['cells']}")
    if out["dimension_census"] != [list(c) for c in e["census"]]:
        problems.append("dimension census differs from the independent count")
    if out["homomorphisms"] != census.get(0, 0):
        problems.append("homomorphisms != cells of dimension 0")
    if out["euler_characteristic"] != sum((-1) ** d * c for d, c in e["census"]):
        problems.append("euler_characteristic differs from the census")
    if out["homology"] is None:
        problems.append("homology was skipped")
    elif _reduced_euler(out["homology"]) != out["euler_characteristic"] - 1:
        problems.append("homology ranks disagree with the Euler characteristic")
    return problems


def _morse(op, out):
    problems = []
    if out["cells"] != op["expect"]["cells"]:
        problems.append(f"cells {out['cells']} != {op['expect']['cells']}")
    if len(out["critical"]) != 1:
        problems.append(f"{len(out['critical'])} critical cells")
    if out["acyclic"] is not True:
        problems.append("matching is not acyclic")
    if 2 * out["pairs"] + 1 != out["cells"]:
        problems.append("2 * pairs + 1 != cells")
    return problems


def _nbd(op, out):
    problems = []
    if out["euler_characteristic"] != op["expect"]["euler"]:
        problems.append("euler_characteristic differs from the independent count")
    if _reduced_euler(out["homology"]) != out["euler_characteristic"] - 1:
        problems.append("homology ranks disagree with the Euler characteristic")
    leray = out["leray"]
    if leray["holds"] != op["expect"]["leray"]:
        problems.append("1-Leray disagrees with the chordal clique complex test")
    if leray["holds"] and any(h["dim"] >= leray["n"] for h in out["homology"]):
        problems.append("Leray holds but the complex has homology in degree >= n")
    return problems


def _table1(op, out):
    rows = op["expect"]["rows"]
    if out["count"] != rows or len(out["tournaments"]) != rows:
        return [f"table1 has {out['count']} rows, expected {rows}"]
    return []


def _tournaments(op, out):
    count = op["expect"]["count"]
    if out["count"] != count or len(out["tournaments"]) != count:
        return [f"{out['count']} tournaments, expected {count}"]
    return []


def _sphere(op, out):
    n = op["expect"]["n"]
    g = out["graph"]
    arcs = {tuple(a) for a in g["edges"]}
    problems = []
    k = g["vertices"]
    if k != 2 * n + 3 or any(
        ((u, v) in arcs) == ((v, u) in arcs)
        for u in range(k)
        for v in range(u + 1, k)
    ):
        problems.append(f"graph is not a tournament on {2 * n + 3} vertices")
    faces = set()
    for f in out["facets"]:
        m = sum(1 << v for v in f)
        sub = m
        while sub:
            faces.add(sub)
            sub = (sub - 1) & m
    if euler_of_faces(faces) != 1 + (-1) ** n:
        problems.append(f"facets do not have the Euler characteristic of S^{n}")
    return problems


def _reconfig(op, out):
    sample = out["sample_path"]
    path = sample["path"]
    problems = []
    if out["homomorphisms"] != op["expect"]["homs"]:
        problems.append("homomorphism count differs from the independent count")
    hamming = sum(a != b for a, b in zip(sample["from"], sample["to"]))
    if sample["length"] != hamming or len(path) != hamming + 1:
        problems.append("sample path length != Hamming distance of its endpoints")
    if not path or path[0] != sample["from"] or path[-1] != sample["to"]:
        problems.append("sample path does not join its endpoints")
    if any(sum(a != b for a, b in zip(p, q)) != 1 for p, q in zip(path, path[1:])):
        problems.append("sample path step changes other than one vertex")
    sources = op["graphs"]["dag"][0]
    if out["diameter"] is None or out["diameter"] > sources:
        problems.append(f"diameter {out['diameter']} exceeds {sources} source vertices")
    return problems


def _homotopy(op, out):
    problems = []
    if out["bihomotopic"] and not (out["dihomotopic"] and out["dihomotopic_reverse"]):
        problems.append("bihomotopic but not dihomotopic both ways")
    if (out["dihomotopic"] or out["dihomotopic_reverse"]) and not out["line_homotopic"]:
        problems.append("dihomotopic but not line-homotopic")
    return problems


def _fold(op, out):
    n = op["graphs"]["g"][0]
    stiff = out["stiff"]
    k = stiff["vertices"]
    outs, ins = [0] * k, [0] * k
    for u, v in stiff["edges"]:
        outs[u] |= 1 << v
        ins[v] |= 1 << u
    problems = []
    nested = [
        (v, w)
        for v in range(k)
        for w in range(k)
        if v != w and outs[v] & ~outs[w] == 0 and ins[v] & ~ins[w] == 0
    ]
    if nested:
        problems.append(f"stiff graph still folds: {nested[0]}")
    if k != n - len(out["fold_trace"]):
        problems.append("stiff vertex count != vertices minus folds")
    if out["dismantlable"] != (k == 1 and stiff["edges"] == [[0, 0]]):
        problems.append("dismantlable disagrees with the stiff graph")
    return problems


CHECKS = {
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


def check(op, stdout):
    """Problems with ``stdout`` as the output of ``op``; empty when correct."""
    try:
        out = json.loads(stdout)
        return CHECKS[op["argv"][0]](op, out)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        return [f"malformed output: {type(e).__name__}: {e}"]
