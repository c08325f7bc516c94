"""Tests for the command line front end and the graph text format."""

import argparse
import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dihom
from dihom import (
    DEFAULT_CAP,
    DihomError,
    Digraph,
    Disconnected,
    EmptyHom,
    HomSkeleton,
    MultiHom,
    ParseError,
    SimplicialComplex,
    SizeCapExceeded,
    coproduct,
    diameter,
    directed_cycle,
    directed_path,
    enumerate_tournaments,
    has_homomorphism,
    hom_one_skeleton,
    hom_poset,
    homology_of_poset,
    homotopy_witness_pair,
    is_multihom,
    is_n_leray,
    meet_path,
    out_neighborhood_complex,
    sphere_tournament,
    transitive_tournament,
)
from dihom.cli import (
    _HOMOLOGY_CELL_LIMIT,
    _json,
    build_parser,
    emit_digraph,
    parse_digraph,
    run,
)
from dihom.digraph import _split
from dihom.homcomplex import _factor_posets

from conftest import (
    DATA_DIR,
    digraphs,
    dihom_output,
    loopy_classes,
    nbd_example_digraph,
    oriented_classes,
    pentagon_tournament,
    relabel,
    split_diameter,
    unsplit_diameter,
    unsplit_hom,
    unsplit_homology,
    unsplit_morse,
)


@pytest.fixture
def graph_file(tmp_path):
    counter = iter(range(1000))

    def write(g: Digraph) -> str:
        path = tmp_path / f"graph{next(counter)}.json"
        path.write_text(emit_digraph(g), encoding="utf-8")
        return str(path)

    return write


class TestParse:
    def test_round_trip(self):
        g = Digraph(4, [(0, 1), (3, 2), (1, 1)])
        assert parse_digraph(emit_digraph(g)) == g

    def test_labels_are_accepted_and_ignored(self):
        text = '{"vertices": 2, "edges": [[0, 1]], "labels": ["a", "b"]}'
        assert parse_digraph(text) == Digraph(2, [(0, 1)])

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse_digraph('{"vertices": 2,\n  "edges": [[0, }')
        assert info.value.line == 2
        assert info.value.column is not None

    @pytest.mark.parametrize(
        "text",
        [
            "[1, 2]",
            '{"vertices": 2, "arcs": []}',
            '{"edges": []}',
            '{"vertices": "2"}',
            '{"vertices": true}',
            '{"vertices": -1}',
            '{"vertices": 2, "edges": 7}',
            '{"vertices": 2, "edges": [[0]]}',
            '{"vertices": 2, "edges": [[0, "1"]]}',
            '{"vertices": 2, "edges": [[0, true]]}',
            '{"vertices": 2, "edges": [[0, 1.0]]}',
            '{"vertices": 2, "edges": [[0, [1]]]}',
            '{"vertices": 2, "edges": [[0, 2]]}',
            '{"vertices": 2, "edges": [[0, 1], [0, 1]]}',
            '{"vertices": 2, "edges": [], "labels": ["a"]}',
            '{"vertices": 2, "edges": [], "labels": [1, 2]}',
        ],
        ids=[
            "top-level-array",
            "unknown-field",
            "missing-vertices",
            "string-count",
            "bool-count",
            "negative-count",
            "edges-not-array",
            "short-edge",
            "string-endpoint",
            "bool-endpoint",
            "float-endpoint",
            "nested-endpoint",
            "out-of-range",
            "duplicate-edge",
            "short-labels",
            "non-string-labels",
        ],
    )
    def test_rejected_documents(self, text):
        with pytest.raises(ParseError):
            parse_digraph(text)

    def test_bool_endpoint_error_names_the_entry(self):
        with pytest.raises(ParseError) as info:
            parse_digraph('{"vertices": 2, "edges": [[0, 1], [0, true]]}')
        assert str(info.value) == "edge 1 must be a pair of integers, got [0, True]"

    def test_duplicate_error_names_both_entries(self):
        with pytest.raises(ParseError, match="edge 2 .* duplicates edge 0"):
            parse_digraph('{"vertices": 2, "edges": [[0, 1], [1, 0], [0, 1]]}')

    def test_shipped_fixture_files(self):
        g, h = homotopy_witness_pair()
        source = (DATA_DIR / "witness_source.json").read_text(encoding="utf-8")
        target = (DATA_DIR / "witness_target.json").read_text(encoding="utf-8")
        assert parse_digraph(source) == g
        assert parse_digraph(target) == h


class TestEmit:
    def test_edges_are_sorted(self):
        g = Digraph(3, [(2, 1), (0, 2), (0, 1)])
        doc = json.loads(emit_digraph(g))
        assert doc["edges"] == [[0, 1], [0, 2], [2, 1]]

    def test_trailing_newline(self):
        assert emit_digraph(Digraph(1, [])).endswith("}\n")

    def test_labels_round_trip(self):
        text = emit_digraph(Digraph(2, [(0, 1)]), labels=["in", "out"])
        assert json.loads(text)["labels"] == ["in", "out"]


class _Int(int):
    """An int subclass, which the writer hands to ``json.dumps``."""


# Any code point, lone surrogates included.
json_text = st.text(st.characters(exclude_categories=()))
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(),
    json_text,
)


def _json_containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(st.integers(), max_size=5),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(json_text, children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=3),
    )


json_values = st.recursive(json_scalars, _json_containers, max_leaves=25)


class TestJsonWriter:
    """``cli._json`` against the stdlib's indented encoder."""

    @given(json_values)
    @example({"a\n\"b": ["\u00e9", "\ud800", 2**64, -1, True, None]})
    @example([float("nan"), float("inf"), -float("inf"), 0.1, -0.0])
    @example({"d": {}, "l": [], "t": (), "n": [[], {}, [[]]]})
    @example([_Int(3), {_Int(1): [_Int(2)]}, [1, True, 2]])
    @example({1: "a", 2: {"b": [3]}})
    def test_matches_json_dumps(self, value):
        assert _json(value, "\n") == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize(
        "argv",
        [
            ["hom", "T2", "T4"],
            ["nbd", "NBD", "--check-leray", "1"],
            ["reconfig", "T2", "4"],
            ["homotopy", "T2", "T4", "0,1", "2,3"],
            ["fold", "NBD"],
            ["morse", "T2", "4"],
            ["tournaments", "4"],
            ["table1"],
            ["sphere", "2"],
            ["mycielski", "T2", "3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_stdout_is_the_stdlib_encoding(self, capsys, graph_file, argv):
        graphs = {
            "T2": transitive_tournament(2),
            "T4": transitive_tournament(4),
            "NBD": nbd_example_digraph(),
        }
        argv = [graph_file(graphs[a]) if a in graphs else a for a in argv]
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def run_json(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def run_capture(*argv):
    """Exit code and parsed stdout (``None`` when empty), without capsys."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(list(argv))
    return code, json.loads(out.getvalue()) if out.getvalue() else None


def diamond() -> Digraph:
    return Digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


# DAGs on up to 5 vertices whose labels are shuffled, so arcs may point
# from a higher label to a lower one.
shuffled_dags = st.integers(0, 5).flatmap(
    lambda n: st.tuples(
        st.permutations(range(n)),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n)
        if n
        else st.just([]),
    )
).map(
    lambda pe: Digraph(
        len(pe[0]), [(pe[0][min(u, v)], pe[0][max(u, v)]) for u, v in pe[1] if u != v]
    )
)


# Two disjoint arcs: the target of a disconnected hom complex.
TWO_ARCS = Digraph(4, [(0, 1), (2, 3)])


class TestRunHom:
    def test_tournament_pair(self, capsys, graph_file):
        src = graph_file(transitive_tournament(2))
        dst = graph_file(transitive_tournament(4))
        out = run_json(capsys, "hom", src, dst)
        assert out["cells"] == 17
        assert out["homomorphisms"] == 6
        assert out["dimension_census"] == [[0, 6], [1, 8], [2, 3]]
        assert out["euler_characteristic"] == 1
        assert out["connected"] is True
        assert out["homology"] == []

    def test_empty_hom_set_is_reported_not_fatal(self, capsys, graph_file):
        src = graph_file(directed_cycle(3))
        dst = graph_file(transitive_tournament(4))
        out = run_json(capsys, "hom", src, dst)
        assert out["cells"] == 0
        assert out["connected"] is False
        assert out["homology"] is None

    def test_covers_are_built_once(self, capsys, graph_file, monkeypatch):
        calls = []
        original = dihom.HomPoset.covering_index_pairs

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(dihom.HomPoset, "covering_index_pairs", counted)
        src = graph_file(directed_path(3))
        dst = graph_file(transitive_tournament(5))
        out = run_json(capsys, "hom", src, dst)
        assert out["homology"] == []
        assert len(calls) == 0

    def test_connected_needs_no_vertex_maps(self, capsys, graph_file, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("vertex maps built")

        monkeypatch.setattr(dihom.homcomplex, "HomSkeleton", fail)
        monkeypatch.setattr(dihom.digraph.VertexMap, "__init__", fail)
        src = graph_file(directed_path(3))
        out = run_json(capsys, "hom", src, graph_file(directed_cycle(3)))
        assert out["connected"] is False
        out = run_json(capsys, "hom", src, graph_file(transitive_tournament(5)))
        assert out["connected"] is True

    @pytest.mark.parametrize(
        "g, h, connected",
        [
            (directed_path(3), transitive_tournament(5), True),
            # The arc's two maps onto the two arcs share no 1-cell.
            (directed_path(2), TWO_ARCS, False),
            # The point's complex is a simplex, so the arc's factor decides.
            (coproduct(directed_path(2), Digraph(1)), TWO_ARCS, False),
            (coproduct(directed_path(2), Digraph(1)), transitive_tournament(4), True),
        ],
        ids=["connected", "disconnected", "split-disconnected", "split-connected"],
    )
    def test_connected_is_read_off_the_homology(
        self, capsys, graph_file, monkeypatch, g, h, connected
    ):
        def fail(*args, **kwargs):
            raise AssertionError("one-skeleton built")

        monkeypatch.setattr(dihom.homcomplex, "_skeleton", fail)
        out = run_json(capsys, "hom", graph_file(g), graph_file(h))
        assert out["homology"] is not None
        assert out["connected"] is connected

    def test_connected_matches_the_skeleton_over_the_catalogues(self):
        looped = Digraph(3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2)])
        targets = [
            transitive_tournament(3),
            directed_cycle(3),
            pentagon_tournament(),
            looped,
            TWO_ARCS,
        ]
        sources = [g for n in range(1, 4) for g in loopy_classes(n)]
        sources += [g for n in range(2, 5) for g in oriented_classes(n)]
        # Per route (homology or skeleton), how often each answer came up.
        seen = Counter()
        for g in sources:
            for h in targets:
                code, out, _ = dihom_output("hom", [g, h], cap=20_000)
                if code:
                    continue
                out = json.loads(out)
                posets = _factor_posets(_split(g), h, 20_000)
                assert out["connected"] is all(p.is_connected() for p in posets)
                seen[out["homology"] is not None, out["connected"]] += 1
        assert seen == {
            (True, True): 132,
            (True, False): 185,
            (False, True): 1,
            (False, False): 513,
        }

    def test_above_the_homology_limit_connected_comes_from_the_skeleton(
        self, capsys, graph_file, monkeypatch
    ):
        calls = []
        skeleton = dihom.homcomplex._skeleton

        def counted(*args):
            calls.append(args)
            return skeleton(*args)

        monkeypatch.setattr(dihom.homcomplex, "_skeleton", counted)
        # Every nonempty subset of a loopless target is a cell of a point.
        out = run_json(capsys, "hom", graph_file(Digraph(1)), graph_file(Digraph(12)))
        assert out["cells"] == 4095 > _HOMOLOGY_CELL_LIMIT
        assert out["homology"] is None
        assert out["connected"] is True
        assert len(calls) == 1

    def test_former_order_complex_blow_up_finishes(self, capsys, graph_file):
        # 255 cells: its order complex took minutes to reduce.
        src = graph_file(Digraph(3, [(0, 1)]))
        dst = graph_file(transitive_tournament(4))
        out = run_json(capsys, "hom", src, dst)
        assert out["cells"] == 255
        assert out["homology"] == []

    def test_cap_bounds_cells_not_order_complex_chains(self, capsys, graph_file):
        src = graph_file(Digraph(3, [(0, 1)]))
        dst = graph_file(transitive_tournament(4))
        out = run_json(capsys, "--cap", "300", "hom", src, dst)
        assert out["homology"] == []

    def test_cap_exceeded_is_a_domain_error(self, capsys, graph_file):
        src = graph_file(transitive_tournament(2))
        dst = graph_file(transitive_tournament(4))
        assert run("--cap 5".split() + ["hom", src, dst]) == 1
        assert "error:" in capsys.readouterr().err


class TestRunNbd:
    def test_facets_and_homology(self, capsys, graph_file):
        path = graph_file(nbd_example_digraph())
        out = run_json(capsys, "nbd", path)
        assert out["out_facets"] == [[0, 1, 3], [0, 2, 3]]
        assert out["in_facets"] == [[0, 2], [1, 2, 4], [2, 3, 4]]
        assert out["homology"] == []
        assert out["euler_characteristic"] == 1

    def test_leray_witness(self, capsys, graph_file):
        path = graph_file(nbd_example_digraph())
        out = run_json(capsys, "nbd", path, "--check-leray", "0")
        assert out["leray"] == {
            "n": 0,
            "holds": False,
            "witness_face": [0, 3],
            "witness_degree": 0,
        }

    def test_leray_pass(self, capsys, graph_file):
        path = graph_file(nbd_example_digraph())
        out = run_json(capsys, "nbd", path, "--check-leray", "1")
        assert out["leray"]["holds"] is True
        assert out["leray"]["witness_face"] is None

    @pytest.mark.parametrize(
        "g",
        [
            Digraph(0),
            Digraph(3),
            nbd_example_digraph(),
            directed_cycle(4),
            sphere_tournament(2),
            Digraph(6, [(0, 1), (0, 2), (3, 4), (3, 5), (1, 2), (4, 5)]),
        ],
    )
    def test_euler_characteristic_matches_the_face_count(self, capsys, graph_file, g):
        # The command reads it off the homology; the face count is the oracle.
        out = run_json(capsys, "nbd", graph_file(g))
        assert out["euler_characteristic"] == out_neighborhood_complex(g).euler_characteristic()

    def test_euler_characteristic_of_the_empty_face_is_an_int(self, capsys, graph_file):
        # Two points and no arc: the complex {∅}, whose one degree is -1.
        assert run(["nbd", graph_file(Digraph(2))]) == 0
        assert '"euler_characteristic": 0,' in capsys.readouterr().out

    def test_large_transitive_tournament_enumerates_no_faces(
        self, capsys, graph_file, monkeypatch
    ):
        # One facet of 39 vertices: expanding it would mean 2^39 faces.
        def fail(*args, **kwargs):
            raise AssertionError("faces enumerated")

        monkeypatch.setattr(SimplicialComplex, "_face_masks", fail)
        path = graph_file(transitive_tournament(40))
        out = run_json(capsys, "nbd", path, "--check-leray", "1")
        assert out["euler_characteristic"] == 1
        assert out["homology"] == []
        assert out["leray"]["holds"] is True


def _leray_block(g: Digraph, n: int) -> dict:
    """The ``leray`` block of ``dihom nbd --check-leray n`` on ``g``."""
    code, out, err = dihom_output("nbd", [g], ["--check-leray", n])
    assert code == 0, err
    return json.loads(out)["leray"]


def _certificate(g: Digraph, n: int) -> dict:
    cert = is_n_leray(out_neighborhood_complex(g), n)
    face = None if cert.holds else sorted(cert.witness_face)
    return {
        "n": n,
        "holds": cert.holds,
        "witness_face": face,
        "witness_degree": cert.witness_degree,
    }


class TestNbdLeray:
    """The command's Leray block is the library's certificate."""

    @pytest.mark.parametrize("index", range(12))
    def test_five_vertex_tournaments(self, index):
        t = enumerate_tournaments(5)[index]
        for n in range(-1, 4):
            assert _leray_block(t, n) == _certificate(t, n)

    @given(digraphs(6))
    @settings(max_examples=60, deadline=None)
    def test_random_digraphs(self, g):
        for n in range(-1, 4):
            assert _leray_block(g, n) == _certificate(g, n)

    def _facet_homology_calls(self, monkeypatch, g: Digraph) -> tuple[list, dict]:
        calls = []
        real = dihom.homology._facet_homology

        def record(tops):
            calls.append(list(tops))
            return real(tops)

        monkeypatch.setattr(dihom.homology, "_facet_homology", record)
        return calls, _leray_block(g, 1)

    @pytest.mark.parametrize(
        "g",
        [nbd_example_digraph(), *enumerate_tournaments(5)],
        ids=["example", *(f"T5-{i}" for i in range(12))],
    )
    def test_whole_complex_homology_is_computed_once(self, monkeypatch, g):
        calls, _ = self._facet_homology_calls(monkeypatch, g)
        assert calls.count(out_neighborhood_complex(g)._tops) == 1

    def test_failing_empty_face_forms_no_intersection(self, monkeypatch):
        def fail(tops):
            raise AssertionError("intersections of facets formed")

        monkeypatch.setattr(dihom.homology, "_meets", fail)
        g = sphere_tournament(1)  # a circle: the complex fails at its empty face
        calls, leray = self._facet_homology_calls(monkeypatch, g)
        assert (leray["witness_face"], leray["witness_degree"]) == ([], 1)
        assert calls == [out_neighborhood_complex(g)._tops]


class TestRunFold:
    def test_tailed_cycle(self, capsys, graph_file):
        path = graph_file(Digraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)]))
        out = run_json(capsys, "fold", path)
        assert out["fold_trace"] == [[3, 0]]
        assert out["stiff"] == {"vertices": 3, "edges": [[0, 1], [1, 2], [2, 0]]}
        assert out["dismantlable"] is False


class TestRunReconfig:
    def test_edge_into_triangle(self, capsys, graph_file):
        path = graph_file(transitive_tournament(2))
        out = run_json(capsys, "reconfig", path, "3")
        assert out["homomorphisms"] == 3
        assert out["edges"] == 2
        assert out["connected"] is True
        assert out["diameter"] == 2
        assert out["sample_path"]["path"] == [[0, 1], [0, 2], [1, 2]]
        assert out["sample_path"]["length"] == 2

    def test_no_homomorphisms(self, capsys, graph_file):
        path = graph_file(directed_cycle(3))
        assert run(["reconfig", path, "4"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_source_is_reported_before_any_search(
        self, capsys, graph_file, monkeypatch
    ):
        # A 40-vertex path into T_39 has no homomorphism; a search that
        # ran first would not finish.
        def fail(*args, **kwargs):
            raise AssertionError("hom search ran")

        monkeypatch.setattr(dihom.cli, "_multihoms", fail)
        for g, n in [
            (directed_path(40), 39),
            (directed_cycle(3), 3),
            (Digraph(1, [(0, 0)]), 2),
        ]:
            assert run(["reconfig", graph_file(g), str(n)]) == 1
            err = f"error: no homomorphisms into the transitive tournament T_{n}\n"
            assert capsys.readouterr() == ("", err)
        # A bad n is still reported first.
        assert run(["reconfig", graph_file(directed_cycle(3)), "0"]) == 1
        err = "error: transitive tournament needs n >= 1, got 0\n"
        assert capsys.readouterr() == ("", err)

    def test_seeded_sample(self, capsys, graph_file):
        path = graph_file(transitive_tournament(2))
        first = run_json(capsys, "--seed", "5", "reconfig", path, "4")
        second = run_json(capsys, "--seed", "5", "reconfig", path, "4")
        assert first == second

    @settings(max_examples=80, deadline=None)
    @given(shuffled_dags, st.integers(1, 6), st.integers(0, 99))
    @example(Digraph(0), 3, 0)
    @example(Digraph(3), 4, 7)
    @example(Digraph(2, [(0, 1), (1, 1)]), 4, 1)
    @example(directed_cycle(3), 5, 2)
    def test_closed_form_matches_the_skeleton(self, g, n, seed):
        # The CLI reads its answer off the maps; the one-skeleton with a
        # BFS from every map is the oracle, quadratic in the map count.
        t = transitive_tournament(n)
        sk = hom_one_skeleton(g, t)
        assume(len(sk) <= 300)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "g.json")
            path.write_text(emit_digraph(g), encoding="utf-8")
            plain = run_capture("reconfig", str(path), str(n))
            seeded = run_capture("--seed", str(seed), "reconfig", str(path), str(n))
        if len(sk) == 0:
            assert plain[0] == seeded[0] == 1
            with pytest.raises(EmptyHom):
                diameter(g, t)
            return
        rng = random.Random(seed)
        ends = [(sk.maps[0], sk.maps[-1]), (rng.choice(sk.maps), rng.choice(sk.maps))]
        for (code, out), (a, b) in zip((plain, seeded), ends):
            assert code == 0
            assert out["homomorphisms"] == len(sk)
            assert out["edges"] == len(sk.edges)
            assert out["connected"] is sk.is_connected()
            assert out["diameter"] == diameter(g, t)
            assert out["sample_path"] == {
                "from": list(a.image),
                "to": list(b.image),
                "length": sum(x != y for x, y in zip(a.image, b.image)),
                "path": [list(m.image) for m in meet_path(a, b, g, n)],
            }

    def test_one_search_and_no_skeleton(self, capsys, graph_file, monkeypatch):
        calls = []
        for module in (dihom.digraph, dihom.homcomplex, dihom.cli):
            original = module._multihoms

            def counted(*args, _original=original, **kwargs):
                calls.append(kwargs)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, "_multihoms", counted)

        def fail(*args, **kwargs):
            raise AssertionError("skeleton route taken")

        for module in (dihom.homcomplex, dihom.reconfig, dihom.cli):
            for name in ("hom_one_skeleton", "_skeleton"):
                monkeypatch.setattr(module, name, fail, raising=False)
        monkeypatch.setattr(HomSkeleton, "bfs_distances", fail)
        out = run_json(capsys, "reconfig", graph_file(diamond()), "6")
        assert out["homomorphisms"] == 50
        assert out["edges"] == 150
        assert calls == [{"max_dim": 0, "limit": DEFAULT_CAP + 1}]

    @settings(max_examples=40, deadline=None)
    @given(shuffled_dags, st.integers(3, 5))
    @example(diamond(), 5)
    def test_edges_are_the_one_cells(self, g, n):
        # Brute force: every mask tuple with one block of two values and
        # single values elsewhere that is a multihomomorphism.
        t = transitive_tournament(n)
        singles = [1 << a for a in range(n)]
        pairs = [1 << a | 1 << b for a, b in itertools.combinations(range(n), 2)]
        blocks = [[pairs if u == v else singles for u in range(g.n)] for v in range(g.n)]
        one_cells = sum(
            is_multihom(MultiHom._from_masks(masks), g, t)
            for choice in blocks
            for masks in itertools.product(*choice)
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "g.json")
            path.write_text(emit_digraph(g), encoding="utf-8")
            code, out = run_capture("reconfig", str(path), str(n))
        if code:
            assert not has_homomorphism(g, t)
        else:
            assert out["edges"] == one_cells

    def test_diamond_into_a_large_tournament(self, capsys, graph_file):
        # A BFS from every map took more than a minute here.
        out = run_json(capsys, "reconfig", graph_file(diamond()), "18")
        assert out["homomorphisms"] == 6936
        assert out["edges"] == 104_040
        assert out["connected"] is True
        assert out["diameter"] == 4

    def test_cap_bounds_the_cells(self, capsys, graph_file):
        # The diamond into T_6 has 50 maps and 150 edges: 200 cells.
        path = graph_file(diamond())
        assert run_json(capsys, "--cap", "200", "reconfig", path, "6")["edges"] == 150
        for cap in ("199", "5", "0", "-1"):
            assert run(["--cap", cap, "reconfig", path, "6"]) == 1
            assert "exceeds cap" in capsys.readouterr().err


class TestRunHomotopy:
    def test_witness_pair_relations(self, capsys, graph_file):
        g, h = homotopy_witness_pair()
        src, dst = graph_file(g), graph_file(h)
        out = run_json(capsys, "homotopy", src, dst, "0,1", "3,2")
        assert out == {
            "f": [0, 1],
            "g": [3, 2],
            "bihomotopic": False,
            "dihomotopic": True,
            "dihomotopic_reverse": False,
            "line_homotopic": True,
        }

    def test_non_homomorphism_is_a_domain_error(self, capsys, graph_file):
        g, h = homotopy_witness_pair()
        src, dst = graph_file(g), graph_file(h)
        assert run(["homotopy", src, dst, "0,0", "3,2"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_map(self, capsys, graph_file):
        g, h = homotopy_witness_pair()
        src, dst = graph_file(g), graph_file(h)
        assert run(["homotopy", src, dst, "zero,one", "3,2"]) == 1

    def test_homomorphisms_are_enumerated_once(self, capsys, graph_file, monkeypatch):
        # Every hom search goes through _multihoms, and hom_one_skeleton
        # makes a search of its own, so a single 0-cell search also rules
        # the skeleton out.
        calls = []
        for module in (dihom.digraph, dihom.homcomplex, dihom.homotopy):
            original = module._multihoms

            def counted(*args, _original=original, **kwargs):
                calls.append(kwargs)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, "_multihoms", counted)
        g, h = homotopy_witness_pair()
        src, dst = graph_file(g), graph_file(h)
        run_json(capsys, "homotopy", src, dst, "0,1", "3,2")
        assert calls == [{"max_dim": 0, "limit": DEFAULT_CAP + 1}]
        run_json(capsys, "--cap", "6", "homotopy", src, dst, "0,1", "3,2")
        assert calls[1:] == [{"max_dim": 0, "limit": 7}]

    def test_cap_bounds_the_maps(self, capsys, graph_file):
        # The witness pair has 6 homomorphisms.
        g, h = homotopy_witness_pair()
        src, dst = graph_file(g), graph_file(h)
        assert run_json(capsys, "--cap", "6", "homotopy", src, dst, "0,1", "3,2")[
            "dihomotopic"
        ]
        for cap in ("5", "3", "0", "-1"):
            assert run(["--cap", cap, "homotopy", src, dst, "0,1", "3,2"]) == 1
            assert f"exceeds cap of {cap} maps" in capsys.readouterr().err


class TestRunCatalogues:
    def test_table1_lists_all_twelve(self, capsys):
        out = run_json(capsys, "table1")
        assert out["count"] == 12
        rows = out["tournaments"]
        assert [r["index"] for r in rows] == list(range(12))
        cyclic = [r for r in rows if r["outdegree_sequence"] == [2, 2, 2, 2, 2]]
        assert len(cyclic) == 1
        assert cyclic[0]["homology"] == [{"dim": 1, "rank": 1, "torsion": []}]

    def test_tournament_count(self, capsys):
        out = run_json(capsys, "tournaments", "4")
        assert out["count"] == 4
        assert all(len(t["edges"]) == 6 for t in out["tournaments"])

    def test_mycielski_sizes(self, capsys, graph_file):
        path = graph_file(directed_cycle(3))
        assert run_json(capsys, "mycielski", path, "1")["vertices"] == 7
        assert run_json(capsys, "mycielski", path, "3")["vertices"] == 5

    def test_sphere_facets(self, capsys):
        out = run_json(capsys, "sphere", "1")
        assert out["graph"]["vertices"] == 5
        assert out["facets"] == [[0, 1], [0, 2, 3], [0, 4], [1, 2]]


class TestRunMorse:
    def test_edgeless_pair(self, capsys, graph_file):
        path = graph_file(Digraph(2, []))
        out = run_json(capsys, "morse", path, "2")
        assert out == {
            "cells": 9,
            "pairs": 4,
            "critical": [[[1], [1]]],
            "acyclic": True,
        }

    def test_back_pointing_fan(self, capsys, graph_file):
        # Arcs point back to lower labels; a search in label order took
        # half a minute here.
        path = graph_file(Digraph(5, [(1, 4), (4, 2), (4, 3)]))
        out = run_json(capsys, "morse", path, "6")
        assert out["cells"] == 35_343
        assert out["critical"] == [[[5], [3], [5], [5], [4]]]
        assert out["acyclic"] is True

    def test_cycle_source_is_a_domain_error(self, capsys, graph_file):
        path = graph_file(directed_cycle(3))
        assert run(["morse", path, "3"]) == 1
        assert "cycle" in capsys.readouterr().err

    def test_bad_source_is_reported_before_any_search(
        self, capsys, graph_file, monkeypatch
    ):
        # A 40-vertex path into T_39 has no homomorphism; a search that
        # ran first would not finish.
        def fail(*args, **kwargs):
            raise AssertionError("hom search ran")

        monkeypatch.setattr(dihom.homcomplex, "_multihoms", fail)
        monkeypatch.setattr(dihom.morse, "hom_poset", fail)
        assert run(["morse", graph_file(directed_path(40)), "39"]) == 1
        assert "longest directed path has 40 vertices" in capsys.readouterr().err
        assert run(["morse", graph_file(directed_cycle(3)), "3"]) == 1
        assert "cycle" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "g,n,message",
        [
            (directed_path(3), "0", "transitive tournament needs n >= 1, got 0"),
            (directed_cycle(3), "0", "transitive tournament needs n >= 1, got 0"),
            (Digraph(2, [(0, 1)]), "65", "at most 64 vertices supported, got 65"),
        ],
    )
    def test_bad_tournament_size_is_reported_first(
        self, capsys, graph_file, g, n, message
    ):
        assert run(["morse", graph_file(g), n]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def decoded_views(self, capsys, graph_file, monkeypatch, g):
        """``dihom morse g 4``'s critical cells, with the masks of every
        cell view it decodes; no sort key and no covers pass may run."""
        calls = {"key": 0, "covers": 0}
        key, covers = dihom.MultiHom.key, dihom.HomPoset.covering_index_pairs
        from_masks = dihom.MultiHom._from_masks
        views = []

        def counted_key(self):
            calls["key"] += 1
            return key(self)

        def counted_covers(self):
            calls["covers"] += 1
            return covers(self)

        def counted_from_masks(cls, masks):
            views.append(masks)
            return from_masks(masks)

        monkeypatch.setattr(dihom.MultiHom, "key", counted_key)
        monkeypatch.setattr(dihom.HomPoset, "covering_index_pairs", counted_covers)
        monkeypatch.setattr(
            dihom.MultiHom, "_from_masks", classmethod(counted_from_masks)
        )
        out = run_json(capsys, "morse", graph_file(g), "4")
        assert out["acyclic"] is True
        assert calls == {"key": 0, "covers": 0}
        return out["critical"], views

    def test_packed_cells_need_no_sort_key_and_one_covers_pass(
        self, capsys, graph_file, monkeypatch
    ):
        g = Digraph(4, [(0, 1), (2, 3)])
        critical, views = self.decoded_views(capsys, graph_file, monkeypatch, g)
        assert critical == [[[2], [3], [2], [3]]]
        # Two weak components: only each factor's critical cell is decoded.
        assert views == [(0b0100, 0b1000), (0b0100, 0b1000)]

    def test_connected_source_decodes_one_critical_cell(
        self, capsys, graph_file, monkeypatch
    ):
        g = Digraph(4, [(0, 1), (2, 3), (0, 3)])
        critical, views = self.decoded_views(capsys, graph_file, monkeypatch, g)
        assert critical == [[[2], [3], [2], [3]]]
        # Only the critical cell of the whole poset is decoded.
        assert views == [(0b0100, 0b1000, 0b0100, 0b1000)]


@st.composite
def coproducts(draw, first: st.SearchStrategy, second: st.SearchStrategy) -> Digraph:
    """A disjoint union of two drawn graphs under a drawn relabelling, so
    the weak components interleave."""
    g = coproduct(draw(first), draw(second))
    return relabel(g, draw(st.permutations(range(g.n))))


class TestSplitSources:
    """``dihom hom``, ``dihom morse``, :func:`homology_of_poset` and
    :func:`diameter` answer a source of two or more weak components from
    the factors; the whole poset is the oracle."""

    @settings(max_examples=150, deadline=None)
    @given(coproducts(digraphs(3), digraphs(2)), digraphs(4))
    @example(coproduct(Digraph(1), directed_cycle(3)), transitive_tournament(4))
    @example(Digraph(2, [(0, 0)]), Digraph(2, [(0, 0), (1, 1)]))
    def test_hom_matches_the_unsplit_route(self, g, h):
        code, out, err = dihom_output("hom", [g, h], cap=3000)
        try:
            expected = unsplit_hom(g, h, 3000)
        except SizeCapExceeded as e:
            assert (code, out, err) == (1, "", f"error: {e}\n")
            return
        assert code == 0 and json.loads(out) == expected
        p = hom_poset(g, h, 3000)
        assert homology_of_poset(p) == unsplit_homology(p)
        if len(p.minimal_cells()) <= 200:
            assert split_diameter(g, h) == unsplit_diameter(g, h)

    @settings(max_examples=100, deadline=None)
    @given(coproducts(shuffled_dags, shuffled_dags), st.integers(1, 5))
    def test_morse_matches_the_unsplit_route(self, g, n):
        code, out, err = dihom_output("morse", [g], [n], cap=20_000)
        try:
            expected = unsplit_morse(g, n, 20_000)
        except DihomError as e:
            assert (code, out, err) == (1, "", f"error: {e}\n")
            return
        assert code == 0 and json.loads(out) == expected

    def test_errors_come_from_the_whole_source_before_any_search(
        self, capsys, graph_file, monkeypatch
    ):
        def fail(*args, **kwargs):
            raise AssertionError("hom search ran")

        monkeypatch.setattr(dihom.homcomplex, "_multihoms", fail)
        # The first factor alone would report 3 vertices.
        g = coproduct(directed_path(3), directed_path(5))
        assert run(["morse", graph_file(g), "4"]) == 1
        assert "longest directed path has 5 vertices" in capsys.readouterr().err
        g = coproduct(directed_path(2), directed_cycle(3))
        assert run(["morse", graph_file(g), "4"]) == 1
        assert "cycle" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["hom", "morse"])
    def test_product_over_the_cap_keeps_the_message(self, command, graph_file, capsys):
        # Two points into T_4: 15 cells each, 225 in the product.
        g, t = Digraph(2), transitive_tournament(4)
        args = [graph_file(t)] if command == "hom" else ["4"]
        assert run(["--cap", "224", command, graph_file(g), *args]) == 1
        with pytest.raises(SizeCapExceeded) as e:
            hom_poset(g, t, 224)
        assert capsys.readouterr().err == f"error: {e.value}\n"
        assert run(["--cap", "225", command, graph_file(g), *args]) == 0
        assert json.loads(capsys.readouterr().out)["cells"] == 225

    def test_an_empty_factor_wins_over_one_above_the_cap(self, capsys, graph_file):
        # The point has 15 cells into T_4, above the cap; the triangle has
        # none, so neither has the whole source.
        g = coproduct(Digraph(1), directed_cycle(3))
        t = transitive_tournament(4)
        out = run_json(capsys, "--cap", "10", "hom", graph_file(g), graph_file(t))
        assert out == unsplit_hom(g, t, 10)
        assert out["cells"] == 0 and out["homology"] is None

    def test_diameter_checks_every_factor_for_maps_first(self):
        # The arc has two maps into two disjoint arcs, not joined; the
        # triangle has none.
        h = Digraph(4, [(0, 1), (2, 3)])
        with pytest.raises(Disconnected):
            diameter(Digraph(2, [(0, 1)]), h)
        with pytest.raises(EmptyHom):
            diameter(coproduct(Digraph(2, [(0, 1)]), directed_cycle(3)), h)

    def test_diameter_of_points_is_the_sum_of_the_factors(self):
        # 6^5 = 7776 maps: a search from every map took 44 s.
        c6 = Digraph(6, [(u, v) for u in range(6) for v in range(6) if (v - u) % 6 < 4])
        assert diameter(Digraph(1), c6) == 1
        assert diameter(Digraph(5), c6) == 5
        g = coproduct(Digraph(2, [(0, 1)]), Digraph(1))
        assert diameter(g, c6) == diameter(Digraph(2, [(0, 1)]), c6) + 1
        assert diameter(g, c6) == unsplit_diameter(g, c6)


class TestRunPlumbing:
    def test_version(self, capsys):
        assert run(["--version"]) == 0
        assert capsys.readouterr().out.startswith("dihom ")

    def test_usage_error(self, capsys):
        assert run([]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_module_entry_point(self):
        # The package imports the CLI module, so running that module with
        # -m warns; the package's own __main__ must not.
        env = {**os.environ, "PYTHONPATH": str(Path(dihom.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "dihom", "tournaments", "3"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["count"] == 2

    def test_missing_file(self, capsys, tmp_path):
        assert run(["nbd", str(tmp_path / "nope.json")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_deeply_nested_json_is_a_parse_error(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        assert run(["nbd", str(deep)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "deep.json" in err
        assert err.count("\n") == 1

    def test_parse_error_names_the_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vertices": ', encoding="utf-8")
        assert run(["nbd", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "bad.json:1:" in err

    def test_undecodable_file_is_a_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"vertices": 1, "labels": ["\u00e9"]}'.encode("latin-1"))
        assert run(["nbd", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "latin1.json" in err
        assert err.count("\n") == 1

    def test_output_is_byte_identical(self, capsys):
        run(["table1"])
        first = capsys.readouterr().out
        run(["table1"])
        assert capsys.readouterr().out == first

    def test_table_format(self, capsys, graph_file):
        src = graph_file(transitive_tournament(2))
        dst = graph_file(transitive_tournament(4))
        assert run(["--format", "table", "hom", src, dst]) == 0
        out = capsys.readouterr().out
        assert "cells: 17" in out
        assert "{" not in out

    def test_table_format_renders_rows(self, capsys):
        assert run(["--format", "table", "tournaments", "3"]) == 0
        out = capsys.readouterr().out
        assert "count: 2" in out
        assert "automorphisms" in out

    def test_parser_is_built_once_and_build_parser_is_fresh(
        self, capsys, graph_file, monkeypatch
    ):
        built = []
        original = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        path = graph_file(transitive_tournament(2))
        run_json(capsys, "reconfig", path, "3")
        run_json(capsys, "nbd", path)
        assert built.count("dihom") <= 1
        assert build_parser() is not build_parser()

    def test_a_seed_does_not_stick(self, capsys, graph_file):
        path = graph_file(transitive_tournament(2))
        seeded = run_json(capsys, "--seed", "3", "reconfig", path, "5")
        plain = run_json(capsys, "reconfig", path, "5")
        ns = build_parser().parse_args(["reconfig", path, "5"])
        assert plain == ns.func(ns)
        # Unseeded, the sample path runs from the first map to the last.
        assert plain["sample_path"]["from"] == [0, 1]
        assert plain["sample_path"]["to"] == [3, 4]
        assert seeded["sample_path"] != plain["sample_path"]

    def test_check_leray_does_not_stick(self, capsys, graph_file):
        path = graph_file(nbd_example_digraph())
        assert "leray" in run_json(capsys, "nbd", path, "--check-leray", "1")
        assert "leray" not in run_json(capsys, "nbd", path)

    def test_table_format_does_not_stick(self, capsys):
        assert run(["--format", "table", "tournaments", "3"]) == 0
        assert "{" not in capsys.readouterr().out
        assert run_json(capsys, "tournaments", "3")["count"] == 2

    def test_errors_leave_the_parser_usable(self, capsys, graph_file):
        src = graph_file(transitive_tournament(2))
        dst = graph_file(transitive_tournament(4))
        assert run(["--cap", "5", "hom", src, dst]) == 1
        assert "exceeds cap of 5" in capsys.readouterr().err
        assert run(["hom", src]) == 2
        assert "usage:" in capsys.readouterr().err
        out = run_json(capsys, "hom", src, dst)
        assert out["cells"] == 17
        assert out["connected"] is True
