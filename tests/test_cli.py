"""Tests for the command line front end and the graph text format."""

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dihom
from dihom import (
    Digraph,
    EmptyHom,
    HomSkeleton,
    ParseError,
    diameter,
    directed_cycle,
    directed_path,
    hom_one_skeleton,
    homotopy_witness_pair,
    meet_path,
    transitive_tournament,
)
from dihom.cli import emit_digraph, parse_digraph, run

from conftest import DATA_DIR, nbd_example_digraph


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
            "out-of-range",
            "duplicate-edge",
            "short-labels",
            "non-string-labels",
        ],
    )
    def test_rejected_documents(self, text):
        with pytest.raises(ParseError):
            parse_digraph(text)

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
        # The CLI reads its answer off the cells; the one-skeleton with a
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
            monkeypatch.setattr(module, "hom_one_skeleton", fail, raising=False)
        monkeypatch.setattr(HomSkeleton, "bfs_distances", fail)
        out = run_json(capsys, "reconfig", graph_file(diamond()), "6")
        assert out["homomorphisms"] == 50
        assert len(calls) == 1 and calls[0]["max_dim"] == 1

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
        # Every hom search goes through _multihoms; hom_one_skeleton asks it
        # for 1-cells, so a single 0-cell search also rules the skeleton out.
        calls = []
        for module in (dihom.digraph, dihom.homcomplex):
            original = module._multihoms

            def counted(*args, _original=original, **kwargs):
                calls.append(kwargs)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, "_multihoms", counted)
        g, h = homotopy_witness_pair()
        src, dst = graph_file(g), graph_file(h)
        run_json(capsys, "homotopy", src, dst, "0,1", "3,2")
        assert calls == [{"max_dim": 0}]


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

    def test_cycle_source_is_a_domain_error(self, capsys, graph_file):
        path = graph_file(directed_cycle(3))
        assert run(["morse", path, "3"]) == 1
        assert "cycle" in capsys.readouterr().err

    def test_packed_cells_need_no_sort_key_and_one_covers_pass(
        self, capsys, graph_file, monkeypatch
    ):
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
        path = graph_file(Digraph(4, [(0, 1), (2, 3)]))
        out = run_json(capsys, "morse", path, "4")
        assert out["acyclic"] is True
        assert out["critical"] == [[[2], [3], [2], [3]]]
        assert calls == {"key": 0, "covers": 0}
        # Only the critical cell is decoded.
        assert views == [(0b0100, 0b1000, 0b0100, 0b1000)]


class TestRunPlumbing:
    def test_version(self, capsys):
        assert run(["--version"]) == 0
        assert capsys.readouterr().out.startswith("dihom ")

    def test_usage_error(self, capsys):
        assert run([]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_missing_file(self, capsys, tmp_path):
        assert run(["nbd", str(tmp_path / "nope.json")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_parse_error_names_the_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vertices": ', encoding="utf-8")
        assert run(["nbd", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "bad.json:1:" in err

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
