"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests -q``."""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import client  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402


@pytest.mark.parametrize("workload", ["corpus", "recognize"])
def test_same_seed_same_input_bytes(workload, tmp_path):
    first = inputs.write(workload, 7, tmp_path / "a")
    again = inputs.write(workload, 7, tmp_path / "b")
    other = inputs.write(workload, 8, tmp_path / "c")
    assert first == again
    assert (tmp_path / "a" / f"{workload}.g6").read_bytes() == (tmp_path / "b" / f"{workload}.g6").read_bytes()
    assert first[f"{workload}.g6"] != other[f"{workload}.g6"]


def test_corpus_hosts_are_connected_and_within_the_graph6_limit():
    _, stream = inputs.corpus(3)
    assert len(stream) == 200
    for host in stream:
        n, adj = reference.decode(host)
        assert reference.is_connected(adj)
        assert len(reference.bicliques(adj)) <= inputs.MAX_KB_ORDER


def test_class_table_matches_oeis_and_is_canonical():
    rows = inputs.load_classes()
    counts = {}
    for g6, order, _, _ in rows:
        counts[order] = counts.get(order, 0) + 1
        assert checks.canonical(g6) == g6
    assert counts == checks.CLASS_COUNTS


def test_self_time_subtracts_direct_children_only():
    # (id, name, start, end, parent, item): a [0, 10] holds b [1, 4] and
    # c [5, 9]; c holds d [6, 8]; e [20, 21] is a second root.
    spans = [
        (3, "b", 1.0, 4.0, 1, 0),
        (4, "d", 6.0, 8.0, 2, 0),
        (2, "c", 5.0, 9.0, 1, 0),
        (1, "a", 0.0, 10.0, 0, 0),
        (5, "a", 20.0, 21.0, 0, 1),
    ]
    assert tracer.self_times(spans) == pytest.approx({"a": 3.0 + 1.0, "b": 3.0, "c": 2.0, "d": 2.0})


def test_self_time_clips_children_to_the_parent_interval():
    spans = [(2, "child", 8.0, 12.0, 1, 0), (1, "parent", 0.0, 10.0, 0, 0)]
    assert tracer.self_times(spans)["parent"] == pytest.approx(8.0)


def test_tracer_counts_calls_between_modules():
    from biclique_lab import distances, graphs

    t = tracer.Tracer().install()
    try:
        distances.distance_reports(graphs.cycle_graph(6))
    finally:
        t.uninstall()
    assert t.counts["distance_reports"] == 1
    assert t.counts["biclique_graph"] == 1  # distances -> bicliques
    assert t.counts["enumerate_bicliques"] == 1  # bicliques -> bicliques
    assert t.counts["biclique_distance"] == 15
    assert distances.biclique_graph.__module__ == "biclique_lab.bicliques"
    assert not hasattr(distances.biclique_graph, "__wrapped__")


def test_tracer_reports_a_removed_function_as_absent(monkeypatch):
    from biclique_lab import bicliques, recognition

    monkeypatch.delattr(bicliques, "biclique_graph_with_limit")
    monkeypatch.delattr(recognition, "biclique_graph_with_limit")
    t = tracer.Tracer().install()
    t.uninstall()
    assert t.absent == ["bicliques.biclique_graph_with_limit"]
    metrics = tracer.layer_metrics(t.totals(), 1, t.absent)
    assert not [name for name in metrics if name.startswith("bicliques.kb_capped")]
    assert "bicliques.enumerate.calls" in metrics


@pytest.fixture(scope="module")
def corpus_ops():
    host = reference.encode(7, reference.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (0, 3)]))
    return host, client.corpus_item(client.InProcessCli(None), host)


def test_checker_accepts_correct_corpus_outputs(corpus_ops):
    host, ops = corpus_ops
    assert checks.check_item("corpus", host, ops) == []


def test_checker_rejects_a_corrupted_distance_line(corpus_ops):
    host, ops = corpus_ops
    bad = copy.deepcopy(ops)
    lines = bad[1]["stdout"].splitlines()
    lines[-1] = lines[-1].replace('"d_kb":', '"d_kb":1', 1)
    bad[1]["stdout"] = "\n".join(lines) + "\n"
    problems = checks.check_item("corpus", host, bad)
    assert problems and {op for op, _ in problems} == {1}


def test_checker_rejects_a_dropped_biclique(corpus_ops):
    host, ops = corpus_ops
    bad = copy.deepcopy(ops)
    listing = json.loads(bad[0]["stdout"])
    del listing["bicliques"][0]
    bad[0]["stdout"] = json.dumps(listing, separators=(",", ":")) + "\n"
    assert checks.check_item("corpus", host, bad) == [(0, "biclique list differs from the independent enumeration")]


def test_checker_rejects_a_wrong_exit_code(corpus_ops):
    host, ops = corpus_ops
    bad = copy.deepcopy(ops)
    bad[3]["exit"] = 4
    assert checks.check_item("corpus", host, bad) == [(3, "check exited 4")]


def test_checker_rejects_a_wrong_recognize_answer():
    cli = client.InProcessCli(None)
    positive = next(g6 for g6, order, category, _ in inputs.load_classes()
                    if category == "biclique-graph" and order == 4)
    ops = client.recognize_item(cli, positive)
    assert checks.check_item("recognize", positive, ops) == []
    bad = copy.deepcopy(ops)
    bad[0]["stdout"] = bad[0]["stdout"].replace(bad[0]["stdout"].split("\t")[1], "none")
    assert checks.check_item("recognize", positive, bad)


def test_tail_needs_ten_samples_beyond_the_percentile():
    import run

    assert run.tail([float(k) for k in range(1, 201)]) == (95, 190.0)
    assert run.tail([float(k) for k in range(1, 101)]) == (90, 90.0)
    assert run.tail([1.0, 2.0, 3.0]) == (50, 2.0)
