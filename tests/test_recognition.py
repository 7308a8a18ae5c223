import json
import multiprocessing
import os
import random
import subprocess
import sys
import threading
from functools import partial
from pathlib import Path

import pytest

from biclique_lab import graphs, recognition
from biclique_lab.bicliques import biclique_graph, biclique_graph_with_limit
from biclique_lab.graphs import (
    MAX_CANONICAL_ORDER,
    CapabilityError,
    Graph,
    GraphError,
    _children,
    canonical_form,
    complete_graph,
    cycle_graph,
    enumerate_connected_graphs,
    parse_graph6,
    path_graph,
    permuted,
    write_graph6,
)
from biclique_lab.patterns import CROWN, DIAMOND
from biclique_lab.recognition import (
    BICLIQUE_GRAPH,
    NOT_BICLIQUE_GRAPH,
    UNKNOWN,
    CatalogueEntry,
    build_catalogue,
    compare_with_reference,
    default_reference_path,
    load_catalogue,
    load_reference_positives,
    positive_preimages,
    search_preimage,
    verify_entry,
    write_catalogue,
)

from oracles import first_preimages_oracle


def _count_capped_kb(monkeypatch) -> list:
    """Record every host the preimage sweep computes a capped KB of."""
    calls = []

    def counting(host, cap):
        calls.append(host)
        return biclique_graph_with_limit(host, cap)

    monkeypatch.setattr(recognition, "biclique_graph_with_limit", counting)
    return calls


@pytest.fixture(autouse=True)
def no_suspended_sweeps():
    """Each test starts and leaves without a suspended preimage sweep, so
    what a search computes does not depend on which tests ran before."""
    recognition._SWEEPS.clear()
    yield
    recognition._SWEEPS.clear()


class TestSearchPreimage:
    def test_k3_finds_itself(self):
        host = search_preimage(complete_graph(3), 4)
        assert host is not None
        kb, _ = biclique_graph(host)
        assert canonical_form(kb) == canonical_form(complete_graph(3))

    def test_k3_first_in_generation_order(self):
        # both K3 and the diamond work; generation order decides
        host = search_preimage(complete_graph(3), 4)
        assert host == complete_graph(3)

    def test_k2_from_p4(self):
        host = search_preimage(complete_graph(2), 4)
        assert host is not None and host.n == 4
        kb, _ = biclique_graph(host)
        assert kb.n == 2 and kb.edge_count() == 1

    def test_p3_has_no_preimage(self):
        assert search_preimage(path_graph(3), 6) is None

    def test_crown_has_no_preimage_within_bound(self):
        assert search_preimage(CROWN.graph, 7) is None

    def test_diamond_preimage(self):
        # P6 works, but a triangle with a 2-edge tail is smaller and comes
        # first in generation order
        host = search_preimage(DIAMOND.graph, 6)
        assert host is not None and host.n == 5
        kb, _ = biclique_graph(host)
        assert canonical_form(kb) == canonical_form(DIAMOND.graph)

    def test_bound_checked(self):
        with pytest.raises(CapabilityError):
            search_preimage(complete_graph(3), 99)

    def test_search_stops_at_first_preimage(self, monkeypatch):
        calls = _count_capped_kb(monkeypatch)
        host = search_preimage(complete_graph(3), 8)
        assert calls[-1] == host  # the walk ends at the preimage it returns
        assert len(calls) < 10  # of 12,112 hosts on 2..8 vertices

    def test_oversized_query_fails_before_enumerating(self, monkeypatch):
        calls = _count_capped_kb(monkeypatch)
        with pytest.raises(CapabilityError):
            search_preimage(cycle_graph(13), 7)
        assert calls == []

    def test_k1_from_k2(self):
        assert search_preimage(Graph(1), 4) == complete_graph(2)  # K1 = KB(K2)
        assert "@" not in positive_preimages(2, 4)  # the catalogue starts at order 2

    def test_disconnected_rejected(self):
        from biclique_lab.graphs import Graph

        with pytest.raises(GraphError):
            search_preimage(Graph(4, [(0, 1), (2, 3)]), 4)


class TestResumedSweep:
    def test_next_query_resumes_where_the_last_stopped(self, monkeypatch):
        calls = _count_capped_kb(monkeypatch)
        assert search_preimage(complete_graph(3), 6) == complete_graph(3)
        assert search_preimage(path_graph(3), 6) is None
        resumed = calls.copy()
        calls.clear()
        recognition._SWEEPS.clear()
        assert search_preimage(path_graph(3), 6) is None
        assert resumed == calls  # two queries, one walk
        # The walk: at each order on 2..5 the children of each capped class
        # below (3 bicliques), from K1, the classes in canonical order, each
        # child tested against the cap; then the false-twin-free children of
        # the capped classes on 5.
        walk, capped = [], [Graph(1)]
        for n in range(2, 6):
            children = [child for p in capped for child in _children(p)]
            walk += children
            forms = {canonical_form(c) for c in children if biclique_graph_with_limit(c, 3)[0] is not None}
            capped = [parse_graph6(form) for form in sorted(forms)]
        walk += [child for p in capped for child in _children(p) if _twin_free(child)]
        assert resumed == walk

    def test_query_after_a_miss_computes_no_kb(self, monkeypatch):
        calls = _count_capped_kb(monkeypatch)
        assert search_preimage(path_graph(3), 6) is None
        walked = len(calls)
        assert search_preimage(complete_graph(3), 6) == complete_graph(3)  # hit
        assert search_preimage(permuted(path_graph(3), [1, 0, 2]), 6) is None  # miss
        assert len(calls) == walked

    def test_other_order_or_bound_sweeps_on_its_own(self, monkeypatch):
        calls = _count_capped_kb(monkeypatch)
        assert search_preimage(path_graph(3), 6) is None
        for g, bound in ((complete_graph(4), 6), (path_graph(3), 5)):
            walked = len(calls)
            search_preimage(g, bound)
            assert calls[walked] == complete_graph(2)  # from the first host again

    @pytest.mark.parametrize("error", [KeyboardInterrupt, MemoryError, RuntimeError])
    def test_interrupted_sweep_is_dropped(self, monkeypatch, error):
        calls = []

        def failing(host, cap):
            calls.append(host)
            if len(calls) == 5:
                raise error("interrupted")
            return biclique_graph_with_limit(host, cap)

        monkeypatch.setattr(recognition, "biclique_graph_with_limit", failing)
        with pytest.raises(error):
            search_preimage(DIAMOND.graph, 6)
        monkeypatch.undo()
        expected = positive_preimages(4, 6)[canonical_form(DIAMOND.graph)]
        assert _g6(search_preimage(DIAMOND.graph, 6)) == write_graph6(expected)

    def test_answers_do_not_depend_on_query_order(self):
        queries = _relabelled_classes(random.Random(2017))
        assert len(queries) == 142  # connected classes on 2..6 vertices
        reference = positive_preimages(6, 7)
        for g in queries:
            assert _g6(search_preimage(g, 7)) == _g6(reference.get(canonical_form(g))), g

    def test_threads_share_the_sweeps(self):
        reference = positive_preimages(6, 6)
        errors = []

        def query(seed):
            try:
                for g in _relabelled_classes(random.Random(seed)):
                    assert _g6(search_preimage(g, 6)) == _g6(reference.get(canonical_form(g))), g
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=query, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []


class TestAgainstTheOracle:
    """The sweep's pruning (the biclique cap, false twins, canonical deletion
    at every order) against ``first_preimages_oracle``, which has none."""

    @pytest.mark.parametrize("max_g, max_h", [*((g, h) for h in range(2, 8) for g in range(2, h + 1)), (6, 8)])
    def test_positive_preimages(self, max_g, max_h):
        expected = dict(first_preimages_oracle(max_g, max_h))
        del expected["@"]  # K1 = KB(K2); the catalogue starts at order 2
        assert positive_preimages(max_g, max_h) == expected

    @pytest.mark.parametrize("max_h", range(2, 9))
    def test_search_preimage(self, max_h):
        expected = first_preimages_oracle(6, max_h)
        for g in [Graph(1), *_relabelled_classes(random.Random(max_h))]:
            assert search_preimage(g, max_h) == expected.get(canonical_form(g)), write_graph6(g)

    def test_shipped_certificates_are_the_first_hosts(self):
        # Every certificate is canonical, and up to 8 vertices it is the
        # oracle's first host: the least order, then the least canonical graph6.
        expected = first_preimages_oracle(6, 8)
        path = default_reference_path().parent / "reference_preimages.jsonl"
        for row in map(json.loads, path.read_text().splitlines()):
            host = parse_graph6(row["preimage_graph6"])
            assert row["preimage_graph6"] == canonical_form(host), row
            if host.n <= 8:
                assert host == expected[row["graph6"]], row


class TestLastOrder:
    @pytest.mark.parametrize("max_h", [7, 8, 9])
    def test_is_never_generated(self, max_h, monkeypatch):
        # Every host order comes from the capped classes one order below it,
        # so the sweep asks generation for no order at all.  At bound 9 only
        # the miss P3 runs: it reads its whole sweep in under a second.
        requested = []

        def recording(n):
            requested.append(n)
            return enumerate_connected_graphs(n)

        monkeypatch.setattr(recognition, "enumerate_connected_graphs", recording)
        monkeypatch.setattr(graphs, "enumerate_connected_graphs", recording)
        if max_h < 9:
            positive_preimages(6, max_h)
        assert search_preimage(path_graph(3), max_h) is None
        assert requested == []


class TestCappedWalk:
    """The claim each host order of the sweep rests on, bound 10's included:
    the classes of the capped children of the capped classes below, from K1,
    are every class within the cap (lemma (a) and canonical deletion)."""

    @pytest.mark.parametrize("cap", range(2, 8))
    def test_capped_classes_are_every_class_within_the_cap(self, cap):
        capped = [Graph(1)]
        for n in range(2, 8):
            # The sweep's own task below the last order: capped children only.
            task = partial(recognition._capped_children, range(cap, cap + 1), False)
            forms = {canonical_form(child) for p in capped for child, _ in task(p)}
            capped = [parse_graph6(form) for form in sorted(forms)]
            expected = [g for g in enumerate_connected_graphs(n) if biclique_graph(g)[0].n <= cap]
            assert capped == expected, (cap, n)

    @pytest.mark.parametrize(
        "sweep",
        [partial(positive_preimages, 3, 8), partial(search_preimage, path_graph(3), 8)],
        ids=["catalogue", "query"],
    )
    def test_only_capped_hosts_are_canonicalised(self, sweep, monkeypatch):
        # The cap (3) is tested before a host's canonical form is taken.  A
        # graph with more vertices than the cap is no KB here, so it is a
        # host, and it must have at most 3 bicliques.
        forms = []

        def recording(g):
            forms.append(g)
            return canonical_form(g)

        monkeypatch.setattr(recognition, "canonical_form", recording)
        sweep()
        hosts = [g for g in forms if g.n > 3]
        assert len(hosts) > 50
        assert all(biclique_graph(g)[0].n <= 3 for g in hosts)


def _relabelled_classes(rng: random.Random) -> list[Graph]:
    """A random relabelling of each connected class on 2..6 vertices, in a
    random order."""
    queries = []
    for n in range(2, 7):
        for g in enumerate_connected_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            queries.append(permuted(g, perm))
    rng.shuffle(queries)
    return queries


def _twin_free(g: Graph) -> bool:
    return len(set(g.adj)) == g.n


def _g6(host: Graph | None) -> str | None:
    return None if host is None else write_graph6(host)


@pytest.fixture(scope="module")
def small():
    return build_catalogue(4, 6)


class TestBuildCatalogue:
    def test_orders_covered(self, small):
        assert {e.order for e in small} == {2, 3, 4}
        assert len(small) == 1 + 2 + 6

    def test_k2_positive(self, small):
        entry = next(e for e in small if e.graph6 == canonical_form(complete_graph(2)))
        assert entry.classification == BICLIQUE_GRAPH
        assert entry.preimage_graph6 is not None

    def test_p3_negative(self, small):
        entry = next(e for e in small if e.graph6 == canonical_form(path_graph(3)))
        assert entry.classification == NOT_BICLIQUE_GRAPH
        assert entry.obstruction["check"] in (
            "p3_diamond_gem",
            "biconnectivity_min_degree",
            "degree2_bound",
        )

    def test_diamond_and_k4_positive(self, small):
        for g in (DIAMOND.graph, complete_graph(4)):
            entry = next(e for e in small if e.graph6 == canonical_form(g))
            assert entry.classification == BICLIQUE_GRAPH

    def test_every_entry_verifies(self, small):
        assert all(verify_entry(e) for e in small)

    def test_bound_recorded(self, small):
        assert all(e.searched_max_h == 6 for e in small)

    def test_bad_bounds_rejected(self):
        with pytest.raises(CapabilityError):
            build_catalogue(6, 4)
        with pytest.raises(CapabilityError):
            build_catalogue(6, 99)

    @pytest.mark.parametrize(
        "build, bounds",
        [(build_catalogue, (9, 9)), (positive_preimages, (13, 7)), (positive_preimages, (1, 4))],
        ids=["catalogue-past-generation", "sweep-past-canonical-form", "sweep-below-2"],
    )
    def test_class_bound_fails_before_any_host(self, build, bounds, monkeypatch):
        def no_hosts(*args):
            pytest.fail("a host was enumerated before the bounds were checked")

        # The sweep's hosts are children, each tested against the cap.
        for name in ("_children", "biclique_graph_with_limit", "enumerate_connected_graphs"):
            monkeypatch.setattr(recognition, name, no_hosts)
        with pytest.raises(CapabilityError, match="max_g_order"):
            build(*bounds)

    def test_sweep_keys_classes_past_the_generation_bound(self):
        kb_k5, _ = biclique_graph(complete_graph(5))  # one vertex per edge: order 10
        assert canonical_form(kb_k5) in positive_preimages(MAX_CANONICAL_ORDER, 5)


class TestVerifyEntry:
    def test_positive_entry_roundtrip(self):
        entry = CatalogueEntry(
            graph6=canonical_form(complete_graph(3)),
            order=3,
            classification=BICLIQUE_GRAPH,
            searched_max_h=4,
            preimage_graph6=write_graph6(complete_graph(3)),
        )
        assert verify_entry(entry)

    def test_wrong_preimage_rejected(self):
        # KB(P4) is K2, not K3: negative control
        entry = CatalogueEntry(
            graph6=canonical_form(complete_graph(3)),
            order=3,
            classification=BICLIQUE_GRAPH,
            searched_max_h=4,
            preimage_graph6=write_graph6(path_graph(4)),
        )
        assert not verify_entry(entry)

    def test_negative_entry_checks_obstruction(self):
        entry = CatalogueEntry(
            graph6=canonical_form(CROWN.graph),
            order=5,
            classification=NOT_BICLIQUE_GRAPH,
            searched_max_h=8,
            obstruction={"check": "twin_k2", "witness": [2, 3]},
        )
        assert verify_entry(entry)

    def test_negative_entry_with_nonfiring_check_rejected(self):
        entry = CatalogueEntry(
            graph6=canonical_form(CROWN.graph),
            order=5,
            classification=NOT_BICLIQUE_GRAPH,
            searched_max_h=8,
            obstruction={"check": "p3_diamond_gem", "witness": None},
        )
        assert not verify_entry(entry)

    @pytest.mark.parametrize(
        "entry",
        [
            # Bw is K3, so its graph6 header says 3 vertices, not 5.
            CatalogueEntry("Bw", 5, BICLIQUE_GRAPH, 4, preimage_graph6="Bw"),
            CatalogueEntry("Bw", 3, BICLIQUE_GRAPH, 4),
            # KB(K3) is K3, but a search bounded by 2 vertices cannot have found it.
            CatalogueEntry("Bw", 3, BICLIQUE_GRAPH, 2, preimage_graph6="Bw"),
            CatalogueEntry(canonical_form(CROWN.graph), 5, NOT_BICLIQUE_GRAPH, 8),
            CatalogueEntry(canonical_form(CROWN.graph), 5, UNKNOWN, 8),
        ],
        ids=["wrong-order", "no-preimage", "preimage-beyond-bound", "no-obstruction", "unknown-excluded"],
    )
    def test_entry_rejected(self, entry):
        assert not verify_entry(entry)

    def test_unknown_entry_passes_the_battery(self):
        assert verify_entry(CatalogueEntry("Bw", 3, UNKNOWN, 4))


class TestPersistence:
    def test_write_load_roundtrip(self, tmp_path):
        entries = build_catalogue(3, 4)
        paths = write_catalogue(entries, tmp_path)
        assert [p.name for p in paths] == ["catalogue-n2.jsonl", "catalogue-n3.jsonl"]
        loaded = load_catalogue(tmp_path)
        assert loaded == sorted(entries, key=lambda e: (e.order, e.graph6))

    def test_entries_survive_the_round_trip(self, tmp_path):
        # Order 6 holds obstruction witnesses with nested tuples (Hajos).
        entries = build_catalogue(6, 6)
        write_catalogue(entries, tmp_path)
        assert load_catalogue(tmp_path) == sorted(entries, key=lambda e: (e.order, e.graph6))

    def test_rerun_replaces_every_order(self, tmp_path):
        write_catalogue(build_catalogue(4, 5), tmp_path)
        entries = build_catalogue(3, 4)
        write_catalogue(entries, tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["catalogue-n2.jsonl", "catalogue-n3.jsonl"]
        assert load_catalogue(tmp_path) == sorted(entries, key=lambda e: (e.order, e.graph6))

    def test_reference_comparison(self, tmp_path):
        entries = build_catalogue(3, 4)
        reference = tmp_path / "ref.g6"
        reference.write_text("# positives on up to 3 vertices\nA_\nBw\n")
        comparison = compare_with_reference(entries, load_reference_positives(reference))
        assert comparison.matches
        reference.write_text("A_\nBw\nBo\n")  # adds P3, which is not realisable
        comparison = compare_with_reference(entries, load_reference_positives(reference))
        assert comparison.missing and not comparison.extra


class TestDeterminism:
    def test_catalogue_runs_identical(self, tmp_path):
        a = build_catalogue(3, 5)
        b = build_catalogue(3, 5)
        assert a == b
        write_catalogue(a, tmp_path / "x")
        write_catalogue(b, tmp_path / "y")
        for name in ("catalogue-n2.jsonl", "catalogue-n3.jsonl"):
            assert (tmp_path / "x" / name).read_bytes() == (tmp_path / "y" / name).read_bytes()

    def test_serial_sweep_loads_no_pool_modules(self):
        # Run in a fresh interpreter: this one may have loaded them already.
        code = (
            "import sys\n"
            "import biclique_lab.cli\n"
            "from biclique_lab.recognition import positive_preimages\n"
            "positive_preimages(4, 5, workers=1)\n"
            "positive_preimages(4, 5, workers=2)\n"  # no host on 9 vertices, so no pool
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('concurrent', 'multiprocessing', 'socket', 'logging')))\n"
        )
        src = str(Path(recognition.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, check=False)
        assert result.returncode == 0, result.stderr.decode()
        assert result.stdout.decode().strip() == "[]"

    def test_pool_stretch_agrees_with_the_in_process_walk(self, monkeypatch):
        # The pool maps the capped parents of every order, one task each.
        # With the pool's bound at 7 the last are the capped classes on 6
        # vertices: seconds, not minutes.
        monkeypatch.setattr(recognition, "MAX_PREIMAGE_ORDER", 7)
        orders = range(2, 7)
        serial = list(recognition._swept(orders, 7, 1))
        assert list(recognition._swept(orders, 7, 2)) == serial
        expected = {key: host for key, host in first_preimages_oracle(6, 7).items() if host.n == 7}
        assert {key: host for host, key in serial if host.n == 7} == expected
        sweep = recognition._swept(orders, 7, 2)
        assert next(hit for hit in sweep if hit[0].n == 7) in serial
        sweep.close()
        assert multiprocessing.active_children() == []

    def test_failed_reduction_cancels_the_pool(self, monkeypatch):
        # Only this process's least-form reduction takes canonical forms of
        # hosts on 7 vertices; the spawned workers import the module
        # unpatched.  It fails at the first hit it reduces, with tasks queued,
        # so the sweep takes the cancelling shutdown: the error reaches the
        # caller and no worker outlives the sweep.
        monkeypatch.setattr(recognition, "MAX_PREIMAGE_ORDER", 7)
        search = recognition.canonical_form

        def failing(g):
            if g.n == 7:
                raise RuntimeError("reduction failed")
            return search(g)

        monkeypatch.setattr(recognition, "canonical_form", failing)
        with pytest.raises(RuntimeError, match="reduction failed"):
            list(recognition._swept(range(2, 7), 7, 2))
        assert multiprocessing.active_children() == []
