import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from biclique_lab.bicliques import biclique_graph
from biclique_lab.graphs import (
    Graph,
    GraphError,
    complete_graph,
    cycle_graph,
    enumerate_connected_graphs,
    is_connected,
    path_graph,
    permuted,
)
from biclique_lab.obstructions import (
    CHECK_NAMES,
    Verdict,
    _diamond_free_p3s,
    check_biconnectivity_min_degree,
    check_degree2_bound,
    check_forbidden_subgraphs,
    check_gem_wing,
    check_helly_degree2,
    check_p3_diamond_gem,
    check_twin_k2,
    classify,
    find_constrained_induced_embedding,
    has_diamond_with_pair,
    induced_p3s,
    p3_in_diamond,
)
from biclique_lab.patterns import (
    CROWN,
    DIAMOND,
    FORBIDDEN_PATTERNS,
    GEM,
    HAJOS,
    NON_BICLIQUE_GALLERY,
    RISING_SUN,
    X1,
)

from oracles import gem_wing_oracle, host_kbs, non_helly_submask_oracle, p3_diamond_gem_oracle
from strategies import connected_graphs


def _classes_to_7():
    """Every connected class on 2..7 vertices, in generation order."""
    return [g for n in range(2, 8) for g in enumerate_connected_graphs(n)]


def _connected_complements_to_7():
    """The complements of the classes on 2..7 vertices that are connected:
    sparse graphs, where most induced P3s lie in no diamond."""
    complements = (
        Graph(g.n, [(u, v) for u, v in combinations(range(g.n), 2) if not g.has_edge(u, v)])
        for g in _classes_to_7()
    )
    return [h for h in complements if is_connected(h)]


def _assert_matches_oracle(check, oracle, graphs):
    """Verdict and witness of ``check`` equal the oracle's on every graph."""
    for g in graphs:
        witness = oracle(g)
        expected = (Verdict.PASS, None) if witness is None else (Verdict.FAIL, witness)
        result = check(g)
        assert (result.verdict, result.witness) == expected, g


class TestDiamondFreeP3s:
    def test_matches_the_per_p3_walk(self):
        # every class, its connected complement and every KB of a host on
        # 2..7 vertices: dense and sparse graphs and the battery's own inputs
        kbs = [kb for n in range(2, 8) for _, kb in host_kbs(n)]
        for g in [*_classes_to_7(), *_connected_complements_to_7(), *kbs]:
            expected = [p for p in induced_p3s(g) if not p3_in_diamond(g, *p)]
            assert _diamond_free_p3s(g) == expected, g


class TestP3DiamondGem:
    def test_gem_passes(self):
        assert check_p3_diamond_gem(GEM.graph).verdict is Verdict.PASS

    def test_p3_fails_with_witness(self):
        result = check_p3_diamond_gem(path_graph(3))
        assert result.verdict is Verdict.FAIL and result.witness == (0, 1, 2)

    def test_crown_passes(self):
        assert check_p3_diamond_gem(CROWN.graph).verdict is Verdict.PASS

    def test_hajos_passes(self):
        # its P3s through spike vertices land in gems, the rest in diamonds
        assert check_p3_diamond_gem(HAJOS.graph).verdict is Verdict.PASS

    def test_rejects_disconnected(self):
        with pytest.raises(GraphError):
            check_p3_diamond_gem(Graph(4, [(0, 1), (2, 3)]))

    def test_matches_the_literal_oracle_to_order_7(self):
        _assert_matches_oracle(check_p3_diamond_gem, p3_diamond_gem_oracle, _classes_to_7())

    def test_matches_the_literal_oracle_on_connected_complements(self):
        graphs = _connected_complements_to_7()
        _assert_matches_oracle(check_p3_diamond_gem, p3_diamond_gem_oracle, graphs)


class TestBiconnectivity:
    def test_p4_fails_with_vertex_witness(self):
        from biclique_lab.graphs import cut_vertices

        g = path_graph(4)
        result = check_biconnectivity_min_degree(g)
        assert result.failed
        (v,) = result.witness
        assert g.adj[v].bit_count() <= 1 or v in cut_vertices(g)

    def test_k3_passes(self):
        assert check_biconnectivity_min_degree(complete_graph(3)).verdict is Verdict.PASS

    def test_small_orders_pass_by_convention(self):
        assert check_biconnectivity_min_degree(complete_graph(2)).verdict is Verdict.PASS
        assert check_biconnectivity_min_degree(Graph(1)).verdict is Verdict.PASS


class TestTwinK2:
    def test_crown_fails(self):
        result = check_twin_k2(CROWN.graph)
        assert result.failed
        v1, v2 = result.witness
        assert CROWN.graph.adj[v1] == CROWN.graph.adj[v2]

    def test_diamond_not_applicable(self):
        assert check_twin_k2(DIAMOND.graph).verdict is Verdict.NOT_APPLICABLE

    def test_k4_passes(self):
        assert check_twin_k2(complete_graph(4)).verdict is Verdict.PASS

    def test_twins_over_nonedge_pass(self):
        # C4 has equal neighbourhoods inducing no edge
        assert check_twin_k2(cycle_graph(4)).verdict is Verdict.PASS


class TestForbiddenSubgraphs:
    @pytest.mark.parametrize("pattern", FORBIDDEN_PATTERNS, ids=lambda p: p.name)
    def test_patterns_fail_on_themselves(self, pattern):
        result = check_forbidden_subgraphs(pattern.graph)
        assert result.failed and result.witness[0] == pattern.name

    def test_k5_passes(self):
        assert check_forbidden_subgraphs(complete_graph(5)).verdict is Verdict.PASS

    def test_embedding_respects_degree_constraint(self):
        # Hajos plus one more edge on a spike no longer embeds hajos with its
        # degree-2 vertices preserved at degree 2.
        g = Graph(7, list(HAJOS.graph.edges()) + [(3, 6), (0, 6)])
        image = find_constrained_induced_embedding(HAJOS.graph, g)
        assert image is None

    def test_embedding_found_in_padded_host(self):
        # attach a pendant path to a triangle vertex: spike degrees survive
        g = Graph(8, list(HAJOS.graph.edges()) + [(0, 6), (6, 7)])
        image = find_constrained_induced_embedding(HAJOS.graph, g)
        assert image is not None
        for pv in (3, 4, 5):  # the spikes, Hajos's degree-2 vertices
            assert g.adj[image[pv]].bit_count() == 2


class TestDegree2Bound:
    def test_hajos_fails(self):
        result = check_degree2_bound(HAJOS.graph)
        assert result.failed and result.witness == (3, 6)

    def test_gem_passes(self):
        result = check_degree2_bound(GEM.graph)
        assert result.verdict is Verdict.PASS and "2 degree-2" in result.note

    def test_k3_and_diamond_not_applicable(self):
        assert check_degree2_bound(complete_graph(3)).verdict is Verdict.NOT_APPLICABLE
        assert check_degree2_bound(DIAMOND.graph).verdict is Verdict.NOT_APPLICABLE


class TestHellyDegree2:
    def test_hajos_fails(self):
        result = check_helly_degree2(HAJOS.graph)
        assert result.failed and set(result.witness) == {3, 4, 5}

    def test_few_degree2_vertices_pass(self):
        assert check_helly_degree2(GEM.graph).verdict is Verdict.PASS

    def test_c4_triples_pass(self):
        # opposite closed neighbourhoods meet, and every triple has a core
        assert check_helly_degree2(cycle_graph(4)).verdict is Verdict.PASS

    def test_triples_match_full_subfamilies_on_triangle_neighbourhoods(self):
        # The triple reduction is proved where each degree-2 closed
        # neighbourhood induces a triangle; on that domain the submask oracle
        # must agree.  (C4 shows they differ outside it: its full family is
        # non-Helly while every triple has a core.)
        checked = 0
        for n in range(2, 7):
            for g in enumerate_connected_graphs(n):
                deg2 = [v for v in range(g.n) if g.adj[v].bit_count() == 2]
                sets = [g.adj[v] | (1 << v) for v in deg2]
                if not all(
                    g.has_edge(*[u for u in range(g.n) if (g.adj[v] >> u) & 1])
                    for v in deg2
                ):
                    continue
                checked += 1
                triple_fail = check_helly_degree2(g).failed
                full_fail = non_helly_submask_oracle(sets) is not None
                assert triple_fail == full_fail
        assert checked > 50

    def test_c4_full_family_differs_from_triples(self):
        g = cycle_graph(4)
        sets = [g.adj[v] | (1 << v) for v in range(4)]
        assert non_helly_submask_oracle(sets) is not None
        assert not check_helly_degree2(g).failed


class TestGemWing:
    def test_hajos_fails(self):
        result = check_gem_wing(HAJOS.graph)
        assert result.failed
        v1, v2, v3, v4, v5, v = result.witness
        g = HAJOS.graph
        assert g.has_edge(v1, v2) and g.has_edge(v2, v3) and not g.has_edge(v1, v3)
        assert not g.adj[v1] & g.adj[v2] & g.adj[v3]
        assert g.has_edge(v, v4) and not g.has_edge(v, v1)
        assert not has_diamond_with_pair(g, v, v1)

    def test_gem_passes(self):
        assert check_gem_wing(GEM.graph).verdict is Verdict.PASS

    def test_x1_and_rising_sun_fail(self):
        assert check_gem_wing(X1.graph).failed
        assert check_gem_wing(RISING_SUN.graph).failed

    def test_single_contradicted_completion_is_not_enough(self):
        # KB of this host has a diamond-free P3 with several gem completions;
        # one of them has an outside vertex on its wing, but another is clean,
        # so the check must stay quiet (the graph is a biclique graph).
        from biclique_lab.graphs import parse_graph6

        kb, _ = biclique_graph(parse_graph6("G?Cyt?"))
        assert check_gem_wing(kb).verdict is Verdict.PASS

    def test_matches_the_literal_oracle_to_order_7(self):
        # every class and one seeded relabelling of each, so the witness
        # order is tested away from canonical labels too
        rng = random.Random(7)
        graphs = []
        for g in _classes_to_7():
            perm = list(range(g.n))
            rng.shuffle(perm)
            graphs += [g, permuted(g, perm)]
        _assert_matches_oracle(check_gem_wing, gem_wing_oracle, graphs)

    def test_matches_the_literal_oracle_on_connected_complements(self):
        _assert_matches_oracle(check_gem_wing, gem_wing_oracle, _connected_complements_to_7())


class TestDiamondWithPair:
    def test_nonadjacent_pair_in_diamond(self):
        assert has_diamond_with_pair(DIAMOND.graph, 2, 3)

    def test_adjacent_pair_in_diamond(self):
        assert has_diamond_with_pair(DIAMOND.graph, 0, 1)
        assert has_diamond_with_pair(DIAMOND.graph, 0, 2)

    def test_no_diamond_in_cycle(self):
        g = cycle_graph(5)
        assert not has_diamond_with_pair(g, 0, 1)
        assert not has_diamond_with_pair(g, 0, 2)

    @settings(max_examples=40)
    @given(connected_graphs(min_order=2, max_order=6))
    def test_matches_subset_scan(self, g):
        from itertools import combinations

        diamonds = set()
        for quad in combinations(range(g.n), 4):
            sub = [(u, v) for u, v in combinations(quad, 2) if g.has_edge(u, v)]
            degrees = {v: 0 for v in quad}
            for u, v in sub:
                degrees[u] += 1
                degrees[v] += 1
            if len(sub) == 5 and sorted(degrees.values()) == [2, 2, 3, 3]:
                diamonds.add(quad)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                expected = any(u in quad and v in quad for quad in diamonds)
                assert has_diamond_with_pair(g, u, v) == expected


class TestClassify:
    def test_crown_negative_via_twins_with_p3_pass(self):
        report = classify(CROWN.graph)
        assert report.excluded
        assert report.checks["p3_diamond_gem"].verdict is Verdict.PASS
        assert report.checks["twin_k2"].failed

    def test_k3_all_applicable_pass(self):
        report = classify(complete_graph(3))
        assert not report.excluded
        assert report.checks["degree2_bound"].verdict is Verdict.NOT_APPLICABLE

    def test_gallery_expected_failures(self):
        for pattern, expected in NON_BICLIQUE_GALLERY:
            report = classify(pattern.graph)
            assert report.failing_checks == expected, pattern.name
            assert report.checks["p3_diamond_gem"].verdict is Verdict.PASS

    def test_report_json_shape(self):
        payload = json.loads(classify(CROWN.graph).to_json_line())
        assert payload["schema"] == "obstruction-report/1"
        assert payload["overall"] == "cannot-be-biclique-graph"
        assert set(payload["checks"]) == set(CHECK_NAMES)

    def test_verdicts_invariant_under_relabeling(self):
        for pattern, expected in NON_BICLIQUE_GALLERY[:4]:
            g = pattern.graph
            shuffled = permuted(g, list(reversed(range(g.n))))
            assert classify(shuffled).failing_checks == expected

    @settings(max_examples=30)
    @given(connected_graphs(max_order=6))
    def test_sound_on_biclique_graphs(self, g):
        kb, _ = biclique_graph(g)
        assert not classify(kb).excluded

    @settings(max_examples=30)
    @given(connected_graphs(min_order=3, max_order=7))
    def test_witnesses_revalidate(self, g):
        report = classify(g)
        for name in report.failing_checks:
            witness = report.checks[name].witness
            assert witness is not None
            if name == "twin_k2":
                v1, v2 = witness
                assert g.adj[v1] == g.adj[v2] and g.adj[v1].bit_count() == 2
            elif name == "p3_diamond_gem":
                u, v, w = witness
                assert g.has_edge(u, v) and g.has_edge(v, w) and not g.has_edge(u, w)
            elif name == "degree2_bound":
                count, order = witness
                assert count == sum(
                    1 for x in range(g.n) if g.adj[x].bit_count() == 2
                )
                assert 2 * count >= order == g.n
            elif name == "helly_degree2":
                a, b, c = witness
                na, nb, nc = (g.adj[x] | (1 << x) for x in (a, b, c))
                assert na & nb and na & nc and nb & nc and not na & nb & nc
            elif name == "forbidden_subgraph":
                pattern_name, image = witness
                pattern = next(p for p in FORBIDDEN_PATTERNS if p.name == pattern_name)
                p = pattern.graph
                for a in range(p.n):
                    for b in range(a + 1, p.n):
                        assert p.has_edge(a, b) == g.has_edge(image[a], image[b])
                for pv in range(p.n):
                    if p.adj[pv].bit_count() == 2:
                        assert g.adj[image[pv]].bit_count() == 2
            elif name == "gem_wing":
                v1, v2, v3, v4, v5, v = witness
                assert g.has_edge(v1, v4) and g.has_edge(v3, v5) and g.has_edge(v4, v5)
                assert g.has_edge(v, v4) and not g.has_edge(v, v1)
                assert not has_diamond_with_pair(g, v, v1)
