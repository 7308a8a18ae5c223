import pytest
from hypothesis import given, settings

from biclique_lab.bicliques import biclique_graph
from biclique_lab.conjectures import (
    _rotation_extension_cycle,
    check_generalized_twins,
    check_hamiltonian,
    check_simplicial_helly,
    hamiltonian_cycle,
    iter_generalized_twins,
    non_helly_subfamily,
    scan_certified_graphs,
    simplicial_vertices,
)
from biclique_lab.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    enumerate_connected_graphs,
    parse_graph6,
    path_graph,
)
from biclique_lab.obstructions import check_twin_k2
from biclique_lab.patterns import CROWN, DIAMOND, GEM, HAJOS

from oracles import hamiltonian_oracle, non_helly_submask_oracle
from strategies import connected_graphs


class TestSimplicialHelly:
    def test_k3_consistent(self):
        assert simplicial_vertices(complete_graph(3)) == (0, 1, 2)
        assert check_simplicial_helly(complete_graph(3)).verdict == "consistent"

    def test_gem_simplicial_vertices(self):
        # only the two path ends have complete neighbourhoods
        assert simplicial_vertices(GEM.graph) == (0, 3)
        assert check_simplicial_helly(GEM.graph).verdict == "consistent"

    def test_cycle_has_no_simplicial_vertices(self):
        assert simplicial_vertices(cycle_graph(5)) == ()
        assert check_simplicial_helly(cycle_graph(5)).verdict == "consistent"

    def test_hajos_counterexample_only_if_certified(self):
        # The closed neighbourhoods of 3, 4 and 5 meet pairwise on the
        # triangle 0, 1, 2, and all three on no vertex.
        g = HAJOS.graph
        assert simplicial_vertices(g) == (3, 4, 5)
        assert non_helly_subfamily([g.adj[v] | 1 << v for v in (3, 4, 5)]) == (0, 1, 2)
        plain = check_simplicial_helly(g)
        assert (plain.verdict, plain.witness) == ("consistent", (3, 4, 5))
        assert "not a certified" in plain.note
        certified = check_simplicial_helly(g, certified=True)
        assert (certified.verdict, certified.witness) == ("counterexample", (3, 4, 5))

    @settings(max_examples=50)
    @given(connected_graphs(max_order=6))
    def test_subfamily_search_matches_submask_oracle(self, g):
        sets = [g.adj[v] | (1 << v) for v in range(g.n)]
        ours = non_helly_subfamily(sets)
        oracle = non_helly_submask_oracle(sets)
        assert (ours is None) == (oracle is None)


class TestGeneralizedTwins:
    def test_crown_structural_hit_but_not_counterexample(self):
        witness = next(iter_generalized_twins(CROWN.graph), None)
        assert witness is not None and witness["i"] == 2
        finding = check_generalized_twins(CROWN.graph, certified=False)
        assert finding.verdict == "consistent"

    def test_crown_counterexample_only_if_certified(self):
        finding = check_generalized_twins(CROWN.graph, certified=True)
        assert finding.verdict == "counterexample"

    def test_diamond_excluded(self):
        assert check_generalized_twins(DIAMOND.graph).verdict == "not-applicable"

    def test_crown_also_hits_at_i3(self):
        # the three pages share {0,1}, which extends to a triangle with any page
        sizes = {w["i"] for w in iter_generalized_twins(CROWN.graph, i_max=3)}
        assert sizes == {2, 3}

    @pytest.mark.parametrize("i_max", [1, 0, -3])
    def test_i_max_below_two_rejected(self, i_max):
        with pytest.raises(ValueError, match="i_max"):
            iter_generalized_twins(CROWN.graph, i_max=i_max)  # at the call, before next()

    @pytest.mark.parametrize("graph", [DIAMOND.graph, CROWN.graph], ids=["diamond", "crown"])
    @pytest.mark.parametrize(
        "arguments, message",
        [({"containment": "bogus"}, "containment"), ({"i_max": 1}, "i_max")],
        ids=["containment", "i_max"],
    )
    def test_bad_arguments_rejected_on_every_graph(self, graph, arguments, message):
        # The diamond's exemption comes after the arguments are checked.
        with pytest.raises(ValueError, match=message):
            iter_generalized_twins(graph, **arguments)
        with pytest.raises(ValueError, match=message):
            check_generalized_twins(graph, **arguments)

    @pytest.mark.parametrize(
        "graphs", [[], [DIAMOND.graph], [CROWN.graph]], ids=["empty", "diamond", "crown"]
    )
    @pytest.mark.parametrize(
        "arguments, message",
        [({"containment": "bogus"}, "containment"), ({"i_max": 1}, "i_max")],
        ids=["containment", "i_max"],
    )
    def test_scan_rejects_bad_arguments_on_any_list(self, graphs, arguments, message):
        # Checked at the call, so an empty list accepts no more than a full one.
        with pytest.raises(ValueError, match=message):
            scan_certified_graphs(graphs, **arguments)

    def test_i2_with_k2_equality_matches_twin_check(self):
        for n in range(2, 7):
            for g in enumerate_connected_graphs(n):
                twin_result = check_twin_k2(g)
                if twin_result.verdict.value == "not-applicable":
                    continue
                structural = any(
                    w["i"] == 2 and len(w["common_neighbourhood"]) == 2
                    for w in iter_generalized_twins(g, i_max=2)
                )
                assert structural == twin_result.failed, g

    def test_superset_reading_fires_at_least_as_often(self):
        for n in range(2, 6):
            for g in enumerate_connected_graphs(n):
                exact = next(iter_generalized_twins(g, containment="exact"), None)
                superset = next(iter_generalized_twins(g, containment="superset"), None)
                if exact is not None:
                    assert superset is not None

    def test_witness_revalidates(self):
        witness = next(iter_generalized_twins(CROWN.graph), None)
        g = CROWN.graph
        vs = witness["vertices"]
        assert len(set(g.adj[v] for v in vs)) == 1
        clique = witness["clique"]
        assert all(g.has_edge(u, v) for i, u in enumerate(clique) for v in clique[i + 1 :])
        assert set(witness["common_neighbourhood"]) <= set(clique)
        assert len(clique) == witness["i"]


class TestHamiltonian:
    def test_k3_cycle(self):
        assert hamiltonian_cycle(complete_graph(3)) == (0, 1, 2)

    def test_p4_has_none(self):
        assert hamiltonian_cycle(path_graph(4)) is None

    def test_small_orders_not_applicable(self):
        assert check_hamiltonian(complete_graph(2)).verdict == "not-applicable"

    def test_p4_consistent_with_note(self):
        finding = check_hamiltonian(path_graph(4), certified=False)
        assert finding.verdict == "consistent" and "not a certified" in finding.note

    def test_cycle_witness_is_valid(self):
        g = cycle_graph(6)
        cycle = hamiltonian_cycle(g)
        assert sorted(cycle) == list(range(6))
        assert all(g.has_edge(cycle[k], cycle[(k + 1) % 6]) for k in range(6))

    def test_exact_search_where_rotation_extension_gives_up(self):
        # Rotation-extension closes a cycle in every Hamiltonian class
        # representative up to order 7; here it gives up and backtracking decides.
        g = parse_graph6(r"G@Q\eS")
        assert _rotation_extension_cycle(g) is None
        cycle = hamiltonian_cycle(g)
        assert cycle == (0, 6, 2, 3, 5, 4, 1, 7)
        assert all(g.has_edge(cycle[k - 1], cycle[k]) for k in range(g.n))
        assert hamiltonian_oracle(g)

    def test_petersen_is_not_hamiltonian(self):
        g = Graph(
            10,
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 7), (7, 9), (9, 6), (6, 8),
             (8, 5), (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
        )
        assert hamiltonian_cycle(g) is None

    def test_matches_permutation_oracle_small(self):
        for n in range(3, 7):
            for g in enumerate_connected_graphs(n):
                assert (hamiltonian_cycle(g) is not None) == hamiltonian_oracle(g)

    @settings(max_examples=40)
    @given(connected_graphs(min_order=3, max_order=7))
    def test_matches_permutation_oracle_random(self, g):
        assert (hamiltonian_cycle(g) is not None) == hamiltonian_oracle(g)

    @settings(max_examples=25)
    @given(connected_graphs(max_order=6))
    def test_biclique_graphs_scan_consistent(self, g):
        kb, _ = biclique_graph(g)
        if kb.n < 3:
            return
        finding = check_hamiltonian(kb, certified=True)
        assert finding.verdict == "consistent"
