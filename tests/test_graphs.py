import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biclique_lab.graphs import (
    INFINITY,
    CapabilityError,
    Graph,
    GraphError,
    canonical_form,
    canonical_graph,
    complete_graph,
    connected_graph_count,
    cut_vertices,
    cycle_graph,
    distance,
    enumerate_connected_graphs,
    induced_subgraph,
    is_biconnected,
    is_connected,
    path_graph,
    permuted,
    write_graph6,
)
from biclique_lab.patterns import GEM, HAJOS

from oracles import canonical_oracle, connected_classes_oracle
from strategies import connected_graphs, graphs


class TestGraphBasics:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 2)])

    def test_rejects_order_zero(self):
        with pytest.raises(GraphError):
            Graph(0)

    def test_adjacency_is_symmetric(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.has_edge(1, 0) and g.has_edge(2, 1)
        assert not g.has_edge(0, 2)

    def test_immutable(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(AttributeError):
            g.n = 3


class TestDistance:
    def test_path_end_to_end(self):
        assert distance(path_graph(4), 0, 3) == 3

    def test_triangle(self):
        assert distance(complete_graph(3), 0, 1) == 1

    def test_self_distance_zero(self):
        assert distance(cycle_graph(5), 2, 2) == 0

    def test_disconnected_is_infinite(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert distance(g, 0, 3) == INFINITY

    def test_out_of_range_vertex(self):
        with pytest.raises(GraphError):
            distance(path_graph(3), 0, 5)

    @settings(max_examples=60)
    @given(connected_graphs(max_order=7), st.data())
    def test_symmetry_and_triangle_inequality(self, g, data):
        u = data.draw(st.integers(0, g.n - 1))
        v = data.draw(st.integers(0, g.n - 1))
        w = data.draw(st.integers(0, g.n - 1))
        assert distance(g, u, v) == distance(g, v, u)
        assert distance(g, u, w) <= distance(g, u, v) + distance(g, v, w)


class TestConnectivity:
    def test_path_connected(self):
        assert is_connected(path_graph(4))

    def test_two_edges_disconnected(self):
        assert not is_connected(Graph(4, [(0, 1), (2, 3)]))

    def test_k1_connected(self):
        assert is_connected(Graph(1))

    def test_c4_biconnected(self):
        assert is_biconnected(cycle_graph(4))

    def test_p3_not_biconnected(self):
        g = path_graph(3)
        assert not is_biconnected(g)
        assert cut_vertices(g) == (1,)

    def test_gem_biconnected(self):
        # derived by deleting each vertex in turn
        for v in range(5):
            rest = induced_subgraph(GEM.graph, [u for u in range(5) if u != v])
            assert is_connected(rest)
        assert is_biconnected(GEM.graph)

    def test_k1_k2_convention(self):
        assert is_biconnected(Graph(1))
        assert is_biconnected(complete_graph(2))


class TestCanonicalForm:
    def test_gem_relabelings_agree(self):
        base = canonical_form(GEM.graph)
        assert canonical_form(permuted(GEM.graph, [4, 2, 0, 1, 3])) == base

    def test_p4_vs_claw_differ(self):
        claw = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert canonical_form(path_graph(4)) != canonical_form(claw)

    def test_hajos_all_relabelings_one_encoding(self):
        from itertools import permutations

        forms = {
            canonical_form(permuted(HAJOS.graph, list(p)))
            for p in permutations(range(6))
        }
        assert len(forms) == 1

    def test_matches_brute_force_small(self):
        for n in range(1, 6):
            for g in enumerate_connected_graphs(n):
                assert canonical_form(g) == canonical_oracle(g)

    def test_canonical_graph_is_isomorphic_relabeling(self):
        g = HAJOS.graph
        cg = canonical_graph(g)
        assert cg.degree_sequence() == g.degree_sequence()
        assert write_graph6(cg) == canonical_form(g)

    def test_capability_bound(self):
        with pytest.raises(CapabilityError):
            canonical_form(complete_graph(13))

    @settings(max_examples=120)
    @given(graphs(max_order=7), st.data())
    def test_invariant_under_relabeling(self, g, data):
        perm = data.draw(st.permutations(list(range(g.n))))
        assert canonical_form(permuted(g, list(perm))) == canonical_form(g)


class TestGeneration:
    def test_counts_small(self):
        assert [connected_graph_count(n) for n in range(1, 7)] == [1, 1, 2, 6, 21, 112]

    def test_n3_classes(self):
        classes = list(enumerate_connected_graphs(3))
        forms = {canonical_form(g) for g in classes}
        assert forms == {canonical_form(path_graph(3)), canonical_form(complete_graph(3))}

    def test_n1(self):
        assert list(enumerate_connected_graphs(1)) == [Graph(1)]

    def test_all_connected_no_duplicates(self):
        for n in range(2, 6):
            classes = list(enumerate_connected_graphs(n))
            assert all(is_connected(g) for g in classes)
            forms = [canonical_form(g) for g in classes]
            assert len(set(forms)) == len(forms)
            assert forms == sorted(forms)  # deterministic canonical order

    def test_matches_labeled_brute_force(self):
        for n in range(1, 6):
            expected = connected_classes_oracle(n, canonical_form)
            got = {canonical_form(g) for g in enumerate_connected_graphs(n)}
            assert got == expected

    def test_capability_bound(self):
        with pytest.raises(CapabilityError):
            list(enumerate_connected_graphs(9))
