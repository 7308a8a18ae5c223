import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biclique_lab.graphs as graphs_module
from biclique_lab.graphs import (
    INFINITY,
    CapabilityError,
    Graph,
    GraphError,
    _augmentations,
    _bits,
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
    parse_graph6,
    path_graph,
    permuted,
    write_graph6,
)
from biclique_lab.patterns import GEM, HAJOS

from oracles import (
    augmented_classes_oracle,
    automorphisms_oracle,
    bits_oracle,
    canonical_oracle,
    connected_classes_oracle,
)
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


class TestBits:
    def test_every_mask_below_2_to_the_12(self):
        for mask in range(1 << 12):
            assert _bits(mask) == bits_oracle(mask), mask

    def test_wide_masks(self):
        # Biclique incidence masks reach 126 bits on the crown graph with
        # k = 7 and 1022 bits on hosts of 20 vertices: past the tables' 64.
        rng = random.Random(24)
        masks = [1 << 64, (1 << 64) - 1, 1 << 1099, (1 << 1100) - 1]
        for _ in range(2000):
            width = rng.randrange(1, 1101)
            masks.append(rng.getrandbits(width) | 1 << width - 1)
            masks.append(1 << rng.randrange(width) | 1 << width - 1)
        for mask in masks:
            assert _bits(mask) == bits_oracle(mask), mask


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

    def test_relabelled_classes_match_brute_force(self):
        # The representatives are canonically labelled already; a random
        # relabelling of each makes the search find the order itself.
        rng = random.Random(16)
        for n in range(1, 7):
            for g in enumerate_connected_graphs(n):
                perm = list(range(n))
                rng.shuffle(perm)
                h = permuted(g, perm)
                assert canonical_form(h) == canonical_oracle(h), write_graph6(h)

    def test_every_labelled_graph_matches_brute_force(self):
        # Disconnected graphs included: 1 + 2 + 8 + 64 + 1024 graphs.
        for n in range(1, 6):
            pairs = [(u, v) for v in range(n) for u in range(v)]
            for edges in range(1 << len(pairs)):
                g = Graph(n, [pair for i, pair in enumerate(pairs) if edges >> i & 1])
                assert canonical_form(g) == canonical_oracle(g), write_graph6(g)

    def test_canonical_graph_is_isomorphic_relabeling(self):
        g = HAJOS.graph
        cg = canonical_graph(g)
        assert cg.degree_sequence() == g.degree_sequence()
        assert write_graph6(cg) == canonical_form(g)

    def test_capability_bound(self):
        with pytest.raises(CapabilityError):
            canonical_form(complete_graph(13))

    def test_complete_multipartite_and_complements_match_brute_force(self):
        def partitions(n, largest):
            if n == 0:
                yield ()
            for part in range(min(n, largest), 0, -1):
                for rest in partitions(n - part, part):
                    yield (part,) + rest

        for n in range(1, 8):
            for parts in partitions(n, n):
                side = [i for i, size in enumerate(parts) for _ in range(size)]
                pairs = [(u, v) for v in range(n) for u in range(v)]
                multipartite = Graph(n, [(u, v) for u, v in pairs if side[u] != side[v]])
                cliques = Graph(n, [(u, v) for u, v in pairs if side[u] == side[v]])
                for g in (multipartite, cliques):
                    assert canonical_form(g) == canonical_oracle(g), parts

    def test_twin_rich_order_12(self):
        # Twin-rich: trying every ordering of the twins would take hours.
        assert canonical_form(complete_graph(12)) == "K" + "~" * 11
        # No edge: one cell that never splits.
        assert canonical_form(Graph(12)) == "K" + "?" * 11
        # One side placed first, then the other, is the least labelling.
        blocks = Graph(12, [(u, v) for u in range(6) for v in range(6, 12)])
        interleaved = Graph(12, [(u, v) for u in range(0, 12, 2) for v in range(1, 12, 2)])
        assert canonical_form(interleaved) == write_graph6(blocks)

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

    def test_matches_unfiltered_augmentation(self):
        # Canonical deletion drops augmentations before any canonical search;
        # no class may go missing, and the representatives and their order
        # are those of searching every augmentation.
        for n in range(2, 8):
            classes = augmented_classes_oracle(n, canonical_form)
            expected = tuple(parse_graph6(key) for key in sorted(classes))
            assert tuple(enumerate_connected_graphs(n)) == expected, n

    def test_canonical_deletion_saves_searches(self, monkeypatch):
        # Searching every augmentation of the 112 order-6 classes takes 7,056
        # canonical searches for the 853 order-7 classes; one mask per orbit
        # of each parent's automorphisms, filtered by canonical deletion,
        # takes 902.
        graphs_module._connected_classes(6)
        calls = []
        search = graphs_module.canonical_form
        monkeypatch.setattr(graphs_module, "canonical_form", lambda g: calls.append(g) or search(g))
        classes = graphs_module._connected_classes.__wrapped__(7)
        assert len(classes) == 853
        assert len(calls) == 902

    def test_augmentations_are_the_least_mask_of_each_orbit(self):
        for n in range(1, 7):
            for parent in enumerate_connected_graphs(n):
                group = automorphisms_oracle(parent)
                least = {
                    min(sum(1 << p[u] for u in range(n) if mask >> u & 1) for p in group)
                    for mask in range(1, 1 << n)
                }
                assert list(_augmentations(parent)) == sorted(least), write_graph6(parent)

    def test_capability_bound(self):
        with pytest.raises(CapabilityError):
            list(enumerate_connected_graphs(9))

    @pytest.mark.parametrize("n", [0, 9])
    def test_count_keeps_the_generation_bound(self, n, monkeypatch):
        def generate(n):
            raise AssertionError(f"generation started for n={n}")

        monkeypatch.setattr(graphs_module, "_connected_classes", generate)
        with pytest.raises(CapabilityError):
            connected_graph_count(n)
