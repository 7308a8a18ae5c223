import pickle
import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from biclique_lab.bicliques import (
    Biclique,
    _bicliques,
    biclique_graph,
    biclique_graph_with_limit,
    enumerate_bicliques,
    is_induced_complete_bipartite,
)
from biclique_lab.graphs import (
    MAX_CANONICAL_ORDER,
    CapabilityError,
    Graph,
    GraphError,
    _bits,
    are_isomorphic,
    canonical_form,
    complete_graph,
    cut_vertices,
    cycle_graph,
    enumerate_connected_graphs,
    induced_subgraph,
    is_connected,
    path_graph,
    write_graph6,
)
from biclique_lab.obstructions import induced_p3s
from biclique_lab.patterns import DIAMOND

from oracles import bicliques_oracle, is_complete_bipartite_literal
from strategies import connected_graphs


def crown_graph(k: int) -> Graph:
    """K_{k,k} minus a perfect matching: 2^k - 2 bicliques on 2k vertices."""
    return Graph(2 * k, [(i, k + j) for i in range(k) for j in range(k) if i != j])


class TestValueTypes:
    def test_side_a_holds_the_lowest_vertex(self):
        b = Biclique(0b0111, 0b0110, 0b0001)
        assert (b.side_a, b.side_b) == (0b0001, 0b0110)
        same = Biclique(0b0111, 0b0001, 0b0110)
        assert b == same and hash(b) == hash(same)

    @pytest.mark.parametrize("sides", [(0b011, 0b011), (0b001, 0b000), (0b001, 0b110)])
    def test_sides_must_partition_the_mask(self, sides):
        with pytest.raises(GraphError, match="partition"):
            Biclique(0b011, *sides)

    def test_frozen(self):
        family = enumerate_bicliques(path_graph(4))
        for value, name in ((family[0], "side_a"), (family, "incidence")):
            with pytest.raises(AttributeError):
                setattr(value, name, 0)

    def test_pickle_round_trip(self):
        g = crown_graph(3)
        family = enumerate_bicliques(g)
        for value in (g, family[0], family):
            assert pickle.loads(pickle.dumps(value)) == value


class TestBipartitionTest:
    def test_p3_is_star(self):
        assert is_induced_complete_bipartite(path_graph(3), [0, 1, 2]) == ((0, 2), (1,))

    def test_triangle_is_not(self):
        assert is_induced_complete_bipartite(complete_graph(3), [0, 1, 2]) is None

    def test_c4_partition(self):
        assert is_induced_complete_bipartite(cycle_graph(4), [0, 1, 2, 3]) == ((0, 2), (1, 3))

    def test_first_side_holds_smallest_vertex(self):
        sides = is_induced_complete_bipartite(path_graph(4), [1, 2])
        assert sides == ((1,), (2,))

    def test_matches_literal_test_on_every_subset(self):
        for n in range(2, 6):
            for g in enumerate_connected_graphs(n):
                for k in range(2, n + 1):
                    for subset in combinations(range(n), k):
                        sides = is_induced_complete_bipartite(g, subset)
                        assert (sides is not None) == is_complete_bipartite_literal(g, subset)

    def test_empty_set_rejected(self):
        with pytest.raises(GraphError):
            is_induced_complete_bipartite(path_graph(3), [])


class TestEnumeration:
    def test_k3(self):
        fam = enumerate_bicliques(complete_graph(3))
        assert [b.vertices for b in fam] == [(0, 1), (0, 2), (1, 2)]

    def test_diamond(self):
        fam = enumerate_bicliques(DIAMOND.graph)
        assert [b.vertices for b in fam] == [(0, 1), (0, 2, 3), (1, 2, 3)]

    def test_c4_single(self):
        fam = enumerate_bicliques(cycle_graph(4))
        assert [b.vertices for b in fam] == [(0, 1, 2, 3)]

    def test_p6(self):
        fam = enumerate_bicliques(path_graph(6))
        assert [b.vertices for b in fam] == [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5)]

    def test_rejects_single_vertex(self):
        with pytest.raises(GraphError):
            enumerate_bicliques(Graph(1))

    def test_rejects_disconnected(self):
        with pytest.raises(GraphError):
            enumerate_bicliques(Graph(4, [(0, 1), (2, 3)]))

    def test_incidence_masks(self):
        fam = enumerate_bicliques(path_graph(6))
        for v in range(6):
            for index, biclique in enumerate(fam):
                assert bool(fam.incidence[v] >> index & 1) == (v in biclique)

    def test_matches_subset_oracle_small(self):
        for n in range(2, 6):
            for g in enumerate_connected_graphs(n):
                fam = enumerate_bicliques(g)
                assert [b.vertices for b in fam] == bicliques_oracle(g)

    @settings(max_examples=60)
    @given(connected_graphs(max_order=6))
    def test_matches_subset_oracle_random(self, g):
        assert [b.vertices for b in enumerate_bicliques(g)] == bicliques_oracle(g)

    @settings(max_examples=60)
    @given(connected_graphs(max_order=7))
    def test_maximality_and_coverage(self, g):
        fam = enumerate_bicliques(g)
        # every edge and every vertex is covered
        for u, v in g.edges():
            assert any(u in b and v in b for b in fam)
        for v in range(g.n):
            assert fam.incidence[v] != 0
        # every induced P3 is inside some biclique
        for u, v, w in induced_p3s(g):
            assert any(u in b and v in b and w in b for b in fam)
        # no single vertex extends any biclique on either side
        for b in fam:
            for v in range(g.n):
                if v in b:
                    continue
                hit = g.adj[v] & b.mask
                assert hit != b.side_a and hit != b.side_b

    def test_matches_subset_oracle_beyond_order_7(self):
        rng = random.Random(12)
        hosts = [crown_graph(4), crown_graph(5)]
        for n in (8, 9, 10):
            while len(hosts) < 2 + 8 * (n - 7):
                g = Graph(n, [(i, j) for i, j in combinations(range(n), 2) if rng.random() < 0.4])
                if is_connected(g):
                    hosts.append(g)
        for g in hosts:
            assert [b.vertices for b in enumerate_bicliques(g)] == bicliques_oracle(g)

    def test_no_duplicate_vertex_sets(self):
        for g in enumerate_connected_graphs(5):
            fam = enumerate_bicliques(g)
            masks = [b.mask for b in fam]
            assert len(set(masks)) == len(masks)


class TestRawStream:
    """``_bicliques`` before any sort.  ``biclique_graph_with_limit`` asks it
    to stop after ``cap + 1`` bicliques, so a biclique met twice could make
    it discard a family within the cap, and a capped list that is not a
    prefix of the full one could keep a family over it."""

    @staticmethod
    def stream(g):
        items = _bicliques(g)
        masks = [mask for mask, _, _ in items]
        assert len(set(masks)) == len(masks)
        for mask, side_a, side_b in items:
            assert side_a & mask & -mask  # the lowest vertex is on side_a
            sides = tuple(_bits(side_a)), tuple(_bits(side_b))
            assert is_induced_complete_bipartite(g, _bits(mask)) == sides
        return items

    def test_each_biclique_once_up_to_order_7(self):
        for n in range(2, 8):
            for g in enumerate_connected_graphs(n):
                found = sorted(tuple(_bits(mask)) for mask, _, _ in self.stream(g))
                if n <= 6:  # acceptance criterion 8 holds the oracle at order 7
                    assert found == bicliques_oracle(g)

    @pytest.mark.parametrize("k", range(3, 7))
    def test_crown_yields_each_of_its_bicliques_once(self, k):
        assert len(self.stream(crown_graph(k))) == 2**k - 2

    def test_a_capped_list_is_a_prefix_of_the_full_one(self):
        for n in range(2, 7):
            for g in enumerate_connected_graphs(n):
                full = _bicliques(g)
                kb, _ = biclique_graph(g)
                for limit in range(len(full) + 2):
                    assert _bicliques(g, limit) == full[: limit + 1]
                    capped, _ = biclique_graph_with_limit(g, limit)
                    assert capped == (kb if len(full) <= limit else None)


class TestBicliqueGraph:
    def test_kb_k3_is_k3(self):
        kb, _ = biclique_graph(complete_graph(3))
        assert are_isomorphic(kb, complete_graph(3))

    def test_kb_diamond_is_k3(self):
        kb, _ = biclique_graph(DIAMOND.graph)
        assert are_isomorphic(kb, complete_graph(3))

    def test_kb_c4_is_k1(self):
        kb, _ = biclique_graph(cycle_graph(4))
        assert kb.n == 1

    def test_kb_p6_intersection_table(self):
        kb, fam = biclique_graph(path_graph(6))
        expected = {
            (i, j)
            for i in range(len(fam))
            for j in range(i + 1, len(fam))
            if set(fam[i].vertices) & set(fam[j].vertices)
        }
        assert set(kb.edges()) == expected

    def test_limit_discards_large_families(self):
        kb, _ = biclique_graph_with_limit(complete_graph(5), 6)
        assert kb is None  # K5 has 10 bicliques
        kb, _ = biclique_graph_with_limit(path_graph(6), 6)
        assert kb is not None and kb.n == 4

    @pytest.mark.parametrize(
        "host, error, message",
        [
            (Graph(5, [(0, 1), (2, 3), (3, 4)]), GraphError, "must be connected"),
            (path_graph(25), CapabilityError, "n <= 20"),
            (Graph(1), GraphError, "at least 2 vertices"),
        ],
        ids=["disconnected", "order-25", "order-1"],
    )
    def test_limit_keeps_the_host_guards(self, host, error, message):
        for kb_of in (biclique_graph, lambda g: biclique_graph_with_limit(g, 30)):
            with pytest.raises(error, match=message):
                kb_of(host)

    def test_deleting_a_non_cut_vertex_never_adds_a_biclique(self):
        # Lemma (a) behind the pruned preimage sweep: a connected induced
        # subgraph has no more bicliques than its host.
        for n in range(3, 8):
            for g in enumerate_connected_graphs(n):
                size = len(enumerate_bicliques(g))
                for v in set(range(n)) - set(cut_vertices(g)):
                    sub = induced_subgraph(g, [u for u in range(n) if u != v])
                    assert len(enumerate_bicliques(sub)) <= size, (write_graph6(g), v)

    def test_deleting_a_false_twin_keeps_kb(self):
        # Lemma (b) behind the sweep's false-twin filter: if N(u) = N(v),
        # B -> B - v maps the bicliques of H one-to-one onto those of H - v
        # and keeps which pairs meet, so KB(H - v) is KB(H).
        compared = 0
        for n in range(3, 8):
            for g in enumerate_connected_graphs(n):
                masks = [b.mask for b in enumerate_bicliques(g)]
                for u, v in combinations(range(n), 2):
                    if g.adj[u] != g.adj[v]:
                        continue
                    sub = induced_subgraph(g, [w for w in range(n) if w != v])
                    # B - v relabelled as induced_subgraph does: the vertices above v move down one.
                    image = [m & ((1 << v) - 1) | m >> (v + 1) << v for m in masks]
                    family = sorted(b.mask for b in enumerate_bicliques(sub))
                    assert sorted(image) == family, (write_graph6(g), v)
                    for i, j in combinations(range(len(masks)), 2):
                        assert bool(masks[i] & masks[j]) == bool(image[i] & image[j])
                    # The two checks above are the isomorphism; canonical
                    # form confirms it wherever it reaches.
                    if len(masks) <= MAX_CANONICAL_ORDER:
                        assert canonical_form(biclique_graph(sub)[0]) == canonical_form(biclique_graph(g)[0])
                        compared += 1
        assert compared > 0

    def test_limit_cuts_exactly_the_families_over_the_cap(self):
        for n in range(2, 8):
            for g in enumerate_connected_graphs(n):
                kb, family = biclique_graph(g)
                for cap in range(1, 9):
                    capped, _ = biclique_graph_with_limit(g, cap)
                    if len(family) > cap:
                        assert capped is None
                    else:
                        assert capped == kb

    @settings(max_examples=40)
    @given(connected_graphs(max_order=7))
    def test_kb_connected(self, g):
        kb, _ = biclique_graph(g)
        assert is_connected(kb)
