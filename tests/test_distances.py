import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from biclique_lab.bicliques import enumerate_bicliques
from biclique_lab.distances import (
    biclique_distance,
    distance_reports,
    find_witnesses,
    link_companions,
    verify_distance_formula,
)
from biclique_lab.graphs import (
    Graph,
    GraphError,
    cycle_graph,
    enumerate_connected_graphs,
    is_connected,
    path_graph,
)

from oracles import biclique_distance_oracle, distance_reports_oracle
from strategies import connected_graphs


@pytest.fixture(scope="module")
def p6():
    g = path_graph(6)
    return g, enumerate_bicliques(g)


@pytest.fixture(scope="module")
def p8():
    g = path_graph(8)
    return g, enumerate_bicliques(g)


class TestBicliqueDistance:
    def test_intersecting_pair_zero(self, p6):
        g, fam = p6  # {0,1,2} and {1,2,3}
        assert biclique_distance(g, fam, 0, 1) == 0

    def test_p6_opposite_ends(self, p6):
        g, fam = p6  # {0,1,2} and {3,4,5}
        assert biclique_distance(g, fam, 0, 3) == 1

    def test_p8_distance_three(self, p8):
        g, fam = p8  # {0,1,2} and {5,6,7}
        assert biclique_distance(g, fam, 0, 5) == 3

    def test_index_out_of_range(self, p6):
        g, fam = p6
        with pytest.raises(GraphError):
            biclique_distance(g, fam, 0, 99)

    @settings(max_examples=40)
    @given(connected_graphs(max_order=6))
    def test_matches_pairwise_oracle_and_symmetry(self, g):
        fam = enumerate_bicliques(g)
        for i in range(len(fam)):
            for j in range(i, len(fam)):
                d = biclique_distance(g, fam, i, j)
                assert d == biclique_distance(g, fam, j, i)
                if i != j:
                    assert d == biclique_distance_oracle(g, fam, i, j)
                else:
                    assert d == 0


class TestDistanceFormula:
    def test_p6_pair_formula(self, p6):
        reports = {(r.i, r.j): r for r in distance_reports(path_graph(6))}
        r = reports[(0, 3)]
        assert (r.d_g, r.formula_value, r.d_kb) == (1, 2, 2)

    def test_p8_pair_formula(self):
        reports = {(r.i, r.j): r for r in distance_reports(path_graph(8))}
        r = reports[(0, 5)]
        assert (r.d_g, r.formula_value, r.d_kb) == (3, 3, 3)

    def test_intersecting_pairs_adjacent_in_kb(self):
        for r in distance_reports(path_graph(6)):
            if r.d_g == 0:
                assert r.d_kb == 1 == r.formula_value

    def test_closest_pair_realises_distance(self, p8):
        from biclique_lab.graphs import distance as vertex_distance

        g, fam = p8
        for r in distance_reports(g):
            b, b_prime = r.closest_pair
            assert b in fam[r.i] and b_prime in fam[r.j]
            assert vertex_distance(g, b, b_prime) == r.d_g

    def test_closest_pair_is_the_definition_literal_choice(self):
        # v: the least vertex of B_j nearest to B_i; u: the least vertex of
        # B_i at distance d_g from v
        from biclique_lab.graphs import distance as vertex_distance

        for n in range(2, 7):  # K1 has no biclique
            for g in enumerate_connected_graphs(n):
                family = enumerate_bicliques(g)
                for r in distance_reports(g):
                    side_i, side_j = family[r.i].vertices, family[r.j].vertices

                    def to_side_i(v):
                        return min(vertex_distance(g, u, v) for u in side_i)

                    d_g = min(to_side_i(v) for v in side_j)
                    v = min(v for v in side_j if to_side_i(v) == d_g)
                    u = min(u for u in side_i if vertex_distance(g, u, v) == d_g)
                    assert r.closest_pair == (u, v), (g, r.i, r.j)

    @staticmethod
    def _rows(g):
        return [
            (r.i, r.j, r.d_g, r.d_kb, r.formula_value, r.closest_pair, r.witness_count)
            for r in distance_reports(g)
        ]

    def test_reports_match_the_literal_oracle_to_order_6(self):
        for n in range(2, 7):
            for g in enumerate_connected_graphs(n):
                assert self._rows(g) == distance_reports_oracle(g), g

    def test_reports_match_the_literal_oracle_past_diameter_4(self):
        # Connected classes to order 7 never reach d_g = 5; cycles, grids
        # and sparse random hosts do.  Their families come from the library,
        # since the oracle's own subset scan grows as 3^n.
        hosts = [cycle_graph(n) for n in range(7, 17)]
        for rows, cols in ((3, 3), (2, 5), (2, 6), (2, 7), (2, 8), (3, 4), (3, 5), (4, 4)):
            n = rows * cols
            across = [(v, v + 1) for v in range(n) if (v + 1) % cols]
            down = [(v, v + cols) for v in range(n - cols)]
            hosts.append(Graph(n, across + down))
        rng = random.Random(20)
        sparse = []
        while len(sparse) < 20:
            n = rng.randint(10, 13)
            g = Graph(n, rng.sample(list(combinations(range(n), 2)), round(0.25 * n * (n - 1) / 2)))
            if is_connected(g):
                sparse.append(g)
        hosts += sparse
        depth = 0
        for g in hosts:
            family = [b.vertices for b in enumerate_bicliques(g)]
            rows = self._rows(g)
            assert rows == distance_reports_oracle(g, family), g
            depth = max(depth, *(row[2] for row in rows))
        assert depth > 4

    def test_small_corpus_exact(self):
        for n in range(2, 6):
            for g in enumerate_connected_graphs(n):
                verify_distance_formula(g)


class TestWitnesses:
    def test_p6_witnesses(self, p6):
        g, fam = p6
        ws = find_witnesses(g, fam, 0, 3)
        assert ws.k == 1
        assert {fam[w].vertices for w in ws.witnesses} == {(1, 2, 3), (2, 3, 4)}
        for w in ws.witnesses:
            assert ws.distances[w] == (0, 0)

    def test_p8_witnesses(self, p8):
        g, fam = p8
        ws = find_witnesses(g, fam, 0, 5)
        assert ws.k == 3
        assert {fam[w].vertices for w in ws.witnesses} == {
            (1, 2, 3),
            (2, 3, 4),
            (3, 4, 5),
            (4, 5, 6),
        }
        assert len(ws.witnesses) >= ws.k + 1

    def test_intersecting_pair_rejected(self, p6):
        g, fam = p6
        with pytest.raises(GraphError):
            find_witnesses(g, fam, 0, 1)

    @settings(max_examples=40)
    @given(connected_graphs(max_order=6))
    def test_witness_bound_random(self, g):
        fam = enumerate_bicliques(g)
        for i in range(len(fam)):
            for j in range(i + 1, len(fam)):
                k = biclique_distance(g, fam, i, j)
                if k == 0:
                    continue
                ws = find_witnesses(g, fam, i, j)
                assert len(ws.witnesses) >= k + 1
                for w in ws.witnesses:
                    assert max(ws.distances[w]) <= k - 1


class TestLinkCompanions:
    def test_p6_bridge(self, p6):
        g, fam = p6
        rows = link_companions(g, fam, 0, 3)
        assert rows  # the edge 2-3 links the end bicliques
        for (u, v), b1, companions in rows:
            assert u in fam[0] and v in fam[3]
            assert u in fam[b1] and v in fam[b1]
            assert companions  # some fourth biclique meets all three

    def test_requires_disjoint_pair(self, p6):
        g, fam = p6
        with pytest.raises(GraphError):
            link_companions(g, fam, 0, 1)

    def test_crown_counts_past_64_bicliques(self):
        # K_{7,7} minus a perfect matching has 126 bicliques, so its incidence
        # masks are 126 bits wide: a bit walk cut at 64 bits finds 21,018
        # triples and 2,564,196 companions here.
        k = 7
        g = Graph(2 * k, [(i, k + j) for i in range(k) for j in range(k) if i != j])
        fam = enumerate_bicliques(g)
        triples = companions = 0
        for i, j in combinations(range(len(fam)), 2):
            if not fam[i].mask & fam[j].mask:
                rows = link_companions(g, fam, i, j)
                triples += len(rows)
                companions += sum(len(found) for _, _, found in rows)
        assert (len(fam), triples, companions) == (126, 41_664, 5_083_008)

    @settings(max_examples=40)
    @given(connected_graphs(max_order=6))
    def test_companion_exists_for_every_touching_pair(self, g):
        fam = enumerate_bicliques(g)
        for i in range(len(fam)):
            for j in range(i + 1, len(fam)):
                if fam[i].mask & fam[j].mask:
                    continue
                if biclique_distance(g, fam, i, j) != 1:
                    continue
                for (u, v), b1, companions in link_companions(g, fam, i, j):
                    assert b1 not in (i, j)
                    assert companions
