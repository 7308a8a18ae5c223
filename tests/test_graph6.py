import pytest
from hypothesis import given, settings

from biclique_lab.graphs import (
    CapabilityError,
    Graph,
    Graph6Error,
    complete_graph,
    parse_graph6,
    path_graph,
    write_graph6,
)

from strategies import graphs


def test_k2_parses():
    g = parse_graph6("A_")
    assert g.n == 2 and sorted(g.edges()) == [(0, 1)]


def test_k3_parses():
    assert parse_graph6("Bw") == complete_graph(3)


def test_k2_writes():
    assert write_graph6(complete_graph(2)) == "A_"


def test_k1_writes():
    assert write_graph6(Graph(1)) == "@"


def test_round_trip_example():
    assert write_graph6(parse_graph6("D?{")) == "D?{"


def test_header_prefix_stripped():
    assert parse_graph6(">>graph6<<A_") == complete_graph(2)


@pytest.mark.parametrize("n", range(1, 9))
def test_round_trip_paths(n):
    g = path_graph(n)
    assert parse_graph6(write_graph6(g)) == g


def test_character_out_of_range_names_offset():
    with pytest.raises(Graph6Error) as info:
        parse_graph6("B\x07w")
    assert info.value.offset == 1


@pytest.mark.parametrize("text, offset", [("E\u00e9~w", 1), ("Bw\u00ff", 2)])
def test_non_ascii_character_rejected_at_its_offset(text, offset):
    # non-ASCII must not turn into a replacement '?', which is valid graph6
    with pytest.raises(Graph6Error) as info:
        parse_graph6(text)
    assert info.value.offset == offset


def test_truncated_body_rejected():
    with pytest.raises(Graph6Error):
        parse_graph6("D?")


def test_overlong_body_rejected():
    with pytest.raises(Graph6Error):
        parse_graph6("A__")


def test_nonzero_padding_rejected():
    # K2 body uses 1 of 6 bits; set a padding bit.
    bad = "A" + chr(63 + 0b100001)
    with pytest.raises(Graph6Error) as info:
        parse_graph6(bad)
    assert info.value.offset == 1


def test_long_form_header_is_capability_error():
    with pytest.raises(CapabilityError):
        parse_graph6("~??~?????")


def test_empty_line_rejected():
    with pytest.raises(Graph6Error):
        parse_graph6("   ")


@settings(max_examples=200)
@given(graphs(max_order=8))
def test_round_trip_random(g):
    assert parse_graph6(write_graph6(g)) == g
