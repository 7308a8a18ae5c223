import random
import time

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

from oracles import graph6_oracle
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


def test_offset_counts_from_the_line_as_read():
    # two spaces and the 10-byte header come before the bad byte
    with pytest.raises(Graph6Error) as info:
        parse_graph6("  >>graph6<<B\x07w\n")
    assert info.value.offset == 13


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


@pytest.mark.parametrize(
    "text, error",
    [("~??~" + "?" * 300_000, CapabilityError), ("A" + "?" * 300_000, Graph6Error)],
    ids=["long-form-header", "overlong-body"],
)
def test_long_line_is_rejected_in_linear_time(text, error):
    # Shifting every character of a long line into one int before these
    # checks copies the int once a character: about 10 s for these lines.
    started = time.perf_counter()
    with pytest.raises(error):
        parse_graph6(text)
    assert time.perf_counter() - started < 2


def test_empty_line_rejected():
    with pytest.raises(Graph6Error):
        parse_graph6("   ")


@settings(max_examples=200)
@given(graphs(max_order=8))
def test_round_trip_random(g):
    assert parse_graph6(write_graph6(g)) == g


def _check_codec(g):
    text = graph6_oracle(g)
    assert write_graph6(g) == text
    assert parse_graph6(text) == g


@pytest.mark.parametrize("n", range(1, 6))
def test_codec_matches_oracle_on_every_labelled_graph(n):
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    for bits in range(1 << len(pairs)):
        _check_codec(Graph(n, [pair for k, pair in enumerate(pairs) if bits >> k & 1]))


def test_codec_matches_oracle_on_random_graphs():
    rng = random.Random(6)
    for n in range(6, 63):
        for density in (0.1, 0.5, 0.9):
            _check_codec(Graph(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < density]))


@pytest.mark.parametrize("n", range(2, 13))
def test_every_padding_bit_is_checked_at_the_last_byte(n):
    text = write_graph6(complete_graph(n))
    last = ord(text[-1]) - 63
    for bit in range(-(n * (n - 1) // 2) % 6):  # the padding bits, all in the last byte
        with pytest.raises(Graph6Error, match="nonzero padding bits") as info:
            parse_graph6(" " + text[:-1] + chr(63 + (last | 1 << bit)))
        assert info.value.offset == len(text)
