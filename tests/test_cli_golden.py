"""Byte identity of the CLI: exit code and stdout, pinned by SHA-256 digests.

The main stream is every connected graph on 1..6 vertices (143 graphs) in
generation order; the second stream mixes good lines with one malformed and
one disconnected line.  The digests were recorded before the per-graph
commands were rewritten around one shared driver, so any change to what a
command prints or how it exits shows up here.

A larger pair of streams holds the 853 connected graphs on 7 vertices and
their biclique graphs.  Those digests were recorded before the library's
duplicated primitives (connectivity, diamond and clique tests, biclique
sides, generation) were folded into one implementation each.

The catalogue on 2..6 vertices with hosts up to 7 vertices (its JSONL bytes)
and the ``conjectures`` scans over it under both containment readings (exit
code and stdout) were recorded before the distance BFS, the gem wings, the
conjecture verdicts and the host walk were folded.
"""

from __future__ import annotations

import hashlib
import io
import sys

import pytest

from biclique_lab.cli import main
from biclique_lab.bicliques import biclique_graph
from biclique_lab.graphs import enumerate_connected_graphs, parse_graph6, write_graph6

ALL_UP_TO_6 = "".join(
    write_graph6(g) + "\n" for n in range(1, 7) for g in enumerate_connected_graphs(n)
)
ALL_UP_TO_6_SHA256 = "ba2e407feebdaf9c3eef01ce2d23accadc0b884ad90f4032932735ddb6a129e9"

# K3, a malformed line, the disconnected 2K2, C4
BAD_LINES = "Bw\nthis-is-not-graph6\nCK\nCr\n"

COMMANDS = {
    "bicliques": ["bicliques"],
    "bicliques-json": ["bicliques", "--format", "json"],
    "kb-legend": ["kb", "--legend"],
    "distance": ["distance"],
    "distance-json": ["distance", "--format", "json"],
    "check": ["check"],
    "check-invert": ["check", "--invert-exit"],
    "recognize-6": ["recognize", "--max-h-order", "6"],
}

GOLDEN = {
    "bicliques/all": "10e8963da80cc993aef544ff07daf8a9a2d65a771c2cadfb1b36b47036f35eec",
    "bicliques/bad": "f853ffefa6049b73ef74b8d80a60d63e3e8f44999a8eb27fa34f54ea66a44569",
    "bicliques-json/all": "1d956a8e65168f3822e09bf911509984e3b595df6911e869587a964caec0a544",
    "bicliques-json/bad": "c645daa0cb955ac46cbd065f97e6caa4537903ef89da491f68c4bca5f4f7303f",
    "check/all": "4deaca96f4d6a4907d76f9982e2fcee53f2a03cc422b572c883e97a0564a83d5",
    "check/bad": "ba1260738a9557923d07e726aea6d53fdc97656217599e0a04a99f1d7751b509",
    "check-invert/all": "1c9bb2aa2defd7005f6dc210f737ccdcd746d7e3b2f66b065797bde84eca92cd",
    "check-invert/bad": "ba1260738a9557923d07e726aea6d53fdc97656217599e0a04a99f1d7751b509",
    "distance/all": "bfe6064668a348eba9b6848bed261cdc5889381c3e827ff096155206210b8b34",
    "distance/bad": "88251cf028127db037f9e8930a41254b7814c6deba081f4c8fc15f3fd91c88fe",
    "distance-json/all": "d3ede414994328532126b81aea9a78ec315661126967d724ef354b9893bdb3c2",
    "distance-json/bad": "ae38c5601fa209dad00d277101d0e92c04062222b00e0f8d74f1ef7607930afc",
    "kb-legend/all": "66d698ec11814fe22e06c292ee1bb8c769059afb60fb94018296c6b49ee2a267",
    "kb-legend/bad": "aee3cb76e8c43e0349cd54071338a0e320c0e59b989ba029ac2c8c2d5ee8a142",
    "recognize-6/all": "236e3e1b20cee5fe1e893c83df7ec619c161936ff45d5cb7d4cac76b9c47088b",
    "recognize-6/bad": "62f2b4b0921f6b84c9bf1e2321d59f6560cad946540b27b8886ad5e4caff2bf1",
}


ORDER_7 = "".join(write_graph6(g) + "\n" for g in enumerate_connected_graphs(7))
ORDER_7_SHA256 = "f39a11e21a91db326d834f8e3bf6d5ae85c0f04d6077d08cfbaeecbc572b0a93"
ORDER_7_KBS = "".join(
    write_graph6(biclique_graph(parse_graph6(line))[0]) + "\n" for line in ORDER_7.splitlines()
)
ORDER_7_KBS_SHA256 = "7e8a0f2eead94043f5bb6310c7564859a15ace687f985da77de4e48601be7574"

ORDER_7_COMMANDS = {
    "check": (["check"], ORDER_7),
    "bicliques-json": (["bicliques", "--format", "json"], ORDER_7),
    "distance-json": (["distance", "--format", "json"], ORDER_7),
    "kb-legend": (["kb", "--legend"], ORDER_7),
    "check-kbs": (["check"], ORDER_7_KBS),
}

ORDER_7_GOLDEN = {
    "bicliques-json": "6b3449422424f73b6ab955ab520eb7ad799150230b936153e4dc1ea4c14f85c4",
    "check": "6194026a4c07a01b85283f7b75463e76c92a4712143d02f6e1a02236767958fe",
    "check-kbs": "f1ee219989a4e33ca7812ea5d5ebfde41f734d9ea3134f3e551a77de96ee4dbc",
    "distance-json": "219510bd8c3d06aa9bb93bd86f239fae496e49f69282c9cb315d9b56e0496e96",
    "kb-legend": "62f3d7231e8623431782b2fbc22920450c3a335062c15a7750b62f1faadf83ec",
}


CATALOGUE_6_7_SHA256 = "28198b03fadfedcc37a90c383ce59f1811e079c8af777f8df3fab24c5d7f1188"

CONJECTURES_GOLDEN = {
    "exact": (0, "98dae14b9c30fe9b5f0ed247bb467b3a23b84b0942c6b273e9ac825044d5e1d7"),
    "superset": (4, "fd791d9508e1c61f8d205834ead4e0c21bd281d77d39c479256da0431339e158"),
}


def _digest(argv, stdin, capsys, monkeypatch) -> str:
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(list(argv))
    out = capsys.readouterr().out
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


def test_stream_is_the_recorded_one():
    assert ALL_UP_TO_6.count("\n") == 143
    assert hashlib.sha256(ALL_UP_TO_6.encode()).hexdigest() == ALL_UP_TO_6_SHA256


@pytest.mark.parametrize("stream", ["all", "bad"])
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_and_exit_code_unchanged(name, stream, capsys, monkeypatch):
    text = ALL_UP_TO_6 if stream == "all" else BAD_LINES
    assert _digest(COMMANDS[name], text, capsys, monkeypatch) == GOLDEN[f"{name}/{stream}"]


def test_order_7_streams_are_the_recorded_ones():
    assert ORDER_7.count("\n") == 853
    assert hashlib.sha256(ORDER_7.encode()).hexdigest() == ORDER_7_SHA256
    assert hashlib.sha256(ORDER_7_KBS.encode()).hexdigest() == ORDER_7_KBS_SHA256


@pytest.mark.parametrize("name", sorted(ORDER_7_COMMANDS))
def test_order_7_stdout_and_exit_code_unchanged(name, capsys, monkeypatch):
    argv, text = ORDER_7_COMMANDS[name]
    assert _digest(argv, text, capsys, monkeypatch) == ORDER_7_GOLDEN[name]


@pytest.fixture(scope="module")
def catalogue_6_7(tmp_path_factory):
    out = tmp_path_factory.mktemp("catalogue")
    argv = ["catalogue", "--max-g-order", "6", "--max-h-order", "7", "--workers", "1"]
    # exit 3: the default reference lists positives that need 8- and 9-vertex hosts
    assert main(argv + ["--out", str(out)]) == 3
    return out


def test_catalogue_jsonl_unchanged(catalogue_6_7):
    paths = sorted(catalogue_6_7.glob("catalogue-n*.jsonl"))
    assert [p.name for p in paths] == [f"catalogue-n{k}.jsonl" for k in range(2, 7)]
    data = b"".join(p.read_bytes() for p in paths)
    assert hashlib.sha256(data).hexdigest() == CATALOGUE_6_7_SHA256


@pytest.mark.parametrize("containment", sorted(CONJECTURES_GOLDEN))
def test_conjectures_stdout_and_exit_code_unchanged(containment, catalogue_6_7, capsys):
    capsys.readouterr()
    code = main(["conjectures", "--catalogue", str(catalogue_6_7), "--containment", containment])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == CONJECTURES_GOLDEN[containment]
