import json

import pytest

from biclique_lab.cli import (
    EXIT_CAPABILITY,
    EXIT_FIXTURE,
    EXIT_FLAGGED,
    EXIT_OK,
    EXIT_PARSE,
    main,
)
from biclique_lab.distances import BicliqueDistanceReport
from biclique_lab.graphs import canonical_form, complete_graph, parse_graph6, write_graph6
from biclique_lab.patterns import CROWN, HAJOS


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# A catalogue line with every key, its graph6 value left to fill in.
_ENTRY = '{"graph6":%s,"order":2,"classification":"biclique-graph","searched_max_h":4}'


def write_g6(tmp_path, name, *graphs):
    path = tmp_path / name
    path.write_text("".join(write_graph6(g) + "\n" for g in graphs))
    return str(path)


class TestBicliquesCommand:
    def test_p6_listing(self, tmp_path, capsys):
        from biclique_lab.graphs import path_graph

        path = write_g6(tmp_path, "in.g6", path_graph(6))
        code, out, err = run(capsys, ["bicliques", path])
        assert code == EXIT_OK
        assert "{0,1,2}" in out and out.count("\n") == 6  # header + 4 + kb line
        kb_line = [line for line in out.splitlines() if line.startswith("kb\t")][0]
        kb = parse_graph6(kb_line.split("\t")[1])
        assert kb.n == 4

    def test_c4_single_biclique(self, tmp_path, capsys):
        from biclique_lab.graphs import cycle_graph

        path = write_g6(tmp_path, "in.g6", cycle_graph(4))
        code, out, err = run(capsys, ["bicliques", "--format", "json", path])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["kb_graph6"] == "@"
        assert payload["bicliques"][0]["vertices"] == [0, 1, 2, 3]

    def test_malformed_line_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "bad.g6"
        path.write_text("A_\nthis-is-not-graph6\n")
        code, out, err = run(capsys, ["bicliques", str(path)])
        assert code == EXIT_PARSE
        assert ":2:" in err

    def test_disconnected_rejected_with_message(self, tmp_path, capsys):
        from biclique_lab.graphs import Graph

        path = write_g6(tmp_path, "in.g6", Graph(4, [(0, 1), (2, 3)]))
        code, out, err = run(capsys, ["bicliques", str(path)])
        assert code == EXIT_PARSE
        assert "disconnected" in err


class TestUnreadableInputs:
    def test_non_graph6_character_on_stdin(self, capsys, monkeypatch):
        code, out, err = run(capsys, ["kb"], stdin="E\u00e9~w\n", monkeypatch=monkeypatch)
        assert code == EXIT_PARSE and out == ""
        assert err.startswith("<stdin>:1: ") and err.count("\n") == 1

    def test_graph6_offset_counts_from_the_line_as_read(self, capsys, monkeypatch):
        code, out, err = run(capsys, ["kb"], stdin="  >>graph6<<B\x07w\n", monkeypatch=monkeypatch)
        assert code == EXIT_PARSE and out == ""
        assert err.startswith("<stdin>:1: ") and err.endswith("(byte offset 13)\n")

    @pytest.mark.parametrize("command", ["bicliques", "kb", "distance", "check", "recognize"])
    def test_missing_file_and_directory_are_input_errors(self, command, tmp_path, capsys):
        good = write_g6(tmp_path, "good.g6", complete_graph(3))
        missing = str(tmp_path / "missing.g6")
        code, out, err = run(capsys, [command, missing, str(tmp_path), good])
        assert code == EXIT_PARSE
        assert err.splitlines() == [
            f"{missing}: No such file or directory",
            f"{tmp_path}: Is a directory",
        ]
        _, expected, _ = run(capsys, [command, good])
        assert out == expected and expected

    def test_undecodable_byte_in_a_file_fails_that_line_only(self, tmp_path, capsys):
        path = tmp_path / "latin1.g6"
        path.write_bytes(b"Bw\nE\xe9~w\nBw\n")
        code, out, err = run(capsys, ["kb", str(path)])
        assert code == EXIT_PARSE and out == "Bw\nBw\n"
        assert err.startswith(f"{path}:2: ") and err.count("\n") == 1

    def test_undecodable_byte_on_stdin_fails_that_line_only(self, capsys, monkeypatch):
        import io
        import sys

        stdin = io.TextIOWrapper(io.BytesIO(b"Bw\nE\xe9~w\nBw\n"), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = run(capsys, ["kb"])
        assert code == EXIT_PARSE and out == "Bw\nBw\n"
        assert err.startswith("<stdin>:2: ") and err.count("\n") == 1


class TestKbCommand:
    def test_kb_stream(self, capsys, monkeypatch):
        code, out, err = run(
            capsys, ["kb"], stdin="Bw\n# comment\n\n", monkeypatch=monkeypatch
        )
        assert code == EXIT_OK
        assert out.strip() == "Bw"  # KB(K3) = K3

    def test_legend(self, capsys, monkeypatch):
        code, out, err = run(
            capsys, ["kb", "--legend"], stdin="Bw\n", monkeypatch=monkeypatch
        )
        assert "# 0: {0,1}" in out


class TestDistanceCommand:
    def test_tsv_table(self, tmp_path, capsys):
        from biclique_lab.graphs import path_graph

        path = write_g6(tmp_path, "in.g6", path_graph(6))
        code, out, err = run(capsys, ["distance", path])
        assert code == EXIT_OK
        rows = [line.split("\t") for line in out.splitlines()]
        assert all(len(row) == 7 for row in rows)
        by_pair = {(row[1], row[2]): row for row in rows}
        assert by_pair[("0", "3")][3:6] == ["1", "2", "2"]

    def test_json_rows(self, tmp_path, capsys):
        from biclique_lab.graphs import path_graph

        path = write_g6(tmp_path, "in.g6", path_graph(6))
        code, out, err = run(capsys, ["distance", "--format", "json", path])
        payloads = [json.loads(line) for line in out.splitlines()]
        assert all(p["d_kb"] == p["formula_value"] for p in payloads)
        flagged = [p for p in payloads if p["d_g"] > 0]
        assert all(p["witness_count"] >= p["d_g"] + 1 for p in flagged)

    def test_json_rows_are_canonical_json(self, capsys, monkeypatch):
        # The rows are written by hand, so each must read back to itself
        # under json.dumps: escapes in the graph6, null, and the key order.
        from biclique_lab.graphs import enumerate_connected_graphs

        lines = [write_graph6(g) for g in enumerate_connected_graphs(7)] + ["F?L\\O"]
        code, out, err = run(capsys, ["distance", "--format", "json"], "\n".join(lines) + "\n", monkeypatch)
        assert code == EXIT_OK and err == ""
        rows = out.splitlines()
        for line in rows:
            assert line == json.dumps(json.loads(line), separators=(",", ":"))
        keys = ["schema", "graph6", "i", "j", "d_g", "d_kb", "formula_value", "closest_pair", "witness_count"]
        payloads = [json.loads(line) for line in rows]
        assert all(list(p) == keys for p in payloads)
        # The CLI unpacks each report as a tuple, so its fields are the keys.
        assert BicliqueDistanceReport._fields == tuple(keys[2:])
        assert any(p["graph6"] == "F?L\\O" for p in payloads)
        assert any(p["witness_count"] is None for p in payloads)
        assert any(p["witness_count"] is not None for p in payloads)


class TestCheckCommand:
    def test_crown_negative_exit(self, tmp_path, capsys):
        path = write_g6(tmp_path, "in.g6", CROWN.graph)
        code, out, err = run(capsys, ["check", path])
        assert code == EXIT_FLAGGED
        payload = json.loads(out)
        assert payload["overall"] == "cannot-be-biclique-graph"
        assert payload["checks"]["twin_k2"]["verdict"] == "fail"
        assert payload["checks"]["p3_diamond_gem"]["verdict"] == "pass"

    def test_hajos_fails_multiple_checks(self, tmp_path, capsys):
        path = write_g6(tmp_path, "in.g6", HAJOS.graph)
        code, out, err = run(capsys, ["check", path])
        payload = json.loads(out)
        failing = {
            name
            for name, data in payload["checks"].items()
            if data["verdict"] == "fail"
        }
        assert {"forbidden_subgraph", "degree2_bound", "helly_degree2"} <= failing

    def test_k3_clean_exit(self, tmp_path, capsys):
        path = write_g6(tmp_path, "in.g6", complete_graph(3))
        code, out, err = run(capsys, ["check", path])
        assert code == EXIT_OK

    def test_invert_exit(self, tmp_path, capsys):
        path = write_g6(tmp_path, "in.g6", complete_graph(3))
        code, out, err = run(capsys, ["check", "--invert-exit", path])
        assert code == EXIT_FLAGGED

    def test_streaming_multiple_graphs(self, capsys, monkeypatch):
        stdin = "Bw\nA_\n"
        code, out, err = run(capsys, ["check"], stdin=stdin, monkeypatch=monkeypatch)
        assert len(out.splitlines()) == 2


class TestRecognizeCommand:
    def test_k3_recognized(self, capsys, monkeypatch):
        code, out, err = run(
            capsys,
            ["recognize", "--max-h-order", "4"],
            stdin="Bw\n",
            monkeypatch=monkeypatch,
        )
        assert code == EXIT_OK
        g6, host, bound = out.strip().split("\t")
        assert host == "Bw" and bound == "4"

    def test_p3_not_recognized(self, capsys, monkeypatch):
        code, out, err = run(
            capsys,
            ["recognize", "--max-h-order", "5"],
            stdin="Bo\n",
            monkeypatch=monkeypatch,
        )
        assert out.strip().split("\t")[1] == "none"

    def test_stream_of_queries(self, capsys, monkeypatch):
        # P3, K3, P3 relabelled, K3: repeated orders read one resumed sweep
        code, out, err = run(
            capsys,
            ["recognize", "--max-h-order", "6"],
            stdin="BW\nBw\nBg\nBw\n",
            monkeypatch=monkeypatch,
        )
        assert code == EXIT_OK
        assert out == "BW\tnone\t6\nBw\tBw\t6\nBg\tnone\t6\nBw\tBw\t6\n"

    def test_repeated_calls_share_no_state(self, capsys, monkeypatch):
        # main reuses one parser; a flag or a usage error must not carry over
        from biclique_lab.cli import build_parser

        assert build_parser() is build_parser()
        bounded = run(capsys, ["recognize", "--max-h-order", "6"], stdin="Bw\n", monkeypatch=monkeypatch)
        assert bounded == (EXIT_OK, "Bw\tBw\t6\n", "")
        with pytest.raises(SystemExit) as exc:
            main(["recognize", "--max-h-order", "x"])
        assert exc.value.code == 2
        capsys.readouterr()
        default = run(capsys, ["recognize"], stdin="Bw\n", monkeypatch=monkeypatch)
        assert default == (EXIT_OK, "Bw\tBw\t8\n", "")
        again = run(capsys, ["recognize", "--max-h-order", "6"], stdin="Bw\n", monkeypatch=monkeypatch)
        assert again == bounded

    def test_capability_exit(self, capsys, monkeypatch):
        code, out, err = run(
            capsys,
            ["recognize", "--max-h-order", "99"],
            stdin="Bw\n",
            monkeypatch=monkeypatch,
        )
        assert code == EXIT_CAPABILITY


class TestCatalogueCommand:
    def test_small_run_with_fixture(self, tmp_path, capsys):
        fixture = tmp_path / "ref.g6"
        fixture.write_text("A_\nBw\n")
        code, out, err = run(
            capsys,
            [
                "catalogue",
                "--max-g-order",
                "3",
                "--max-h-order",
                "4",
                "--out",
                str(tmp_path / "cat"),
                "--fixture",
                str(fixture),
                "--workers",
                "1",
            ],
        )
        assert code == EXIT_OK
        assert "reference\tmatch" in out
        assert (tmp_path / "cat" / "catalogue-n3.jsonl").exists()

    def test_fixture_mismatch_exit_code_and_naming(self, tmp_path, capsys):
        # A listed class not built positive, then a built one not listed.
        fixture = tmp_path / "ref.g6"
        for listed, line in [
            ("A_\nBw\nBo\n", "missing-positive\t" + canonical_form(parse_graph6("Bo"))),
            ("A_\n", "extra-positive\tBw"),
        ]:
            fixture.write_text(listed)
            code, out, err = run(
                capsys,
                [
                    "catalogue",
                    "--max-g-order",
                    "3",
                    "--max-h-order",
                    "4",
                    "--out",
                    str(tmp_path / "cat"),
                    "--fixture",
                    str(fixture),
                    "--workers",
                    "1",
                ],
            )
            assert code == EXIT_FIXTURE
            assert line in out

    def test_missing_fixture_warns(self, tmp_path, capsys):
        code, out, err = run(
            capsys,
            [
                "catalogue",
                "--max-g-order",
                "3",
                "--max-h-order",
                "4",
                "--out",
                str(tmp_path / "cat"),
                "--fixture",
                str(tmp_path / "absent.g6"),
                "--workers",
                "1",
            ],
        )
        assert code == EXIT_OK and "skipped" in err

    def test_missing_fixture_strict_fails(self, tmp_path, capsys):
        code, out, err = run(
            capsys,
            [
                "catalogue",
                "--max-g-order",
                "3",
                "--max-h-order",
                "4",
                "--out",
                str(tmp_path / "cat"),
                "--fixture",
                str(tmp_path / "absent.g6"),
                "--strict",
                "--workers",
                "1",
            ],
        )
        assert code == EXIT_FIXTURE

    def test_reruns_byte_identical(self, tmp_path, capsys):
        for sub in ("a", "b"):
            run(
                capsys,
                [
                    "catalogue",
                    "--max-g-order",
                    "3",
                    "--max-h-order",
                    "5",
                    "--out",
                    str(tmp_path / sub),
                    "--workers",
                    "1",
                ],
            )
        for name in ("catalogue-n2.jsonl", "catalogue-n3.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestConjecturesCommand:
    def test_scan_catalogue(self, tmp_path, capsys):
        run(
            capsys,
            [
                "catalogue",
                "--max-g-order",
                "4",
                "--max-h-order",
                "6",
                "--out",
                str(tmp_path / "cat"),
                "--workers",
                "1",
            ],
        )
        findings_path = tmp_path / "findings.jsonl"
        code, out, err = run(
            capsys,
            [
                "conjectures",
                "--catalogue",
                str(tmp_path / "cat"),
                "--out",
                str(findings_path),
            ],
        )
        assert code == EXIT_OK
        lines = findings_path.read_text().splitlines()
        payloads = [json.loads(line) for line in lines]
        assert payloads and all(p["verdict"] != "counterexample" for p in payloads)
        assert {p["conjecture"] for p in payloads} == {
            "simplicial-helly",
            "generalized-twins",
            "hamiltonian",
        }
        assert "hamiltonian\tconsistent" in out

    def test_empty_catalogue_errors(self, tmp_path, capsys):
        code, out, err = run(
            capsys, ["conjectures", "--catalogue", str(tmp_path / "nothing")]
        )
        assert code == EXIT_PARSE


class TestWholeCommandErrors:
    """A file or format error that ends ``catalogue`` or ``conjectures`` is
    one stderr line and exit 1, not a traceback."""

    @staticmethod
    def catalogue(capsys, out, *extra):
        argv = ["catalogue", "--max-g-order", "3", "--max-h-order", "4", "--workers", "1"]
        return run(capsys, argv + ["--out", str(out), *extra])

    def test_fixture_that_is_a_directory(self, tmp_path, capsys):
        code, out, err = self.catalogue(capsys, tmp_path / "cat", "--fixture", str(tmp_path))
        assert code == EXIT_PARSE
        assert err.count("\n") == 1 and "Is a directory" in err

    def test_fixture_line_that_is_not_graph6(self, tmp_path, capsys):
        fixture = tmp_path / "ref.g6"
        fixture.write_text("# reference\nA_\nnot graph6\n")
        code, out, err = self.catalogue(capsys, tmp_path / "cat", "--fixture", str(fixture))
        assert code == EXIT_PARSE
        assert err.startswith(f"{fixture}:3: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "line, message",
        [
            ("~?@B????", "multi-byte graph6 order headers (n > 62) are not supported"),
            ("L" + "?" * 13, "canonical form supports n <= 12, got 13"),
        ],
    )
    def test_fixture_line_beyond_the_size_bounds_fails_before_the_sweep(
        self, line, message, tmp_path, capsys, monkeypatch
    ):
        from biclique_lab import cli

        def no_sweep(*args, **kwargs):
            pytest.fail("the catalogue was built before --fixture was read")

        monkeypatch.setattr(cli, "build_catalogue", no_sweep)
        fixture = tmp_path / "ref.g6"
        fixture.write_text(f"A_\n{line}\n")
        code, out, err = self.catalogue(capsys, tmp_path / "cat", "--fixture", str(fixture))
        assert code == EXIT_PARSE and out == ""
        assert err == f"{fixture}:2: {message}\n"
        assert not (tmp_path / "cat").exists()

    def test_out_that_is_an_existing_file(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        code, out, err = self.catalogue(capsys, taken)
        assert code == EXIT_PARSE
        assert err.count("\n") == 1 and "File exists" in err

    def test_out_that_is_an_existing_file_fails_before_the_sweep(self, tmp_path, capsys, monkeypatch):
        from biclique_lab import cli

        def no_sweep(*args, **kwargs):
            pytest.fail("the catalogue was built before --out was checked")

        monkeypatch.setattr(cli, "build_catalogue", no_sweep)
        taken = tmp_path / "taken"
        taken.write_text("")
        code, out, err = self.catalogue(capsys, taken)
        assert code == EXIT_PARSE
        assert err.count("\n") == 1 and "File exists" in err

    @pytest.mark.parametrize("bounds", [("5", "4"), ("3", "10"), ("1", "4"), ("9", "9")])
    def test_bound_error_creates_no_directory(self, bounds, tmp_path, capsys, monkeypatch):
        from biclique_lab import cli

        def no_sweep(*args, **kwargs):
            pytest.fail("the catalogue was built before its bounds were checked")

        monkeypatch.setattr(cli, "build_catalogue", no_sweep)
        out = tmp_path / "cat"
        code, _, err = run(
            capsys,
            ["catalogue", "--max-g-order", bounds[0], "--max-h-order", bounds[1], "--out", str(out)],
        )
        assert code == EXIT_CAPABILITY and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("{not json", "Expecting property name"),
            ('{"graph6":"A_"}', "missing key"),
            (_ENTRY % "5", "graph6 is not a string: 5"),
            (_ENTRY % '"A_x"', "graph6 body for n=2 needs 1 bytes, got 2"),
        ],
    )
    def test_malformed_catalogue_line(self, line, message, tmp_path, capsys):
        path = tmp_path / "catalogue-n2.jsonl"
        path.write_text(line + "\n")
        code, out, err = run(capsys, ["conjectures", "--catalogue", str(tmp_path)])
        assert code == EXIT_PARSE and out == ""
        assert err.startswith(f"{path}:1: ") and message in err and err.count("\n") == 1

    def test_findings_out_in_a_missing_directory(self, tmp_path, capsys):
        self.catalogue(capsys, tmp_path / "cat")
        findings = tmp_path / "missing" / "x.jsonl"
        code, out, err = run(
            capsys, ["conjectures", "--catalogue", str(tmp_path / "cat"), "--out", str(findings)]
        )
        assert code == EXIT_PARSE and out == ""
        assert err.count("\n") == 1 and "No such file or directory" in err


class TestFlags:
    @pytest.mark.parametrize("value", ["0", "-4"])
    def test_workers_below_one_rejected(self, value, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["catalogue", "--out", str(tmp_path / "cat"), "--workers", value])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not (tmp_path / "cat").exists()

    @pytest.mark.parametrize("value", ["1", "0", "-3"])
    def test_i_max_below_two_rejected(self, value, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["conjectures", "--catalogue", str(tmp_path), "--i-max", value])
        assert exc.value.code == 2
        assert "--i-max" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["kb", "--format", "json"],
            ["check", "--format", "json"],
            ["recognize", "--workers", "2"],
            ["bicliques", "--strict"],
            ["distance", "--workers", "1"],
            ["conjectures", "--catalogue", "x", "--strict"],
            ["conjectures", "--catalogue", "x", "--format", "json"],
        ],
    )
    def test_flags_a_command_does_not_read_are_not_accepted(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCapabilityExitCodes:
    # C21 is over the host order bound; the 14-vertex crown graph has 126
    # bicliques, so its KB is over the graph6 bound and fails only on output.
    @pytest.mark.parametrize(
        "argv, bad",
        [
            pytest.param(["bicliques"], "C21", id="bicliques"),
            pytest.param(["kb"], "C21", id="kb"),
            pytest.param(["distance"], "C21", id="distance"),
            pytest.param(["bicliques"], "crown14", id="bicliques-crown14"),
            pytest.param(["bicliques", "--format", "json"], "crown14", id="bicliques-json-crown14"),
            pytest.param(["kb"], "crown14", id="kb-crown14"),
            pytest.param(["kb", "--legend"], "crown14", id="kb-legend-crown14"),
        ],
    )
    def test_oversized_graph_exits_2_and_the_stream_goes_on(self, argv, bad, capsys, monkeypatch):
        from biclique_lab.graphs import cycle_graph, path_graph

        bad_g6 = {"C21": write_graph6(cycle_graph(21)), "crown14": "M???B}}vf[]o}_~??"}[bad]
        good = ["Bw", write_graph6(path_graph(4))]
        code, out, err = run(
            capsys,
            argv,
            stdin=f"{good[0]}\n{bad_g6}\n{good[1]}\n",
            monkeypatch=monkeypatch,
        )
        assert code == EXIT_CAPABILITY
        assert err.startswith("<stdin>:2: ") and err.count("\n") == 1
        _, expected, _ = run(capsys, argv, stdin="\n".join(good) + "\n", monkeypatch=monkeypatch)
        assert out == expected and len(expected.splitlines()) >= 2
