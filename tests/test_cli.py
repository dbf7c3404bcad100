import ast
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from crslab import cli, extremal, families
from crslab.cli import FAMILY_NAMES, main
from crslab.families import base_complete, base_null, compose, example_graph
from crslab import formats
from crslab.graph import Graph
from crslab.sweeps import SUITE_ORDER, SuiteResult, run_suite

CLI_DIGESTS = Path(__file__).parent / "data" / "cli_digests.json"
SUITES_TEXT = Path(__file__).parent / "data" / "suites.txt"


@pytest.fixture
def no_builder(monkeypatch):
    """Every builder of vectors, label tables or graphs raises: a refusal
    that still comes out is made before anything is built."""
    def refuse(*args):
        raise AssertionError(f"a builder was reached with {args!r:.60}")

    for name in ("_base_labels", "_lattice_labels", "lattice_vertices"):
        monkeypatch.setattr(families, name, refuse)
    monkeypatch.setattr(Graph, "_from_adj", refuse)
    monkeypatch.setattr(Graph, "__init__", refuse)


@pytest.fixture
def no_power(monkeypatch):
    """The one function that takes the bounds' powers raises: a refusal
    that still comes out is made before 3^k or 2^(k-1) is computed."""
    def refuse(*args):
        raise AssertionError(f"a power was taken with {args!r}")

    monkeypatch.setattr(extremal, "_power", refuse)


def run_cli(argv, stdin_text=None, capsys=None):
    if stdin_text is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            code = main(argv)
        finally:
            sys.stdin = old
    else:
        code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestConstruct:
    def test_t2_json(self, capsys):
        code, out, _ = run_cli(["construct", "--family", "T", "--k", "2"], capsys=capsys)
        assert code == 0
        data = json.loads(out)
        assert len(data["edges"]) == 5

    def test_compose_flag(self, capsys):
        code, out, _ = run_cli(
            ["construct", "--family", "T", "--k", "2", "--compose"], capsys=capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["k"] == 2 and data["m"] == 3 and data["base_edges"] == []

    @pytest.mark.parametrize(
        "family, lattice_edges",
        [("U", [[[1, 1], [2, 2]]]), ("V", [[[1, 2], [2, 2]], [[2, 1], [2, 2]]])],
    )
    def test_compose_puts_u_and_v_over_the_complete_base(self, capsys, family, lattice_edges):
        code, out, _ = run_cli(["construct", "--family", family, "--k", "2", "--compose"], capsys=capsys)
        assert code == 0
        assert json.loads(out) == {"k": 2, "m": 2, "base_edges": [[1, 2]], "lattice_edges": lattice_edges}

    def test_gamma(self, capsys):
        code, out, _ = run_cli(["construct", "--family", "Gamma", "--k", "2"], capsys=capsys)
        data = json.loads(out)
        assert len(data["edges"]) == 20

    def test_dot(self, capsys):
        code, out, _ = run_cli(
            ["construct", "--family", "MaxB", "--k", "2", "--format", "dot"], capsys=capsys
        )
        assert code == 0 and out.startswith("graph G {")

    def test_dot_of_a_lattice(self, capsys):
        code, out, _ = run_cli(["construct", "--family", "U", "--k", "2", "--format", "dot"], capsys=capsys)
        assert code == 0
        assert out == (
            'graph G {\n  "(1,1)";\n  "(1,2)";\n  "(2,1)";\n  "(2,2)";\n'
            '  "(1,1)" -- "(2,2)";\n}\n'
        )

    def test_g6_is_plain_relabel(self, capsys):
        code, out, _ = run_cli(
            ["construct", "--family", "U", "--k", "2", "--format", "g6"], capsys=capsys
        )
        assert code == 0
        from crslab.graph6 import read_graph6

        g = read_graph6(out)
        assert g.order == 4 and g.size == 1


class TestVerify:
    def test_membership_c_member(self, tmp_path, capsys):
        path = tmp_path / "t2.json"
        path.write_text(json.dumps(formats.graph_to_json(example_graph("T", 2))))
        code, out, _ = run_cli(["verify", "--membership", "C", "--graph", str(path)], capsys=capsys)
        assert code == 0
        assert json.loads(out)["member"] is True

    def test_membership_c_non_member_exits_1(self, tmp_path, capsys):
        from crslab.families import span_lattice

        path = tmp_path / "bad.json"
        bad = span_lattice(2, 3, [((1, 1), (3, 3))])
        path.write_text(json.dumps(formats.graph_to_json(bad)))
        code, out, _ = run_cli(["verify", "--membership", "C", "--graph", str(path)], capsys=capsys)
        assert code == 1
        data = json.loads(out)
        assert data["member"] is False and data["bad_edge"] is not None

    def test_membership_b_needs_composite(self, tmp_path, capsys):
        path = tmp_path / "u2.json"
        path.write_text(json.dumps(formats.graph_to_json(example_graph("U", 2))))
        code, _out, err = run_cli(["verify", "--membership", "B", "--graph", str(path)], capsys=capsys)
        assert code == 2 and "composite" in err

    @pytest.mark.parametrize("base, family, member", [(base_complete, "V", True), (base_null, "U", False)])
    def test_membership_b_on_a_composite(self, tmp_path, capsys, base, family, member):
        path = tmp_path / "comp.json"
        comp = compose(base(2), example_graph(family, 2), 2, 2)
        path.write_text(json.dumps(formats.composite_to_json(comp)))
        code, out, _ = run_cli(["verify", "--membership", "B", "--graph", str(path)], capsys=capsys)
        assert code == (0 if member else 1)
        data = json.loads(out)
        assert data["member"] is member and data["family"] == "B" and data["k"] == 2

    def test_membership_c_on_a_composite(self, tmp_path, capsys):
        path = tmp_path / "comp.json"
        path.write_text(json.dumps(formats.composite_to_json(compose(base_null(2), example_graph("T", 2), 2, 3))))
        code, out, _ = run_cli(["verify", "--membership", "C", "--graph", str(path)], capsys=capsys)
        assert code == 0
        assert json.loads(out)["member"] is True
        path.write_text(json.dumps(formats.composite_to_json(compose(base_complete(2), example_graph("T", 2), 2, 3))))
        code, out, err = run_cli(["verify", "--membership", "C", "--graph", str(path)], capsys=capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: the radius-3 family needs a null base"]

    @pytest.mark.parametrize(
        "text",
        [
            json.dumps(formats.graph_to_json(example_graph("U", 2))),
            '{"k": 2, "m": 4, "base_edges": [], "lattice_edges": []}',
        ],
        ids=["lattice-on-2^2", "composite-on-4^2"],
    )
    def test_membership_c_off_the_3_lattice_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "off.json"
        path.write_text(text)
        code, out, err = run_cli(["verify", "--membership", "C", "--graph", str(path)], capsys=capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: lattice graph must live on all of [3]^2"]

    def test_w_certificate(self, tmp_path, capsys):
        from crslab.families import base_null, compose

        comp = compose(base_null(2), example_graph("T", 2), 2, 3)
        path = tmp_path / "comp.json"
        path.write_text(json.dumps(formats.composite_to_json(comp)))
        code, out, _ = run_cli(
            ["verify", "--graph", str(path), "--w", "b1,b2"], capsys=capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["m"] == 3 and len(data["table"]) == 9

    def test_w_failure_exits_1(self, tmp_path, capsys):
        path = tmp_path / "c4.json"
        from crslab.graph import plain_graph

        c4 = plain_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        path.write_text(json.dumps(formats.graph_to_json(c4)))
        code, out, _ = run_cli(["verify", "--graph", str(path), "--w", "0,1"], capsys=capsys)
        assert code == 1
        assert json.loads(out)["certified"] is False


class TestEnumerate:
    def test_b_with_complete_base(self, tmp_path, capsys):
        base_path = tmp_path / "k2.json"
        base_path.write_text(json.dumps(formats.graph_to_json(base_complete(2))))
        code, out, _ = run_cli(
            ["enumerate", "--minimal", "B", "--k", "2", "--base", str(base_path)],
            capsys=capsys,
        )
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 2
        assert len(lines[0]["edges"]) == 1 and len(lines[1]["edges"]) == 2

    def test_default_base_is_edgeless(self, capsys):
        code, out, _ = run_cli(["enumerate", "--minimal", "B", "--k", "2"], capsys=capsys)
        assert code == 0
        sizes = sorted(len(json.loads(line)["edges"]) for line in out.splitlines())
        assert sizes == [2, 3, 3, 4]

    def test_k3_cap_exits_3(self, capsys):
        code, _out, err = run_cli(["enumerate", "--minimal", "C", "--k", "3"], capsys=capsys)
        assert code == 3 and "cap" in err.lower()

    def test_c_refuses_a_base_with_edges(self, tmp_path, capsys):
        argv = ["enumerate", "--minimal", "C", "--k", "2"]
        path = tmp_path / "base.json"
        path.write_text(json.dumps(formats.graph_to_json(base_complete(2))))
        code, out, err = run_cli(argv + ["--base", str(path)], capsys=capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: the radius-3 family needs a null base"]
        path.write_text(json.dumps(formats.graph_to_json(base_null(2))))
        assert run_cli(argv + ["--base", str(path)], capsys=capsys) == run_cli(argv, capsys=capsys)

    @pytest.mark.parametrize("kind,k", [("C", "0"), ("B", "1")])
    def test_k_below_two_exits_2(self, capsys, kind, k):
        # malformed input, not a cap
        code, out, err = run_cli(["enumerate", "--minimal", kind, "--k", k], capsys=capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: need k >= 2, got {k}"]


class TestBounds:
    def test_c_k3(self, capsys):
        code, out, _ = run_cli(["bounds", "C", "--k", "3"], capsys=capsys)
        assert code == 0
        assert json.loads(out) == {"lower": 14, "upper": 39}

    @pytest.mark.parametrize(
        "argv", [["--k", "300000"], ["--k", "100000000", "--composite"]]
    )
    def test_oversized_k_exits_3_at_once(self, capsys, no_power, argv):
        # refused before 3^k is computed or printed
        code, out, err = run_cli(["bounds", "C"] + argv, capsys=capsys)
        assert code == 3 and out == ""
        assert err.splitlines() == [f"error: radius-3 bounds need k <= 4096, got k={argv[1]}"]

    @pytest.mark.parametrize("extra", [[], ["--composite"]])
    def test_largest_k_prints(self, capsys, extra):
        code, out, _ = run_cli(["bounds", "C", "--k", "4096"] + extra, capsys=capsys)
        assert code == 0 and len(json.loads(out)) == 2

    def test_b_base_file(self, tmp_path, capsys):
        path = tmp_path / "base.json"
        path.write_text(json.dumps(formats.graph_to_json(base_complete(2))))
        code, out, _ = run_cli(["bounds", "B", "--base", str(path)], capsys=capsys)
        assert json.loads(out) == {"lower": 1, "upper": 2}
        code, out, _ = run_cli(
            ["bounds", "B", "--base", str(path), "--composite"], capsys=capsys
        )
        assert json.loads(out) == {"lower": 6, "upper": 7}

    @pytest.mark.parametrize("extra", [[], ["--composite"]])
    def test_oversized_base_exits_3_at_once(self, tmp_path, capsys, no_power, extra):
        # refused before 2^(k-1) is computed or printed
        path = tmp_path / "base.json"
        path.write_text(json.dumps(formats.graph_to_json(base_null(15000))))
        code, out, err = run_cli(["bounds", "B", "--base", str(path)] + extra, capsys=capsys)
        assert code == 3 and out == ""
        assert err.splitlines() == ["error: radius-2 bounds need k <= 4096, got k=15000"]

    @pytest.mark.parametrize("extra", [[], ["--composite"]])
    def test_largest_base_prints(self, tmp_path, capsys, extra):
        path = tmp_path / "base.json"
        path.write_text(json.dumps(formats.graph_to_json(base_null(4096))))
        code, out, _ = run_cli(["bounds", "B", "--base", str(path)] + extra, capsys=capsys)
        assert code == 0 and len(json.loads(out)) == 2

    def test_missing_argument_exits_2(self, capsys):
        code, _out, err = run_cli(["bounds", "B"], capsys=capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [(["C", "--k", "3"], "bounds C takes --k, not --base"), (["B", "--k", "9"], "bounds B takes --base, not --k")],
    )
    def test_option_of_the_other_kind_exits_2(self, tmp_path, capsys, argv, message):
        # refused before the base file is read: it does not exist
        missing = str(tmp_path / "missing.json")
        code, out, err = run_cli(["bounds", *argv, "--base", missing], capsys=capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: {message}"]


class TestClassifyAndDim:
    def test_classify_round_trip_across_formats(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["construct", "--family", "T", "--k", "2", "--compose"], capsys=capsys
        )
        json_path = tmp_path / "t.json"
        json_path.write_text(out)
        code, out_json, _ = run_cli(["classify", "--graph", str(json_path)], capsys=capsys)
        assert code == 0

        code, out, _ = run_cli(
            ["construct", "--family", "T", "--k", "2", "--compose", "--format", "g6"],
            capsys=capsys,
        )
        g6_path = tmp_path / "t.g6"
        g6_path.write_text(out)
        code, out_g6, _ = run_cli(["classify", "--graph", str(g6_path)], capsys=capsys)
        assert code == 0

        a, b = json.loads(out_json), json.loads(out_g6)
        assert a["verdict"] == b["verdict"] == "family-c"
        assert a["k"] == b["k"] == 2

    def test_classify_reads_stdin(self, capsys):
        from crslab.graph import plain_graph

        text = json.dumps(formats.graph_to_json(plain_graph(4, [(0, 1), (1, 2), (2, 3)])))
        code, out, _ = run_cli(["classify", "--graph", "-"], stdin_text=text, capsys=capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "path"

    @pytest.mark.parametrize(
        "g6, expected",
        [
            # K4: every vertex is universal, and the witness leaves out the first
            (
                "C~",
                '{\n  "verdict": "universal-vertex",\n  "k": null,\n  "witness": {\n    "w": [\n'
                '      1,\n      2,\n      3\n    ],\n    "m": 1,\n    "table": [\n      [\n'
                '        0,\n        [\n          1,\n          1,\n          1\n        ]\n      ]\n'
                '    ]\n  }\n}\n',
            ),
            # one universal vertex, 5, in a graph of dimension 2 < n - 1
            (
                "EAJw",
                '{\n  "verdict": "universal-vertex",\n  "k": null,\n  "witness": {\n    "w": [\n'
                '      0,\n      1,\n      2,\n      3,\n      4\n    ],\n    "m": 1,\n    "table": [\n'
                '      [\n        5,\n        [\n          1,\n          1,\n          1,\n'
                '          1,\n          1\n        ]\n      ]\n    ]\n  }\n}\n',
            ),
        ],
        ids=["K4", "EAJw"],
    )
    def test_classify_universal_vertex_bytes(self, capsys, g6, expected):
        code, out, err = run_cli(["classify", "--graph", "-"], stdin_text=g6 + "\n", capsys=capsys)
        assert (code, out, err) == (0, expected, "")

    def test_order_cap_env(self, tmp_path, capsys, monkeypatch):
        from crslab.graph import plain_graph

        big = plain_graph(13, [(i, i + 1) for i in range(12)])
        path = tmp_path / "big.json"
        path.write_text(json.dumps(formats.graph_to_json(big)))
        code, _out, _err = run_cli(["classify", "--graph", str(path)], capsys=capsys)
        assert code == 3
        monkeypatch.setenv("CRSLAB_ORDER_CAP", "14")
        code, out, _ = run_cli(["classify", "--graph", str(path)], capsys=capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "path"

    @pytest.mark.parametrize("command", ["classify", "dim"])
    def test_cap_option_raises_the_order_cap(self, tmp_path, capsys, command):
        from crslab.graph import plain_graph

        path = tmp_path / "p13.json"
        path.write_text(json.dumps(formats.graph_to_json(plain_graph(13, [(i, i + 1) for i in range(12)]))))
        code, out, err = run_cli([command, "--graph", str(path), "--cap", "12"], capsys=capsys)
        assert code == 3 and out == "" and len(err.splitlines()) == 1
        code, out, _ = run_cli([command, "--graph", str(path), "--cap", "13"], capsys=capsys)
        assert code == 0
        data = json.loads(out)
        if command == "classify":
            assert data["verdict"] == "path"
        else:
            assert data["dimension"] == 1 and data["basis"] == [0]

    @pytest.mark.parametrize("command,cap", [("classify", "-3"), ("dim", "0")])
    def test_cap_below_one_exits_2(self, tmp_path, capsys, command, cap):
        # argparse rejects the cap before the graph is read
        with pytest.raises(SystemExit) as exc:
            main([command, "--graph", str(tmp_path / "absent.json"), "--cap", cap])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"crslab {command}: error: argument --cap: must be at least 1, got {cap}"
        ]

    @pytest.mark.parametrize(
        "argv,flag",
        [(["classify", "--graph", "absent.json", "--cap", "x"], "--cap")],
    )
    def test_non_integer_knob_exits_2(self, capsys, argv, flag):
        # the message names the expected type, not the private converter
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"crslab {argv[0]}: error: argument {flag}: must be an integer, got 'x'"
        ]

    @pytest.mark.parametrize("env", ["-1", "0"])
    def test_order_cap_env_below_one_exits_2(self, tmp_path, capsys, monkeypatch, env):
        from crslab.graph import plain_graph

        path = tmp_path / "p3.json"
        path.write_text(json.dumps(formats.graph_to_json(plain_graph(3, [(0, 1), (1, 2)]))))
        monkeypatch.setenv("CRSLAB_ORDER_CAP", env)
        code, out, err = run_cli(["classify", "--graph", str(path)], capsys=capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: CRSLAB_ORDER_CAP must be a positive integer, got '{env}'"]

    @pytest.mark.parametrize("command", ["classify", "dim"])
    def test_order_cap_env_is_checked_before_the_graph_is_read(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setenv("CRSLAB_ORDER_CAP", "x")
        missing = str(tmp_path / "missing.json")
        code, out, err = run_cli([command, "--graph", missing], capsys=capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: CRSLAB_ORDER_CAP must be a positive integer, got 'x'"]

    def test_dim_cycle_is_imperfect(self, tmp_path, capsys):
        from crslab.graph import plain_graph

        # the 4-cycle resolves with two vertices but admits no bijective W
        c4 = plain_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        path = tmp_path / "c4.json"
        path.write_text(json.dumps(formats.graph_to_json(c4)))
        code, out, _ = run_cli(["dim", "--graph", str(path)], capsys=capsys)
        assert code == 0
        data = json.loads(out)
        assert data["dimension"] == 2
        assert data["basis"] == [0, 1]
        assert data["perfectness_resolvable"] is False

    def test_dim_complete_is_perfect(self, tmp_path, capsys):
        from crslab.graph import plain_graph

        k3 = plain_graph(3, [(0, 1), (0, 2), (1, 2)])
        path = tmp_path / "k3.json"
        path.write_text(json.dumps(formats.graph_to_json(k3)))
        code, out, _ = run_cli(["dim", "--graph", str(path)], capsys=capsys)
        data = json.loads(out)
        assert data["dimension"] == 2
        assert data["perfectness_resolvable"] is True

    def test_broken_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _out, err = run_cli(["classify", "--graph", str(path)], capsys=capsys)
        assert code == 2

    @pytest.mark.parametrize("text", ['{"vertices": 5, "edges": []}', '{"vertices": [0, 1], "edges": 7}'])
    def test_malformed_graph_json_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "malformed.json"
        path.write_text(text)
        code, out, err = run_cli(["classify", "--graph", str(path)], capsys=capsys)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "Traceback" not in err

    def test_graph6_byte_below_the_range_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.g6"
        path.write_text("C!\n")
        code, out, err = run_cli(["classify", "--graph", str(path)], capsys=capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: invalid graph6 character '!'"]


class TestHostileInput:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--graph", "{composite}", "--w", "b1,b1"], "W has repeated vertices"),
            (["bounds", "C"], "bounds C needs --k N"),
        ],
        ids=["repeated-w", "bounds-c-without-k"],
    )
    def test_refusal_exits_2(self, tmp_path, capsys, argv, message):
        composite = tmp_path / "t2.json"
        composite.write_text(json.dumps(formats.composite_to_json(compose(base_null(2), example_graph("T", 2), 2, 3))))
        code, out, err = run_cli([a.format(composite=composite) for a in argv], capsys=capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: {message}"]

    def test_non_utf8_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\xff\xfe\x00bad")
        code, out, err = run_cli(["classify", "--graph", str(path)], capsys=capsys)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}: not UTF-8")

    @pytest.mark.parametrize(
        "argv, size",
        [
            (["verify", "--membership", "C", "--graph", "{composite}"], "m^k = 3^300000"),
            (["construct", "--family", "MaxB", "--k", "1500"], "m^k = 2^1500"),
            (["construct", "--family", "MaxC", "--k", "10000"], "m^k = 3^10000"),
            (["construct", "--family", "Qcanon", "--k", "10000"], "m^k = 3^10000"),
            (["construct", "--family", "P2box", "--k", "1500"], "m^k = 2^1500"),
            (["construct", "--family", "T", "--k", "10000"], "m^k = 3^10000"),
        ],
    )
    def test_oversized_k_exits_3_at_once(self, tmp_path, capsys, no_builder, argv, size):
        # refused with no vector list, label table, base or graph built, and
        # no huge power printed
        composite = tmp_path / "big.json"
        composite.write_text('{"k": 300000, "m": 3, "base_edges": [], "lattice_edges": []}')
        code, out, err = run_cli([a.format(composite=composite) for a in argv], capsys=capsys)
        assert code == 3 and out == ""
        assert err.splitlines() == [f"error: {size} exceeds the cap 59049"]

    def test_k_with_m_one_exits_3_at_once(self, tmp_path, capsys, no_builder):
        # 1^k = 1 passes the power bound, so k itself must be bounded before
        # the one k-tuple of [1]^k, or any label table, is built
        composite = tmp_path / "long.json"
        composite.write_text('{"k": 1000000, "m": 1, "base_edges": [], "lattice_edges": []}')
        code, out, err = run_cli(["verify", "--membership", "C", "--graph", str(composite)], capsys=capsys)
        assert code == 3 and out == ""
        assert err.splitlines() == ["error: m^k needs k <= 59049, got k=1000000"]

    @pytest.mark.parametrize(
        "text",
        [
            '{"k": 1e999, "m": 3, "base_edges": [], "lattice_edges": []}',
            '{"k": 2, "m": 1e999, "base_edges": [], "lattice_edges": []}',
            '{"k": 2, "m": 3, "base_edges": [[1, 1e999]], "lattice_edges": []}',
            '{"k": 2, "m": 3, "base_edges": [], "lattice_edges": [[[1, 1], [2, 1e999]]]}',
        ],
        ids=["k", "m", "base-endpoint", "lattice-component"],
    )
    def test_infinite_number_exits_2(self, tmp_path, capsys, text):
        composite = tmp_path / "inf.json"
        composite.write_text(text)
        code, out, err = run_cli(["verify", "--membership", "C", "--graph", str(composite)], capsys=capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: bad composite JSON: expected an integer, got inf"]

    @pytest.mark.parametrize(
        "membership, text, message",
        [
            ("B", '{"k": "2", "m": 2.9, "base_edges": [], "lattice_edges": [[[1.9, 1], [2, 2]]]}',
             "bad composite JSON: expected an integer, got '2'"),
            ("B", '{"k": 2, "m": 2.9, "base_edges": [], "lattice_edges": []}',
             "bad composite JSON: expected an integer, got 2.9"),
            ("B", '{"k": 2, "m": 2, "base_edges": [[1, true]], "lattice_edges": []}',
             "bad composite JSON: expected an integer, got True"),
            ("B", '{"k": 2, "m": 2, "base_edges": [["1", 2]], "lattice_edges": []}',
             "bad composite JSON: expected an integer, got '1'"),
            ("B", '{"k": 2, "m": 2, "base_edges": [], "lattice_edges": [[[1.9, 1], [2, 2]]]}',
             "bad composite JSON: expected an integer, got 1.9"),
            ("B", '{"k": 2, "m": 2, "base_edges": [], "lattice_edges": [["11", [2, 2]]]}',
             "bad composite JSON: expected an integer, got '1'"),
            ("C", '{"vertices": [[true, 1], [2, 2]], "edges": []}',
             "lattice components must be integers: [True, 1]"),
            ("C", '{"vertices": [[1.0, 1], [2, 2]], "edges": []}',
             "lattice components must be integers: [1.0, 1]"),
        ],
        ids=["string-k", "float-m", "bool-endpoint", "string-endpoint", "float-component",
             "string-vector", "bool-vertex-component", "float-vertex-component"],
    )
    def test_non_integer_number_exits_2(self, tmp_path, capsys, membership, text, message):
        # a number is never coerced: 2.9 is not read as 2, nor "2" or true as an integer
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run_cli(["verify", "--membership", membership, "--graph", str(path)], capsys=capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"k": 2, "m": 2, "base_edges": [[1, 2, 3]], "lattice_edges": []}',
             "edge must be a pair: [1, 2, 3]"),
            ('{"k": 2, "m": 2, "base_edges": [], "lattice_edges": [[[1, 1], [2, 2], [1, 2]]]}',
             "edge must be a pair: [[1, 1], [2, 2], [1, 2]]"),
            ('{"k": 2, "m": 2, "base_edges": [], "lattice_edges": [[{}, [2, 2]]]}',
             "bad composite JSON: a lattice vertex must be a list, got {}"),
            ('{"k": 2, "m": 2, "base_edges": [], "lattice_edges": [[[1, 1], ""]]}',
             "bad composite JSON: a lattice vertex must be a list, got ''"),
            ('{"k": 2, "m": 2, "base_edges": [], "lattice_edges": [[5, [2, 2]]]}',
             "bad composite JSON: a lattice vertex must be a list, got 5"),
            ('{"k": 2, "m": 2, "base_edges": [], "lattice_edges": [[[1, 1], null]]}',
             "bad composite JSON: a lattice vertex must be a list, got None"),
        ],
        ids=["base-triple", "lattice-triple", "object-endpoint", "empty-string-endpoint",
             "number-endpoint", "null-endpoint"],
    )
    def test_composite_edge_that_is_not_a_pair_of_vectors_exits_2(self, tmp_path, capsys, text, message):
        # the refusal names the JSON, not Python's unpacking
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run_cli(["verify", "--membership", "B", "--graph", str(path)], capsys=capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize(
        "argv",
        [["dim"], ["verify", "--w", "b1,b2"], ["verify", "--membership", "B"]],
        ids=["dim", "verify-w", "membership"],
    )
    def test_composite_on_a_single_vector_exits_2(self, tmp_path, capsys, argv):
        # at m = 1 the lattice [1]^k is one vertex, which is no graph
        path = tmp_path / "m1.json"
        path.write_text('{"k": 2, "m": 1, "base_edges": [], "lattice_edges": []}')
        code, out, err = run_cli(argv + ["--graph", str(path)], capsys=capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: a graph needs at least two vertices"]

    @pytest.mark.parametrize(
        "text",
        [
            '{"k": 2, "m": 2, "base_edges": {}, "lattice_edges": []}',
            '{"k": 2, "m": 2, "base_edges": "", "lattice_edges": []}',
            '{"k": 2, "m": 2, "base_edges": [], "lattice_edges": {}}',
            '{"k": 2, "m": 2, "base_edges": [], "lattice_edges": ""}',
        ],
        ids=["object-base", "string-base", "object-lattice", "string-lattice"],
    )
    def test_edge_lists_that_are_not_lists_exit_2(self, tmp_path, capsys, text):
        # an empty object or string is not read as "no edges"
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run_cli(["verify", "--membership", "B", "--graph", str(path)], capsys=capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: composite JSON 'base_edges' and 'lattice_edges' must be lists"]


class TestSuiteCommand:
    def test_jobs_option_is_rejected(self, capsys):
        # every suite runs in one process, so suite takes no --jobs
        with pytest.raises(SystemExit) as exc:
            main(["suite", "--name", "sizes", "--jobs", "2"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["crslab: error: unrecognized arguments: --jobs 2"]

    def test_run_suite_accepts_ignored_jobs(self):
        # the benchmark harness calls run_suite(name, jobs=1)
        [result] = run_suite("sizes", jobs=1)
        assert result.name == "sizes" and result.passed

    def test_run_suite_rejects_an_unknown_name(self):
        with pytest.raises(KeyError) as info:
            run_suite("nope")
        assert info.value.args == ("nope",)

    def test_fast_suites_pass(self, capsys):
        for name in ("sizes", "diameters", "tightness", "minimal"):
            code, out, _ = run_cli(["suite", "--name", name], capsys=capsys)
            assert code == 0, out
            assert out.startswith("PASS")
            assert "all suites passed" in out

    def test_all_suites_text_is_pinned(self, capsys):
        # every line of `crslab suite --name all`, the closing one too, less
        # the seconds column and the name padding, which CI strips with
        # sed -E 's/ +[0-9]+\.[0-9]{3}s  /  /'; exit 1 is the c-equivalence
        # verdict, the known negative-control gap
        code, out, _ = run_cli(["suite", "--name", "all"], capsys=capsys)
        assert code == 1
        assert re.sub(r" +[0-9]+\.[0-9]{3}s  ", "  ", out) == SUITES_TEXT.read_text()

    def test_seconds_column_shows_milliseconds(self, capsys, monkeypatch):
        # a suite line that takes a few milliseconds must not print 0.0s
        line = re.compile(r"(PASS|FAIL)  (\S+) +(\d+\.\d{3})s  (.*)")
        code, out, _ = run_cli(["suite", "--name", "all"], capsys=capsys)
        *rows, last = out.splitlines()
        parsed = [line.fullmatch(row) for row in rows]
        assert all(parsed), rows
        assert [m.group(2) for m in parsed] == SUITE_ORDER
        assert code == 1 and last == "some suites FAILED"  # the c-equivalence FAIL line
        assert sum(float(m.group(3)) for m in parsed) > 0
        fixed = [SuiteResult("quick", True, "ok", 0.0042), SuiteResult("slow", True, "ok", 12.5)]
        monkeypatch.setattr(cli, "run_suite", lambda name: fixed)
        code, out, _ = run_cli(["suite", "--name", "all"], capsys=capsys)
        assert code == 0
        assert out.splitlines() == ["PASS  quick     0.004s  ok", "PASS  slow     12.500s  ok", "all suites passed"]

    def test_unknown_suite_exits_2(self, capsys):
        # argparse rejects the name itself
        with pytest.raises(SystemExit) as exc:
            main(["suite", "--name", "nope"])
        assert exc.value.code == 2
        capsys.readouterr()


def pinned_runs():
    """The CLI runs whose output bytes tests/data/cli_digests.json pins:
    every named family at k = 2, 3 in each format, with and without
    --compose, the k = 2 minimal enumerations, and pipelines that feed a
    composite to the reading commands: classify and dim on every composite
    within the default order cap of 12, in JSON and graph6, verify
    --membership on every composite JSON (B on [2]^k, C on [3]^k), and
    verify --w b1,...,bk (W the base) on every composite JSON, and classify
    and dim with --cap 30 on the T and MaxC composites at k = 3 (order 30)
    and the MaxB one at k = 4 (order 20), whose tie masks are built above
    the spread table's order.  A pipeline is its stages joined by " | ";
    each stage reads the previous stage's output as stdin."""
    for family in FAMILY_NAMES:
        for k in ("2", "3"):
            for fmt in ("json", "g6", "dot"):
                for extra in ([], ["--compose"]):
                    yield " ".join(["construct", "--family", family, "--k", k, "--format", fmt, *extra])
    for kind in ("B", "C"):
        yield f"enumerate --minimal {kind} --k 2"
    for family in FAMILY_NAMES:
        for k in ("2", "3"):
            kind = "B" if family in ("U", "V", "R", "P2box", "MaxB") else "C"
            yield f"construct --family {family} --k {k} --format json --compose | verify --graph - --membership {kind}"
            w = ",".join(f"b{i}" for i in range(1, int(k) + 1))
            yield f"construct --family {family} --k {k} --format json --compose | verify --graph - --w {w}"
            if k == "3" and kind == "C":
                continue  # order 3 + 3^3 is over the cap
            for fmt in ("json", "g6"):
                for command in ("classify", "dim"):
                    yield f"construct --family {family} --k {k} --format {fmt} --compose | {command} --graph -"
    for family, k in (("T", "3"), ("MaxC", "3"), ("MaxB", "4")):
        for command in ("classify", "dim"):
            yield f"construct --family {family} --k {k} --format json --compose | {command} --graph - --cap 30"


def cli_digests() -> dict[str, str]:
    out = {}
    for command in pinned_runs():
        text = ""
        for stage in command.split(" | "):
            buf, stdin, sys.stdin = io.StringIO(), sys.stdin, io.StringIO(text)
            try:
                with contextlib.redirect_stdout(buf):
                    assert main(stage.split()) == 0, command
            finally:
                sys.stdin = stdin
            text = buf.getvalue()
        out[command] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_cli_output_bytes_are_pinned():
    # a refactor keeps these bytes; regenerate the file only when an
    # output is meant to change: PYTHONPATH=src python tests/test_cli.py
    want = json.loads(CLI_DIGESTS.read_text())
    got = cli_digests()
    assert len(got) == 208
    assert [command for command in got if got[command] != want.get(command)] == []
    assert got == want


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "crslab", "bounds", "C", "--k", "3"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"lower": 14, "upper": 39}


def test_runtime_imports_only_the_standard_library():
    # the package runs on a bare interpreter; test-only packages stay in tests
    pkg = Path(__file__).resolve().parents[1] / "src" / "crslab"
    modules = sorted(pkg.glob("*.py"))
    assert len(modules) >= 11
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "crslab", f"{path.name} imports {name}"


def test_runtime_has_no_assert_statements():
    # python -O strips assert statements, so every check in the package
    # must be an explicit raise
    pkg = Path(__file__).resolve().parents[1] / "src" / "crslab"
    for path in sorted(pkg.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} asserts on lines {lines}"


def test_each_refusal_message_is_raised_from_one_place():
    # a message raised at two sites is one check kept in two copies, which
    # can drift apart; the check belongs in one helper that both call
    pkg = Path(__file__).resolve().parents[1] / "src" / "crslab"
    sites: dict[str, list[str]] = {}
    for path in sorted(pkg.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
                message = node.exc.args[0]
                if isinstance(message, ast.JoinedStr) or (
                    isinstance(message, ast.Constant) and isinstance(message.value, str)
                ):
                    sites.setdefault(ast.unparse(message), []).append(f"{path.name}:{node.lineno}")
    repeated = {message: where for message, where in sites.items() if len(where) > 1}
    assert not repeated, f"raised at several sites: {repeated}"


if __name__ == "__main__":
    CLI_DIGESTS.write_text(json.dumps(cli_digests(), indent=1, sort_keys=True) + "\n")
