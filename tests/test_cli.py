import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from crslab.cli import main
from crslab.families import base_complete, base_null, example_graph
from crslab import formats


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

    def test_gamma(self, capsys):
        code, out, _ = run_cli(["construct", "--family", "Gamma", "--k", "2"], capsys=capsys)
        data = json.loads(out)
        assert len(data["edges"]) == 20

    def test_dot(self, capsys):
        code, out, _ = run_cli(
            ["construct", "--family", "MaxB", "--k", "2", "--format", "dot"], capsys=capsys
        )
        assert code == 0 and out.startswith("graph G {")

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

    @pytest.mark.parametrize("kind,k", [("C", "0"), ("B", "1")])
    def test_k_below_two_exits_2(self, capsys, kind, k):
        # malformed input, not a cap
        code, out, err = run_cli(["enumerate", "--minimal", kind, "--k", k], capsys=capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: need k >= 2, got k={k}"]


class TestBounds:
    def test_c_k3(self, capsys):
        code, out, _ = run_cli(["bounds", "C", "--k", "3"], capsys=capsys)
        assert code == 0
        assert json.loads(out) == {"lower": 14, "upper": 39}

    @pytest.mark.parametrize(
        "argv", [["--k", "300000"], ["--k", "100000000", "--composite"]]
    )
    def test_oversized_k_exits_3_at_once(self, capsys, argv):
        # refused before 3^k is computed or printed
        start = time.perf_counter()
        code, out, err = run_cli(["bounds", "C"] + argv, capsys=capsys)
        assert time.perf_counter() - start < 1.0
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
    def test_oversized_base_exits_3_at_once(self, tmp_path, capsys, extra):
        # refused before 2^(k-1) is computed or printed
        path = tmp_path / "base.json"
        path.write_text(json.dumps(formats.graph_to_json(base_null(15000))))
        start = time.perf_counter()
        code, out, err = run_cli(["bounds", "B", "--base", str(path)] + extra, capsys=capsys)
        assert time.perf_counter() - start < 1.0
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
        [(["classify", "--graph", "absent.json", "--cap", "x"], "--cap"),
         (["suite", "--name", "sizes", "--jobs", "x"], "--jobs")],
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


class TestHostileInput:
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
            (["construct", "--family", "Qcanon", "--k", "10000"], "|V|^s = 3^10000"),
        ],
    )
    def test_oversized_k_exits_3_at_once(self, tmp_path, capsys, argv, size):
        # no k-vertex base is built and no huge power is printed first
        composite = tmp_path / "big.json"
        composite.write_text('{"k": 300000, "m": 3, "base_edges": [], "lattice_edges": []}')
        start = time.perf_counter()
        code, out, err = run_cli([a.format(composite=composite) for a in argv], capsys=capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert err.splitlines() == [f"error: {size} exceeds the cap 59049"]

    def test_k_with_m_one_exits_3_at_once(self, tmp_path, capsys):
        # 1^k = 1 passes the power bound, so k itself must be bounded before
        # the one k-tuple of [1]^k is built
        composite = tmp_path / "long.json"
        composite.write_text('{"k": 1000000, "m": 1, "base_edges": [], "lattice_edges": []}')
        start = time.perf_counter()
        code, out, err = run_cli(["verify", "--membership", "C", "--graph", str(composite)], capsys=capsys)
        assert time.perf_counter() - start < 1.0
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
        assert err.splitlines() == [
            "error: bad composite JSON: cannot convert float infinity to integer"
        ]


class TestJobsDeterminism:
    def test_jobs_below_one_exits_2(self, capsys):
        # argparse rejects the count before any command runs
        with pytest.raises(SystemExit) as exc:
            main(["suite", "--name", "sizes", "--jobs", "0"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["crslab suite: error: argument --jobs: must be at least 1, got 0"]

    def test_workers_are_clamped(self, monkeypatch):
        # a fake pool records its worker count and maps in this process
        import concurrent.futures

        from crslab import sweeps

        seen = []

        class FakePool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, ranges):
                return map(fn, ranges)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 2)
        assert sweeps.scan_ranges(tuple, 10, 10**6) == [(0, 5), (5, 10)]
        assert seen == [2]
        monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 64)
        assert sweeps.scan_ranges(tuple, 3, 10**6) == [(0, 1), (1, 2), (2, 3)]
        assert seen == [2, 3]
        assert sweeps.scan_ranges(tuple, 10, 1) == [(0, 10)]
        assert sweeps.scan_ranges(tuple, 10, 0) == [(0, 10)]
        assert seen == [2, 3]


class TestSuiteCommand:
    def test_fast_suites_pass(self, capsys):
        for name in ("sizes", "diameters", "tightness", "minimal"):
            code, out, _ = run_cli(["suite", "--name", name], capsys=capsys)
            assert code == 0, out
            assert out.startswith("PASS")
            assert "all suites passed" in out

    def test_unknown_suite_exits_2(self, capsys):
        # argparse rejects the name itself
        with pytest.raises(SystemExit) as exc:
            main(["suite", "--name", "nope"])
        assert exc.value.code == 2
        capsys.readouterr()


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "crslab", "bounds", "C", "--k", "3"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"lower": 14, "upper": 39}
