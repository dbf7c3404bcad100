import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crslab.cli import main
from crslab.families import base_complete, example_graph
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


class TestBounds:
    def test_c_k3(self, capsys):
        code, out, _ = run_cli(["bounds", "C", "--k", "3"], capsys=capsys)
        assert code == 0
        assert json.loads(out) == {"lower": 14, "upper": 39}

    def test_b_base_file(self, tmp_path, capsys):
        path = tmp_path / "base.json"
        path.write_text(json.dumps(formats.graph_to_json(base_complete(2))))
        code, out, _ = run_cli(["bounds", "B", "--base", str(path)], capsys=capsys)
        assert json.loads(out) == {"lower": 1, "upper": 2}
        code, out, _ = run_cli(
            ["bounds", "B", "--base", str(path), "--composite"], capsys=capsys
        )
        assert json.loads(out) == {"lower": 6, "upper": 7}

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


class TestJobsDeterminism:
    @pytest.mark.parametrize(
        "argv", [["enumerate", "--minimal", "C", "--k", "2"], ["suite", "--name", "sizes"]]
    )
    def test_jobs_below_one_exits_2(self, capsys, argv):
        # argparse rejects the count before any command runs
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--jobs", "0"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "--jobs" in err

    def test_workers_are_clamped(self, monkeypatch):
        # a fake pool records its worker count and maps in this process
        import concurrent.futures

        from crslab import families

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
        monkeypatch.setattr(families.os, "cpu_count", lambda: 2)
        assert families.scan_ranges(tuple, 10, 10**6) == [(0, 5), (5, 10)]
        assert seen == [2]
        monkeypatch.setattr(families.os, "cpu_count", lambda: 64)
        assert families.scan_ranges(tuple, 3, 10**6) == [(0, 1), (1, 2), (2, 3)]
        assert seen == [2, 3]
        assert families.scan_ranges(tuple, 10, 1) == [(0, 10)]
        assert families.scan_ranges(tuple, 10, 0) == [(0, 10)]
        assert seen == [2, 3]

    def test_enumerate_c_jobs_equal(self, capsys):
        code, out1, _ = run_cli(["enumerate", "--minimal", "C", "--k", "2"], capsys=capsys)
        assert code == 0
        code, out2, _ = run_cli(
            ["enumerate", "--minimal", "C", "--k", "2", "--jobs", "2"], capsys=capsys
        )
        assert code == 0
        assert out1 == out2


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
