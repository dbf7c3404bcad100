import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from crslab.cli import main
from crslab.errors import FormatError, InvalidGraph
from crslab.graph6 import write_graph6
from crslab.graph import BaseVertex, LatticeVertex, PlainVertex, plain_graph
from crslab.families import base_complete, base_null, compose, example_graph, member_b, member_c
from crslab.resolving import CrsCertificate, check_crs, is_completeness_resolvable
from crslab.sweeps import random_b_member, random_c_member
from crslab import formats

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"
PERFBENCH_GEN = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"


def load_schema(name):
    with open(SCHEMA_DIR / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


def make_validator(name):
    schema = load_schema(name)
    registry = None
    try:
        from referencing import Registry, Resource

        resources = []
        for path in SCHEMA_DIR.glob("*.schema.json"):
            data = json.loads(path.read_text())
            resources.append((data["$id"], Resource.from_contents(data)))
            resources.append((path.name, Resource.from_contents(data)))
        registry = Registry().with_resources(resources)
        return jsonschema.Draft202012Validator(schema, registry=registry)
    except ImportError:
        # older jsonschema: resolve refs against the schema directory
        resolver = jsonschema.RefResolver(base_uri=f"{SCHEMA_DIR.as_uri()}/", referrer=schema)
        return jsonschema.Draft202012Validator(schema, resolver=resolver)


class TestVertexCodec:
    def test_round_trips(self):
        for v in (PlainVertex(7), LatticeVertex((1, 3)), BaseVertex(2)):
            assert formats.vertex_from_json(formats.vertex_to_json(v)) == v

    def test_rejects_garbage(self):
        for bad in (True, "x1", [1, "a"], {}, None):
            with pytest.raises(FormatError):
                formats.vertex_from_json(bad)

    def test_writer_rejects_a_non_label(self):
        with pytest.raises(FormatError, match="^not a vertex: 'x'$"):
            formats.vertex_to_json("x")

    def test_parse_text(self):
        assert formats.parse_vertex_text("b3") == BaseVertex(3)
        assert formats.parse_vertex_text("(1,2)") == LatticeVertex((1, 2))
        assert formats.parse_vertex_text("5") == PlainVertex(5)

    def test_parse_vertex_list(self):
        got = formats.parse_vertex_list("b1,b2")
        assert got == [BaseVertex(1), BaseVertex(2)]
        got = formats.parse_vertex_list("(1,2),(2,1),7")
        assert got == [LatticeVertex((1, 2)), LatticeVertex((2, 1)), PlainVertex(7)]
        with pytest.raises(FormatError):
            formats.parse_vertex_list("(1,2")


class TestGraphJson:
    def test_round_trip(self):
        g = plain_graph(4, [(0, 1), (1, 2), (2, 3)])
        data = formats.graph_to_json(g)
        assert formats.graph_from_json(data) == g
        jsonschema_validate = make_validator("graph.schema.json")
        jsonschema_validate.validate(data)

    def test_labeled_round_trip(self):
        g = example_graph("T", 2)
        data = formats.graph_to_json(g)
        assert formats.graph_from_json(data) == g

    def test_canonical_edge_order_is_stable(self):
        g = plain_graph(4, [(2, 3), (0, 1)])
        a = json.dumps(formats.graph_to_json(g))
        b = json.dumps(formats.graph_to_json(plain_graph(4, [(0, 1), (2, 3)])))
        assert a == b


class TestCompositeJson:
    def test_round_trip(self):
        comp = compose(base_complete(2), example_graph("U", 2), 2, 2)
        data = formats.composite_to_json(comp)
        back = formats.composite_from_json(data)
        assert back.base == comp.base and back.lattice == comp.lattice
        make_validator("composite.schema.json").validate(data)

    @pytest.mark.parametrize(
        "k, base_edges, message",
        [
            (2, [[0, 1]], "base vertex index must be >= 1, got 0"),
            (2, [[2, -3]], "base vertex index must be >= 1, got -3"),
            (2, [[1, 3]], "edge endpoint b3 is not a declared vertex"),
            (2, [[1, 1]], "loop at b1"),
            (1, [], "a graph needs at least two vertices"),
            # an endpoint below 1 is refused first, wherever it stands: before
            # an earlier undeclared endpoint or loop, and before a one-vertex base
            (2, [[1, 5], [0, 1]], "base vertex index must be >= 1, got 0"),
            (2, [[1, 1], [0, 2]], "base vertex index must be >= 1, got 0"),
            (1, [[0, 1]], "base vertex index must be >= 1, got 0"),
        ],
        ids=[
            "zero", "negative", "undeclared", "loop", "one-vertex",
            "zero-after-undeclared", "zero-after-loop", "zero-at-k1",
        ],
    )
    def test_base_refusal_text(self, k, base_edges, message):
        data = {"k": k, "m": 2, "base_edges": base_edges, "lattice_edges": []}
        with pytest.raises(InvalidGraph) as exc:
            formats.composite_from_json(data)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "lattice_edges, error, message",
        [
            ([[[1, 1]]], FormatError, "edge must be a pair: [[1, 1]]"),
            ([["ab", [1, 2]]], FormatError, "bad composite JSON: expected an integer, got 'a'"),
            ([[[True, 1], [1, 2]]], FormatError, "bad composite JSON: expected an integer, got True"),
            ([[[1, 1], [4, 1]]], InvalidGraph, "edge endpoint (4,1) is not a declared vertex"),
            ([[[1], [1, 2]]], InvalidGraph, "edge endpoint (1) is not a declared vertex"),
            ([[[0, 1], [1, 2]]], InvalidGraph, "lattice components must be >= 1, got (0, 1)"),
            ([[[1, 1], [1, 1]]], InvalidGraph, "loop at (1,1)"),
            # edges are refused in order, and a non-integer anywhere comes first
            ([[[1, 1], [1, 1]], [[1, 1], [4, 1]]], InvalidGraph, "loop at (1,1)"),
            ([[[1, 1], [4, 1]], [[1, 1], [2.5, 1]]], FormatError,
             "bad composite JSON: expected an integer, got 2.5"),
        ],
        ids=[
            "not-a-pair", "string-vector", "bool", "undeclared", "short-vector", "zero",
            "loop", "loop-before-undeclared", "float-after-undeclared",
        ],
    )
    def test_lattice_refusal_text(self, lattice_edges, error, message):
        data = {"k": 2, "m": 3, "base_edges": [], "lattice_edges": lattice_edges}
        with pytest.raises(error) as exc:
            formats.composite_from_json(data)
        assert str(exc.value) == message

    def test_per_item_checks_only_word_refusals(self, monkeypatch):
        # with every per-item check raising, each request of a default-length
        # seed-1 benchmark membership run (91 cycles of its schedule) still
        # decodes, to the composite it writes back
        spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH_GEN)
        gen = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, gen)
        spec.loader.exec_module(gen)
        docs = [json.loads(req.text) for req in gen.stream(1, "membership", 91 * gen.CYCLE["membership"])]

        def refuse(*args):
            raise AssertionError(f"a per-item check was reached with {args!r:.60}")

        for name in ("_pair", "_vector", "_is_int", "_rows", "span_lattice"):
            monkeypatch.setattr(formats, name, refuse)
        assert len(docs) == 6734 and {doc["k"] for doc in docs} == {2, 3}
        for doc in docs:
            assert formats.composite_to_json(formats.composite_from_json(doc)) == doc
        # and a refused document does reach them
        with pytest.raises(AssertionError, match="per-item check was reached"):
            formats.composite_from_json({"k": 2, "m": 3, "base_edges": [], "lattice_edges": [[[1, 1], [1, 1]]]})

    def test_shape(self):
        comp = compose(base_null(2), example_graph("T", 2), 2, 3)
        data = formats.composite_to_json(comp)
        assert data["k"] == 2 and data["m"] == 3
        assert data["base_edges"] == []
        assert len(data["lattice_edges"]) == 5

    def test_edge_lists_come_out_sorted(self):
        # composite_to_json does not sort: Graph.edges walks position pairs
        # and positions follow label order
        rng = random.Random(83)
        comps = [compose(*random_b_member(rng, k), k, 2) for k in (2, 3, 4) for _ in range(50)]
        comps += [compose(base_null(k), random_c_member(rng, k), k, 3) for k in (2, 3) for _ in range(50)]
        base_edges = 0
        for comp in comps:
            data = formats.composite_to_json(comp)
            assert data["base_edges"] == sorted(data["base_edges"])
            assert data["lattice_edges"] == sorted(data["lattice_edges"])
            base_edges += len(data["base_edges"])
        assert base_edges > 0


class TestCertificateJson:
    def test_rows_sorted_by_vector(self):
        g = compose(base_null(2), example_graph("T", 2), 2, 3).materialize()
        cert = check_crs(g, (BaseVertex(1), BaseVertex(2)))
        assert isinstance(cert, CrsCertificate)
        data = formats.certificate_to_json(cert)
        vectors = [row[1] for row in data["table"]]
        assert vectors == sorted(vectors)
        make_validator("certificate.schema.json").validate(data)


class TestReportJson:
    def test_membership_reports(self):
        rep = member_b(base_complete(2), example_graph("U", 2))
        data = formats.membership_to_json(rep)
        make_validator("membership_report.schema.json").validate(data)
        rep = member_c(example_graph("T", 2))
        data = formats.membership_to_json(rep)
        make_validator("membership_report.schema.json").validate(data)
        assert data["member"] is True

    def test_verdict(self):
        g = compose(base_null(2), example_graph("T", 2), 2, 3).materialize()
        data = formats.verdict_to_json(is_completeness_resolvable(g))
        make_validator("verdict.schema.json").validate(data)
        assert data["verdict"] == "family-c"


#: CLI runs whose stdout is one JSON record, by name: (the schema the record
#: must fit, argv, exit code).  "{composite}", "{base}" and "{p4}" stand for
#: the input files that _write_inputs makes.
COMMAND_RUNS = {
    "construct-lattice": ("graph.schema.json", ["construct", "--family", "T", "--k", "2"], 0),
    "construct-compose": (
        "composite.schema.json", ["construct", "--family", "T", "--k", "2", "--compose"], 0
    ),
    "verify-w": ("certificate.schema.json", ["verify", "--graph", "{composite}", "--w", "b1,b2"], 0),
    "verify-w-fails": ("failure.schema.json", ["verify", "--graph", "{composite}", "--w", "b1"], 1),
    "verify-membership": (
        "membership_report.schema.json", ["verify", "--graph", "{composite}", "--membership", "C"], 0
    ),
    "classify": ("verdict.schema.json", ["classify", "--graph", "{composite}"], 0),
    "dim": ("dim.schema.json", ["dim", "--graph", "{p4}"], 0),
    "bounds-c": ("bounds.schema.json", ["bounds", "C", "--k", "3"], 0),
    "bounds-b-composite": ("bounds.schema.json", ["bounds", "B", "--base", "{base}", "--composite"], 0),
}


def _write_inputs(tmp_path):
    files = {
        "composite": json.dumps(formats.composite_to_json(compose(base_null(2), example_graph("T", 2), 2, 3))),
        "base": json.dumps(formats.graph_to_json(base_complete(2))),
        "p4": write_graph6(plain_graph(4, [(0, 1), (1, 2), (2, 3)])),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return {name: str(tmp_path / name) for name in files}


class TestCommandOutput:
    """The record each command prints fits its schema, which admits no other
    key, and every schema but the $ref-only vertex schema is the shape of
    some command's output."""

    def check(self, run, tmp_path, capsys):
        schema, argv, code = COMMAND_RUNS[run]
        inputs = _write_inputs(tmp_path)
        assert main([arg.format(**inputs) for arg in argv]) == code
        data = json.loads(capsys.readouterr().out)
        validator = make_validator(schema)
        validator.validate(data)
        assert not validator.is_valid({**data, "extra": 0})
        return data

    @pytest.mark.parametrize("run", COMMAND_RUNS)
    def test_stdout_fits_its_schema(self, run, tmp_path, capsys):
        self.check(run, tmp_path, capsys)

    def test_every_schema_is_printed_by_a_command(self):
        files = {path.name for path in SCHEMA_DIR.glob("*.schema.json")} - {"vertex.schema.json"}
        printed = {schema for schema, _argv, _code in COMMAND_RUNS.values()}
        unprinted, missing = sorted(files - printed), sorted(printed - files)
        assert not unprinted and not missing, f"no command prints {unprinted}; no schema file for {missing}"

    def test_dim_on_graph6(self, tmp_path, capsys):
        assert self.check("dim", tmp_path, capsys)["dimension"] == 1

    def test_bounds_c(self, tmp_path, capsys):
        assert self.check("bounds-c", tmp_path, capsys) == {"lower": 14, "upper": 39}

    def test_bounds_b_composite(self, tmp_path, capsys):
        assert self.check("bounds-b-composite", tmp_path, capsys) == {"lower": 6, "upper": 7}


class TestDot:
    def test_plain(self):
        text = formats.graph_to_dot(plain_graph(3, [(0, 1)]))
        assert '"0" -- "1";' in text
        assert text.startswith("graph G {")

    def test_composite_labels(self):
        comp = compose(base_complete(2), example_graph("U", 2), 2, 2)
        text = formats.graph_to_dot(comp.materialize())
        assert '"b1" -- "b2";' in text
        assert '"b1" -- "(1,1)";' in text
        assert '"(1,1)" -- "(2,2)";' in text
