import json
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from crslab.cli import main
from crslab.errors import FormatError
from crslab.graph6 import write_graph6
from crslab.graph import BaseVertex, LatticeVertex, PlainVertex, plain_graph
from crslab.families import base_complete, base_null, compose, example_graph, member_b, member_c
from crslab.resolving import CrsCertificate, check_crs, is_completeness_resolvable
from crslab.extremal import is_h1_minimal, is_k_minimal, tightness_b
from crslab import formats

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


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

    def test_shape(self):
        comp = compose(base_null(2), example_graph("T", 2), 2, 3)
        data = formats.composite_to_json(comp)
        assert data["k"] == 2 and data["m"] == 3
        assert data["base_edges"] == []
        assert len(data["lattice_edges"]) == 5


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

    def test_minimality_reports(self):
        rep = is_h1_minimal(base_null(2), example_graph("R", 2))
        make_validator("minimality_report.schema.json").validate(formats.minimality_to_json(rep))
        rep = is_k_minimal(example_graph("T", 2))
        make_validator("minimality_report.schema.json").validate(formats.minimality_to_json(rep))

    def test_bounds_report(self):
        rep = tightness_b(base_null(2), example_graph("R", 2))
        data = formats.bounds_report_to_json(rep)
        make_validator("bounds_report.schema.json").validate(data)
        assert data["lower_tight"] is True

    def test_verdict(self):
        g = compose(base_null(2), example_graph("T", 2), 2, 3).materialize()
        data = formats.verdict_to_json(is_completeness_resolvable(g))
        make_validator("verdict.schema.json").validate(data)
        assert data["verdict"] == "family-c"


class TestCommandOutput:
    """The records that dim and bounds print fit their schemas, which admit
    no other key."""

    def check(self, schema, argv, capsys):
        assert main(argv) == 0
        data = json.loads(capsys.readouterr().out)
        validator = make_validator(schema)
        validator.validate(data)
        assert not validator.is_valid({**data, "extra": 0})
        return data

    def test_dim_on_graph6(self, tmp_path, capsys):
        path = tmp_path / "p4.g6"
        path.write_text(write_graph6(plain_graph(4, [(0, 1), (1, 2), (2, 3)])))
        data = self.check("dim.schema.json", ["dim", "--graph", str(path)], capsys)
        assert data["dimension"] == 1

    def test_bounds_c(self, capsys):
        data = self.check("bounds.schema.json", ["bounds", "C", "--k", "3"], capsys)
        assert data == {"lower": 14, "upper": 39}

    def test_bounds_b_composite(self, tmp_path, capsys):
        path = tmp_path / "base.json"
        path.write_text(json.dumps(formats.graph_to_json(base_complete(2))))
        argv = ["bounds", "B", "--base", str(path), "--composite"]
        assert self.check("bounds.schema.json", argv, capsys) == {"lower": 6, "upper": 7}


class TestDot:
    def test_plain(self):
        text = formats.graph_to_dot(plain_graph(3, [(0, 1)]))
        assert '"0" -- "1";' in text
        assert text.startswith("graph G {")

    def test_composite_labels(self):
        comp = compose(base_complete(2), example_graph("U", 2), 2, 2)
        text = formats.composite_to_dot(comp)
        assert '"b1" -- "b2";' in text
        assert '"b1" -- "(1,1)";' in text
        assert '"(1,1)" -- "(2,2)";' in text
