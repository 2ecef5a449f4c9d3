"""Shipped catalog data: cardinality, parseability, closure, round trips."""

import json
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from walkerkit.catalog import (
    SCHEMA, CatalogEntry, SchemaError, Solution, builtin, builtin_map,
    load, save,
)
from walkerkit.expr import ExprError, ParseError, is_zero_symbolic, parse, render, sub
from walkerkit.liealg import parse_generator, render_generator, subalgebra_closed


def test_entry_count_and_unique_ids():
    entries = builtin()
    assert len(entries) == 79
    assert len(entries) >= 13 + 48 + 4 + 3 + 4 + 1
    ids = [e.id for e in entries]
    assert len(set(ids)) == len(ids)


def test_family_sizes():
    m = builtin_map()
    assert sum(1 for k in m if k.startswith("thm31.")) == 13
    assert sum(1 for k in m if k.startswith("thm32.")) == 54
    assert sum(1 for k in m if k.startswith("eq25.")) == 4
    assert sum(1 for k in m if k.startswith("eq26.")) == 3
    assert sum(1 for k in m if k.startswith("table1.")) == 4
    assert "eq27" in m


def test_known_solution_strings():
    m = builtin_map()
    fam2 = m["eq25.family2"].solutions[0]
    assert is_zero_symbolic(sub(parse(fam2.a), parse("c1*t + c2")))
    assert is_zero_symbolic(sub(parse(fam2.b), parse("c1*c3^2*t + c5")))
    assert is_zero_symbolic(
        sub(parse(fam2.c), parse("c3*(c1*t + c2) + c1*c4")))
    row3 = m["table1.row3"].solutions[0]
    assert is_zero_symbolic(
        sub(parse(row3.a), parse("4*(t + c1)/(c2*x + c3)^2")))


def test_closed_form_entry_matches_row3():
    m = builtin_map()
    s1 = m["eq27"].solutions[0]
    s2 = m["table1.row3"].solutions[0]
    for left, right in ((s1.a, s2.a), (s1.b, s2.b), (s1.c, s2.c)):
        assert is_zero_symbolic(sub(parse(left), parse(right)))


def test_provenance_present_everywhere():
    assert all(e.provenance for e in builtin())


def test_every_expression_round_trips():
    for e in builtin():
        funcs = e._functions()
        for text in e.generators:
            first = render_generator(parse_generator(text))
            again = render_generator(parse_generator(first))
            assert again == first, (e.id, text)
        for text in e.all_expr_texts()[len(e.generators):]:
            first = render(parse(text, functions=funcs))
            again = render(parse(first, functions=funcs))
            assert again == first, (e.id, text)


def test_every_subalgebra_closes():
    for e in builtin():
        report = subalgebra_closed(list(e.coeff_vectors()))
        assert report.closed, e.id


def test_profile_dependencies():
    m = builtin_map()
    assert m["eq25.family1"].profile_deps() == (2,)
    assert m["table1.row1"].profile_deps() == (1,)
    assert m["table1.row2"].profile_deps() == (2,)
    assert m["table1.row4"].profile_deps() == (1,)


def test_ansatz_views():
    m = builtin_map()
    ans = m["eq25.family1"].pis_ansatz()
    assert set(ans.bindings) == {"b", "c"}
    assert ans.arbitrary == ("a",)
    row2 = m["table1.row2"].pis_ansatz()
    assert row2.arbitrary == ("b",)
    assert set(row2.bindings) == {"a", "c"}


def test_param_domains_recorded():
    m = builtin_map()
    assert "eps in {-1,1}" in m["thm31.5"].params
    assert "epz in {-1,0,1}" in m["thm32.A4_1"].params
    assert "alpha in R" in m["thm32.A1_1"].params
    assert "c3 in R" in m["eq25.family2"].params


def test_save_load_round_trip(tmp_path):
    path = tmp_path / "catalog.json"
    entries = builtin()
    save(entries, path)
    assert load(path) == entries
    # byte-stable serialization
    save(load(path), tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_entries_are_immutable():
    entry = builtin()[0]
    with pytest.raises(AttributeError):
        entry.id = "other"
    assert entry._replace(id="other").id == "other" != entry.id


def test_empty_catalog_is_valid(tmp_path):
    path = tmp_path / "empty.json"
    save((), path)
    assert load(path) == ()


def test_checks_field(tmp_path):
    # eq27 alone asks verify for its Einstein check; the field is saved,
    # loaded, and holds only known check names
    asking = [e.id for e in builtin() if e.checks]
    assert asking == ["eq27"]
    assert builtin_map()["eq27"].checks == ("einstein",)
    path = tmp_path / "bad.json"
    doc = {"schema": SCHEMA, "entries": [{
        "id": "x", "subalgebra": {"generators": ["X1"], "params": []},
        "provenance": "p", "checks": ["einstein", "flat"]}]}
    path.write_text(json.dumps(doc, indent=2))
    with pytest.raises(SchemaError, match="unknown check 'flat'"):
        load(path)
    doc["entries"][0]["checks"] = ["einstein"]
    path.write_text(json.dumps(doc, indent=2))
    assert load(path)[0].checks == ("einstein",)


def test_unknown_field_rejected(tmp_path):
    path = tmp_path / "bad.json"
    doc = {"schema": SCHEMA, "entries": [{
        "id": "x", "subalgebra": {"generators": ["X1"], "params": []},
        "provenance": "p", "surprise": 1}]}
    path.write_text(json.dumps(doc, indent=2))
    with pytest.raises(SchemaError, match="surprise.*line"):
        load(path)


def test_unknown_schema_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "other/9", "entries": []}))
    with pytest.raises(SchemaError, match="other/9"):
        load(path)


def test_bad_derivative_index_cited(tmp_path):
    path = tmp_path / "bad.json"
    doc = {"schema": SCHEMA, "entries": [{
        "id": "x", "subalgebra": {"generators": ["X1"], "params": []},
        "invariants": ["a_5"], "provenance": "p"}]}
    path.write_text(json.dumps(doc, indent=2))
    with pytest.raises(ParseError):
        load(path)


def test_bad_profile_text_rejected(tmp_path):
    path = tmp_path / "bad.json"
    doc = {"schema": SCHEMA, "entries": [{
        "id": "x", "subalgebra": {"generators": ["X1"], "params": []},
        "profile": {"f": "c3*t +"}, "provenance": "p"}]}
    path.write_text(json.dumps(doc, indent=2))
    with pytest.raises(ParseError):
        load(path)


def test_missing_required_field(tmp_path):
    path = tmp_path / "bad.json"
    doc = {"schema": SCHEMA, "entries": [{
        "id": "x", "subalgebra": {"generators": ["X1"]}}]}
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="provenance"):
        load(path)


def _good_doc() -> dict:
    entry = {"id": "x", "provenance": "p",
             "subalgebra": {"generators": ["X1", "X7"], "params": []},
             "invariants": ["t", "a"], "ansatz": {"b": "f"},
             "solutions": [{"a": "c1*t", "b": "0", "c": "0",
                            "params": ["c1 in R"]}]}
    return {"schema": SCHEMA, "entries": [entry]}


def _entry_with(key, value) -> dict:
    doc = _good_doc()
    doc["entries"][0][key] = value
    return doc


def _subalgebra_with(key, value) -> dict:
    doc = _good_doc()
    doc["entries"][0]["subalgebra"][key] = value
    return doc


def test_generator_with_a_coordinate_coefficient_rejected(tmp_path):
    path = tmp_path / "bad.json"
    doc = _subalgebra_with("generators", ["X1", "x*X2"])
    path.write_text(json.dumps(doc, indent=2))
    with pytest.raises(ExprError, match="coordinate"):
        load(path)


MALFORMED = {
    "truncated": b'{"schema": "walker-catalog/1", "entries": [',
    "array-document": b"[]",
    "entries-string": json.dumps({"schema": SCHEMA, "entries": "x"}),
    "generators-null": json.dumps(_subalgebra_with("generators", None)),
    "generator-int": json.dumps(_subalgebra_with("generators", [3])),
    "ansatz-int": json.dumps(_entry_with("ansatz", 0)),
    "subalgebra-list": json.dumps(_entry_with("subalgebra", [])),
    "solution-int": json.dumps(_entry_with(
        "solutions", [{"a": 1, "b": "0", "c": "0"}])),
    "provenance-null": json.dumps(_entry_with("provenance", None)),
    "not-utf8": b"\xff\xfe",
    "long-integer": b"1" * 5000,  # past the int conversion limit
    "deep-nesting": b"[" * 100000,  # past the recursion limit
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_documents_raise_schema_error(tmp_path, case):
    raw = MALFORMED[case]
    path = tmp_path / "bad.json"
    path.write_bytes(raw if isinstance(raw, bytes) else raw.encode())
    with pytest.raises(SchemaError):
        load(path)


def test_good_document_loads(tmp_path):
    path = tmp_path / "good.json"
    path.write_text(json.dumps(_good_doc()))
    (entry,) = load(path)
    assert entry.ansatz == (("b", "f"),)


# Bounded fuzz: a malformed catalog may only fail with ExprError (which
# SchemaError and ParseError both are), never with a raw exception.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
# a per-example time bound, generous for a slow two-vCPU host, turns a
# stall on hostile input into a failure
FUZZ = settings(max_examples=150, deadline=timedelta(seconds=5),
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _load_or_expr_error(path):
    try:
        load(path)
    except ExprError:
        pass


@FUZZ
@given(st.data())
def test_byte_mutations_fail_only_with_expr_errors(tmp_path, data):
    raw = bytearray(json.dumps(_good_doc(), indent=1).encode())
    for _ in range(data.draw(st.integers(1, 4))):
        i = data.draw(st.integers(0, len(raw) - 1))
        raw[i] = data.draw(st.integers(0, 255))
    path = tmp_path / "mutated.json"
    path.write_bytes(bytes(raw))
    _load_or_expr_error(path)


def _paths(value, prefix=()):
    """Every (key or index) path into a JSON value."""
    yield prefix
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for k, v in items:
        yield from _paths(v, prefix + (k,))


@FUZZ
@given(st.data())
def test_replaced_fields_fail_only_with_expr_errors(tmp_path, data):
    doc = _good_doc()
    where = data.draw(st.sampled_from(list(_paths(doc))[1:]))
    parent = doc
    for k in where[:-1]:
        parent = parent[k]
    parent[where[-1]] = data.draw(JSON_VALUES)
    path = tmp_path / "replaced.json"
    path.write_text(json.dumps(doc))
    _load_or_expr_error(path)
