"""The compiled schema checks against jsonschema on the full shipped schemas:
the same documents are accepted, and every refusal carries jsonschema's
message."""

import copy
import math
import random

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema.exceptions import best_match

from entbridge import schemacheck
from entbridge.bridge import random_instance, verify_instance
from entbridge.schemacheck import SCHEMA_NAMES, compile_schema, load_schema
from test_cli import CAPS, FINITE_INSTANCE, QP_INSTANCE, SHIFT_INSTANCE, VALID_INSTANCES, mismatch_report, mutate

SCHEMAS = {name: load_schema(name) for name in SCHEMA_NAMES}
CHECKS = {name: compile_schema(SCHEMAS[name]) for name in SCHEMA_NAMES}
# jsonschema.validate(payload, SCHEMAS[name]) without its check of the
# schema against the meta-schema, which takes about ten times as long as
# the validation; test_cli's TestSchemaCommand makes that check once
ORACLES = {name: jsonschema.Draft202012Validator(SCHEMAS[name]) for name in SCHEMA_NAMES}
KINDS = ("finite", "shift", "qp", "real")
MUTATIONS = ("drop", "type", "extra", "kind", "cap")


def assert_agrees(payload, name):
    """The compiled check accepts ``payload`` exactly when jsonschema does,
    and ``validate`` refuses it with jsonschema's message, which it returns
    (None when accepted)."""
    error = best_match(ORACLES[name].iter_errors(payload))
    expected = None if error is None else error.message
    assert CHECKS[name](payload) is (expected is None), (name, payload, expected)
    if expected is None:
        schemacheck.validate(payload, name)
    else:
        with pytest.raises(schemacheck.ValidationError) as info:
            schemacheck.validate(payload, name)
        assert info.value.message == expected
    return expected


class TestInstances:
    @given(VALID_INSTANCES, st.randoms(use_true_random=False), st.sampled_from((None,) + MUTATIONS))
    @settings(max_examples=200, deadline=None)
    def test_drawn_and_mutated_instances(self, instance, rng, mutation):
        assert assert_agrees(instance, "instance") is None
        if mutation is not None:
            assert_agrees(mutate(rng, instance, mutation), "instance")

    @pytest.mark.parametrize("kind", KINDS)
    def test_generated_instances_and_their_mutations(self, kind):
        for seed in range(3):
            instance = random_instance(random.Random(seed), kind)
            assert assert_agrees(instance, "instance") is None
            rng = random.Random(f"{kind}/{seed}")
            for mutation in MUTATIONS:
                assert_agrees(mutate(rng, instance, mutation), "instance")

    def test_caps_and_one_past(self):
        for cap, make in CAPS.values():
            assert assert_agrees(make(cap), "instance") is None
            assert assert_agrees(make(cap + 1), "instance") is not None

    PITFALLS = [
        # a bool is no integer, an integral float is one
        dict(SHIFT_INSTANCE, steps=True),
        dict(SHIFT_INSTANCE, level=False),
        dict(SHIFT_INSTANCE, steps=3.0),
        dict(SHIFT_INSTANCE, steps=3.5),
        dict(FINITE_INSTANCE, moduli=[4, True, 2]),
        dict(QP_INSTANCE, matrix=[[True]]),
        dict(QP_INSTANCE, matrix=[[2.0]]),
        # NaN passes every bound, an infinity only the bound it is on the
        # right side of
        dict(SHIFT_INSTANCE, level=math.nan),
        dict(SHIFT_INSTANCE, level=math.inf),
        dict(SHIFT_INSTANCE, level=-math.inf),
        {"kind": "real", "matrix": [[1]], "tolerance": math.nan},
        {"kind": "real", "matrix": [[1]], "tolerance": math.inf},
        {"kind": "real", "matrix": [[1]], "tolerance": 0},
        {"kind": "real", "matrix": [[1]], "tolerance": -0.0},
        {"kind": "real", "matrix": [[1]], "tolerance": True},
        {"kind": "real", "matrix": [[math.nan, math.inf]]},
        # `$` matches before a final newline, and \s* spans inner ones
        dict(QP_INSTANCE, matrix=[["1e5\n"]]),
        dict(QP_INSTANCE, matrix=[["1e55\n"]]),
        dict(QP_INSTANCE, matrix=[["1\n\n"]]),
        dict(QP_INSTANCE, matrix=[["1e5\nx"]]),
        dict(QP_INSTANCE, matrix=[["1E+5 "]]),
        {"kind": "real", "matrix": [["1e999\n"]]},
        {"kind": "real", "matrix": [["1e1000"]]},
        # 17 items where the cap is 16, and empty arrays
        dict(FINITE_INSTANCE, moduli=[2] * 17),
        dict(QP_INSTANCE, matrix=[["1"] * 17]),
        dict(QP_INSTANCE, matrix=[]),
        dict(QP_INSTANCE, matrix=[[]]),
        dict(FINITE_INSTANCE, subgroup=[]),
        dict(FINITE_INSTANCE, endomorphism=[]),
        # extra keys, a missing key, a kind of no branch, and a tuple
        dict(SHIFT_INSTANCE, extra=1),
        dict(SHIFT_INSTANCE, prime=2),
        {"kind": "shift", "modulus": 2, "height": 8, "steps": 2},
        dict(SHIFT_INSTANCE, kind="torus"),
        dict(SHIFT_INSTANCE, kind=None),
        dict(FINITE_INSTANCE, moduli=(4, 2, 2)),
        {},
        [],
        "shift",
        None,
        # around 2^128
        dict(SHIFT_INSTANCE, modulus=2**128 - 1),
        dict(SHIFT_INSTANCE, modulus=2**128),
        dict(SHIFT_INSTANCE, modulus=2**128 + 1),
        dict(SHIFT_INSTANCE, modulus=float(2**128)),
        dict(QP_INSTANCE, matrix=[[-(2**128) - 1]]),
        dict(QP_INSTANCE, matrix=[[-(2**128)]]),
        dict(QP_INSTANCE, matrix=[[2**128 + 1]]),
    ]

    @pytest.mark.parametrize("instance", PITFALLS, ids=range(len(PITFALLS)))
    def test_pitfalls(self, instance):
        expected = assert_agrees(instance, "instance")
        # the oracle words a refusal as jsonschema.validate itself does
        if expected is not None:
            with pytest.raises(jsonschema.ValidationError) as info:
                jsonschema.validate(instance, SCHEMAS["instance"])
            assert info.value.message == expected


def mutated_reports(report, rng):
    """Copies of ``report`` with one field given a value the report schema
    may refuse."""
    for key in sorted(report):
        for value in rng.sample([None, True, -1, math.nan, math.inf, -math.inf, "x", [], {}], 3):
            yield dict(report, **{key: value})
    yield dict(report, extra=1)
    # an index, or a field of an estimate (ratio, value, exact), of a qp
    # side's agreement (consistent, reached) or of the qp closed form
    # (multiple, prime, value)
    for key in ("indices", "estimates", "agreement", "closed_form"):
        if key in report:
            bad = copy.deepcopy(report)
            inner = bad[key] if key == "closed_form" else bad[key][rng.choice(sorted(bad[key]))]
            if isinstance(inner, list):
                inner[rng.randrange(len(inner))] = rng.choice([0, True, 1.0, 1.5])
            else:
                inner[rng.choice(sorted(inner))] = rng.choice([None, -1, 0, True, math.nan, "x"])
            yield bad


class TestReports:
    @pytest.mark.parametrize("kind", KINDS)
    def test_reports_and_their_mutations(self, kind):
        for seed in range(3):
            report = verify_instance(random_instance(random.Random(seed), kind))
            assert assert_agrees(report, "report") is None
            for bad in mutated_reports(report, random.Random(f"{kind}/{seed}")):
                assert_agrees(bad, "report")

    def test_mismatch_report(self):
        report = mismatch_report()
        assert assert_agrees(report, "report") is None
        for bad in mutated_reports(report, random.Random(0)):
            assert_agrees(bad, "report")


class TestLoading:
    @pytest.mark.parametrize("name", SCHEMA_NAMES)
    def test_shipped_schemas_compile(self, name):
        assert callable(compile_schema(load_schema(name)))

    @pytest.mark.parametrize(
        "keyword, value",
        [("anyOf", [{}]), ("format", "date"), ("prefixItems", [{}]), ("patternProperties", {"^x": {}})],
    )
    def test_unknown_keyword_is_refused(self, keyword, value):
        with pytest.raises(ValueError, match=keyword):
            compile_schema({"type": "object", keyword: value})
        # below the root too
        with pytest.raises(ValueError, match=keyword):
            compile_schema({"$defs": {"a": {"items": {keyword: value}}}})

    @pytest.mark.parametrize(
        "ref",
        ["#/properties/a", "#", "urn:entbridge:instance", "other.json#/$defs/a", "#/$defs/missing", "#/$defs/a/b"],
    )
    def test_ref_outside_the_local_defs_is_refused(self, ref):
        with pytest.raises(ValueError, match="ref"):
            compile_schema({"$defs": {"a": {"type": "integer"}}, "$ref": ref})

    def test_local_refs_resolve(self):
        check = compile_schema(
            {"$defs": {"a": {"type": "integer"}, "b": {"items": {"$ref": "#/$defs/a"}}}, "$ref": "#/$defs/b"}
        )
        assert check([1, 2.0]) and not check([1, True])

    @pytest.mark.parametrize(
        "schema, reason",
        [
            ({"additionalProperties": True}, "additionalProperties"),
            ({"additionalProperties": {"type": "integer"}}, "additionalProperties"),
            ({"type": "decimal"}, "decimal"),
            ({"items": True}, "only objects"),
            ({"properties": {"a": {"$defs": {}}}}, r"\$defs"),
        ],
    )
    def test_other_unsupported_forms_are_refused(self, schema, reason):
        with pytest.raises(ValueError, match=reason):
            compile_schema(schema)
