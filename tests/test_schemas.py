"""Outputs validated against the JSON schemas in docs/schemas/."""

import json
from pathlib import Path

import numpy as np
import pytest
from jsonschema import Draft202012Validator, ValidationError
from referencing import Registry, Resource

from rhalylab import cli
from rhalylab.rhalyop import DiscreteMeasure, SequenceSpec
from rhalylab.suite import criterion_12, render_report

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"
SCHEMAS = {
    path.name.removesuffix(".schema.json"): json.loads(path.read_text())
    for path in sorted(SCHEMA_DIR.glob("*.schema.json"))
}
REGISTRY = Registry().with_resources(
    (schema["$id"], Resource.from_contents(schema)) for schema in SCHEMAS.values()
)


def validate(instance, name: str) -> None:
    schema = SCHEMAS[name]
    Draft202012Validator.check_schema(schema)
    Draft202012Validator(schema, registry=REGISTRY).validate(instance)


def run_cli(capsys, *argv) -> dict:
    assert cli.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


POWER_LAW = '{"kind":"power_law","c":1.0,"s":1.2,"truncation":1023}'


@pytest.mark.parametrize(
    "argv",
    [
        ("--p", "2"),
        ("--p", "3"),
        ("--p", "1.5", "--space", "bergman", "--alpha", "0.5"),
    ],
)
def test_classify_matches_verdict_schema(capsys, argv):
    data = run_cli(capsys, "classify", "--spec", POWER_LAW, *argv)
    validate(data["verdict"], "verdict")


@pytest.mark.parametrize("space", ["hardy", "bergman", "dirichlet", "xqp"])
def test_norm_matches_norm_report_schema(capsys, space):
    data = run_cli(capsys, "norm", "--spec", "[1, 2, 0.5]", "--p", "2", "--q", "1.5",
                   "--space", space)
    validate(data["norm"], "norm_report")


@pytest.mark.parametrize("p", ["2", "1.5"])
def test_opnorm_matches_opnorm_estimate_schema(capsys, p):
    data = run_cli(capsys, "opnorm", "--spec", '{"kind":"cesaro","truncation":63}',
                   "--p", p)
    validate(data["estimate"], "opnorm_estimate")


def test_profile_matches_block_profile_sidecar_schema(capsys):
    data = run_cli(capsys, "profile", "--spec", POWER_LAW, "--p", "2")
    validate(data["profile"], "block_profile_sidecar")
    assert data["profile"]["refinement_delta"] >= 0


def test_refinement_delta_is_optional_and_nonnegative(capsys):
    data = run_cli(capsys, "classify", "--spec", POWER_LAW, "--p", "3")
    evidence = data["verdict"]["evidence"]
    assert all(e["refinement_delta"] >= 0 for e in evidence if "entries" in e)
    # documents written before the field existed still validate
    validate({"slope": 0.1, "tail_ratio": 0.5}, "block_profile_sidecar")
    validate({"conclusion": "Bounded", "conclusions": ["Bounded"], "theorem": "Thm1a",
              "space": "Hardy(p=2)", "evidence": [{"name": "block_profile"}]}, "verdict")
    with pytest.raises(ValidationError):
        validate({"slope": 0.1, "tail_ratio": 0.5, "refinement_delta": -1e-9},
                 "block_profile_sidecar")
    bad = dict(data["verdict"], evidence=[dict(evidence[0], refinement_delta=-1.0)])
    with pytest.raises(ValidationError):
        validate(bad, "verdict")


def test_counterexample_matches_schema(capsys):
    data = run_cli(capsys, "counterexample", "--p", "1.5", "--grid-J", "8")
    validate(data, "counterexample")
    # the construction takes no seed, so its run_config records none
    assert "seed" not in data["run_config"]
    with pytest.raises(ValidationError):
        validate(dict(data, result=dict(data["result"], seed=7)), "counterexample")


def test_specs_and_measures_match_their_schemas():
    mu = DiscreteMeasure(np.array([0.0, 0.25, 0.5, 0.75]), np.array([0.1, 0.2, 0.3, 0.4]))
    validate(mu.to_json(), "discrete_measure")
    base = SequenceSpec.power_law(2.0, 0.5, 7)
    for spec in (
        base,
        SequenceSpec.cesaro(7),
        SequenceSpec.literal([1.0, 0.5j, -0.25]),
        SequenceSpec.measure_moments(mu, 7),
        SequenceSpec.signed(base, [1, -1] * 4),
    ):
        validate(spec.to_json(), "sequence_spec")


def test_suite_report_matches_schema():
    validate(json.loads(render_report([criterion_12()])), "suite_report")


def test_verdict_schema_rejects_unemitted_conclusion():
    with pytest.raises(ValidationError, match="Unbounded"):
        validate({"conclusion": "Unbounded", "conclusions": ["Unbounded"],
                  "theorem": "Thm1a", "space": "Hardy(p=2)",
                  "evidence": [{"name": "block_profile"}]}, "verdict")


def test_nested_spec_references_are_enforced():
    bad_base = {"kind": "signed", "truncation": 1, "signs": [1, 1],
                "base": {"kind": "bogus", "truncation": 1}}
    bad_measure = {"kind": "measure_moments", "truncation": 1,
                   "measure": {"atoms": [{"t": 1.5, "mass": 1.0}]}}
    for instance in (bad_base, bad_measure):
        with pytest.raises(ValidationError):
            validate(instance, "sequence_spec")
    # a reference reached through another schema's reference still resolves
    measure_base = dict(bad_measure, measure={"atoms": [{"t": 0.5, "mass": 1.0}]})
    nested = {"kind": "signed", "truncation": 1, "signs": [1, 1], "base": measure_base}
    result = {"p": 1.5, "achieved": [1.0], "signs": [[1]]}
    validate(nested, "sequence_spec")
    validate({"sequence_spec": nested, "result": result}, "counterexample")
    with pytest.raises(ValidationError):
        validate(dict(nested, base=bad_measure), "sequence_spec")
