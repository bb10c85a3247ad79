"""JSON text is the command line's concern alone: every serializer returns
the JSON object itself, every from_json takes one, and only cli.py and
suite.py import json."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from rhalylab.classifier import classify_hardy, h1_necessary
from rhalylab.coeffcore import CoeffSeq
from rhalylab.constructions import construct_upsilon
from rhalylab.lipschitz import block_profile
from rhalylab.norms import bergman_norm, hp_norm
from rhalylab.rhalyop import DiscreteMeasure, SequenceSpec, opnorm_h2, opnorm_lower_hp
from rhalylab.suite import Check, CriterionResult

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rhalylab"

MU = DiscreteMeasure(np.array([0.0, 0.25, 0.5]), np.array([0.2, 0.3, 0.5]))
POWER_LAW = SequenceSpec.power_law(1.0, 1.2, 1023)

#: the round-trip types, one instance per spec kind
ROUND_TRIP = {
    "coeff_seq": CoeffSeq(np.array([1.0 + 2.0j, -0.5, 0.0])),
    "discrete_measure": MU,
    "literal": SequenceSpec.literal([1.0, 0.5j, -0.25]),
    "power_law": POWER_LAW,
    "cesaro": SequenceSpec.cesaro(7),
    "measure_moments": SequenceSpec.measure_moments(MU, 7),
    "signed": SequenceSpec.signed(SequenceSpec.measure_moments(MU, 3), [1, -1, -1, 1]),
}

#: every serializer's output, built when its test runs
OBJECTS = {
    **{name: value.to_json for name, value in ROUND_TRIP.items()},
    "norm_report": lambda: hp_norm(CoeffSeq(np.array([1.0, 2.0, 0.5])), 1.5).to_json(),
    "norm_report_exact": lambda: bergman_norm(
        CoeffSeq(np.array([0.0, 1.0])), 2.0, 0.0
    ).to_json(),
    "opnorm_h2": lambda: opnorm_h2(SequenceSpec.cesaro(63), 64).to_json(),
    "opnorm_lower_hp": lambda: opnorm_lower_hp(SequenceSpec.cesaro(63), 1.5).to_json(),
    "verdict_p3": lambda: classify_hardy(POWER_LAW, 3.0).to_json(),
    "verdict_h1": lambda: h1_necessary(SequenceSpec.cesaro(1023), [32, 64, 128, 256]).to_json(),
    "block_profile": lambda: block_profile(
        CoeffSeq.log_one_over_one_minus_z(255), 2.0, 0.5, 6
    ).sidecar_json("BigLambda"),
    "upsilon": lambda: construct_upsilon(1.5, 6).to_json(),
    "criterion": lambda: CriterionResult(1, "c", (Check("a", True, "x=1"),)).to_json(),
}

JSON_TYPES = (dict, list, str, float, int, bool, type(None))


def _assert_plain(obj, path="$"):
    """Only the types json.loads returns: no tuples, no numpy scalars."""
    assert type(obj) in JSON_TYPES, f"{path}: {type(obj).__name__}"
    if isinstance(obj, dict):
        for key, value in obj.items():
            assert type(key) is str, f"{path}: key {key!r}"
            _assert_plain(value, f"{path}.{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            _assert_plain(value, f"{path}[{i}]")


@pytest.mark.parametrize("name", sorted(OBJECTS))
def test_serializer_returns_the_json_object(name):
    obj = OBJECTS[name]()
    assert type(obj) is dict
    assert obj == json.loads(json.dumps(obj))
    _assert_plain(obj)


@pytest.mark.parametrize("name", sorted(ROUND_TRIP))
def test_from_json_round_trips(name):
    value = ROUND_TRIP[name]
    back = type(value).from_json(value.to_json())
    assert type(back) is type(value)
    # the arrays of a measure make == ambiguous; its object is exact
    assert back.to_json() == value.to_json()


def test_only_cli_and_suite_import_json():
    importers = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Import)
        and any(alias.name.split(".")[0] == "json" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json"
    )
    assert importers == ["cli.py", "suite.py"]
