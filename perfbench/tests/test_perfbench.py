"""Tests of the benchmark itself: seeded inputs, self-time arithmetic,
failure accounting and the restoring of traced bindings."""

import dataclasses
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import rhalylab  # noqa: E402
import rhalylab.cli  # noqa: E402
from rhalylab import classifier, coeffcore, lipschitz, norms, rhalyop  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

FIRST = {"verdicts": 12, "operator": 6, "extremal": 10}


def _input_prints(name, seed, workdir):
    reqs = itertools.islice(workloads.WORKLOADS[name](seed, workdir), FIRST[name])
    return [(r.rid, workloads.fingerprint(r.inputs)) for r in reqs]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    a = _input_prints(name, 5, tmp_path)
    b = _input_prints(name, 5, tmp_path)
    c = _input_prints(name, 6, tmp_path)
    assert a == b
    assert [h for _, h in a] != [h for _, h in c]


def _span(sid, parent, start, end):
    return spans.Span(sid, parent, f"s{sid}", "norms", None, start, end)


def test_self_time_on_synthetic_tree():
    tree = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 0, 5.0, 9.0),
        _span(3, 2, 6.0, 7.0),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 3.0, 3.0, 1.0])
    assert sum(spans.self_times(tree)) == pytest.approx(10.0)
    # overlapping children cover their union once
    overlap = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 4.0), _span(2, 0, 3.0, 6.0)]
    assert spans.self_times(overlap)[0] == pytest.approx(5.0)


def test_wrong_answers_raise_failed_frac(tmp_path):
    reqs = {r.kind: r for r in workloads.warmup_requests("operator", tmp_path)}
    apply, norm = reqs["apply_rhaly"], reqs["opnorm_h2"]
    bad_apply = dataclasses.replace(
        apply, rid="0.bad:apply",
        call=lambda: coeffcore.CoeffSeq(apply.call().coeffs * (1 + 1e-6)),
    )
    bad_norm = dataclasses.replace(
        norm, rid="0.bad:opnorm",
        call=lambda: dataclasses.replace(norm.call(), lower=norm.call().lower * 1.01),
    )
    stats = run.Stats()
    for req in (apply, bad_apply, norm, bad_norm):
        stats.record(req, 0.01, req.call(), None)
    stats.record(apply, 0.01, None, "ValueError: boom")
    stats.record(apply, 0.01, "not a series", None)
    assert stats.failed == 4
    assert set(stats.failures) == {"prefix_fsum", "opnorm_dense_svd", "raised",
                                   "unreadable_output"}
    e2e = run.end_to_end(stats, [0.5])
    assert e2e["passed_frac"][0] == pytest.approx(1.0 - 4 / 6)


def test_tracer_restores_bindings():
    originals = {
        (classifier, "block_profile"): lipschitz.block_profile,
        (lipschitz, "block_profile"): lipschitz.block_profile,
        (rhalylab, "block_profile"): lipschitz.block_profile,
        (rhalylab, "hp_norm"): norms.hp_norm,
        (rhalyop, "hp_norm"): norms.hp_norm,
        (rhalylab.cli, "main"): rhalylab.cli.main,
        (np.fft, "ifft"): np.fft.ifft,
    }
    values = rhalyop.SequenceSpec.__dict__["values"]
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            for (owner, attr), fn in originals.items():
                assert getattr(owner, attr) is not fn
            assert rhalyop.SequenceSpec.__dict__["values"] is not values
            f = rhalyop.generating_function(rhalyop.SequenceSpec.cesaro(63))
            norms.hp_norm(f, 2.0)
            raise RuntimeError("leave the context by an error")
    for (owner, attr), fn in originals.items():
        assert getattr(owner, attr) is fn
    assert rhalyop.SequenceSpec.__dict__["values"] is values
    names = [s.name for s in tracer.spans]
    assert names == ["rhalyop.values", "norms.hp_norm", "norms.mean_mp",
                     "coeffcore.evaluate_on_circle", "bench.fft_hook",
                     "coeffcore.evaluate_on_circle", "bench.fft_hook"]
    assert tracer.counters["coeffcore.fft_count"] == 2


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    stats = run.Stats()
    req = workloads.warmup_requests("operator", tmp_path)[0]
    for _ in range(2):
        stats.record(req, 0.01, req.call(), None)
    e2e = run.end_to_end(stats, [0.5])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: unit for k, (_, unit) in e2e.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.per_layer_units()
