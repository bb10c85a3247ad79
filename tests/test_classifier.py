"""Verdict engine tests."""

import numpy as np
import pytest

from rhalylab.classifier import (
    Verdict,
    classify_bergman,
    classify_hardy,
    decreasing_rule,
    default_corpus,
    dpp_embedding_check,
    h1_necessary,
    hardy_inequality_check,
)
from rhalylab.coeffcore import CoeffSeq
from rhalylab.constructions import construct_upsilon
from rhalylab.errors import AlphaRange, NotMonotone, PRange, TruncationMismatch
from rhalylab.rhalyop import SequenceSpec, TruncatedRhaly, apply_rhaly

TRUNC = 8191


@pytest.fixture(scope="module")
def upsilon_spec():
    return construct_upsilon(1.5, 10).sequence_spec()


def test_averaging_weights_bounded_not_compact():
    eta = SequenceSpec.cesaro(TRUNC)
    v = classify_hardy(eta, 2.0)
    assert v.conclusion == "Bounded"
    assert "Compact" not in v.conclusions
    assert v.theorem == "Thm1a"


def test_power_law_compact():
    eta = SequenceSpec.power_law(1.0, 1.2, TRUNC)
    v = classify_hardy(eta, 2.0)
    assert v.conclusion == "Compact"
    assert "Bounded" in v.conclusions
    assert v.theorem == "Thm2a"


def test_slow_power_law_unbounded():
    eta = SequenceSpec.power_law(1.0, 0.8, TRUNC)
    assert classify_hardy(eta, 2.0).conclusion == "NotBounded"


def test_upsilon_not_bounded_below_two(upsilon_spec):
    v = classify_hardy(upsilon_spec, 1.5)
    assert v.conclusion == "NotBounded"


def test_upsilon_bounded_at_and_above_two(upsilon_spec):
    for p in (2.0, 3.0, 4.0):
        v = classify_hardy(upsilon_spec, p)
        assert "Bounded" in v.conclusions, (p, v.conclusion)


def test_p_above_two_uses_q_grid():
    eta = SequenceSpec.cesaro(TRUNC)
    v = classify_hardy(eta, 3.0)
    assert v.conclusion == "Bounded"
    assert v.theorem == "Thm1c"


def test_p_above_two_realizes_and_samples_once(monkeypatch):
    """All 8 profiles of the q-grid read one realization of F and one
    sample set; no block is sampled twice on the same angles."""
    from rhalylab import norms, rhalyop

    eta = SequenceSpec.power_law(1.0, 0.6, TRUNC)
    calls = {"values": 0, "sizes": []}
    values, sample = rhalyop.SequenceSpec.values, norms._abs_samples

    def counted_values(self):
        calls["values"] += 1
        return values(self)

    def counted_sample(block, points, shifts=None):
        for shift in [0.0] if shifts is None else shifts.tolist():
            calls["sizes"].append((len(block), points, shift))
        return sample(block, points, shifts)

    monkeypatch.setattr(rhalyop.SequenceSpec, "values", counted_values)
    monkeypatch.setattr(norms, "_abs_samples", counted_sample)
    v = classify_hardy(eta, 3.0)
    assert len(v.evidence) == 8  # every q undecided, then necessity at p
    assert calls["values"] == 1
    assert len(set(calls["sizes"])) == len(calls["sizes"])
    assert len({n for n, _, _ in calls["sizes"]}) == 12
    for _, ev in v.evidence:
        assert 0.0 <= ev["refinement_delta"] <= 1e-6


def test_p_two_verdicts_sample_no_block(monkeypatch):
    """At p = 2 every block norm is its coefficient sum by Parseval."""
    from rhalylab import norms

    def refuse(*args):
        raise AssertionError("a block was sampled at p = 2")

    monkeypatch.setattr(norms, "_abs_samples", refuse)
    for eta in (SequenceSpec.cesaro(TRUNC), SequenceSpec.power_law(1.0, 0.6, TRUNC)):
        assert not classify_hardy(eta, 2.0).unresolved
        assert not classify_bergman(eta, 2.0, 0.0).unresolved
        assert not classify_bergman(eta, 2.0, 1.0).unresolved


def test_unresolved_profile_is_inconclusive(monkeypatch):
    from rhalylab import norms

    eta = SequenceSpec.power_law(1.0, 0.5, 4095)
    fast = SequenceSpec.power_law(1.0, 2.0, 4096)
    Ns = (8, 32, 128, 512, 2048)
    assert classify_hardy(eta, 1.5).conclusion == "NotBounded"
    assert h1_necessary(fast, Ns).conclusion == "Compact"
    # no grid doublings: blocks that need one stay above REFINEMENT_FLAG
    monkeypatch.setattr(norms, "_BLOCK_DOUBLINGS", 0)
    v = classify_hardy(eta, 1.5)
    assert v.conclusion == "Inconclusive" and v.unresolved
    assert dict(v.evidence)["block_profile"]["refinement_delta"] > norms.REFINEMENT_FLAG
    assert not classify_hardy(eta, 2.0).unresolved
    h1 = h1_necessary(fast, Ns)
    assert h1.conclusion == "Inconclusive" and h1.unresolved


def test_p_range_guard():
    eta = SequenceSpec.cesaro(128)
    with pytest.raises(PRange):
        classify_hardy(eta, 1.0)


@pytest.mark.parametrize("alpha", [np.nan, np.inf])
def test_bergman_alpha_guard_refuses_non_finite(alpha):
    with pytest.raises(AlphaRange):
        classify_bergman(SequenceSpec.cesaro(128), 2.0, alpha)


def test_bergman_verdicts():
    assert "Bounded" in classify_bergman(SequenceSpec.cesaro(TRUNC), 2.0, 0.0).conclusions
    assert (
        classify_bergman(SequenceSpec.power_law(1.0, 0.8, TRUNC), 2.0, 0.0).conclusion
        == "NotBounded"
    )
    v = classify_bergman(SequenceSpec.power_law(1.0, 1.2, TRUNC), 2.0, 0.0)
    assert v.conclusion == "Compact"
    assert v.theorem == "Thm3"
    with pytest.raises(AlphaRange):
        classify_bergman(SequenceSpec.cesaro(128), 2.0, -1.5)


def test_bergman_necessity_gap():
    # outside alpha < 2p - 2 a growing profile cannot prove unboundedness
    eta = SequenceSpec.power_law(1.0, 0.8, TRUNC)
    v = classify_bergman(eta, 1.5, 1.5)  # 2p - 2 = 1
    assert v.conclusion == "Inconclusive"


def test_decreasing_rule():
    for s, want in ((0.8, "NotBounded"), (1.0, "Bounded"), (1.2, "Bounded")):
        eta = SequenceSpec.power_law(1.0, s, 4096)
        for p in (1.5, 2.0, 3.0):
            assert decreasing_rule(eta, p).conclusion == want
    with pytest.raises(NotMonotone):
        decreasing_rule(SequenceSpec.literal([1.0, 2.0, 3.0]), 2.0)


def test_rules_never_contradict():
    for s in (0.6, 0.8, 1.0, 1.2, 1.5):
        eta = SequenceSpec.power_law(1.0, s, TRUNC)
        for p in (1.5, 2.0):
            a = classify_hardy(eta, p).conclusion
            b = decreasing_rule(eta, p).conclusion
            assert {a, b} != {"Bounded", "NotBounded"}, (s, p, a, b)


def test_h1_diagnostics():
    Ns = (8, 32, 128, 512, 2048)
    v = h1_necessary(SequenceSpec.cesaro(4096), Ns)
    ratio_a = dict(v.evidence)["weighted_sum_ratio"]["values"]
    assert all(0.7 < r < 1.05 for r in ratio_a)
    assert v.conclusion == "Inconclusive"

    v = h1_necessary(SequenceSpec.power_law(1.0, 0.5, 4096), Ns)
    assert v.conclusion == "NotBounded"
    assert v.theorem == "Thm6ii"

    v = h1_necessary(SequenceSpec.power_law(1.0, 2.0, 4096), Ns)
    assert v.conclusion == "Compact"
    assert v.theorem == "Thm6i"

    with pytest.raises(ValueError):
        h1_necessary(SequenceSpec.cesaro(4096), (8, 12))


@pytest.mark.parametrize("Ns", [[8], [], 8, [8, 8], [16, 8], [8, 16], [8, 16, 32]])
def test_h1_refuses_fewer_than_two_increasing_block_sizes(Ns):
    """Check (c) compares the partial-sum norms at the two largest Ns, taken
    as the last two; one N has no pair, and [8, 8] would read a change of 0
    as convergence. The trends of checks (a) and (b) need four Ns: Cesaro,
    bounded on H^1, reads NotBounded on [8, 16] and on [8, 16, 32]."""
    with pytest.raises(ValueError, match="at least four block sizes, increasing"):
        h1_necessary(SequenceSpec.cesaro(1023), Ns)


def test_h1_flags_upsilon(upsilon_spec):
    v = h1_necessary(upsilon_spec, (8, 32, 128, 512))
    assert v.conclusion == "NotBounded"
    assert v.theorem in ("Thm6ii", "Thm6iii")


def test_verdict_json_and_invariants():
    v = classify_hardy(SequenceSpec.cesaro(TRUNC), 2.0)
    data = v.to_json()
    assert data["conclusion"] == "Bounded"
    assert data["theorem"] == "Thm1a"
    assert len(data["evidence"]) >= 1
    with pytest.raises(ValueError):
        Verdict("Bounded", "Thm1a", "Hardy(p=2)", ())


def test_embedding_check():
    corpus = default_corpus()[:10]
    eta = SequenceSpec.cesaro(4096)
    out = dpp_embedding_check(eta, 2.0, corpus=corpus, tail_Ns=(64, 256))
    assert 0 < out["dirichlet_constant"] < 10
    assert out["tail_ratios"][1] < out["tail_ratios"][0]
    zero = SequenceSpec.literal(np.zeros(4097))
    out0 = dpp_embedding_check(zero, 2.0, corpus=corpus[:2], tail_Ns=(64,))
    assert out0["dirichlet_constant"] == 0.0


def test_embedding_check_norms_and_applies_each_input_once(monkeypatch):
    from rhalylab import classifier, rhalyop
    from rhalylab.norms import dirichlet_norm, hp_norm

    rng = np.random.default_rng(3)
    corpus = [CoeffSeq(rng.standard_normal(41) + 1j * rng.standard_normal(41))
              for _ in range(25)]
    eta = SequenceSpec.power_law(1.0, 1.5, 255)
    p, tail_Ns = 1.5, (4, 16, 64)
    inputs = [hp_norm(f, p) for f in corpus]
    images = [dirichlet_norm(apply_rhaly(eta, f), p, p - 1.0) for f in corpus]
    tails = [[dirichlet_norm(TruncatedRhaly(eta, N).tail(f), p, p - 1.0) for f in corpus]
             for N in tail_Ns]
    denoms = [rep.value for rep in inputs]
    expected = {
        "dirichlet_constant": max(rep.value / d for rep, d in zip(images, denoms)),
        "tail_Ns": list(tail_Ns),
        "tail_ratios": [max(rep.value / d for rep, d in zip(row, denoms)) for row in tails],
        "refinement_delta": max(
            rep.refinement_delta for rep in [*inputs, *images, *sum(tails, [])]
        ),
    }
    calls = {"hp_norm": 0, "prefix_sums": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(classifier, "hp_norm")
    counted(rhalyop, "prefix_sums")
    out = dpp_embedding_check(eta, p, corpus=corpus, tail_Ns=tail_Ns)
    assert calls == {"hp_norm": 25, "prefix_sums": 25}
    assert out == expected
    with pytest.raises(TruncationMismatch):
        dpp_embedding_check(eta, p, corpus=corpus[:1], tail_Ns=(256,))


def test_hardy_inequality_on_corpus():
    for f in default_corpus()[:10]:
        s, bound = hardy_inequality_check(f)
        assert s <= bound + 1e-8
