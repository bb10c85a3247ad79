"""Command-line surface: outputs, exit codes, determinism."""

import argparse
import json

import numpy as np
import pytest

from rhalylab import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_norm_trivial(capsys):
    code, out, _ = run_cli(capsys, "norm", "--spec", "[1]", "--p", "2")
    assert code == 0
    data = json.loads(out)
    assert abs(data["norm"]["value"] - 1.0) < 1e-12
    assert data["run_config"]["command"] == "norm"
    assert "version" in data


def test_norm_spaces(capsys):
    code, out, _ = run_cli(
        capsys, "norm", "--spec", "[0,1]", "--p", "2", "--space", "bergman",
        "--alpha", "0",
    )
    assert code == 0
    assert abs(json.loads(out)["norm"]["value"] - 2.0**-0.5) < 1e-10


def test_classify_averaging(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--spec", '{"kind":"cesaro","truncation":8191}',
        "--p", "2",
    )
    assert code == 0
    verdict = json.loads(out)["verdict"]
    assert verdict["conclusion"] == "Bounded"
    assert verdict["theorem"] == "Thm1a"


def test_opnorm_matches_svd(capsys):
    code, out, _ = run_cli(
        capsys, "opnorm", "--spec", '{"kind":"cesaro","truncation":4095}',
        "--trunc", "64", "--p", "2",
    )
    assert code == 0
    lower = json.loads(out)["estimate"]["lower"]
    ev = 1.0 / (np.arange(64) + 1.0)
    dense = np.tril(np.tile(ev[:, None], (1, 64)))
    oracle = np.linalg.svd(dense, compute_uv=False)[0]
    assert abs(lower - oracle) < 1e-8


def test_bad_input_exits_2(capsys):
    code, _, err = run_cli(capsys, "classify", "--spec", "not json", "--p", "2")
    assert code == 2
    assert "error" in err
    code, _, _ = run_cli(
        capsys, "classify", "--spec", '{"kind":"nope","truncation":8}', "--p", "2"
    )
    assert code == 2


def test_long_inline_spec_matches_file_form(tmp_path, capsys):
    # longer than the filename limit: must not be probed as a path
    rng = np.random.default_rng(5)
    spec = json.dumps({
        "kind": "signed",
        "truncation": 8191,
        "base": {"kind": "cesaro", "truncation": 8191},
        "signs": rng.choice([-1, 1], size=8192).tolist(),
    })
    assert len(spec) > 4096
    path = tmp_path / "signed.json"
    path.write_text(spec)
    code_inline, out_inline, _ = run_cli(capsys, "profile", "--spec", spec, "--p", "2")
    code_file, out_file, _ = run_cli(capsys, "profile", "--spec", str(path), "--p", "2")
    assert code_inline == code_file == 0
    assert out_inline == out_file
    # a path probe that fails (name too long) is an input error, not a crash
    code, _, err = run_cli(capsys, "profile", "--spec", "x" * 5000, "--p", "2")
    assert code == 2
    assert "error" in err


def test_unresolved_profile_exits_3(monkeypatch, capsys):
    from rhalylab import norms

    spec = '{"kind":"power_law","c":1.0,"s":0.5,"truncation":4095}'
    code, out, _ = run_cli(capsys, "profile", "--spec", spec, "--p", "1.5")
    assert code == 0
    assert json.loads(out)["profile"]["refinement_delta"] <= norms.REFINEMENT_FLAG
    # no grid doublings: blocks that need one stay above REFINEMENT_FLAG
    monkeypatch.setattr(norms, "_BLOCK_DOUBLINGS", 0)
    code, out, _ = run_cli(capsys, "profile", "--spec", spec, "--p", "1.5")
    assert code == 3
    profile = json.loads(out)["profile"]
    assert profile["verdict"] == "Inconclusive"
    assert profile["refinement_delta"] > norms.REFINEMENT_FLAG
    code, out, _ = run_cli(capsys, "classify", "--spec", spec, "--p", "1.5")
    assert code == 3
    assert json.loads(out)["verdict"]["conclusion"] == "Inconclusive"
    # p = 2 needs no doubling, so it still decides
    code, out, _ = run_cli(capsys, "classify", "--spec", spec, "--p", "2")
    assert code == 0
    assert json.loads(out)["verdict"]["conclusion"] == "NotBounded"


def test_counterexample_writes_files(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "counterexample", "--p", "1.5", "--grid-J", "6", "--out", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "counterexample.json").exists()
    csv = (tmp_path / "counterexample_blocks.csv").read_text()
    assert csv.splitlines()[0] == "k,achieved_norm"
    data = json.loads(out)
    assert data["sequence_spec"]["kind"] == "signed"


def test_parser_built_once_across_calls(monkeypatch, capsys):
    """Repeated in-process calls reuse one parser and print what a fresh one does."""
    argvs = (
        ("norm", "--spec", "[1, 2, 0.5]", "--p", "1.5"),
        ("basis-check", "--spec", '{"knots_x":[0,2,4],"knots_y":[0,2,0]}', "--trunc", "8"),
    )
    fresh = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    cli._build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        if kwargs.get("prog") == "rhalylab":
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert [run_cli(capsys, *argv) for argv in argvs] == fresh
    assert len(built) == 1


def test_profile_outputs(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "profile", "--spec", '{"kind":"cesaro","truncation":511}',
        "--p", "2", "--out", str(tmp_path),
    )
    assert code == 0
    data = json.loads(out)
    assert data["profile"]["verdict"] in (
        "BigLambda", "LittleLambda", "Neither", "Inconclusive"
    )
    assert (tmp_path / "profile.csv").read_text().startswith("N,scaled_norm")


def test_basis_check(capsys):
    code, out, _ = run_cli(
        capsys, "basis-check",
        "--spec", '{"knots_x":[0,2,4],"knots_y":[0,2,0]}', "--trunc", "16",
    )
    assert code == 0
    data = json.loads(out)
    assert data["within_bound"]
    assert data["sup_ratio"] <= 14.0


def test_output_bytes_stable_across_runs(capsys):
    argv = ["classify", "--spec", '{"kind":"power_law","c":1.0,"s":1.2,"truncation":2047}',
            "--p", "2"]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_suite_exit_codes(monkeypatch, capsys):
    from rhalylab import suite as suite_mod

    class Stub:
        def __init__(self, number, passed):
            self.number = number
            self.name = "stub"
            self.passed = passed

        def to_dict(self):
            return {"number": self.number, "name": self.name,
                    "passed": self.passed, "checks": []}

    monkeypatch.setattr(suite_mod, "run_suite", lambda: [Stub(1, True)])
    assert cli.main(["suite"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(suite_mod, "run_suite", lambda: [Stub(1, False)])
    assert cli.main(["suite"]) == 4
    capsys.readouterr()
