"""Command-line surface: outputs, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_no_subcommand_reads_a_seed(capsys):
    """Nothing the CLI runs draws at random, so --seed is a usage error
    everywhere, opnorm at every p included."""
    for argv in (["opnorm", "--spec", '{"kind":"cesaro","truncation":63}', "--p", "2"],
                 ["opnorm", "--spec", '{"kind":"cesaro","truncation":63}', "--p", "1.5"],
                 ["classify", "--spec", "[1]"]):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--seed", "1"])
        assert exc.value.code == 2
    capsys.readouterr()


def test_opnorm_records_N_only_at_p2(capsys):
    """The H^p lower bound does not read N, so it records only p; the
    section norm records N, and no run_config records a seed."""
    spec = '{"kind":"cesaro","truncation":63}'
    code, out, _ = run_cli(capsys, "opnorm", "--spec", spec, "--p", "1.5")
    assert code == 0
    assert json.loads(out)["run_config"] == {"command": "opnorm", "p": 1.5}
    code, out, _ = run_cli(capsys, "opnorm", "--spec", spec, "--p", "2")
    assert code == 0
    assert json.loads(out)["run_config"] == {"command": "opnorm", "p": 2.0, "N": 64}


def test_trunc_equal_to_the_spec_truncation_is_read(capsys):
    """A --trunc equal to the spec's truncation changes nothing but the
    run_config; opnorm at p = 2 reads --trunc as the section size N."""
    for argv in (["norm", "--p", "1.5"], ["profile", "--p", "2"], ["classify", "--p", "2"],
                 ["opnorm", "--p", "1.5"]):
        code, out, _ = run_cli(capsys, *argv, "--spec", SPEC)
        code_t, out_t, _ = run_cli(capsys, *argv, "--spec", SPEC, "--trunc", "255")
        assert code == code_t == 0
        plain, given = json.loads(out), json.loads(out_t)
        assert given.pop("run_config") == dict(plain.pop("run_config"), trunc=255)
        assert given == plain
    code, out, _ = run_cli(capsys, "opnorm", "--spec", SPEC, "--p", "2", "--trunc", "16")
    assert code == 0
    assert json.loads(out)["run_config"]["N"] == 16


#: the flag set all subcommands once shared (suite without --p) and the
#: per-subcommand extras; a subcommand refuses each one it does not read
OLD_COMMON_FLAGS = ("--spec", "--p", "--alpha", "--q", "--trunc", "--out", "--grid-M",
                    "--grid-J", "--eps-slope", "--eps-tail")
OLD_EXTRA_FLAGS = {"norm": ("--space",), "classify": ("--space",), "opnorm": ("--seed",)}

SPEC = '{"kind":"cesaro","truncation":255}'
PROFILE = '{"knots_x":[0,2,4],"knots_y":[0,2,0]}'

#: argvs that between them make each subcommand read every flag it takes
READING_ARGVS = {
    "norm": (
        ["--spec", '{"kind":"cesaro"}', "--trunc", "63", "--space", "xqp", "--q", "1.5"],
        ["--spec", SPEC, "--space", "bergman", "--alpha", "1", "--p", "1.5"],
    ),
    "profile": (["--spec", '{"kind":"cesaro"}', "--trunc", "255", "--p", "1.5",
                 "--alpha", "0.5", "--grid-J", "6"],),
    "classify": (["--spec", SPEC, "--space", "bergman", "--p", "2", "--alpha", "1",
                  "--trunc", "255"],),
    "opnorm": (["--spec", SPEC, "--p", "2", "--trunc", "16"],),
    "counterexample": (["--p", "1.5", "--grid-J", "3"],),
    "basis-check": (["--spec", PROFILE, "--trunc", "8"],),
    "suite": ([],),
}


def _subparsers() -> dict:
    action = next(a for a in cli._build_parser()._actions if a.dest == "command")
    return action.choices


def test_subparsers_hold_30_flags():
    flags = [a for sp in _subparsers().values() for a in sp._actions
             if a.option_strings and a.dest != "help"]
    assert len(flags) == 30


@pytest.mark.parametrize("command", sorted(READING_ARGVS))
def test_subcommand_reads_every_flag_it_takes(command, tmp_path, monkeypatch, capsys):
    """Each flag a subcommand takes is read by its handler, and each flag it
    took before and does not read is refused as a usage error."""
    from rhalylab import suite as suite_mod

    monkeypatch.setattr(suite_mod, "run_suite", lambda: [])
    read = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    parser = _subparsers()[command]
    dests = {a.dest for a in parser._actions if a.option_strings and a.dest != "help"}
    for argv in READING_ARGVS[command]:
        args = cli._build_parser().parse_args([command, *argv, "--out", str(tmp_path)])
        assert args.func(Recording(**vars(args))) in (0, 3)
    capsys.readouterr()
    assert read & dests == dests

    taken = {o for a in parser._actions for o in a.option_strings}
    old = (*OLD_COMMON_FLAGS, *OLD_EXTRA_FLAGS.get(command, ()))
    spec = ["--spec", PROFILE if command == "basis-check" else SPEC] if "--spec" in taken else []
    for flag in set(old) - taken:
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *spec, flag, "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_run_config_of_verdict_requests(capsys):
    """The run_config of each command shape the verdicts benchmark sends."""
    spec = '{"kind":"cesaro","truncation":511}'
    expected = [
        (["classify", "--space", "hardy", "--p", "1.5"],
         {"command": "classify", "p": 1.5, "space": "hardy"}),
        (["classify", "--space", "hardy", "--p", "2"],
         {"command": "classify", "p": 2.0, "space": "hardy"}),
        (["classify", "--space", "hardy", "--p", "3"],
         {"command": "classify", "p": 3.0, "space": "hardy"}),
        (["classify", "--space", "bergman", "--p", "2", "--alpha", "0"],
         {"alpha": 0.0, "command": "classify", "p": 2.0, "space": "bergman"}),
        (["classify", "--space", "bergman", "--p", "2", "--alpha", "1"],
         {"alpha": 1.0, "command": "classify", "p": 2.0, "space": "bergman"}),
        (["profile", "--p", "1.5"],
         {"K": 8, "alpha": 1.0 / 1.5, "command": "profile", "p": 1.5}),
    ]
    for argv, config in expected:
        code, out, _ = run_cli(capsys, *argv, "--spec", spec)
        assert code == 0
        assert json.loads(out)["run_config"] == config


@pytest.mark.parametrize("argv", [
    ["norm", "--spec", "5"],
    ["norm", "--spec", "[{}]"],
    ["classify", "--spec", '{"kind":"power_law","c":1,"s":[1],"truncation":10}'],
    ["norm", "--spec", '{"kind":"literal","truncation":3,"values":[[1]]}'],
    ["basis-check", "--spec", "5"],
    ["basis-check", "--spec", "[1,2]"],
    ["basis-check", "--spec", '{"knots_x":[{}],"knots_y":[0]}'],
    ["norm", "--spec", '{"kind":"signed","truncation":3,"base":{"kind":"cesaro","truncation":5},'
                       '"signs":[1,1,1,1,1,1]}'],
    ["classify", "--spec", '{"truncation":63}'],
    ["opnorm", "--spec", '{"kind":"cesaro"}'],
    # a --trunc that nothing would read: the spec has another truncation,
    # or the input is a coefficient series
    ["norm", "--spec", '{"kind":"cesaro","truncation":63}', "--trunc", "31"],
    ["profile", "--spec", '{"kind":"cesaro","truncation":255}', "--trunc", "127"],
    ["classify", "--spec", '{"kind":"cesaro","truncation":8191}', "--p", "2", "--trunc", "127"],
    ["opnorm", "--spec", '{"kind":"cesaro","truncation":63}', "--p", "1.5", "--trunc", "31"],
    ["norm", "--spec", "[0,1]", "--trunc", "1"],
    ["norm", "--spec", '{"coeffs":[[0,0],[1,0]]}', "--trunc", "1"],
    ["profile", "--spec", "[0,1,0,1]", "--trunc", "3"],
])
def test_malformed_spec_shapes_exit_2(argv, capsys):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error [rhalylab.errors.MalformedSpec]")


SPEC_KEYS = ("kind", "truncation", "c", "s", "values", "measure", "atoms", "t", "mass",
             "base", "signs", "coeffs", "knots_x", "knots_y")
SPEC_KINDS = ("literal", "power_law", "cesaro", "measure_moments", "signed")
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-4, 40) | st.floats(-10, 10)
    | st.sampled_from(SPEC_KINDS),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(SPEC_KEYS), inner, max_size=5),
    max_leaves=12,
)
# specs with a kind and a truncation, so the fields behind them get exercised
near_specs = st.builds(
    lambda kind, trunc, rest: {**rest, "kind": kind, "truncation": trunc},
    st.sampled_from(SPEC_KINDS),
    st.integers(-4, 40),
    st.dictionaries(st.sampled_from(SPEC_KEYS), json_values, max_size=4),
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(("norm", "profile", "classify", "opnorm", "basis-check")),
       json_values | near_specs)
def test_any_json_spec_ends_in_a_documented_exit_code(command, value):
    """Whatever JSON arrives as --spec, the CLI answers, refuses it as an
    input error or reports non-convergence; it never ends in a traceback."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        # --spec=VALUE: argparse would take a separate value such as -2e-311
        # for an option
        code = cli.main([command, f"--spec={json.dumps(value)}"])
    assert code in (0, 2, 3)


def test_bad_input_exits_2(capsys):
    code, _, err = run_cli(capsys, "classify", "--spec", "not json", "--p", "2")
    assert code == 2
    assert "error" in err
    code, _, _ = run_cli(
        capsys, "classify", "--spec", '{"kind":"nope","truncation":8}', "--p", "2"
    )
    assert code == 2


#: every call that takes an exponent or weight outside its range; "--p=-inf"
#: keeps argparse from reading -inf as a flag, so the library refuses it
NON_FINITE_ARGVS = [
    ["norm", "--space", space, f"--p={p}"]
    for space in ("hardy", "bergman", "dirichlet")
    for p in ("nan", "inf", "-inf")
] + [
    ["opnorm", f"--p={p}"] for p in ("nan", "inf", "-inf")
] + [
    [cmd, "--space", "bergman", "--p", "2", "--alpha", alpha]
    for cmd in ("norm", "classify")
    for alpha in ("nan", "inf")
] + [
    ["profile", f"--p={p}"] for p in ("nan", "inf")
] + [["profile", "--p", "2", "--alpha", "nan"]]


@pytest.mark.parametrize("argv", NON_FINITE_ARGVS, ids=" ".join)
def test_non_finite_exponents_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--spec", '{"kind":"cesaro","truncation":255}')
    assert code == 2
    assert out == ""
    assert err.startswith("error [")


def test_malformed_measure_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "classify", "--spec",
        '{"kind":"measure_moments","truncation":10,"measure":[1]}',
    )
    assert code == 2
    assert "MalformedSpec" in err


def test_malformed_coeffs_exit_2(capsys):
    code, _, err = run_cli(capsys, "norm", "--spec", '{"coeffs":[1,2]}')
    assert code == 2
    assert "MalformedSpec" in err


def test_import_leaves_scipy_special_unloaded():
    """classify and profile never build a radial rule, so importing the CLI
    must not pay for scipy.special."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, rhalylab, rhalylab.cli; print('scipy.special' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


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


def test_truncation_two_below_a_power_of_two_fits_its_blocks(capsys):
    # degree 2^9 - 2 holds the blocks N = 2..64 but not N = 128
    spec = '{"kind":"cesaro","truncation":510}'
    code, out, _ = run_cli(capsys, "profile", "--spec", spec)
    assert code == 0
    assert json.loads(out)["run_config"]["K"] == 7
    code, out, _ = run_cli(capsys, "classify", "--spec", spec, "--p", "1.5")
    assert code == 0
    assert json.loads(out)["verdict"]["conclusion"] == "Bounded"


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

        def to_json(self):
            return {"number": self.number, "name": self.name,
                    "passed": self.passed, "checks": []}

    monkeypatch.setattr(suite_mod, "run_suite", lambda: [Stub(1, True)])
    assert cli.main(["suite"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(suite_mod, "run_suite", lambda: [Stub(1, False)])
    assert cli.main(["suite"]) == 4
    capsys.readouterr()
