"""Command-line interface: norms, profiles, verdicts, operator-norm
estimates, the counterexample generator, the kernel check, and the full
verification suite.

Each subcommand takes only the flags it reads, picked by name from one
table (:data:`_FLAGS`); a flag it does not read is a usage error. The
thresholds of profiles and verdicts are fixed, not flags. Structured
results go to stdout as JSON (series as CSV side files when an output
directory is given). Every output embeds the run configuration, the flags
that were set plus the values derived from them, so a result can be
reproduced from the file alone. Exit codes: 0 success, 2 input error
(including a spec of the wrong shape), 3 numeric non-convergence (an
operator-norm iteration that did not converge, or a block profile left
unresolved on its finest grid, which makes `profile` and `classify`
Inconclusive), 4 suite failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .classifier import classify_bergman, classify_hardy
from .coeffcore import CoeffSeq, is_number
from .constructions import PolygonalProfile, construct_upsilon, w_kernel
from .errors import MalformedSpec, RhalyError
from .lipschitz import block_profile, classify_membership, fit_K
from .norms import bergman_norm, dirichlet_norm, hp_norm, xqp_norm
from .rhalyop import SequenceSpec, generating_function, opnorm_h2, opnorm_lower_hp

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_SUITE_FAILED = 4


def _read_json_arg(text: str) -> dict | list:
    """Inline JSON, or the contents of a file when the argument names one.

    Text that starts with '{' or '[' is always inline JSON, so it is never
    probed as a path; an inline spec can be longer than the filename limit.
    """
    if text.lstrip()[:1] in ("{", "["):
        return json.loads(text)
    candidate = Path(text)
    try:
        is_file = candidate.is_file()
    except OSError as exc:
        raise ValueError(
            f"cannot probe {text[:40]!r}... as a path: {exc.strerror}"
        ) from exc
    if is_file:
        return json.loads(candidate.read_text())
    return json.loads(text)


def _load_series(text: str, trunc: int | None) -> tuple[CoeffSeq, dict]:
    """Accept coefficients ({"coeffs": ...} or a bare list) or a sequence
    spec (realized through its generating function)."""
    data = _read_json_arg(text)
    series = isinstance(data, list) or isinstance(data, dict) and "coeffs" in data
    if series and trunc is not None:
        raise MalformedSpec("--trunc applies to a sequence spec, not to coefficients")
    if isinstance(data, list):
        if not all(map(is_number, data)):
            raise MalformedSpec("a coefficient list holds numbers only")
        return CoeffSeq(np.array(data, dtype=complex)), {"input": "coeff_list"}
    if not isinstance(data, dict):
        raise MalformedSpec("expected a coefficient list, a series or a sequence spec")
    if "coeffs" in data:
        return CoeffSeq.from_json(data), {"input": "coeffs"}
    spec = _load_spec(data, trunc)
    return generating_function(spec), {"input": "sequence_spec", "spec": data}


def _load_spec(data, trunc: int | None) -> SequenceSpec:
    """A sequence spec from parsed JSON. --trunc stands in for a missing
    truncation; one that differs from the spec's own is refused, since
    nothing would read it."""
    if trunc is not None and isinstance(data, dict):
        if "truncation" in data and data["truncation"] != trunc:
            raise MalformedSpec(
                f"--trunc {trunc} differs from the spec's truncation {data['truncation']!r}"
            )
        data = {"truncation": trunc, **data}
    return SequenceSpec.from_json(data)


def _emit(payload: dict, config: dict, out: str | None, stem: str) -> None:
    payload = dict(payload, run_config=config, version=__version__)
    text = json.dumps(payload, sort_keys=True, indent=2)
    print(text)
    if out:
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / f"{stem}.json").write_text(text + "\n")


def _write_csv(out: str | None, stem: str, text: str) -> None:
    if out:
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / f"{stem}.csv").write_text(text)


def _config(args: argparse.Namespace, **extra) -> dict:
    """The command, every flag that was set except --spec and --out, and extra."""
    cfg = {
        key: value
        for key, value in vars(args).items()
        if key not in ("func", "spec", "out") and value is not None
    }
    cfg.update(extra)
    return cfg


# --- subcommands ---------------------------------------------------------


def cmd_norm(args) -> int:
    f, meta = _load_series(args.spec, args.trunc)
    if args.space == "hardy":
        rep = hp_norm(f, args.p)
    elif args.space == "bergman":
        rep = bergman_norm(f, args.p, args.alpha if args.alpha is not None else 0.0)
    elif args.space == "dirichlet":
        rep = dirichlet_norm(f, args.p, args.alpha if args.alpha is not None else args.p - 1.0)
    elif args.space == "xqp":
        if args.q is None:
            raise ValueError("--q is required for the mixed norm")
        rep = xqp_norm(f, args.q, args.p)
    else:
        raise ValueError(f"unknown space {args.space!r}")
    _emit({"norm": rep.to_json(), **meta}, _config(args), args.out, "norm")
    return EXIT_OK


def cmd_profile(args) -> int:
    f, meta = _load_series(args.spec, args.trunc)
    K = fit_K(f.degree, args.grid_J if args.grid_J is not None else 12)
    alpha = args.alpha if args.alpha is not None else 1.0 / args.p
    prof = block_profile(f, args.p, alpha, K)
    _write_csv(args.out, "profile", prof.to_csv())
    _emit(
        {
            "profile": prof.sidecar_json(classify_membership(prof)),
            "entries": [[N, s] for N, s in prof.entries],
            **meta,
        },
        _config(args, K=K, alpha=alpha),
        args.out,
        "profile",
    )
    return EXIT_NO_CONVERGENCE if prof.flagged else EXIT_OK


def cmd_classify(args) -> int:
    spec = _load_spec(_read_json_arg(args.spec), args.trunc)
    if args.space == "bergman":
        verdict = classify_bergman(spec, args.p, args.alpha if args.alpha is not None else 0.0)
    else:
        verdict = classify_hardy(spec, args.p)
    _emit({"verdict": verdict.to_json()}, _config(args), args.out, "verdict")
    return EXIT_NO_CONVERGENCE if verdict.unresolved else EXIT_OK


def cmd_opnorm(args) -> int:
    """The l2 section norm at p = 2, bracketed, where --trunc is the section
    size N; at other p a lower bound from a deterministic candidate family,
    which does not read N. Neither draws anything, so neither takes a seed."""
    data = _read_json_arg(args.spec)
    if args.p == 2.0:
        own = isinstance(data, dict) and "truncation" in data
        spec = _load_spec(data, None if own else args.trunc)
        N = args.trunc if args.trunc is not None else spec.truncation + 1
        est = opnorm_h2(spec, N)
        config = _config(args, N=N)
    else:
        est = opnorm_lower_hp(_load_spec(data, args.trunc), args.p)
        config = _config(args)
    _emit({"estimate": est.to_json()}, config, args.out, "opnorm")
    return EXIT_OK if est.converged else EXIT_NO_CONVERGENCE


def cmd_counterexample(args) -> int:
    K = args.grid_J if args.grid_J is not None else 10
    result = construct_upsilon(args.p, K)
    csv_lines = ["k,achieved_norm"]
    csv_lines += [f"{k},{v!r}" for k, v in enumerate(result.achieved)]
    _write_csv(args.out, "counterexample_blocks", "\n".join(csv_lines) + "\n")
    _emit(
        {
            "sequence_spec": result.sequence_spec().to_json(),
            "result": result.to_json(),
        },
        _config(args, K=K),
        args.out,
        "counterexample",
    )
    return EXIT_OK


def cmd_basis_check(args) -> int:
    data = _read_json_arg(args.spec)
    if not isinstance(data, dict) or not all(
        isinstance(data.get(key), list) and all(map(is_number, data[key]))
        for key in ("knots_x", "knots_y")
    ):
        raise MalformedSpec('a profile is {"knots_x": [...], "knots_y": [...]} of numbers')
    psi = PolygonalProfile(
        np.array(data["knots_x"], dtype=float),
        np.array(data["knots_y"], dtype=float),
    )
    n = args.trunc if args.trunc is not None else 32
    grid = 32 * n
    ratio = w_kernel(psi, n, grid)
    _emit(
        {
            "sup_ratio": ratio,
            "bound": 14.0,
            "within_bound": ratio <= 14.0 * (1.0 + 1e-3),
            "lipschitz_constant": psi.lipschitz_constant,
        },
        _config(args, n=n, theta_grid=grid),
        args.out,
        "basis_check",
    )
    return EXIT_OK


def cmd_suite(args) -> int:
    from .suite import render_report, run_suite

    results = run_suite()
    report = render_report(results)
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] criterion {r.number}: {r.name}")
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "suite_report.json").write_text(report + "\n")
    else:
        print(report)
    return EXIT_OK if all(r.passed for r in results) else EXIT_SUITE_FAILED


# --- argument parsing ------------------------------------------------------

#: every flag a subcommand may take, by name
_FLAGS = {
    "spec": dict(required=True, help="inline JSON or a JSON file path"),
    "p": dict(type=float, default=2.0),
    "alpha": dict(type=float),
    "q": dict(type=float),
    "trunc": dict(type=int),
    "out": dict(),
    "grid-J": dict(dest="grid_J", type=int),
}

#: (name, handler, help, flags read, --space choices); the first choice is
#: the default
_SUBCOMMANDS = (
    ("norm", cmd_norm, "norm of a coefficient series or generating function",
     ("spec", "p", "alpha", "q", "trunc", "out"), ("hardy", "bergman", "dirichlet", "xqp")),
    ("profile", cmd_profile, "dyadic block profile and membership verdict",
     ("spec", "p", "alpha", "trunc", "out", "grid-J"), ()),
    ("classify", cmd_classify, "boundedness/compactness verdict",
     ("spec", "p", "alpha", "trunc", "out"), ("hardy", "bergman")),
    ("opnorm", cmd_opnorm, "operator norm estimate (section or lower bound)",
     ("spec", "p", "trunc", "out"), ()),
    ("counterexample", cmd_counterexample, "sign-series counterexample generator",
     ("p", "out", "grid-J"), ()),
    ("basis-check", cmd_basis_check, "polygonal kernel bound check",
     ("spec", "trunc", "out"), ()),
    ("suite", cmd_suite, "run the full verification battery", ("out",), ()),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="rhalylab",
        description="Averaging operators on Hardy and Bergman spaces: "
        "norms, block profiles, boundedness verdicts, counterexamples.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, flags, spaces in _SUBCOMMANDS:
        sp = sub.add_parser(name, help=help_text)
        for flag in flags:
            sp.add_argument(f"--{flag}", **_FLAGS[flag])
        if spaces:
            sp.add_argument("--space", choices=spaces, default=spaces[0])
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RhalyError, ValueError, KeyError) as exc:
        print(f"error [{type(exc).__module__}.{type(exc).__name__}]: {exc}",
              file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
