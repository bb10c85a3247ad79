"""Command-line interface: norms, profiles, verdicts, operator-norm
estimates, the counterexample generator, the kernel check, and the full
verification suite.

Structured results go to stdout as JSON (series as CSV side files when an
output directory is given). Every output embeds the run configuration so a
result can be reproduced from the file alone. Exit codes: 0 success,
2 input error, 3 numeric non-convergence (an operator-norm iteration that
did not converge, or a block profile left unresolved on its finest grid,
which makes `profile` and `classify` Inconclusive), 4 suite failure.
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
from .coeffcore import CoeffSeq
from .constructions import PolygonalProfile, construct_upsilon, w_kernel
from .errors import RhalyError
from .lipschitz import (
    DEFAULT_EPS_SLOPE,
    DEFAULT_EPS_TAIL,
    block_profile,
    classify_membership,
)
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
    if isinstance(data, list):
        return CoeffSeq(np.array(data, dtype=complex)), {"input": "coeff_list"}
    if "coeffs" in data:
        return CoeffSeq.from_json(json.dumps(data)), {"input": "coeffs"}
    spec = _load_spec_dict(data, trunc)
    return generating_function(spec), {"input": "sequence_spec", "spec": data}


def _load_spec_dict(data: dict, trunc: int | None) -> SequenceSpec:
    if trunc is not None and "truncation" not in data:
        data = dict(data, truncation=trunc)
    return SequenceSpec.from_json(json.dumps(data))


def _load_spec(text: str, trunc: int | None) -> SequenceSpec:
    data = _read_json_arg(text)
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError("expected a sequence spec object with a 'kind' field")
    return _load_spec_dict(data, trunc)


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
    cfg = {"command": args.command}
    for key in ("p", "alpha", "q", "trunc", "seed", "grid_M", "grid_J",
                "eps_slope", "eps_tail", "space"):
        if hasattr(args, key) and getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    cfg.update(extra)
    return cfg


# --- subcommands ---------------------------------------------------------


def cmd_norm(args) -> int:
    f, meta = _load_series(args.spec, args.trunc)
    if args.space == "hardy":
        rep = hp_norm(f, args.p, args.grid_M)
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
    _emit({"norm": json.loads(rep.to_json()), **meta}, _config(args), args.out, "norm")
    return EXIT_OK


def cmd_profile(args) -> int:
    f, meta = _load_series(args.spec, args.trunc)
    K = args.grid_J if args.grid_J is not None else 12
    K = min(K, int(np.floor(np.log2(f.degree + 2))) - 1)
    alpha = args.alpha if args.alpha is not None else 1.0 / args.p
    prof = block_profile(f, args.p, alpha, K)
    verdict = classify_membership(
        prof,
        args.eps_slope if args.eps_slope is not None else DEFAULT_EPS_SLOPE,
        args.eps_tail if args.eps_tail is not None else DEFAULT_EPS_TAIL,
    )
    _write_csv(args.out, "profile", prof.to_csv())
    _emit(
        {
            "profile": json.loads(prof.sidecar_json(verdict.space)),
            "entries": [[N, s] for N, s in prof.entries],
            **meta,
        },
        _config(args, K=K, alpha=alpha),
        args.out,
        "profile",
    )
    return EXIT_NO_CONVERGENCE if prof.flagged else EXIT_OK


def cmd_classify(args) -> int:
    spec = _load_spec(args.spec, args.trunc)
    kwargs = {}
    if args.eps_slope is not None:
        kwargs["eps_slope"] = args.eps_slope
    if args.eps_tail is not None:
        kwargs["eps_tail"] = args.eps_tail
    if args.space == "bergman":
        verdict = classify_bergman(
            spec, args.p, args.alpha if args.alpha is not None else 0.0, **kwargs
        )
    else:
        verdict = classify_hardy(spec, args.p, **kwargs)
    _emit({"verdict": json.loads(verdict.to_json())}, _config(args), args.out, "verdict")
    return EXIT_NO_CONVERGENCE if verdict.unresolved else EXIT_OK


def cmd_opnorm(args) -> int:
    spec = _load_spec(args.spec, args.trunc)
    N = args.trunc if args.trunc is not None else spec.truncation + 1
    if args.p == 2.0:
        est = opnorm_h2(spec, N, seed=args.seed)
    else:
        est = opnorm_lower_hp(spec, args.p, seed=args.seed)
    _emit({"estimate": json.loads(est.to_json())}, _config(args, N=N), args.out, "opnorm")
    return EXIT_OK if est.converged else EXIT_NO_CONVERGENCE


def cmd_counterexample(args) -> int:
    K = args.grid_J if args.grid_J is not None else 10
    result = construct_upsilon(args.p, K)
    csv_lines = ["k,achieved_norm"]
    csv_lines += [f"{k},{v!r}" for k, v in enumerate(result.achieved)]
    _write_csv(args.out, "counterexample_blocks", "\n".join(csv_lines) + "\n")
    _emit(
        {
            "sequence_spec": json.loads(result.sequence_spec().to_json()),
            "result": json.loads(result.to_json()),
        },
        _config(args, K=K),
        args.out,
        "counterexample",
    )
    return EXIT_OK


def cmd_basis_check(args) -> int:
    data = _read_json_arg(args.spec)
    psi = PolygonalProfile(
        np.array(data["knots_x"], dtype=float),
        np.array(data["knots_y"], dtype=float),
    )
    n = args.trunc if args.trunc is not None else 32
    grid = args.grid_M if args.grid_M is not None else 32 * n
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

    def common(sp, need_p=True):
        sp.add_argument("--spec", required=False, help="inline JSON or a JSON file path")
        if need_p:
            sp.add_argument("--p", type=float, default=2.0)
        sp.add_argument("--alpha", type=float, default=None)
        sp.add_argument("--q", type=float, default=None)
        sp.add_argument("--trunc", type=int, default=None)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None)
        sp.add_argument("--grid-M", dest="grid_M", type=int, default=None)
        sp.add_argument("--grid-J", dest="grid_J", type=int, default=None)
        sp.add_argument("--eps-slope", dest="eps_slope", type=float, default=None)
        sp.add_argument("--eps-tail", dest="eps_tail", type=float, default=None)

    sp = sub.add_parser("norm", help="norm of a coefficient series or generating function")
    common(sp)
    sp.add_argument("--space", choices=("hardy", "bergman", "dirichlet", "xqp"),
                    default="hardy")
    sp.set_defaults(func=cmd_norm)

    sp = sub.add_parser("profile", help="dyadic block profile and membership verdict")
    common(sp)
    sp.set_defaults(func=cmd_profile)

    sp = sub.add_parser("classify", help="boundedness/compactness verdict")
    common(sp)
    sp.add_argument("--space", choices=("hardy", "bergman"), default="hardy")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("opnorm", help="operator norm estimate (section or lower bound)")
    common(sp)
    sp.set_defaults(func=cmd_opnorm)

    sp = sub.add_parser("counterexample", help="sign-series counterexample generator")
    common(sp)
    sp.set_defaults(func=cmd_counterexample)

    sp = sub.add_parser("basis-check", help="polygonal kernel bound check")
    common(sp)
    sp.set_defaults(func=cmd_basis_check)

    sp = sub.add_parser("suite", help="run the full verification battery")
    common(sp, need_p=False)
    sp.set_defaults(func=cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RhalyError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error [{type(exc).__module__}.{type(exc).__name__}]: {exc}",
              file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
