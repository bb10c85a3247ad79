"""Compare two result files written by run.py.

    python3 perfbench/compare.py old.json new.json

Prints every metric of both runs with the new/old ratio, then the output
digest: the requests both runs completed whose deterministic output moved.
The digest is informational; nothing here is gated.
"""

from __future__ import annotations

import argparse
import json
import sys


def _order(rid: str):
    head, _, kind = rid.partition(":")
    return [int(p) if p.isdigit() else p for p in head.split(".")], kind


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    with open(args.old) as fh:
        old = json.load(fh)
    with open(args.new) as fh:
        new = json.load(fh)

    print(f"{'metric':40s} {'old':>14s} {'new':>14s} {'new/old':>9s}")
    for name in dict.fromkeys([*old["metrics"], *new["metrics"]]):
        a = old["metrics"].get(name, {}).get("value")
        b = new["metrics"].get(name, {}).get("value")
        unit = (new["metrics"].get(name) or old["metrics"][name])["unit"]
        ratio = f"{b / a:.4f}" if a and b is not None else "-"
        print(f"{name + ' [' + unit + ']':40s} {_fmt(a):>14s} {_fmt(b):>14s} {ratio:>9s}")

    da, db = old["digest"]["requests"], new["digest"]["requests"]
    common = sorted(set(da) & set(db), key=_order)
    moved = [rid for rid in common if da[rid] != db[rid]]
    print(f"digest: {len(common)} requests in both runs, {len(moved)} moved, "
          f"{len(set(da) - set(db))} only in old, {len(set(db) - set(da))} only in new")
    for rid in moved:
        print(f"  moved {rid}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
