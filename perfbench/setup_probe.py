"""Set-up time of one fresh workload process.

Times ``import rhalylab`` (with the modules the workload calls) plus one
warm-up request of each kind in the workload, and prints
``{"setup_s": ...}``. Building the warm-up inputs is not timed.

    python3 perfbench/setup_probe.py --workload operator
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(HERE.parent / "src"))
    t0 = time.perf_counter()
    import rhalylab  # noqa: F401
    import rhalylab.cli  # noqa: F401
    import rhalylab.constructions  # noqa: F401
    import_s = time.perf_counter() - t0

    import workloads

    workdir = HERE / "results" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        requests = workloads.warmup_requests(args.workload, workdir)
        t0 = time.perf_counter()
        for req in requests:
            req.call()
        warmup_s = time.perf_counter() - t0
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()
    print(json.dumps({"setup_s": import_s + warmup_s, "import_s": import_s,
                      "warmup_s": warmup_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
