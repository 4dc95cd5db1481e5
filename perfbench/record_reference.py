"""Record the reference outputs that op 0 of every run is compared with.

    python3 perfbench/record_reference.py --scale full

Runs op 0 (the pinned reference seed) of each workload once, checks it
against the invariants, and writes `reference/<workload>_<scale>.json`.
Recording again replaces the reference: do it only at a commit whose
outputs are known to be right, never to make a failing check pass.
"""

import argparse
import contextlib
import io
import json
import shutil
import sys

import run  # pins BLAS threads before numpy loads
from workloads import REFERENCE_DIR, SIZES, WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scale", choices=sorted(SIZES), required=True)
    args = parser.parse_args(argv)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in sorted(WORKLOADS):
        workdir = run.OUT_DIR / f"record_{name}_{args.scale}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            workload = WORKLOADS[name](run.import_causalpath(), args.scale, 0, workdir)
            workload.reference = None
            inp = workload.make_input(0)
            with contextlib.redirect_stdout(io.StringIO()):
                out = workload.run(inp)
            problems, _ = workload.check(inp, out)
            if problems:
                print(f"{name}: not recorded, op 0 fails its checks: {problems}", file=sys.stderr)
                return 1
            path = REFERENCE_DIR / f"{name}_{args.scale}.json"
            with open(path, "w") as fp:
                json.dump(workload.record(inp, out), fp, indent=1)
                fp.write("\n")
            print(f"wrote {path}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
