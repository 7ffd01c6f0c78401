"""How hard the interior point works on the oracle's share programs.

Run from the root of a checkout:

    python tests/oracle_scan.py [--seeds N]

It calls ``oracle_solve`` on ``conftest.random_instance(seed)`` for seeds 0
to N - 1 (default 8000) under the log utility of the tests, one thread, and
prints four counts: the solves that raised ``NetOptError``, the solves that
returned a banked iterate, the solves that took ``MAX_NEWTON_ITERS`` Newton
steps, and the Newton steps of every solve that returned.  The last line
names the seeds that failed, banked or reached the cap.  It is not a pytest
module.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# One thread, as the benchmark runs: BLAS must not change summation orders.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from hetnet_rrm import netopt  # noqa: E402
from hetnet_rrm.netopt import NetOptError, UtilitySpec  # noqa: E402
from hetnet_rrm.oracle import oracle_solve  # noqa: E402

from conftest import det_model, random_instance  # noqa: E402

LOG = UtilitySpec(alpha=1.0, epsilon=1e-3)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=8000, help="scan seeds 0..N-1")
    args = parser.parse_args(argv)
    failed, banked, capped, steps = [], [], [], 0
    for seed in range(args.seeds):
        try:
            flow = oracle_solve(det_model(random_instance(seed)), LOG).flow
        except NetOptError:
            failed.append(seed)
            continue
        steps += flow.newton_iters
        if flow.banked:
            banked.append(seed)
        if flow.newton_iters >= netopt.MAX_NEWTON_ITERS:
            capped.append(seed)
    print(f"seeds 0-{args.seeds - 1}: {len(failed)} failed, {len(banked)} banked, "
          f"{len(capped)} at {netopt.MAX_NEWTON_ITERS} iterations, {steps} Newton steps")
    print(f"failed {failed} banked {banked} capped {capped}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
