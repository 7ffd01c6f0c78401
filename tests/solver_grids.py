"""How many long fading runs end in a flow-solver error.

Run from the root of a checkout:

    python tests/solver_grids.py

It runs three grids of ``fig7_like`` pipelines, one thread, and counts the
runs that raise ``NetOptError``, which ``hetnet-rrm run`` reports with exit
code 5:

* ``reuse, shipped settings``: the reuse layout (``fig7_like`` with
  ``macro_radius_m = 150`` and ``pico_radius_m = 100``, so each macro
  conflicts with its relay picos) at 27-35 dBm in steps of 2, seeds 1-3 and
  all four modes: 60 runs;
* ``fig7_like, forced``: the bundled layout at 27, 31 and 35 dBm, seeds 1-3,
  proposed, fddsa and ttrsc, held to 60 superframes by
  ``max_superframes = 60`` and ``epsilon_converge = 1e-9``: 27 runs;
* ``reuse, forced``: the reuse layout on the forced grid: 27 runs.

For each grid it prints the count and then one line per failing run: its
power, seed, mode and error message.  It is not a pytest module.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# One thread, as the benchmark runs: BLAS must not change summation orders.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from importlib import resources  # noqa: E402

from hetnet_rrm.cli import run_experiment  # noqa: E402
from hetnet_rrm.netopt import NetOptError  # noqa: E402
from hetnet_rrm.scenario import parse_scenario, with_param  # noqa: E402

SEEDS = (1, 2, 3)
FORCED_POWERS = (27.0, 31.0, 35.0)
FORCED_MODES = ("proposed", "fddsa", "ttrsc")
SHIPPED_POWERS = (27.0, 29.0, 31.0, 33.0, 35.0)
SHIPPED_MODES = ("proposed", "fbc", "fddsa", "ttrsc")


def layout_text(reuse: bool, forced: bool) -> str:
    """``fig7_like``'s text, with the reuse radii and the forced horizon
    edited in as asked."""
    text = resources.files("hetnet_rrm").joinpath("scenarios/fig7_like.scenario").read_text()
    edits = []
    if reuse:
        edits += [("macro_radius_m", "40.0", "150.0"), ("pico_radius_m", "40.0", "100.0")]
    if forced:
        edits += [("max_superframes", "25", "60"), ("epsilon_converge", "0.02", "1e-9")]
    for key, shipped, edited in edits:
        if f"{key} = {shipped}" not in text:
            raise SystemExit(f"fig7_like.scenario has no line '{key} = {shipped}' to edit")
        text = text.replace(f"{key} = {shipped}", f"{key} = {edited}")
    return text


def run_grid(text: str, powers, modes) -> list[str]:
    """One line per run of the grid that raised ``NetOptError``."""
    scenario = parse_scenario(text, path="fig7_like.scenario")
    failures = []
    for power in powers:
        swept = with_param(scenario, "p_pico_dbm", power)
        for seed in SEEDS:
            for mode in modes:
                try:
                    run_experiment(swept, mode, seed)
                except NetOptError as error:
                    failures.append(f"  {power:g} dBm, seed {seed}, {mode}: {error}")
    return failures


def main() -> int:
    grids = [
        ("reuse, shipped settings", layout_text(True, False), SHIPPED_POWERS, SHIPPED_MODES),
        ("fig7_like, forced", layout_text(False, True), FORCED_POWERS, FORCED_MODES),
        ("reuse, forced", layout_text(True, True), FORCED_POWERS, FORCED_MODES),
    ]
    for name, text, powers, modes in grids:
        failures = run_grid(text, powers, modes)
        runs = len(powers) * len(SEEDS) * len(modes)
        print(f"{name}: {len(failures)} of {runs} runs exit 5", flush=True)
        for line in failures:
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
