#!/usr/bin/env python3
"""Regenerate the reference profile that the sweep_1d workload loads.

    python3 perfbench/make_artifact.py

Runs ``biharm gn`` on the README config (d=1, n=512, half_width=16, four
restarts) with one BLAS thread and writes perfbench/data/gn_d1_n512.bhf and
.json.  The stored artifact spares every sweep run a ``compute_gn``, so a
change to the gn layer cannot move sweep_1d.  run.py checks its a* against
tests/fixtures/reference_d1.json at load time.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

from run import OUT, import_cli  # noqa: E402
from workloads import ARTIFACT, README_GN  # noqa: E402


def main() -> int:
    cli = import_cli()
    run_dir = OUT / "make_artifact"
    run_dir.mkdir(parents=True, exist_ok=True)
    cfg = run_dir / "config.json"
    cfg.write_text(json.dumps(README_GN))
    code = cli.main(["--config", str(cfg), "--output", str(run_dir), "gn"])
    if code != 0:
        return code
    ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    for suffix in (".bhf", ".json"):
        shutil.copyfile(run_dir / f"gn{suffix}", ARTIFACT.with_suffix(suffix))
    print(f"wrote {ARTIFACT}.bhf/.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
