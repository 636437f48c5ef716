#!/usr/bin/env python3
"""Run the two reference experiments at full scale and write their CSVs.

Produces:
  <out-dir>/success_vs_distance.csv   5 scenario curves over 120 distances,
                                      mean devices 1500, cell radius 12 km
  <out-dir>/coverage_vs_density.csv   coverage over 30 log-spaced mean device
                                      counts in [1, 3000]

Both default to 10^5 realizations per point; ``--realizations 10000`` gives
the command line's fast desk-scale run.
Each file is what ``lora-reliability sweep-distance`` / ``sweep-density``
writes for the same seed and realization count, byte for byte.  --threads
goes to both commands: ``sweep-distance`` runs on that many threads and
``sweep-density`` on that many processes, at most one per CPU and one
where the platform has no ``fork``; neither changes a byte.
Plot with any CSV tool; columns are documented in the README.
"""

import argparse
import pathlib
import sys
import time

from lora_reliability import cli

SWEEPS = (
    ("sweep-distance", "success_vs_distance.csv"),
    ("sweep-density", "coverage_vs_density.csv"),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results", help="output directory")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--realizations", type=cli._positive_int, default=100_000)
    parser.add_argument("--threads", type=cli._positive_int, default=1)
    args = parser.parse_args(argv)

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    flags = ["--seed", str(args.seed), "--realizations", str(args.realizations)]
    flags += ["--threads", str(args.threads)]
    for command, name in SWEEPS:
        path = out_dir / name
        cmd = [command, *flags, "--out", str(path)]
        start = time.perf_counter()
        code = cli.main(cmd)
        if code != 0:
            return code
        print(f"wrote {path} ({time.perf_counter() - start:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
