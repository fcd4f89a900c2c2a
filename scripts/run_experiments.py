#!/usr/bin/env python3
"""Run the full experiment battery into results/.

For each config in scripts/configs/, emits the kernel and cardinal curves,
the three-way interpolation comparison with its error summary, the pointwise
error bound, and (for the half-rate configs) the Monte-Carlo MSE table.
Everything is seeded, so reruns reproduce the same files.

Each command runs in this process through ``bandlim.cli.main``, exactly as
``python -m bandlim.cli <command> ...`` would, so the library is imported
once; the first command that fails ends the run with its exit code.
"""

import sys
from pathlib import Path

from bandlim.cli import main as cli_main

HERE = Path(__file__).resolve().parent
CONFIGS = sorted((HERE / "configs").glob("*.json"))
RESULTS = HERE.parent / "results"


def run(command, config, outdir):
    args = [command, "--config", str(config), "--output-dir", str(outdir)]
    print("$", "bandlim.cli", " ".join(args), flush=True)
    try:
        cli_main(args)
    except SystemExit as exc:
        if exc.code:
            sys.exit(exc.code)


def main():
    if not CONFIGS:
        sys.exit("no configs found")
    for config in CONFIGS:
        outdir = RESULTS / config.stem
        outdir.mkdir(parents=True, exist_ok=True)
        for command in ("kernel", "compare", "cardinals", "bounds"):
            run(command, config, outdir)
        if "half" in config.stem:
            run("mc", config, outdir)
    print(f"\nall outputs under {RESULTS}")


if __name__ == "__main__":
    main()
