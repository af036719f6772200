"""Print sha256 digests of the outputs that a refactor must keep bit for bit.

  run_all    the 116 check results of run_all at 10^3 and 10^4 samples with
             seeds 42 and 7: suite, check, sample count and max_residual as
             float.hex, one line per check
  fixtures   the file that write_fixtures makes of generate_fixtures(700, seed=3)
  help       the --help text of the CLI and of each of its subcommands

Run it on two source trees and compare the lines; it needs only the standard
library and the package (and numpy, which the package imports).

usage: python tools/same_bits.py [SRC_DIR]   (default: the src/ beside tools/)
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path


def run_all_text(spinorspace) -> str:
    lines = []
    for samples in (1000, 10000):
        for seed in (42, 7):
            for report in spinorspace.run_all(samples, seed):
                lines += [f"{report.suite} {c.name} {c.samples} {c.max_residual.hex()}\n"
                          for c in report.checks]
    return "".join(lines)


def fixtures_bytes(spinorspace) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fixtures.jsonl"
        spinorspace.write_fixtures(spinorspace.generate_fixtures(700, seed=3), path)
        return path.read_bytes()


def help_text(cli) -> str:
    subcommands = next(a.choices for a in cli.build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
    texts = []
    for argv in [["--help"]] + [[name, "--help"] for name in subcommands]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.suppress(SystemExit):
            cli.main(argv)
        texts.append(out.getvalue())
    return "".join(texts)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    src = Path(args[0]) if args else Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src.resolve()))
    os.environ["COLUMNS"] = "80"  # argparse wraps help text to the terminal width
    import spinorspace
    from spinorspace import cli

    outputs = {"run_all": run_all_text(spinorspace).encode(),
               "fixtures": fixtures_bytes(spinorspace),
               "help": help_text(cli).encode()}
    print(f"package  {Path(spinorspace.__file__).parent}")
    for name, data in outputs.items():
        print(f"{name:8s} {hashlib.sha256(data).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
