"""Print the lines and tokens of each src/spinorspace module, and the total.

Tokens are counted with the standard tokenize module, leaving out NEWLINE,
NL, INDENT, DEDENT, COMMENT, ENCODING and ENDMARKER; lines are physical lines.

usage: python tools/src_size.py [PACKAGE_DIR]   (default: src/spinorspace)
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
           tokenize.COMMENT, tokenize.ENCODING, tokenize.ENDMARKER}


def size(path: Path) -> tuple:
    """(lines, tokens) of one Python source file."""
    with open(path, "rb") as handle:
        tokens = sum(t.type not in SKIPPED for t in tokenize.tokenize(handle.readline))
    return len(path.read_bytes().splitlines()), tokens


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    package = Path(args[0]) if args else Path(__file__).resolve().parents[1] / "src/spinorspace"
    total_lines = total_tokens = 0
    for path in sorted(package.glob("*.py")):
        lines, tokens = size(path)
        total_lines += lines
        total_tokens += tokens
        print(f"{path.stem:18s} {lines:6,d} lines {tokens:7,d} tokens")
    print(f"{'total':18s} {total_lines:6,d} lines {total_tokens:7,d} tokens")
    return 0


if __name__ == "__main__":
    sys.exit(main())
