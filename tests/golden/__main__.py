"""``python -m tests.golden --regen``: rewrite the golden digests and
print which fields moved in which cell (run from the repo root with
``PYTHONPATH=src``)."""

import argparse
import sys

from tests.golden import DIGESTS, regen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.golden")
    parser.add_argument("--regen", action="store_true",
                        help=f"recompute every cell and rewrite {DIGESTS.name}")
    args = parser.parse_args(argv)
    if not args.regen:
        parser.print_help()
        return 2
    changes = regen()
    for cell, fields in changes.items():
        print(f"{cell}: {', '.join(fields)}")
    print(f"{len(changes)} cell(s) moved; wrote {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
