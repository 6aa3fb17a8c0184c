"""Compare a rerun's ``report.txt`` with a committed one, number by number:

    python experiments/compare_report.py COMMITTED RERUN --rtol 1e-6

The two files must hold the same text once every number is set aside, and
each number of the rerun must lie within ``rtol`` of the committed one,
relative to the larger of the two in size.  A byte comparison would not do:
another numpy or BLAS may move the last bits of a battery.  Exits 0 when
they agree, and 1 with one line for each difference otherwise."""

import argparse
import math
import re
import sys

# a decimal or exponent float, or an inf or nan that is not part of a word
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                     r"|[-+]?(?<![A-Za-z_])(?:inf|nan)\b")


def differences(committed: str, rerun: str, rtol: float) -> list:
    """One line for each line whose text differs and each number that
    differs by more than ``rtol``, relative."""
    old_lines, new_lines = committed.splitlines(), rerun.splitlines()
    if len(old_lines) != len(new_lines):
        return [f"{len(new_lines)} lines, not {len(old_lines)}"]
    out = []
    for k, (old, new) in enumerate(zip(old_lines, new_lines), 1):
        if _NUMBER.split(old) != _NUMBER.split(new):
            out.append(f"line {k}: {new!r} is not {old!r}")
            continue
        for a, b in zip(map(float, _NUMBER.findall(old)), map(float, _NUMBER.findall(new))):
            if not (a == b or abs(a - b) <= rtol * max(abs(a), abs(b))):
                out.append(f"line {k}: {b!r} differs from {a!r} by more than {rtol:g} relative")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("committed")
    parser.add_argument("rerun")
    parser.add_argument("--rtol", type=float, required=True)
    args = parser.parse_args(argv)
    if not (math.isfinite(args.rtol) and args.rtol >= 0.0):
        parser.error("--rtol must be a finite number >= 0")
    with open(args.committed) as fh:
        committed = fh.read()
    with open(args.rerun) as fh:
        rerun = fh.read()
    found = differences(committed, rerun, args.rtol)
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
