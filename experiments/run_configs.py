"""Run ``run``, ``bounds`` and ``report`` on every config of one experiment
directory, in name order, from the repository root:

    PYTHONPATH=src python experiments/run_configs.py experiments/10x5-family

It prints each command's wall time in seconds and its exit code to stderr,
one line a command, and writes ``battery.sha256`` (``sha256sum -c`` reads
it) into that directory, one line for the ``battery.csv`` in each config's
``output_dir``, so a directory of configs that write elsewhere can be run
apart from the rest.  A config whose command fails is reported and skipped;
the others still run."""

import hashlib
import json
import os
import subprocess
import sys
import time


def main(directory: str) -> int:
    configs = sorted(name for name in os.listdir(directory) if name.endswith(".json"))
    sums, failed = [], 0
    for name in configs:
        path, stem = os.path.join(directory, name), name[:-len(".json")]
        for command in ("run", "bounds", "report"):
            started = time.perf_counter()
            code = subprocess.call([sys.executable, "-m", "drsubmax", command, "--config", path],
                                   stdout=subprocess.DEVNULL)
            print(f"{stem}\t{command}\t{time.perf_counter() - started:.2f} s"
                  f"\texit {code}", file=sys.stderr)
            if code:
                break
        failed += code != 0
        if not code:
            with open(path) as fh:
                battery = os.path.join(json.load(fh)["output_dir"], "battery.csv")
            with open(battery, "rb") as fh:
                sums.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {battery}")
    with open(os.path.join(directory, "battery.sha256"), "w") as fh:
        fh.write("\n".join(sums) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
