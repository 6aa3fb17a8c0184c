"""Run ``run``, ``bounds`` and ``report`` on every config of one experiment
directory, in name order, from the repository root:

    PYTHONPATH=src python experiments/run_configs.py experiments/10x5

It writes ``times.tsv`` (each command's wall time in seconds and its exit
code) and ``battery.sha256`` (``sha256sum -c`` reads it) into that
directory.  A config whose command fails is recorded and skipped; the
others still run."""

import hashlib
import os
import subprocess
import sys
import time


def main(directory: str) -> int:
    configs = sorted(name for name in os.listdir(directory) if name.endswith(".json"))
    rows, sums, failed = ["config\trun_s\tbounds_s\treport_s\texit"], [], 0
    for name in configs:
        path = os.path.join(directory, name)
        times, code = [], 0
        for command in ("run", "bounds", "report"):
            started = time.perf_counter()
            code = subprocess.call([sys.executable, "-m", "drsubmax", command, "--config", path],
                                   stdout=subprocess.DEVNULL)
            times.append(f"{time.perf_counter() - started:.2f}")
            if code:
                break
        times += ["-"] * (3 - len(times))
        rows.append("\t".join([name[:-len(".json")], *times, str(code)]))
        failed += code != 0
        battery = os.path.join(directory, name[:-len(".json")], "battery.csv")
        if not code:
            with open(battery, "rb") as fh:
                sums.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {battery}")
    with open(os.path.join(directory, "times.tsv"), "w") as fh:
        fh.write("\n".join(rows) + "\n")
    with open(os.path.join(directory, "battery.sha256"), "w") as fh:
        fh.write("\n".join(sums) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
