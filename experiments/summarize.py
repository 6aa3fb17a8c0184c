"""Print one experiment directory's results table, as README shows it:

    python experiments/summarize.py experiments/10x5

It reads only the committed configs and their ``report.txt`` files.  A row
is one config, named ``<label>-r<ratio>``: the noise ratio and the config's
``sigma``; the algorithm, with its ``alpha`` where the config sets one; the
``min`` and ``median`` of the report's ``at_T:`` line; the algorithm's
worst-case threshold; ``c2`` of the ``fit min`` and ``fit median`` lines;
and the ``violation`` line's theorem, its bound at T over the report's
``opt``, and its rate.  Rows go by ratio, then by algorithm."""

import json
import os
import re
import sys

HEADER = ("| ratio (σ) | algorithm | worst at T | median at T | threshold | c2 min | c2 median "
          "| violation: theorem, bound at T / OPT, rate |\n"
          "| --- | --- | --- | --- | --- | --- | --- | --- |")


def _number(x, spec: str) -> str:
    """The number ``x`` (or its text) formatted by ``spec``, with a short
    exponent and a true minus."""
    return re.sub(r"e\+?(-?)0*(\d)", r"e\1\2", format(float(x), spec)).replace("-", "−")


def _fields(line: str) -> dict:
    """The ``key=value`` pairs after a report line's ``:``."""
    return dict(item.split("=", 1) for item in line.split(":", 1)[1].split())


def _row(directory: str, name: str) -> tuple:
    """The sort key and the table row of the config ``name``."""
    with open(os.path.join(directory, name + ".json")) as fh:
        config = json.load(fh)
    with open(os.path.join(directory, name, "report.txt")) as fh:
        lines = {line.split(":", 1)[0]: line for line in fh.read().splitlines()}
    ratio = name.rsplit("-r", 1)[1]
    algorithm = config["algorithm"]
    if "momentum_rule" in config:
        algorithm += f", alpha {config['momentum_rule']['value']:g}"
    at_t = _fields(lines["at_T"])
    (kind, violation), = ((k, v) for k, v in lines.items() if k.startswith("violation "))
    bound = _fields(violation)
    opt = float(lines["opt"].split(":", 1)[1])
    cells = [f"{ratio} ({config['noise']['sigma']:g})", algorithm,
             _number(at_t["min"], ".4f"), _number(at_t["median"], ".4f"),
             "1/2" if config["algorithm"] == "pga" else "1 − 1/e",
             _number(_fields(lines["fit min"])["c2"], ".4f"),
             _number(_fields(lines["fit median"])["c2"], ".4f"),
             f"{kind.split()[1]}, {_number(float(bound['bound_at_T']) / opt, '.4g')}, "
             f"{_number(bound['rate'], 'g')}"]
    return (float(ratio), algorithm), "| " + " | ".join(cells) + " |"


def table(directory: str) -> str:
    """The markdown table of every config in ``directory``, header first."""
    names = [name[:-len(".json")] for name in os.listdir(directory) if name.endswith(".json")]
    return "\n".join([HEADER, *(row for _, row in sorted(_row(directory, n) for n in names))])


if __name__ == "__main__":
    print(table(sys.argv[1]))
