"""Print one experiment directory's results table, as README shows it:

    python experiments/summarize.py experiments/100x50

It reads only the committed configs and their ``report.txt`` files, and
the config names choose the table.  A protocol's configs are named
``<label>-r<ratio>``, and each is one row: the noise ratio and the
config's ``sigma``; the algorithm, with its ``alpha`` where the config sets
one; the ``min`` and ``median`` of the report's ``at_T:`` line; the
algorithm's worst-case threshold; ``c2`` of the ``fit min`` and ``fit
median`` lines; and the ``violation`` line's theorem, its bound at T over
the report's ``opt``, and its rate.

An instance family's configs are named ``<label>-s<seed>-r<ratio>``, and
each algorithm and ratio is one row over the instances: their number; the
min, median and max over them of the worst run at T (``at_T:``'s ``min``)
and of the gap from it to the median run; the instances whose worst run
is below the threshold; and the instance with the lowest worst run.  Rows
go by ratio, then by algorithm."""

import json
import math
import os
import re
import statistics
import sys

HEADER = ("| ratio (σ) | algorithm | worst at T | median at T | threshold | c2 min | c2 median "
          "| violation: theorem, bound at T / OPT, rate |\n"
          "| --- | --- | --- | --- | --- | --- | --- | --- |")
FAMILY_HEADER = ("| ratio | algorithm | instances | worst at T: min, median, max "
                 "| median − worst at T: min, median, max | threshold | below it "
                 "| lowest worst run |\n"
                 "| --- | --- | --- | --- | --- | --- | --- | --- |")
NAME = re.compile(r"(?P<label>.+?)(?:-s(?P<seed>\d+))?-r(?P<ratio>[0-9.]+)")


def _number(x, spec: str) -> str:
    """The number ``x`` (or its text) formatted by ``spec``, with a short
    exponent and a true minus."""
    return re.sub(r"e\+?(-?)0*(\d)", r"e\1\2", format(float(x), spec)).replace("-", "−")


def _fields(line: str) -> dict:
    """The ``key=value`` pairs after a report line's ``:``."""
    return dict(item.split("=", 1) for item in line.split(":", 1)[1].split())


def _threshold(algorithm: str) -> tuple:
    """The algorithm's worst-case level over OPT, and its text."""
    return (0.5, "1/2") if algorithm == "pga" else (1.0 - math.exp(-1.0), "1 − 1/e")


def _result(directory: str, name: str) -> dict:
    """What the table reads of the config ``name``: its name's parts, its
    config and its report's lines by kind."""
    with open(os.path.join(directory, name + ".json")) as fh:
        config = json.load(fh)
    with open(os.path.join(directory, name, "report.txt")) as fh:
        lines = {line.split(":", 1)[0]: line for line in fh.read().splitlines()}
    algorithm = config["algorithm"]
    if "momentum_rule" in config:
        algorithm += f", alpha {config['momentum_rule']['value']:g}"
    parts = NAME.fullmatch(name)
    at_t = _fields(lines["at_T"])
    return {"ratio": parts["ratio"], "seed": parts["seed"], "algorithm": algorithm,
            "config": config, "lines": lines, "threshold": _threshold(config["algorithm"]),
            "min": float(at_t["min"]), "median": float(at_t["median"])}


def _row(result: dict) -> str:
    """A protocol config's table row."""
    config, lines = result["config"], result["lines"]
    (kind, violation), = ((k, v) for k, v in lines.items() if k.startswith("violation "))
    bound = _fields(violation)
    opt = float(lines["opt"].split(":", 1)[1])
    cells = [f"{result['ratio']} ({config['noise']['sigma']:g})", result["algorithm"],
             _number(result["min"], ".4f"), _number(result["median"], ".4f"),
             result["threshold"][1],
             _number(_fields(lines["fit min"])["c2"], ".4f"),
             _number(_fields(lines["fit median"])["c2"], ".4f"),
             f"{kind.split()[1]}, {_number(float(bound['bound_at_T']) / opt, '.4g')}, "
             f"{_number(bound['rate'], 'g')}"]
    return "| " + " | ".join(cells) + " |"


def _spread(values) -> str:
    """The min, median and max of ``values``."""
    return ", ".join(_number(v, ".4f") for v in (min(values), statistics.median(values),
                                                 max(values)))


def _family_row(results: list) -> str:
    """One algorithm's row at one ratio, over the family's instances."""
    level, text = results[0]["threshold"]
    worst = [r["min"] for r in results]
    below = [f"s{r['seed']}" for r in sorted(results, key=lambda r: int(r["seed"]))
             if r["min"] < level]
    lowest = min(results, key=lambda r: r["min"])
    cells = [results[0]["ratio"], results[0]["algorithm"], str(len(results)), _spread(worst),
             _spread([r["median"] - r["min"] for r in results]), text,
             f"{len(below)}" + (f" ({', '.join(below)})" if below else ""),
             f"s{lowest['seed']} ({_number(lowest['min'], '.4f')})"]
    return "| " + " | ".join(cells) + " |"


def table(directory: str) -> str:
    """The markdown table of every config in ``directory``, header first."""
    names = [name[:-len(".json")] for name in os.listdir(directory) if name.endswith(".json")]
    results = sorted((_result(directory, name) for name in names),
                     key=lambda r: (float(r["ratio"]), r["algorithm"]))
    if not all(r["seed"] for r in results):
        return "\n".join([HEADER, *map(_row, results)])
    groups = {}
    for result in results:
        groups.setdefault((result["ratio"], result["algorithm"]), []).append(result)
    return "\n".join([FAMILY_HEADER, *map(_family_row, groups.values())])


if __name__ == "__main__":
    print(table(sys.argv[1]))
