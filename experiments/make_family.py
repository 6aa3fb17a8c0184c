"""Write the configs of an instance family from its spec, from the
repository root:

    PYTHONPATH=src python experiments/make_family.py experiments/10x5-family.json

The spec holds the ``problem`` entry without its ``seed``, the instance
``seeds``, the noise ``ratios`` and ``noise`` kind, the ``trial`` settings
every config shares, and the ``algorithms`` by label, each with the config
keys of its own, its ``bounds`` included; an entry's own ``seeds``, a
subset of the spec's, name the instances it runs on, all of the spec's if
it names none.  One config is written for each label, each of its seeds
and each ratio, named ``<label>-s<seed>-r<ratio>``, into the directory
named like the spec without ``.json``, where ``run_configs.py`` and
``summarize.py`` read it.

An instance's noise deviation is ``sigma = r * ||grad f(0)|| / sqrt(n)``,
so its noise ratio ``sigma * sqrt(n) / ||grad f(0)||`` is ``r``.  Its
``opt`` is the exact optimum, ``NqpObjective.exact_opt``."""

import json
import math
import os
import sys

import numpy as np

from drsubmax.objectives import build_problem


def configs(spec: dict, directory: str,
            opt=lambda seed, objective: objective.exact_opt()) -> dict:
    """Every config of the family by name, each writing into ``directory``;
    ``opt(seed, objective)`` gives instance ``seed``'s ``opt``."""
    family = {}
    for seed in spec["seeds"]:
        entry = dict(spec["problem"])
        entry = {"kind": entry.pop("kind"), "seed": seed, **entry}
        objective = build_problem(entry)
        grad0_norm = float(np.linalg.norm(objective.grad(np.zeros(objective.dim))))
        value = opt(seed, objective)
        for label, own in spec["algorithms"].items():
            own = dict(own)
            algorithm, bounds = own.pop("algorithm"), own.pop("bounds")
            if seed not in own.pop("seeds", spec["seeds"]):
                continue
            for ratio in spec["ratios"]:
                name = f"{label}-s{seed}-r{ratio:g}"
                sigma = ratio * grad0_norm / math.sqrt(objective.dim)
                family[name] = {"problem": entry, "algorithm": algorithm, **spec["trial"], **own,
                                "noise": {"kind": spec["noise"], "sigma": sigma},
                                "opt": value, "bounds": bounds,
                                "output_dir": f"{directory}/{name}"}
    return family


def text(config: dict) -> str:
    """A config file's contents."""
    return json.dumps(config, indent=1) + "\n"


def main(spec_path: str) -> int:
    directory = spec_path[:-len(".json")]
    with open(spec_path) as fh:
        spec = json.load(fh)
    os.makedirs(directory, exist_ok=True)
    for name, config in configs(spec, directory).items():
        with open(os.path.join(directory, name + ".json"), "w") as fh:
            fh.write(text(config))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
