"""Workload definitions: the generated configs and the CLI invocations of one pass.

The benchmark writes its own config files from the templates below; the
program only ever receives those files.  The workload seed goes into the
``seed`` key and nowhere else, so it reaches only ``polar-check``, the one
pipeline that draws random policies.
"""

from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

# Values of the bundled configs at the commit that defined the benchmark,
# restated here so later edits to the bundled files do not move the
# workloads.  ``cuoco_liu`` raises k_max from 4 to 5.
CONFIGS = {
    "merton": {
        "problem": "merton",
        "p": "0.5",
        "r": "0.8",
        "b": "1.2",
        "sigma": "1",
        "T": "0.5",
        "x_max": "20",
        "a_min": "-1",
        "a_max": "1",
        "rho": "18",
        "c0": "8",
        "M": "4",
        "k_min": "1",
        "k_max": "5",
        "mode": "error",
    },
    "cuoco_liu": {
        "problem": "cuoco-liu",
        "p": "0.5",
        "r": "0.8",
        "R": "1",
        "b": "1.2",
        "sigma": "0.5",
        "T": "0.5",
        "x_max": "20",
        "iota": "0.5",
        "lambda_plus": "1",
        "lambda_minus": "1",
        "gamma_min": "-1",
        "gamma_max": "1",
        "rho": "18",
        "c0": "8",
        "M": "4",
        "k_min": "1",
        "k_max": "5",
        "mode": "gap",
    },
}


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``key`` names its output directory and its reference entry."""

    key: str
    config: str
    args: Tuple[str, ...]

    def argv(self, config_dir, out_dir):
        return [
            self.args[0],
            "--config",
            str(Path(config_dir) / f"{self.config}.cfg"),
            *self.args[1:],
            "--out",
            str(out_dir),
        ]


def _inv(key, config, *args):
    return Invocation(key=key, config=config, args=args)


WORKLOADS = {
    "ladder-merton": (
        _inv("convergence-error-merton", "merton", "convergence", "--mode", "error"),
        _inv("convergence-gap-merton", "merton", "convergence", "--mode", "gap"),
        _inv("bounds-merton", "merton", "bounds"),
    ),
    "ladder-cuoco": (
        _inv("convergence-gap-cuoco_liu", "cuoco_liu", "convergence", "--mode", "gap"),
    ),
    "certify": (
        _inv("gap-merton-k3", "merton", "gap", "--level", "3"),
        _inv("gap-cuoco_liu-k4", "cuoco_liu", "gap", "--level", "4"),
        _inv("polar-check-merton", "merton", "polar-check"),
        _inv("polar-check-cuoco_liu", "cuoco_liu", "polar-check"),
    ),
    "surface-dump": (
        _inv("solve-primal-merton-k5", "merton", "solve-primal", "--level", "5"),
        _inv("solve-dual-merton-k5", "merton", "solve-dual", "--level", "5"),
        _inv("solve-primal-merton-k6", "merton", "solve-primal", "--level", "6"),
        _inv("solve-dual-merton-k6", "merton", "solve-dual", "--level", "6"),
    ),
}

#: invocations whose outputs depend on the seed value, not only on its echo
SEEDED = frozenset(inv.key for inv in WORKLOADS["certify"] if inv.args[0] == "polar-check")


def config_text(name, seed):
    lines = [f"{key} = {value}" for key, value in CONFIGS[name].items()]
    lines.append(f"seed = {int(seed)}")
    return "\n".join(lines) + "\n"


def write_configs(workload, seed, config_dir):
    """Write the configs ``workload`` reads into ``config_dir``; return their paths."""
    names = sorted({inv.config for inv in WORKLOADS[workload]})
    paths = []
    for name in names:
        path = Path(config_dir) / f"{name}.cfg"
        path.write_text(config_text(name, seed), encoding="utf-8")
        paths.append(path)
    return paths
