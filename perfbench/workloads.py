"""Benchmark workloads: sweep configs generated from a workload seed.

The seed draws the eps values (log-uniform), the deltas (uniform in
[0, 0.2]) and a grid offset in [0, step); the program only ever sees the
generated YAML config. Every workload is closed loop: one sweep at a
time, in one process, with the default single worker.
"""

import random
from dataclasses import dataclass

# README / acceptance-suite detector and line parameters
CHANNEL = {"eta_d": 0.145, "p_d": 6.02e-6, "e_d": 0.015}
F_EC = 1.16
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    """One generated sweep plus the grid its table must reproduce."""

    name: str
    sweep: str          # "loss" or "frequency"
    out_format: str     # "csv" or "json-lines"
    eps_values: tuple   # loss sweeps; frequency sweeps derive eps per point
    delta_values: tuple
    start: float
    step: float
    n_points: int
    loss_db: float = None       # fixed loss of a frequency sweep
    anchor_low: tuple = None    # (GHz, lg eps) anchors of the frequency map
    anchor_high: tuple = None

    @property
    def coordinate_name(self):
        return "loss_db" if self.sweep == "loss" else "frequency_ghz"

    def coordinates(self):
        return [self.start + k * self.step for k in range(self.n_points)]

    def eps_at(self, f_ghz):
        (f1, lg1), (f2, lg2) = self.anchor_low, self.anchor_high
        return 10.0 ** (lg1 + (f_ghz - f1) * (lg2 - lg1) / (f2 - f1))

    def curves(self):
        """Curve labels in the order the summary block lists them."""
        if self.sweep == "frequency":
            return sorted((d,) for d in self.delta_values)
        return sorted((e, d) for e in self.eps_values for d in self.delta_values)

    def expected_rows(self):
        """(coordinate, eps, delta) per table row, in table order."""
        if self.sweep == "frequency":
            return [(f, self.eps_at(f), d)
                    for d in self.delta_values for f in self.coordinates()]
        return [(x, e, d) for e in self.eps_values for d in self.delta_values
                for x in self.coordinates()]

    def curve_of(self, row):
        _, eps, delta = row
        return (delta,) if self.sweep == "frequency" else (eps, delta)

    def config(self):
        """The YAML-ready config mapping handed to load_config."""
        stop = self.start + (self.n_points - 1) * self.step
        sweep = {"delta": list(self.delta_values)}
        if self.sweep == "loss":
            sweep["eps"] = list(self.eps_values)
            sweep["loss"] = {"start": self.start, "stop": stop, "step": self.step}
        else:
            sweep["frequency"] = {
                "start_ghz": self.start, "stop_ghz": stop, "step_ghz": self.step,
                "loss_db": self.loss_db,
                "anchor_low": list(self.anchor_low),
                "anchor_high": list(self.anchor_high),
            }
        return {
            "channel": dict(CHANNEL),
            "estimation": {"f_ec": F_EC},
            "sweep": sweep,
            "output": {"format": self.out_format},
        }

    def grid_sizes(self):
        return {"curves": len(self.curves()), "points_per_curve": self.n_points,
                "rows": len(self.expected_rows())}


def _log_uniform(rng, lg_low, lg_high):
    return 10.0 ** rng.uniform(lg_low, lg_high)


def _deltas(rng, n):
    return tuple(rng.uniform(0.0, 0.2) for _ in range(n))


def _loss_dense(rng):
    # long curves, few distinct (eps, delta): the most per-point
    # redundancy, where per-delta caching and loss batching gain most.
    # lg eps in [-7.3, -5.7] puts the positive-rate cutoffs inside 0-20 dB.
    step = 0.04
    return Workload(
        "loss_dense", "loss", "csv",
        eps_values=tuple(_log_uniform(rng, -7.3, -5.7) for _ in range(2)),
        delta_values=_deltas(rng, 2),
        start=rng.uniform(0.0, step), step=step, n_points=500,
    )


def _curves_short(rng):
    # many short curves: fixed per-curve cost, summaries and emission
    # dominate, so a loss-axis vectoriser gains least here; also the
    # JSON-lines table format. Cutoffs fall inside 0-12 dB.
    step = 1.0
    return Workload(
        "curves_short", "loss", "json-lines",
        eps_values=tuple(_log_uniform(rng, -6.6, -5.6) for _ in range(6)),
        delta_values=_deltas(rng, 16),
        start=rng.uniform(0.0, step), step=step, n_points=13,
    )


def _frequency_scan(rng):
    # constant loss, so every point has the same relay POVM (a POVM cache
    # gains, loss batching gains nothing), while eps changes at every
    # point so the bound work cannot be cached per curve. The anchors put
    # the rate cutoff between about 3 and 4 GHz.
    step = 0.004
    return Workload(
        "frequency_scan", "frequency", "csv",
        eps_values=(),
        delta_values=_deltas(rng, 2),
        start=0.1 + rng.uniform(0.0, step), step=step, n_points=975,
        loss_db=5.0,
        anchor_low=(0.1, rng.uniform(-9.5, -8.5)),
        anchor_high=(4.0, rng.uniform(-5.4, -4.8)),
    )


_BUILDERS = {
    "loss_dense": _loss_dense,
    "curves_short": _curves_short,
    "frequency_scan": _frequency_scan,
}
WORKLOADS = tuple(_BUILDERS)


def make(name, seed):
    """The workload `name` drawn from `seed`; equal seeds give equal workloads."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return _BUILDERS[name](random.Random(f"{name}/{seed}"))

