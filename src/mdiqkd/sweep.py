"""Parameter sweeps over the estimation pipeline and table emission.

A sweep evaluates the full chain (POVM -> yields -> estimation -> key
rate) over a grid, either against transmission loss at fixed side-channel
budgets, or against system frequency with the side-channel weight tied to
frequency through a lg-linear map. The tomography matrices of all
modulation errors are built once per table, as one stack, and the chain
runs over the rows of the table in even batches of at most BATCH_ROWS,
one batch for most tables; a row whose estimation fails becomes an error
row of the table.
Output is a deterministic CSV or JSON-lines table: identical configs
produce byte-identical files, floats are printed with 12 significant
digits, and a summary block records the per-curve positive-rate cutoff.
"""

import json
import math
import operator
import warnings
from dataclasses import dataclass, replace
from dataclasses import fields as dataclass_fields
from typing import NamedTuple

import numpy as np

from .channel import (
    ChannelParams,
    YieldTable,
    reference_yields,
    transmission_rates_grid,
)
from .estimator import (
    DEFAULT_COND_CEILING,
    EstimationInputs,
    NoSignalError,
    SideChannelParams,
    build_estimation_stack,
    estimate,
)
from .gbound import real
from .pauli_core import SETTINGS, ModulationErrors, make_reference_state

__all__ = [
    "LossRange",
    "FrequencyRange",
    "SweepConfig",
    "KeyRatePoint",
    "load_config",
    "run_loss_sweep",
    "run_frequency_sweep",
    "emit_table",
    "curve_summaries",
]

# the most rows one table may hold; every row stays in memory until emission
MAX_TABLE_ROWS = 1_000_000
# the most rows one estimate call takes: the chain's (rows, 9) float64
# temporaries then stay below glibc's 128 KiB mmap threshold and reuse heap
# memory. One 1950-row call faulted in 353 fresh pages and took ~25% longer
# than two 975-row calls.
BATCH_ROWS = 128 * 1024 // (9 * 8)


def _grid_size(start, stop, step):
    """Number of grid points start, start + step, ... <= stop, validated."""
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError("grid start, stop and step must be finite")
    if step <= 0.0 or stop < start:
        raise ValueError("need stop >= start and step > 0")
    span = (stop - start) / step + 1e-9
    if not span < MAX_TABLE_ROWS:
        raise ValueError(f"grid exceeds {MAX_TABLE_ROWS} points")
    return int(math.floor(span)) + 1


def _grid(start, stop, step):
    """The validated grid start + k * step, k = 0, 1, ..., up to stop."""
    return [start + k * step for k in range(_grid_size(start, stop, step))]


@dataclass(frozen=True, slots=True)
class LossRange:
    start: float = 0.0
    stop: float = 12.0
    step: float = 0.1

    def __post_init__(self):
        for name in ("start", "stop", "step"):
            real(getattr(self, name), f"loss {name}")
        _grid_size(self.start, self.stop, self.step)
        if self.start < 0.0:
            raise ValueError("loss grid must start at >= 0 dB")

    def values(self):
        return _grid(self.start, self.stop, self.step)


@dataclass(frozen=True, slots=True)
class FrequencyRange:
    """Frequency grid plus the lg-linear side-channel map.

    loss_db has no default: a frequency sweep is only meaningful at a
    stated fixed loss. The map anchors pin lg(eps) at two frequencies and
    interpolate linearly in f.
    """

    start_ghz: float = 0.1
    stop_ghz: float = 4.0
    step_ghz: float = 0.05
    loss_db: float = None
    anchor_low: tuple = (0.1, -9.0)   # (f in GHz, lg eps)
    anchor_high: tuple = (4.0, -6.0)

    def __post_init__(self):
        for name in ("start_ghz", "stop_ghz", "step_ghz"):
            real(getattr(self, name), name)
        for value in (*self.anchor_low, *self.anchor_high):
            real(value, "map anchor")
        if self.loss_db is not None:
            real(self.loss_db, "loss_db")
        n = _grid_size(self.start_ghz, self.stop_ghz, self.step_ghz)
        if self.start_ghz <= 0.0:
            raise ValueError("frequencies must be positive")
        if not all(math.isfinite(v) for v in (*self.anchor_low, *self.anchor_high)):
            raise ValueError("map anchors must be finite")
        if self.anchor_low[0] >= self.anchor_high[0]:
            raise ValueError("map anchors must have increasing frequency")
        # lg eps is linear in f, so the grid ends bound it on the whole grid;
        # the last end is values()[-1], computed without building the grid
        self.eps_at(self.start_ghz)
        self.eps_at(self.start_ghz + (n - 1) * self.step_ghz)

    def values(self):
        return _grid(self.start_ghz, self.stop_ghz, self.step_ghz)

    def eps_at(self, f_ghz):
        (f1, lg1), (f2, lg2) = self.anchor_low, self.anchor_high
        lg = lg1 + (f_ghz - f1) * (lg2 - lg1) / (f2 - f1)
        if not lg <= 0.0:
            raise ValueError(f"side-channel map gives eps = 10**{lg!r} > 1 at {f_ghz!r} GHz")
        return 10.0**lg


@dataclass(frozen=True, slots=True)
class SweepConfig:
    channel: ChannelParams = ChannelParams()
    eps_values: tuple = (1e-6,)
    delta_values: tuple = (0.0,)
    loss_range: LossRange = LossRange()
    frequency_range: FrequencyRange = FrequencyRange()
    f_ec: float = 1.16
    include_sifting: bool = False
    cond_ceiling: float = DEFAULT_COND_CEILING
    out_path: str = "sweep.csv"
    out_format: str = "csv"

    def __post_init__(self):
        if not self.eps_values or not self.delta_values:
            raise ValueError("eps and delta lists must be non-empty")
        for e in self.eps_values:
            if not 0.0 <= real(e, "eps") <= 1.0:
                raise ValueError("eps values must lie in [0, 1]")
        for d in self.delta_values:
            ModulationErrors(d, d, d)  # raises on a bad delta
        if not 1.0 <= real(self.f_ec, "f_ec") < math.inf:
            raise ValueError("f_ec must be finite and >= 1")
        if not isinstance(self.include_sifting, bool):
            raise ValueError("include_sifting must be true or false")
        if not 0.0 < real(self.cond_ceiling, "cond_ceiling") < math.inf:
            raise ValueError("cond_ceiling must be finite and > 0")
        if self.out_format not in ("csv", "json-lines"):
            raise ValueError("format must be csv or json-lines")
        fr = self.frequency_range
        if fr.loss_db is not None:
            replace(self.channel, loss_db=fr.loss_db)  # raises on a bad loss
        lr = self.loss_range
        loss_rows = (len(self.eps_values) * len(self.delta_values)
                     * _grid_size(lr.start, lr.stop, lr.step))
        frequency_rows = (len(self.delta_values)
                          * _grid_size(fr.start_ghz, fr.stop_ghz, fr.step_ghz))
        if max(loss_rows, frequency_rows) > MAX_TABLE_ROWS:
            raise ValueError(f"sweep table exceeds {MAX_TABLE_ROWS} rows")


class KeyRatePoint(NamedTuple):
    """One row of a sweep table; error is None unless estimation failed.

    An immutable named tuple: derive a changed row with _replace.
    """

    coordinate: float
    eps: float
    delta: float
    key_rate: float
    e_zz: float
    e_xx: float
    omega_ref_upper: float
    omega_upper: float
    zeta_obs: float
    cond_s: float
    key_per_second: float = None
    error: str = None


def _config_sections(raw):
    known = {"channel", "estimation", "sweep", "output"}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config sections: {sorted(unknown)}")


def _section(body, name, known):
    """A copy of the config mapping body at dotted path name; refuses keys outside known."""
    if not isinstance(body, dict):
        raise ValueError(f"config section {name} must be a mapping")
    unknown = sorted(set(body) - set(known))
    if unknown:
        raise ValueError("unknown config keys: " + ", ".join(f"{name}.{k}" for k in unknown))
    return dict(body)


def _field_names(cls):
    return [f.name for f in dataclass_fields(cls)]


def load_config(path=None, overrides=None):
    """Build a SweepConfig from an optional YAML file plus CLI overrides.

    File layout: channel / estimation / sweep / output sections; every
    field optional except frequency.loss_db, which must be present before
    a frequency sweep runs.
    """
    raw = {}
    if path is not None:
        import yaml

        with open(path) as fh:
            raw = yaml.safe_load(fh) or {}
        if not isinstance(raw, dict):
            raise ValueError("config root must be a mapping")
    _config_sections(raw)
    ch = _section(raw.get("channel", {}), "channel", _field_names(ChannelParams))
    est = _section(raw.get("estimation", {}), "estimation",
                   ("f_ec", "include_sifting", "cond_ceiling"))
    sw = _section(raw.get("sweep", {}), "sweep", ("eps", "delta", "loss", "frequency"))
    out = _section(raw.get("output", {}), "output", ("path", "format"))

    loss = _section(sw.get("loss", {}), "sweep.loss", _field_names(LossRange))
    freq = _section(sw.get("frequency", {}), "sweep.frequency", _field_names(FrequencyRange))
    anchors = {}
    if "anchor_low" in freq:
        anchors["anchor_low"] = tuple(freq.pop("anchor_low"))
    if "anchor_high" in freq:
        anchors["anchor_high"] = tuple(freq.pop("anchor_high"))

    # pass only the keys the file sets, so that SweepConfig's defaults apply
    fields = dict(est)
    fields.update({f"out_{k}": v for k, v in out.items()})
    for key, field in (("eps", "eps_values"), ("delta", "delta_values")):
        if key in sw:
            if not isinstance(sw[key], list):
                raise ValueError(f"sweep.{key} must be a list")
            # float() also rescues bare scientific notation, which YAML 1.1
            # parses as a string ("1e-7" lacks the mandated dot); a bool
            # stays one, for SweepConfig to refuse
            fields[field] = tuple(v if isinstance(v, bool) else float(v) for v in sw[key])

    config = SweepConfig(
        channel=ChannelParams(**ch),
        loss_range=LossRange(**loss),
        frequency_range=FrequencyRange(**freq, **anchors),
        **fields,
    )
    if overrides:
        config = _apply_overrides(config, overrides)
    return config


def _apply_overrides(config, overrides):
    fields = {}
    if overrides.get("eps") is not None:
        fields["eps_values"] = tuple(overrides["eps"])
    if overrides.get("delta") is not None:
        fields["delta_values"] = tuple(overrides["delta"])
    if overrides.get("out") is not None:
        fields["out_path"] = overrides["out"]
    if overrides.get("format") is not None:
        fields["out_format"] = overrides["format"]
    loss_keys = {k: overrides[k] for k in ("start", "stop", "step")
                 if overrides.get(k) is not None}
    if loss_keys:
        fields["loss_range"] = replace(config.loss_range, **loss_keys)
    return replace(config, **fields) if fields else config


_RESULT_FIELDS = ("key_rate", "e_zz", "e_xx", "omega_ref_upper", "omega_upper", "zeta_obs")


def _evaluate(config, rates, eps):
    """Estimate every row of a table.

    rates: transmission rates of shape (n_points, 9), or (1, 9) shared by
    all points; eps: side-channel weights of shape (n_curves, n_points).
    The tomography matrices of every distinct delta are built once per
    table, as one stack. Returns (deltas, cond_s, outcomes): the distinct
    deltas, cond(S) of each, and one outcome per row, curve outermost,
    then distinct delta, then point. An outcome is a tuple of the
    _RESULT_FIELDS values, or the message of the error that row raises in
    the scalar chain; a refused reference set gives every row of its
    delta the message. The other rows go to estimate in even batches of
    at most BATCH_ROWS, so a table of up to BATCH_ROWS rows takes one call.
    """
    deltas = list(dict.fromkeys(config.delta_values))
    modulations = [ModulationErrors(d, d, d) for d in deltas]
    refs = [[make_reference_state(s, m) for s in SETTINGS] for m in modulations]
    setup, errors = build_estimation_stack(refs, refs, config.cond_ceiling)
    n_curves, n_points = eps.shape
    outcomes = [None if err is None else str(err)
                for err in errors for _ in range(n_points)] * n_curves
    # the rows of the accepted deltas; rows[i] is the place of row i in outcomes
    grid = (n_curves, len(deltas), n_points)
    accepted = np.array([err is None for err in errors])
    rows = np.arange(len(outcomes)).reshape(grid)[:, accepted].reshape(-1)
    yields = reference_yields(setup.s_matrix, rates).y  # (n_deltas, n_points or 1, 9)
    yields = np.broadcast_to(yields, grid + (9,))[:, accepted].reshape(-1, 9)
    f_obj = np.broadcast_to(setup.f_obj[:, None], grid + (9,))[:, accepted].reshape(-1, 9)
    eps = np.broadcast_to(eps[:, None], grid)[:, accepted].reshape(-1)
    n_batches = max(1, -(-rows.size // BATCH_ROWS))
    for batch in zip(*(np.array_split(a, n_batches) for a in (rows, yields, eps, f_obj))):
        _estimate_batch(config, outcomes, *batch)
    return deltas, setup.cond_s.tolist(), outcomes


def _estimate_batch(config, outcomes, rows, yields, eps, f_obj):
    """Store the outcome of batch row i at rows[i] in outcomes.

    A NoSignalError names the rows without signal; they leave the batch
    and the rest runs again, so a batch costs one estimate call plus one
    per distinct failing check.
    """
    sifting = config.channel.p_za * config.channel.p_zb if config.include_sifting else None
    while rows.size:
        inputs = EstimationInputs(YieldTable(yields), SideChannelParams.uniform(eps), f_obj)
        try:
            result = estimate(inputs, f_ec=config.f_ec, sifting_prefactor=sifting)
        except NoSignalError as exc:
            for i in rows[exc.rows].tolist():
                outcomes[i] = str(exc)
            keep = ~exc.rows
            rows, yields, eps, f_obj = rows[keep], yields[keep], eps[keep], f_obj[keep]
            continue
        values = zip(*(getattr(result, name).tolist() for name in _RESULT_FIELDS))
        for i, value in zip(rows.tolist(), values):
            outcomes[i] = value
        break


def _row(coordinate, eps_value, delta, cond, outcome, per_second):
    """The KeyRatePoint of one outcome of _evaluate."""
    if isinstance(outcome, str):
        nan = math.nan
        return KeyRatePoint(coordinate, eps_value, delta, nan, nan, nan, nan, nan,
                            nan, nan, nan if per_second else None, outcome)
    # positional, in field order: the _RESULT_FIELDS follow delta
    return KeyRatePoint(coordinate, eps_value, delta, *outcome, cond,
                        outcome[0] * coordinate * 1e9 if per_second else None)


def _sweep_rows(config, coordinates, eps, rates, per_second):
    """Rows of every curve, eps outermost, then delta, then the coordinate.

    eps has shape (n_curves, len(coordinates)); rates as _evaluate takes them.
    """
    deltas, cond, outcomes = _evaluate(config, rates, eps)
    n = len(coordinates)
    rows = []
    for i, eps_row in enumerate(eps.tolist()):
        for delta in config.delta_values:
            k = deltas.index(delta)
            first = (i * len(deltas) + k) * n
            rows += [_row(c, e, delta, cond[k], outcome, per_second)
                     for c, e, outcome in zip(coordinates, eps_row, outcomes[first:first + n])]
    return rows


def run_loss_sweep(config):
    """Key-rate rows over the loss grid for every (eps, delta) combination."""
    losses = config.loss_range.values()
    rates = transmission_rates_grid(config.channel, losses)
    eps = np.repeat(np.array(config.eps_values, dtype=float)[:, None], len(losses), axis=1)
    return _sweep_rows(config, losses, eps, rates, per_second=False)


def run_frequency_sweep(config):
    """Per-second key-rate rows over the frequency grid at fixed loss."""
    fr = config.frequency_range
    if fr.loss_db is None:
        raise ValueError("frequency sweep requires sweep.frequency.loss_db")
    freqs = fr.values()
    eps = np.array([[fr.eps_at(f) for f in freqs]])
    rates = transmission_rates_grid(config.channel, [fr.loss_db])
    return _sweep_rows(config, freqs, eps, rates, per_second=True)


def _frequency_axis(points):
    """True for the rows of a frequency sweep, the only ones with key_per_second."""
    return any(p.key_per_second is not None for p in points)


def curve_summaries(points):
    """Positive-rate cutoff per curve along the scan axis.

    Loss tables carry one curve per (eps, delta) combination; frequency
    tables tie eps to the coordinate, so a curve is one delta. The cutoff
    is the largest coordinate with key_rate > 0. A curve that returns to
    positive rate after a zero would make that notion ill-defined; such
    revival is flagged (and is loudly surprising).
    """
    frequency_axis = _frequency_axis(points)
    curves = {}
    for pt in points:
        key = (pt.delta,) if frequency_axis else (pt.eps, pt.delta)
        curves.setdefault(key, []).append(pt)
    summaries = []
    for key, pts in sorted(curves.items()):
        pts = sorted(pts, key=operator.attrgetter("coordinate"))
        positive = [i for i, p in enumerate(pts) if p.error is None and p.key_rate > 0.0]
        cutoff = pts[positive[-1]].coordinate if positive else None
        # a curve revives if a non-positive point lies between two positive ones
        revival = bool(positive) and positive[-1] - positive[0] >= len(positive)
        summary = dict(zip(("delta",) if frequency_axis else ("eps", "delta"), key))
        if revival:
            label = ", ".join(f"{k}={v}" for k, v in summary.items())
            warnings.warn(
                f"rate revival on curve {label}; cutoff is not trustworthy"
            )
        summary.update(cutoff=cutoff, revival=revival)
        summaries.append(summary)
    return summaries


def _csv_quote(text):
    if any(ch in text for ch in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _fmt_json(value):
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.12g}"


def _validate_point(p):
    # emission is the last line of defense: a row that slipped past the
    # estimator with impossible diagnostics must not reach a table
    if p.error is not None:
        return
    # the first four also refuse nan: only an error row may carry it, as
    # JSON-lines spells nan null and the row template cannot
    checks = (
        p.coordinate >= 0.0,
        0.0 <= p.eps <= 1.0,
        abs(p.delta) < math.pi / 2,
        p.key_per_second is None or p.key_per_second >= 0.0,
        p.key_rate >= 0.0,
        0.0 <= p.e_zz <= 1.0,
        0.0 <= p.e_xx <= 1.0,
        p.omega_ref_upper >= 0.0,
        0.0 <= p.omega_upper <= 1.0,
        p.zeta_obs > 0.0,
        p.cond_s >= 1.0,
    )
    if not all(checks):
        raise ValueError(f"invalid diagnostics in row at coordinate {p.coordinate!r}")


def _columns(points):
    cols = ["coordinate", "eps", "delta", "key_rate"]
    if _frequency_axis(points):
        cols.append("key_per_second")
    cols += ["e_zz", "e_xx", "omega_ref_upper", "omega_upper", "zeta_obs",
             "cond_s", "error"]
    return cols


def emit_table(points, path, out_format, summary=None):
    """Write rows (and an optional summary block) deterministically.

    The coordinate column is named loss_db, or frequency_ghz for the rows
    of a frequency sweep. CSV: one header line, one line per point, then
    '# summary ...' comment lines. JSON-lines: one object per point, then
    one summary object. Every number goes through one %.12g template per
    table, which prints the bytes of f"{value:.12g}".
    """
    if not points:
        raise ValueError("no points to emit")
    for p in points:
        _validate_point(p)
    cols = _columns(points)
    frequency_axis = "key_per_second" in cols
    if frequency_axis and any(p.key_per_second is None for p in points):
        raise ValueError("table mixes loss and frequency sweep rows")
    axis = "frequency_ghz" if frequency_axis else "loss_db"
    names = [axis if c == "coordinate" else c for c in cols]
    numbers = operator.attrgetter(*cols[:-1])  # every column but the error
    payloads = [", ".join(f'"{k}": {_fmt_json(v)}' for k, v in s.items())
                for s in summary or ()]
    lines = []
    if out_format == "csv":
        # a good row leaves the error cell empty
        template = ",".join(["%.12g"] * (len(cols) - 1)) + ","
        lines.append(",".join(names))
        for p in points:
            line = template % numbers(p)
            lines.append(line if p.error is None else line + _csv_quote(p.error))
        lines += ["# summary {" + payload + "}" for payload in payloads]
    elif out_format == "json-lines":
        template = "{" + "".join(f'"{n}": %.12g, ' for n in names[:-1]) + '"error": null}'
        for p in points:
            if p.error is None:
                lines.append(template % numbers(p))
                continue
            # an error row carries nan, which JSON spells null
            body = ", ".join(
                f'"{n}": {_fmt_json(getattr(p, c))}' for n, c in zip(names, cols)
            )
            lines.append("{" + body + "}")
        lines += ['{"summary": {' + payload + "}}" for payload in payloads]
    else:
        raise ValueError(f"unknown format {out_format!r}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path
