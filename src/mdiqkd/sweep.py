"""Parameter sweeps over the estimation pipeline and table emission.

A sweep evaluates the full chain (POVM -> yields -> estimation -> key
rate) over a grid, either against transmission loss at fixed side-channel
budgets, or against system frequency with the side-channel weight tied to
frequency through a lg-linear map. The tomography matrices of all
modulation errors are built once per table, as one stack, and the chain
runs over the rows of the table in even batches of at most BATCH_ROWS,
one batch for most tables; a row whose estimation fails becomes an error
row of the table. The results stay columns until every row is built in
one pass, and emission checks the rows as columns too.
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
from itertools import chain, repeat
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
# the most table lines emit_table joins into one write: ~40 KB of text,
# which also stays below the mmap threshold
WRITE_LINES = 256


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

        # libyaml's loader where PyYAML was built with it: the same
        # resolver as SafeLoader, so the same mapping, parsed 5-9x faster
        loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
        with open(path) as fh:
            raw = yaml.load(fh, Loader=loader) or {}
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


# the estimate results a row carries, in KeyRatePoint order after delta
_RESULT_FIELDS = KeyRatePoint._fields[3:9]


def _evaluate(config, rates, eps):
    """Estimate every row of a table, as columns.

    rates: transmission rates of shape (n_points, 9), or (1, 9) shared by
    all points; eps: side-channel weights of shape (n_curves, n_points).
    The tomography matrices of every distinct delta are built once per
    table, as one stack. Returns (deltas, cond_s, values, messages): the
    distinct deltas and cond(S) of each; values, of shape
    (len(_RESULT_FIELDS), rows), with one column per row, curve
    outermost, then distinct delta, then point; and messages, per row
    None or the message of the error that row raises in the scalar
    chain. Exactly the error rows keep nan values. A refused reference
    set gives every row of its delta the message. The other rows go to
    estimate in even batches of at most BATCH_ROWS, so a table of up to
    BATCH_ROWS rows takes one call; each batch gathers its own yields,
    eps and f_obj, so the inputs in memory grow with the batch, not the
    table.
    """
    deltas = list(dict.fromkeys(config.delta_values))
    modulations = [ModulationErrors(d, d, d) for d in deltas]
    refs = [[make_reference_state(s, m) for s in SETTINGS] for m in modulations]
    setup, errors = build_estimation_stack(refs, refs, config.cond_ceiling)
    n_curves, n_points = eps.shape
    messages = []
    for err in errors:
        messages += [None if err is None else str(err)] * n_points
    messages *= n_curves
    values = np.full((len(_RESULT_FIELDS), len(messages)), np.nan)
    # the places of the rows of the accepted deltas
    grid = (n_curves, len(deltas), n_points)
    accepted = np.array([err is None for err in errors])
    rows = np.arange(len(messages)).reshape(grid)[:, accepted].reshape(-1)
    yields = reference_yields(setup.s_matrix, rates).y  # (n_deltas, n_points or 1, 9)
    yields = np.broadcast_to(yields, grid[1:] + (9,))
    n_batches = max(1, -(-rows.size // BATCH_ROWS))
    for batch in np.array_split(rows, n_batches):
        curve, k, point = np.unravel_index(batch, grid)
        _estimate_batch(config, values, messages, batch,
                        yields[k, point], eps[curve, point], setup.f_obj[k])
    return deltas, setup.cond_s, values, messages


def _estimate_batch(config, values, messages, rows, yields, eps, f_obj):
    """Store the results of batch row i in column rows[i] of values.

    A NoSignalError names the rows without signal; they get its message
    and leave the batch, and the rest runs again, so a batch costs one
    estimate call plus one per distinct failing check.
    """
    sifting = config.channel.p_za * config.channel.p_zb if config.include_sifting else None
    while rows.size:
        inputs = EstimationInputs(YieldTable(yields), SideChannelParams.uniform(eps), f_obj)
        try:
            result = estimate(inputs, f_ec=config.f_ec, sifting_prefactor=sifting)
        except NoSignalError as exc:
            message = str(exc)
            for i in rows[exc.rows].tolist():
                messages[i] = message
            keep = ~exc.rows
            rows, yields, eps, f_obj = rows[keep], yields[keep], eps[keep], f_obj[keep]
            continue
        for j, name in enumerate(_RESULT_FIELDS):
            values[j, rows] = getattr(result, name)
        break


def _sweep_rows(config, coordinates, eps_rows, rates, per_second):
    """Rows of every curve, eps outermost, then delta, then the coordinate.

    eps_rows: per curve, the list of its eps at each coordinate; rates as
    _evaluate takes them. The table is built as columns, sharing the
    coordinate, eps and delta objects between rows, and zipped into
    KeyRatePoints in one pass.
    """
    deltas, cond, values, messages = _evaluate(config, rates, np.array(eps_rows))
    n, n_curves, rows = len(coordinates), len(eps_rows), len(messages)
    # cond(S) of each row, nan on the error rows; an object array, so that
    # the rows share one float per delta
    cond_s = np.repeat(np.array(cond.tolist() * n_curves, dtype=object), n)
    cond_s[np.isnan(values[0])] = math.nan
    if per_second:
        key_per_second = (values[0] * np.tile(coordinates, rows // n) * 1e9).tolist()
    else:
        key_per_second = [None] * rows
    results = [*values.tolist(), cond_s.tolist(), key_per_second, messages]
    del values, cond_s, key_per_second  # not held while the rows are built
    if len(deltas) < len(config.delta_values):
        # a delta listed twice repeats the rows of its first listing
        blocks = [i * len(deltas) + deltas.index(d)
                  for i in range(n_curves) for d in config.delta_values]
        results = [list(chain.from_iterable(c[b * n:(b + 1) * n] for b in blocks))
                   for c in results]
    eps_column, delta_block = [], []
    for row in eps_rows:
        eps_column += row * len(config.delta_values)
    for delta in config.delta_values:
        delta_block += [delta] * n
    columns = (coordinates * (n_curves * len(config.delta_values)), eps_column,
               delta_block * n_curves, *results)
    # tuple.__new__ skips the named tuple's Python-level __new__
    return list(map(tuple.__new__, repeat(KeyRatePoint), zip(*columns)))


def run_loss_sweep(config):
    """Key-rate rows over the loss grid for every (eps, delta) combination."""
    losses = config.loss_range.values()
    rates = transmission_rates_grid(config.channel, losses)
    eps_rows = [[float(e)] * len(losses) for e in config.eps_values]
    return _sweep_rows(config, losses, eps_rows, rates, per_second=False)


def run_frequency_sweep(config):
    """Per-second key-rate rows over the frequency grid at fixed loss."""
    fr = config.frequency_range
    if fr.loss_db is None:
        raise ValueError("frequency sweep requires sweep.frequency.loss_db")
    freqs = fr.values()
    # Python's pow, not np.power: numpy's SIMD power is not libm and
    # differs in the last bit for about 5% of exponents
    eps_rows = [[fr.eps_at(f) for f in freqs]]
    rates = transmission_rates_grid(config.channel, [fr.loss_db])
    return _sweep_rows(config, freqs, eps_rows, rates, per_second=True)


def _floats(column):
    """A column of numbers as a float array; None, as an error row may carry, reads nan."""
    return np.fromiter(column, dtype=float, count=len(column))


def _frequency_axis(key_per_second):
    """True for a frequency table, the only one whose rows carry key_per_second."""
    return any(map(operator.is_not, key_per_second, repeat(None)))


def _good_rows(errors):
    """Mask of the rows whose error is None."""
    if errors.count(None) == len(errors):  # ~10x faster than the general case
        return np.ones(len(errors), dtype=bool)
    return np.fromiter(map(operator.is_, errors, repeat(None)), dtype=bool, count=len(errors))


def curve_summaries(points):
    """Positive-rate cutoff per curve along the scan axis.

    Loss tables carry one curve per (eps, delta) combination; frequency
    tables tie eps to the coordinate, so a curve is one delta. The cutoff
    is the largest coordinate with key_rate > 0. A curve that returns to
    positive rate after a zero would make that notion ill-defined; such
    revival is flagged (and is loudly surprising).
    """
    if not points:
        return []
    coordinate, eps, delta, key_rate, *_, key_per_second, errors = zip(*points)
    labels = ("delta",) if _frequency_axis(key_per_second) else ("eps", "delta")
    keys = [_floats(delta)] if len(labels) == 1 else [_floats(eps), _floats(delta)]
    # curves in label order, each sorted by coordinate; ties keep table order
    order = np.lexsort((_floats(coordinate), *keys[::-1]))
    new_curve = np.zeros(len(points), dtype=bool)
    new_curve[0] = True
    for key in keys:
        key = key[order]
        new_curve[1:] |= key[1:] != key[:-1]
    starts = np.flatnonzero(new_curve)
    positive = (_good_rows(errors) & (_floats(key_rate) > 0.0))[order]
    places = np.arange(len(points))
    count = np.add.reduceat(positive.astype(np.intp), starts).tolist()
    first = np.minimum.reduceat(np.where(positive, places, len(points)), starts).tolist()
    last = np.maximum.reduceat(np.where(positive, places, -1), starts).tolist()
    # a curve is labelled by its first row in table order
    label_rows = np.minimum.reduceat(order, starts).tolist()
    summaries = []
    for row, n_positive, first_positive, last_positive in zip(label_rows, count, first, last):
        summary = {name: getattr(points[row], name) for name in labels}
        # a curve revives if a non-positive point lies between two positive ones
        revival = n_positive > 0 and last_positive - first_positive >= n_positive
        if revival:
            label = ", ".join(f"{k}={v}" for k, v in summary.items())
            warnings.warn(
                f"rate revival on curve {label}; cutoff is not trustworthy"
            )
        cutoff = coordinate[order[last_positive]] if n_positive else None
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


def _check_rows(points):
    """Refuse a table with an impossible good row; True for a frequency table.

    Emission is the last line of defense: a row that slipped past the
    estimator with impossible diagnostics must not reach a table. The
    checks run on the table's columns and name the first bad row in table
    order. Only a frequency table carries key_per_second, on every row.
    """
    *numbers, key_per_second, errors = zip(*points)
    (coordinate, eps, delta, key_rate, e_zz, e_xx, omega_ref_upper, omega_upper,
     zeta_obs, cond_s) = map(_floats, numbers)
    # every comparison fails on nan: only an error row may carry it, as
    # JSON-lines spells nan null and the row template cannot
    valid = (
        (coordinate >= 0.0)
        & (0.0 <= eps) & (eps <= 1.0)
        & (np.abs(delta) < math.pi / 2)
        & (key_rate >= 0.0)
        & (0.0 <= e_zz) & (e_zz <= 1.0)
        & (0.0 <= e_xx) & (e_xx <= 1.0)
        & (omega_ref_upper >= 0.0)
        & (0.0 <= omega_upper) & (omega_upper <= 1.0)
        & (zeta_obs > 0.0)
        & (cond_s >= 1.0)
    )
    missing = key_per_second.count(None)
    frequency_axis = missing < len(points)
    mixed = frequency_axis and missing > 0
    if frequency_axis:
        # a loss row in a frequency table passes here and is refused below
        valid &= _floats([0.0 if v is None else v for v in key_per_second]
                         if mixed else key_per_second) >= 0.0
    bad = np.flatnonzero(_good_rows(errors) & ~valid)
    if bad.size:
        raise ValueError("invalid diagnostics in row at coordinate "
                         f"{points[bad[0]].coordinate!r}")
    if mixed:
        raise ValueError("table mixes loss and frequency sweep rows")
    return frequency_axis


def emit_table(points, path, out_format, summary=None):
    """Write rows (and an optional summary block) deterministically.

    The coordinate column is named loss_db, or frequency_ghz for the rows
    of a frequency sweep. CSV: one header line, one line per point, then
    '# summary ...' comment lines. JSON-lines: one object per point, then
    one summary object. Every good row is range-checked, as columns,
    before any is printed. Every number goes through one %.12g template
    per table, which prints the bytes of f"{value:.12g}".
    """
    if not points:
        raise ValueError("no points to emit")
    frequency_axis = _check_rows(points)
    cols = ["coordinate", "eps", "delta", "key_rate"]
    if frequency_axis:
        cols.append("key_per_second")
    cols += ["e_zz", "e_xx", "omega_ref_upper", "omega_upper", "zeta_obs",
             "cond_s", "error"]
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
    # in chunks of WRITE_LINES lines: no copy of the whole table is built
    with open(path, "w", newline="\n") as fh:
        for start in range(0, len(lines), WRITE_LINES):
            fh.write("\n".join(lines[start:start + WRITE_LINES]) + "\n")
    return path
