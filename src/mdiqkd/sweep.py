"""Parameter sweeps over the estimation pipeline and table emission.

A sweep evaluates the full chain (POVM -> yields -> estimation -> key
rate) over a grid, either against transmission loss at fixed side-channel
budgets, or against system frequency with the side-channel weight tied to
frequency through a lg-linear map. Every input is checked once, where
the table is built: the config, the clamped yields and the stack's
cond(S) ceiling. The tomography matrices of all modulation errors are
built once per table, as one stack, and the estimator's unchecked core
runs over the rows of the table in even batches of at most BATCH_ROWS,
one call per batch and one batch for most tables; a row without signal,
or of a refused reference set, becomes an error row of the table. A
table stays columns (SweepTable) from the estimate to the file: the command line summarises, checks and writes it without
building a row. Only library callers get rows: run_loss_sweep and
run_frequency_sweep build them from the table in one pass, and
curve_summaries and emit_table read the rows they are given back into
one table, so each stage has one implementation.
Output is a deterministic CSV or JSON-lines table: identical configs
produce byte-identical files, floats are printed with 12 significant
digits, and a summary block records the per-curve positive-rate cutoff.
"""

import math
import operator
import warnings
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import _g12
from .channel import ChannelParams, reference_yields, transmission_rates_grid
from .estimator import DEFAULT_COND_CEILING, NO_SIGNAL, _estimate_core, build_estimation_stack
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
# the most rows one core call takes: the chain's (rows, 9) float64
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
        anchors = (*self.anchor_low, *self.anchor_high)
        if not all(math.isfinite(real(v, "map anchor")) for v in anchors):
            raise ValueError("map anchors must be finite")
        if self.loss_db is not None and not 0.0 <= real(self.loss_db, "loss_db") < math.inf:
            raise ValueError(f"loss_db must be finite and >= 0, got {self.loss_db!r}")
        n = _grid_size(self.start_ghz, self.stop_ghz, self.step_ghz)
        if self.start_ghz <= 0.0:
            raise ValueError("frequencies must be positive")
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
        fr, lr = self.frequency_range, self.loss_range
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


def _numbers(value, key, shape, length=None):
    """A list of numbers as a tuple of floats; ValueError naming key and shape if not.

    A bool stays one, for the config objects to refuse.
    """
    if isinstance(value, (list, tuple)) and length in (None, len(value)):
        try:
            # float() also rescues 1e-7, which YAML 1.1 parses as a string (no dot)
            return tuple(v if isinstance(v, bool) else float(v) for v in value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{key} must be {shape}, got {value!r}")


def _float_list(value, key):
    return _numbers(value, key, "a list of numbers")


def _pair(value, key):
    return _numbers(value, key, "a [GHz, lg eps] pair", length=2)


# The config schema, one row per dotted key of a config file: the object
# the key builds, the field it sets, its parser (None: kept as it is), its
# override name (the command line's argparse dest; None if no flag sets
# it) and the only sweep axis that reads it (None: both do). A key that no
# sweep reads is not listed, so a file that sets one is refused.
CONFIG_KEYS = {
    "channel.eta_d": (ChannelParams, "eta_d", None, None, None),
    "channel.p_d": (ChannelParams, "p_d", None, None, None),
    "channel.e_d": (ChannelParams, "e_d", None, None, None),
    "channel.p_za": (ChannelParams, "p_za", None, None, None),
    "channel.p_zb": (ChannelParams, "p_zb", None, None, None),
    "estimation.f_ec": (SweepConfig, "f_ec", None, None, None),
    "estimation.include_sifting": (SweepConfig, "include_sifting", None, None, None),
    "estimation.cond_ceiling": (SweepConfig, "cond_ceiling", None, None, None),
    "sweep.eps": (SweepConfig, "eps_values", _float_list, "eps", "loss"),
    "sweep.delta": (SweepConfig, "delta_values", _float_list, "delta", None),
    "sweep.loss.start": (LossRange, "start", None, "start", "loss"),
    "sweep.loss.stop": (LossRange, "stop", None, "stop", "loss"),
    "sweep.loss.step": (LossRange, "step", None, "step", "loss"),
    "sweep.frequency.start_ghz": (FrequencyRange, "start_ghz", None, None, "frequency"),
    "sweep.frequency.stop_ghz": (FrequencyRange, "stop_ghz", None, None, "frequency"),
    "sweep.frequency.step_ghz": (FrequencyRange, "step_ghz", None, None, "frequency"),
    "sweep.frequency.loss_db": (FrequencyRange, "loss_db", None, None, "frequency"),
    "sweep.frequency.anchor_low": (FrequencyRange, "anchor_low", _pair, None, "frequency"),
    "sweep.frequency.anchor_high": (FrequencyRange, "anchor_high", _pair, None, "frequency"),
    "output.path": (SweepConfig, "out_path", None, "out", None),
    "output.format": (SweepConfig, "out_format", None, "format", None),
}
# (section, name) of every key and section a config file may hold; "" is the root
_NAMES = {(".".join(parts[:i]), parts[i])
          for parts in (key.split(".") for key in CONFIG_KEYS) for i in range(len(parts))}


def _collect(mapping, section, values):
    """Add the keys of the config mapping at dotted path section to values.

    Refuses a section that is no mapping or sets a key outside CONFIG_KEYS.
    """
    if not isinstance(mapping, dict):
        raise ValueError(f"config section {section} must be a mapping")
    unknown = sorted(name for name in mapping if (section, name) not in _NAMES)
    if unknown and not section:
        raise ValueError(f"unknown config sections: {unknown}")
    if unknown:
        raise ValueError("unknown config keys: " + ", ".join(f"{section}.{n}" for n in unknown))
    for name, value in mapping.items():
        key = f"{section}.{name}" if section else name
        if key in CONFIG_KEYS:
            values[key] = value
        else:
            _collect(value, key, values)


def load_config(path=None, overrides=None):
    """Build a SweepConfig from an optional YAML file plus overrides.

    The file sets keys of CONFIG_KEYS, every one optional. overrides maps
    override names to values (None: unset); they are laid over the file's
    keys before any value is parsed or checked. Each object is built once.
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
    values = {}
    _collect(raw, "", values)
    overrides = overrides or {}
    # pass only the keys that are set, so that the dataclass defaults apply
    fields = {ChannelParams: {}, LossRange: {}, FrequencyRange: {}, SweepConfig: {}}
    for key, (cls, field, parse, name, _) in CONFIG_KEYS.items():
        if name and overrides.get(name) is not None:
            values[key] = overrides[name]
        if key in values:
            fields[cls][field] = parse(values[key], key) if parse else values[key]
    return SweepConfig(channel=ChannelParams(**fields[ChannelParams]),
                       loss_range=LossRange(**fields[LossRange]),
                       frequency_range=FrequencyRange(**fields[FrequencyRange]),
                       **fields[SweepConfig])


# the core's result columns a row carries, in KeyRatePoint order after delta
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
    the estimator's core in even batches of at most BATCH_ROWS, so a
    table of up to BATCH_ROWS rows takes one call; each batch gathers its
    own yields, roots sqrt(1 - eps), f_obj and sign mask, so the inputs
    in memory grow with the batch, not the table.
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
    roots = np.sqrt(1.0 - eps)
    upper = setup.f_obj > 0.0  # the coefficients that take the upper deviation bound
    n_batches = max(1, -(-rows.size // BATCH_ROWS))
    for batch in np.array_split(rows, n_batches):
        curve, k, point = np.unravel_index(batch, grid)
        # a row's nine pairs share its eps, and so its root
        _estimate_batch(config, values, messages, batch, yields[k, point],
                        np.repeat(roots[curve, point, None], 9, axis=1),
                        setup.f_obj[k], upper[k])
    return deltas, setup.cond_s, values, messages


def _estimate_batch(config, values, messages, rows, yields, roots, f_obj, upper):
    """Store the results of batch row i in column rows[i] of values.

    One call of the estimator's unchecked core, whose inputs the table
    checked once: the yields by reference_yields' clamp, eps by the
    config and f_obj by the stack's ceiling. The rows without signal get
    NO_SIGNAL as their message and keep nan values.
    """
    sifting = config.channel.p_za * config.channel.p_zb if config.include_sifting else None
    columns, silent = _estimate_core(yields, roots, f_obj, upper, config.f_ec, sifting)
    values[:, rows] = columns
    if silent.any():
        failed = rows[silent]
        values[:, failed] = np.nan
        for i in failed.tolist():
            messages[i] = NO_SIGNAL


# the place of each KeyRatePoint field among a table's columns
_COLUMN = {name: i for i, name in enumerate(KeyRatePoint._fields)}


def _floats(column):
    """A column of numbers as a float array; None, as an error row may carry, reads nan."""
    return np.fromiter(column, dtype=float, count=len(column))


def _good_rows(errors):
    """Mask of the rows whose error is None."""
    if errors.count(None) == len(errors):  # ~10x faster than the general case
        return np.ones(len(errors), dtype=bool)
    return np.fromiter(map(operator.is_, errors, repeat(None)), dtype=bool, count=len(errors))


class SweepTable:
    """A sweep table as columns, from the estimate to the file.

    numbers: every KeyRatePoint field but the error as one (11, rows)
    float64 array, None read as nan, which the checks, the summaries and
    the writer read; errors: per row None or its error message;
    frequency_axis: True for a frequency table, the only one whose rows
    carry key_per_second; good: the mask of the rows whose error is
    None. A table read from rows keeps them, so that what it reports of
    a row (an error row's fields, a summary's labels and cutoff, the
    refused row's coordinate) is the value the row carries.
    """

    __slots__ = ("numbers", "errors", "frequency_axis", "good", "_points")

    def __init__(self, numbers, errors, frequency_axis, points=None):
        self.numbers = numbers
        self.errors = errors
        self.frequency_axis = frequency_axis
        self.good = _good_rows(errors)
        self._points = points

    @classmethod
    def of_rows(cls, points):
        """The table of a non-empty list of rows, transposed once."""
        columns = list(zip(*points))
        numbers = np.array([_floats(c) for c in columns[:-1]])
        frequency_axis = columns[_COLUMN["key_per_second"]].count(None) < len(points)
        return cls(numbers, columns[-1], frequency_axis, points)

    def rows(self):
        """The table as a list of KeyRatePoints, built in one pass."""
        columns = self.numbers.tolist()
        if not self.frequency_axis:
            columns[-1] = repeat(None)
        # tuple.__new__ skips the named tuple's Python-level __new__
        return list(map(tuple.__new__, repeat(KeyRatePoint), zip(*columns, self.errors)))

    def _values(self, fields, rows):
        """The values of the named fields at the given rows, one list per field."""
        places = [_COLUMN[f] for f in fields]
        if self._points is None:
            return self.numbers[np.ix_(places, rows)].tolist()
        points = [self._points[r] for r in rows.tolist()]
        return [[p[k] for p in points] for k in places]

    def check(self):
        """Refuse a table with an impossible good row.

        Emission is the last line of defense: a row that slipped past the
        estimator with impossible diagnostics must not reach a table. The
        checks run on the table's columns and name the first bad row in
        table order.
        """
        (coordinate, eps, delta, key_rate, e_zz, e_xx, omega_ref_upper, omega_upper,
         zeta_obs, cond_s, key_per_second) = self.numbers
        # every comparison fails on nan: only an error row may carry it, as
        # JSON-lines spells nan null and the digit kernel cannot
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
        if self.frequency_axis:
            valid &= key_per_second >= 0.0
        bad = np.flatnonzero(self.good & ~valid)
        if bad.size:
            coordinate = self._values(["coordinate"], bad[:1])[0][0]
            raise ValueError(f"invalid diagnostics in row at coordinate {coordinate!r}")

    def summaries(self):
        """Positive-rate cutoff per curve along the scan axis; see curve_summaries."""
        coordinate, eps, delta, key_rate = self.numbers[:4]
        labels = ("delta",) if self.frequency_axis else ("eps", "delta")
        keys = [delta] if self.frequency_axis else [eps, delta]
        rows = len(coordinate)
        # curves in label order, each sorted by coordinate; ties keep table order
        order = np.lexsort((coordinate, *keys[::-1]))
        new_curve = np.zeros(rows, dtype=bool)
        new_curve[0] = True
        for key in keys:
            key = key[order]
            new_curve[1:] |= key[1:] != key[:-1]
        starts = np.flatnonzero(new_curve)
        positive = (self.good & (key_rate > 0.0))[order]
        places = np.arange(rows)
        count = np.add.reduceat(positive.astype(np.intp), starts).tolist()
        first = np.minimum.reduceat(np.where(positive, places, rows), starts).tolist()
        last = np.maximum.reduceat(np.where(positive, places, -1), starts)
        # a curve is labelled by its first row in table order
        label_rows = np.minimum.reduceat(order, starts)
        label_values = zip(*self._values(labels, label_rows))
        [cutoffs] = self._values(["coordinate"], order[np.maximum(last, 0)])
        summaries = []
        for values, n_positive, first_positive, last_positive, cutoff in zip(
                label_values, count, first, last.tolist(), cutoffs):
            summary = dict(zip(labels, values))
            # a curve revives if a non-positive point lies between two positive ones
            revival = n_positive > 0 and last_positive - first_positive >= n_positive
            if revival:
                label = ", ".join(f"{k}={v}" for k, v in summary.items())
                warnings.warn(
                    f"rate revival on curve {label}; cutoff is not trustworthy"
                )
            summary.update(cutoff=cutoff if n_positive else None, revival=revival)
            summaries.append(summary)
        return summaries

    def write(self, path, out_format, summary=None):
        """Check the table, then write it (and an optional summary block); see emit_table."""
        self.check()
        fields = ["coordinate", "eps", "delta", "key_rate"]
        if self.frequency_axis:
            fields.append("key_per_second")
        fields += ["e_zz", "e_xx", "omega_ref_upper", "omega_upper", "zeta_obs", "cond_s"]
        names = ["frequency_ghz" if self.frequency_axis else "loss_db", *fields[1:]]
        payloads = [", ".join(f'"{k}": {_fmt_json(v)}' for k, v in s.items())
                    for s in summary or ()]
        if out_format == "csv":
            # a good row leaves the error cell empty
            prefixes = ["", *[","] * (len(fields) - 1)]
            suffix = ",\n"

            def error_line(row, error):
                # a library caller's error row may carry None, printed empty
                cells = ("" if v is None else "%.12g" % v for v in row)
                return ",".join(cells) + "," + _csv_quote(error)

            head = ",".join([*names, "error"]) + "\n"
            tail = "".join("# summary {" + payload + "}\n" for payload in payloads)
        elif out_format == "json-lines":
            prefixes = ["{" + f'"{names[0]}": ', *(f', "{n}": ' for n in names[1:])]
            suffix = ', "error": null}\n'

            def error_line(row, error):
                # an error row carries nan, which JSON spells null
                body = "".join(f'"{n}": {_fmt_json(v)}, ' for n, v in zip(names, row))
                return "{" + body + f'"error": {_fmt_json(error)}' + "}"

            head = ""
            tail = "".join('{"summary": {' + payload + "}}\n" for payload in payloads)
        else:
            raise ValueError(f"unknown format {out_format!r}")
        block = [self.numbers[_COLUMN[f]] for f in fields]
        chunks = _g12.print_rows(block, prefixes, suffix, keep=self.good)
        with open(path, "w", newline="\n") as fh:
            fh.write(head)
            for first, text in zip(range(0, len(self.errors), _g12.CHUNK_ROWS), chunks):
                failed = first + np.flatnonzero(~self.good[first:first + _g12.CHUNK_ROWS])
                if failed.size:
                    # the kernel printed the chunk's good rows; each error
                    # row goes into its place, printed field by field
                    lines = text.split("\n")[:-1]
                    for i, row in zip(failed.tolist(), zip(*self._values(fields, failed))):
                        lines.insert(i - first, error_line(row, self.errors[i]))
                    text = "\n".join(lines) + "\n"
                fh.write(text)
            fh.write(tail)
        return path


def _sweep_table(config, coordinates, eps_rows, rates, per_second):
    """The table of every curve, eps outermost, then delta, then the coordinate.

    eps_rows: per curve, the list of its eps at each coordinate; rates as
    _evaluate takes them.
    """
    eps = np.array(eps_rows)
    deltas, cond, values, messages = _evaluate(config, rates, eps)
    listed = config.delta_values
    n, n_curves = len(coordinates), len(eps_rows)
    # per block of n table rows, the place of its delta among the distinct ones
    block_delta = [deltas.index(d) for d in listed] * n_curves
    if len(deltas) < len(listed):
        # a delta listed twice repeats the rows of its first listing
        blocks = [i // len(listed) * len(deltas) + k for i, k in enumerate(block_delta)]
        take = (np.array(blocks)[:, None] * n + np.arange(n)).ravel()
        values = values[:, take]
        messages = [messages[i] for i in take.tolist()]
    # every column but the error, in KeyRatePoint field order
    numbers = np.empty((len(_COLUMN) - 1, len(messages)))
    numbers[0] = np.tile(coordinates, len(block_delta))
    numbers[1] = np.repeat(eps, len(listed), axis=0).ravel()
    numbers[2] = np.tile(np.repeat(np.array(listed, dtype=float), n), n_curves)
    numbers[3:9] = values
    numbers[9] = np.repeat(cond[block_delta], n)
    numbers[9, np.isnan(values[0])] = math.nan  # only the error rows carry nan
    numbers[10] = values[0] * numbers[0] * 1e9 if per_second else math.nan
    return SweepTable(numbers, messages, per_second)


def loss_table(config):
    """The key-rate table over the loss grid for every (eps, delta) combination."""
    losses = config.loss_range.values()
    rates = transmission_rates_grid(config.channel, losses)
    eps_rows = [[float(e)] * len(losses) for e in config.eps_values]
    return _sweep_table(config, losses, eps_rows, rates, per_second=False)


def frequency_table(config):
    """The per-second key-rate table over the frequency grid at fixed loss."""
    fr = config.frequency_range
    if fr.loss_db is None:
        raise ValueError("frequency sweep requires sweep.frequency.loss_db")
    freqs = fr.values()
    # Python's pow, not np.power: numpy's SIMD power is not libm and
    # differs in the last bit for about 5% of exponents
    eps_rows = [[fr.eps_at(f) for f in freqs]]
    rates = transmission_rates_grid(config.channel, [fr.loss_db])
    return _sweep_table(config, freqs, eps_rows, rates, per_second=True)


def run_loss_sweep(config):
    """Key-rate rows over the loss grid for every (eps, delta) combination."""
    return loss_table(config).rows()


def run_frequency_sweep(config):
    """Per-second key-rate rows over the frequency grid at fixed loss."""
    return frequency_table(config).rows()


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
    return SweepTable.of_rows(points).summaries()


def _csv_quote(text):
    if any(ch in text for ch in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _fmt_json(value):
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "null"
    if isinstance(value, str):
        import json  # only error messages need it; kept off the start-up path

        return json.dumps(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.12g}"


def emit_table(points, path, out_format, summary=None):
    """Write rows (and an optional summary block) deterministically.

    The coordinate column is named loss_db, or frequency_ghz for the rows
    of a frequency sweep, the only rows that carry key_per_second; a
    table that mixes the two is refused. CSV: one header line, one line
    per point, then '# summary ...' comment lines. JSON-lines: one object
    per point, then one summary object. Every good row is range-checked,
    as columns, before any is printed. A good row's numbers are printed
    by the digit kernel of mdiqkd._g12, which gives the bytes of
    f"{value:.12g}"; an error row is printed field by field.
    """
    if not points:
        raise ValueError("no points to emit")
    table = SweepTable.of_rows(points)
    if table.frequency_axis and any(p.key_per_second is None for p in points):
        raise ValueError("table mixes loss and frequency sweep rows")
    return table.write(path, out_format, summary)
