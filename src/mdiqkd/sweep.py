"""Parameter sweeps over the estimation pipeline and table emission.

A sweep evaluates the full chain (POVM -> yields -> estimation -> key
rate) over a grid, either against transmission loss at fixed side-channel
budgets, or against system frequency with the side-channel weight tied to
frequency through a lg-linear map. Every input is checked once, where
the table is built: the config, the clamped yields and the stack's
cond(S) ceiling. The tomography matrices of the listed modulation errors
are built once per table, as one stack (a delta listed twice is simply
evaluated again). A table's numbers are one (curve, delta, point) grid,
which the estimator's chain fills in two stages, one call each: once
per (delta, point) without eps, then once per row at its eps; a row
without signal, or of a refused reference set, becomes an error row.
A table stays columns (SweepTable) from the estimate to the file: the
command line and library callers alike summarise, check and write it
without building a row; rows() gives its KeyRatePoints for iteration.
Output is a deterministic CSV or JSON-lines table: identical configs
produce byte-identical files under any BLAS kernel, as no number passes
through BLAS or LAPACK (libm remains: Python's pow for 10**lg and the arm
transmission, math.sin and math.cos for the reference states, numpy's
log2 for the entropy); floats are printed with 12 significant digits,
and a summary block records the per-curve positive-rate cutoff.
"""

import math
import operator
import warnings
from itertools import compress, repeat
from typing import NamedTuple

import numpy as np

from . import _g12, _yaml_subset
from .channel import ChannelParams, reference_yields, transmission_rates_grid
from .estimator import _SILENT_BELOW, NO_SIGNAL, _point_terms, _row_columns, _warn_of_clamp
from .gbound import Record, real
from .pauli_core import (DEFAULT_COND_CEILING, build_estimation_stack, check_delta,
                         reference_amplitudes)

__all__ = [
    "LossRange",
    "FrequencyRange",
    "SweepConfig",
    "KeyRatePoint",
    "SweepTable",
    "load_config",
    "loss_table",
    "frequency_table",
]

# the most rows one table may hold; every row stays in memory until emission.
# Each stage of the chain takes the whole table in one call: a table of this
# many rows, whose numbers take 84 MiB, peaks at 155-375 MiB of arrays
# (tracemalloc): 155-173 MiB for 99-100 eps x 10000 losses, saturated rows
# included, as the per-pair form gathers one pair's column at a time, and
# 375 MiB for 100 deltas x 10000 losses, where the (delta, point, 9)
# temporaries of the yields and of the first stage set the upper end
MAX_TABLE_ROWS = 1_000_000


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


def _anchor(value, name):
    """A map anchor, a list or tuple of two values, as a tuple; ValueError naming it if not."""
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ValueError(f"{name} must be a [GHz, lg eps] pair, got {value!r}")
    return tuple(value)


class LossRange(Record):
    """Loss grid in dB: start, start + step, ..., up to stop."""

    __slots__ = ("start", "stop", "step")

    def __init__(self, start=0.0, stop=12.0, step=0.1):
        self.start = start
        self.stop = stop
        self.step = step
        for name in self.__slots__:
            real(getattr(self, name), f"loss {name}")
        _grid_size(self.start, self.stop, self.step)
        if self.start < 0.0:
            raise ValueError("loss grid must start at >= 0 dB")

    def values(self):
        return _grid(self.start, self.stop, self.step)


class FrequencyRange(Record):
    """Frequency grid plus the lg-linear side-channel map.

    loss_db has no default: a frequency sweep is only meaningful at a
    stated fixed loss. The map anchors pin lg(eps) at two frequencies and
    interpolate linearly in f.
    """

    __slots__ = ("start_ghz", "stop_ghz", "step_ghz", "loss_db", "anchor_low", "anchor_high")

    def __init__(self, start_ghz=0.1, stop_ghz=4.0, step_ghz=0.05, loss_db=None,
                 anchor_low=(0.1, -9.0), anchor_high=(4.0, -6.0)):
        self.start_ghz = start_ghz
        self.stop_ghz = stop_ghz
        self.step_ghz = step_ghz
        self.loss_db = loss_db
        # (f in GHz, lg eps), tuples, so that a range built from lists
        # compares and hashes by value
        self.anchor_low = _anchor(anchor_low, "anchor_low")
        self.anchor_high = _anchor(anchor_high, "anchor_high")
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

    def _lg_eps(self, f_ghz):
        """lg eps at f_ghz, unchecked: a float, or an array of the grid's values at once.

        One expression, so an array gives each entry the bits of a float:
        numpy runs the same IEEE operations in the same order.
        """
        (f1, lg1), (f2, lg2) = self.anchor_low, self.anchor_high
        return lg1 + (f_ghz - f1) * (lg2 - lg1) / (f2 - f1)

    def eps_at(self, f_ghz):
        lg = self._lg_eps(f_ghz)
        if not lg <= 0.0:
            raise ValueError(f"side-channel map gives eps = 10**{lg!r} > 1 at {f_ghz!r} GHz")
        return 10.0**lg


class SweepConfig(Record):
    """One sweep: the channel, eps and delta lists, both grids, estimation and output settings."""

    __slots__ = ("channel", "eps_values", "delta_values", "loss_range", "frequency_range",
                 "f_ec", "include_sifting", "cond_ceiling", "out_path", "out_format")

    def __init__(self, channel=ChannelParams(), eps_values=(1e-6,), delta_values=(0.0,),
                 loss_range=LossRange(), frequency_range=FrequencyRange(), f_ec=1.16,
                 include_sifting=False, cond_ceiling=DEFAULT_COND_CEILING,
                 out_path="sweep.csv", out_format="csv"):
        for key, value in (("eps_values", eps_values), ("delta_values", delta_values)):
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{key} must be a list or tuple of numbers, got {value!r}")
        self.channel = channel
        # tuples, so that a config built from lists compares and hashes by value
        self.eps_values = tuple(eps_values)
        self.delta_values = tuple(delta_values)
        self.loss_range = loss_range
        self.frequency_range = frequency_range
        self.f_ec = f_ec
        self.include_sifting = include_sifting
        self.cond_ceiling = cond_ceiling
        self.out_path = out_path
        self.out_format = out_format
        if self.channel.loss_db != 0.0:  # a sweep sets the loss per point
            raise ValueError("a sweep does not read channel.loss_db: set the loss with"
                             " sweep.loss or sweep.frequency.loss_db")
        if not self.eps_values or not self.delta_values:
            raise ValueError("eps and delta lists must be non-empty")
        for e in self.eps_values:
            if not 0.0 <= real(e, "eps") <= 1.0:
                raise ValueError("eps values must lie in [0, 1]")
        for d in self.delta_values:
            check_delta(d, "delta")
        if not 1.0 <= real(self.f_ec, "f_ec") < math.inf:
            raise ValueError("f_ec must be finite and >= 1")
        if not isinstance(self.include_sifting, bool):
            raise ValueError("include_sifting must be true or false")
        if not 0.0 < real(self.cond_ceiling, "cond_ceiling") < math.inf:
            raise ValueError("cond_ceiling must be finite and > 0")
        if not (isinstance(self.out_path, str) and self.out_path):
            raise ValueError(f"output.path must be a non-empty string, got {self.out_path!r}")
        if self.out_format not in ("csv", "json-lines"):
            raise ValueError(f"output.format must be csv or json-lines, got {self.out_format!r}")
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


def _number(value, key):
    """A string as the float that float() reads, or ValueError naming key; else value itself.

    YAML 1.1 reads 1e-5 (no dot) as a string. A bool stays one, for the records to refuse.
    """
    if not isinstance(value, str):
        return value
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"{key} must be a number, got {value!r}") from None


def _float_list(value, key):
    return _numbers(value, key, "a list of numbers")


def _pair(value, key):
    return _numbers(value, key, "a [GHz, lg eps] pair", length=2)


# The config schema, one row per dotted key of a config file: the object
# the key builds, the field it sets, its parser (None: kept as it is) of a
# file's value and a flag's text alike, its flag (None if none sets it)
# and the only sweep axis that reads it (None: both do). A key that no
# sweep reads is not listed, so a file that sets one is refused.
CONFIG_KEYS = {
    "channel.eta_d": (ChannelParams, "eta_d", _number, None, None),
    "channel.p_d": (ChannelParams, "p_d", _number, None, None),
    "channel.e_d": (ChannelParams, "e_d", _number, None, None),
    "channel.p_za": (ChannelParams, "p_za", _number, None, None),
    "channel.p_zb": (ChannelParams, "p_zb", _number, None, None),
    "estimation.f_ec": (SweepConfig, "f_ec", _number, None, None),
    "estimation.include_sifting": (SweepConfig, "include_sifting", None, None, None),
    "estimation.cond_ceiling": (SweepConfig, "cond_ceiling", _number, None, None),
    "sweep.eps": (SweepConfig, "eps_values", _float_list, "--eps", "loss"),
    "sweep.delta": (SweepConfig, "delta_values", _float_list, "--delta", None),
    "sweep.loss.start": (LossRange, "start", _number, "--loss-start", "loss"),
    "sweep.loss.stop": (LossRange, "stop", _number, "--loss-stop", "loss"),
    "sweep.loss.step": (LossRange, "step", _number, "--loss-step", "loss"),
    "sweep.frequency.start_ghz": (FrequencyRange, "start_ghz", _number, None, "frequency"),
    "sweep.frequency.stop_ghz": (FrequencyRange, "stop_ghz", _number, None, "frequency"),
    "sweep.frequency.step_ghz": (FrequencyRange, "step_ghz", _number, None, "frequency"),
    "sweep.frequency.loss_db": (FrequencyRange, "loss_db", _number, None, "frequency"),
    "sweep.frequency.anchor_low": (FrequencyRange, "anchor_low", _pair, None, "frequency"),
    "sweep.frequency.anchor_high": (FrequencyRange, "anchor_high", _pair, None, "frequency"),
    "output.path": (SweepConfig, "out_path", None, "--out", None),
    "output.format": (SweepConfig, "out_format", None, "--format", None),
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
    # key=str: YAML keys may be ints or bools beside strings
    unknown = sorted((name for name in mapping if (section, name) not in _NAMES), key=str)
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


def _pyyaml_load(fh, path):
    """PyYAML's safe load of fh, refusing a key set twice in a mapping as the subset reader does.

    libyaml's loader where PyYAML has it: the same mapping, parsed 5-9x faster.
    """
    import yaml

    class Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
        def construct_mapping(self, node, deep=False):
            seen = set()
            for key_node, _ in node.value:
                if type(key_node) is yaml.ScalarNode and key_node.tag != "tag:yaml.org,2002:merge":
                    key = self.construct_object(key_node)
                    if key in seen:
                        raise ValueError(f"{path}: config key {key!r} repeated at line"
                                         f" {key_node.start_mark.line + 1}")
                    seen.add(key)
            return super().construct_mapping(node, deep)

    return yaml.load(fh, Loader=Loader)


def load_config(path=None, overrides=None):
    """Build a SweepConfig from an optional YAML file plus overrides.

    The file sets keys of CONFIG_KEYS, every one optional. A file in the
    block-YAML subset of _yaml_subset (all that yaml.safe_dump writes for
    a config, and the README's example) is read without PyYAML; any other
    goes to PyYAML's safe loader, which builds the same mapping from the
    subset and names the file and line of a syntax error or a repeated
    key. overrides maps dotted keys to values (None: unset), laid over the
    file's keys before any value goes through its key's parser and check.
    Each object is built once.
    """
    raw = {}
    if path is not None:
        with open(path) as fh:
            raw = _yaml_subset.read(fh.read())
            if raw is _yaml_subset.OUTSIDE:
                fh.seek(0)
                raw = _pyyaml_load(fh, path)
        raw = raw or {}
        if not isinstance(raw, dict):
            raise ValueError("config root must be a mapping")
    values = {}
    _collect(raw, "", values)
    overrides = overrides or {}
    unknown = sorted(set(overrides) - CONFIG_KEYS.keys())
    if unknown:
        raise ValueError("unknown config keys: " + ", ".join(unknown))
    values.update((key, value) for key, value in overrides.items() if value is not None)
    # pass only the keys that are set, so that the records' defaults apply
    fields = {ChannelParams: {}, LossRange: {}, FrequencyRange: {}, SweepConfig: {}}
    for key, (cls, field, parse, _, _) in CONFIG_KEYS.items():
        if key in values:
            fields[cls][field] = parse(values[key], key) if parse else values[key]
    return SweepConfig(channel=ChannelParams(**fields[ChannelParams]),
                       loss_range=LossRange(**fields[LossRange]),
                       frequency_range=FrequencyRange(**fields[FrequencyRange]),
                       **fields[SweepConfig])


# the place of each KeyRatePoint field among a table's columns
_COLUMN = {name: i for i, name in enumerate(KeyRatePoint._fields)}
# the fields of the chain's columns (estimator._chain_tail), in their order
_CHAIN_COLUMNS = ("key_rate", "e_zz", "e_xx", "omega_ref_upper", "omega_upper", "zeta_obs")


def _good_rows(errors):
    """Mask of the rows whose error is None."""
    if errors.count(None) == len(errors):  # ~10x faster than the general case
        return np.ones(len(errors), dtype=bool)
    return np.fromiter(map(operator.is_, errors, repeat(None)), dtype=bool, count=len(errors))


class SweepTable:
    """A sweep table as columns, from the estimate to the file.

    numbers: every KeyRatePoint field but the error as one (11, rows)
    float64 array, nan in an error row's numbers and in a loss table's
    key_per_second, which the checks, the summaries and the writer read;
    errors: per row None or its error message; frequency_axis: True for a
    frequency table, the only one whose rows carry key_per_second; good:
    the mask of the rows whose error is None. A table has at least one
    row.
    """

    __slots__ = ("numbers", "errors", "frequency_axis", "good")

    def __init__(self, numbers, errors, frequency_axis):
        self.numbers = numbers
        self.errors = errors
        self.frequency_axis = frequency_axis
        self.good = _good_rows(errors)

    def rows(self):
        """The table as a list of KeyRatePoints, built in one pass."""
        columns = self.numbers.tolist()
        if not self.frequency_axis:
            columns[-1] = repeat(None)
        # tuple.__new__ skips the named tuple's Python-level __new__
        return list(map(tuple.__new__, repeat(KeyRatePoint), zip(*columns, self.errors)))

    def select(self, mask):
        """The table of the rows where mask, a boolean array over the rows, is True.

        ValueError for a mask that is not boolean, does not match the
        rows, or keeps no row.
        """
        mask = np.asarray(mask)
        if mask.dtype != bool or mask.shape != self.good.shape:
            raise ValueError(f"need a boolean mask over the {self.good.size} rows,"
                             f" got {mask.dtype} of shape {mask.shape}")
        if not mask.any():
            raise ValueError("the mask keeps no row")
        errors = list(compress(self.errors, mask.tolist()))
        return SweepTable(self.numbers[:, mask], errors, self.frequency_axis)

    def _values(self, fields, rows):
        """The values of the named fields at the given rows, one list per field."""
        return self.numbers[np.ix_([_COLUMN[f] for f in fields], rows)].tolist()

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

    def _curves(self):
        """Each curve's labels, positive-rate cutoff and revival flag, as columns.

        Loss tables carry one curve per (eps, delta) combination; frequency
        tables tie eps to the coordinate, so a curve is one delta. Curves
        follow in label order, each labelled by its first row in table
        order. The cutoff is the largest coordinate with key_rate > 0, nan
        where no row is positive. A curve that returns to positive rate
        after a zero would make that notion ill-defined; such revival is
        flagged (and is loudly surprising), with one warning per reviving
        curve. Returns (label names, one list of values per label,
        cutoffs, revival flags).
        """
        coordinate, key_rate = (self.numbers[_COLUMN[f]] for f in ("coordinate", "key_rate"))
        labels = ("delta",) if self.frequency_axis else ("eps", "delta")
        keys = self.numbers[[_COLUMN[k] for k in labels]]
        rows = len(coordinate)
        # curves in label order, each sorted by coordinate; ties keep table order
        order = np.lexsort((coordinate, *keys[::-1]))
        keys = keys.take(order, axis=1)  # ~6x faster than keys[:, order]
        # a curve starts at the first row and wherever a label changes
        starts = np.flatnonzero(np.r_[True, (keys[:, 1:] != keys[:, :-1]).any(axis=0)])
        positive = (self.good & (key_rate > 0.0))[order]
        places = np.arange(rows)
        count = np.add.reduceat(positive.astype(np.intp), starts)
        first = np.minimum.reduceat(np.where(positive, places, rows), starts)
        last = np.maximum.reduceat(np.where(positive, places, -1), starts)
        values = self._values(labels, np.minimum.reduceat(order, starts))
        cutoffs = np.where(count > 0, coordinate[order[np.maximum(last, 0)]], np.nan)
        # a curve revives if a non-positive point lies between two positive ones
        revival = (count > 0) & (last - first >= count)
        for i in np.flatnonzero(revival).tolist():
            label = ", ".join(f"{k}={v[i]}" for k, v in zip(labels, values))
            warnings.warn(f"rate revival on curve {label}; cutoff is not trustworthy")
        return labels, values, cutoffs.tolist(), revival.tolist()

    def summaries(self):
        """A dict per curve of _curves: labels, cutoff (None if no row is positive), revival."""
        labels, values, cutoffs, revival = self._curves()
        return [dict(zip(labels, label), cutoff=None if math.isnan(c) else c, revival=r)
                for *label, c, r in zip(*values, cutoffs, revival)]

    def write(self, path, out_format, summary=False):
        """Check the table, then write it (and, if summary, its summary block) deterministically.

        The coordinate column is named frequency_ghz in a frequency table,
        the only one with a key_per_second column, and loss_db otherwise.
        CSV: one header line, one line per row, then '# summary ...'
        comment lines. JSON-lines: one object per row, then one summary
        object per curve. Every good row is range-checked, as columns,
        before any is printed. Every row's numbers are printed by the
        digit kernel of mdiqkd._g12, which gives the bytes of
        f"{value:.12g}"; an error row's line then gains its message, and
        in JSON-lines spells its nan as null. summary, True or False,
        adds one line per curve of _curves, printed by one %.12g template:
        its labels, its cutoff (null if none) and its revival flag.
        """
        if not isinstance(summary, bool):
            raise ValueError(f"summary must be true or false, got {summary!r}")
        self.check()
        fields = ["coordinate", "eps", "delta", "key_rate"]
        if self.frequency_axis:
            fields.append("key_per_second")
        fields += ["e_zz", "e_xx", "omega_ref_upper", "omega_upper", "zeta_obs", "cond_s"]
        names = ["frequency_ghz" if self.frequency_axis else "loss_db", *fields[1:]]
        if out_format == "csv":
            # a good row leaves the error cell empty
            prefixes = ["", *[","] * (len(fields) - 1)]
            suffix = ",\n"

            def error_line(line, error):
                return line + _csv_quote(error)

            head = ",".join([*names, "error"]) + "\n"
            envelope = "# summary {%s}\n"
        elif out_format == "json-lines":
            prefixes = ["{" + f'"{names[0]}": ', *(f', "{n}": ' for n in names[1:])]
            suffix = ', "error": null}\n'

            def error_line(line, error):
                import json  # only error messages need it; kept off the start-up path

                # an error row carries nan, which JSON spells null; no
                # field name holds "nan", so only the values change
                body = line.replace("nan", "null").removesuffix("null}")
                return body + json.dumps(error) + "}"

            head = ""
            envelope = '{"summary": {%s}}\n'
        else:
            raise ValueError(f"unknown format {out_format!r}")
        tail = ""
        if summary:
            labels, values, cutoffs, revival = self._curves()
            line = envelope % ", ".join(
                [*(f'"{k}": %.12g' for k in labels), '"cutoff": %s', '"revival": %s'])
            tail = "".join(line % (*label, "null" if math.isnan(cutoff) else "%.12g" % cutoff,
                                   "true" if revived else "false")
                           for *label, cutoff, revived in zip(*values, cutoffs, revival))
        block = [self.numbers[_COLUMN[f]] for f in fields]
        chunks = _g12.print_rows(block, prefixes, suffix)
        with open(path, "w", newline="\n") as fh:
            fh.write(head)
            for first, text in zip(range(0, len(self.errors), _g12.CHUNK_ROWS), chunks):
                failed = np.flatnonzero(~self.good[first:first + _g12.CHUNK_ROWS])
                if failed.size:
                    lines = text.split("\n")
                    for i in failed.tolist():
                        lines[i] = error_line(lines[i], self.errors[first + i])
                    text = "\n".join(lines)
                fh.write(text)
            fh.write(tail)
        return path


def _sweep_table(config, coordinates, eps, rates, per_second):
    """The table of every curve, eps outermost, then delta as listed, then the coordinate.

    eps: the side-channel weights, (n_curves, n_points), or (n_curves, 1)
    shared by a curve's points; rates: the transmission rates, (n_points,
    9), or (1, 9) shared by all points. The numbers are one (column,
    curve, delta, point) grid, filled by broadcasting. A refused
    reference set (nan f_obj) gives its delta's rows its error's message
    and stays out of the chain. The chain's first stage runs once on the
    accepted deltas' yields, its second once on views of its terms and
    of eps per (curve, point), and each of its columns goes into the grid
    in one assignment. The table checked its inputs: the yields by
    reference_yields' clamp, eps by the config and f_obj by the stack's
    ceiling. Rows without signal become NO_SIGNAL error rows, and only
    error rows carry nan in the estimate's numbers. One warning per table
    names the worst omega_ref_upper clamped to 1.
    """
    amps = reference_amplitudes(config.delta_values)  # (n_deltas, 3, 2), both sides' sets
    s_matrix, cond_s, f_obj, errors = build_estimation_stack(amps, amps, config.cond_ceiling)
    keep = np.flatnonzero([err is None for err in errors])  # the accepted deltas
    # every column but the error, in KeyRatePoint field order
    numbers = np.full((len(_COLUMN) - 1, len(eps), len(amps), len(coordinates)), np.nan)
    column = dict(zip(KeyRatePoint._fields, numbers))  # each number column's view, by name
    column["coordinate"][...] = coordinates
    column["eps"][...] = eps[:, None]
    column["delta"][...] = np.array(config.delta_values, dtype=float)[:, None]
    column["cond_s"][:, keep] = cond_s[keep, None]
    # (accepted deltas, points or 1, 9): a frequency table's one loss
    yields = reference_yields(s_matrix, rates).y[keep]
    f_obj = f_obj[keep, None]
    sifting = config.channel.p_za * config.channel.p_zb if config.include_sifting else None
    terms = _point_terms(yields, f_obj, config.f_ec, sifting)
    # eps per (curve, point) as (curves, 1, points): each curve meets every accepted delta
    columns = _row_columns(eps[:, None, :], terms, yields, f_obj)
    for name, values in zip(_CHAIN_COLUMNS, columns):
        column[name][:, keep] = values
    # the rows the chain saw, silent ones included
    _warn_of_clamp(column["omega_ref_upper"][:, keep])
    silent = column["zeta_obs"] < _SILENT_BELOW  # nan in a refused delta's rows
    for name in (*_CHAIN_COLUMNS, "cond_s"):
        column[name][silent] = np.nan
    if per_second:
        column["key_per_second"][...] = column["key_rate"] * column["coordinate"] * 1e9
    messages = np.array([None if err is None else str(err) for err in errors], dtype=object)
    messages = np.where(silent, NO_SIGNAL, messages[:, None]).ravel().tolist()
    return SweepTable(numbers.reshape(len(numbers), -1), messages, per_second)


def loss_table(config):
    """The key-rate table over the loss grid for every (eps, delta) combination."""
    losses = config.loss_range.values()
    rates = transmission_rates_grid(config.channel, losses)
    eps = np.array(config.eps_values, dtype=float)[:, None]
    return _sweep_table(config, losses, eps, rates, per_second=False)


def frequency_table(config):
    """The per-second key-rate table over the frequency grid at fixed loss."""
    fr = config.frequency_range
    if fr.loss_db is None:
        raise ValueError("frequency sweep requires sweep.frequency.loss_db")
    freqs = fr.values()
    # eps_at of every point: each rounding step of _lg_eps is monotone in f,
    # so the grid's two ends, which FrequencyRange checked, bound lg eps
    # by 0. Python's pow, not np.power: numpy's SIMD power is not libm and
    # differs in the last bit for about 5% of exponents
    eps = np.array([[10.0**lg for lg in fr._lg_eps(np.array(freqs)).tolist()]])
    rates = transmission_rates_grid(config.channel, [fr.loss_db])
    return _sweep_table(config, freqs, eps, rates, per_second=True)


def _csv_quote(text):
    if any(ch in text for ch in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text

