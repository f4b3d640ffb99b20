"""Correctness gate: parse an emitted table back and check every row.

A table row fails when it is missing, sits at the wrong grid coordinate,
carries an `error` column, breaks a value range that the sweep's own
emission check enforces, or disagrees with an independent recompute
through the library quick-start chain (sampled rows only). At the
default seed, sampled rows must also match the values stored from the
commit that defined the benchmark, so a change inside the chain itself
cannot pass by agreeing with its own recompute. Each summary line is a
row too: it fails when its cutoff or revival flag disagrees with the
table's rows or, at the default seed, with the stored reference.
"""

import csv
import json
import math
import random
import warnings
from types import SimpleNamespace

RECOMPUTE_REL = 1e-6   # room for a batched engine (ROADMAP reports ~3e-8)
GRID_REL = 1e-9        # tables print 12 significant digits
SAMPLE_ROWS = 24


def close(a, b, rel):
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))


def _number(text):
    return None if text in ("", None) else float(text)


def read_table(path, out_format, coordinate_name):
    """(rows, summaries): rows as dicts with a `coordinate` key."""
    rows, summaries = [], []
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    if out_format == "csv":
        data = [ln for ln in lines if not ln.startswith("# summary ")]
        summaries = [json.loads(ln[len("# summary "):]) for ln in lines
                     if ln.startswith("# summary ")]
        reader = csv.DictReader(data)
        for raw in reader:
            row = {k: (v if k == "error" else _number(v)) for k, v in raw.items()}
            row["error"] = row.get("error") or None
            rows.append(row)
    else:
        for ln in lines:
            obj = json.loads(ln)
            if "summary" in obj:
                summaries.append(obj["summary"])
            else:
                rows.append({k: (float("nan") if v is None and k != "error" else v)
                             for k, v in obj.items()})
    for row in rows:
        row["coordinate"] = row.pop(coordinate_name, None)
    return rows, summaries


def _range_ok(row):
    # mirrors the sweep's emission-time validation of a successful row
    values = [row.get(k) for k in ("key_rate", "e_zz", "e_xx", "omega_ref_upper",
                                   "omega_upper", "zeta_obs", "cond_s")]
    if any(v is None or not math.isfinite(v) for v in values):
        return False
    key_rate, e_zz, e_xx, om_ref_up, om_up, zeta, cond = values
    return (key_rate >= 0.0 and 0.0 <= e_zz <= 1.0 and 0.0 <= e_xx <= 1.0
            and om_ref_up >= 0.0 and 0.0 <= om_up <= 1.0 and zeta > 0.0
            and cond >= 1.0)


class ReferenceChain:
    """Recomputes rows through the library quick-start chain, cached."""

    def __init__(self, workload):
        from mdiqkd import (
            SETTINGS, ChannelParams, ModulationErrors, SideChannelParams,
            build_bsm_povm, build_estimation_inputs, build_S_matrix, estimate,
            make_reference_state, reference_yields, transmission_rates,
        )
        from workloads import CHANNEL, F_EC

        def evaluate(coordinate, eps, delta):
            loss = coordinate if workload.sweep == "loss" else workload.loss_db
            deltas = ModulationErrors(delta, delta, delta)
            ref = [make_reference_state(s, deltas) for s in SETTINGS]
            povm = build_bsm_povm(ChannelParams(**CHANNEL, loss_db=loss))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                yields = reference_yields(build_S_matrix(ref, ref),
                                          transmission_rates(povm))
            inputs = build_estimation_inputs(ref, ref, yields,
                                             SideChannelParams.uniform(eps))
            return estimate(inputs, f_ec=F_EC)

        self._evaluate = evaluate
        self._cache = {}

    def __call__(self, index, expected):
        if index not in self._cache:
            self._cache[index] = self._evaluate(*expected)
        return self._cache[index]


def _row_failure(workload, row, expected):
    coordinate, eps, delta = expected
    if row is None:
        return "missing row"
    if row.get("error"):
        return f"error row: {row['error']}"
    if not (row["coordinate"] is not None
            and abs(row["coordinate"] - coordinate) <= GRID_REL * max(1.0, abs(coordinate))
            and row.get("eps") is not None and close(row["eps"], eps, GRID_REL)
            and row.get("delta") is not None and abs(row["delta"] - delta) <= GRID_REL):
        return "coordinates off the generated grid"
    if not _range_ok(row):
        return "value out of range"
    if workload.sweep == "frequency":
        per_second = row.get("key_per_second")
        if per_second is None or not close(per_second, row["key_rate"] * coordinate * 1e9,
                                           GRID_REL):
            return "key_per_second != key_rate * f"
    return None


def _recompute_failure(row, ref):
    for name in ("key_rate", "e_zz", "e_xx"):
        if not close(row[name], getattr(ref, name), RECOMPUTE_REL):
            return f"{name} {row[name]!r} != recomputed {getattr(ref, name)!r}"
    if (row["key_rate"] > 0.0) != (ref.key_rate > 0.0):
        return "sign of key_rate differs from the recompute"
    return None


def curve_summary(coordinates_and_rates):
    """(cutoff, revival) of one curve from (coordinate, key_rate) pairs."""
    positive = [(c, r is not None and r > 0.0) for c, r in sorted(coordinates_and_rates)]
    cutoff = max((c for c, pos in positive if pos), default=None)
    seen_pos = seen_gap = revival = False
    for _, pos in positive:
        revival = revival or (pos and seen_gap)
        seen_gap = seen_gap or (seen_pos and not pos)
        seen_pos = seen_pos or pos
    return cutoff, revival


def _same_summary(got, want):
    if set(got) != set(want) or got.get("revival") != want.get("revival"):
        return False
    for key, value in want.items():
        if key == "revival":
            continue
        other = got.get(key)
        if value is None or other is None:
            if value is not other:
                return False
        elif not close(float(other), float(value), GRID_REL):
            return False
    return True


def sample_indices(workload, seed, rows):
    """Rows to recompute: a seeded sample plus the rows on both sides of
    every table cutoff, where a wrong sign would move the summary."""
    n_rows = workload.grid_sizes()["rows"]
    rng = random.Random(f"{workload.name}/{seed}/sample")
    sample = set(rng.sample(range(n_rows), min(SAMPLE_ROWS, n_rows)))
    n = workload.n_points
    for first in range(0, n_rows, n):
        curve_rows = rows[first:first + n]
        positive = [k for k, r in enumerate(curve_rows)
                    if r.get("key_rate") is not None and r["key_rate"] > 0.0]
        if positive:
            sample.update(first + k for k in (positive[-1], positive[-1] + 1) if k < n)
    return sorted(sample)


def check_table(workload, path, reference, seed, stored=None):
    """(attempted, failures): failures maps row number -> reason.

    Rows are the grid rows followed by one summary row per curve; at
    most one failure is counted per row. Rows beyond the grid or the
    curves count as one more failure each kind. `stored` is a reference
    record written by make_reference.py for this seed: its summaries
    and its sampled key_rate, e_zz and e_xx values must match too.
    """
    expected = workload.expected_rows()
    curves = workload.curves()
    attempted = len(expected) + len(curves)
    failures = {}
    try:
        rows, summaries = read_table(path, workload.out_format, workload.coordinate_name)
    except (OSError, ValueError, KeyError) as exc:
        return attempted, {i: f"unreadable table: {exc}" for i in range(attempted)}

    for i, want in enumerate(expected):
        reason = _row_failure(workload, rows[i] if i < len(rows) else None, want)
        if reason:
            failures[i] = reason
    if len(rows) > len(expected):
        failures["extra rows"] = f"{len(rows) - len(expected)} rows beyond the grid"

    for i in sample_indices(workload, seed, rows):
        if i in failures or i >= len(rows):
            continue
        reason = _recompute_failure(rows[i], reference(i, expected[i]))
        if reason:
            failures[i] = reason
    for key, want in (stored or {}).get("rows", {}).items():
        i = int(key)
        if i in failures or i >= len(rows):
            continue
        reason = _recompute_failure(rows[i], SimpleNamespace(**want))
        if reason:
            failures[i] = "stored reference: " + reason

    by_curve = {}
    for want, row in zip(expected, rows):
        rate = row.get("key_rate") if not row.get("error") else None
        by_curve.setdefault(workload.curve_of(want), []).append((want[0], rate))
    label_keys = ("delta",) if workload.sweep == "frequency" else ("eps", "delta")
    for k, curve in enumerate(curves):
        cutoff, revival = curve_summary(by_curve.get(curve, []))
        want = dict(zip(label_keys, curve), cutoff=cutoff, revival=revival)
        got = summaries[k] if k < len(summaries) else None
        if got is None or not _same_summary(got, want):
            failures[len(expected) + k] = f"summary {got} != rows {want}"
        elif stored is not None and (
                k >= len(stored["summaries"])
                or not _same_summary(got, stored["summaries"][k])):
            failures[len(expected) + k] = "summary differs from the stored reference"
    if len(summaries) > len(curves):
        failures["extra summaries"] = f"{len(summaries) - len(curves)} summaries beyond the curves"
    return attempted, failures
