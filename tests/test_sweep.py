import dataclasses
import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import warnings
from itertools import compress

import numpy as np
import pytest
import yaml
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mdiqkd import (
    SETTINGS,
    ChannelParams,
    EstimationError,
    ModulationErrors,
    SideChannelParams,
    build_bsm_povm,
    build_S_matrix,
    estimate,
    make_reference_state,
    reference_yields,
    transmission_rates,
)
import mdiqkd
import mdiqkd._g12
import mdiqkd._yaml_subset
import mdiqkd.sweep
from mdiqkd.estimator import NO_SIGNAL, EstimationInputs, _estimate_core
from mdiqkd.cli import build_parser, main
from mdiqkd.pauli_core import DegenerateInputError, build_estimation_stack
from mdiqkd.sweep import (
    CONFIG_KEYS,
    MAX_TABLE_ROWS,
    FrequencyRange,
    KeyRatePoint,
    LossRange,
    SweepConfig,
    SweepTable,
    frequency_table,
    load_config,
    loss_table,
)
from oracles import curve_summaries_by_row, table_row, table_text, validate_row

TINY = SweepConfig(
    eps_values=(1e-6, 1e-7),
    delta_values=(0.0, 0.1),
    loss_range=LossRange(0.0, 2.0, 1.0),
)


def _point(coordinate, key_rate, eps=1e-6, delta=0.0, error=None):
    return KeyRatePoint(
        coordinate, eps, delta, key_rate, 0.01, 0.1, 0.0, 0.1, 0.05, 10.0,
        error=error,
    )


def _table(rows):
    """The SweepTable of hand-built rows; a frequency table if any row carries key_per_second."""
    axis = any(p.key_per_second is not None for p in rows)
    return SweepTable(np.array([p[:11] for p in rows], dtype=float).T, [p.error for p in rows],
                      axis)


def test_loss_range_grid():
    assert LossRange(0.0, 1.0, 0.25).values() == [0.0, 0.25, 0.5, 0.75, 1.0]
    # endpoint inclusion survives float stepping
    assert len(LossRange(0.0, 12.0, 0.1).values()) == 121
    with pytest.raises(ValueError):
        LossRange(1.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        LossRange(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        LossRange(0.0, math.inf, 1.0)
    with pytest.raises(ValueError):
        LossRange(0.0, 1e9, 1.0)  # beyond the grid cap


def test_frequency_range_grid_and_map():
    fr = FrequencyRange(loss_db=5.0)
    values = fr.values()
    assert values[0] == pytest.approx(0.1)
    assert values[-1] == pytest.approx(4.0)
    assert fr.eps_at(0.1) == pytest.approx(1e-9, rel=1e-12)
    assert fr.eps_at(4.0) == pytest.approx(1e-6, rel=1e-12)
    # lg-linear: midpoint of the anchors sits at the geometric mean
    mid = 0.5 * (0.1 + 4.0)
    assert fr.eps_at(mid) == pytest.approx(math.sqrt(1e-9 * 1e-6), rel=1e-9)


def test_frequency_range_validation():
    with pytest.raises(ValueError):
        FrequencyRange(start_ghz=-1.0)
    with pytest.raises(ValueError):
        FrequencyRange(anchor_low=(5.0, -9.0), anchor_high=(4.0, -6.0))
    # a map reaching eps > 1 anywhere on the grid is refused up front
    with pytest.raises(ValueError):
        FrequencyRange(anchor_high=(4.0, 1.0))
    with pytest.raises(ValueError):
        FrequencyRange(stop_ghz=12.0, anchor_high=(4.0, -3.0))
    with pytest.raises(ValueError):
        FrequencyRange(anchor_low=(0.1, math.nan))
    for loss in (-1.0, math.inf):
        with pytest.raises(ValueError, match="loss_db must be finite and >= 0"):
            FrequencyRange(loss_db=loss)


def test_frequency_anchors_are_pairs_that_compare_and_hash_by_value():
    # an anchor given as a list is stored as a tuple, as a config file's is
    from_lists = FrequencyRange(anchor_low=[0.1, -9.0], anchor_high=[4.0, -6.0], loss_db=5.0)
    from_tuples = FrequencyRange(anchor_low=(0.1, -9.0), anchor_high=(4.0, -6.0), loss_db=5.0)
    assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)
    assert from_lists.anchor_low == (0.1, -9.0) and from_lists.anchor_high == (4.0, -6.0)
    assert hash(SweepConfig(frequency_range=from_lists)) == hash(
        SweepConfig(frequency_range=from_tuples))
    for name, value in (("anchor_low", [0.1]), ("anchor_high", (4.0, -6.0, 1.0)),
                        ("anchor_low", 0.1), ("anchor_high", {4.0: -6.0, 5.0: -5.0})):
        with pytest.raises(ValueError, match=f"^{name} must be a \\[GHz, lg eps\\] pair, got "):
            FrequencyRange(**{name: value})


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(eps_values=())
    with pytest.raises(ValueError):
        SweepConfig(eps_values=(2.0,))
    with pytest.raises(ValueError):
        SweepConfig(delta_values=(1.6,))
    with pytest.raises(ValueError):
        SweepConfig(out_format="xml")
    with pytest.raises(ValueError):
        SweepConfig(delta_values=(math.nan,))
    with pytest.raises(ValueError):
        SweepConfig(f_ec=math.nan)
    with pytest.raises(ValueError):
        SweepConfig(frequency_range=FrequencyRange(loss_db=math.nan))
    for flag in ("no thanks", 0.5, 1):
        with pytest.raises(ValueError, match="include_sifting"):
            SweepConfig(include_sifting=flag)


@pytest.mark.parametrize("ceiling", [0.0, -1.0, math.inf, math.nan])
def test_sweep_config_refuses_a_cond_ceiling_that_is_not_finite_and_positive(ceiling):
    with pytest.raises(ValueError, match="^cond_ceiling must be finite and > 0$"):
        SweepConfig(cond_ceiling=ceiling)


@pytest.mark.parametrize("changes", [
    # 2 eps x a 600001-point loss grid
    {"eps_values": (1e-6, 1e-7), "loss_range": LossRange(0.0, 600000.0, 1.0)},
    # 2 deltas x a 600001-point frequency grid
    {"delta_values": (0.0, 0.1),
     "frequency_range": FrequencyRange(1.0, 600001.0, 1.0, anchor_low=(1.0, -9.0),
                                       anchor_high=(600001.0, -6.0))},
], ids=["loss", "frequency"])
def test_sweep_config_refuses_a_table_over_max_table_rows(changes):
    with pytest.raises(ValueError, match=f"^sweep table exceeds {MAX_TABLE_ROWS} rows$"):
        SweepConfig(**changes)


def test_sweep_config_refuses_a_channel_loss():
    # the loss of a sweep comes from its grid; a channel's own loss_db
    # would be silently ignored, so it is refused as a config file's is
    message = "channel.loss_db: set the loss with sweep.loss or sweep.frequency.loss_db"
    for loss in (30.0, 1e-300):
        with pytest.raises(ValueError, match=message):
            SweepConfig(channel=ChannelParams(loss_db=loss), loss_range=LossRange(0, 1, 1))
    SweepConfig(channel=ChannelParams(loss_db=0.0))


@pytest.mark.parametrize("key", ["eps_values", "delta_values"])
@pytest.mark.parametrize("value", [1e-6, "0.1", np.array([0.0, 0.1])], ids=["float", "str", "array"])
def test_sweep_config_refuses_a_list_that_is_not_one(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be a list or tuple of numbers, got "):
        SweepConfig(**{key: value})


def test_sweep_config_stores_its_lists_as_tuples():
    # a library caller's lists compare and hash as the tuples load_config passes
    from_lists = SweepConfig(eps_values=[1e-6, 1e-7], delta_values=[0.0, 0.1])
    from_tuples = SweepConfig(eps_values=(1e-6, 1e-7), delta_values=(0.0, 0.1))
    assert from_lists.eps_values == (1e-6, 1e-7) and from_lists.delta_values == (0.0, 0.1)
    assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)
    assert len({from_lists, from_tuples}) == 1
    changed = from_tuples.replace(eps_values=[1e-8])
    assert changed.eps_values == (1e-8,) and hash(changed) == hash(changed.replace())
    assert changed == SweepConfig(eps_values=(1e-8,), delta_values=(0.0, 0.1))


def test_load_config_defaults():
    config = load_config()
    assert config.eps_values == (1e-6,)
    assert config.delta_values == (0.0,)
    assert config.loss_range == LossRange()
    assert config.out_format == "csv"


def test_load_config_yaml_file(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(
        "channel:\n"
        "  eta_d: 0.2\n"
        "  p_d: 1e-5\n"
        "estimation:\n"
        "  f_ec: 1.2\n"
        "  cond_ceiling: 1e8\n"
        "sweep:\n"
        "  eps: [1e-7, 1.0e-6]\n"
        "  delta: [0.05]\n"
        "  loss: {start: 1.0, stop: 2.0, step: 5e-1}\n"
        "  frequency: {loss_db: 5.0, anchor_high: [4.0, -5.0]}\n"
        "output:\n"
        "  path: rates.jsonl\n"
        "  format: json-lines\n"
    )
    config = load_config(str(path))
    assert config.channel.eta_d == 0.2
    assert config.f_ec == 1.2
    # scientific notation without a dot arrives as a string from YAML, in
    # a list as in a scalar key
    assert config.channel.p_d == 1e-5 and type(config.channel.p_d) is float
    assert config.cond_ceiling == 1e8
    assert config.eps_values == (1e-7, 1e-6)
    assert config.delta_values == (0.05,)
    assert config.loss_range == LossRange(1.0, 2.0, 0.5)
    assert config.frequency_range.loss_db == 5.0
    assert config.frequency_range.anchor_high == (4.0, -5.0)
    assert config.out_path == "rates.jsonl"
    assert config.out_format == "json-lines"


def test_load_config_parses_with_libyaml_and_without(tmp_path, monkeypatch):
    # a file outside the subset that load_config reads itself (flow
    # collections nested over two lines, an anchor) goes to PyYAML
    path = tmp_path / "cfg.yaml"
    text = (
        "channel: {eta_d: 0.2, p_d: 1.0e-6}\n"
        "estimation: {f_ec: 1.2, include_sifting: true, cond_ceiling: 1.0e+3}\n"
        "sweep: {eps: [1e-7, 1.0e-6, 0], delta: [0.05, -0.0, 1],\n"
        "        loss: {start: 1, stop: &stop 2.0, step: 0.5},\n"
        "        frequency: {loss_db: 5.0, anchor_low: [0.5, -9], anchor_high: [4.0, -5.0]}}\n"
        "output: {path: 'rates, all.jsonl', format: json-lines}\n"
    )
    path.write_text(text)
    assert mdiqkd._yaml_subset.read(text) is mdiqkd._yaml_subset.OUTSIDE
    load, fast, loaders, configs = yaml.load, getattr(yaml, "CSafeLoader", None), [], []

    def recording_load(stream, Loader):
        loaders.append(Loader)
        return load(stream, Loader=Loader)

    monkeypatch.setattr(yaml, "load", recording_load)
    configs.append(load_config(str(path)))
    # the pure-Python fallback, for a PyYAML built without libyaml
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    configs.append(load_config(str(path)))
    # each a subclass that refuses a key set twice
    assert issubclass(loaders[0], fast or yaml.SafeLoader)
    assert issubclass(loaders[1], yaml.SafeLoader) and not issubclass(loaders[1], fast or int)
    assert configs[0] == configs[1]
    assert configs[0].eps_values == (1e-7, 1e-6, 0.0)
    assert repr(configs[0].delta_values) == repr((0.05, -0.0, 1.0))
    assert configs[0].out_path == "rates, all.jsonl"
    assert configs[0].loss_range == LossRange(1.0, 2.0, 0.5)


@pytest.mark.parametrize("text, key, line", [
    ("channel: {eta_d: 0.2}\nchannel: {p_d: 0.0}\n", "channel", 2),
    ("sweep:\n  loss: {start: 1.0, stop: 4.0,\n         start: 2.0}\n", "start", 3),
    ("sweep:\n  eps: [1.0e-6]\n  delta: [0.0]\n  eps: [1.0e-7]\n", "eps", 4),
])
def test_load_config_refuses_a_key_set_twice(tmp_path, monkeypatch, text, key, line):
    # PyYAML alone would keep the last value (eta_d=0.145, the default, in
    # the first file); the subset reader declines these files, and the
    # fallback, libyaml's or pure Python, refuses them naming the key and line
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    assert mdiqkd._yaml_subset.read(text) is mdiqkd._yaml_subset.OUTSIDE
    message = f"^{re.escape(str(path))}: config key '{key}' repeated at line {line}$"
    with pytest.raises(ValueError, match=message):
        load_config(str(path))
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    with pytest.raises(ValueError, match=message):
        load_config(str(path))


def test_load_config_overrides_win(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(
        "sweep:\n"
        "  eps: [1.0e-7]\n"
        "  loss: {start: 1.0, stop: 2.0, step: 0.5}\n"
    )
    config = load_config(str(path), {"sweep.eps": [1e-8], "sweep.loss.start": 0.5,
                                     "output.path": "x.csv", "sweep.loss.step": None})
    assert config.eps_values == (1e-8,)
    assert config.loss_range == LossRange(0.5, 2.0, 0.5)  # stop/step kept
    assert config.out_path == "x.csv"


def test_load_config_lays_overrides_over_the_file_before_any_check(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("sweep:\n  loss: {start: 5, stop: 2, step: 1}\n")
    assert load_config(str(path), {"sweep.loss.stop": 10}).loss_range == LossRange(5, 10, 1)
    with pytest.raises(ValueError, match="need stop >= start"):
        load_config(str(path))


def test_load_config_refuses_an_override_that_is_no_config_key():
    # the command line's old argparse dests would otherwise be dropped unread
    with pytest.raises(ValueError) as exc:
        load_config(None, {"eps": [1e-8], "stop": 10, "sweep.loss.start": 1})
    assert str(exc.value) == "unknown config keys: eps, stop"


@pytest.mark.parametrize("text, value", [
    ("channel: {p_d: '1e-5'}\n", 1e-5),  # a quoted number, as a list already reads it
    ("channel: {p_d: 0}\n", 0),
])
def test_load_config_reads_a_scalar_key_as_float_does(tmp_path, text, value):
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    p_d = load_config(str(path)).channel.p_d
    assert p_d == value and type(p_d) is type(value)


def test_load_config_rejects_unknown_section(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("chanel: {eta_d: 0.2}\n")
    with pytest.raises(ValueError, match="unknown config sections"):
        load_config(str(path))
    # workers is not a config section
    path.write_text("workers: 2\n")
    with pytest.raises(ValueError, match="unknown config sections"):
        load_config(str(path))
    # YAML reads 2 as an int key, which sorts beside a str only as text
    path.write_text("foo: 1\n2: 3\n")
    with pytest.raises(ValueError) as exc:
        load_config(str(path))
    assert str(exc.value) == "unknown config sections: [2, 'foo']"


@pytest.mark.parametrize("text, key", [
    ("estimation: {fec: 2.0}\n", "estimation.fec"),
    ("sweep: {epss: [1.0e-3]}\n", "sweep.epss"),
    ("output: {formt: json-lines}\n", "output.formt"),
    ("channel: {etad: 0.1}\n", "channel.etad"),
    ("sweep: {loss: {stpo: 0.5}}\n", "sweep.loss.stpo"),
    ("sweep: {frequency: {loss: 5.0}}\n", "sweep.frequency.loss"),
    ("sweep: {loss: 5.0}\n", "sweep.loss"),  # a section that is no mapping
    # a string or a scalar where a list belongs
    ("sweep: {delta: '01'}\n", "sweep.delta"),
    ("sweep: {eps: 1.0e-6}\n", "sweep.eps"),
    ("estimation: {include_sifting: no thanks}\n", "include_sifting"),
    ("sweep: {7: 1, bar: 2}\n", "unknown config keys: sweep.7, sweep.bar"),  # int beside str
])
def test_load_config_rejects_unknown_keys(tmp_path, text, key):
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(key)):
        load_config(str(path))


@pytest.mark.parametrize("text, message", [
    ("sweep: {frequency: {anchor_low: 5}}\n",
     "sweep.frequency.anchor_low must be a [GHz, lg eps] pair, got 5"),
    ("sweep: {frequency: {anchor_low: [1, 2, 3]}}\n",
     "sweep.frequency.anchor_low must be a [GHz, lg eps] pair, got [1, 2, 3]"),
    # a mapping would otherwise pass its keys on as the anchor
    ("sweep: {frequency: {anchor_high: {3.0: -6.0, 4.0: -5.0}}}\n",
     "sweep.frequency.anchor_high must be a [GHz, lg eps] pair, got {3.0: -6.0, 4.0: -5.0}"),
    ("sweep: {eps: [abc]}\n", "sweep.eps must be a list of numbers, got ['abc']"),
], ids=["anchor-scalar", "anchor-triple", "anchor-mapping", "eps-word"])
def test_load_config_names_the_key_and_shape_of_a_bad_list(tmp_path, text, message):
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        load_config(str(path))
    assert str(exc.value) == message


@pytest.mark.parametrize("text, message", [
    ("channel: {p_d: abc}\n", "channel.p_d must be a number, got 'abc'"),
    ("sweep: {loss: {step: '0.5 dB'}}\n", "sweep.loss.step must be a number, got '0.5 dB'"),
    ("output: {format: xml}\n", "output.format must be csv or json-lines, got 'xml'"),
], ids=["p_d-word", "loss-step-unit", "format"])
def test_load_config_names_the_key_and_value_of_a_bad_scalar(tmp_path, text, message):
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        load_config(str(path))
    assert str(exc.value) == message


def test_load_config_rejects_non_mapping(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(ValueError, match="mapping"):
        load_config(str(path))


@pytest.mark.parametrize("text", [
    "sweep: {eps: [true]}\n",
    "sweep: {delta: [false]}\n",
    "sweep: {loss: {start: true, stop: 2, step: 1}}\n",
    "estimation: {f_ec: true}\n",
    "estimation: {cond_ceiling: true}\n",
    "channel: {eta_d: true}\n",
    "sweep: {frequency: {loss_db: true}}\n",
    "sweep: {frequency: {anchor_high: [4.0, false]}}\n",
], ids=["eps", "delta", "loss-start", "f_ec", "cond_ceiling", "eta_d", "frequency-loss",
        "anchor"])
def test_load_config_refuses_booleans_as_numbers(tmp_path, text):
    # YAML true and false would otherwise pass as 1 and 0
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    with pytest.raises(ValueError, match="must be a number, got (True|False)"):
        load_config(str(path))


@pytest.mark.parametrize("build", [
    lambda: LossRange(start=True, stop=2.0, step=1.0),
    lambda: LossRange(step=True),
    lambda: FrequencyRange(step_ghz=True),
    lambda: FrequencyRange(loss_db=True),
    lambda: FrequencyRange(anchor_high=(4.0, False)),
    lambda: SweepConfig(eps_values=(True,)),
    lambda: SweepConfig(delta_values=(False,)),
    lambda: SweepConfig(f_ec=True),
    lambda: SweepConfig(cond_ceiling=True),
    lambda: ChannelParams(eta_d=True),
    lambda: ChannelParams(loss_db=False),
    lambda: ChannelParams(p_d="0"),
    lambda: ModulationErrors(delta3=False),
], ids=["loss-start", "loss-step", "frequency-step", "frequency-loss", "anchor", "eps",
        "delta", "f_ec", "cond_ceiling", "eta_d", "channel-loss", "p_d-string",
        "modulation-error"])
def test_library_refuses_booleans_as_numbers(build):
    with pytest.raises(ValueError, match="must be a number"):
        build()


def test_key_rate_point_contract():
    assert KeyRatePoint._fields == (
        "coordinate", "eps", "delta", "key_rate", "e_zz", "e_xx", "omega_ref_upper",
        "omega_upper", "zeta_obs", "cond_s", "key_per_second", "error",
    )
    p = _point(1.0, 0.5)
    assert p.key_per_second is None and p.error is None
    with pytest.raises(AttributeError):
        p.key_rate = 0.0
    assert p._replace(key_rate=0.25).key_rate == 0.25 and p.key_rate == 0.5
    assert _point(1.0, math.nan, error="boom").error == "boom"


def test_run_loss_sweep_row_order_and_diagnostics():
    points = loss_table(TINY).rows()
    assert len(points) == 12
    # eps is the outer loop, then delta, then the loss grid
    assert [p.eps for p in points] == [1e-6] * 6 + [1e-7] * 6
    assert [p.delta for p in points[:6]] == [0.0] * 3 + [0.1] * 3
    assert [p.coordinate for p in points[:3]] == [0.0, 1.0, 2.0]
    for p in points:
        assert p.error is None
        assert p.key_rate > 0.0
        assert 0.0 < p.zeta_obs < 1.0
        assert p.cond_s > 1.0
        assert p.key_per_second is None


def test_run_loss_sweep_records_failures_and_continues():
    config = TINY.replace(cond_ceiling=1.0)
    points = loss_table(config).rows()
    assert len(points) == 12
    for p in points:
        assert p.error is not None and "cond" in p.error
        assert math.isnan(p.key_rate)


def test_curve_summaries_cutoff():
    points = [_point(0.0, 1.0), _point(1.0, 0.5), _point(2.0, 0.0)]
    (summary,) = _table(points).summaries()
    assert summary == {"eps": 1e-6, "delta": 0.0, "cutoff": 1.0, "revival": False}


def test_curve_summaries_all_zero_curve():
    (summary,) = _table([_point(0.0, 0.0), _point(1.0, 0.0)]).summaries()
    assert summary["cutoff"] is None


def test_curve_summaries_flags_revival():
    points = [_point(0.0, 1.0), _point(1.0, 0.0), _point(2.0, 0.5)]
    with pytest.warns(UserWarning, match="revival"):
        (summary,) = _table(points).summaries()
    assert summary["revival"] is True
    assert summary["cutoff"] == 2.0


def test_curve_summaries_error_rows_break_the_curve():
    points = [
        _point(0.0, 1.0),
        _point(1.0, float("nan"), error="boom"),
        _point(2.0, 0.5),
    ]
    with pytest.warns(UserWarning, match="revival"):
        (summary,) = _table(points).summaries()
    assert summary["revival"] is True


def _summaries_and_warnings(table):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        summaries = table.summaries()
    return summaries, [str(w.message) for w in caught]


def _assert_summaries_like_the_oracle(table):
    summaries, warned = _summaries_and_warnings(table)
    expected = curve_summaries_by_row(table.rows())
    # repr tells -0.0 from 0.0
    assert repr(summaries) == repr(expected)
    labels = [", ".join(f"{k}={s[k]}" for k in s if k not in ("cutoff", "revival"))
              for s in expected if s["revival"]]
    assert warned == [f"rate revival on curve {label}; cutoff is not trustworthy"
                      for label in labels]


@pytest.mark.parametrize("seed", range(6))
def test_curve_summaries_match_the_curve_by_curve_oracle(seed):
    # curves whose eps order and delta order disagree, a delta that
    # repeats across an eps step in label order, -0.0 and 0.0 as one curve,
    # int and repeated coordinates, error rows, revivals and all-zero
    # curves, in a shuffled table
    rng = np.random.default_rng(seed)
    rows = []
    for eps, delta in [(1e-6, 0.1), (1e-7, 0.1), (1e-7, -0.0), (1e-6, 0.2), (2e-6, 0.2),
                       (1e-7, 0.0)]:
        for coordinate in (0, 1, 2.5, 2.5, 4, 5.0):
            key_rate = float(rng.choice([0.0, 1e-3, 2e-3]))
            error = "all ZZ yields vanish" if rng.random() < 0.15 else None
            rows.append(_point(coordinate, math.nan if error else key_rate, eps=eps,
                               delta=delta, error=error))
    order = rng.permutation(len(rows))
    points = [rows[i] for i in order]
    _assert_summaries_like_the_oracle(_table(points))
    frequency = [p._replace(key_per_second=p.key_rate * 1e9) for p in points]
    _assert_summaries_like_the_oracle(_table(frequency))


@pytest.mark.parametrize("config", [
    TINY.replace(eps_values=(1e-7, 1e-6, 1e-8), delta_values=(0.126, -0.0, 0.0, 1.5),
                 cond_ceiling=1e3, loss_range=LossRange(0.0, 40.0, 0.5),
                 frequency_range=FrequencyRange(0.5, 4.0, 0.25, loss_db=5.0,
                                                anchor_high=(4.0, -4.5))),
    TINY.replace(channel=ChannelParams(p_d=0.0), loss_range=LossRange(2900.0, 3200.0, 50.0),
                 frequency_range=FrequencyRange(0.5, 4.0, 0.25, loss_db=3100.0)),
], ids=["cutoffs", "no-signal"])
def test_sweep_summaries_match_the_curve_by_curve_oracle(config):
    _assert_summaries_like_the_oracle(loss_table(config))
    _assert_summaries_like_the_oracle(frequency_table(config))


def test_emit_table_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    table = _table([_point(0.0, 1.2345678901234e-4)])
    table.write(str(path), "csv", summary=table.summaries())
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "loss_db"
    assert "key_rate" in header and "key_per_second" not in header
    cells = lines[1].split(",")
    assert cells[header.index("key_rate")] == "0.000123456789012"
    assert lines[2].startswith("# summary {")
    payload = json.loads(lines[2].removeprefix("# summary "))
    assert payload["cutoff"] == 0.0 and payload["revival"] is False


def test_emit_table_twelve_digit_rounding(tmp_path):
    path = tmp_path / "t.csv"
    _table([_point(0.0, 1.0 / 3.0)]).write(str(path), "csv")
    lines = path.read_text().splitlines()
    assert len(lines) == 2  # header + the single row
    assert lines[1].split(",")[3] == "0.333333333333"


def test_emit_table_jsonl_round_trip(tmp_path):
    path = tmp_path / "t.jsonl"
    table = loss_table(TINY.replace(eps_values=(1e-6,), delta_values=(0.0,)))
    table.write(str(path), "json-lines", summary=table.summaries())
    points = table.rows()
    lines = path.read_text().splitlines()
    assert len(lines) == len(points) + 1
    for line, p in zip(lines, points):
        row = json.loads(line)
        assert row["loss_db"] == p.coordinate
        assert row["key_rate"] == float(f"{p.key_rate:.12g}")
        assert row["error"] is None
    assert "summary" in json.loads(lines[-1])


def test_emit_table_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        table = loss_table(TINY.replace(eps_values=(1e-6,)))
        table.write(str(path), "csv", summary=table.summaries())
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("mask, message", [
    ([1, 0, 1], "need a boolean mask over the 3 rows, got int64 of shape (3,)"),
    ([True, False], "need a boolean mask over the 3 rows, got bool of shape (2,)"),
    ([[True, False, True]], "need a boolean mask over the 3 rows, got bool of shape (1, 3)"),
    ([False, False, False], "the mask keeps no row"),
], ids=["not-bool", "wrong-length", "wrong-shape", "all-false"])
def test_select_refuses_a_bad_mask(mask, message):
    table = _table([_point(0.0, 1.0), _point(1.0, 0.5), _point(2.0, 0.0)])
    with pytest.raises(ValueError) as exc:
        table.select(mask)
    assert str(exc.value) == message


def test_write_refuses_an_unknown_format_and_creates_no_file(tmp_path):
    with pytest.raises(ValueError, match="^unknown format 'xml'$"):
        _table([_point(0.0, 0.5)]).write(str(tmp_path / "t.xml"), "xml")
    assert os.listdir(tmp_path) == []


def test_emit_table_revalidates_diagnostics(tmp_path):
    bad = KeyRatePoint(0.0, 1e-6, 0.0, -0.1, 0.01, 0.1, 0.0, 0.1, 0.05, 10.0)
    with pytest.raises(ValueError, match="diagnostics"):
        _table([bad]).write(str(tmp_path / "t.csv"), "csv")
    # rows that failed upstream carry NaNs legitimately
    failed = _point(0.0, float("nan"), error="cond(S) too large, aborted")
    out = tmp_path / "t.csv"
    _table([failed]).write(str(out), "csv")
    row = out.read_text().splitlines()[1]
    assert row.startswith("0,") and row.endswith('"cond(S) too large, aborted"')
    # a good row may not carry nan, which only error rows print (as null in JSON)
    for bad in (_point(math.nan, 1.0), _point(0.0, 1.0, eps=math.nan),
                _point(0.0, 1.0)._replace(key_per_second=math.nan)):
        with pytest.raises(ValueError, match="diagnostics"):
            _table([bad]).write(str(tmp_path / "t.jsonl"), "json-lines")


# a value that fails each range check of a good row, then nan in every number
_BAD_FIELDS = [
    ("coordinate", -0.5), ("eps", -1e-300), ("eps", 1.5), ("delta", math.pi / 2),
    ("delta", -2.0), ("key_per_second", -1e-300), ("key_rate", -0.1), ("e_zz", -0.1),
    ("e_zz", 1.5), ("e_xx", -0.1), ("e_xx", 1.5), ("omega_ref_upper", -1e-300),
    ("omega_upper", -0.1), ("omega_upper", 1.5), ("zeta_obs", 0.0), ("cond_s", 0.5),
] + [(name, math.nan) for name in KeyRatePoint._fields[:11]]


def _first_invalid_row(points):
    """The message of the per-row oracle's first refused row, in table order."""
    for p in points:
        try:
            validate_row(p)
        except ValueError as exc:
            return str(exc)
    return None


# only a frequency table carries key_per_second
_BAD_ROWS = [(table, field, value) for table in ("loss", "frequency")
             for field, value in _BAD_FIELDS if table == "frequency" or field != "key_per_second"]


@pytest.mark.parametrize("table, field, value", _BAD_ROWS,
                         ids=[f"{t}-{f}={v!r}" for t, f, v in _BAD_ROWS])
def test_emit_table_refuses_the_first_bad_row_like_the_per_row_oracle(tmp_path, table,
                                                                    field, value):
    # coordinates whose repr needs 17 digits, and an error row, whose nan
    # must pass, in the middle of the table
    good = [_point(0.1 * k, 1e-3) for k in range(1, 8)]
    good[3] = _point(good[3].coordinate, math.nan, error="all ZZ yields vanish")
    if table == "frequency":
        good = [p._replace(key_per_second=p.key_rate * 1e9) for p in good]
    for places in ([0], [2], [4], [6], [2, 5], [5, 6]):
        points = list(good)
        for i in places:
            points[i] = points[i]._replace(**{field: value})
        expected = _first_invalid_row(points)
        assert expected == "invalid diagnostics in row at coordinate " + repr(
            points[places[0]].coordinate)
        with pytest.raises(ValueError) as exc:
            _table(points).write(str(tmp_path / "t"), "csv")
        assert str(exc.value) == expected
        assert not (tmp_path / "t").exists()


def _hand_built_rows():
    nan = math.nan
    loss = [_point(c, 1e-300) for c in LossRange(0, 2, 1).values()]  # int coordinates
    loss += [
        _point(3.0, -0.0, delta=-0.0),
        _point(4.0, nan, error='cond(S) = 1e+30, "aborted",\nsee log'),
        _point(5.0, nan, error="plain message"),
        _point(6.0, nan, error="first line\nsecond line"),
    ]
    frequency = [
        _point(0.5, 1e-300)._replace(key_per_second=5e-292),
        _point(1.0, -0.0)._replace(key_per_second=-0.0),
        _point(1.5, nan, error="all ZZ yields vanish")._replace(key_per_second=nan),
        _point(2.0, nan, error='a, "quoted"\nline')._replace(key_per_second=nan),
    ]
    return loss, frequency


@pytest.mark.parametrize("out_format", ["csv", "json-lines"])
@pytest.mark.parametrize("rows", ["loss", "frequency", "hand-built-loss",
                                  "hand-built-frequency"])
def test_emit_table_matches_per_field_oracle(tmp_path, out_format, rows):
    config = TINY.replace(loss_range=LossRange(0, 2, 1),
                          frequency_range=FrequencyRange(0.5, 4.0, 0.5, loss_db=5.0,
                                                         anchor_high=(4.0, -4.5)))
    if rows.startswith("hand-built"):
        points = _hand_built_rows()[rows == "hand-built-frequency"]
        table = _table(points)
    else:
        table = (loss_table if rows == "loss" else frequency_table)(config)
        points = table.rows()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # hand-built curves revive
        summary = table.summaries()
    path = tmp_path / "table"
    table.write(str(path), out_format, summary=summary)
    assert path.read_bytes() == table_text(points, out_format, summary).encode()


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 7, 10_000])
@pytest.mark.parametrize("out_format", ["csv", "json-lines"])
def test_emit_table_writes_every_line_whatever_the_chunk(tmp_path, monkeypatch, out_format,
                                                         chunk_rows):
    # of 44 rows, the refused delta's error rows are rows 11-21 and 33-43;
    # the kept ones straddle the chunk edges of the selected table
    table = loss_table(TINY.replace(loss_range=LossRange(0.0, 5.0, 0.5),
                                    delta_values=(0.0, 1.5), cond_ceiling=1e3))
    points = table.rows()
    places = np.arange(len(points))
    masks = [places < rows for rows in (1, 2, 3, 20, 43, 44)]
    masks += [places % 3 != 1, (places > 8) & (places < 36), places % 2 == 1]
    monkeypatch.setattr(mdiqkd._g12, "CHUNK_ROWS", chunk_rows)
    for i, mask in enumerate(masks):
        selected = table.select(mask)
        kept = [p for p, keep in zip(points, mask) if keep]
        path = tmp_path / f"t{i}"
        selected.write(str(path), out_format, summary=selected.summaries())
        expected = table_text(kept, out_format, curve_summaries_by_row(kept))
        assert path.read_bytes() == expected.encode()


def test_frequency_sweep_requires_loss():
    with pytest.raises(ValueError, match="loss_db"):
        frequency_table(TINY)


def test_frequency_sweep_per_second_column():
    config = TINY.replace(
        eps_values=(1e-6,),
        delta_values=(0.0,),
        frequency_range=FrequencyRange(1.0, 3.0, 1.0, loss_db=5.0),
    )
    points = frequency_table(config).rows()
    assert [p.coordinate for p in points] == [1.0, 2.0, 3.0]
    for p in points:
        assert p.key_per_second == pytest.approx(p.key_rate * p.coordinate * 1e9)
        assert p.eps == pytest.approx(config.frequency_range.eps_at(p.coordinate))


@settings(max_examples=60, deadline=None)
@given(
    f_low=st.floats(0.01, 5.0),
    f_gap=st.floats(0.01, 5.0),
    lg_low=st.floats(-12.0, 0.0),
    lg_high=st.floats(-12.0, 0.0),
    start=st.floats(0.01, 6.0),
    span=st.floats(0.0, 4.0),
    step=st.floats(0.002, 0.5),
)
def test_frequency_table_eps_are_eps_at_bit_for_bit(f_low, f_gap, lg_low, lg_high, start,
                                                    span, step):
    # the table maps its whole grid at once; every eps keeps the bits of eps_at
    try:
        fr = FrequencyRange(start, start + span, step, loss_db=5.0,
                            anchor_low=(f_low, lg_low), anchor_high=(f_low + f_gap, lg_high))
    except ValueError:  # the map gives eps > 1 at an end of the grid
        assume(False)
    with warnings.catch_warnings():  # an eps near 1 clamps omega_ref_upper
        warnings.simplefilter("ignore", UserWarning)
        table = frequency_table(TINY.replace(delta_values=(0.0,), frequency_range=fr))
    want = np.array([fr.eps_at(f) for f in fr.values()])
    assert table.numbers[1].tobytes() == want.tobytes()


def test_an_s_past_the_rank_tolerance_under_a_lifted_ceiling_gives_error_rows():
    # at pi/4 the 0X state equals the 0Z one up to rounding, so each side's
    # B is singular to working precision (cond(B) 1.9e16) and no key can be
    # certified: every row is an error row, and no curve has a cutoff
    config = SweepConfig(eps_values=(0.0, 1e-6), delta_values=(0.7853981633974483,),
                         cond_ceiling=1e300, loss_range=LossRange(0.0, 10.0, 5.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no omega_ref_upper clamp either
        table = loss_table(config)
    assert table.errors == ["cond(S) = inf exceeds ceiling 1.000e+300"] * 6
    assert np.isnan(table.numbers[3:]).all()
    assert [s["cutoff"] for s in table.summaries()] == [None, None]


def test_a_singular_s_under_a_lifted_ceiling_gives_error_rows(monkeypatch):
    # a set whose 0X state is its 0Z state has two equal rows in each
    # side's B, which is singular. Under a lifted ceiling the table refuses
    # that delta's set and evaluates the other
    reference_amplitudes = mdiqkd.sweep.reference_amplitudes

    def with_a_repeated_state(deltas):
        amps = reference_amplitudes(deltas)
        amps[1, 2] = amps[1, 0]
        return amps

    monkeypatch.setattr(mdiqkd.sweep, "reference_amplitudes", with_a_repeated_state)
    config = TINY.replace(delta_values=(0.0, 0.3), cond_ceiling=1e300)
    table = loss_table(config)
    delta_rows = table.numbers[2] == 0.3
    assert set(compress(table.errors, delta_rows.tolist())) == {
        "cond(S) = inf exceeds ceiling 1.000e+300"}
    assert table.good[~delta_rows].all()


def test_tables_build_no_state_objects(monkeypatch):
    # a table builds its reference sets as one amplitude array: with
    # ModulationErrors unusable once the config is built, both tables still run
    config = TINY.replace(frequency_range=FrequencyRange(1.0, 3.0, 1.0, loss_db=5.0))
    want = [loss_table(config).numbers, frequency_table(config).numbers]

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"a table built a {type(self).__name__}")

    monkeypatch.setattr(ModulationErrors, "__init__", refuse)
    with pytest.raises(AssertionError, match="built a ModulationErrors"):
        ModulationErrors(1.0, 0.0)
    got = [loss_table(config).numbers, frequency_table(config).numbers]
    for table_got, table_want in zip(got, want):
        assert table_got.tobytes() == table_want.tobytes()


def test_tables_take_no_kronecker_product_and_no_inverse(monkeypatch, tmp_path):
    # a table's setup comes from the two 3x3 sides of S in closed form and
    # the relay's closed-form rates, whose elements a test checks once:
    # neither np.kron nor any np.linalg routine is on its path, from the
    # config file to the written table
    def refuse(*args, **kwargs):
        raise AssertionError("a table called np.kron or np.linalg")

    config = SweepConfig(eps_values=(1e-6, 1e-7), delta_values=tuple(np.linspace(0.0, 0.3, 16)),
                         loss_range=LossRange(0.0, 12.0, 1.0),
                         frequency_range=FrequencyRange(0.1, 4.0, 0.3, loss_db=5.0))
    path = tmp_path / "config.yaml"
    path.write_text("sweep:\n  delta: [0.0, 0.126]\n  frequency: {loss_db: 5.0}\n")

    def tables(label):
        for sweep in ("loss", "frequency"):
            out = str(tmp_path / f"{label}-{sweep}")
            assert main(["--config", str(path), "--sweep", sweep, "--out", out]) == 0
        return [loss_table(config).numbers, frequency_table(config).numbers]

    want = tables("want")
    monkeypatch.setattr(np, "kron", refuse)
    for name in ("inv", "svd", "solve", "eigvalsh", "eigh", "cond", "matrix_rank", "det"):
        monkeypatch.setattr(np.linalg, name, refuse)
    got = tables("got")
    assert got[0].shape == (11, 2 * 16 * 13) and got[1].shape == (11, 16 * 14)
    for table_got, table_want in zip(got, want):
        assert table_got.tobytes() == table_want.tobytes()
    for sweep in ("loss", "frequency"):
        got_file, want_file = tmp_path / f"got-{sweep}", tmp_path / f"want-{sweep}"
        assert got_file.read_bytes() == want_file.read_bytes()


def test_tables_build_no_povm_element(monkeypatch, tmp_path):
    # the relay enters a table as closed-form rates only: no 4x4 element
    # is built, or checked, on either axis
    built = []
    povm = mdiqkd.channel.BsmPovm
    monkeypatch.setattr(mdiqkd.channel, "BsmPovm", lambda m: built.append(m) or povm(m))
    path = tmp_path / "config.yaml"
    path.write_text("sweep:\n  delta: [0.0, 0.126]\n  frequency: {loss_db: 5.0}\n")
    for sweep in ("loss", "frequency"):
        out = str(tmp_path / f"{sweep}.csv")
        assert main(["--config", str(path), "--sweep", sweep, "--out", out]) == 0
    assert built == []


def test_emit_table_names_the_frequency_axis_from_the_rows(tmp_path):
    config = TINY.replace(
        delta_values=(0.0,),
        frequency_range=FrequencyRange(1.0, 2.0, 1.0, loss_db=5.0),
    )
    path = tmp_path / "f.csv"
    frequency_table(config).write(str(path), "csv")
    header = path.read_text().splitlines()[0].split(",")
    assert header[0] == "frequency_ghz"
    assert "key_per_second" in header and "loss_db" not in header


def test_frequency_summaries_group_by_delta():
    config = TINY.replace(
        eps_values=(1e-6,),
        frequency_range=FrequencyRange(1.0, 3.0, 1.0, loss_db=5.0),
    )
    summaries = frequency_table(config).summaries()
    # eps varies along the axis, so it cannot label a curve
    assert [set(s) for s in summaries] == [{"delta", "cutoff", "revival"}] * 2
    assert [s["delta"] for s in summaries] == [0.0, 0.1]
    assert all(s["cutoff"] == 3.0 for s in summaries)


def test_frequency_sweep_flat_map_scales_with_clock():
    # with both anchors at the same eps the per-pair rate is constant,
    # so the per-second rate must grow linearly with frequency
    config = TINY.replace(
        eps_values=(1e-6,),
        delta_values=(0.0,),
        frequency_range=FrequencyRange(
            1.0, 3.0, 0.5, loss_db=5.0, anchor_high=(4.0, -9.0)
        ),
    )
    points = frequency_table(config).rows()
    rates = [p.key_rate for p in points]
    assert max(rates) - min(rates) < 1e-15
    per_second = [p.key_per_second for p in points]
    assert all(a < b for a, b in zip(per_second, per_second[1:]))


# batched rows must agree with the per-point README chain to this
# relative tolerance; the two differ only in summation order
PIN_REL = 1e-9


def _scalar_row(config, channel, coordinate, eps_value, delta, per_second):
    """One table row through the README quick-start chain, point by point.

    f_obj is the one-set stack's under the config's ceiling, where the
    quick start's build_estimation_inputs takes the default one.
    """
    deltas = ModulationErrors(delta, delta, delta)
    ref = [make_reference_state(s, deltas) for s in SETTINGS]
    povm = build_bsm_povm(channel)
    yields = reference_yields(build_S_matrix(ref, ref), transmission_rates(povm))
    sifting = channel.p_za * channel.p_zb if config.include_sifting else None
    try:
        *_, (f_obj,), (error,) = build_estimation_stack([ref], [ref], config.cond_ceiling)
        if error is not None:
            raise error
        inputs = EstimationInputs(yields, SideChannelParams.uniform(eps_value), f_obj)
        r = estimate(inputs, f_ec=config.f_ec, sifting_prefactor=sifting)
    except (EstimationError, DegenerateInputError) as exc:
        nan = math.nan
        return KeyRatePoint(coordinate, eps_value, delta, nan, nan, nan, nan, nan,
                            nan, nan, key_per_second=nan if per_second else None,
                            error=str(exc))
    return KeyRatePoint(
        coordinate, eps_value, delta, r.key_rate, r.e_zz, r.e_xx, r.omega_ref_upper,
        r.omega_upper, r.zeta_obs, np.linalg.cond(build_S_matrix(ref, ref)),
        key_per_second=r.key_rate * coordinate * 1e9 if per_second else None,
    )


def _assert_pinned(table, expected):
    points = table.rows()
    assert len(points) == len(expected)
    for got, want in zip(points, expected):
        # repr tells -0.0 from 0.0
        assert repr(got[:3]) == repr(want[:3])
        assert got.error == want.error
        if want.error is not None:
            assert math.isnan(got.key_rate) and math.isnan(got.cond_s)
            continue
        assert (got.key_rate > 0.0) == (want.key_rate > 0.0)
        for name in ("key_rate", "e_zz", "e_xx", "omega_ref_upper", "omega_upper",
                     "zeta_obs", "cond_s", "key_per_second"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a is None) == (b is None), name
            assert a is None or math.isclose(a, b, rel_tol=PIN_REL, abs_tol=0.0), (
                name, got.coordinate, a, b)
    assert table.summaries() == curve_summaries_by_row(expected)


def _expected_loss_rows(config):
    return [
        _scalar_row(config, config.channel.replace(loss_db=loss), loss, e, d, False)
        for e in config.eps_values for d in config.delta_values
        for loss in config.loss_range.values()
    ]


@pytest.mark.parametrize("config", [
    # eps = 0 and eps = 1, curves that cross their cutoff inside the grid
    TINY.replace(eps_values=(0.0, 1e-6, 1.0), delta_values=(0.0, 0.126),
                 loss_range=LossRange(0.0, 14.0, 0.5)),
    # delta = 1.5 has cond(S) ~ 1.6e3: all its rows are error rows
    TINY.replace(delta_values=(0.0, 1.5), cond_ceiling=1e3),
    # no photons and no dark counts: every point raises NoSignalError
    TINY.replace(channel=ChannelParams(eta_d=0.0, p_d=0.0)),
    # no dark counts and eta_arm^2 underflowing to 0 beyond ~3200 dB: only
    # the far end of each curve raises NoSignalError
    TINY.replace(channel=ChannelParams(p_d=0.0), loss_range=LossRange(0.0, 4000.0, 500.0)),
    # a delta 1.4e-7 short of pi/2 (cond(S) 3.7e14) passes a lifted ceiling
    # but collapses a virtual state: only its rows are error rows
    TINY.replace(delta_values=(0.0, 1.5707961867948965), cond_ceiling=1e300),
    # no dark counts again, where zeta_obs is subnormal and then vanishes:
    # a subnormal zeta_obs counts as no signal
    TINY.replace(channel=ChannelParams(p_d=0.0), loss_range=LossRange(3150.0, 3250.0, 5.0)),
    # the same channel across 3051 dB, where zeta_obs leaves the normal floats
    TINY.replace(channel=ChannelParams(p_d=0.0), loss_range=LossRange(3000.0, 3100.0, 5.0)),
    # at pi/4 the 0X state equals the 0Z one and S is singular (cond ~1e17)
    # under the default ceiling: only that delta's rows are error rows
    TINY.replace(delta_values=(0.0, 0.1, math.pi / 4)),
    # a delta listed twice repeats its rows
    TINY.replace(delta_values=(0.1, 0.0, 0.1)),
    # -0.0 and 0.0 are evaluated apart, and each row keeps the delta it was given
    TINY.replace(delta_values=(-0.0, 0.1, 0.0)),
    # a refused delta, listed twice, around an accepted one
    TINY.replace(delta_values=(1.5, 0.0, 1.5), cond_ceiling=1e3),
], ids=["eps-range", "cond-ceiling", "no-signal", "signal-underflow", "degenerate-delta",
        "denormal-yields", "subnormal-boundary", "singular-delta", "duplicate-deltas",
        "negative-zero-delta", "refused-duplicate-delta"])
def test_loss_sweep_matches_scalar_chain(config):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # omega_ref_upper clamps at eps = 1
        table = loss_table(config)
        expected = _expected_loss_rows(config)
    _assert_pinned(table, expected)
    points = table.rows()
    errors = {p.error for p in points}
    if config.cond_ceiling == 1e3:
        assert all(("cond" in p.error) == (p.delta == 1.5) for p in points
                   if p.error is not None) and len(errors) == 2
    if config.cond_ceiling == 1e300:
        assert all((p.error is None) == (p.delta == 0.0) for p in points)
        assert errors == {None, "virtual state for outcome (1,1) has zero trace"}
    if math.pi / 4 in config.delta_values:
        assert all((p.error is None) == (p.delta != math.pi / 4) for p in points)
        assert all("exceeds ceiling" in p.error for p in points if p.error is not None)
        # the other deltas' rows are those of a sweep without pi/4, bit for bit
        assert [p for p in points if p.delta != math.pi / 4] == loss_table(
            config.replace(delta_values=(0.0, 0.1))).rows()
    if config.channel.eta_d == 0.0 or config.loss_range.start == 3150.0:
        assert errors == {"all ZZ yields vanish"}
    elif config.channel.p_d == 0.0:
        assert errors == {None, "all ZZ yields vanish"}
        last = 3000.0 if config.loss_range.stop == 4000.0 else 3050.0
        assert all((p.error is None) == (p.coordinate <= last) for p in points)
        assert all(p.zeta_obs >= sys.float_info.min for p in points if p.error is None)


def test_denormal_yields_sweep_is_warning_free():
    config = TINY.replace(channel=ChannelParams(p_d=0.0),
                          loss_range=LossRange(3150.0, 3250.0, 5.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss_table(config)


def _counted_blocks(monkeypatch):
    """The list to which each later core call of a sweep appends its rows."""
    sizes = []

    def counting_core(yields, eps, *args):
        # a block's rows: its yields and eps broadcast, but for the nine pairs
        sizes.append(math.prod(np.broadcast_shapes(yields.shape[:-1], eps.shape[:-1])))
        return _estimate_core(yields, eps, *args)

    monkeypatch.setattr(mdiqkd.sweep, "_estimate_core", counting_core)
    return sizes


@pytest.mark.parametrize("config, batches, n_silent", [
    # clean: one block for the whole table
    (TINY, [12], 0),
    # delta 1.5 is refused and stays out of the core
    (TINY.replace(delta_values=(0.0, 1.5), cond_ceiling=1e3), [6], 0),
    # no signal anywhere: the one block gives error rows only
    (TINY.replace(channel=ChannelParams(eta_d=0.0, p_d=0.0)), [12], 12),
    # the 8001 points of the one curve and delta go in five even blocks of
    # at most BATCH_ROWS = 1820; the 1899 rows without signal (zeta_obs
    # subnormal or 0 beyond 3050.5 dB) are the last 299 of the fourth
    # block and all of the fifth
    (SweepConfig(channel=ChannelParams(p_d=0.0), loss_range=LossRange(0.0, 4000.0, 0.5)),
     [1601, 1600, 1600, 1600, 1600], 1899),
], ids=["clean", "cond-ceiling", "no-signal", "signal-ends"])
def test_sweep_runs_one_batch_per_failing_check(monkeypatch, config, batches, n_silent):
    # a failing check runs no block again: one core call per block, as
    # few as the rows need
    sizes = _counted_blocks(monkeypatch)
    points = loss_table(config).rows()
    assert sizes == batches
    assert len(sizes) == -(-sum(sizes) // mdiqkd.sweep.BATCH_ROWS)
    silent = [p for p in points if p.error == NO_SIGNAL]
    assert len(silent) == n_silent
    assert all(math.isnan(p.key_rate) and math.isnan(p.cond_s) for p in silent)


def test_batches_keep_every_row_in_its_place(monkeypatch):
    # a refused delta, and rows without signal beyond 3050 dB, spread over
    # many small blocks give the rows of one block, bit for bit
    config = TINY.replace(channel=ChannelParams(p_d=0.0), delta_values=(0.0, 1.5, 0.126),
                          cond_ceiling=1e3, loss_range=LossRange(0.0, 4000.0, 500.0))
    whole = loss_table(config).rows()
    sizes = _counted_blocks(monkeypatch)
    monkeypatch.setattr(mdiqkd.sweep, "BATCH_ROWS", 5)
    assert [repr(p) for p in loss_table(config).rows()] == [repr(p) for p in whole]
    # 36 rows of the two accepted deltas in eight blocks, one core call
    # each, rows without signal included: each curve and delta alone, its
    # nine points split 5 + 4
    assert sizes == [5, 4, 5, 4, 5, 4, 5, 4]
    assert sum(p.error == NO_SIGNAL for p in whole) > 0


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(0, 6), st.integers(1, 60), st.integers(1, 400))
@example(1, 3, 1000, 1820)  # an even split of the outer axis alone gives 2000-cell blocks
def test_blocks_tile_the_grid_within_the_limit(curves, deltas, points, limit):
    shape = (curves, deltas, points)
    covered = np.zeros(shape, dtype=int)
    for block in mdiqkd.sweep._blocks(shape, limit):
        assert covered[block].size <= limit
        covered[block] += 1
    # disjoint, and every cell in one block
    assert np.all(covered == 1)


def test_blocks_over_curves_and_deltas_keep_every_row_in_its_place(monkeypatch):
    # three eps and two accepted deltas beside a refused one, four points:
    # blocks of at most three rows split the curve and the delta axes too
    config = TINY.replace(eps_values=(1e-6, 1e-7, 1e-5), delta_values=(0.0, 1.5, 0.126),
                          cond_ceiling=1e3, loss_range=LossRange(0.0, 3.0, 1.0))
    whole = loss_table(config).rows()
    sizes = _counted_blocks(monkeypatch)
    monkeypatch.setattr(mdiqkd.sweep, "BATCH_ROWS", 3)
    assert [repr(p) for p in loss_table(config).rows()] == [repr(p) for p in whole]
    assert sizes == [2] * 12
    assert sum(p.error is not None for p in whole) == 12


def test_clamp_warning_beside_a_refused_delta_names_a_number():
    # eps 1 clamps omega_ref_upper; the refused pi/4 (nan f_obj) stays out
    # of the core, so the warning's worst value is no nan
    config = TINY.replace(eps_values=(1.0, 1e-6), delta_values=(0.0, math.pi / 4, 0.126))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = loss_table(config)
    worst = [re.fullmatch(r"omega_ref_upper = (.*) clamped to 1", str(w.message))
             for w in caught]
    assert worst and all(worst)
    assert all(math.isfinite(float(m[1])) for m in worst)
    assert sum(e is not None for e in table.errors) == 6


def test_a_clamped_table_warns_once_naming_its_worst_value(monkeypatch):
    # eps 1 clamps omega_ref_upper on every row of its curve: however many
    # blocks the core takes the table in, one warning names the table's worst
    config = TINY.replace(eps_values=(1.0, 1e-6), delta_values=(0.0, 0.126, 0.3),
                          loss_range=LossRange(0.0, 10.0, 1.0),
                          frequency_range=FrequencyRange(0.1, 4.0, 0.3, loss_db=5.0,
                                                         anchor_low=(0.1, -2.0),
                                                         anchor_high=(4.0, 0.0)))

    def clamp_warnings(build):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            table = build(config)
        worst = float(np.max(table.numbers[6]))
        assert worst > 1.0
        return [str(w.message) for w in caught], f"omega_ref_upper = {worst!r} clamped to 1"

    for batch_rows in (mdiqkd.sweep.BATCH_ROWS, 4):
        monkeypatch.setattr(mdiqkd.sweep, "BATCH_ROWS", batch_rows)
        for build in (loss_table, frequency_table):
            messages, want = clamp_warnings(build)
            assert messages == [want]


_FREQUENCY_MAP = FrequencyRange(0.5, 4.0, 0.25, loss_db=5.0, anchor_high=(4.0, -4.5))


def _expected_frequency_rows(config):
    fr = config.frequency_range
    channel = config.channel.replace(loss_db=fr.loss_db)
    return [_scalar_row(config, channel, f, fr.eps_at(f), d, True)
            for d in config.delta_values for f in fr.values()]


def test_frequency_sweep_matches_scalar_chain():
    config = TINY.replace(delta_values=(0.0, 0.126), include_sifting=True,
                          frequency_range=_FREQUENCY_MAP)
    table = frequency_table(config)
    _assert_pinned(table, _expected_frequency_rows(config))
    # the map drives both curves through their cutoff
    assert all(s["cutoff"] is not None and s["cutoff"] < 4.0 for s in table.summaries())


def test_frequency_sweep_without_signal_matches_scalar_chain():
    # no dark counts at 3100 dB: zeta_obs is subnormal at every frequency,
    # so every row is an error row
    config = TINY.replace(channel=ChannelParams(p_d=0.0),
                          frequency_range=_FREQUENCY_MAP.replace(loss_db=3100.0))
    table = frequency_table(config)
    _assert_pinned(table, _expected_frequency_rows(config))
    points = table.rows()
    assert {p.error for p in points} == {"all ZZ yields vanish"}
    assert all(math.isnan(p.key_per_second) for p in points)
    assert [s["cutoff"] for s in table.summaries()] == [None, None]


def _rows_one_by_one(config, sweep, table):
    """The table's rows built one by one with the table_row oracle.

    Each row's coordinate, eps and delta come from the config, curve
    outermost, then delta as listed, then the coordinate; its cond(S) and
    its six estimated numbers, or its error message, from the table.
    """
    if sweep == "loss":
        coordinates = config.loss_range.values()
        eps_rows = [[e] * len(coordinates) for e in config.eps_values]
    else:
        fr = config.frequency_range
        coordinates = fr.values()
        eps_rows = [[fr.eps_at(f) for f in coordinates]]
    places = [(c, e, d) for eps_row in eps_rows for d in config.delta_values
              for c, e in zip(coordinates, eps_row)]
    return [table_row(c, e, d, column[9], column[3:9] if error is None else error,
                      sweep == "frequency")
            for (c, e, d), column, error in zip(places, table.numbers.T.tolist(),
                                                table.errors, strict=True)]


@pytest.mark.parametrize("sweep", ["loss", "frequency"])
@pytest.mark.parametrize("config", [
    TINY.replace(frequency_range=_FREQUENCY_MAP),
    TINY.replace(delta_values=(0.1, -0.0, 0.1, 0.0), frequency_range=_FREQUENCY_MAP),
    TINY.replace(delta_values=(1.5, 0.0, 1.5), cond_ceiling=1e3,
                 frequency_range=_FREQUENCY_MAP),
    # rows without signal beyond 3050 dB, among rows with signal
    TINY.replace(channel=ChannelParams(p_d=0.0), delta_values=(0.126, 0.0),
                 loss_range=LossRange(2900.0, 3200.0, 50.0),
                 frequency_range=_FREQUENCY_MAP.replace(loss_db=3050.5)),
], ids=["clean", "repeated-deltas", "refused-delta", "no-signal"])
def test_rows_match_the_row_by_row_builder_bit_for_bit(config, sweep):
    table = (loss_table if sweep == "loss" else frequency_table)(config)
    points = table.rows()
    assert all(type(p) is KeyRatePoint for p in points)
    assert [repr(tuple(p)) for p in points] == [
        repr(r) for r in _rows_one_by_one(config, sweep, table)]


@pytest.mark.parametrize("make_table", [loss_table, frequency_table])
def test_a_repeated_delta_gives_the_bits_of_its_first_listing(make_table):
    # 0.1 is listed twice and 0.0 after -0.0; each listing is evaluated on
    # its own, and every number but the delta must keep the bits of the
    # first listing's rows
    config = TINY.replace(delta_values=(0.1, -0.0, 0.1, 0.0), frequency_range=_FREQUENCY_MAP)
    table = make_table(config)
    n_curves = len(config.eps_values) if make_table is loss_table else 1
    # rows: curve outermost, then delta as listed, then the coordinate
    bits = table.numbers.view(np.uint64).reshape(11, n_curves, 4, -1)
    errors = np.array(table.errors, dtype=object).reshape(n_curves, 4, -1)
    assert table.good.all()
    for again, first in [(2, 0), (3, 1)]:
        for row in [0, 1, *range(3, 11)]:
            assert np.array_equal(bits[row, :, again], bits[row, :, first]), (again, row)
        assert (errors[:, again] == errors[:, first]).all()
    # each listing keeps the delta it was given, -0.0 included
    deltas = table.numbers[2].reshape(n_curves, 4, -1)[0, :, 0].tolist()
    assert [repr(d) for d in deltas] == ["0.1", "-0.0", "0.1", "0.0"]


@settings(max_examples=40, deadline=None)
@given(
    lg_eps=st.floats(min_value=-10.0, max_value=-4.0),
    delta=st.floats(min_value=-0.3, max_value=0.3),
    eta_d=st.floats(min_value=0.05, max_value=1.0),
    lg_p_d=st.floats(min_value=-8.0, max_value=-3.0),
    e_d=st.floats(min_value=0.0, max_value=0.05),
)
def test_rate_nonincreasing_in_loss(lg_eps, delta, eta_d, lg_p_d, e_d):
    config = SweepConfig(
        channel=ChannelParams(eta_d=eta_d, p_d=10.0**lg_p_d, e_d=e_d),
        eps_values=(10.0**lg_eps,),
        delta_values=(delta,),
        loss_range=LossRange(0.0, 60.0, 0.25),
    )
    rates = [p.key_rate for p in loss_table(config).rows()]
    assert all(b <= a for a, b in zip(rates, rates[1:]))


# the flags of CONFIG_KEYS, in their order
_FLAGS = [flag for *_, flag, _ in CONFIG_KEYS.values() if flag]


def test_cli_flags_set_their_config_keys(tmp_path, capsys, monkeypatch):
    # each generated flag reaches load_config under its dotted key, as the
    # text its key's parser reads; a list flag drops its empty entries
    configs = _recorded_configs(monkeypatch)
    out = tmp_path / "rates.jsonl"
    argv = ["--eps", "1e-6,,1e-7", "--delta", "0.0", "--loss-start", "1", "--loss-stop", "2",
            "--loss-step", "0.5", "--out", str(out), "--format", "json-lines"]
    assert argv[::2] == _FLAGS
    assert main(argv) == 0
    [config] = configs
    assert config.eps_values == (1e-6, 1e-7)
    assert config.delta_values == (0.0,)
    assert config.loss_range == LossRange(1.0, 2.0, 0.5)
    assert (config.out_path, config.out_format) == (str(out), "json-lines")
    assert capsys.readouterr().out == f"wrote 6 rows to {out}\n"
    # two curves of three points, then one summary per curve
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(lines) == 8
    assert sorted(line["summary"]["eps"] for line in lines[6:]) == [1e-7, 1e-6]


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--eps", "1e-6", "--help", "--bogus"],
                                  ["--bogus", "--help"], ["--eps", "--help"]],
                         ids=["help", "h", "among-other-flags", "after-an-unknown-flag",
                              "in-a-flags-value-place"])
def test_cli_help_names_every_flag_of_the_schema(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # the default output path is sweep.csv
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.startswith("usage: mdiqkd-sweep [-h] ")
    usage = captured.out.splitlines()[0]
    assert re.findall(r"\[(--[\w-]+)", usage) == ["--config", "--sweep", *_FLAGS]
    assert list(build_parser()) == ["--config", "--sweep", *_FLAGS]
    for key, (*_, flag, _) in CONFIG_KEYS.items():
        if flag:
            assert f"sets {key}\n" in captured.out
    assert os.listdir(tmp_path) == []


def _recorded_configs(monkeypatch):
    """The configs that main builds, recorded as load_config returns them."""
    configs = []

    def recording_load(path, overrides):
        configs.append(load_config(path, overrides))
        return configs[-1]

    monkeypatch.setattr(mdiqkd.cli, "load_config", recording_load)
    return configs


def test_cli_reads_a_flag_and_its_value_as_one_token_or_two(tmp_path, capsys, monkeypatch):
    configs = _recorded_configs(monkeypatch)
    pairs = [("--eps", "1e-6,,1e-7"), ("--delta", "0.0,0.1"), ("--loss-start", "1"),
             ("--loss-stop", "2"), ("--loss-step", "0.5"), ("--out", str(tmp_path / "t.csv")),
             ("--format", "json-lines")]
    assert [flag for flag, _ in pairs] == _FLAGS
    assert main([token for pair in pairs for token in pair]) == 0
    assert main([f"{flag}={value}" for flag, value in pairs]) == 0
    # a value may itself hold "=", and a list flag splits after the first "="
    assert main(["--out=" + str(tmp_path / "a=b.csv"), "--eps=1e-6,1e-7"]) == 0
    first, second, third = configs
    assert first == second and hash(first) == hash(second)
    assert first.eps_values == (1e-6, 1e-7) and first.loss_range == LossRange(1.0, 2.0, 0.5)
    assert third.out_path == str(tmp_path / "a=b.csv") and third.eps_values == (1e-6, 1e-7)
    assert capsys.readouterr().err == ""


def test_cli_keeps_the_last_value_of_a_repeated_flag(tmp_path, capsys, monkeypatch):
    configs = _recorded_configs(monkeypatch)
    out = tmp_path / "t.csv"
    argv = ["--eps", "1e-6,1e-7", "--loss-stop", "3", "--eps=1e-8", "--loss-stop", "1",
            "--sweep", "frequency", "--sweep", "loss", "--out", str(tmp_path / "x.csv"),
            "--out", str(out)]
    assert main(argv) == 0
    [config] = configs
    assert config.eps_values == (1e-8,) and config.loss_range == LossRange(0.0, 1.0, 0.1)
    assert capsys.readouterr().out == f"wrote 11 rows to {out}\n"
    assert os.listdir(tmp_path) == ["t.csv"]


def test_cli_reads_no_argv_as_the_process_arguments(tmp_path, capsys, monkeypatch):
    # the console script calls main() without arguments
    out = tmp_path / "t.csv"
    monkeypatch.setattr(sys, "argv", ["mdiqkd-sweep", "--loss-stop", "1", "--out", str(out)])
    assert main() == 0
    assert capsys.readouterr().out == f"wrote 11 rows to {out}\n"


@pytest.mark.parametrize("flags, message", [
    (["--eps", "1e-6,abc"], "sweep.eps must be a list of numbers, got ['1e-6', 'abc']"),
    (["--delta", "0,0.1rad"], "sweep.delta must be a list of numbers, got ['0', '0.1rad']"),
    (["--format", "xml"], "output.format must be csv or json-lines, got 'xml'"),
    (["--loss-start", "abc"], "sweep.loss.start must be a number, got 'abc'"),
    (["--loss-step", ""], "sweep.loss.step must be a number, got ''"),
    # -h is a value here, not a request for help
    (["--delta", "-h"], "sweep.delta must be a list of numbers, got ['-h']"),
    # 2 eps x a 600001-point loss grid
    (["--eps", "1e-6,1e-7", "--loss-stop", "600000", "--loss-step", "1"],
     f"sweep table exceeds {MAX_TABLE_ROWS} rows"),
], ids=["eps", "delta", "format", "loss-start", "loss-step-empty", "delta-h", "too-many-rows"])
def test_cli_refuses_a_bad_flag_value_with_one_json_line(tmp_path, capsys, monkeypatch,
                                                         flags, message):
    def no_table(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(mdiqkd.cli, "loss_table", no_table)
    out = tmp_path / "x.csv"
    assert main([*flags, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert json.loads(captured.err) == {"error": "ValueError", "message": message}
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--eps"], "--eps needs a value"),
    (["--out", "x.csv", "--eps"], "--eps needs a value"),
    (["--epsilon", "1e-6"], "unknown flag '--epsilon'"),
    (["--epsilon=1e-6"], "unknown flag '--epsilon'"),
    (["-e", "1e-6"], "unknown flag '-e'"),
    (["--form", "csv"], "unknown flag '--form'"),
    (["rates.csv"], "unexpected argument 'rates.csv'"),
    (["--eps", "1e-6", "1e-7"], "unexpected argument '1e-7'"),
    (["--sweep", "time"], "--sweep must be loss or frequency, got 'time'"),
], ids=["missing-value", "missing-last-value", "unknown-flag", "unknown-flag-with-value",
        "short-flag", "abbreviated-flag", "positional", "stray-value", "unknown-axis"])
def test_cli_refuses_a_malformed_command_line_with_one_json_line(tmp_path, capsys,
                                                                 monkeypatch, argv, message):
    def no_work(*args, **kwargs):
        raise AssertionError("the config was loaded")

    monkeypatch.setattr(mdiqkd.cli, "load_config", no_work)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "t.csv"
    assert main(["--out", str(out), *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert json.loads(captured.err) == {"error": "ValueError", "message": message}
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [["--loss-start", "-1"], ["--loss-start=-1"]],
                         ids=["two-tokens", "one-token"])
def test_cli_reads_a_negative_number_as_a_value(tmp_path, capsys, argv):
    # "-1" is no flag: it reaches the config's check
    out = tmp_path / "t.csv"
    assert main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert json.loads(captured.err) == {"error": "ValueError",
                                        "message": "loss grid must start at >= 0 dB"}
    assert not out.exists()


def test_cli_loss_sweep_writes_table(tmp_path, capsys):
    out = tmp_path / "rates.csv"
    rc = main([
        "--eps", "1e-6", "--delta", "0.0",
        "--loss-start", "0", "--loss-stop", "1", "--loss-step", "0.5",
        "--out", str(out), "--format", "csv",
    ])
    assert rc == 0
    assert "wrote 3 rows" in capsys.readouterr().out
    assert out.exists()
    assert out.read_text().splitlines()[0].startswith("loss_db,")


def test_cli_frequency_without_loss_fails_with_json_error(capsys):
    rc = main(["--sweep", "frequency"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "loss_db" in err["message"]


def test_cli_missing_config_fails_cleanly(tmp_path, capsys):
    rc = main(["--config", str(tmp_path / "nope.yaml")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFoundError"


@pytest.mark.parametrize("given_by, out", [
    ("flag", "missing-directory"), ("config", "missing-directory"), ("flag", "empty"),
    ("flag", "directory"), ("config", "number"),
], ids=["flag", "config", "flag-empty", "flag-directory", "config-number"])
def test_cli_refuses_a_missing_output_directory_before_any_table(tmp_path, capsys,
                                                                  monkeypatch, given_by, out):
    def no_table(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(mdiqkd.cli, "loss_table", no_table)
    missing = tmp_path / "nodir"
    path, error, message = {
        "missing-directory": (str(missing / "x.csv"), "FileNotFoundError",
                              f"output directory {str(missing)!r} does not exist"),
        "empty": ("", "ValueError", "output.path must be a non-empty string, got ''"),
        "directory": (str(tmp_path), "IsADirectoryError",
                      f"output path {str(tmp_path)!r} is a directory"),
        "number": (5, "ValueError", "output.path must be a non-empty string, got 5"),
    }[out]
    argv = ["--eps", "1e-6", "--loss-start", "0", "--loss-stop", "1", "--loss-step", "0.5"]
    if given_by == "flag":
        argv += ["--out", path]
    else:
        config_path = tmp_path / "config.yaml"
        config_path.write_text(f"output: {{path: {path}}}\n")
        argv += ["--config", str(config_path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert json.loads(captured.err) == {"error": error, "message": message}
    assert not missing.exists()


def test_cli_start_up_and_csv_run_leave_json_unimported(tmp_path):
    # json is imported only for JSON-lines error messages and the error report
    code = (
        "import sys\n"
        "import mdiqkd.cli\n"
        "assert 'json' not in sys.modules, 'import'\n"
        "assert mdiqkd.cli.main(['--eps', '1e-6', '--loss-start', '0', '--loss-stop', '1',\n"
        f"                        '--loss-step', '0.5', '--out', {str(tmp_path / 't.csv')!r}]) == 0\n"
        "assert 'json' not in sys.modules, 'run'\n"
    )
    src = os.path.dirname(os.path.dirname(mdiqkd.sweep.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "t.csv").exists()


def test_cli_start_up_and_run_leave_argparse_and_dataclasses_unimported(tmp_path):
    # numpy loads first, as in any run; the command line and the config
    # file then add neither a parser library nor dataclasses
    config = tmp_path / "config.yaml"
    config.write_text("sweep: {eps: [1.0e-6], loss: {start: 0.0, stop: 1.0, step: 0.5}}\n")
    out = "--out=" + str(tmp_path / "t.csv")
    code = (
        "import sys\n"
        "import numpy\n"
        "names = {'argparse', 'gettext', 'locale', 'dataclasses', 'copy'}\n"
        "before = names & set(sys.modules)\n"
        "import mdiqkd.cli\n"
        f"argv = ['--config', {str(config)!r}, '--delta', '0,0.1', {out!r}]\n"
        "assert mdiqkd.cli.main(argv) == 0\n"
        "print(sorted(names & set(sys.modules) - before))\n"
    )
    src = os.path.dirname(os.path.dirname(mdiqkd.sweep.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "t.csv").read_text().count("\n") == 6 + 1 + 2


def test_no_class_of_the_package_is_a_dataclass():
    # the value types and the config records are plain slotted classes: a
    # dataclass generates and compiles its methods at every import
    found = set()
    for info in pkgutil.walk_packages(mdiqkd.__path__, "mdiqkd."):
        module = importlib.import_module(info.name)
        found.update(name for name, obj in vars(module).items()
                     if isinstance(obj, type) and obj.__module__ == module.__name__
                     and dataclasses.is_dataclass(obj))
    assert found == set()


# one record of each config type, with fields that differ from the defaults
CONFIG_RECORDS = {
    "ChannelParams": lambda: ChannelParams(eta_d=0.5, p_d=1e-5),
    "LossRange": lambda: LossRange(1.0, 3.0, 0.5),
    "FrequencyRange": lambda: FrequencyRange(0.5, 2.0, 0.5, loss_db=5.0),
    "SweepConfig": lambda: SweepConfig(channel=ChannelParams(p_d=0.0), eps_values=(1e-7,),
                                       loss_range=LossRange(1.0, 3.0, 0.5)),
}


@pytest.mark.parametrize("name", CONFIG_RECORDS)
def test_config_records_compare_and_hash_by_their_fields(name):
    record, twin = CONFIG_RECORDS[name](), CONFIG_RECORDS[name]()
    default = type(record)()
    assert record is not twin and record == twin and hash(record) == hash(twin)
    assert record != default and len({record, twin, default}) == 2
    assert record != tuple(getattr(record, field) for field in record.__slots__)
    # replace builds a new record; a name that is no field is refused
    assert record.replace() == record and record.replace() is not record
    with pytest.raises(TypeError, match="bogus"):
        record.replace(bogus=1)


def test_config_record_replace_runs_every_check_again():
    with pytest.raises(ValueError, match="need stop >= start and step > 0"):
        LossRange().replace(step=0)
    with pytest.raises(ValueError, match="loss grid must start at >= 0 dB"):
        LossRange().replace(start=-1.0)
    with pytest.raises(ValueError, match="eta_d must lie in"):
        ChannelParams().replace(eta_d=2.0)
    with pytest.raises(ValueError, match="frequencies must be positive"):
        FrequencyRange().replace(start_ghz=-1.0)
    with pytest.raises(ValueError, match="a sweep does not read channel.loss_db"):
        SweepConfig().replace(channel=ChannelParams(loss_db=3.0))
    assert LossRange().replace(stop=1.0) == LossRange(0.0, 1.0, 0.1)


def test_config_records_repr_like_a_dataclass():
    assert repr(LossRange()) == "LossRange(start=0.0, stop=12.0, step=0.1)"
    assert repr(ChannelParams(p_d=0.0)) == (
        "ChannelParams(eta_d=0.145, p_d=0.0, e_d=0.015, loss_db=0.0,"
        " p_za=0.6666666666666666, p_zb=0.6666666666666666)")
    assert repr(SweepConfig()).startswith(
        "SweepConfig(channel=ChannelParams(eta_d=0.145, p_d=6.02e-06, ")


@pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure-python"])
@pytest.mark.parametrize("text, error", [
    ("sweep: {eps: [1.0e-6\n", "ParserError"),
    ("sweep: eps: [1.0e-6]\n", "ScannerError"),
    ("sweep:\n\t- 1\n", "ScannerError"),
], ids=["unclosed-list", "nested-mapping", "tab"])
def test_cli_yaml_syntax_error_fails_with_one_json_line(tmp_path, capsys, monkeypatch,
                                                        libyaml, text, error):
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    rc = main(["--config", str(path), "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("\n") and captured.err.count("\n") == 1
    err = json.loads(captured.err)
    assert err["error"] == error
    assert "bad.yaml" in err["message"] and "line" in err["message"]
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("flags", [
    ["--eps", "0.5"], ["--loss-start", "3"], ["--loss-stop", "12"], ["--loss-step", "0.5"],
    ["--eps", "0.5", "--loss-start", "3"],
], ids=["eps", "loss-start", "loss-stop", "loss-step", "eps-and-loss-start"])
def test_cli_frequency_sweep_refuses_loss_flags(tmp_path, capsys, monkeypatch, flags):
    def no_work(*args, **kwargs):
        raise AssertionError("the config was loaded")

    monkeypatch.setattr(mdiqkd.cli, "load_config", no_work)
    out = tmp_path / "t.csv"
    rc = main(["--sweep", "frequency", *flags, "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    err = json.loads(captured.err)
    refused = [f for f in flags if f.startswith("--")]
    assert err == {"error": "ValueError",
                   "message": f"--sweep frequency does not take {', '.join(refused)}"}
    assert not out.exists()


# tables with every kind of row: a delta over cond_ceiling (1.5), a
# repeated delta, and, without dark counts, rows without signal beyond
# ~3051 dB
_CLI_CONFIGS = {
    "loss": """
channel: {p_d: 0.0}
estimation: {cond_ceiling: 1000.0}
sweep:
  eps: [1.0e-6, 1.0e-7]
  delta: [0.0, 1.5, 0.126, 0.0]
  loss: {start: 0.0, stop: 3200.0, step: 160.0}
""",
    "frequency": """
estimation: {cond_ceiling: 1000.0}
sweep:
  delta: [0.126, 1.5, 0.126, 0.0]
  frequency: {start_ghz: 0.5, stop_ghz: 4.0, step_ghz: 0.25, loss_db: 5.0,
              anchor_high: [4.0, -4.5]}
""",
    "frequency-no-signal": """
channel: {p_d: 0.0}
sweep:
  delta: [0.0, 0.1, 0.0]
  frequency: {start_ghz: 0.5, stop_ghz: 4.0, step_ghz: 0.5, loss_db: 3100.0}
""",
    "loss-clean": """
sweep:
  eps: [1.0e-6]
  delta: [0.0, 0.126]
  loss: {start: 0.0, stop: 20.0, step: 0.5}
""",
}


@pytest.mark.parametrize("out_format", ["csv", "json-lines"])
@pytest.mark.parametrize("name", list(_CLI_CONFIGS))
def test_cli_writes_the_bytes_of_the_library_chain(tmp_path, capsys, name, out_format):
    # the command line's table, printed field by field from the library's rows
    config_path = tmp_path / "config.yaml"
    config_path.write_text(_CLI_CONFIGS[name])
    sweep = name.split("-")[0]
    out = tmp_path / "cli"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # revival of a curve with rows without signal
        rc = main(["--config", str(config_path), "--sweep", sweep, "--out", str(out),
                   "--format", out_format])
    assert rc == 0
    config = load_config(str(config_path))
    rows = (loss_table if sweep == "loss" else frequency_table)(config).rows()
    expected = table_text(rows, out_format, curve_summaries_by_row(rows))
    assert out.read_bytes() == expected.encode()
    failed = sum(r.error is not None for r in rows)
    assert (failed > 0) == (name != "loss-clean")
    assert capsys.readouterr().out == (f"wrote {len(rows)} rows to {out}"
                                       + (f" ({failed} failed points)" if failed else "")
                                       + "\n")


def test_cli_builds_no_rows(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the command line built or read rows")

    monkeypatch.setattr(mdiqkd.sweep.SweepTable, "rows", refuse)
    config_path = tmp_path / "config.yaml"
    for name in ("loss", "frequency"):
        config_path.write_text(_CLI_CONFIGS[name])
        out = tmp_path / f"{name}.csv"
        assert main(["--config", str(config_path), "--sweep", name, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
