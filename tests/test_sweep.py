import json
import math
import re
import warnings
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdiqkd import (
    SETTINGS,
    ChannelParams,
    EstimationError,
    ModulationErrors,
    SideChannelParams,
    build_bsm_povm,
    build_estimation_inputs,
    build_S_matrix,
    estimate,
    make_reference_state,
    reference_yields,
    transmission_rates,
)
from mdiqkd.cli import build_parser, main
from mdiqkd.pauli_core import DegenerateInputError
from mdiqkd.sweep import (
    FrequencyRange,
    KeyRatePoint,
    LossRange,
    SweepConfig,
    curve_summaries,
    emit_table,
    load_config,
    run_frequency_sweep,
    run_loss_sweep,
)
from oracles import table_text

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
        "estimation:\n"
        "  f_ec: 1.2\n"
        "sweep:\n"
        "  eps: [1e-7, 1.0e-6]\n"
        "  delta: [0.05]\n"
        "  loss: {start: 1.0, stop: 2.0, step: 0.5}\n"
        "  frequency: {loss_db: 5.0, anchor_high: [4.0, -5.0]}\n"
        "output:\n"
        "  path: rates.jsonl\n"
        "  format: json-lines\n"
    )
    config = load_config(str(path))
    assert config.channel.eta_d == 0.2
    assert config.f_ec == 1.2
    # scientific notation without a dot arrives as a string from YAML
    assert config.eps_values == (1e-7, 1e-6)
    assert config.delta_values == (0.05,)
    assert config.loss_range == LossRange(1.0, 2.0, 0.5)
    assert config.frequency_range.loss_db == 5.0
    assert config.frequency_range.anchor_high == (4.0, -5.0)
    assert config.out_path == "rates.jsonl"
    assert config.out_format == "json-lines"


def test_load_config_overrides_win(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(
        "sweep:\n"
        "  eps: [1.0e-7]\n"
        "  loss: {start: 1.0, stop: 2.0, step: 0.5}\n"
    )
    config = load_config(str(path), {"eps": [1e-8], "start": 0.5, "out": "x.csv"})
    assert config.eps_values == (1e-8,)
    assert config.loss_range == LossRange(0.5, 2.0, 0.5)  # stop/step kept
    assert config.out_path == "x.csv"


def test_load_config_rejects_unknown_section(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("chanel: {eta_d: 0.2}\n")
    with pytest.raises(ValueError, match="unknown config sections"):
        load_config(str(path))
    # workers is not a config section
    path.write_text("workers: 2\n")
    with pytest.raises(ValueError, match="unknown config sections"):
        load_config(str(path))


@pytest.mark.parametrize("text, key", [
    ("estimation: {fec: 2.0}\n", "estimation.fec"),
    ("sweep: {epss: [1.0e-3]}\n", "sweep.epss"),
    ("output: {formt: json-lines}\n", "output.formt"),
    ("channel: {etad: 0.1}\n", "channel.etad"),
    ("sweep: {loss: {stpo: 0.5}}\n", "sweep.loss.stpo"),
    ("sweep: {frequency: {loss: 5.0}}\n", "sweep.frequency.loss"),
    ("sweep: {loss: 5.0}\n", "sweep.loss"),  # a section that is no mapping
])
def test_load_config_rejects_unknown_keys(tmp_path, text, key):
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(key)):
        load_config(str(path))


def test_load_config_rejects_non_mapping(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(ValueError, match="mapping"):
        load_config(str(path))


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
    points = run_loss_sweep(TINY)
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
    config = replace(TINY, cond_ceiling=1.0)
    points = run_loss_sweep(config)
    assert len(points) == 12
    for p in points:
        assert p.error is not None and "cond" in p.error
        assert math.isnan(p.key_rate)


def test_curve_summaries_cutoff():
    points = [_point(0.0, 1.0), _point(1.0, 0.5), _point(2.0, 0.0)]
    (summary,) = curve_summaries(points)
    assert summary == {"eps": 1e-6, "delta": 0.0, "cutoff": 1.0, "revival": False}


def test_curve_summaries_all_zero_curve():
    (summary,) = curve_summaries([_point(0.0, 0.0), _point(1.0, 0.0)])
    assert summary["cutoff"] is None


def test_curve_summaries_flags_revival():
    points = [_point(0.0, 1.0), _point(1.0, 0.0), _point(2.0, 0.5)]
    with pytest.warns(UserWarning, match="revival"):
        (summary,) = curve_summaries(points)
    assert summary["revival"] is True
    assert summary["cutoff"] == 2.0


def test_curve_summaries_error_rows_break_the_curve():
    points = [
        _point(0.0, 1.0),
        _point(1.0, float("nan"), error="boom"),
        _point(2.0, 0.5),
    ]
    with pytest.warns(UserWarning, match="revival"):
        (summary,) = curve_summaries(points)
    assert summary["revival"] is True


def test_emit_table_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    points = [_point(0.0, 1.2345678901234e-4)]
    emit_table(points, str(path), "csv", summary=curve_summaries(points))
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
    emit_table([_point(0.0, 1.0 / 3.0)], str(path), "csv")
    lines = path.read_text().splitlines()
    assert len(lines) == 2  # header + the single row
    assert lines[1].split(",")[3] == "0.333333333333"


def test_emit_table_jsonl_round_trip(tmp_path):
    path = tmp_path / "t.jsonl"
    points = run_loss_sweep(replace(TINY, eps_values=(1e-6,), delta_values=(0.0,)))
    emit_table(points, str(path), "json-lines", summary=curve_summaries(points))
    lines = path.read_text().splitlines()
    assert len(lines) == len(points) + 1
    for line, p in zip(lines, points):
        row = json.loads(line)
        assert row["loss_db"] == p.coordinate
        assert row["key_rate"] == float(f"{p.key_rate:.12g}")
        assert row["error"] is None
    assert "summary" in json.loads(lines[-1])


def test_emit_table_deterministic(tmp_path):
    points = run_loss_sweep(replace(TINY, eps_values=(1e-6,)))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_table(points, str(a), "csv", summary=curve_summaries(points))
    emit_table(points, str(b), "csv", summary=curve_summaries(points))
    assert a.read_bytes() == b.read_bytes()


def test_emit_table_rejects_empty():
    with pytest.raises(ValueError):
        emit_table([], "nowhere.csv", "csv")


def test_emit_table_revalidates_diagnostics(tmp_path):
    bad = KeyRatePoint(0.0, 1e-6, 0.0, -0.1, 0.01, 0.1, 0.0, 0.1, 0.05, 10.0)
    with pytest.raises(ValueError, match="diagnostics"):
        emit_table([bad], str(tmp_path / "t.csv"), "csv")
    # rows that failed upstream carry NaNs legitimately
    failed = _point(0.0, float("nan"), error="cond(S) too large, aborted")
    out = tmp_path / "t.csv"
    emit_table([failed], str(out), "csv")
    row = out.read_text().splitlines()[1]
    assert row.startswith("0,") and row.endswith('"cond(S) too large, aborted"')
    # a good row may not carry nan, which only error rows print (as null in JSON)
    for bad in (_point(math.nan, 1.0), _point(0.0, 1.0, eps=math.nan),
                _point(0.0, 1.0)._replace(key_per_second=math.nan)):
        with pytest.raises(ValueError, match="diagnostics"):
            emit_table([bad], str(tmp_path / "t.jsonl"), "json-lines")
    # a frequency table needs key_per_second on every row
    loss_row = _point(1.0, 1.0)
    with pytest.raises(ValueError, match="mixes"):
        emit_table([loss_row._replace(key_per_second=1e9), loss_row], str(out), "csv")


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
    config = replace(TINY, loss_range=LossRange(0, 2, 1),
                     frequency_range=FrequencyRange(0.5, 4.0, 0.5, loss_db=5.0,
                                                    anchor_high=(4.0, -4.5)))
    points = {
        "loss": lambda: run_loss_sweep(config),
        "frequency": lambda: run_frequency_sweep(config),
        "hand-built-loss": lambda: _hand_built_rows()[0],
        "hand-built-frequency": lambda: _hand_built_rows()[1],
    }[rows]()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # hand-built curves revive
        summary = curve_summaries(points)
    path = tmp_path / "table"
    emit_table(points, str(path), out_format, summary=summary)
    assert path.read_bytes() == table_text(points, out_format, summary).encode()


def test_frequency_sweep_requires_loss():
    with pytest.raises(ValueError, match="loss_db"):
        run_frequency_sweep(TINY)


def test_frequency_sweep_per_second_column():
    config = replace(
        TINY,
        eps_values=(1e-6,),
        delta_values=(0.0,),
        frequency_range=FrequencyRange(1.0, 3.0, 1.0, loss_db=5.0),
    )
    points = run_frequency_sweep(config)
    assert [p.coordinate for p in points] == [1.0, 2.0, 3.0]
    for p in points:
        assert p.key_per_second == pytest.approx(p.key_rate * p.coordinate * 1e9)
        assert p.eps == pytest.approx(config.frequency_range.eps_at(p.coordinate))


def test_emit_table_names_the_frequency_axis_from_the_rows(tmp_path):
    config = replace(
        TINY,
        delta_values=(0.0,),
        frequency_range=FrequencyRange(1.0, 2.0, 1.0, loss_db=5.0),
    )
    path = tmp_path / "f.csv"
    emit_table(run_frequency_sweep(config), str(path), "csv")
    header = path.read_text().splitlines()[0].split(",")
    assert header[0] == "frequency_ghz"
    assert "key_per_second" in header and "loss_db" not in header


def test_frequency_summaries_group_by_delta():
    config = replace(
        TINY,
        eps_values=(1e-6,),
        frequency_range=FrequencyRange(1.0, 3.0, 1.0, loss_db=5.0),
    )
    points = run_frequency_sweep(config)
    summaries = curve_summaries(points)
    # eps varies along the axis, so it cannot label a curve
    assert [set(s) for s in summaries] == [{"delta", "cutoff", "revival"}] * 2
    assert [s["delta"] for s in summaries] == [0.0, 0.1]
    assert all(s["cutoff"] == 3.0 for s in summaries)


def test_frequency_sweep_flat_map_scales_with_clock():
    # with both anchors at the same eps the per-pair rate is constant,
    # so the per-second rate must grow linearly with frequency
    config = replace(
        TINY,
        eps_values=(1e-6,),
        delta_values=(0.0,),
        frequency_range=FrequencyRange(
            1.0, 3.0, 0.5, loss_db=5.0, anchor_high=(4.0, -9.0)
        ),
    )
    points = run_frequency_sweep(config)
    rates = [p.key_rate for p in points]
    assert max(rates) - min(rates) < 1e-15
    per_second = [p.key_per_second for p in points]
    assert all(a < b for a, b in zip(per_second, per_second[1:]))


# batched rows must agree with the per-point README chain to this
# relative tolerance; the two differ only in summation order
PIN_REL = 1e-9


def _scalar_row(config, channel, coordinate, eps_value, delta, per_second):
    """One table row through the README quick-start chain, point by point."""
    deltas = ModulationErrors(delta, delta, delta)
    ref = [make_reference_state(s, deltas) for s in SETTINGS]
    povm = build_bsm_povm(channel)
    yields = reference_yields(build_S_matrix(ref, ref), transmission_rates(povm))
    sifting = channel.p_za * channel.p_zb if config.include_sifting else None
    try:
        inputs = build_estimation_inputs(ref, ref, yields,
                                         SideChannelParams.uniform(eps_value),
                                         config.cond_ceiling)
        r = estimate(inputs, f_ec=config.f_ec, sifting_prefactor=sifting)
    except (EstimationError, DegenerateInputError) as exc:
        nan = math.nan
        return KeyRatePoint(coordinate, eps_value, delta, nan, nan, nan, nan, nan,
                            nan, nan, key_per_second=nan if per_second else None,
                            error=str(exc))
    return KeyRatePoint(
        coordinate, eps_value, delta, r.key_rate, r.e_zz, r.e_xx, r.omega_ref_upper,
        r.omega_upper, r.zeta_obs, inputs.cond_s,
        key_per_second=r.key_rate * coordinate * 1e9 if per_second else None,
    )


def _assert_pinned(points, expected):
    assert len(points) == len(expected)
    for got, want in zip(points, expected):
        assert (got.coordinate, got.eps, got.delta) == (want.coordinate, want.eps, want.delta)
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
    assert curve_summaries(points) == curve_summaries(expected)


def _expected_loss_rows(config):
    return [
        _scalar_row(config, replace(config.channel, loss_db=loss), loss, e, d, False)
        for e in config.eps_values for d in config.delta_values
        for loss in config.loss_range.values()
    ]


@pytest.mark.parametrize("config", [
    # eps = 0 and eps = 1, curves that cross their cutoff inside the grid
    replace(TINY, eps_values=(0.0, 1e-6, 1.0), delta_values=(0.0, 0.126),
            loss_range=LossRange(0.0, 14.0, 0.5)),
    # delta = 1.5 has cond(S) ~ 1.6e3: all its rows are error rows
    replace(TINY, delta_values=(0.0, 1.5), cond_ceiling=1e3),
    # no photons and no dark counts: every point raises NoSignalError
    replace(TINY, channel=ChannelParams(eta_d=0.0, p_d=0.0)),
    # no dark counts and eta_arm^2 underflowing to 0 beyond ~3200 dB: only
    # the far end of each curve raises NoSignalError
    replace(TINY, channel=ChannelParams(p_d=0.0), loss_range=LossRange(0.0, 4000.0, 500.0)),
    # a delta 1e-9 short of pi/2 passes a lifted ceiling but collapses a
    # virtual state: only its rows are error rows
    replace(TINY, delta_values=(0.0, math.pi / 2 - 1e-9), cond_ceiling=1e300),
], ids=["eps-range", "cond-ceiling", "no-signal", "signal-underflow", "degenerate-delta"])
def test_loss_sweep_matches_scalar_chain(config):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # omega_ref_upper clamps at eps = 1
        points = run_loss_sweep(config)
        expected = _expected_loss_rows(config)
    _assert_pinned(points, expected)
    errors = {p.error for p in points}
    if config.cond_ceiling == 1e3:
        assert all(("cond" in p.error) == (p.delta == 1.5) for p in points
                   if p.error is not None) and len(errors) == 2
    if config.cond_ceiling == 1e300:
        assert all((p.error is None) == (p.delta == 0.0) for p in points)
        assert errors == {None, "virtual state for outcome (1,1) has zero trace"}
    if config.channel.eta_d == 0.0:
        assert errors == {"all ZZ yields vanish"}
    elif config.channel.p_d == 0.0:
        assert errors == {None, "all ZZ yields vanish"}
        assert all((p.error is None) == (p.coordinate <= 3000.0) for p in points)


def test_frequency_sweep_matches_scalar_chain():
    config = replace(
        TINY,
        delta_values=(0.0, 0.126),
        include_sifting=True,
        frequency_range=FrequencyRange(0.5, 4.0, 0.25, loss_db=5.0,
                                       anchor_high=(4.0, -4.5)),
    )
    points = run_frequency_sweep(config)
    fr = config.frequency_range
    channel = replace(config.channel, loss_db=fr.loss_db)
    expected = [_scalar_row(config, channel, f, fr.eps_at(f), d, True)
                for d in config.delta_values for f in fr.values()]
    _assert_pinned(points, expected)
    # the map drives both curves through their cutoff
    assert all(s["cutoff"] is not None and s["cutoff"] < 4.0
               for s in curve_summaries(points))


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
    rates = [p.key_rate for p in run_loss_sweep(config)]
    assert all(b <= a for a, b in zip(rates, rates[1:]))


def test_cli_parser_flags():
    args = build_parser().parse_args(
        ["--eps", "1e-6,1e-7", "--delta", "0.0", "--loss-start", "1",
         "--loss-stop", "2", "--loss-step", "0.5", "--format", "csv"]
    )
    assert args.eps == [1e-6, 1e-7]
    assert args.delta == [0.0]
    assert (args.start, args.stop, args.step) == (1.0, 2.0, 0.5)
    assert args.sweep == "loss"


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
