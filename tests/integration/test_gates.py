"""The gate table CI runs (``python -m repro.bench gate NAME...``): the
real measurements reproduce the recorded virtual-time numbers, every
check fails on doctored rows, and the CLI's exit codes are 0/1/2."""

from __future__ import annotations

import dataclasses

import pytest

from repro.bench import gates
from repro.bench.__main__ import main
from repro.bench.gates import GATES, check, render
from repro.machine.base import (
    machine_backend_available,
    machine_backend_unavailable_reason,
)


@pytest.fixture(scope="module")
def measured():
    """Each gate's real rows, measured once per module run."""
    cache = {}

    def rows(name):
        if name not in cache:
            cache[name] = GATES[name].measure()
        return [dict(row) for row in cache[name]]

    return rows


def doctored(measured, name, label, **changes):
    """The measured rows of gate ``name`` with the row labelled
    ``label`` (its first column) edited."""
    key = GATES[name].columns[0][1]
    return [{**row, **changes} if row[key] == label else row
            for row in measured(name)]


# ----------------------------------------------------------------------
# real measurements (virtual time: exact)
# ----------------------------------------------------------------------

def test_ft_rows_match_the_recorded_sweep(measured, capsys):
    rows = measured("ft")
    assert [r["run"] for r in rows] == [f"ckpt every {us} us" for us in (50, 100, 200)]
    assert [round(r["recovery_us"]) for r in rows] == [253, 253, 253]
    assert [r["checkpoints"] for r in rows] == [20, 9, 4]
    assert [round(r["checkpoint_kbytes"], 1) for r in rows] == [9.4, 5.6, 3.8]
    assert all(r["recoveries"] == 1 and r["fault_free"] for r in rows)
    assert check(GATES["ft"], rows) == []
    table = render(GATES["ft"], rows)
    assert "253 us" in table and "9.4 KB" in table


def test_lb_rows_match_the_recorded_table(measured, capsys):
    rows = measured("lb")
    assert [r["strategy"] for r in rows] == ["direct", "spray", "adaptive", "steal"]
    assert [round(r["makespan_us"], 1) for r in rows] == [26113.0, 3435.5, 4572.5, 5210.4]
    assert [round(r["imbalance"], 2) for r in rows] == [8.00, 1.14, 1.32, 1.20]
    assert [round(r["speedup"], 2) for r in rows[2:]] == [5.71, 5.01]
    assert check(GATES["lb"], rows) == []
    assert "26,113.0 us" in render(GATES["lb"], rows)


def test_agg_ratio_clears_its_floor(measured, capsys):
    rows = measured("agg")
    assert [r["aggregation"] for r in rows] == ["off", "on"]
    assert rows[1]["ratio"] >= 2.0
    assert check(GATES["agg"], rows) == []


@pytest.mark.skipif(
    not machine_backend_available("mp"),
    reason=f"mp layer unavailable: {machine_backend_unavailable_reason('mp')}",
)
def test_ft_mp_recovers_once_per_run_with_fault_free_results(measured, capsys):
    rows = measured("ft-mp")
    assert len(rows) == 2
    assert all(r["recoveries"] == 1 and r["fault_free"] for r in rows)
    assert all(0 < r["recovery_us"] <= 500_000 for r in rows)
    assert check(GATES["ft-mp"], rows) == []


def test_report_only_gate_has_no_thresholds():
    assert GATES["lb-powerlaw"].thresholds == ()
    assert GATES["lb-powerlaw"].columns == GATES["lb"].columns


# ----------------------------------------------------------------------
# every check fails on doctored rows
# ----------------------------------------------------------------------

@pytest.mark.parametrize("changes, fragment", [
    ({"recovery_us": 0.0}, "recovery_us 0 us > 0"),
    ({"recovery_us": 2000.5}, "<= 2000"),
    ({"recoveries": 2}, "recoveries 2 == 1"),
    ({"fault_free": False}, "fault_free False == True"),
])
def test_ft_check_fails_on_doctored_rows(measured, capsys, changes, fragment):
    failures = check(GATES["ft"], doctored(measured, "ft", "ckpt every 100 us", **changes))
    assert len(failures) == 1
    assert "ckpt every 100 us" in failures[0] and fragment in failures[0]


def test_lb_check_reports_unskewed_direct_as_set_up_error(measured, capsys):
    failures = check(GATES["lb"], doctored(measured, "lb", "direct", imbalance=3.0))
    assert len(failures) == 1
    assert "direct" in failures[0] and "set-up error" in failures[0]


@pytest.mark.parametrize("strategy", ["adaptive", "steal"])
def test_lb_check_fails_on_doctored_rows(measured, capsys, strategy):
    over = check(GATES["lb"], doctored(measured, "lb", strategy, imbalance=1.51))
    assert len(over) == 1 and f"{strategy}: imbalance 1.51 <= 1.5" in over[0]
    slow = check(GATES["lb"], doctored(measured, "lb", strategy, speedup=1.49))
    assert len(slow) == 1 and f"{strategy}: speedup 1.49x >= 1.5" in slow[0]
    missing = check(GATES["lb"],
                    [r for r in measured("lb") if r["strategy"] != strategy])
    assert missing == [f"{strategy}: row was not measured"] * 2


def test_agg_check_fails_below_the_ratio_floor(measured, capsys):
    failures = check(GATES["agg"], doctored(measured, "agg", "on", ratio=1.99))
    assert len(failures) == 1 and "on: ratio 1.99x >= 2.0" in failures[0]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_exits_0_when_every_named_gate_passes(measured, monkeypatch, capsys):
    for name in ("ft", "lb"):
        monkeypatch.setitem(GATES, name, dataclasses.replace(
            GATES[name], measure=lambda name=name: measured(name)))
    assert main(["gate", "ft", "lb"]) == 0
    out = capsys.readouterr().out
    assert "ft: crash recovery" in out and "lb: seed load balancing" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("name", ["ft", "lb", "agg"])
def test_cli_exits_1_when_any_threshold_constant_is_doctored(
        name, measured, monkeypatch, capsys):
    # Move one bound at a time to a value no measurement can meet: each
    # must flip the gate on its own.
    unmeetable = {">": float("inf"), ">=": float("inf"), "<=": float("-inf"),
                  "==": None}
    gate = GATES[name]
    for i, t in enumerate(gate.thresholds):
        thresholds = gate.thresholds[:i] \
            + (dataclasses.replace(t, bound=unmeetable[t.op]),) \
            + gate.thresholds[i + 1:]
        monkeypatch.setitem(GATES, name, dataclasses.replace(
            gate, measure=lambda: measured(name), thresholds=thresholds))
        assert main(["gate", name]) == 1, t
        assert f"FAIL: {name}: " in capsys.readouterr().err


def test_cli_rejects_unknown_gate_names_and_flags(capsys):
    for argv in (["gate", "throughput"], ["gate"], ["gate", "ft", "--scale", "0.1"]):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2


def test_unavailable_layer_skips_with_a_note(monkeypatch, capsys):
    def explode():
        raise AssertionError("measured a gate whose layer is unavailable")

    monkeypatch.setattr(gates, "machine_backend_unavailable_reason",
                        lambda layer: "no sockets here" if layer == "mp" else "")
    monkeypatch.setitem(GATES, "ft-mp", dataclasses.replace(
        GATES["ft-mp"], measure=explode))
    assert main(["gate", "ft-mp"]) == 0
    assert "unavailable here, skipping: no sockets here" in capsys.readouterr().out
