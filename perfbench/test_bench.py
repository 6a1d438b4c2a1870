"""Self-test of the benchmark: ``python -m pytest perfbench -q``.

Not part of the repository's tier-1 suite (``testpaths`` is ``tests``):
it checks the instrument, not the program.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import mains  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder, percentile, self_times, transits  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as _fh:
    LAYERS = json.load(_fh)

CFG = {"seed": 7, "seconds": 0.1, "traced": False, "out_dir": HERE, "tag": "t"}


# -- spans ---------------------------------------------------------------

def test_self_time_is_duration_minus_children():
    rows = [("h", 0.0, 10.0, -1, 1), ("a", 1.0, 3.0, 0, 1), ("b", 4.0, 9.0, 0, 1),
            ("lone", 20.0, 21.0, -1, 2)]
    assert self_times(rows) == [3.0, 2.0, 5.0, 1.0]


def test_recorder_links_children_to_the_open_handler_and_shares_the_op():
    rec = Recorder()
    new = rec.wrap("new", lambda h, ball: ball, op_of=lambda h, ball: ball[0])
    send = rec.wrap("send", lambda dest, msg: None)

    def on_ball(hop):
        send(1, new(0, (hop + 1, "x")))

    rec.wrap_handler("handler", on_ball, op_of=lambda hop: hop)(4)
    send(1, None)  # outside any handler
    names = [r[0] for r in rec.rows]
    assert names == ["handler", "new", "send", "send"]
    handler, new_row, send_row, outside = rec.rows
    assert handler[3] == -1 and handler[4] == 4
    assert new_row[3] == 0 and send_row[3] == 0      # parent = the handler
    assert new_row[4] == 5 and send_row[4] == 5      # op of the message built
    assert outside[3] == -1
    assert all(r[1] <= r[2] for r in rec.rows)
    assert self_times(rec.rows)[0] <= handler[2] - handler[1]


def test_transit_is_send_return_to_handler_entry_of_the_same_op():
    sender = [("send", 0.0, 1.0, -1, 7), ("send", 5.0, 6.0, -1, 8)]
    receiver = [("handler", 3.5, 4.0, -1, 7), ("handler", 9.0, 9.5, -1, 9)]
    assert transits(sender, receiver, "send", "handler") == {7: 2.5}


def test_percentile_is_nearest_rank():
    data = list(range(1, 101))
    assert percentile(data, 50) == 50
    assert percentile(data, 99) == 99
    assert percentile(data, 100) == 100
    assert percentile([3.0], 50) == 3.0
    assert percentile([], 50) == 0.0


# -- failed-op accounting ------------------------------------------------

def test_clean_repetition_has_no_failed_ops():
    rep = workloads.run_rep(dict(CFG, workload="pingpong_sim"))
    assert rep.error == "" and rep.failed == 0 and rep.attempted > 0
    assert rep.quiet_msgs_per_s > 0 and rep.quiet_op_us_p50 > 0
    assert rep.wall_s > rep.busy_s > 0
    # the quiet pace is never below what the whole window gave
    assert rep.quiet_msgs_per_s >= rep.layers["msgs_per_s"] > 0
    assert rep.quiet_op_us_p50 <= rep.layers["op_us_p50"]


def test_observed_pass_of_pingpong_mp_reads_the_programs_own_trace(tmp_path):
    rep = workloads.run_rep(dict(CFG, workload="pingpong_mp", observed=True,
                                 out_dir=str(tmp_path)))
    assert rep.error == "" and rep.failed == 0 and rep.attempted > 0
    assert rep.layers["tracing.events_per_msg"] > 1
    assert rep.layers["machine.shutdown_s"] > 0


def test_setup_is_read_off_machines_built_after_the_measured_one():
    rep = workloads.run_rep(dict(CFG, workload="pingpong_sim", setups=3))
    assert rep.error == "" and rep.failed == 0
    assert rep.setup_s > 0 and rep.layers["machine.first_setup_s"] > 0
    assert rep.attempted > 3  # the short machines' ops are counted too
    assert workloads.run_rep(dict(CFG, workload="pingpong_sim")).setup_s == 0.0


def test_a_dropped_message_is_a_failed_op(monkeypatch):
    real = mains.pingpong_main

    def lossy(cfg):
        out = real(cfg)
        if out["pe"] == 1:
            out["counts"][1] -= 1  # one delivery never happened
        return out

    monkeypatch.setattr(mains, "pingpong_main", lossy)
    rep = workloads.run_rep(dict(CFG, workload="pingpong_sim"))
    assert rep.error == "" and 0 < rep.failed <= rep.attempted


def test_a_raising_main_fails_every_op_of_the_repetition(monkeypatch, capsys):
    def broken(cfg):
        raise RuntimeError("boom")

    monkeypatch.setattr(mains, "pingpong_main", broken)
    rep = workloads.run_rep(dict(CFG, workload="pingpong_sim"))
    assert "boom" in rep.error
    capsys.readouterr()
    tally = run.Tally()
    assert tally.add({"error": rep.error, "attempted": 0, "failed": 0}) is False
    assert tally.add(None) is False  # a child that died or overran
    assert tally.failed == tally.attempted == 2 * run.NOMINAL_OPS


def test_virtual_time_that_moves_between_repetitions_is_a_failed_op(capsys):
    tally = run.Tally()
    tally.check_virtual_time([])  # an mp workload has none
    assert (tally.attempted, tally.failed) == (0, 0)
    tally.check_virtual_time([4.008000000001178, 4.0080000000006395])  # rounding
    assert (tally.attempted, tally.failed) == (1, 0)
    tally.check_virtual_time([4.008, 4.024])
    assert (tally.attempted, tally.failed) == (2, 1)
    capsys.readouterr()


# -- quiet pace and whole window -----------------------------------------

def test_a_stall_in_few_batches_moves_the_window_rate_not_the_quiet_one():
    steady = [100e-6] * 10000                  # 1 s of 100 us samples
    stalls = list(steady)
    for i in range(0, len(stalls), 2000):      # five 20 ms stalls
        stalls[i] += 0.020
    slow = [2 * v for v in steady]             # everything takes twice as long
    reps = {}
    for name, samples in (("steady", steady), ("stalls", stalls), ("slow", slow)):
        reps[name] = rep = workloads.Rep()
        workloads._throughput(rep, samples, 2)
    assert abs(reps["steady"].quiet_msgs_per_s - 20000) < 1
    assert reps["steady"].layers["window_excess_share"] < 1e-9
    assert abs(reps["stalls"].quiet_msgs_per_s - 20000) < 1
    assert abs(reps["stalls"].layers["msgs_per_s"] - 20000 / 1.1) < 1
    assert abs(reps["stalls"].layers["window_excess_share"] - 0.1 / 1.1) < 1e-6
    assert abs(reps["slow"].quiet_msgs_per_s - 10000) < 1
    assert abs(reps["slow"].layers["msgs_per_s"] - 10000) < 1


def test_a_run_takes_the_best_repetition_of_a_time_and_the_median_memory():
    rates, lats = [11400.0, 5900.0, 11250.0, 6100.0, 6000.0], [310.0, 560.0, 300.0, 590.0, 600.0]
    assert run.run_value("quiet_msgs_per_s", rates) == 11400.0
    assert run.run_value("quiet_op_us_p50", lats) == 300.0
    assert run.run_value("setup_s", [0.057, 0.043, 0.058, 0.044, 0.059]) == 0.043
    assert run.run_value("peak_rss_mb", [60.4, 60.5, 60.3, 88.0, 60.4]) == 60.4
    assert {m["name"] for m in SPEC["end_to_end"]} == {
        "quiet_msgs_per_s", "quiet_op_us_p50", "setup_s", "peak_rss_mb"}


def test_quiet_latency_is_the_median_of_a_fast_batch():
    rep = workloads.Rep()
    samples = [100e-6] * 300 + [180e-6] * 700  # the host was busy 70% of the time
    workloads._latency(rep, [samples], 100)
    assert abs(rep.quiet_op_us_p50 - 100) < 1e-6
    assert abs(rep.layers["op_us_p50"] - 180) < 1e-6


# -- BENCHMARK.json ------------------------------------------------------

def test_names_and_caps():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert unit.match(m["unit"]) and m["better"] in ("higher", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.REPS)


def test_every_layer_metric_says_what_it_should_move():
    assert [m["name"] for m in SPEC["per_layer"]] == list(LAYERS)
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    wls = {w["name"] for w in SPEC["workloads"]}
    for m in SPEC["per_layer"]:
        entry = LAYERS[m["name"]]
        assert set(entry) == {"what", "moves"} and entry["what"]
        for metric, workload in entry["moves"]:
            assert metric in e2e and workload in wls, (m["name"], metric, workload)


# -- compare.py ----------------------------------------------------------

def test_compare_verdicts():
    base = [100.0 + 0.1 * i for i in range(12)]
    a = run.summary(base)

    def against(values, better="higher", bound=0.10, floor=0.0):
        return compare.verdict(a, run.summary(values), better, bound, floor)

    assert against([v * 0.85 for v in base]) == "regressed"
    assert against([v * 1.15 for v in base], better="lower") == "regressed"
    assert against([v * 1.05 for v in base]) == "improved"
    assert against([v * 1.0001 for v in base]) == "unchanged"
    # too few pairs can never claim a gain, and one run shows no spread
    few = run.summary(base[:3])
    assert compare.verdict(few, run.summary([v * 1.05 for v in base[:3]]),
                           "higher", 0.10) == "unchanged"
    assert compare.verdict(run.summary(base[:1]), a, "higher", 0.10) == "unresolved"
    # a spread wider than the bound is unresolved, whatever the medians say
    noisy = run.summary([60.0, 100.0, 140.0] * 4)
    assert compare.verdict(noisy, noisy, "higher", 0.10) == "unresolved"
    assert compare.verdict(noisy, run.summary([v / 2 for v in noisy["values"]]),
                           "higher", 0.10) == "unresolved"
    # setup_s: 10 ms against 14 ms is inside the 50 ms floor
    quick = run.summary([0.010 + 1e-5 * i for i in range(12)])
    slower = run.summary([0.014 + 1e-5 * i for i in range(12)])
    assert compare.verdict(quick, slower, "lower", 0.25) == "regressed"
    assert compare.verdict(quick, slower, "lower", 0.25, compare.SETUP_FLOOR_S) == "unchanged"


def _result_file(path, workloads_, scale=1.0):
    row = {"failed_ops_ratio": 0.0,
           "end_to_end": {m["name"]: run.summary([scale * (100.0 + 0.1 * i) for i in range(3)])
                          for m in SPEC["end_to_end"]}}
    path.write_text(json.dumps({"workloads": {w: row for w in workloads_}}))
    return str(path)


def test_compare_exit_status(tmp_path, capsys):
    a = _result_file(tmp_path / "a.json", ["csd_churn", "cth_yield"])
    same = _result_file(tmp_path / "same.json", ["csd_churn", "cth_yield"])
    short = _result_file(tmp_path / "short.json", ["csd_churn"])
    worse = _result_file(tmp_path / "worse.json", ["csd_churn", "cth_yield"], scale=2.0)
    assert compare.main([a, same]) == 0
    assert compare.main([a, same], strict=True) == 0
    assert compare.main([a, worse]) == 1        # "lower is better" metrics doubled
    assert compare.main([a, short]) == 2        # a workload missing from B ...
    assert compare.main([short, a]) == 2        # ... or from A
    one_run = json.loads(open(a).read())
    for row in one_run["workloads"].values():
        row["end_to_end"] = {n: run.summary(s["values"][:1])
                             for n, s in row["end_to_end"].items()}
    (tmp_path / "one.json").write_text(json.dumps(one_run))
    assert compare.main([a, str(tmp_path / "one.json")]) == 0
    assert compare.main([a, str(tmp_path / "one.json")], strict=True) == 1  # unresolved
    capsys.readouterr()


# -- the whole thing, small ----------------------------------------------

def test_smoke_run_of_every_workload(tmp_path):
    out = tmp_path / "smoke.json"
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke",
                           "--out", str(out)], capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert set(result["workloads"]) == set(workloads.REPS)
    for name, row in result["workloads"].items():
        assert row["failed_ops_ratio"] == 0, name
        for metric in SPEC["end_to_end"]:
            assert row["end_to_end"][metric["name"]]["median"] > 0, (name, metric["name"])
            assert metric["name"] in proc.stdout


def test_driver_mode_prints_exactly_the_contract(tmp_path):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "csd_churn",
             "--seed", "3", "--seconds", "0.6", "--trace", str(trace)],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
        assert list(last["metrics"]) == [m["name"] for m in SPEC[key]]
        for m in SPEC[key]:
            assert last["metrics"][m["name"]]["unit"] == m["unit"]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pingpong_sim", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
