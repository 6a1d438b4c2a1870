"""The raw-speed settings — the ``inline=`` knob and message pooling,
which the machine decides itself — where they resolve
(:class:`~repro.machine.base.MachineConfig`, once), the pool rule, and
the need-based-cost promise: with a setting off the corresponding
per-message machinery must simply not exist (no pool object, no
instrumented dispatch binding), so the only residual cost is the flag
test at construction time.
"""

from __future__ import annotations

import dataclasses

from repro import FaultPlan, Machine
from repro.core.runtime import ConverseRuntime
from repro.core.scheduler import CSD_BATCH
from repro.machine.base import MachineConfig


# ----------------------------------------------------------------------
# MachineConfig: inline resolves to a bool, pool follows the fault rule
# ----------------------------------------------------------------------
def test_resolution_defaults():
    cfg = MachineConfig(2)
    assert (cfg.pool, cfg.inline) == (True, False)


def test_resolution_explicit_args_win():
    plan = FaultPlan(1, duplicate=0.2)
    assert MachineConfig(2, faults=plan).pool is False
    assert MachineConfig(2, faults=plan, reliable=True).pool is True
    assert MachineConfig(2, inline=1).inline is True
    assert MachineConfig(2, inline=None).inline is False


def test_resolution_is_idempotent():
    """``dataclasses.replace`` re-runs resolution on resolved values (the
    mp hub points its workers' trace at its spool that way) — nothing
    may move."""
    cfg = MachineConfig(2, faults=FaultPlan(1, drop=0.1), reliable=True,
                        ft=True, aggregation=True)
    assert dataclasses.replace(cfg) == cfg


# ----------------------------------------------------------------------
# machine plumbing: off means absent, not dormant
# ----------------------------------------------------------------------
def test_pool_off_means_no_pool_object():
    with Machine(2, faults=FaultPlan(1, duplicate=0.2)) as m:
        assert m.msg_pooling is False
        assert all(rt.pool is None for rt in m.runtimes)


def test_pool_on_by_default_for_clean_runs():
    with Machine(2) as m:
        assert all(rt.pool is not None for rt in m.runtimes)


def test_pool_defaults_off_under_unreliable_faults():
    """An unreliable fault plan duplicates wire buffers; pooling a
    buffer the plan may redeliver would recycle live state, so the
    rule turns it off; the reliable layer dedups first, so it stays on
    there."""
    plan = FaultPlan(1, duplicate=0.2)
    with Machine(2, faults=plan) as m:
        assert all(rt.pool is None for rt in m.runtimes)
    with Machine(2, faults=plan, reliable=True) as m:
        assert all(rt.pool is not None for rt in m.runtimes)


def test_csd_batch_is_the_scheduler_constant():
    with Machine(2) as m:
        assert all(rt.scheduler._batch == CSD_BATCH == 8 for rt in m.runtimes)


# ----------------------------------------------------------------------
# dispatch binding: instrumentation selects the variant up front, so
# the fast path carries zero flag tests per message
# ----------------------------------------------------------------------
def test_untraced_runtime_uses_class_level_fast_invoke():
    with Machine(2) as m:
        for rt in m.runtimes:
            assert "invoke_handler" not in rt.__dict__
            assert type(rt).invoke_handler is ConverseRuntime.invoke_handler


def test_traced_or_metered_runtime_binds_instrumented_invoke():
    for kwargs in (dict(trace="memory"), dict(metrics=True)):
        with Machine(2, **kwargs) as m:
            for rt in m.runtimes:
                bound = rt.__dict__.get("invoke_handler")
                assert bound is not None
                assert bound.__func__ \
                    is ConverseRuntime._invoke_handler_instrumented
