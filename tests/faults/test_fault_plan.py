"""Unit tests for the seeded fault injector itself (no reliability)."""

from __future__ import annotations

import pytest

from repro import FaultPlan, FaultSpec, Machine, api
from repro.core.errors import SimulationError
from repro.sim.models import GENERIC


def _decisions(plan: FaultPlan, n: int = 200):
    return [plan.decide(0, 1) for _ in range(n)]


class TestFaultPlanDeterminism:
    def test_same_seed_same_decisions(self):
        a = _decisions(FaultPlan(42, drop=0.2, duplicate=0.15, delay=0.2,
                                 reorder=0.25, corrupt=0.1))
        b = _decisions(FaultPlan(42, drop=0.2, duplicate=0.15, delay=0.2,
                                 reorder=0.25, corrupt=0.1))
        assert a == b

    def test_different_seed_different_decisions(self):
        a = _decisions(FaultPlan(1, drop=0.3, reorder=0.3))
        b = _decisions(FaultPlan(2, drop=0.3, reorder=0.3))
        assert a != b

    def test_zero_rates_are_transparent(self):
        plan = FaultPlan(7)
        for dropped, corrupted, copies in _decisions(plan, 50):
            assert not dropped
            assert not corrupted
            assert copies == [(0.0, True, None)]


class TestFaultSpec:
    def test_validate_rejects_bad_rates(self):
        with pytest.raises(SimulationError):
            FaultSpec(drop=1.5).validate()
        with pytest.raises(SimulationError):
            FaultSpec(duplicate=-0.1).validate()
        with pytest.raises(SimulationError):
            FaultSpec(delay=0.5, delay_max=-1e-6).validate()

    def test_plan_validates_on_construction(self):
        with pytest.raises(SimulationError):
            FaultPlan(0, drop=2.0)
        with pytest.raises(SimulationError):
            FaultPlan(0, links={(0, 1): FaultSpec(corrupt=7.0)})

    def test_per_link_override(self):
        plan = FaultPlan(0, drop=0.0,
                         links={(0, 1): FaultSpec(drop=1.0)})
        assert plan.spec_for(0, 1).drop == 1.0
        assert plan.spec_for(1, 0).drop == 0.0
        # the overridden link drops every packet, the default link none
        assert all(plan.decide(0, 1)[0] for _ in range(20))
        assert not any(plan.decide(1, 0)[0] for _ in range(20))


class TestFaultStats:
    def test_stats_count_injected_faults(self):
        plan = FaultPlan(3, drop=0.5)
        n = 400
        drops = sum(1 for _ in range(n) if plan.decide(0, 1)[0])
        assert plan.stats.packets == n
        assert plan.stats.drops == drops
        assert 0 < drops < n  # seeded coin is not degenerate
        assert plan.stats.per_link[(0, 1)] == drops

    def test_machine_rejects_non_plan(self):
        with pytest.raises(SimulationError):
            Machine(2, faults=object())


class TestZeroOverheadPath:
    def test_default_machine_has_no_fault_plan(self):
        with Machine(2, model=GENERIC) as m:
            assert m.fault_plan is None
            assert m.network.fault_plan is None
            assert m.config.reliable is None
            for pe in range(2):
                assert m.runtime(pe).reliable is None

    def test_lossless_plan_changes_nothing_observable(self):
        """A no-fault plan routed through the fault branch must deliver
        the same payloads at the same virtual times as no plan at all."""

        def run(faults):
            with Machine(2, model=GENERIC, faults=faults) as m:
                seen = []

                def main():
                    me = api.CmiMyPe()

                    def on_msg(msg):
                        seen.append((api.CmiWallTimer(), msg.payload))
                        api.CsdExitScheduler()

                    h = api.CmiRegisterHandler(on_msg, "t.msg")
                    if me == 0:
                        api.CmiSyncSend(1, api.CmiNew(h, "x"))
                    else:
                        api.CsdScheduler(-1)

                m.launch(main)
                m.run()
                return seen

        assert run(None) == run(FaultPlan(9))
