"""Unit tests for the HBM stack and memory controller models."""

import pytest

from repro.mem import HbmStack, HbmTiming, MemoryAccess, MemoryController
from repro.mem.controller import MC_PIPELINE_CYCLES


def access(token, is_read=True, row_hit=True, cycle=0):
    return MemoryAccess(token=token, is_read=is_read, row_hit=row_hit,
                        submit_cycle=cycle)


def run_stack(stack, until=1000):
    done = []
    for cycle in range(until):
        done.extend(stack.tick(cycle))
        if stack.idle() and done:
            break
    return done


class TestTiming:
    def test_transfer_cycles(self):
        timing = HbmTiming()
        assert timing.transfer_cycles == pytest.approx(64 / 28.4)

    def test_peak_bandwidth_matches_hbm2(self):
        """~256 GB/s per stack at the 1.126 GHz core clock."""
        timing = HbmTiming()
        gbps = timing.peak_bytes_per_cycle * 1.126
        assert gbps == pytest.approx(256, rel=0.01)


class TestStack:
    def test_single_access_latency(self):
        stack = HbmStack()
        stack.submit(access("a", row_hit=True))
        done = run_stack(stack)
        assert len(done) == 1
        timing = stack.timing
        expected = timing.t_cas + timing.transfer_cycles
        assert done[0].complete_cycle == pytest.approx(expected, abs=1)

    def test_row_miss_slower(self):
        hit_stack, miss_stack = HbmStack(), HbmStack()
        hit_stack.submit(access("h", row_hit=True))
        miss_stack.submit(access("m", row_hit=False))
        hit_done = run_stack(hit_stack)[0]
        miss_done = run_stack(miss_stack)[0]
        assert miss_done.complete_cycle > hit_done.complete_cycle

    def test_fr_fcfs_prefers_row_hits(self):
        timing = HbmTiming(channels=1)
        stack = HbmStack(timing)
        stack.submit(access("miss", row_hit=False))
        stack.submit(access("hit", row_hit=True))
        done = run_stack(stack)
        order = [a.token for a in sorted(done, key=lambda a: a.complete_cycle)]
        assert order == ["hit", "miss"]

    def test_channel_parallelism(self):
        """N accesses across N channels finish ~together."""
        timing = HbmTiming(channels=4)
        stack = HbmStack(timing)
        for i in range(4):
            stack.submit(access(i))
        done = run_stack(stack)
        finish = [a.complete_cycle for a in done]
        assert max(finish) - min(finish) < 1.0

    def test_single_channel_serialises_bus(self):
        timing = HbmTiming(channels=1)
        stack = HbmStack(timing)
        for i in range(4):
            stack.submit(access(i))
        done = run_stack(stack)
        finish = sorted(a.complete_cycle for a in done)
        for a, b in zip(finish, finish[1:]):
            assert b - a >= timing.transfer_cycles - 1e-9

    def test_bandwidth_bounded(self):
        """Sustained throughput cannot exceed the stack's peak."""
        timing = HbmTiming()
        stack = HbmStack(timing)
        n = 200
        for i in range(n):
            stack.submit(access(i, row_hit=True))
        done = []
        cycle = 0
        while len(done) < n and cycle < 10000:
            done.extend(stack.tick(cycle))
            cycle += 1
        bytes_moved = n * 64
        assert bytes_moved / cycle <= timing.peak_bytes_per_cycle * 1.05

    def test_stats_counters(self):
        stack = HbmStack()
        stack.submit(access("r", is_read=True, row_hit=True))
        stack.submit(access("w", is_read=False, row_hit=False))
        run_stack(stack)
        assert stack.reads == 1
        assert stack.writes == 1
        assert stack.row_hits == 1

    def test_utilization(self):
        stack = HbmStack()
        stack.submit(access("a"))
        run_stack(stack, until=100)
        assert 0 < stack.utilization(100) <= 1


class TestController:
    def test_pipeline_adds_latency(self):
        mc = MemoryController()
        mc.submit("a", is_read=True, row_hit=True, cycle=0)
        done = []
        cycle = 0
        while not done and cycle < 500:
            done = mc.tick(cycle)
            cycle += 1
        stack_latency = (
            mc.stack.timing.t_cas + mc.stack.timing.transfer_cycles
        )
        assert cycle >= stack_latency + 2 * MC_PIPELINE_CYCLES - 1

    def test_idle_lifecycle(self):
        mc = MemoryController()
        assert mc.idle()
        mc.submit("a", is_read=True, row_hit=True, cycle=0)
        assert not mc.idle()
        cycle = 0
        while not mc.idle() and cycle < 500:
            mc.tick(cycle)
            cycle += 1
        assert mc.idle()

    def test_token_passthrough(self):
        mc = MemoryController()
        marker = object()
        mc.submit(marker, is_read=True, row_hit=True, cycle=0)
        done = []
        for cycle in range(500):
            done.extend(mc.tick(cycle))
            if done:
                break
        assert done[0].token is marker

    def test_many_requests_all_return(self):
        mc = MemoryController()
        n = 50
        for i in range(n):
            mc.submit(i, is_read=(i % 2 == 0), row_hit=(i % 3 == 0), cycle=0)
        done = []
        for cycle in range(5000):
            done.extend(mc.tick(cycle))
            if len(done) == n:
                break
        assert sorted(a.token for a in done) == list(range(n))
