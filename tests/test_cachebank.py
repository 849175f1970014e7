"""Unit tests for the cache-bank model (isolated from the full system)."""

from collections import deque


from repro.gpu.cachebank import CacheBank
from repro.gpu.transaction import Transaction
from repro.noc.types import PacketType
from repro.workloads.profiles import WorkloadProfile


class FakePacket:
    def __init__(self):
        self.injected = None


class FakeFabric:
    """Minimal fabric stub: hand-fed requests, recorded replies."""

    def __init__(self):
        self.requests = deque()
        self.replies = []

    def pop_request(self, node):
        return self.requests.popleft() if self.requests else None

    def send_reply(self, cb, pe, ptype, token):
        packet = FakePacket()
        self.replies.append((cb, pe, ptype, token, packet))
        return packet


def profile(l2_hit_rate=1.0, **kwargs):
    defaults = dict(
        name="unit", suite="t", intensity=0.5, read_fraction=0.8,
        l2_hit_rate=l2_hit_rate, row_hit_rate=0.5, burstiness=0.0,
        dependency=0.0,
    )
    defaults.update(kwargs)
    return WorkloadProfile(**defaults)


def txn(tid, is_read=True, pe=1, cb=0):
    return Transaction(tid=tid, pe=pe, cb=cb, is_read=is_read,
                       row_hit=True, issued=0)


def make_bank(l2_hit_rate=1.0, capacity=4, l2_latency=3):
    fabric = FakeFabric()
    bank = CacheBank(
        node=0, profile=profile(l2_hit_rate), fabric=fabric, seed=0,
        capacity=capacity,
    )
    bank.l2_latency = l2_latency  # the model's 12 cycles, shortened
    return bank, fabric


class TestHits:
    def test_read_hit_replies_after_l2_latency(self):
        bank, fabric = make_bank(l2_hit_rate=1.0, l2_latency=3)
        fabric.requests.append(txn(1))
        bank.tick(10)  # accepted at cycle 10
        assert not fabric.replies
        for cycle in range(11, 14):
            bank.tick(cycle)
        assert len(fabric.replies) == 1
        _cb, pe, ptype, token, _pkt = fabric.replies[0]
        assert ptype == PacketType.READ_REPLY
        assert token.tid == 1
        assert token.reply_sent == 13

    def test_write_acked(self):
        bank, fabric = make_bank(l2_hit_rate=1.0)
        fabric.requests.append(txn(2, is_read=False))
        for cycle in range(10, 20):
            bank.tick(cycle)
        assert fabric.replies[0][2] == PacketType.WRITE_REPLY

    def test_hit_counters(self):
        bank, fabric = make_bank(l2_hit_rate=1.0)
        for i in range(3):
            fabric.requests.append(txn(i + 1))
        for cycle in range(1, 30):
            bank.tick(cycle)
        assert bank.l2_hits == 3
        assert bank.l2_misses == 0


class TestMisses:
    def test_read_miss_goes_to_memory(self):
        bank, fabric = make_bank(l2_hit_rate=0.0)
        fabric.requests.append(txn(1))
        bank.tick(1)
        assert bank.l2_misses == 1
        assert not bank.memory.idle()
        cycle = 1
        while not fabric.replies and cycle < 500:
            cycle += 1
            bank.tick(cycle)
        assert fabric.replies
        # A miss takes longer than the L2 pipeline.
        assert fabric.replies[0][3].reply_sent > 1 + bank.l2_latency

    def test_write_miss_posts_writeback_and_acks(self):
        bank, fabric = make_bank(l2_hit_rate=0.0)
        fabric.requests.append(txn(1, is_read=False))
        for cycle in range(1, 10):
            bank.tick(cycle)
        # Ack went out quickly even though the line spilled to memory.
        assert fabric.replies
        assert fabric.replies[0][2] == PacketType.WRITE_REPLY
        # The posted writeback is in flight (or already done) silently.
        for cycle in range(10, 400):
            bank.tick(cycle)
        assert bank.memory.idle()
        assert len(fabric.replies) == 1


class TestCapacity:
    def test_occupancy_never_exceeds_capacity(self):
        bank, fabric = make_bank(capacity=2)
        for i in range(8):
            fabric.requests.append(txn(i + 1))
        for cycle in range(1, 50):
            bank.tick(cycle)
            assert bank.occupancy <= 2

    def test_stalls_counted_when_full(self):
        bank, fabric = make_bank(capacity=1, l2_latency=50)
        for i in range(4):
            fabric.requests.append(txn(i + 1))
        for cycle in range(1, 20):
            bank.tick(cycle)
        assert bank.stall_cycles > 0
        assert len(fabric.requests) > 0  # requests left waiting

    def test_occupancy_freed_when_reply_injects(self):
        bank, fabric = make_bank(capacity=1, l2_latency=1)
        fabric.requests.append(txn(1))
        fabric.requests.append(txn(2))
        for cycle in range(1, 5):
            bank.tick(cycle)
        assert bank.occupancy == 1  # reply emitted but not injecting yet
        # Mark the reply packet as injecting; next tick frees the slot.
        fabric.replies[0][4].injected = 5
        bank.tick(6)
        bank.tick(7)
        assert fabric.replies[-1][3].tid == 2 or bank.occupancy == 1


class TestIdle:
    def test_idle_lifecycle(self):
        bank, fabric = make_bank()
        assert bank.idle()
        fabric.requests.append(txn(1))
        bank.tick(1)
        assert not bank.idle()
        for cycle in range(2, 40):
            bank.tick(cycle)
        fabric.replies[0][4].injected = 40
        bank.tick(41)
        assert bank.idle()
