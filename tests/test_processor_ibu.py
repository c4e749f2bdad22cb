"""Input Buffer Unit: DMA service, priorities, overflow, write path."""

import pytest

from repro import EMX, MachineConfig
from repro.metrics.counters import Bucket
from repro.packet import GlobalAddress, Packet, PacketKind, Priority


def mk_machine(**overrides):
    return EMX(MachineConfig(n_pes=4, memory_words=1 << 12).with_(**overrides))


def test_remote_write_completes_without_exu():
    """A WRITE packet updates memory and never reaches the EXU queue."""
    m = mk_machine()
    target = m.pes[1]
    pkt = Packet(
        kind=PacketKind.WRITE, src=0, dst=1, address=GlobalAddress(1, 7).packed(), data=99
    )
    m.engine.schedule(0, m.network.send, pkt)
    m.engine.run()
    assert target.memory.read(7) == 99
    assert target.ibu.queued == 0
    assert target.counters.total_cycles == 0  # EXU never woke up


def test_dma_read_service_consumes_no_exu_cycles():
    """EM-X by-passing DMA: the read target's EXU stays silent."""
    m = mk_machine()

    @m.thread
    def reader(ctx):
        v = yield ctx.read(ctx.ga(1, 3))
        assert v == 5

    m.pes[1].memory.write(3, 5)
    m.spawn(0, "reader")
    report = m.run()
    assert report.counters[1].total_cycles == 0
    assert report.counters[1].reads_serviced == 1
    assert m.pes[1].ibu.dma_serviced == 1


def test_em4_mode_read_service_steals_exu_cycles():
    m = mk_machine(em4_mode=True)

    @m.thread
    def reader(ctx):
        v = yield ctx.read(ctx.ga(1, 3))
        assert v == 5

    m.pes[1].memory.write(3, 5)
    m.spawn(0, "reader")
    report = m.run()
    assert report.counters[1].total_cycles >= m.config.timing.em4_read_service
    assert report.counters[1].reads_serviced == 1


def test_dma_serialises_back_to_back_requests():
    """Two requests to the same IBU are serviced one DMA slot apart."""
    m = mk_machine()
    finish = {}

    @m.thread
    def reader(ctx, tag):
        yield ctx.read(ctx.ga(2, 0))
        finish[tag] = True

    m.spawn(0, "reader", "a")
    m.spawn(1, "reader", "b")
    m.run()
    assert finish == {"a": True, "b": True}
    assert m.pes[2].ibu.dma_serviced == 2


def test_priority_replies_use_high_fifo():
    m = mk_machine(priority_replies=True)
    proc = m.pes[0]
    reply = Packet(kind=PacketKind.READ_REPLY, src=1, dst=0, address=0, data=1,
                   priority=Priority.HIGH)
    normal = Packet(kind=PacketKind.RESUME, src=0, dst=0, data=("explicit", None))
    proc.ibu.enqueue(normal)
    proc.ibu.enqueue(reply)
    assert [p for p, _ in proc.ibu.q_high] == [reply]  # the EXU's kick pops it first
    assert [p for p, _ in proc.ibu.q_normal] == [normal]
    assert proc.exu.kick_pending  # the first enqueue armed one kick


def test_overflow_counts_and_extra_cost():
    def run(depth):
        m = EMX(MachineConfig(n_pes=2, ibu_fifo_depth=depth, memory_words=1 << 12))

        @m.thread
        def worker(ctx):
            yield ctx.compute(1)

        for _ in range(5):  # all five INVOKEs queue before the first kick
            m.spawn(0, "worker")
        return m, m.run().counters[0]

    m, spilled = run(2)
    _, roomy = run(8)
    assert spilled.ibu_overflows == 3
    assert roomy.ibu_overflows == 0
    # First two on-chip packets dequeue free; the rest pay the restore.
    restore = spilled.cycles[Bucket.SWITCHING] - roomy.cycles[Bucket.SWITCHING]
    assert restore == 3 * m.config.timing.mem_exchange


def test_block_read_round_trip():
    m = mk_machine()
    got = {}

    @m.thread
    def blocker(ctx):
        values = yield ctx.read_block(ctx.ga(1, 4), 4)
        got["values"] = values

    m.pes[1].memory.write_block(4, [10, 11, 12, 13])
    m.spawn(0, "blocker")
    m.run()
    assert got["values"] == [10, 11, 12, 13]


def test_block_read_em4_mode():
    m = mk_machine(em4_mode=True)
    got = {}

    @m.thread
    def blocker(ctx):
        got["values"] = yield ctx.read_block(ctx.ga(1, 0), 3)

    m.pes[1].memory.write_block(0, [7, 8, 9])
    m.spawn(0, "blocker")
    m.run()
    assert got["values"] == [7, 8, 9]
