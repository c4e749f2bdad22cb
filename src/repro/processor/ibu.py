"""Input Buffer Unit: priority packet FIFOs and the by-passing DMA.

Packets arriving from the network land here.  Two levels of priority
FIFOs (8 on-chip packets each; excess spills to an on-memory buffer and
is restored later, costing an extra memory access on dequeue) feed the
EXU in FIFO order — this *is* the hardware thread scheduler.

The IBU's headline feature is the **by-passing DMA**: remote read
requests are serviced entirely inside the IBU→MCU→OBU path, "without
consuming the cycles of the Execution Unit".  The EM-4 compatibility
mode routes read requests to the EXU instead, where each one steals
cycles like a one-instruction thread — the paper's explicit contrast.

Barrier combine traffic (``SYNC_ARRIVE``/``SYNC_RELEASE``) is also
handled at the IBU level: it updates barrier state without waking the
EXU, the way the hardware's packet path touches matching memory.
"""

from __future__ import annotations

from collections import deque

from ..errors import PacketError
from ..obs.events import BurstSpan
from ..packet import Packet, PacketKind, Priority

__all__ = ["InputBufferUnit", "build_reply"]


def build_reply(pkt: Packet, pe: int, memory, priority: Priority) -> Packet:
    """The reply to read request ``pkt``, served from ``memory`` of PE ``pe``.

    One builder for both read servers — the by-passing DMA and the EM-4
    mode EXU — so single, pair and block replies cannot drift apart.
    """
    offset = pkt.address & 0xFFFFFFFF
    if pkt.kind is PacketKind.READ_REQ:
        cont = pkt.data
        if isinstance(cont, tuple) and cont[0] == "pair":
            _, cid, slot = cont
            return Packet(
                kind=PacketKind.READ_REPLY_PAIR,
                src=pe,
                dst=pkt.src,
                address=cid,
                data=(slot, memory.read(offset)),
                priority=priority,
            )
        return Packet(
            kind=PacketKind.READ_REPLY,
            src=pe,
            dst=pkt.src,
            address=cont,
            data=memory.read(offset),
            priority=priority,
        )
    if pkt.kind is PacketKind.BLOCK_READ_REQ:
        cont, count = pkt.data
        return Packet(
            kind=PacketKind.BLOCK_READ_REPLY,
            src=pe,
            dst=pkt.src,
            address=cont,
            data=memory.read_block(offset, count),
            words=2 * count,
            priority=priority,
        )
    raise PacketError(f"no read reply for {pkt.kind}")


class InputBufferUnit:
    """Receive path of one EMC-Y.

    :meth:`receive` is the PE's network sink (the Switching Unit's role).
    Each engine event on the read round trip runs in one frame here:
    ``receive`` books a read request's DMA slot, ``_dma_complete`` builds
    the reply and hands it to the network, and ``enqueue`` arms the EXU
    kick.  Observability and EM-4 mode are branches inside them.
    """

    def __init__(self, proc) -> None:
        self._proc = proc
        # Construction-time caches: the machine wires config/engine/obs/
        # network before building processors and never swaps them, and
        # the processor builds its counters, memory and OBU before the IBU.
        machine = proc.machine
        config = machine.config
        self._machine = machine
        self._engine = machine.engine
        self._obs = machine.obs
        self._send = machine.network.send
        self._pe = proc.pe
        self._counters = proc.counters
        self._memory = proc.memory
        self._obu = proc.obu
        self._em4 = config.em4_mode
        self._depth = config.ibu_fifo_depth
        self._dma_service = config.timing.ibu_dma_service
        self._reply_priority = Priority.HIGH if config.priority_replies else Priority.NORMAL
        #: The two priority FIFOs of ``(packet, overflowed)``, highest
        #: first; the EXU's kick pops them directly (this is the hardware
        #: thread scheduler).  ``overflowed`` marks a packet spilled to
        #: the on-memory buffer, which costs a restore on dequeue.
        self.q_high: deque = deque()
        self.q_normal: deque = deque()
        self._dma_free = 0
        self.dma_serviced = 0

    # ------------------------------------------------------------------
    # Network-facing entry (the Switching Unit hands packets here).
    # ------------------------------------------------------------------
    def receive(self, pkt: Packet) -> None:
        """A packet arrived from the network at ``engine.now``."""
        self._counters.packets_handled += 1
        kind = pkt.kind
        if kind is PacketKind.READ_REQ or kind is PacketKind.BLOCK_READ_REQ:
            if self._em4:
                self.enqueue(pkt)  # EXU will service it, EM-4 style
                return
            # By-passing DMA (EM-X's key feature): book the next DMA slot;
            # a block read costs one more cycle per word after the first.
            cost = self._dma_service
            if kind is PacketKind.BLOCK_READ_REQ:
                cost += max(0, pkt.data[1] - 1)  # data = (cont, count)
            engine = self._engine
            start = engine.now
            if self._dma_free > start:
                start = self._dma_free
            done = self._dma_free = start + cost
            obs = self._obs
            if obs is not None:
                obs.emit(BurstSpan(start, self._pe, done, "dma", unit="ibu"))
            engine.schedule_at(done, self._dma_complete, pkt)
            return
        if kind is PacketKind.READ_REPLY_PAIR:
            # Two-token direct matching: the Matching Unit parks the
            # first operand without waking the EXU; the second arrival
            # fires the thread with both operands in slot order.
            cid = pkt.address
            mate = self._proc.matching.offer(cid, 0, pkt.data)
            if mate is None:
                return
            (sa, va), (sb, vb) = mate
            values = (va, vb) if sa < sb else (vb, va)
            fire = Packet(
                kind=PacketKind.READ_REPLY,
                src=pkt.src,
                dst=pkt.dst,
                address=cid,
                data=values,
                priority=pkt.priority,
            )
            self.enqueue(fire)
            return
        if kind is PacketKind.SYNC_ARRIVE:
            self._machine.barrier_hub_arrive(pkt)
            return
        if kind is PacketKind.SYNC_RELEASE:
            self._machine.barrier_release(self._pe, pkt)
            return
        if kind is PacketKind.WRITE:
            # Remote writes complete in the IBU/MCU path, EXU untouched.
            self._memory.write(pkt.address & 0xFFFFFFFF, pkt.data)
            return
        self.enqueue(pkt)

    def _dma_complete(self, pkt: Packet) -> None:
        """The DMA slot ends: read memory and send the reply via the OBU."""
        self._counters.reads_serviced += 1
        self.dma_serviced += 1
        reply = build_reply(pkt, self._pe, self._memory, self._reply_priority)
        if self._obs is None:
            obu = self._obu
            obu.sent += 1
            obu.sent_words += reply.words
            self._send(reply)
        else:
            self._obu.inject(reply)  # records the send event first

    # ------------------------------------------------------------------
    # FIFO thread-scheduling queue
    # ------------------------------------------------------------------
    def enqueue(self, pkt: Packet) -> None:
        """Queue a packet for the EXU and make sure its kick is armed."""
        q = self.q_high if pkt.priority is Priority.HIGH else self.q_normal
        overflowed = len(q) >= self._depth
        if overflowed:
            self._counters.ibu_overflows += 1
        q.append((pkt, overflowed))
        exu = self._proc.exu
        if not exu.kick_pending:
            exu.kick_pending = True
            engine = self._engine
            busy = exu.busy_until
            engine.schedule_at(busy if busy > engine.now else engine.now, exu.kick)

    @property
    def queued(self) -> int:
        """Packets waiting for the EXU."""
        return len(self.q_high) + len(self.q_normal)
