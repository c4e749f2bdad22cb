"""Execution Unit: runs thread bursts and performs context switches.

The EXU is event-driven: whenever it is free and the IBU holds a packet,
it dequeues one (FIFO within priority level) and either

* invokes a new thread (``INVOKE``),
* resumes a suspended thread with a read reply (``READ_REPLY`` /
  ``BLOCK_READ_REPLY``) or a local resume (``RESUME``), or
* in EM-4 compatibility mode, services a remote read by itself.

A *burst* drives the thread's generator from (re)entry to the next
suspension point, accumulating cycles into the four accounting buckets.
Packets generated mid-burst are injected at the exact cycle offset where
their packet-generation instruction retires.  Idle gaps between bursts
while the processor still has live threads are charged to the
COMMUNICATION bucket — that is the unmasked latency the whole paper is
about.
"""

from __future__ import annotations

import math

from ..core.effects import (
    BarrierWait,
    Call,
    Compute,
    FusedRead,
    FusedReadPair,
    RemoteRead,
    RemoteReadBlock,
    RemoteReadPair,
    RemoteWrite,
    RemoteWriteBlock,
    Reply,
    Spawn,
    SwitchNow,
    TokenAdvance,
    TokenWait,
)
from ..core.thread import EMThread, ThreadState
from ..errors import CompileDivergence, SchedulerError, SimulationError, ThreadProtocolError
from ..metrics.counters import Bucket, SwitchKind
from ..obs.events import BarrierEvent, BurstSpan, ThreadSwitch
from ..packet import Packet, PacketKind, Priority
from ..trace import TraceEvent
from .ibu import build_reply

__all__ = ["ExecutionUnit"]


def _invoke_words(n_args: int) -> int:
    """Logical width of an INVOKE packet: template + frame + args words."""
    return 2 * math.ceil((2 + n_args) / 2)


class ExecutionUnit:
    """The thread-running pipeline of one EMC-Y."""

    def __init__(self, proc) -> None:
        self._proc = proc
        # Construction-time caches (machine wiring precedes processor
        # construction and is immutable afterwards; the processor builds
        # its IBU first): the kick runs once per packet, so every saved
        # attribute chain shows up on the fig6 sweep.
        machine = proc.machine
        self._machine = machine
        self._engine = machine.engine
        self._timing = machine.config.timing
        self._match_invoke = machine.config.timing.match_invoke
        self._mem_exchange = machine.config.timing.mem_exchange
        self._trace_on = machine.config.trace
        self._obs = machine.obs
        self._ibu = proc.ibu
        self._q_high = proc.ibu.q_high
        self._q_normal = proc.ibu.q_normal
        self._continuations = proc.continuations
        self._counters = proc.counters
        self.busy_until = 0
        #: A kick event is scheduled (the IBU arms it on enqueue).
        self.kick_pending = False
        self._last_end: int | None = None

    # ------------------------------------------------------------------
    # Wake-up and dispatch
    # ------------------------------------------------------------------
    def kick(self) -> None:
        """Dispatch the next queued packet if the EXU is free.

        Pops the IBU's FIFOs (high priority first; a packet restored from
        the on-memory overflow buffer costs one memory exchange), charges
        the idle gap since the last burst, and runs the packet: a reply or
        an invocation goes straight into :meth:`_run_burst`.
        """
        engine = self._engine
        now = engine.now
        if now < self.busy_until:
            engine.schedule_at(self.busy_until, self.kick)  # stays pending
            return
        self.kick_pending = False
        q = self._q_high or self._q_normal
        if not q:
            return  # idle; the gap is charged when the next burst starts
        pkt, overflowed = q.popleft()
        extra = self._mem_exchange if overflowed else 0

        last = self._last_end
        if last is not None and now > last:
            gap = now - last
            proc = self._proc
            counters = self._counters
            if proc.live_threads > 0:
                counters.cycles[Bucket.COMMUNICATION] += gap
                counters.comm_gap_count += 1
                if gap > counters.comm_gap_max:
                    counters.comm_gap_max = gap
                if self._trace_on:
                    proc.trace.append(TraceEvent(last, now, "idle"))
                obs = self._obs
                if obs is not None:
                    obs.emit(BurstSpan(last, proc.pe, now, "idle"))
            else:
                counters.cycles[Bucket.IDLE] += gap

        kind = pkt.kind
        if kind is PacketKind.READ_REPLY or kind is PacketKind.BLOCK_READ_REPLY:
            thread, _tag = self._continuations.resolve(pkt.address)
            self._run_burst(thread, pkt.data, self._match_invoke + extra)
        elif kind is PacketKind.INVOKE:
            func_name, args, cont = pkt.data
            thread = self._machine.create_thread(self._proc.pe, func_name, args, cont)
            self._run_burst(thread, None, self._match_invoke + extra)
        elif kind is PacketKind.RESUME:
            self._dispatch_resume(pkt, extra)
        elif kind is PacketKind.READ_REQ or kind is PacketKind.BLOCK_READ_REQ:
            self._em4_service(pkt, extra)
        else:
            raise SchedulerError(f"EXU cannot handle packet kind {kind}")

        if (self._q_high or self._q_normal) and not self.kick_pending:
            self.kick_pending = True
            busy = self.busy_until
            engine.schedule_at(busy if busy > engine.now else engine.now, self.kick)

    def _switch(self, kind: SwitchKind, thread: EMThread | None = None) -> None:
        """Count one context switch and mirror it onto the event bus."""
        proc = self._proc
        proc.counters.add_switch(kind)
        obs = self._obs
        if obs is not None:
            obs.emit(
                ThreadSwitch(
                    self._engine.now,
                    proc.pe,
                    kind,
                    thread.name if thread is not None else "",
                )
            )

    def _dispatch_resume(self, pkt: Packet, extra: int) -> None:
        timing = self._timing
        counters = self._proc.counters
        reason = pkt.data[0]
        if reason == "barrier":
            _, thread, barrier, gen = pkt.data
            if barrier.is_open(self._proc.pe, gen):
                self._switch(SwitchKind.ITER_SYNC, thread)
                self._run_burst(thread, None, timing.match_invoke + extra)
            else:
                # Spin re-check: a full switch through the FIFO.
                engine = self._engine
                cost = timing.match_invoke + timing.barrier_check + extra
                self._switch(SwitchKind.ITER_SYNC, thread)
                counters.add_cycles(Bucket.SWITCHING, cost)
                counters.sync_stall_cycles += cost
                t0 = engine.now
                self.busy_until = t0 + cost
                self._last_end = self.busy_until
                counters.note_active(t0, self.busy_until)
                if self._trace_on:
                    self._proc.trace.append(TraceEvent(t0, self.busy_until, "spin"))
                obs = self._obs
                if obs is not None:
                    obs.emit(
                        BurstSpan(t0, self._proc.pe, self.busy_until, "spin", thread.name)
                    )
                self._proc.schedule_enqueue(
                    self.busy_until + timing.barrier_recheck_interval, pkt
                )
        elif reason in ("token", "explicit"):
            self._run_burst(pkt.data[1], None, timing.match_invoke + extra)
        else:
            raise SchedulerError(f"unknown resume reason {reason!r}")

    def _em4_service(self, pkt: Packet, extra: int) -> None:
        """EM-4 compatibility: the EXU itself answers a remote read.

        The reply keeps normal priority whatever ``priority_replies``
        says: that option models the EM-X IBU's reply path only.
        """
        proc = self._proc
        engine = self._engine
        reply = build_reply(pkt, proc.pe, proc.memory, Priority.NORMAL)
        cost = self._timing.em4_read_service + extra
        if pkt.kind is PacketKind.BLOCK_READ_REQ:
            cost += pkt.data[1]  # one cycle per word read
        proc.counters.reads_serviced += 1
        proc.counters.add_cycles(Bucket.OVERHEAD, cost)
        t0 = engine.now
        self.busy_until = t0 + cost
        self._last_end = self.busy_until
        proc.counters.note_active(t0, self.busy_until)
        if self._trace_on:
            proc.trace.append(TraceEvent(t0, self.busy_until, "service"))
        if self._obs is not None:
            self._obs.emit(BurstSpan(t0, proc.pe, self.busy_until, "service"))
        proc.obu.inject_at(self.busy_until, reply)

    # ------------------------------------------------------------------
    # Burst execution
    # ------------------------------------------------------------------
    def _run_burst(self, thread: EMThread, send_value, lead_switch: int) -> None:
        proc = self._proc
        timing = self._timing
        engine = self._engine
        counters = proc.counters
        switches = counters.switches
        pe = proc.pe
        obs = self._obs
        # The two per-effect timing constants, hoisted out of the loop.
        pkt_gen = timing.pkt_gen
        reg_save = timing.reg_save

        t0 = engine.now
        comp = 0
        over = 0
        sw = lead_switch
        emits: list[tuple[int, Packet]] = []
        local_resumes: list[Packet] = []  # enqueued at burst end (FIFO tail)
        mid_resumes: list[tuple[int, Packet]] = []  # token wakes, at offset

        thread.transition(ThreadState.RUNNING)
        thread.bursts += 1
        gen = thread.gen
        finished = False

        while True:
            try:
                eff = gen.send(send_value)
            except StopIteration:
                finished = True
                break
            except CompileDivergence as exc:
                # Strict-mode cohort divergence: pin the machine context
                # onto the diagnosis before it leaves the burst loop.
                exc.args = (
                    f"{exc.args[0] if exc.args else exc!r} "
                    f"[pe={pe} thread={thread.name} cycle={engine.now}]",
                )
                raise
            send_value = None
            et = type(eff)

            if et is Compute:
                comp += eff.cycles

            elif et is RemoteRead:
                over += pkt_gen
                sw += reg_save
                cid = proc.continuations.register(thread)
                emits.append(
                    (
                        comp + over + sw,
                        Packet(
                            kind=PacketKind.READ_REQ,
                            src=pe,
                            dst=eff.addr.pe,
                            address=eff.addr.packed(),
                            data=cid,
                        ),
                    )
                )
                counters.reads_issued += 1
                if obs is None:
                    switches[SwitchKind.REMOTE_READ] += 1
                else:
                    self._switch(SwitchKind.REMOTE_READ, thread)
                thread.transition(ThreadState.WAIT_READ)
                break

            elif et is RemoteReadPair:
                over += 2 * pkt_gen
                sw += reg_save
                cid = proc.continuations.register(thread, tag="pair")
                for slot, addr in ((0, eff.addr_a), (1, eff.addr_b)):
                    emits.append(
                        (
                            comp + over + sw,
                            Packet(
                                kind=PacketKind.READ_REQ,
                                src=pe,
                                dst=addr.pe,
                                address=addr.packed(),
                                data=("pair", cid, slot),
                            ),
                        )
                    )
                counters.reads_issued += 2
                if obs is None:
                    switches[SwitchKind.REMOTE_READ] += 1
                else:
                    self._switch(SwitchKind.REMOTE_READ, thread)
                thread.transition(ThreadState.WAIT_READ)
                break

            elif et is FusedRead:
                # A compiled ``Compute(c)`` + ``RemoteRead(addr)`` pair in
                # one effect: identical accounting, half the yields.
                comp += eff.cycles
                over += pkt_gen
                sw += reg_save
                cid = proc.continuations.register(thread)
                emits.append(
                    (
                        comp + over + sw,
                        Packet(
                            kind=PacketKind.READ_REQ,
                            src=pe,
                            dst=eff.addr.pe,
                            address=eff.addr.packed(),
                            data=cid,
                        ),
                    )
                )
                counters.reads_issued += 1
                if obs is None:
                    switches[SwitchKind.REMOTE_READ] += 1
                else:
                    self._switch(SwitchKind.REMOTE_READ, thread)
                thread.transition(ThreadState.WAIT_READ)
                break

            elif et is FusedReadPair:
                comp += eff.cycles
                over += 2 * pkt_gen
                sw += reg_save
                cid = proc.continuations.register(thread, tag="pair")
                for slot, addr in ((0, eff.addr_a), (1, eff.addr_b)):
                    emits.append(
                        (
                            comp + over + sw,
                            Packet(
                                kind=PacketKind.READ_REQ,
                                src=pe,
                                dst=addr.pe,
                                address=addr.packed(),
                                data=("pair", cid, slot),
                            ),
                        )
                    )
                counters.reads_issued += 2
                if obs is None:
                    switches[SwitchKind.REMOTE_READ] += 1
                else:
                    self._switch(SwitchKind.REMOTE_READ, thread)
                thread.transition(ThreadState.WAIT_READ)
                break

            elif et is RemoteReadBlock:
                over += pkt_gen
                sw += reg_save
                cid = proc.continuations.register(thread)
                emits.append(
                    (
                        comp + over + sw,
                        Packet(
                            kind=PacketKind.BLOCK_READ_REQ,
                            src=pe,
                            dst=eff.addr.pe,
                            address=eff.addr.packed(),
                            data=(cid, eff.count),
                        ),
                    )
                )
                counters.block_reads_issued += 1
                counters.block_words_requested += eff.count
                if obs is None:
                    switches[SwitchKind.REMOTE_READ] += 1
                else:
                    self._switch(SwitchKind.REMOTE_READ, thread)
                thread.transition(ThreadState.WAIT_READ)
                break

            elif et is RemoteWrite:
                over += pkt_gen
                emits.append(
                    (
                        comp + over + sw,
                        Packet(
                            kind=PacketKind.WRITE,
                            src=pe,
                            dst=eff.addr.pe,
                            address=eff.addr.packed(),
                            data=eff.value,
                        ),
                    )
                )
                counters.writes_issued += 1

            elif et is RemoteWriteBlock:
                n = len(eff.values)
                over += pkt_gen * max(1, n)
                base = eff.addr
                # One logical write packet per word, as the hardware does.
                for i, value in enumerate(eff.values):
                    emits.append(
                        (
                            comp + over + sw,
                            Packet(
                                kind=PacketKind.WRITE,
                                src=pe,
                                dst=base.pe,
                                address=(base + i).packed(),
                                data=value,
                            ),
                        )
                    )
                counters.writes_issued += n

            elif et is Spawn:
                words = _invoke_words(len(eff.args))
                over += pkt_gen * (words // 2)
                emits.append(
                    (
                        comp + over + sw,
                        Packet(
                            kind=PacketKind.INVOKE,
                            src=pe,
                            dst=eff.pe,
                            data=(eff.func, eff.args, None),
                            words=words,
                        ),
                    )
                )
                counters.spawns_issued += 1

            elif et is Reply:
                over += pkt_gen
                cont_pe, cid = eff.continuation
                emits.append(
                    (
                        comp + over + sw,
                        Packet(
                            kind=PacketKind.READ_REPLY,
                            src=pe,
                            dst=cont_pe,
                            address=cid,
                            data=eff.value,
                        ),
                    )
                )

            elif et is Call:
                words = _invoke_words(len(eff.args) + 1)
                over += pkt_gen * (words // 2)
                sw += reg_save
                cid = proc.continuations.register(thread)
                emits.append(
                    (
                        comp + over + sw,
                        Packet(
                            kind=PacketKind.INVOKE,
                            src=pe,
                            dst=eff.pe,
                            data=(eff.func, eff.args, (pe, cid)),
                            words=words,
                        ),
                    )
                )
                counters.spawns_issued += 1
                if obs is None:
                    switches[SwitchKind.EXPLICIT] += 1
                else:
                    self._switch(SwitchKind.EXPLICIT, thread)
                thread.transition(ThreadState.WAIT_CALL)
                break

            elif et is TokenWait:
                if eff.token.holds(eff.seq):
                    comp += timing.int_op  # the successful inline check
                    continue
                sw += reg_save
                if obs is None:
                    switches[SwitchKind.THREAD_SYNC] += 1
                else:
                    self._switch(SwitchKind.THREAD_SYNC, thread)
                eff.token.park(eff.seq, thread)
                thread.transition(ThreadState.WAIT_TOKEN)
                break

            elif et is TokenAdvance:
                comp += timing.token_update
                waiter = eff.token.advance()
                if waiter is not None:
                    mid_resumes.append(
                        (
                            comp + over + sw,
                            Packet(
                                kind=PacketKind.RESUME,
                                src=pe,
                                dst=pe,
                                data=("token", waiter),
                            ),
                        )
                    )

            elif et is BarrierWait:
                bar = eff.barrier
                sw += timing.barrier_check
                if obs is None:
                    switches[SwitchKind.ITER_SYNC] += 1
                else:
                    self._switch(SwitchKind.ITER_SYNC, thread)
                gen_no, last_local = bar.arrive(pe)
                if obs is not None:
                    obs.emit(BarrierEvent(engine.now, pe, bar.barrier_id, gen_no, "arrive"))
                if last_local:
                    over += pkt_gen
                    emits.append(
                        (
                            comp + over + sw,
                            Packet(
                                kind=PacketKind.SYNC_ARRIVE,
                                src=pe,
                                dst=bar.hub,
                                data=(bar.barrier_id, gen_no),
                            ),
                        )
                    )
                thread.transition(ThreadState.WAIT_BARRIER)
                local_resumes.append(
                    Packet(
                        kind=PacketKind.RESUME,
                        src=pe,
                        dst=pe,
                        data=("barrier", thread, bar, gen_no),
                    )
                )
                break

            elif et is SwitchNow:
                sw += reg_save
                if obs is None:
                    switches[SwitchKind.EXPLICIT] += 1
                else:
                    self._switch(SwitchKind.EXPLICIT, thread)
                thread.transition(ThreadState.READY)
                local_resumes.append(
                    Packet(kind=PacketKind.RESUME, src=pe, dst=pe, data=("explicit", thread))
                )
                break

            else:
                raise ThreadProtocolError(
                    f"thread {thread.name} yielded {eff!r}, which is not an Effect"
                )

        if finished:
            self._finish_thread(thread)

        if comp < 0 or over < 0 or sw < 0:
            raise SimulationError(
                f"negative cycle charge in a burst of {thread.name}: "
                f"computation={comp} overhead={over} switching={sw}"
            )
        busy = self.busy_until = self._last_end = t0 + comp + over + sw
        cycles = counters.cycles
        cycles[Bucket.COMPUTATION] += comp
        cycles[Bucket.OVERHEAD] += over
        cycles[Bucket.SWITCHING] += sw
        if counters.first_active is None:
            counters.first_active = t0
        if busy > counters.last_active:
            counters.last_active = busy
        if self._trace_on:
            proc.trace.append(TraceEvent(t0, busy, "burst", thread.name))
        if obs is not None:
            obs.emit(BurstSpan(t0, pe, busy, "burst", thread.name))
        if emits:
            inject_at = proc.obu.inject_at
            for off, pkt in emits:
                inject_at(t0 + off, pkt)
        if mid_resumes or local_resumes:
            enqueue = self._ibu.enqueue
            for off, pkt in mid_resumes:
                engine.schedule_at(t0 + off, enqueue, pkt)
            for pkt in local_resumes:
                engine.schedule_at(busy, enqueue, pkt)

    def _finish_thread(self, thread: EMThread) -> None:
        proc = self._proc
        thread.transition(ThreadState.DONE)
        proc.live_threads -= 1
        proc.machine.live_threads -= 1
        proc.counters.threads_finished += 1
        proc.frames.release(thread.frame.frame_id)
