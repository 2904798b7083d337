"""Property tests for the serving plane's hashed timer wheel.

The wheel promises exact accounting under any interleaving of
schedule, cancel, and advance:

* ``pending`` always equals the number of scheduled-but-unfired,
  uncancelled entries;
* a cancelled entry never fires, no matter how the wheel's slots wrap,
  and holds no callback;
* nothing fires early — an entry's callback runs only once the clock
  has passed its deadline (bounded lateness: at most one tick);
* within one ``advance`` call, entries fire in (deadline, seq) order;
* cancelling twice, or cancelling a fired entry, is a reported no-op.

Hypothesis drives random interleavings and checks the invariants after
every step, mirroring the simulator's cancel/timer accounting net in
``test_netsim_properties.py`` — the wheel is the serving plane's
equivalent of the simulator's event heap, and earns the same scrutiny.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.protocols.arq import ARQ_PACKET
from repro.serve.manager import SessionManager
from repro.serve.wheel import TimerWheel, WheelTimer

TICK = 0.01

# One step of an interleaving: (op, a, b) where the integers parameterize
# the op (delay choice, victim index, advance step).
_steps = st.lists(
    st.tuples(
        st.sampled_from(
            ["schedule", "cancel", "advance", "double_cancel", "reentrant"]
        ),
        st.integers(0, 7),
        st.integers(0, 5),
    ),
    min_size=1,
    max_size=60,
)


class _Model:
    """Reference bookkeeping mirrored alongside the real wheel."""

    def __init__(self):
        self.wheel = TimerWheel(tick=TICK, slots=8, now=0.0)  # tiny: wraps often
        self.now = 0.0
        self.entries = []  # (handle, deadline) for every schedule ever made
        self.fired = []  # (advance_id, deadline, seq) in callback order
        self.advance_id = 0

    def schedule(self, delay):
        cell = {}

        def on_fire():
            handle = cell["handle"]
            self.fired.append((self.advance_id, handle.deadline, handle.seq))

        handle = self.wheel.schedule(delay, on_fire)
        cell["handle"] = handle
        self.entries.append((handle, self.now + delay))
        return handle

    def advance(self, now):
        self.advance_id += 1
        self.now = now
        before = len(self.fired)
        self.wheel.advance(now)
        return self.fired[before:]

    def live(self):
        return [(h, d) for h, d in self.entries if h.live]


class TestWheelAccounting:
    @given(steps=_steps)
    @settings(max_examples=200, deadline=None)
    def test_interleavings_preserve_accounting(self, steps):
        model = _Model()
        wheel = model.wheel
        for op, a, b in steps:
            if op == "schedule":
                model.schedule(a * 0.0137)  # 0 .. ~10 ticks, off-boundary
            elif op in ("cancel", "double_cancel"):
                if model.entries:
                    victim, _ = model.entries[a % len(model.entries)]
                    was_live = victim.live
                    assert wheel.cancel(victim) == was_live
                    if op == "double_cancel":
                        assert wheel.cancel(victim) is False
            elif op == "advance":
                burst = model.advance(model.now + b * 0.0171)
                # In-order firing within one advance call.
                assert burst == sorted(burst, key=lambda f: (f[1], f[2]))
            elif op == "reentrant":
                # Callbacks that schedule and cancel while the wheel is
                # mid-advance must not corrupt accounting.
                if model.entries:
                    victim, _ = model.entries[a % len(model.entries)]
                    wheel.schedule(0.0, lambda v=victim: wheel.cancel(v))
                    model.advance(model.now + TICK)
            # The core invariants, after every operation.  live() reads
            # the real handles' fired/cancelled flags, so every tracked
            # entry the wheel still owes us is counted — helper entries
            # from the reentrant op have already fired and cost nothing.
            assert wheel.pending == len(model.live())
            # A handle is never both cancelled and fired.
            for handle, _ in model.entries:
                assert not (handle.cancelled and handle.fired)
            # Never early: every fired entry's deadline has passed.
            for _, deadline, _ in model.fired:
                assert deadline <= model.now + 1e-9
            # Bounded lateness: anything due more than a tick ago is done.
            for _, deadline in model.live():
                assert deadline > model.now - TICK - 1e-9

    @given(
        delays=st.lists(st.floats(0.0, 0.5), min_size=1, max_size=30),
        cancel_mask=st.lists(st.booleans(), min_size=1, max_size=30),
    )
    @settings(max_examples=200, deadline=None)
    def test_cancelled_entries_never_fire(self, delays, cancel_mask):
        wheel = TimerWheel(tick=TICK, slots=16, now=0.0)
        fired = []
        handles = [
            wheel.schedule(delay, lambda i=i: fired.append(i))
            for i, delay in enumerate(delays)
        ]
        cancelled = set()
        for i, (handle, kill) in enumerate(zip(handles, cancel_mask)):
            if kill:
                wheel.cancel(handle)
                cancelled.add(i)
                # The tombstone stays in its bucket until the cursor
                # passes; it must not keep the callback's referents alive.
                assert handle.callback is None
        wheel.advance(1.0)  # everything due
        assert set(fired).isdisjoint(cancelled)
        assert set(fired) == set(range(len(delays))) - cancelled
        assert wheel.pending == 0
        assert wheel.fired_total == len(delays) - len(cancelled)
        assert wheel.cancelled_total == len(cancelled)

    @given(delay=st.floats(0.001, 1.0), fraction=st.floats(0.0, 0.999))
    @settings(max_examples=200, deadline=None)
    def test_never_fires_before_deadline(self, delay, fraction):
        wheel = TimerWheel(tick=TICK, slots=8, now=0.0)
        fired = []
        wheel.schedule(delay, lambda: fired.append(True))
        wheel.advance(delay * fraction)
        assert not fired  # strictly before the deadline: silent
        wheel.advance(delay + TICK)  # one tick of slack: must have fired
        assert fired


class TestWheelTimer:
    def test_restart_supersedes_previous_deadline(self):
        wheel = TimerWheel(tick=TICK, now=0.0)
        fired = []
        timer = WheelTimer(wheel, 0.05, lambda: fired.append(True), name="t")
        timer.start()
        timer.start(0.2)  # re-arm further out; the old entry is dead
        wheel.advance(0.1)
        assert not fired
        wheel.advance(0.25)
        assert fired == [True]

    def test_stop_prevents_firing(self):
        wheel = TimerWheel(tick=TICK, now=0.0)
        fired = []
        timer = WheelTimer(wheel, 0.05, lambda: fired.append(True), name="t")
        timer.start()
        assert timer.running
        timer.stop()
        assert not timer.running
        wheel.advance(1.0)
        assert not fired

    def test_fire_clears_running(self):
        wheel = TimerWheel(tick=TICK, now=0.0)
        timer = WheelTimer(wheel, 0.05, lambda: None, name="t")
        timer.start()
        wheel.advance(0.1)
        assert not timer.running


# ---------------------------------------------------------------------------
# The shared wheel: many session managers, one clock source
# ---------------------------------------------------------------------------

_ARQ_FRAME = ARQ_PACKET.encode(ARQ_PACKET.make(seq=0, length=2, payload=b"hi"))


class _TwoManagerRig:
    """Two session managers riding one wheel, the live Server topology."""

    def __init__(self, idle_a=1.0, idle_b=1.0, **kwargs):
        self.now = 0.0
        self.wheel = TimerWheel(tick=TICK, slots=8, now=0.0)  # tiny: wraps
        clock = lambda: self.now  # noqa: E731 - shared by both managers
        self.a = SessionManager(
            "arq", wheel=self.wheel, clock=clock, idle_timeout=idle_a, **kwargs
        )
        self.b = SessionManager(
            "arq", wheel=self.wheel, clock=clock, idle_timeout=idle_b, **kwargs
        )
        self.sink = []

    def offer(self, manager, peer):
        manager.frame_from(peer, _ARQ_FRAME, self.sink.append)

    def tick(self, dt):
        self.now += dt
        self.wheel.advance(self.now)


class TestSharedWheelAcrossManagers:
    def test_fire_order_follows_each_managers_timeout(self):
        rig = _TwoManagerRig(idle_a=1.0, idle_b=2.0)
        rig.offer(rig.a, "pa")
        rig.offer(rig.b, "pb")
        assert rig.wheel.pending == 2  # both idle timers on one wheel
        rig.tick(1.05)
        assert "pa" not in rig.a.sessions  # a's shorter timeout fired
        assert "pb" in rig.b.sessions
        rig.tick(1.0)  # now 2.05
        assert "pb" not in rig.b.sessions
        assert (rig.a.closed_total, rig.b.closed_total) == (1, 1)

    def test_cancel_isolation_between_managers(self):
        rig = _TwoManagerRig()
        rig.offer(rig.a, "pa")
        rig.offer(rig.b, "pb")
        rig.tick(0.5)
        rig.a.close("pa")  # cancels a's wheel entry only
        rig.tick(0.6)  # now 1.1: b's deadline passed
        assert "pb" not in rig.b.sessions  # b still fired on time
        assert rig.a.closed_total == 1  # the explicit close, no double
        assert rig.b.closed_total == 1
        assert rig.wheel.pending == 0

    def test_reentrant_rearm_during_anothers_fire(self):
        # Both managers' idle entries land in the same advance; a's
        # session saw activity, so its callback re-schedules into the
        # wheel *while the wheel is mid-fire* of b's close.  The lazy
        # re-arm must neither be lost nor corrupt the batch.
        rig = _TwoManagerRig()
        rig.offer(rig.a, "pa")
        rig.offer(rig.b, "pb")
        rig.tick(0.5)
        rig.offer(rig.a, "pa")  # refresh a only (no wheel traffic)
        rig.tick(0.55)  # now 1.05: both entries due in one advance
        assert "pa" in rig.a.sessions  # re-armed for the remainder
        assert "pb" not in rig.b.sessions  # reaped in the same batch
        assert rig.wheel.pending == 1  # exactly the re-armed entry
        rig.tick(0.5)  # now 1.55 >= 0.5 + 1.0
        assert "pa" not in rig.a.sessions

    def test_many_managers_batch_on_one_advance(self):
        rig = _TwoManagerRig()
        extra = SessionManager(
            "arq",
            wheel=rig.wheel,
            clock=lambda: rig.now,
            idle_timeout=1.0,
        )
        for manager in (rig.a, rig.b, extra):
            for index in range(5):
                rig.offer(manager, f"m{id(manager)}:{index}")
        assert rig.wheel.pending == 15
        rig.tick(1.05)  # one advance reaps every manager's sessions
        assert rig.a.stats()["active"] == 0
        assert rig.b.stats()["active"] == 0
        assert extra.stats()["active"] == 0
        assert rig.wheel.pending == 0


# One step of a churning interleaving over a tiny peer namespace, so
# peers reopen constantly while their earlier sessions' idle entries
# linger in the wheel: (op, peer_index, advance_step).
_recycle_steps = st.lists(
    st.tuples(
        st.sampled_from(["open", "touch", "close", "advance"]),
        st.integers(0, 3),
        st.integers(0, 4),
    ),
    min_size=1,
    max_size=50,
)


class TestSlotRecyclingNeverMisfires:
    @given(steps=_recycle_steps)
    @settings(max_examples=150, deadline=None)
    def test_stale_idle_checks_never_reap_a_fresh_occupant(self, steps):
        """Peer churn + lingering wheel entries never close early.

        Four peers churn through open/touch/close, so the wheel keeps
        (cancelled) entries armed for earlier sessions of the same peer.
        The property: a session is only ever reaped after a full
        ``idle_timeout`` of genuine silence — an earlier session's entry
        must never shorten a later session's life.
        """
        timeout = 0.1
        now = [0.0]
        wheel = TimerWheel(tick=TICK, slots=4, now=0.0)
        manager = SessionManager(
            "arq",
            wheel=wheel,
            clock=lambda: now[0],
            idle_timeout=timeout,
            max_sessions=16,  # never sheds: every close is ours or idle
        )
        sink = []
        last_activity = {}  # peer -> last time WE gave it traffic
        for op, index, step in steps:
            peer = f"p{index}"
            if op in ("open", "touch"):
                manager.frame_from(peer, _ARQ_FRAME, sink.append)
                last_activity[peer] = now[0]
            elif op == "close":
                if manager.close(peer) is not None:
                    last_activity.pop(peer, None)
            elif op == "advance":
                now[0] += step * 0.0137  # 0 .. ~5.5 ticks, off-boundary
                wheel.advance(now[0])
            # The property, after every step: nothing we kept active
            # within the timeout window has been reaped.
            for p, t in last_activity.items():
                if now[0] - t < timeout - 1e-9:
                    assert p in manager.sessions, (
                        f"{p} reaped after only {now[0] - t:.4f}s idle "
                        f"(timeout {timeout}); an earlier session's idle "
                        "check reaped a later one"
                    )
            # Reaped peers were genuinely idle for at least the timeout.
            for p in list(last_activity):
                if p not in manager.sessions:
                    assert now[0] - last_activity[p] >= timeout - 1e-9
                    del last_activity[p]
            # Accounting never drifts.
            stats = manager.stats()
            assert stats["opened"] == stats["active"] + stats["closed"]
            assert stats["active"] == len(manager.sessions)
