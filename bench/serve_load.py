"""The serve workloads: DSL clients here, a ``repro.serve.Server`` in a child.

The load generator is one asyncio loop in this process running the
clients of :mod:`repro.serve.client` with at most two sockets open at
once; the loop polls instead of sleeping (:func:`load_generator`).
Every workload is a closed loop: a client sends its next message only
when its window allows, and a handshake loop opens its next session
only when the previous one finished.  The system under test is
``python -m bench.server`` (:class:`ServerProcess`), so server and
generator each get a core of their own.

Each workload runs three phases (:func:`serve`):

1. **set-up**, :data:`SETUP_SPAWNS` times: spawn the server and time it
   until the first verified reply of a one-message session (imports,
   bind, cold spec build and codec compile); the last server stays up;
2. an untimed **warm-up** session, so that no timed trial pays for
   lazy set-up (a cold sliding-window run retransmits a whole window);
3. **timed trials** of fixed size until ``seconds`` of trial time have
   passed, at least :data:`MIN_TRIALS` of them; each trial's payloads,
   nonces and source addresses come from the seed.

With ``trace`` a fourth phase repeats one smaller trial with spans on in
both processes (:mod:`bench.trace`).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import random
import resource
import sys
import time
import zlib
from typing import (
    Any,
    AsyncIterator,
    Awaitable,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from bench import OUT, ROOT
from bench.server import WINDOW
from bench.spec import CLIENT_SPANS, SERVER_SPANS, SHARED_SPANS, Run
from bench.stats import median, percentile
from bench.trace import (
    Layer,
    check_complete,
    new_tracer,
    reconcile,
    render_table,
    summarize,
    trace_core,
    write_jsonl,
)

SERVER_MODULE = "bench.server"
#: Far above a loopback round trip, so a clean timed trial never
#: retransmits; :func:`run_transfer` checks that none did.
RTO = 2.0
#: A handshake not established within this many seconds counts as failed.
HANDSHAKE_DEADLINE = 2.0
SETUP_SPAWNS = 5
MIN_TRIALS = 3
MAX_TRIALS = 200
HANDSHAKE_TRIAL_SECONDS = 3.0
TRACED_HANDSHAKE_SECONDS = 1.0
TRIAL_TIMEOUT = 30.0
CALL_TIMEOUT = 30.0
HANDSHAKE_SESSIONS = 8192


# -- the server process --------------------------------------------------------


class ServerProcess:
    """``python -m bench.server`` as a child, driven over its stdin/stdout."""

    def __init__(self, protocol: str, module: str = SERVER_MODULE, **options: Any) -> None:
        self.argv = [sys.executable, "-m", module, "--protocol", protocol]
        for key, value in options.items():
            self.argv += [f"--{key.replace('_', '-')}", str(value)]
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.port = 0

    async def start(self) -> int:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_OBS")}
        self.proc = await asyncio.create_subprocess_exec(
            *self.argv,
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            cwd=str(ROOT),
            env=env,
        )
        self.port = int((await self._read())["port"])
        return self.port

    async def _read(self) -> Dict[str, Any]:
        assert self.proc is not None and self.proc.stdout is not None
        line = await asyncio.wait_for(self.proc.stdout.readline(), CALL_TIMEOUT)
        if not line:
            raise RuntimeError(f"server {self.argv[3:]} exited unexpectedly")
        return json.loads(line)

    async def call(self, cmd: str, **fields: Any) -> Dict[str, Any]:
        assert self.proc is not None and self.proc.stdin is not None
        self.proc.stdin.write((json.dumps({"cmd": cmd, **fields}) + "\n").encode())
        await self.proc.stdin.drain()
        return await self._read()

    async def stop(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            if proc.returncode is None:
                proc.stdin.write(b'{"cmd": "quit"}\n')
                await proc.stdin.drain()
                await asyncio.wait_for(proc.wait(), CALL_TIMEOUT)
        except (OSError, asyncio.TimeoutError):
            pass
        finally:
            if proc.returncode is None:
                proc.kill()
                await proc.wait()


# -- the client side of the socket ---------------------------------------------


class AckClock:
    """Ack round trips per sequence number, first transmissions only.

    ``data_seq``/``ack_seq`` read the sequence number from a frame's
    leading bytes (the DSL specs put it first, big-endian); the bytes are
    the benchmark's to time, never input to the protocol.
    """

    def __init__(self, data_seq: Callable[[bytes], int], ack_seq: Callable[[bytes], int]) -> None:
        self.data_seq = data_seq
        self.ack_seq = ack_seq
        self.first_sent: Dict[int, float] = {}
        self.resent: set = set()
        self.rtts: List[float] = []

    def sent(self, now: float, frame: bytes) -> None:
        seq = self.data_seq(frame)
        if seq in self.first_sent:
            self.resent.add(seq)
        else:
            self.first_sent[seq] = now

    def received(self, now: float, frame: bytes) -> None:
        seq = self.ack_seq(frame)
        sent = self.first_sent.pop(seq, None)
        if sent is None:
            return
        if seq in self.resent:
            self.resent.discard(seq)
        else:
            self.rtts.append(now - sent)


class Socket(asyncio.DatagramProtocol):
    """A client's datagram socket, stamped at the point of send and receive.

    Stands in for the client's transport (``sendto``/``is_closing``/
    ``close``) and delivers inbound frames to the client's ``_on_frame``.
    ``first_send_at`` and ``done_at`` (the receive time of the frame that
    completed the client) give handshake and set-up latency.
    """

    def __init__(self, client: Any, clock: Optional[AckClock], tracer: Any) -> None:
        self.client = client
        self.clock = clock
        self.span = tracer.span if tracer is not None else None
        self.transport: Any = None
        self.first_send_at: Optional[float] = None
        self.done_at: Optional[float] = None

    def connection_made(self, transport: Any) -> None:
        self.transport = transport

    def datagram_received(self, data: bytes, addr: Any) -> None:
        now = time.perf_counter()
        if self.clock is not None:
            self.clock.received(now, data)
        if self.span is not None:
            with self.span("serve.client.on_frame"):
                self.client._on_frame(data)
        else:
            self.client._on_frame(data)
        if self.done_at is None and self.client.done.done():
            self.done_at = now

    def error_received(self, exc: Exception) -> None:
        pass  # the client's retransmission timer covers a lost frame

    def sendto(self, data: bytes, addr: Any = None) -> None:
        now = time.perf_counter()
        if self.first_send_at is None:
            self.first_send_at = now
        if self.clock is not None:
            self.clock.sent(now, data)
        if self.span is not None:
            with self.span("serve.client.send"):
                self.transport.sendto(data)
        else:
            self.transport.sendto(data)

    def is_closing(self) -> bool:
        return self.transport.is_closing()

    def close(self) -> None:
        self.transport.close()

    @property
    def local(self) -> List[Any]:
        return list(self.transport.get_extra_info("sockname"))


async def connect(
    client: Any,
    port: int,
    *,
    local: Optional[Tuple[str, int]] = None,
    clock: Optional[AckClock] = None,
    tracer: Any = None,
) -> Socket:
    """Open ``client``'s socket to the server (from ``local`` if given)."""
    loop = asyncio.get_running_loop()
    _, sock = await loop.create_datagram_endpoint(
        lambda: Socket(client, clock, tracer),
        local_addr=local,
        remote_addr=("127.0.0.1", port),
    )
    client.transport = sock
    return sock


def source_addresses(seed: int) -> Iterator[str]:
    """Distinct 127/8 addresses, never one twice; the start comes from ``seed``.

    Handshake sessions are keyed by source address.  With kernel-chosen
    ephemeral ports on one address, a port reused while the server still
    holds its Established session makes the new SYN land on that session
    and the client gives up (see ``bench/README.md``).
    """
    index = (seed * 7919) % (1 << 20)
    while True:
        rest, last = divmod(index, 254)
        second, third = divmod(rest, 256)
        yield f"127.{1 + second % 254}.{third}.{1 + last}"
        index += 1


# -- shared phases ---------------------------------------------------------------


class Phase:
    """CPU and wall clocks of both processes over one stretch of the run."""

    def __init__(self, server_cpu: float) -> None:
        self.wall = time.perf_counter()
        self.cpu = _own_cpu()
        self.server_cpu = server_cpu

    def shares(self, server_cpu: float) -> Tuple[float, float]:
        """``(server busy share, client busy share)`` since construction."""
        wall = time.perf_counter() - self.wall
        return (server_cpu - self.server_cpu) / wall, (_own_cpu() - self.cpu) / wall


def _own_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


#: A process that runs only when its core would otherwise be idle.  It
#: exits as soon as its parent, whose pid it gets as ``argv[1]``, is gone,
#: even when that parent was killed and never stopped it.
_IDLE_SPIN = (
    "import os, sys\n"
    "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
    "parent = int(sys.argv[1])\n"
    "while os.getppid() == parent:\n"
    "    pass\n"
)


def idle_spinner_argv() -> List[str]:
    """The command line of this process's idle spinner."""
    return [sys.executable, "-c", _IDLE_SPIN, str(os.getpid())]


@contextlib.asynccontextmanager
async def load_generator() -> AsyncIterator[Any]:
    """The clients' shared timer wheel, with no core of the host left idle.

    On a virtual machine a vCPU with nothing to run halts, and waking it
    for the next frame takes as long as the host's load makes it.  Two
    measures keep that wake-up out of the measurement.  This process's
    event loop polls instead of sleeping: over six interleaved pairs of
    arq_small runs, the run-to-run range of ops_per_s fell from 15% to
    6% and that of latency_p50_us from 20% to 3%.  A spinner at
    ``SCHED_IDLE`` priority occupies the server's core whenever the
    server sleeps and yields to it at once, so the server still sleeps
    between frames as in service, but wakes without a halted vCPU: in
    six more pairs arq_small's latency_p50_us spread 8% with it and 16%
    without.
    """
    from repro.serve.client import WheelRunner

    async def spin() -> None:
        while True:
            await asyncio.sleep(0)

    loop = asyncio.get_running_loop()
    idle = await asyncio.create_subprocess_exec(*idle_spinner_argv())
    runner = WheelRunner(loop).start()
    spinner = loop.create_task(spin())
    try:
        yield runner
    finally:
        spinner.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await spinner
        await runner.close()
        if idle.returncode is None:
            with contextlib.suppress(ProcessLookupError):
                idle.kill()
        await idle.wait()


async def serve(
    run: Run,
    protocol: str,
    module: str,
    first: Callable[[Any], Any],
    local: Callable[[], Optional[Tuple[str, int]]],
    body: Callable[[ServerProcess, Any], Awaitable[None]],
    **options: Any,
) -> None:
    """Set up a server, run ``body(server, runner)``, stop the server.

    Set-up spawns the server :data:`SETUP_SPAWNS` times and keeps the
    last one; each ``setup_s`` sample runs from the spawn to the first
    verified reply of a one-message session built by ``first(runner)``
    from source address ``local()``.
    """
    samples = run.samples.setdefault("setup_s", [])
    async with load_generator() as runner:
        for _ in range(SETUP_SPAWNS):
            started = time.perf_counter()
            server = ServerProcess(protocol, module, **options)
            try:
                port = await server.start()
                client = first(runner)
                sock = await connect(client, port, local=local())
                client.start()
                ok = await client.wait(TRIAL_TIMEOUT)
                client.close()
                if not ok or sock.done_at is None:
                    raise RuntimeError(f"{protocol}: no verified reply from a fresh server")
                samples.append(sock.done_at - started)
                if len(samples) == SETUP_SPAWNS:
                    await body(server, runner)
            finally:
                await server.stop()


def payload_batches(rng: random.Random, count: int, size: int) -> List[bytes]:
    return [rng.randbytes(size) for _ in range(count)]


def check_delivery(
    run: Run, collected: Dict[str, Any], socks: Sequence[Socket], expected: Sequence[Sequence[bytes]]
) -> int:
    """Compare each session's delivered payloads with what its client sent.

    Returns how many messages did not arrive; a wrong CRC32 over the
    delivered payloads is a correctness failure.
    """
    by_peer = {tuple(s["peer"]): s for s in collected["sessions"]}
    missing = 0
    for sock, payloads in zip(socks, expected):
        session = by_peer.get(tuple(sock.local))
        if session is None:
            missing += len(payloads)
            run.problems.append(f"no server session for client {sock.local}")
            continue
        count = session["delivered"]
        missing += max(0, len(payloads) - count)
        run.check(
            count == len(payloads),
            f"server delivered {count} of {len(payloads)} payloads from {sock.local}",
        )
        want = zlib.crc32(b"".join(payloads[:count]))
        run.check(
            session["crc32"] == want,
            f"delivered-payload CRC32 {session['crc32']:08x} != expected {want:08x} "
            f"for client {sock.local}",
        )
    return missing


def _rtt_percentiles(run: Run, rtts: List[float]) -> None:
    ordered = sorted(rtts)
    if not ordered:
        run.problems.append("no round trip was timed")
        return
    run.samples.setdefault("latency_p50_us", []).append(percentile(ordered, 0.50) * 1e6)
    run.samples.setdefault("latency_p99_us", []).append(percentile(ordered, 0.99) * 1e6)


def _more_trials(done: int, timed: float, seconds: float) -> bool:
    return done < MIN_TRIALS or (timed < seconds and done < MAX_TRIALS)


# -- transfer workloads (arq_small, sliding_bulk) --------------------------------


def _arq_seq(frame: bytes) -> int:
    return frame[0]


def _sliding_seq(frame: bytes) -> int:
    return (frame[0] << 8) | frame[1]


def _sliding_ack_seq(frame: bytes) -> int:
    return (frame[1] << 8) | frame[2]


class Transfer:
    """How one transfer workload builds its clients."""

    def __init__(self, protocol: str, clients: int, payload: int) -> None:
        self.protocol = protocol
        self.clients = clients
        self.payload = payload

    def client(self, runner: Any, payloads: List[bytes]) -> Any:
        from repro.serve.client import ArqClient, SlidingClient

        if self.protocol == "arq":
            return ArqClient(runner, payloads, rto=RTO)
        return SlidingClient(runner, payloads, window=WINDOW, rto=RTO)

    def clock(self) -> AckClock:
        if self.protocol == "arq":
            return AckClock(_arq_seq, _arq_seq)
        return AckClock(_sliding_seq, _sliding_ack_seq)


async def _transfer_trial(
    run: Run,
    server: ServerProcess,
    runner: Any,
    shape: Transfer,
    batches: List[List[bytes]],
    tracer: Any = None,
) -> Tuple[float, int, List[float], int, int]:
    """One closed-loop transfer; returns (seconds, delivered, rtts, sent, resent)."""
    clocks = [shape.clock() for _ in batches]
    clients = [shape.client(runner, batch) for batch in batches]
    socks = [
        await connect(c, server.port, clock=k, tracer=tracer)
        for c, k in zip(clients, clocks)
    ]
    started = time.perf_counter()
    for client in clients:
        client.start()
    oks = await asyncio.gather(*(c.wait(TRIAL_TIMEOUT) for c in clients))
    elapsed = time.perf_counter() - started
    for client in clients:
        client.close()
    collected = await server.call("collect", close=True)
    for ok, sock in zip(oks, socks):
        run.check(ok, f"{shape.protocol} client {sock.local} did not finish")
    missing = check_delivery(run, collected, socks, batches)
    sent = sum(len(b) for b in batches)
    run.attempted += sent
    run.failed += missing
    frames = sum(c.frames_sent for c in clients)
    resent = sum(c.retransmissions for c in clients)
    rtts = [rtt for clock in clocks for rtt in clock.rtts]
    return elapsed, sent - missing, rtts, frames, resent


async def run_transfer(
    workload: str,
    shape: Transfer,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    messages: int,
    warmup: int,
    traced_messages: int,
    server_module: str = SERVER_MODULE,
) -> Run:
    run = Run(workload)
    rng = random.Random(seed)

    async def body(server: ServerProcess, runner: Any) -> None:
        warm = [payload_batches(rng, warmup, shape.payload) for _ in range(shape.clients)]
        await _transfer_trial(run, server, runner, shape, warm)

        phase = Phase((await server.call("collect"))["cpu_s"])
        frames = resent = 0
        timed = 0.0
        while _more_trials(len(run.samples.get("ops_per_s", ())), timed, seconds):
            batches = [
                payload_batches(rng, messages, shape.payload) for _ in range(shape.clients)
            ]
            elapsed, delivered, rtts, sent, again = await _transfer_trial(
                run, server, runner, shape, batches
            )
            timed += elapsed
            frames += sent
            resent += again
            run.samples.setdefault("ops_per_s", []).append(delivered / elapsed)
            _rtt_percentiles(run, rtts)
        collected = await server.call("collect")
        server_busy, client_busy = phase.shares(collected["cpu_s"])
        run.samples["peak_rss_mb"] = [collected["maxrss_mb"]]
        run.check(
            resent == 0,
            f"{resent} retransmissions in clean timed trials ({frames} frames)",
        )
        run.layers.update(
            {
                "proc.server.cpu_busy": server_busy,
                "proc.client.cpu_busy": client_busy,
                "serve.client.retransmit_ratio": resent / frames if frames else 0.0,
                "serve.manager.sheds": 0.0,
            }
        )
        if trace:
            batches = [
                payload_batches(rng, traced_messages, shape.payload)
                for _ in range(shape.clients)
            ]

            async def traced(tracer: Any) -> Tuple[float, int]:
                elapsed, delivered, _, _, _ = await _transfer_trial(
                    run, server, runner, shape, batches, tracer=tracer
                )
                return elapsed, delivered

            await traced_trial(run, server, traced, "msg")

    await serve(
        run,
        shape.protocol,
        server_module,
        lambda r: shape.client(r, payload_batches(rng, 1, shape.payload)),
        lambda: None,
        body,
        seed=seed,
    )
    return run


# -- handshake_churn ---------------------------------------------------------------


async def _handshakes(
    run: Run,
    runner: Any,
    port: int,
    addresses: Iterator[str],
    nonce_seed: int,
    deadline: float,
    latencies: List[float],
    tracer: Any = None,
) -> None:
    """One closed handshake loop: a fresh socket and source address each time."""
    from repro.serve.client import HandshakeClient

    while time.perf_counter() < deadline:
        address = next(addresses)
        client = HandshakeClient(runner, seed=zlib.crc32(f"{nonce_seed}:{address}".encode()))
        sock = await connect(client, port, local=(address, 0), tracer=tracer)
        client.start()
        ok = await client.wait(HANDSHAKE_DEADLINE)
        client.close()
        run.attempted += 1
        if ok and client.established and sock.done_at is not None:
            latencies.append(sock.done_at - sock.first_send_at)
        else:
            run.failed += 1


async def _handshake_trial(
    run: Run,
    runner: Any,
    port: int,
    addresses: Iterator[str],
    seed: int,
    seconds: float,
    loops: int = 2,
    tracer: Any = None,
) -> Tuple[float, List[float]]:
    latencies: List[float] = []
    started = time.perf_counter()
    deadline = started + seconds
    await asyncio.gather(
        *(
            _handshakes(run, runner, port, addresses, seed, deadline, latencies, tracer)
            for _ in range(loops)
        )
    )
    return time.perf_counter() - started, latencies


async def _fill(run: Run, runner: Any, port: int, addresses: Iterator[str], seed: int, sessions: int) -> None:
    """Warm-up: open ``sessions`` Established sessions with two loops."""
    from repro.serve.client import HandshakeClient

    remaining = [sessions]

    async def loop() -> None:
        while remaining[0] > 0:
            remaining[0] -= 1
            address = next(addresses)
            client = HandshakeClient(runner, seed=zlib.crc32(f"{seed}:{address}".encode()))
            await connect(client, port, local=(address, 0))
            client.start()
            ok = await client.wait(HANDSHAKE_DEADLINE)
            client.close()
            run.check(ok, f"warm-up handshake from {address} failed")

    await asyncio.gather(loop(), loop())


async def run_handshakes(
    *,
    seed: int,
    seconds: float,
    trace: bool,
    sessions: int = HANDSHAKE_SESSIONS,
    trial_seconds: float = HANDSHAKE_TRIAL_SECONDS,
    traced_seconds: float = TRACED_HANDSHAKE_SECONDS,
    server_module: str = SERVER_MODULE,
) -> Run:
    from repro.serve.client import HandshakeClient

    run = Run("handshake_churn")
    addresses = source_addresses(seed)

    async def body(server: ServerProcess, runner: Any) -> None:
        await _fill(run, runner, server.port, addresses, seed, sessions)
        before = await server.call("collect")
        run.check(
            before["active"] == sessions,
            f"warm-up left {before['active']} sessions, expected {sessions}",
        )
        phase = Phase(before["cpu_s"])
        timed = 0.0
        while _more_trials(len(run.samples.get("ops_per_s", ())), timed, seconds):
            failed = run.failed
            elapsed, latencies = await _handshake_trial(
                run, runner, server.port, addresses, seed, trial_seconds
            )
            timed += elapsed
            run.samples.setdefault("ops_per_s", []).append(len(latencies) / elapsed)
            _rtt_percentiles(run, latencies)
            run.check(run.failed == failed, f"{run.failed - failed} handshakes failed")
        await asyncio.sleep(0.05)  # let the last ACKs reach the server
        after = await server.call("collect")
        server_busy, client_busy = phase.shares(after["cpu_s"])
        run.samples["peak_rss_mb"] = [after["maxrss_mb"]]
        run.check(
            after["shed"] == after["opened"] - sessions,
            f"shed {after['shed']} != opened {after['opened']} - {sessions}",
        )
        run.check(
            after["established"] == after["active"] == sessions,
            f"{after['established']} of {after['active']} live sessions Established",
        )
        accepted = after["opened"] - before["opened"]
        run.layers.update(
            {
                "proc.server.cpu_busy": server_busy,
                "proc.client.cpu_busy": client_busy,
                "serve.client.retransmit_ratio": 0.0,
                "serve.manager.sheds": (after["shed"] - before["shed"]) / accepted
                if accepted
                else 0.0,
            }
        )
        if trace:

            async def traced(tracer: Any) -> Tuple[float, int]:
                failed = run.failed
                elapsed, latencies = await _handshake_trial(
                    run, runner, server.port, addresses, seed, traced_seconds, tracer=tracer
                )
                run.check(run.failed == failed, "a traced handshake failed")
                return elapsed, len(latencies)

            await traced_trial(run, server, traced, "handshake")

    await serve(
        run,
        "handshake",
        server_module,
        lambda r: HandshakeClient(r, seed=seed),
        lambda: (next(addresses), 0),
        body,
        max_sessions=sessions,
        seed=seed,
    )
    return run


# -- the traced trial ------------------------------------------------------------


async def traced_trial(
    run: Run,
    server: ServerProcess,
    trial: Callable[[Any], Any],
    op: str,
) -> None:
    """Run ``trial(tracer)`` with spans on in both processes; fill ``run.layers``.

    The untraced trials ran first, so ``trace_overhead`` compares this
    trial's time per operation with their median.
    """
    from repro import obs

    OUT.mkdir(exist_ok=True)
    await server.call("trace_on")
    tracer = new_tracer()
    with contextlib.ExitStack() as patches:
        trace_core(patches, tracer)
        cpu = _own_cpu()
        elapsed, ops = await trial(tracer)
        client_cpu = _own_cpu() - cpu
    check_complete(tracer)
    run.check(not obs.get_default().enabled, "global repro.obs was enabled")
    reply = await server.call(
        "trace_off", spans=str(OUT / f"{run.workload}-server.jsonl")
    )
    write_jsonl(tracer, OUT / f"{run.workload}-client.jsonl")
    if ops <= 0:
        run.problems.append("the traced trial completed no operation")
        return
    server_layers = {
        name: Layer(**fields) for name, fields in reply["layers"].items()
    }
    client_layers = summarize(tracer.records())
    frames = server_layers["serve.transport.recv"].calls
    metrics = run.layers
    for spans, side, layers in (
        (SERVER_SPANS, "", server_layers),
        (CLIENT_SPANS, "", client_layers),
        (SHARED_SPANS, ".server", server_layers),
        (SHARED_SPANS, ".client", client_layers),
    ):
        for span in spans:
            layer = layers.get(span) or Layer(span)
            metrics[f"{span}_us{side}"] = layer.self_mean() * 1e6
            metrics[f"{span}_p50_us{side}"] = layer.self_p50 * 1e6
            metrics[f"{span}_calls{side}"] = layer.calls / ops
    metrics.update(reply["metrics"])
    for side, layers, cpu_s in (
        ("server", server_layers, reply["cpu_s"]),
        ("client", client_layers, client_cpu),
    ):
        wheel = layers.get("serve.wheel.advance")
        metrics[f"serve.wheel.busy_share.{side}"] = (
            wheel.inclusive / cpu_s if wheel is not None and cpu_s else 0.0
        )
    rows, residual, total = reconcile(server_layers, reply["cpu_s"], frames)
    metrics["serve.frame_us"] = total * 1e6
    metrics["serve.residual_us"] = residual * 1e6
    untraced = median(run.samples["ops_per_s"])
    metrics["trace_overhead"] = untraced / (ops / elapsed)
    run.tables.append(
        render_table(
            f"{run.workload}: server CPU per received frame "
            f"({frames} frames, {reply['records']} spans)",
            rows,
            residual,
            total,
            "frame",
        )
    )
    rows, residual, total = reconcile(client_layers, client_cpu, ops)
    run.tables.append(
        render_table(
            f"{run.workload}: load-generator CPU per {op} ({ops} {op}s, "
            f"{len(tracer)} spans; the residual includes the loop's polling)",
            rows,
            residual,
            total,
            op,
        )
    )
