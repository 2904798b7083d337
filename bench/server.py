"""The system under test for the serve workloads, in its own process.

Run as ``python -m bench.server --protocol arq`` from the root of a
checkout; :class:`bench.serve_load.ServerProcess` starts it.  It binds one
:class:`repro.serve.Server` on loopback UDP with ``repro.obs`` disabled,
prints ``{"port": N}`` on stdout, then answers one JSON object per line
on stdin with one JSON line on stdout:

``{"cmd": "collect", "close": bool}``
    Delivered-payload count and CRC32 per live session, manager counters,
    process CPU seconds and peak RSS; ``close`` closes every session.
``{"cmd": "trace_on"}`` / ``{"cmd": "trace_off", "spans": path}``
    Wrap the server's layers in spans, then unwrap them, write the spans
    as ``repro.obs`` JSONL to ``path`` and answer with per-layer totals.
``{"cmd": "quit"}``
    Close the server and exit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys
import time
import zlib
from contextlib import ExitStack
from typing import Any, Dict, List, Optional

from bench import use_src

#: The sliding-window receiver's window; the benchmark's clients use it too.
WINDOW = 16
#: Longer than any run, so no session the benchmark opened is reaped.
IDLE_TIMEOUT = 3600.0


def _rusage() -> Dict[str, float]:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
    }


class Control:
    """Answers the parent's commands against one running server."""

    def __init__(self, server: Any) -> None:
        self.server = server
        self.patches: Any = None
        self.tracer: Any = None
        self.traced_since = 0.0

    def collect(self, close: bool) -> Dict[str, Any]:
        manager = self.server.manager
        sessions: List[Dict[str, Any]] = []
        established = 0
        for peer, session in manager.sessions.items():
            app = session.app
            delivered = getattr(app, "delivered", None)
            if delivered is not None:
                sessions.append(
                    {
                        "peer": list(peer),
                        "delivered": len(delivered),
                        "crc32": zlib.crc32(b"".join(delivered)),
                    }
                )
            if getattr(app, "established", False):
                established += 1
        reply: Dict[str, Any] = dict(manager.stats())
        reply.update(_rusage())
        reply["sessions"] = sessions
        reply["established"] = established
        if close:
            manager.close_all(reason="peer")
        return reply

    def trace_on(self) -> Dict[str, Any]:
        from bench.trace import new_tracer, trace_server

        self.tracer = new_tracer()
        self.patches = ExitStack()
        trace_server(self.patches, self.tracer)
        self.traced_since = time.process_time()
        return {"ok": True}

    def trace_off(self, spans: str) -> Dict[str, Any]:
        from bench.stats import median
        from bench.trace import attr_values, check_complete, summarize, write_jsonl

        cpu = time.process_time() - self.traced_since
        self.patches.close()
        check_complete(self.tracer)
        write_jsonl(self.tracer, spans)
        records = self.tracer.records()
        sizes = attr_values(records, "bytes")
        hits = attr_values(records, "hit")
        waits = attr_values(records, "queue_wait")
        reply = {
            "cpu_s": cpu,
            "records": len(records),
            "layers": {
                name: layer.to_dict() for name, layer in summarize(records).items()
            },
            "metrics": {
                "core.packet.bytes_per_frame": sum(sizes) / len(sizes) if sizes else 0.0,
                "core.machine.try_exec_hit_ratio": sum(hits) / len(hits) if hits else 0.0,
                "serve.manager.queue_wait_us": sum(waits) / len(waits) * 1e6 if waits else 0.0,
                "serve.manager.queue_wait_p50_us": median(waits) * 1e6 if waits else 0.0,
            },
        }
        self.tracer = self.patches = None
        return reply


async def serve(args: argparse.Namespace) -> None:
    from repro import obs
    from repro.serve import ServeConfig, Server

    if obs.get_default().enabled:
        raise RuntimeError("repro.obs must stay disabled in the server under test")
    app_params = {"window": WINDOW} if args.protocol == "sliding" else {}
    config = ServeConfig(
        protocol=args.protocol,
        kind="udp",
        max_sessions=args.max_sessions,
        idle_timeout=IDLE_TIMEOUT,
        seed=args.seed,
        app_params=app_params,
    )
    server = await Server.start(config)
    control = Control(server)
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )

    def reply(message: Dict[str, Any]) -> None:
        sys.stdout.write(json.dumps(message) + "\n")
        sys.stdout.flush()

    reply({"port": server.udp_port})
    try:
        while True:
            line = await reader.readline()
            if not line:
                break  # the parent went away
            command = json.loads(line)
            name = command["cmd"]
            if name == "quit":
                break
            if name == "collect":
                reply(control.collect(bool(command.get("close"))))
            elif name == "trace_on":
                reply(control.trace_on())
            elif name == "trace_off":
                reply(control.trace_off(command["spans"]))
            else:
                raise ValueError(f"unknown command {name!r}")
    finally:
        if control.patches is not None:
            control.patches.close()
        await server.close()
    reply({"bye": True})


def parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description="serve one protocol for the benchmark")
    p.add_argument("--protocol", required=True)
    p.add_argument("--max-sessions", type=int, default=1024)
    p.add_argument("--seed", type=int, default=0)
    return p


def main(argv: Optional[List[str]] = None) -> None:
    use_src()
    asyncio.run(serve(parser().parse_args(argv)))


if __name__ == "__main__":
    main()
