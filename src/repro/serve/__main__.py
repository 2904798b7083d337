"""``python -m repro.serve`` — the serving plane's operational CLI.

Three subcommands:

* ``serve`` binds a real UDP (and/or TCP) listener hosting a registry
  protocol; with ``--record FILE`` every session's exchange is written
  as an ``exchange`` record (:mod:`repro.obs.records`) for offline
  differential replay.  Point
  ``REPRO_OBS_EXPORT`` at a path and ``python -m repro.obs top`` at the
  same path for a live dashboard.
* ``client`` hosts one protocol's initiator role against a server.
* ``loopback`` runs the full differential experiment — server + N
  clients + seeded impairment + simulator replay — and exits non-zero
  on any divergence; this is the command CI's serve-smoke lane runs.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from typing import List, Optional

from repro.obs.instrument import enable as obs_enable
from repro.serve.apps import APPS
from repro.serve.client import WheelRunner, build_client
from repro.serve.loopback import LoopbackConfig, run_loopback
from repro.serve.record import save_records
from repro.serve.transport import ServeConfig, Server


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Real-socket serving plane for the DSL protocol machines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="bind a listener and serve sessions")
    serve.add_argument("protocol", choices=sorted(APPS))
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=9300)
    serve.add_argument(
        "--kind", choices=["udp", "tcp", "both"], default="udp",
        help="listener kind (default udp)",
    )
    serve.add_argument("--max-sessions", type=int, default=1024)
    serve.add_argument("--max-queue", type=int, default=64)
    serve.add_argument("--idle-timeout", type=float, default=30.0)
    serve.add_argument("--window", type=int, default=8, help="sliding window")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--record", metavar="FILE", default=None,
        help="write per-session exchange records (JSONL) on shutdown",
    )

    client = sub.add_parser("client", help="run one DSL client against a server")
    client.add_argument("protocol", choices=sorted(APPS))
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=9300)
    client.add_argument("--messages", type=int, default=8)
    client.add_argument("--payload-size", type=int, default=24)
    client.add_argument("--window", type=int, default=8)
    client.add_argument("--rto", type=float, default=0.25)
    client.add_argument("--seed", type=int, default=0)
    client.add_argument("--timeout", type=float, default=15.0)

    loop = sub.add_parser(
        "loopback",
        help="differential experiment: live server vs simulator oracle",
    )
    loop.add_argument("protocol", choices=[*sorted(APPS), "all"])
    loop.add_argument("--clients", type=int, default=4)
    loop.add_argument("--messages", type=int, default=6)
    loop.add_argument("--payload-size", type=int, default=24)
    loop.add_argument("--window", type=int, default=8)
    loop.add_argument("--seed", type=int, default=0)
    loop.add_argument("--rto", type=float, default=0.08)
    loop.add_argument("--loss", type=float, default=0.0)
    loop.add_argument("--duplication", type=float, default=0.0)
    loop.add_argument("--reorder", type=float, default=0.0)
    loop.add_argument("--timeout", type=float, default=20.0)
    loop.add_argument("--json", action="store_true", help="machine-readable")
    return parser


async def _serve(args: argparse.Namespace) -> int:
    obs_enable()
    params = {"window": args.window} if args.protocol == "sliding" else {}
    server = await Server.start(
        ServeConfig(
            protocol=args.protocol,
            host=args.host,
            port=args.port,
            kind=args.kind,
            max_sessions=args.max_sessions,
            max_queue=args.max_queue,
            idle_timeout=args.idle_timeout,
            seed=args.seed,
            record=args.record is not None,
            app_params=params,
        )
    )
    ports = []
    if server.udp_port is not None:
        ports.append(f"udp:{server.udp_port}")
    if server.tcp_port is not None:
        ports.append(f"tcp:{server.tcp_port}")
    print(
        f"serving {args.protocol} on {args.host} [{', '.join(ports)}] "
        f"(max {args.max_sessions} sessions); Ctrl-C stops",
        flush=True,
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:
            pass
    try:
        await stop.wait()
    finally:
        server.manager.close_all(reason="shutdown")
        if args.record:
            records = server.manager.collect_records()
            with open(args.record, "w", encoding="utf-8") as handle:
                count = save_records(records, handle)
            print(f"wrote {count} exchange records to {args.record}")
        print(json.dumps(server.manager.stats(), sort_keys=True))
        await server.close()
    return 0


async def _client(args: argparse.Namespace) -> int:
    from repro.serve.loopback import LoopbackConfig, client_messages

    runner = WheelRunner(asyncio.get_running_loop()).start()
    messages = client_messages(
        LoopbackConfig(
            messages=args.messages,
            payload_size=args.payload_size,
            seed=args.seed,
        ),
        0,
    )
    client = build_client(
        args.protocol,
        runner,
        messages=messages,
        seed=args.seed,
        rto=args.rto,
        window=args.window,
    )
    try:
        await client.connect(args.host, args.port)
        client.start()
        ok = await client.wait(args.timeout)
    finally:
        client.close()
        await runner.close()
    print(json.dumps(client.summary(), sort_keys=True))
    return 0 if ok else 1


async def _loopback(args: argparse.Namespace) -> int:
    protocols = sorted(APPS) if args.protocol == "all" else [args.protocol]
    exit_code = 0
    for protocol in protocols:
        config = LoopbackConfig(
            protocol=protocol,
            clients=args.clients,
            messages=args.messages,
            payload_size=args.payload_size,
            window=args.window,
            seed=args.seed,
            rto=args.rto,
            loss_rate=args.loss,
            duplication_rate=args.duplication,
            reorder_rate=args.reorder,
            client_timeout=args.timeout,
        )
        report = await run_loopback(config)
        if args.json:
            print(json.dumps(report.summary(), sort_keys=True))
        else:
            summary = report.summary()
            diff = summary.get("differential", {})
            print(
                f"{protocol}: clients {summary['clients_ok']}/"
                f"{summary['clients']}, records {diff.get('records', 0)}, "
                f"divergences {diff.get('divergent', 0)} -> "
                f"{'OK' if report.ok else 'DIVERGED'}"
            )
            if report.differential is not None:
                for result in report.differential.divergent:
                    for line in result.divergences + result.model_notes:
                        print(f"  {result.record.peer}: {line}")
        if not report.ok:
            exit_code = 1
    return exit_code


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        return asyncio.run(_serve(args))
    if args.command == "client":
        return asyncio.run(_client(args))
    return asyncio.run(_loopback(args))


if __name__ == "__main__":
    sys.exit(main())
