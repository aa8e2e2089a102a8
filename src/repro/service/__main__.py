"""Command-line entry points for the sweep service.

::

    python -m repro.service serve --dir runs/svc            # the daemon
    python -m repro.service http --dir runs/svc --port 8321 # HTTP front end
    python -m repro.service submit --dir runs/svc \\
        --victims gdnpeu --schemes baseline,dom-nontso      # a job
    python -m repro.service status --dir runs/svc [JOB]
    python -m repro.service tail --dir runs/svc JOB         # live deltas
    python -m repro.service result --dir runs/svc JOB
    python -m repro.service cancel --dir runs/svc JOB
    python -m repro.service gc --dir runs/svc --max-bytes 64000000
    python -m repro.service chaos-smoke --seed 7            # CI gate

``chaos-smoke`` is the differential acceptance check: it runs a small
fixed-seed grid through the service under a seeded chaos schedule
(worker SIGKILLs, a daemon kill + restart, I/O faults, a torn cache
entry) and exits non-zero unless the merged result is bit-identical to
an undisturbed run with zero lost and zero duplicated trials.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from typing import Dict, List, Optional

from repro.runner.spec import expand_grid


def _parse_quotas(pairs: List[str]) -> Dict[str, int]:
    quotas: Dict[str, int] = {}
    for pair in pairs:
        tenant, _, limit = pair.partition("=")
        if not tenant or not limit.isdigit():
            raise SystemExit(f"--quota expects TENANT=N, got {pair!r}")
        quotas[tenant] = int(limit)
    return quotas


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.supervisor import SweepSupervisor

    supervisor = SweepSupervisor(
        args.dir,
        workers=args.workers,
        chunksize=args.chunksize,
        lease_ttl=args.lease_ttl,
        max_retries=args.max_retries,
        quotas=_parse_quotas(args.quota),
        default_quota=args.default_quota,
        cache=not args.no_cache,
        journal_fsync=not args.no_fsync,
    )
    print(f"supervising {args.dir} (workers={args.workers})", flush=True)
    supervisor.run_forever()
    return 0


def _cmd_http(args: argparse.Namespace) -> int:
    import time

    from repro.service.httpd import start_http_server

    server = start_http_server(
        args.dir,
        host=args.host,
        port=args.port,
        quotas=_parse_quotas(args.quota),
        default_quota=args.default_quota,
    )
    host, port = server.server_address[:2]
    print(f"serving http://{host}:{port}/v1/ over {args.dir}", flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        server.shutdown()
    return 0


def _split(raw: str) -> List[str]:
    return [item for item in raw.split(",") if item]


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.api import ServiceClient

    client = ServiceClient(args.dir)
    specs = expand_grid(
        _split(args.victims),
        _split(args.schemes),
        [int(s) for s in _split(args.secrets)],
        base_seed=args.seed,
    )
    job_id = client.submit(specs, priority=args.priority, tenant=args.tenant)
    print(job_id)
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.service.api import ServiceClient

    client = ServiceClient(args.dir)
    if args.job:
        print(json.dumps(client.progress(args.job), indent=2, sort_keys=True))
        return 0
    for job_id, view in sorted(client.jobs().items()):
        print(
            f"{job_id}  {view.status.value:<10} tenant={view.tenant} "
            f"prio={view.priority} n={view.n_specs}"
        )
    return 0


def _cmd_tail(args: argparse.Namespace) -> int:
    from repro.service.api import ServiceClient

    client = ServiceClient(args.dir)
    for record in client.stream(args.job, timeout=args.timeout):
        print(json.dumps(record, sort_keys=True), flush=True)
    return 0


def _cmd_result(args: argparse.Namespace) -> int:
    from repro.service.api import ServiceClient
    from repro.service.codec import sweep_result_to_json

    result = ServiceClient(args.dir).result(args.job)
    if result is None:
        print(f"job {args.job}: result not published yet", file=sys.stderr)
        return 1
    print(json.dumps(sweep_result_to_json(result), indent=2, sort_keys=True))
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    from repro.service.api import ServiceClient

    if ServiceClient(args.dir).cancel(args.job):
        print(f"cancelled {args.job}")
        return 0
    print(f"job {args.job} unknown or already terminal", file=sys.stderr)
    return 1


def _cmd_gc(args: argparse.Namespace) -> int:
    import os

    from repro.runner.cache import TrialCache

    cache_dir = os.path.join(args.dir, "cache")
    cache = TrialCache(cache_dir)
    removed = cache.gc(max_bytes=args.max_bytes)
    print(f"evicted {removed} entr{'y' if removed == 1 else 'ies'} from {cache_dir}")
    return 0


def _cmd_chaos_smoke(args: argparse.Namespace) -> int:
    from repro.service.chaos import chaos_differential

    specs = expand_grid(
        _split(args.victims), _split(args.schemes), (0, 1), base_seed=args.seed
    )
    workdir: Optional[str] = args.dir
    temporary = workdir is None
    if temporary:
        workdir = tempfile.mkdtemp(prefix="repro-chaos-smoke-")
    report = None
    try:
        # chaos_differential stops its daemon and workers before it
        # returns or raises.
        report = chaos_differential(
            specs, workdir, seed=args.seed, timeout=args.timeout
        )
    finally:
        if temporary:
            if report is not None and report["identical"]:
                shutil.rmtree(workdir, ignore_errors=True)
            else:
                print(f"chaos-smoke work dir kept: {workdir}", file=sys.stderr)
    print(json.dumps(report, indent=2, sort_keys=True))
    if not report["identical"]:
        print("chaos-smoke FAILED: chaos run diverged", file=sys.stderr)
        return 1
    print(
        f"chaos-smoke OK: {report['n_trials']} trials bit-identical across "
        f"{report['daemon_incarnations']} daemon incarnation(s)",
        file=sys.stderr,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Supervised sweep service",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dir(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dir", required=True, help="service directory")

    p = sub.add_parser("serve", help="run the supervisor daemon")
    add_dir(p)
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--chunksize", type=int, default=4)
    p.add_argument("--lease-ttl", type=float, default=5.0)
    p.add_argument("--max-retries", type=int, default=3)
    p.add_argument("--quota", action="append", default=[], metavar="TENANT=N")
    p.add_argument("--default-quota", type=int, default=None)
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--no-fsync", action="store_true",
                   help="skip per-record journal fsync (faster, less durable)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("http", help="run the HTTP/SSE front end")
    add_dir(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8321)
    p.add_argument("--quota", action="append", default=[], metavar="TENANT=N")
    p.add_argument("--default-quota", type=int, default=None)
    p.set_defaults(func=_cmd_http)

    p = sub.add_parser("submit", help="submit a victim x scheme x secret grid")
    add_dir(p)
    p.add_argument("--victims", required=True, help="comma-separated")
    p.add_argument("--schemes", required=True, help="comma-separated")
    p.add_argument("--secrets", default="0,1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--priority", type=int, default=0)
    p.add_argument("--tenant", default="default")
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser("status", help="list jobs, or one job's progress")
    add_dir(p)
    p.add_argument("job", nargs="?", default=None)
    p.set_defaults(func=_cmd_status)

    p = sub.add_parser("tail", help="follow a job's delta stream")
    add_dir(p)
    p.add_argument("job")
    p.add_argument("--timeout", type=float, default=None)
    p.set_defaults(func=_cmd_tail)

    p = sub.add_parser("result", help="print a job's merged result")
    add_dir(p)
    p.add_argument("job")
    p.set_defaults(func=_cmd_result)

    p = sub.add_parser("cancel", help="cancel an open job")
    add_dir(p)
    p.add_argument("job")
    p.set_defaults(func=_cmd_cancel)

    p = sub.add_parser("gc", help="evict the shared trial cache to a size bound")
    add_dir(p)
    p.add_argument("--max-bytes", type=int, required=True)
    p.set_defaults(func=_cmd_gc)

    p = sub.add_parser(
        "chaos-smoke",
        help="fixed-seed chaos differential (CI gate): exits 1 on divergence",
    )
    p.add_argument("--dir", default=None, help="work dir (default: temp)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--victims", default="gdnpeu,gdmshr")
    p.add_argument("--schemes", default="dom-nontso,fence-spectre")
    p.add_argument("--timeout", type=float, default=240.0)
    p.set_defaults(func=_cmd_chaos_smoke)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return int(args.func(args))
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly without a
        # traceback (and without flushing the dead stdout at shutdown).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
