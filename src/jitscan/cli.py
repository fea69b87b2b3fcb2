"""Command line front end.

    jitscan run --trace FILE --rules FILE [options]   replay a trace
    jitscan scan --rules FILE --page FILE             one-shot page scan
    jitscan check-trace FILE                          parse and validate

Exit codes: 0 clean, 1 a kill-severity signature matched, 2 bad input.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from .agent import SimConfig, replay
from .guard import GuardConfig
from .mmu import DEFAULT_PAGE_SIZE
from .report import encode_record
from .signatures import parse_rules, scan_page
from .trace import parse_trace


class _BadInput(Exception):
    """Malformed input; main prints it on one line and exits 2."""


# the largest --page-size, x86-64's 2 MiB huge page: a page is allocated whole
MAX_PAGE_SIZE = 2**21


def _in_range(minimum: int, maximum: int | None = None):
    """argparse type: an integer no smaller than minimum and no larger than maximum."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {value}")
        return value

    return parse


_positive = _in_range(1)
_page_size = _in_range(1, MAX_PAGE_SIZE)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jitscan",
        description="Replay memory traces under W^X shadow paging and scan "
        "executable pages against byte signatures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="replay a trace and emit a report")
    run.add_argument("--trace", required=True, help="trace file")
    run.add_argument("--rules", required=True, help="signature rule file")
    run.add_argument("--sync-check", choices=["on", "off"], default="on",
                     help="in-fault-path check of sync rules (default on)")
    run.add_argument("--action", choices=["kill", "block", "alert"], default="kill",
                     help="response to signature detections (default kill)")
    run.add_argument("--threshold", type=_positive, default=GuardConfig.threshold,
                     help="pending snapshots per uid before a penalty")
    run.add_argument("--ttl-penalty", type=_positive, default=GuardConfig.ttl_penalty,
                     help="penalty window in ticks")
    run.add_argument("--ttl-evict", type=_positive, default=GuardConfig.ttl_evict,
                     help="ticks at zero pending before an entry is evicted")
    run.add_argument("--penalty-action", choices=["kill", "block"], default="kill",
                     help="what a throttle denial does to the process")
    run.add_argument("--page-size", type=_page_size, default=DEFAULT_PAGE_SIZE)
    run.add_argument("--drain-every", type=_in_range(0), default=1, metavar="N",
                     help="agent drains after every Nth event; 0 disables")
    run.add_argument("--report", help="write the report here instead of stdout")

    scan = sub.add_parser("scan", help="scan one page image against the rules")
    scan.add_argument("--rules", required=True)
    scan.add_argument("--page", required=True, help="page image (at most one page)")
    scan.add_argument("--page-size", type=_page_size, default=DEFAULT_PAGE_SIZE)

    check = sub.add_parser("check-trace", help="parse and validate a trace file")
    check.add_argument("trace", help="trace file")
    check.add_argument("--page-size", type=_page_size, default=DEFAULT_PAGE_SIZE)
    return parser


def _load(what: str, parse, path: str, page_size: int):
    """parse(text of path); unreadable or malformed input is a _BadInput."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse(handle.read(), page_size=page_size)
    except (OSError, ValueError) as exc:  # parse errors and bad UTF-8 are ValueErrors
        raise _BadInput(f"{what}: {exc}") from None


def _cmd_run(args) -> int:
    rules = _load("rules", parse_rules, args.rules, args.page_size)
    lines = _load("trace", parse_trace, args.trace, args.page_size)
    config = SimConfig(
        page_size=args.page_size,
        sync_check=args.sync_check == "on",
        detection_action=args.action,
        drain_every=args.drain_every,
        guard=GuardConfig(
            threshold=args.threshold,
            penalty_action=args.penalty_action,
            ttl_penalty=args.ttl_penalty,
            ttl_evict=args.ttl_evict,
        ),
    )
    sink = contextlib.nullcontext(sys.stdout.buffer)
    if args.report:  # opened first, so a bad path fails before the replay
        try:
            sink = open(args.report, "wb")
        except OSError as exc:
            raise _BadInput(f"report: {exc}") from None
    with sink as out:
        report = replay(lines, rules, config)
        out.write(report.emit("jsonl"))
        out.flush()
    if args.report:
        print(
            f"jitscan: {report.metrics['events']} events, "
            f"{report.metrics['detections']} detections -> {args.report}",
            file=sys.stderr,
        )
    return 1 if report.any_kill_detection else 0


def _cmd_scan(args) -> int:
    rules = _load("rules", parse_rules, args.rules, args.page_size)
    try:
        with open(args.page, "rb") as handle:
            image = handle.read()
    except OSError as exc:
        raise _BadInput(f"page: {exc}") from None
    if len(image) > args.page_size:
        raise _BadInput(
            f"page image is {len(image)} bytes, larger than one {args.page_size}-byte page"
        )
    matches = scan_page(image.ljust(args.page_size, b"\x00"), rules)
    exit_kill = False
    for match in matches:
        rule = rules.by_name[match.rule]
        exit_kill = exit_kill or rule.severity == "kill"
        print(encode_record(
            {"record": "match", "rule": rule.name, "family": rule.family,
             "severity": rule.severity, "offset": match.offset},
        ))
    print(encode_record({"record": "summary", "matches": len(matches)}))
    return 1 if exit_kill else 0


def _cmd_check(args) -> int:
    lines = _load("trace", parse_trace, args.trace, args.page_size)
    print(f"ok: {len(lines)} events")
    return 0


_COMMANDS = {"run": _cmd_run, "scan": _cmd_scan, "check-trace": _cmd_check}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _BadInput as exc:
        print(f"jitscan: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
