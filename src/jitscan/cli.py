"""Command line front end.

    jitscan run --trace FILE --rules FILE [options]   replay a trace
    jitscan scan --rules FILE --page FILE             one-shot page scan
    jitscan check-trace FILE                          parse and validate

Exit codes: 0 clean, 1 a kill-severity signature matched, 2 bad input or
unwritable output.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .agent import SimConfig, replay
from .guard import PENALTY_ACTIONS, GuardConfig
from .mmu import DEFAULT_PAGE_SIZE, check_page_size
from .report import scan_lines
from .shadow import DETECTION_ACTIONS
from .signatures import parse_rules, scan_page
from .trace import parse_trace


class _BadInput(Exception):
    """Malformed input, a setting out of range or an unwritable report; main
    prints it on one line and exits 2."""


class _Parser(argparse.ArgumentParser):
    """Prints a usage error as one `jitscan: ...` line and exits 2; subparsers inherit it."""

    def error(self, message: str):
        self.exit(2, f"jitscan: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    run.add_argument("--action", choices=DETECTION_ACTIONS, default="kill",
                     help="response to signature detections (default kill)")
    run.add_argument("--threshold", type=int, default=GuardConfig.threshold,
                     help="pending snapshots per uid before a penalty")
    run.add_argument("--ttl-penalty", type=int, default=GuardConfig.ttl_penalty,
                     help="penalty window in ticks; it ends early if the uid is "
                     "evicted first (see --ttl-evict)")
    run.add_argument("--ttl-evict", type=int, default=GuardConfig.ttl_evict,
                     help="ticks at zero pending before an entry is evicted")
    run.add_argument("--penalty-action", choices=PENALTY_ACTIONS,
                     default=GuardConfig.penalty_action,
                     help="what a throttle denial does to the process")
    run.add_argument("--page-size", type=int, default=DEFAULT_PAGE_SIZE)
    run.add_argument("--drain-every", type=int, default=1, metavar="N",
                     help="agent drains after every Nth event; 0 disables")
    run.add_argument("--report", help="write the report here instead of stdout")

    scan = sub.add_parser("scan", help="scan one page image against the rules")
    scan.add_argument("--rules", required=True)
    scan.add_argument("--page", required=True, help="page image (at most one page)")
    scan.add_argument("--page-size", type=int, default=DEFAULT_PAGE_SIZE)

    check = sub.add_parser("check-trace", help="parse and validate a trace file")
    check.add_argument("trace", help="trace file")
    check.add_argument("--page-size", type=int, default=DEFAULT_PAGE_SIZE)
    return parser


def _load(what: str, parse, path: str, page_size: int):
    """parse(text of path); unreadable or malformed input is a _BadInput."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse(handle.read(), page_size=page_size)
    except (OSError, ValueError) as exc:  # parse errors and bad UTF-8 are ValueErrors
        raise _BadInput(f"{what}: {exc}") from None


def _cmd_run(args) -> int:
    try:  # the configs hold the flags' ranges, checked before any file is read
        guard = GuardConfig(threshold=args.threshold, penalty_action=args.penalty_action,
                            ttl_penalty=args.ttl_penalty, ttl_evict=args.ttl_evict)
        config = SimConfig(page_size=args.page_size, sync_check=args.sync_check == "on",
                           detection_action=args.action, drain_every=args.drain_every,
                           guard=guard)
    except ValueError as exc:
        raise _BadInput(str(exc)) from None
    rules = _load("rules", parse_rules, args.rules, args.page_size)
    lines = _load("trace", parse_trace, args.trace, args.page_size)
    sink = contextlib.nullcontext(sys.stdout.buffer)
    if args.report:  # opened first, so a bad path fails before the replay
        try:
            sink = open(args.report, "wb")
        except OSError as exc:
            raise _BadInput(f"report: {exc}") from None
    try:
        with sink as out:
            report = replay(lines, rules, config)
            out.write(report.emit("jsonl"))
            out.flush()
    except OSError as exc:
        if not args.report:
            raise  # stdout: main reports it
        raise _BadInput(f"report: {exc}") from None
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
        with open(args.page, "rb") as handle:  # one byte past a page tells it is too large
            image = handle.read(args.page_size + 1)
    except OSError as exc:
        raise _BadInput(f"page: {exc}") from None
    if len(image) > args.page_size:
        raise _BadInput(f"page image is larger than one {args.page_size}-byte page")
    matches = scan_page(image.ljust(args.page_size, b"\x00"), rules)
    print("\n".join(scan_lines(matches, rules.by_name)))
    return 1 if any(rules.by_name[m.rule].severity == "kill" for m in matches) else 0


def _cmd_check(args) -> int:
    lines = _load("trace", parse_trace, args.trace, args.page_size)
    print(f"ok: {len(lines)} events")
    return 0


_COMMANDS = {"run": _cmd_run, "scan": _cmd_scan, "check-trace": _cmd_check}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:  # checked before any read allocates a page
            check_page_size(args.page_size)
        except ValueError as exc:
            raise _BadInput(str(exc)) from None
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except _BadInput as exc:
        print(f"jitscan: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # inputs and the report file are handled above: stdout failed
        print(f"jitscan: output: {exc}", file=sys.stderr)
        _discard_stdout()
        return 2


def _discard_stdout() -> None:
    """Point stdout's fd at the null device, so the exit-time flush of what
    stdout still buffers succeeds instead of printing "Exception ignored"."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # not backed by a file descriptor: nothing flushes to one
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


if __name__ == "__main__":
    sys.exit(main())
