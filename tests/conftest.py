"""Shared fixtures and independent reference models.

The oracles here deliberately know nothing about the implementation:
the scanner oracle is a literal sliding window, the snapshot oracle is
a two-variable recurrence over one page's history, the W^X checker
inspects raw PTE and TLB state, the guard oracle sweeps its whole uid
table on every tick, the replay oracle keeps one dict of permissions
per page and no TLB, the trace oracle reads each line through a
per-line field object with one method per field kind, the rule
oracle reads every line with one token loop and checks each rule
there, and the access oracle runs every kind down one path with one
permission test, the record oracle is ``json.dumps``, and the content
oracle compares each fetched frame with the bytes its page's last passed
check saw.  Tests compare engine output against these instead of
trusting the engine's own bookkeeping.
"""

from __future__ import annotations

import json
import random
import re
import sys

from jitscan.agent import RunContext, SimConfig, _apply_event, build_run
from jitscan.guard import GuardConfig
from jitscan.mmu import MAX_WRITTEN_SPANS, OK, AccessResult, Machine, SimError
from jitscan.signatures import RuleSyntaxError, SignatureRule
from jitscan.trace import FETCH, MMAP, MPROTECT, PROC, READ, TICK, WRITE, TraceError, parse_trace

# one line per acceptance criterion, echoed after the run
ACCEPTANCE_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)


# distinctive bytes standing in for a real shellcode stub
SYNC_STUB = bytes.fromhex("feedc0dedeadbeefcafebabe0f05c390")

SYNC_RULES_TEXT = (
    "# in-fault-path stub check\n"
    "rule stub_shellcode family=stub severity=kill sync "
    "{ fe ed c0 de de ad be ef ca fe ba be 0f 05 c3 90 }\n"
)


def quiet_run(rules=None, page_size: int = 4096, **settings) -> RunContext:
    """``build_run``'s stack from SimConfig(page_size, **settings) with a guard
    that never throttles: the rig of every test that drives a machine itself."""
    guard = GuardConfig(threshold=sys.maxsize)
    return build_run(SimConfig(page_size=page_size, guard=guard, **settings), rules)


def naive_scan(content: bytes, patterns: list[tuple[str, tuple[int | None, ...]]]):
    """Sliding-window scan: every (offset, name), overlapping included."""
    hits = []
    for name, atoms in patterns:
        length = len(atoms)
        for off in range(len(content) - length + 1):
            if all(a is None or content[off + i] == a for i, a in enumerate(atoms)):
                hits.append((off, name))
    return sorted(hits)


def snapshot_reference(ops: list[str]) -> list[bool]:
    """Expected snapshot emission per op for one W+X page.

    A snapshot happens on a fetch when the page has never been
    materialized, or when any write landed since the last fetch.
    """
    materialized = False
    write_since_fetch = False
    out = []
    for op in ops:
        if op == "write":
            materialized = True
            write_since_fetch = True
            out.append(False)
        else:
            out.append(not materialized or write_since_fetch)
            materialized = True
            write_since_fetch = False
    return out


class SweepGuard:
    """Reference flood guard: every tick walks the whole uid table.

    Same contract as DosGuard (admit / on_delivered / tick / pending and
    the three counters), written the slow obvious way: each entry carries
    its own penalty end and idle-since tick, and tick expires penalties
    and evicts idle entries by visiting every uid.  admit sweeps at the
    tick before its own, and a delivery with nothing pending raises.
    """

    def __init__(self, config):
        self.config = config
        self.entries: dict[int, dict] = {}
        self.admits = self.denials = self.evictions = 0

    def admit(self, uid: int, now: int) -> str | None:
        cfg = self.config
        self.tick(now - 1)
        entry = self.entries.setdefault(
            uid, {"pending": 0, "penalized_until": None, "zero_since": now}
        )
        if entry["penalized_until"] is not None and now >= entry["penalized_until"]:
            entry["penalized_until"] = None
        if entry["penalized_until"] is not None:
            self.denials += 1
            return cfg.penalty_action
        if entry["pending"] + 1 > cfg.threshold:
            entry["penalized_until"] = now + cfg.ttl_penalty
            self.denials += 1
            return cfg.penalty_action
        entry["pending"] += 1
        entry["zero_since"] = None
        self.admits += 1
        return None

    def on_delivered(self, uid: int, now: int) -> None:
        entry = self.entries.get(uid)
        if entry is None or entry["pending"] == 0:
            raise SimError(f"delivery for uid {uid} with nothing pending")
        entry["pending"] -= 1
        if entry["pending"] == 0:
            entry["zero_since"] = now

    def tick(self, now: int) -> list[int]:
        evicted = []
        for uid, entry in list(self.entries.items()):
            if entry["penalized_until"] is not None and now >= entry["penalized_until"]:
                entry["penalized_until"] = None
            if (
                entry["pending"] == 0
                and entry["zero_since"] is not None
                and now - entry["zero_since"] >= self.config.ttl_evict
            ):
                del self.entries[uid]
                evicted.append(uid)
        self.evictions += len(evicted)
        return evicted

    def pending(self, uid: int) -> int:
        entry = self.entries.get(uid)
        return 0 if entry is None else entry["pending"]


_REF_PERMS = re.compile(r"[rwx]+$")
_REF_INT = re.compile(r"[0-9]+|0x[0-9a-fA-F]+")


def _ref_fields(tokens: list[str], line_no: int) -> dict[str, str]:
    out: dict[str, str] = {}
    for tok in tokens:
        if "=" not in tok:
            raise TraceError(f"expected key=value, got {tok!r}", line_no)
        key, _, value = tok.partition("=")
        if key in out:
            raise TraceError(f"duplicate field {key!r}", line_no)
        out[key] = value
    return out


class _RefLine:
    def __init__(self, line_no: int, fields: dict[str, str]):
        self.line_no = line_no
        self.fields = fields
        self.used: set[str] = set()

    def int_(self, key: str, minimum: int | None = None) -> int:
        raw = self.str_(key)
        if not _REF_INT.fullmatch(raw):
            raise TraceError(f"{key} must be an integer, got {raw!r}", self.line_no)
        try:
            value = int(raw, 16 if raw.startswith("0x") else 10)
        except ValueError:  # a decimal past the interpreter's digit limit
            raise TraceError(f"{key} must be an integer, got {raw!r}", self.line_no)
        if minimum is not None and value < minimum:
            raise TraceError(f"{key} must be >= {minimum}, got {value}", self.line_no)
        return value

    def str_(self, key: str) -> str:
        if key not in self.fields:
            raise TraceError(f"missing field {key}=", self.line_no)
        self.used.add(key)
        return self.fields[key]

    def opt_int(self, key: str, minimum: int | None = None) -> int | None:
        return self.int_(key, minimum) if key in self.fields else None

    def perms(self, key: str = "perms") -> str:
        raw = self.str_(key)
        if not _REF_PERMS.match(raw) or len(set(raw)) != len(raw):
            raise TraceError(f"bad perms {raw!r} (subset of rwx)", self.line_no)
        return raw

    def hex_(self, key: str) -> bytes:
        raw = self.str_(key)
        try:
            return bytes.fromhex(raw)
        except ValueError:
            raise TraceError(f"{key} must be hex bytes, got {raw!r}", self.line_no)

    def opt_hex(self, key: str) -> bytes | None:
        return self.hex_(key) if key in self.fields else None

    def done(self) -> None:
        extra = set(self.fields) - self.used
        if extra:
            raise TraceError(f"unknown field(s): {', '.join(sorted(extra))}", self.line_no)


def reference_parse_trace(text: str, page_size: int = 4096) -> list[tuple]:
    """Reference trace parser: one field object per line, one if per event.

    Lines end at "\n" only, and an integer is ASCII decimal digits or
    0x and hex digits, checked with a regex; the rest is the per-method
    parser that the table-driven ``parse_trace`` replaced.  Each event is
    the tuple (op code, line number, fields in the order trace.py states).
    """
    out: list[tuple] = []
    n_pids = 0
    for line_no, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        tokens = stripped.split()
        op, rest = tokens[0].upper(), tokens[1:]
        line = _RefLine(line_no, _ref_fields(rest, line_no))

        def need_pid() -> int:
            pid = line.int_("pid", minimum=1)
            if pid > n_pids:
                raise TraceError(f"pid {pid} not created yet", line_no)
            return pid

        if op == "PROC":
            event = (PROC, line_no, line.int_("uid", minimum=0))
            n_pids += 1
        elif op == "MMAP":
            pid, perms = need_pid(), line.perms()
            n_pages = line.int_("pages", minimum=1)
            content = line.opt_hex("content")
            event = (MMAP, line_no, pid, perms, n_pages, content, line.opt_int("at", minimum=0))
            if content is not None and len(content) > n_pages * page_size:
                raise TraceError(
                    f"content is {len(content)} bytes, more than"
                    f" {n_pages} page(s) of {page_size}", line_no,
                )
        elif op == "MPROTECT":
            event = (
                MPROTECT, line_no, need_pid(), line.int_("start", minimum=0),
                line.int_("pages", minimum=1), line.perms(),
            )
        elif op in ("WRITE", "FETCH", "READ"):
            code = {"WRITE": WRITE, "FETCH": FETCH, "READ": READ}[op]
            event = (
                code, line_no, need_pid(), line.int_("tid", minimum=0),
                line.int_("cpu", minimum=0), line.int_("addr", minimum=0),
            )
            if op == "WRITE":
                data = line.hex_("bytes")
                if not data:
                    raise TraceError("bytes must not be empty", line_no)
                if (event[5] % page_size) + len(data) > page_size:
                    raise TraceError("write payload crosses a page boundary", line_no)
                event += (data,)
        elif op == "TICK":
            event = (TICK, line_no, line.int_("n", minimum=1))
        else:
            raise TraceError(f"unknown event {tokens[0]!r}", line_no)
        line.done()
        out.append(event)
    return out


def encode_record(record: dict) -> str:
    """One JSONL record as json writes it: sorted keys and no spaces.  The
    oracle every record of report.py is compared against."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def reference_replay(trace_text: str, rules, config) -> bytes:
    """Reference replay: the report bytes of the whole stack, written the
    slow obvious way.

    Permissions live in one dict per (pid, vpage), with no areas.  There
    is no TLB: with flushes on, every CPU's cached entry equals its page's
    bits, so a hit ends as a walk would.  A present page holds its bytes
    and whether it is in exec mode (checked); the shadow rules are the
    shadow module's docstring.  Every check scans the whole page with
    ``naive_scan``.  The guard is a ``SweepGuard`` ticked after every
    event.  The pipeline is one list per pid bucket, drained whole, round
    robin over the buckets in the order they became non-empty.
    """
    ps, shadow, action = config.page_size, config.shadow, config.detection_action
    rule_list = [] if rules is None else rules.rules
    by_name = {r.name: r for r in rule_list}
    full = [(r.name, r.atoms) for r in rule_list]
    sync = [(r.name, r.atoms) for r in rule_list if r.sync]
    guard = SweepGuard(config.guard)
    uid_of: dict[int, int] = {}
    status: dict[int, str] = {}  # pid -> "running" | "blocked" | "dead"
    cursor: dict[int, int] = {}  # pid -> next auto-placed vpage
    perms: dict[tuple[int, int], str] = {}  # mapped (pid, vpage) -> its perms
    images: dict[tuple[int, int], bytes] = {}  # mmap content of a page not yet touched
    pages: dict[tuple[int, int], list] = {}  # present (pid, vpage) -> [bytes, exec mode]
    buckets: dict[int, list] = {}
    order: list[int] = []  # non-empty buckets, in the order they became so
    detections: list[dict] = []
    actions: list[dict] = []
    outcomes: dict[str, int] = {}
    counts = dict.fromkeys(["snapshots", "pending", "high", "scans"], 0)
    now = 0

    def respond(pid, what, cause, rule=None, path=None) -> str:
        if status[pid] == "running" or (status[pid] == "blocked" and what == "kill"):
            status[pid] = "dead" if what == "kill" else "blocked"
            actions.append({"record": "action", "pid": pid, "uid": uid_of[pid],
                            "action": what, "cause": cause, "rule": rule, "path": path})
        return "killed" if what == "kill" else "blocked"

    def hit(name, pid, vpage, offset, path) -> str:
        rule = by_name[name]
        what = action if rule.severity == "kill" else "alert"
        detections.append({
            "record": "detection", "pid": pid, "uid": uid_of[pid], "vpage": vpage,
            "offset": offset, "vaddr": vpage * ps + offset, "rule": name,
            "family": rule.family, "severity": rule.severity, "path": path, "action": what,
        })
        return "ok" if what == "alert" else respond(pid, what, "signature", name, path)

    def checked_fetch(pid, vpage, content) -> str:
        if config.sync_check and rules is not None:
            hits = naive_scan(content, sync)
            if hits:
                result = hit(hits[0][1], pid, vpage, hits[0][0], "sync")
                if result != "ok":
                    return result
        penalty = guard.admit(uid_of[pid], now)
        if penalty is not None:
            return respond(pid, penalty, "throttle")
        bucket = hash(pid) % 64
        if not buckets.get(bucket):
            order.append(bucket)
        buckets.setdefault(bucket, []).append((pid, vpage, content))
        counts["snapshots"] += 1
        counts["pending"] += 1
        counts["high"] = max(counts["high"], counts["pending"])
        return "ok"

    def drain() -> None:
        out = []
        while order:
            for bucket in order:  # one round: each non-empty bucket once
                out.append(buckets[bucket].pop(0))
            order[:] = [bucket for bucket in order if buckets[bucket]]
        counts["pending"] -= len(out)
        for pid, _, _ in out:
            guard.on_delivered(uid_of[pid], now)
        for pid, vpage, content in out:
            counts["scans"] += 1
            if rules is not None:
                for offset, name in naive_scan(content, full):
                    hit(name, pid, vpage, offset, "async")

    def access(pid, addr, kind, data=None) -> str:
        if status[pid] != "running":
            return "dead" if status[pid] == "dead" else "blocked"
        key = (pid, addr // ps)
        allowed, page = perms.get(key), pages.get(key)
        if page is None:
            # any mapped page is readable, as on x86 (no execute-only pages)
            need = {"read": "", "write": "w", "fetch": "x"}[kind]
            if allowed is None or need not in allowed:
                return "segv_delivered"
            frame = bytearray(ps)
            image = images.pop(key, b"")
            frame[: len(image)] = image
            page = pages[key] = [frame, False]
        # a present page is readable whatever its perms
        if kind == "write":
            if "w" not in allowed:
                return "segv_delivered"
            page[1] = False  # a write to a checked page flips it back to write mode
            page[0][addr % ps : addr % ps + len(data)] = data
        elif kind == "fetch" and not page[1]:
            if "x" not in allowed:
                return "segv_delivered"
            if shadow:
                result = checked_fetch(pid, key[1], bytes(page[0]))
                if result != "ok":
                    return result
                page[1] = True
        return "ok"

    def mmap(pid, prm, n, content, at) -> str:
        if status[pid] == "dead":
            return "dead"
        start = cursor[pid] if at is None else at
        if any((pid, v) in perms for v in range(start, start + n)):
            return "error"
        cursor[pid] = max(cursor[pid], start + n)
        for i in range(n):
            perms[(pid, start + i)] = prm
            image = (content or b"")[i * ps : (i + 1) * ps]
            if image:
                images[(pid, start + i)] = image
        return "ok"

    def mprotect(pid, start, n, prm) -> str:
        span = [(pid, v) for v in range(start, start + n)]
        if status[pid] == "dead":
            return "dead"
        if any(key not in perms for key in span):
            return "error"
        for key in span:
            old, perms[key] = perms[key], prm
            page = pages.get(key)
            if page is not None:
                # exec mode survives unless the edit takes x away or grants a new w
                page[1] = page[1] and "x" in prm and ("w" in old or "w" not in prm)
        return "ok"

    events = reference_parse_trace(trace_text, ps)
    for index, (op, _, *fields) in enumerate(events, start=1):
        now += fields[0] if op == TICK else 1
        if op == PROC:
            pid = len(uid_of) + 1
            uid_of[pid], status[pid], cursor[pid] = fields[0], "running", 16
            result = "ok"
        elif op == MMAP:
            result = mmap(*fields)
        elif op == MPROTECT:
            result = mprotect(*fields)
        elif op == READ:
            result = access(fields[0], fields[3], "read")
        elif op == FETCH:
            result = access(fields[0], fields[3], "fetch")
        elif op == WRITE:
            result = access(fields[0], fields[3], "write", fields[4])
        else:
            result = "ok"
        outcomes[result] = outcomes.get(result, 0) + 1
        guard.tick(now)
        if config.drain_every > 0 and index % config.drain_every == 0:
            drain()
    if config.drain_every > 0:
        drain()
    guard.tick(now)
    kinds = [a["action"] for a in actions]
    summary = {
        "record": "summary", "outcomes": outcomes, "events": len(events),
        "snapshots_emitted": counts["snapshots"], "pending_high_watermark": counts["high"],
        "pending_final": counts["pending"], "scans_run": counts["scans"],
        "evictions": guard.evictions, "admits": guard.admits, "denials": guard.denials,
        "detections": len(detections), "kills": kinds.count("kill"),
        "blocks": kinds.count("block"), "clock": now,
    }
    records = [*detections, *actions, summary]
    return ("\n".join(map(encode_record, records)) + "\n").encode()


def _ref_rule_error(
    name: str, severity: str, sync: bool, atoms: tuple, names: set[str], page_size: int,
) -> str | None:
    """What is wrong with a well-formed rule, or None."""
    if severity not in ("kill", "alert"):
        return f"rule {name}: severity must be kill or alert, got {severity!r}"
    if not atoms:
        return f"rule {name}: empty pattern"
    if all(a is None for a in atoms):
        return f"rule {name}: pattern needs at least one literal byte"
    if sync and severity != "kill":
        return f"rule {name}: sync rules must have severity=kill"
    if name in names:
        return f"duplicate rule name {name!r}"
    if len(atoms) > page_size:
        return f"rule {name}: pattern longer than page size {page_size}"
    return None


def reference_parse_rules(text: str, page_size: int = 4096) -> list[SignatureRule]:
    """Reference rule parser: one token loop for every line, no fast path.

    Each rule is checked as soon as its line is read, so the first bad
    line wins; an error in a well-formed rule points at its name.
    """
    rules: list[SignatureRule] = []
    names: set[str] = set()
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.removesuffix("\r").split("#", 1)[0]
        if not line.strip():
            continue
        tokens = [(m.start() + 1, m.group()) for m in re.finditer(r"\S+", line)]

        def fail(msg: str, at: int = 0) -> RuleSyntaxError:
            col = tokens[at][0] if at < len(tokens) else len(line) + 1
            return RuleSyntaxError(msg, line_no, col)

        pos = 0

        def take(expect: str | None = None) -> tuple[int, str]:
            nonlocal pos
            if pos >= len(tokens):
                raise fail(f"expected {expect or 'more input'}, got end of line", pos)
            tok = tokens[pos]
            pos += 1
            return tok

        col, word = take("'rule'")
        if word != "rule":
            raise RuleSyntaxError(f"expected 'rule', got {word!r}", line_no, col)
        name_col, name = take("rule name")
        if not re.fullmatch(r"\w+", name):
            raise RuleSyntaxError(f"bad rule name {name!r}", line_no, name_col)
        col, fam = take("family=<label>")
        if not fam.startswith("family="):
            raise RuleSyntaxError(f"expected family=<label>, got {fam!r}", line_no, col)
        family = fam[len("family="):]
        if not family:
            raise RuleSyntaxError("empty family label", line_no, col)
        col, sev = take("severity=<kill|alert>")
        if not sev.startswith("severity="):
            raise RuleSyntaxError(f"expected severity=..., got {sev!r}", line_no, col)
        severity = sev[len("severity="):]
        sync = False
        col, word = take("'sync' or '{'")
        if word == "sync":
            sync = True
            col, word = take("'{'")
        if word != "{":
            raise RuleSyntaxError(f"expected '{{', got {word!r}", line_no, col)
        atoms: list[int | None] = []
        closed = False
        while pos < len(tokens):
            col, word = take()
            if word == "}":
                closed = True
                break
            if word == "??":
                atoms.append(None)
            elif re.fullmatch(r"[0-9a-fA-F]{2}", word):
                atoms.append(int(word, 16))
            else:
                raise RuleSyntaxError(
                    f"expected hex pair, ?? or '}}', got {word!r}", line_no, col
                )
        if not closed:
            raise fail("expected '}' before end of line", pos)
        if pos < len(tokens):
            raise RuleSyntaxError(
                f"trailing input after '}}': {tokens[pos][1]!r}", line_no, tokens[pos][0]
            )
        error = _ref_rule_error(name, severity, sync, tuple(atoms), names, page_size)
        if error is not None:
            raise RuleSyntaxError(error, line_no, name_col)
        names.add(name)
        rules.append(SignatureRule(name, family, severity, sync, tuple(atoms)))
    return rules


def unchecked_fetches(trace_text: str, rules, config) -> list[tuple[int, int, int]]:
    """The content invariant over one shadow run: every FETCH that returns
    ``ok`` runs a frame equal to the bytes of its page's last
    ``_checked_fetch`` that returned OK.  Returns (line, pid, vpage) of
    each fetch that breaks it.

    ``wx_violations`` checks bits, on pages of W+X areas; this checks
    bytes, on every area.  The run steps each event through
    ``_apply_event`` and the agent on every ``drain_every``-th one, as
    ``replay`` runs it.
    """
    ctx = build_run(config, rules)
    machine, engine = ctx.machine, ctx.machine.engine
    passed: dict[tuple[int, int], bytes] = {}  # (pid, vpage) -> bytes its last passed check saw
    checked_fetch = engine._checked_fetch

    def recording(space, pte, vpage):
        result = checked_fetch(space, pte, vpage)
        if result == OK:
            passed[space.pid, vpage] = bytes(pte.frame)
        return result

    engine._checked_fetch = recording
    bad = []
    for index, event in enumerate(parse_trace(trace_text, config.page_size), start=1):
        try:
            result = _apply_event(machine, event)
        except (SimError, ValueError):
            result = "error"
        if event[0] is FETCH and result == OK:
            pid, vpage = event[2], event[5] // config.page_size
            if passed.get((pid, vpage)) != machine.spaces[pid].ptes[vpage].frame:
                bad.append((event[1], pid, vpage))
        if config.drain_every > 0 and index % config.drain_every == 0:
            ctx.agent.step()
    return bad


def wx_violations(machine: Machine) -> list[tuple[int, int]]:
    """(pid, vpage) pairs where write and execute are jointly reachable.

    For each present page of a W+X area, collect every live view of its
    permission bits: the PTE itself plus its TLB entry on any CPU.  If
    one view permits writes while another permits fetches, some CPU can
    write the page while some CPU can execute it.
    """
    bad = []
    for pid, space in machine.spaces.items():
        if not space.alive:
            continue
        for vpage, pte in space.ptes.items():
            area = space.find_area(vpage)
            if area is None or not (area.logical_w and area.logical_x):
                continue
            views = [(pte.writable, pte.exec_disabled), *pte.tlb.values()]
            if any(w for w, _ in views) and any(not xd for _, xd in views):
                bad.append((pid, vpage))
    return bad


def reference_access(
    machine: Machine, pid: int, cpu_id: int, vaddr: int, kind: int, data: bytes | None = None,
) -> str:
    """``Machine.access`` as one path for every kind: check the request,
    look up the CPU's cached pair, then test the pair and the page's bits
    with one permission function.

    A read hit returns at once; a write or fetch hit its pair permits
    proceeds with no walk, and one its pair denies drops the pair.  A miss
    whose page bits permit the access writes if needed and fills the TLB;
    anything else is a fault, which reads the area and calls the engine,
    then the page must permit the access.  ``Machine.access``, which
    branches on the kind first, must agree with it on every result,
    exception, frame byte, written span, TLB pair and hook call.
    """
    space = machine.spaces.get(pid)
    if space is None or not space.alive:
        machine.space(pid)  # raises the unknown or dead pid's error
    if space.blocked:
        return AccessResult.BLOCKED
    ps = machine.page_size
    if kind is WRITE:
        if not data:
            raise ValueError("write access requires payload bytes")
        if (vaddr % ps) + len(data) > ps:
            raise ValueError("write payload crosses a page boundary")
    elif kind is not READ and kind is not FETCH:
        raise ValueError(f"unknown access kind {kind!r}")

    def permits(pair: tuple[bool, bool]) -> bool:
        return pair[0] if kind is WRITE else not pair[1] if kind is FETCH else True

    def write(pte) -> None:
        off = vaddr % ps
        pte.frame[off : off + len(data)] = data
        if pte.written is not None:
            if len(pte.written) < MAX_WRITTEN_SPANS:
                pte.written.append((off, off + len(data)))
            else:
                pte.written = None

    vpage = vaddr // ps
    pte = space.ptes.get(vpage)
    if pte is not None and cpu_id in pte.tlb:
        if permits(pte.tlb[cpu_id]):  # stale pairs are honored
            if kind is WRITE:
                write(pte)
            return AccessResult.OK
        del pte.tlb[cpu_id]
    if pte is None or not permits((pte.writable, pte.exec_disabled)):
        area = space.find_area(vpage)
        if area is None or pte is None:
            if area is None or not area.permits(kind):
                return AccessResult.SEGV_DELIVERED
            result = machine.engine.on_materialize(space, area, vpage, kind)
        elif kind is WRITE:
            result = machine.engine.handle_write_fault(area, pte)
        else:
            result = machine.engine.handle_exec_fault(space, area, pte, vpage)
        if result is not AccessResult.OK:
            return result
        pte = space.ptes.get(vpage)
        if pte is None or not permits((pte.writable, pte.exec_disabled)):
            name = {READ: "read", FETCH: "fetch", WRITE: "write"}[kind]
            raise SimError(
                f"fault engine allowed {name} of pid {pid} vpage {vpage}"
                " but left it impermissible"
            )
    if kind is WRITE:
        write(pte)
    pte.tlb[cpu_id] = (pte.writable, pte.exec_disabled)
    return AccessResult.OK


def random_benign_trace(rng: random.Random, page_size: int = 4096) -> str:
    """A trace that never trips signatures or the throttle.

    Mixed-permission areas, valid and invalid addresses, occasional
    mprotect; identical behavior expected with or without the shadow
    engine.
    """
    lines = []
    n_procs = rng.randint(1, 3)
    areas: list[tuple[int, int, int]] = []  # (pid, start_vpage, n_pages)
    for _ in range(n_procs):
        lines.append(f"PROC uid={rng.randint(1, 4)}")
    for pid in range(1, n_procs + 1):
        for _ in range(rng.randint(1, 3)):
            perms = rng.choice(["r", "rw", "rx", "wx", "rwx"])
            pages = rng.randint(1, 4)
            content = bytes(rng.randrange(256) for _ in range(rng.randint(0, 2 * page_size)))
            content = content[: pages * page_size]  # no image outruns its area
            at = 16 + len(areas) * 8
            lines.append(
                f"MMAP pid={pid} perms={perms} pages={pages} at={at}"
                + (f" content={content.hex()}" if content else "")
            )
            areas.append((pid, at, pages))
    for _ in range(rng.randint(20, 120)):
        pid, start, pages = rng.choice(areas)
        vpage = start + rng.randrange(pages)
        if rng.random() < 0.05:
            vpage = start + pages + 100  # deliberately unmapped
        addr = vpage * page_size + rng.randrange(page_size)
        cpu = rng.randrange(3)
        kind = rng.random()
        if kind < 0.4:
            payload = bytes(rng.randrange(256) for _ in range(rng.randint(1, 16)))
            addr = min(addr, (vpage + 1) * page_size - len(payload))
            lines.append(f"WRITE pid={pid} tid=1 cpu={cpu} addr={addr} bytes={payload.hex()}")
        elif kind < 0.7:
            lines.append(f"FETCH pid={pid} tid=1 cpu={cpu} addr={addr}")
        elif kind < 0.9:
            lines.append(f"READ pid={pid} tid=1 cpu={cpu} addr={addr}")
        else:
            perms = rng.choice(["r", "rw", "rx", "wx"])
            span = rng.randint(1, pages)
            lines.append(
                f"MPROTECT pid={pid} start={start} pages={span} perms={perms}"
            )
    return "\n".join(lines) + "\n"
