"""Seeded workload generator for the replay benchmark (stdlib only).

Each workload is a pure function of (name, seed) and writes four
files into a directory:

    trace.txt    the trace, in jitscan's trace language
    rules.txt    the signature rules
    config.json  the SimConfig fields and the equivalent ``jitscan run`` flags
    truth.json   what a correct replay must report, known by construction

Benign bytes are drawn from 0x00-0x7f and every rule literal from
0x80-0xff.  Every rule needs at least one literal byte, so no rule can
match benign content; the only matches are the payloads planted here,
and the generator checks each payload against every rule itself.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

PAGE_SIZE = 4096
N_RULES = 200
N_SYNC_RULES = 4

# maps any byte into the benign half of the alphabet
_LOW = bytes(b & 0x7F for b in range(256))


def _benign(rng: random.Random, n: int) -> bytes:
    return rng.randbytes(n).translate(_LOW)


def _make_rules(rng: random.Random) -> list[dict]:
    rules = []
    for i in range(N_RULES):
        length = rng.randint(8, 20)
        atoms = [
            rng.randrange(0x80, 0x100) if rng.random() < 0.85 else None
            for _ in range(length)
        ]
        # literal ends: the last piece written always completes the match
        atoms[0] = rng.randrange(0x80, 0x100)
        atoms[-1] = rng.randrange(0x80, 0x100)
        sync = i % (N_RULES // N_SYNC_RULES) == 7
        severity = "kill" if sync or rng.random() < 0.5 else "alert"
        rules.append({
            "name": f"r{i:03d}",
            "family": f"fam{i % 12}",
            "severity": severity,
            "sync": sync,
            "atoms": tuple(atoms),
        })
    return rules


def _rules_text(rules: list[dict]) -> str:
    lines = ["# generated by bench/workloads.py"]
    for r in rules:
        pattern = " ".join("??" if a is None else f"{a:02x}" for a in r["atoms"])
        sync = " sync" if r["sync"] else ""
        lines.append(
            f"rule {r['name']} family={r['family']} severity={r['severity']}{sync} "
            f"{{ {pattern} }}"
        )
    return "\n".join(lines) + "\n"


def _rule_matches(atoms: tuple, data: bytes) -> list[int]:
    """Every offset where the pattern matches in data (sliding window)."""
    n = len(atoms)
    return [
        off for off in range(len(data) - n + 1)
        if all(a is None or data[off + i] == a for i, a in enumerate(atoms))
    ]


def _payload(rng: random.Random, rule: dict, rules: list[dict]) -> bytes | None:
    """The rule's pattern with wildcards filled, or None if another rule
    (or the same rule at a second offset) would also match it.

    Bytes around the payload are benign, and every literal is a high
    byte, so any match must lie wholly inside the payload.
    """
    payload = bytes(rng.randrange(0x80) if a is None else a for a in rule["atoms"])
    for other in rules:
        hits = _rule_matches(other["atoms"], payload)
        if hits != ([0] if other is rule else []):
            return None
    return payload


class _Trace:
    def __init__(self, rng: random.Random, n_cpus: int):
        self.rng = rng
        self.n_cpus = n_cpus
        self.lines: list[str] = []
        self.next_pid = 1

    def proc(self, uid: int) -> int:
        self.lines.append(f"PROC uid={uid}")
        pid = self.next_pid
        self.next_pid += 1
        return pid

    def mmap(self, pid: int, perms: str, pages: int, at: int, content: bytes | None = None):
        extra = f" content={content.hex()}" if content else ""
        self.lines.append(f"MMAP pid={pid} perms={perms} pages={pages} at={at}{extra}")

    def mprotect(self, pid: int, start: int, pages: int, perms: str):
        self.lines.append(f"MPROTECT pid={pid} start={start} pages={pages} perms={perms}")

    def _cpu(self) -> int:
        return self.rng.randrange(self.n_cpus)

    def write(self, pid: int, vpage: int, data: bytes, off: int | None = None):
        if off is None:
            off = self.rng.randrange(PAGE_SIZE - len(data) + 1)
        addr = vpage * PAGE_SIZE + off
        self.lines.append(
            f"WRITE pid={pid} tid={pid} cpu={self._cpu()} addr={addr:#x} bytes={data.hex()}"
        )

    def access(self, op: str, pid: int, vpage: int):
        addr = vpage * PAGE_SIZE + self.rng.randrange(PAGE_SIZE)
        self.lines.append(f"{op} pid={pid} tid={pid} cpu={self._cpu()} addr={addr:#x}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _config(**overrides) -> dict:
    config = {
        "sync_check": True,
        "detection_action": "kill",
        "drain_every": 1,
        "guard": {"threshold": 256, "penalty_action": "kill",
                  "ttl_penalty": 1000, "ttl_evict": 5000},
    }
    guard = overrides.pop("guard", {})
    config.update(overrides)
    config["guard"].update(guard)
    return config


def cli_flags(config: dict) -> list[str]:
    """The ``jitscan run`` options that build the same SimConfig."""
    g = config["guard"]
    return [
        "--sync-check", "on" if config["sync_check"] else "off",
        "--action", config["detection_action"],
        "--drain-every", str(config["drain_every"]),
        "--threshold", str(g["threshold"]),
        "--penalty-action", g["penalty_action"],
        "--ttl-penalty", str(g["ttl_penalty"]),
        "--ttl-evict", str(g["ttl_evict"]),
        "--page-size", str(PAGE_SIZE),
    ]


# ---- jit-churn ----------------------------------------------------------

JIT_RWX_AT, JIT_RWX_PAGES = 16, 8  # rwx code area per pid
JIT_RW_AT, JIT_RW_PAGES = 32, 4  # rw<->rx toggled area per pid


def _jit_churn(rng: random.Random):
    rules = _make_rules(rng)
    t = _Trace(rng, n_cpus=4)
    n_benign, n_planted = 8, 3
    pids = [t.proc(uid=1000 + i % 4) for i in range(n_benign + n_planted)]
    for pid in pids:
        t.mmap(pid, "rwx", JIT_RWX_PAGES, JIT_RWX_AT, _benign(rng, JIT_RWX_PAGES * PAGE_SIZE))
        t.mmap(pid, "rw", JIT_RW_PAGES, JIT_RW_AT)

    n_rounds = 500
    kill_sync = [r for r in rules if r["sync"]]
    kill_async = [r for r in rules if r["severity"] == "kill" and not r["sync"]]
    planted = []  # pid, rule, page, offset, pieces, and the rounds they land in
    for j, pid in enumerate(pids[n_benign:]):
        pool = kill_sync if j == 0 else kill_async
        while True:
            rule = rng.choice(pool)
            payload = _payload(rng, rule, rules)
            if payload is not None:
                break
        n_pieces = 4
        cuts = sorted(rng.sample(range(1, len(payload)), n_pieces - 1))
        bounds = [0, *cuts, len(payload)]
        # the final piece lands at 40%, 60% or 80% of the trace
        end = n_rounds * (2 + j) // 5
        gap = n_rounds // 25
        steps = [end - gap * (n_pieces - 1 - k) for k in range(n_pieces)]
        planted.append({
            "pid": pid,
            "rule": rule["name"],
            "path": "sync" if rule["sync"] else "async",
            "vpage": JIT_RWX_AT + rng.randrange(JIT_RWX_PAGES),
            "offset": rng.randrange(PAGE_SIZE - len(payload) + 1),
            "pieces": [payload[a:b] for a, b in zip(bounds, bounds[1:])],
            "piece_offsets": bounds[:-1],
            "steps": steps,
        })
    step_of = {s: (p, k) for p in planted for k, s in enumerate(p["steps"])}
    alive = list(pids)
    for r in range(n_rounds):
        if r in step_of:
            p, k = step_of[r]
            t.write(p["pid"], p["vpage"], p["pieces"][k], p["offset"] + p["piece_offsets"][k])
            t.access("FETCH", p["pid"], p["vpage"])
            if k == len(p["pieces"]) - 1:
                alive.remove(p["pid"])  # killed here; it emits nothing more
            continue
        pid = rng.choice(alive)
        payload_page = next((p["vpage"] for p in planted if p["pid"] == pid), None)
        if rng.random() < 0.8:
            # rwx JIT: rewrite code, then run it (and maybe run it elsewhere)
            vpage = rng.choice([v for v in range(JIT_RWX_AT, JIT_RWX_AT + JIT_RWX_PAGES)
                                if v != payload_page])
            for _ in range(rng.randint(1, 3)):
                t.write(pid, vpage, _benign(rng, rng.randint(8, 64)))
            t.access("FETCH", pid, vpage)
            if rng.random() < 0.5:
                t.access(rng.choice(("FETCH", "READ")), pid, vpage)
        else:
            # non-rwx JIT: flip one page rw, write it, flip it rx, run it
            vpage = JIT_RW_AT + rng.randrange(JIT_RW_PAGES)
            t.mprotect(pid, vpage, 1, "rw")
            t.write(pid, vpage, _benign(rng, rng.randint(8, 64)))
            t.mprotect(pid, vpage, 1, "rx")
            t.access("FETCH", pid, vpage)

    truth = {
        "workload": "jit-churn",
        "events": len(t.lines),
        "exit_code": 1,
        "planted": [{k: p[k] for k in ("pid", "rule", "path")} for p in planted],
    }
    return t.text(), rules, _config(), truth


# ---- benign-rw ----------------------------------------------------------

def _benign_rw(rng: random.Random):
    rules = _make_rules(rng)
    t = _Trace(rng, n_cpus=8)
    n_pids, at, pages = 48, 16, 16
    pids = [t.proc(uid=1000 + i % 8) for i in range(n_pids)]
    for pid in pids:
        t.mmap(pid, "rw", pages, at)
    for _ in range(15000):
        pid = rng.choice(pids)
        vpage = at + rng.randrange(pages)
        if rng.random() < 0.4:
            t.write(pid, vpage, _benign(rng, rng.randint(8, 32)))
        else:
            t.access("READ", pid, vpage)
    truth = {
        "workload": "benign-rw",
        "events": len(t.lines),
        "exit_code": 0,
    }
    return t.text(), rules, _config(), truth


# ---- fork-flood ---------------------------------------------------------

FLOOD_UID = 1000
FLOOD_PIDS = 6  # short-lived flood pids per block


def _fork_flood(rng: random.Random):
    rules = _make_rules(rng)
    config = _config(
        drain_every=16,
        guard={"threshold": 2, "penalty_action": "block",
               "ttl_penalty": 500, "ttl_evict": 1500},
    )
    # Each flood pid runs PROC, MMAP, then WRITE/FETCH twice.  A block's
    # flood part is FLOOD_PIDS such pids back to back, so it covers at
    # least one whole window between two drains, and any such window holds
    # more fetches than the threshold.  Each of them traps and asks the
    # guard unless its pid is already blocked by a denial, so the flood uid
    # is throttled at least once per block.
    drain_every, threshold = config["drain_every"], config["guard"]["threshold"]
    pattern = "PMWFWF"
    assert len(pattern) * FLOOD_PIDS >= 2 * drain_every
    assert all((pattern * 4)[s:s + drain_every].count("F") > threshold for s in range(6))
    t = _Trace(rng, n_cpus=4)
    churn_per_block = 5
    n_churn = 500
    churn_uid = 20000
    for _ in range(n_churn // churn_per_block):
        for _ in range(FLOOD_PIDS):
            pid = t.proc(FLOOD_UID)
            t.mmap(pid, "wx", 1, 16)
            for _ in range(2):
                t.write(pid, 16, _benign(rng, 16))
                t.access("FETCH", pid, 16)
        # setuid churn: a fresh uid emits one snapshot, then stays idle
        for _ in range(churn_per_block):
            pid = t.proc(churn_uid)
            churn_uid += 1
            t.mmap(pid, "wx", 1, 16)
            t.write(pid, 16, _benign(rng, 16))
            t.access("FETCH", pid, 16)
    assert len(t.lines) > config["guard"]["ttl_evict"] + 2 * drain_every, \
        "trace too short for an idle uid to be evicted"
    truth = {
        "workload": "fork-flood",
        "events": len(t.lines),
        "exit_code": 0,
        "flood_uid": FLOOD_UID,
    }
    return t.text(), rules, config, truth


WORKLOADS = {
    "jit-churn": _jit_churn,
    "benign-rw": _benign_rw,
    "fork-flood": _fork_flood,
}


def sim_config(workdir: Path):
    """The jitscan SimConfig that workdir/config.json describes."""
    from jitscan import GuardConfig, SimConfig

    cfg = json.loads((workdir / "config.json").read_text())
    return SimConfig(
        page_size=PAGE_SIZE,
        sync_check=cfg["sync_check"],
        detection_action=cfg["detection_action"],
        drain_every=cfg["drain_every"],
        guard=GuardConfig(**cfg["guard"]),
    )


def generate(name: str, seed: int, out_dir: Path) -> Path:
    """Write the workload's four files into out_dir and return it."""
    rng = random.Random(f"{name}:{seed}")
    trace, rules, config, truth = WORKLOADS[name](rng)
    truth["seed"] = seed
    config["cli_flags"] = cli_flags(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "trace.txt").write_text(trace)
    (out_dir / "rules.txt").write_text(_rules_text(rules))
    for fname, obj in (("config.json", config), ("truth.json", truth)):
        (out_dir / fname).write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
    return out_dir
