"""Byte-signature rules and the page scanner.

Rule files are line oriented, one rule per line, ``#`` starts a comment:

    rule <name> family=<label> severity=<kill|alert> [sync] { <hex-pair | ??>+ }

Hex pairs are case-insensitive; ``??`` matches any byte.  ``sync`` marks
a rule for the small in-fault-path check and requires severity=kill.
Lines end at ``\n`` (or ``\r\n``) only, so line numbers are the ones an
editor shows; other line-break characters are whitespace.

Matching is exact-byte with wildcards, per page, overlapping matches
included.  Each pattern's longest run of consecutive literal bytes is its
anchor.  A scan finds anchor candidates with one ``re`` pass over the page
in C, then verifies each candidate's anchor and remaining literals in
Python, so its cost is that one pass plus work per candidate.  Result
order is (offset, rule name), so a scan is a pure function of
(content, ruleset).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .mmu import DEFAULT_PAGE_SIZE

Atom = int | None  # one pattern position: literal byte or wildcard

_HEX_PAIR = re.compile(r"[0-9a-fA-F]{2}$")
_NAME = re.compile(r"\w+$")

# most leading anchor bytes the prefilter keys a candidate on
_PREFIX = 4


class RuleSyntaxError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class SignatureRule:
    name: str
    family: str
    severity: str  # "kill" | "alert"
    sync: bool
    atoms: tuple[int | None, ...]

    def __post_init__(self) -> None:
        if self.severity not in ("kill", "alert"):
            raise ValueError(
                f"rule {self.name}: severity must be kill or alert, got {self.severity!r}"
            )
        if not self.atoms:
            raise ValueError(f"rule {self.name}: empty pattern")
        if all(a is None for a in self.atoms):
            raise ValueError(f"rule {self.name}: pattern needs at least one literal byte")
        if self.sync and self.severity != "kill":
            raise ValueError(f"rule {self.name}: sync rules must have severity=kill")

    def anchor(self) -> tuple[int, bytes]:
        """(offset, bytes) of the longest run of consecutive literals."""
        best_off, best = 0, b""
        run_off, run = 0, []
        for i, atom in enumerate(list(self.atoms) + [None]):
            if atom is None:
                if len(run) > len(best):
                    best_off, best = run_off, bytes(run)
                run = []
                run_off = i + 1
            else:
                run.append(atom)
        return best_off, best


@dataclass(frozen=True)
class Match:
    rule: str
    offset: int


class _MultiPattern:
    """Anchor prefilter with exact verification.

    With k = min(_PREFIX, shortest anchor length), one ``re`` pattern
    matches where the first k bytes of some anchor could start: a class of
    every anchor's byte 0, then a lookahead of the classes at positions
    1..k-1.  A dict maps each anchor's k-byte prefix to the rules behind
    it.  ``finditer`` yields the candidates at C speed; each one costs a
    dict lookup, and each rule in the bucket a whole-anchor compare, a
    bounds check and a check of its literals outside the anchor.  Sparse
    candidates cost almost nothing beyond the C pass; content made of
    anchor bytes makes every position a candidate.  No rules, no pattern.

    k comes from the shortest anchor in the whole set: one short anchor
    shortens the key, and so widens the candidate stream, for every rule.
    """

    def __init__(self, rules: list[SignatureRule]):
        self._find = None
        if not rules:
            return
        anchors = [rule.anchor() for rule in rules]
        k = self._k = min(_PREFIX, min(len(anchor) for _, anchor in anchors))
        self._buckets: dict[bytes, list[tuple[bytes, int, str, int, tuple]]] = {}
        for rule, (anchor_off, anchor) in zip(rules, anchors):
            checks = tuple(
                (i, a) for i, a in enumerate(rule.atoms)
                if a is not None and not anchor_off <= i < anchor_off + len(anchor)
            )
            self._buckets.setdefault(anchor[:k], []).append(
                (anchor, anchor_off, rule.name, len(rule.atoms), checks)
            )
        classes = [
            b"[" + re.escape(bytes(sorted({prefix[i] for prefix in self._buckets}))) + b"]"
            for i in range(k)
        ]
        lookahead = b"(?=" + b"".join(classes[1:]) + b")" if k > 1 else b""
        self._find = re.compile(classes[0] + lookahead).finditer

    def scan(self, data: bytes) -> list[Match]:
        if self._find is None:
            return []
        k, buckets, size = self._k, self._buckets, len(data)
        hits: list[Match] = []
        for candidate in self._find(data):
            pos = candidate.start()
            for anchor, anchor_off, name, length, checks in buckets.get(data[pos : pos + k], ()):
                start = pos - anchor_off
                if start < 0 or start + length > size or not data.startswith(anchor, pos):
                    continue
                if all(data[start + i] == b for i, b in checks):
                    hits.append(Match(name, start))
        hits.sort(key=lambda m: (m.offset, m.rule))
        return hits


def _admit(rule: SignatureRule, names: set[str], page_size: int) -> None:
    """Add rule.name to names; ValueError if taken or the rule overruns a page."""
    if rule.name in names:
        raise ValueError(f"duplicate rule name {rule.name!r}")
    if len(rule.atoms) > page_size:
        raise ValueError(f"rule {rule.name}: pattern longer than page size {page_size}")
    names.add(rule.name)


class RuleSet:
    """Parsed rules plus compiled indexes for full and sync-only scans."""

    def __init__(self, rules: list[SignatureRule], page_size: int = DEFAULT_PAGE_SIZE):
        names: set[str] = set()
        for rule in rules:
            _admit(rule, names, page_size)
        self.rules = list(rules)
        self.page_size = page_size
        self.by_name = {r.name: r for r in self.rules}
        self.sync_rules = [r for r in self.rules if r.sync]
        self._full = _MultiPattern(self.rules)
        self._sync = _MultiPattern(self.sync_rules)

    def __len__(self) -> int:
        return len(self.rules)


def parse_rules(text: str, page_size: int = DEFAULT_PAGE_SIZE) -> RuleSet:
    """Parse a rule file; raises RuleSyntaxError with line and column."""
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
        if not _NAME.match(name):
            raise RuleSyntaxError(f"bad rule name {name!r}", line_no, name_col)
        col, fam = take("family=<label>")
        if not fam.startswith("family="):
            raise RuleSyntaxError(f"expected family=<label>, got {fam!r}", line_no, col)
        family = fam[len("family=") :]
        if not family:
            raise RuleSyntaxError("empty family label", line_no, col)
        col, sev = take("severity=<kill|alert>")
        if not sev.startswith("severity="):
            raise RuleSyntaxError(f"expected severity=..., got {sev!r}", line_no, col)
        severity = sev[len("severity=") :]
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
            elif _HEX_PAIR.match(word):
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
        try:
            rule = SignatureRule(name, family, severity, sync, tuple(atoms))
            _admit(rule, names, page_size)
        except ValueError as err:
            raise RuleSyntaxError(str(err), line_no, name_col) from None
        rules.append(rule)
    return RuleSet(rules, page_size=page_size)


def scan_page(content: bytes, rules: RuleSet) -> list[Match]:
    """All rule matches in one page, ordered by (offset, rule name)."""
    if len(content) != rules.page_size:
        raise ValueError(
            f"content is {len(content)} bytes, page size is {rules.page_size}"
        )
    return rules._full.scan(content)


def sync_check(content: bytes, rules: RuleSet) -> Match | None:
    """First sync-rule threat in the buffer, or None when clean."""
    hits = rules._sync.scan(content)
    return hits[0] if hits else None
