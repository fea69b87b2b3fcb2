"""Byte-signature rules and the page scanner.

Rule files are line oriented, one rule per line, ``#`` starts a comment:

    rule <name> family=<label> severity=<kill|alert> [sync] { <hex-pair | ??>+ }

Hex pairs are case-insensitive; ``??`` matches any byte.  ``sync`` marks
a rule for the small in-fault-path check and requires severity=kill.
Lines end at ``\n`` (or ``\r\n``) only, so line numbers are the ones an
editor shows; other line-break characters are whitespace.

Matching is exact-byte with wildcards, per page, overlapping matches
included.  Each pattern's longest run of consecutive literal bytes is its
anchor.  A scan finds anchor candidates with a byte-class table and a few
shifts and ANDs of the page read as one integer, all in C, then verifies
each candidate's anchor and remaining literals in Python, so its cost is
those whole-page operations plus work per candidate.  Result order is
(offset, rule name), so a scan is a pure function of (content, ruleset,
spans).

A scan may be given the ``[lo, hi)`` spans written since the page was
last found clean.  Every new match then overlaps a span, so the scan
walks only the windows where such a match can start, and its cost
follows the bytes written rather than the page size.  The caller must
pass spans only when the page's previous content held no match; after
a match it scans the whole page again.
"""

from __future__ import annotations

import operator
import re
from typing import Iterable, Iterator, NamedTuple

from .mmu import DEFAULT_PAGE_SIZE, check_page_size

# Read only by the token loop, for a line _LINE does not take whole:
# re.match compiles each on its first use, so a canonical file never does
_HEX_PAIR = r"[0-9a-fA-F]{2}$"
_NAME = r"\w+$"

# Most leading anchor bytes the prefilter keys a candidate on.  The class
# table sets only bits 0..k-1 of a byte, and _MultiPattern.scan ANDs the
# codes shifted by 9*i for i < k, which moves bit i of byte p+i onto bit 0
# of byte p.  Bit j >= 1 of a result byte is 0 without a mask: the factor
# shifted by 9*(k-1) reads bit j+k-1 >= k there, which no table byte sets.
# A factor reads bit j+i <= 2*(k-1) of its byte, inside the byte while
# k <= 4, so no bit crosses into a neighbour and each result byte is 0 or 1.
_PREFIX = 4


class RuleSyntaxError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class SignatureRule(NamedTuple):
    """One rule as written; a RuleSet validates it (see _admit)."""

    name: str
    family: str
    severity: str  # "kill" | "alert"
    sync: bool
    atoms: tuple[int | None, ...]

    def anchor(self) -> tuple[int, bytes]:
        """(offset, bytes) of the longest run of consecutive literals."""
        atoms = self.atoms
        best_off = best_len = run_off = 0
        for i, atom in enumerate(atoms):
            if atom is None:
                if i - run_off > best_len:
                    best_off, best_len = run_off, i - run_off
                run_off = i + 1
        if len(atoms) - run_off > best_len:
            best_off, best_len = run_off, len(atoms) - run_off
        return best_off, bytes(atoms[best_off : best_off + best_len])


class Match(NamedTuple):
    rule: str
    offset: int


_BY_OFFSET_RULE = operator.attrgetter("offset", "rule")  # the order scans return


class _MultiPattern:
    """Anchor prefilter with exact verification.

    With k = min(_PREFIX, shortest anchor length), a dict maps each
    anchor's k-byte prefix, its bucket key, to the rules behind it.  A
    256-byte class table sets bit i of ``table[b]`` when b is byte i of
    some key.  A window's bytes, translated through the table and read as
    one little-endian integer, are ANDed with themselves shifted by 9*i
    for i = 1..k-1: bit 0 of byte p survives exactly when byte p+i is in
    class i for every i < k, and every other bit is 0 (see _PREFIX).  So
    the marks read back as bytes hold 1 at each candidate and 0 elsewhere,
    and ``bytes.find`` walks them.  A byte past the window's end reads as
    0, so the candidates are the positions the regex ``[C0](?=[C1]...)``
    of those classes finds up to the same end.  Each candidate costs a
    dict lookup, and each rule in the bucket a whole-anchor compare, a
    bounds check and a check of its literals outside the anchor.  Sparse
    candidates cost almost nothing beyond the C work; content made of
    anchor bytes makes every position a candidate.  No rules, no table.

    k comes from the shortest anchor in the whole set: one short anchor
    shortens the key, and so widens the candidate stream, for every rule.

    Given spans, a scan keeps only matches that overlap one.  With reach
    the longest pattern's length minus one, such a match starts in
    ``[lo - reach, hi)`` of some span ``[lo, hi)``; those ranges, merged
    where they touch, are the windows.  A window's candidates run from
    its start to reach past its end, which holds the anchor of every
    match starting in it; it keeps the verified hits that start inside
    it, so no hit is found twice, and that overlap a span.
    """

    def __init__(self, anchored: list[tuple[SignatureRule, tuple[int, bytes]]]):
        """anchored: each rule with its anchor()."""
        self._table = None
        if not anchored:
            return
        k = self._k = min(_PREFIX, min(len(anchor) for _, (_, anchor) in anchored))
        self._buckets: dict[bytes, list[tuple[bytes, int, str, int, tuple]]] = {}
        for rule, (anchor_off, anchor) in anchored:
            checks = tuple(
                (i, a) for i, a in enumerate(rule.atoms)
                if a is not None and not anchor_off <= i < anchor_off + len(anchor)
            )
            self._buckets.setdefault(anchor[:k], []).append(
                (anchor, anchor_off, rule.name, len(rule.atoms), checks)
            )
        table = bytearray(256)
        for key in self._buckets:
            for i, byte in enumerate(key):
                table[byte] |= 1 << i
        self._table = bytes(table)
        self._shifts = tuple(9 * i for i in range(1, k))
        self._reach = max(len(rule.atoms) for rule, _ in anchored) - 1

    def scan(self, data: bytes, spans: list[tuple[int, int]] | None = None) -> list[Match]:
        """Matches in data; with spans, only those overlapping some span."""
        table = self._table
        if table is None:
            return []
        k, buckets, size, reach = self._k, self._buckets, len(data), self._reach
        # a match overlapping [lo, hi) starts in [lo - reach, hi)
        if spans is None:
            windows = [(0, size)]
        elif len(spans) == 1:
            ((lo, hi),) = spans
            windows = [(lo - reach if lo > reach else 0, hi)]
        else:
            windows = []
            for lo, hi in sorted(spans):
                lo = max(0, lo - reach)
                if windows and lo <= windows[-1][1]:
                    lo, last_hi = windows.pop()
                    hi = max(hi, last_hi)
                windows.append((lo, hi))
        hits: list[Match] = []
        for lo, hi in windows:
            # a match starting before hi ends by hi + reach, and its anchor with it
            chunk = data[lo : hi + reach].translate(table)
            codes = marks = int.from_bytes(chunk, "little")
            for shift in self._shifts:
                marks &= codes >> shift
            if not marks:
                continue
            flags = marks.to_bytes(len(chunk), "little")
            at = flags.find(1)
            while at >= 0:
                pos = lo + at
                for anchor, anchor_off, name, length, checks in buckets.get(
                    data[pos : pos + k], ()
                ):
                    start = pos - anchor_off
                    if not lo <= start < hi or start + length > size:
                        continue
                    if data.startswith(anchor, pos) and all(
                        data[start + i] == b for i, b in checks
                    ) and (spans is None or any(
                        start < span_hi and span_lo < start + length for span_lo, span_hi in spans
                    )):
                        hits.append(Match(name, start))
                at = flags.find(1, at + 1)
        if len(hits) > 1:
            hits.sort(key=_BY_OFFSET_RULE)
        return hits


def _admit(rule: SignatureRule, names: set[str], page_size: int) -> None:
    """Add rule.name to names; ValueError if the rule is bad, taken or overruns a page."""
    name, _, severity, sync, atoms = rule
    if severity not in ("kill", "alert"):
        raise ValueError(f"rule {name}: severity must be kill or alert, got {severity!r}")
    if not atoms:
        raise ValueError(f"rule {name}: empty pattern")
    if atoms.count(None) == len(atoms):
        raise ValueError(f"rule {name}: pattern needs at least one literal byte")
    if sync and severity != "kill":
        raise ValueError(f"rule {name}: sync rules must have severity=kill")
    if name in names:
        raise ValueError(f"duplicate rule name {name!r}")
    if len(atoms) > page_size:
        raise ValueError(f"rule {name}: pattern longer than page size {page_size}")
    names.add(name)


class RuleSet:
    """Parsed rules plus compiled indexes for full and sync-only scans.

    Each rule is validated (see _admit) before the next one is taken.
    ``zero_page_clean`` is True when no rule matches an all-zero page.
    """

    def __init__(self, rules: Iterable[SignatureRule], page_size: int = DEFAULT_PAGE_SIZE):
        check_page_size(page_size)
        names: set[str] = set()
        self.rules: list[SignatureRule] = []
        for rule in rules:
            _admit(rule, names, page_size)
            self.rules.append(rule)
        self.page_size = page_size
        self.by_name = {r.name: r for r in self.rules}
        anchored = [(rule, rule.anchor()) for rule in self.rules]  # one anchor for both indexes
        self._full = _MultiPattern(anchored)
        self._sync = _MultiPattern([pair for pair in anchored if pair[0].sync])
        # a rule fits a page (_admit), so it matches zeros iff every literal is 00
        self.zero_page_clean = not any(all(a in (None, 0) for a in r.atoms) for r in self.rules)


# A canonical rule line takes one regex match, not the token loop: single
# spaces, severity kill or alert, an atom or more, nothing after the '}' but
# a \r.  Groups: name, family, severity, " sync", atoms; any other line is ``.*``.
_LINE = re.compile(
    r"^(?:rule (\w+) family=([^\s#]+) severity=(kill|alert)( sync)?"
    r" \{((?: (?:[0-9a-fA-F]{2}|\?\?))+) \}\r?|.*)$", re.M,
)


def _rules(text: str, where: list[int]) -> Iterator[SignatureRule]:
    """The rules in line order, unvalidated; each first sets where to its line and column."""
    for line_no, match in enumerate(_LINE.finditer(text), start=1):
        name, family, severity, sync, body = match.groups()
        if name is not None:
            where[:] = line_no, len("rule ") + 1
            atoms = tuple(None if atom == "??" else int(atom, 16) for atom in body.split())
            yield SignatureRule(name, family, severity, sync is not None, atoms)
            continue
        line = match.group().removesuffix("\r").split("#", 1)[0]
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
        if not re.match(_NAME, name):
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
            elif re.match(_HEX_PAIR, word):
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
        where[:] = line_no, name_col
        yield SignatureRule(name, family, severity, sync, tuple(atoms))


def parse_rules(text: str, page_size: int = DEFAULT_PAGE_SIZE) -> RuleSet:
    """Parse a rule file; raises RuleSyntaxError with line and column.  The RuleSet
    checks each rule before the next line is read, so the first bad line wins.
    A page size below 1 is a plain ValueError, raised before any line is read."""
    check_page_size(page_size)
    where = [0, 0]
    try:
        return RuleSet(_rules(text, where), page_size=page_size)
    except RuleSyntaxError:
        raise
    except ValueError as err:
        raise RuleSyntaxError(str(err), *where) from None


def scan_page(
    content: bytes, rules: RuleSet, spans: list[tuple[int, int]] | None = None,
) -> list[Match]:
    """Rule matches in one page, ordered by (offset, rule name).

    With spans, only the matches overlapping a written span: all of them
    when the page's previous content held no match.
    """
    if len(content) != rules.page_size:
        raise ValueError(
            f"content is {len(content)} bytes, page size is {rules.page_size}"
        )
    return rules._full.scan(content, spans)


def sync_check(
    content: bytes, rules: RuleSet, spans: list[tuple[int, int]] | None = None,
) -> Match | None:
    """First sync-rule threat in the buffer (narrowed as in scan_page), or None."""
    hits = rules._sync.scan(content, spans)
    return hits[0] if hits else None
