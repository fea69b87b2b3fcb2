"""Rule parsing and page scanning against a naive sliding-window oracle."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jitscan import signatures as signatures_module
from jitscan.signatures import (
    Match,
    RuleSet,
    RuleSyntaxError,
    SignatureRule,
    parse_rules,
    scan_page,
    sync_check,
)

from conftest import naive_scan, reference_parse_rules


def ruleset(*rules: SignatureRule, page_size: int = 4096) -> RuleSet:
    return RuleSet(list(rules), page_size=page_size)


def rule(name: str, pattern: str, severity: str = "alert", sync: bool = False) -> SignatureRule:
    atoms = tuple(None if tok == "??" else int(tok, 16) for tok in pattern.split())
    return SignatureRule(name, "test", severity, sync, atoms)


def embed(page: bytearray, offset: int, atoms) -> None:
    for i, a in enumerate(atoms):
        if a is not None:
            page[offset + i] = a


class TestParse:
    def test_full_rule_line(self):
        rs = parse_rules(
            "# comment\n"
            "rule mk_stack family=stager severity=kill sync { 55 48 89 e5 ?? ?? c3 }\n"
            "rule noisy family=probe severity=alert { 90 90 90 }\n"
        )
        assert len(rs.rules) == 2
        stack = rs.by_name["mk_stack"]
        assert stack.family == "stager"
        assert stack.severity == "kill"
        assert stack.sync
        assert stack.atoms == (0x55, 0x48, 0x89, 0xE5, None, None, 0xC3)
        assert [r for r in rs.rules if r.sync] == [stack]
        assert not rs.by_name["noisy"].sync

    def test_hex_is_case_insensitive(self):
        rs = parse_rules("rule r family=f severity=alert { AB cD ef }\n")
        assert rs.by_name["r"].atoms == (0xAB, 0xCD, 0xEF)

    def test_comments_and_blank_lines_ignored(self):
        rs = parse_rules("\n# nothing\n   \nrule r family=f severity=alert { 00 } # tail\n")
        assert len(rs.rules) == 1

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("rule r family=f severity=alert { zz }", "hex pair"),
            ("rule r family=f severity=alert { }", "empty pattern"),
            ("rule r family=f severity=alert { ?? ?? }", "literal"),
            ("rule r family=f severity=maim { 00 }", "severity"),
            ("rule r family=f severity=alert sync { 00 }", "severity=kill"),
            ("rule r severity=alert family=f { 00 }", "family"),
            ("rule r family=f severity=alert { 00", "'}'"),
            ("rule r family=f severity=alert { 00 } 00", "trailing"),
            ("rule r family=f severity=kill { 00 }\nrule r family=f severity=kill { 01 }", "duplicate"),
            ("walk r family=f severity=kill { 00 }", "'rule'"),
        ],
    )
    def test_syntax_errors_carry_position(self, text, fragment):
        with pytest.raises(RuleSyntaxError) as err:
            parse_rules(text)
        assert fragment in str(err.value)
        assert "line" in str(err.value) and "column" in str(err.value)

    def test_error_points_at_the_right_line(self):
        with pytest.raises(RuleSyntaxError) as err:
            parse_rules("rule a family=f severity=kill { 00 }\n\nrule b family=f severity=bad { 00 }\n")
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "brk", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_line_breaks_other_than_newline_keep_line_numbers(self, brk):
        text = f"# built{brk}x\nrule r family=f severity=wat {{ 00 }}\n"
        with pytest.raises(RuleSyntaxError) as err:
            parse_rules(text)
        assert (err.value.line, err.value.column) == (2, 6)
        assert "severity" in str(err.value)

    def test_crlf_lines_keep_their_columns(self):
        with pytest.raises(RuleSyntaxError) as err:
            parse_rules(
                "rule q family=f severity=kill { 01 }\r\n"
                "rule r family=f severity=kill { 00\r\n"
            )
        assert (err.value.line, err.value.column) == (2, 35)

    def test_pattern_longer_than_page_rejected(self):
        body = " ".join(["00"] * 65)
        with pytest.raises(RuleSyntaxError):
            parse_rules(f"rule r family=f severity=alert {{ {body} }}", page_size=64)


class TestRuleSetValidates:
    """A bare SignatureRule is only data; a RuleSet checks each rule it takes."""

    @pytest.mark.parametrize(
        "fields,message",
        [
            (("maim", False, (0,)), "rule r: severity must be kill or alert, got 'maim'"),
            (("kill", False, ()), "rule r: empty pattern"),
            (("kill", False, (None, None)), "rule r: pattern needs at least one literal byte"),
            (("alert", True, (0,)), "rule r: sync rules must have severity=kill"),
            (("kill", False, (0,) * 65), "rule r: pattern longer than page size 64"),
        ],
    )
    def test_a_bad_rule_raises_its_message(self, fields, message):
        bad = SignatureRule("r", "f", *fields)
        with pytest.raises(ValueError) as err:
            RuleSet([bad], page_size=64)
        assert str(err.value) == message

    def test_a_taken_name_raises(self):
        with pytest.raises(ValueError) as err:
            RuleSet([rule("r", "00"), rule("r", "01")])
        assert str(err.value) == "duplicate rule name 'r'"

    def test_rules_are_checked_in_order_and_taken_one_at_a_time(self):
        taken = []

        def rules():
            for r in (rule("a", "00"), rule("b", "??"), rule("c", "01")):
                taken.append(r.name)
                yield r

        with pytest.raises(ValueError, match="rule b:"):
            RuleSet(rules())
        assert taken == ["a", "b"]


class TestScan:
    def test_single_literal_match(self):
        rs = ruleset(rule("r", "de ad be ef"), page_size=64)
        page = bytearray(64)
        embed(page, 10, rs.by_name["r"].atoms)
        assert scan_page(bytes(page), rs) == [Match("r", 10)]

    def test_wildcards_match_any_byte(self):
        rs = ruleset(rule("r", "aa ?? ?? bb"), page_size=64)
        page = bytearray(64)
        page[4:8] = bytes([0xAA, 0x01, 0xFF, 0xBB])
        assert scan_page(bytes(page), rs) == [Match("r", 4)]

    def test_overlapping_matches_all_reported(self):
        rs = ruleset(rule("r", "41 41 41"), page_size=16)
        page = bytes([0x41] * 5).ljust(16, b"\x00")
        assert [m.offset for m in scan_page(page, rs)] == [0, 1, 2]

    def test_match_flush_with_page_end(self):
        # 20-byte pattern placed at 4076 of a 4096-byte page
        pattern = "ab " * 19 + "cd"
        rs = ruleset(rule("edge", pattern))
        page = bytearray(4096)
        embed(page, 4076, rs.by_name["edge"].atoms)
        assert scan_page(bytes(page), rs) == [Match("edge", 4076)]

    def test_pattern_straddling_page_end_not_matched(self):
        rs = ruleset(rule("r", "41 41 41 41"), page_size=32)
        page = bytearray(32)
        page[30:32] = b"\x41\x41"  # continuation would be on the next page
        assert scan_page(bytes(page), rs) == []

    def test_result_ordered_by_offset_then_name(self):
        rs = ruleset(rule("zeta", "11 22"), rule("alpha", "11 22"), page_size=32)
        page = bytearray(32)
        page[5:7] = b"\x11\x22"
        assert scan_page(bytes(page), rs) == [Match("alpha", 5), Match("zeta", 5)]

    def test_wrong_page_size_rejected(self):
        rs = ruleset(rule("r", "00"), page_size=64)
        with pytest.raises(ValueError):
            scan_page(b"\x00" * 63, rs)

    def test_scan_is_pure(self):
        rs = ruleset(rule("r", "aa bb"), page_size=32)
        page = bytearray(32)
        page[3:5] = b"\xaa\xbb"
        first = scan_page(bytes(page), rs)
        second = scan_page(bytes(page), rs)
        assert first == second

    def test_leading_wildcards_near_page_start_bounded(self):
        # candidate start would be negative; must not match or crash
        rs = ruleset(rule("r", "?? ?? aa bb"), page_size=32)
        page = bytearray(32)
        page[0:2] = b"\xaa\xbb"
        assert scan_page(bytes(page), rs) == []
        page2 = bytearray(32)
        page2[2:4] = b"\xaa\xbb"
        assert scan_page(bytes(page2), rs) == [Match("r", 0)]


class TestSyncCheck:
    def test_returns_first_threat_by_offset(self):
        rs = ruleset(
            rule("late", "bb bb", severity="kill", sync=True),
            rule("early", "aa aa", severity="kill", sync=True),
            page_size=64,
        )
        page = bytearray(64)
        page[30:32] = b"\xbb\xbb"
        page[10:12] = b"\xaa\xaa"
        hit = sync_check(bytes(page), rs)
        assert hit == Match("early", 10)

    def test_ignores_non_sync_rules(self):
        rs = ruleset(rule("async_only", "cc cc", severity="kill"), page_size=64)
        page = bytearray(64)
        page[0:2] = b"\xcc\xcc"
        assert sync_check(bytes(page), rs) is None
        assert scan_page(bytes(page), rs) == [Match("async_only", 0)]

    def test_clean_page_returns_none(self):
        rs = ruleset(rule("r", "de ad", severity="kill", sync=True), page_size=64)
        assert sync_check(b"\x00" * 64, rs) is None

    def test_a_buffer_longer_than_the_page_size_is_scanned_to_its_end(self):
        rs = ruleset(rule("r", "de ad be", severity="kill", sync=True), page_size=64)
        buffer = bytearray(200)
        buffer[150:153] = b"\xde\xad\xbe"
        assert sync_check(bytes(buffer), rs) == Match("r", 150)
        assert sync_check(bytes(buffer), rs, [(152, 153)]) == Match("r", 150)
        buffer[197:200] = b"\xde\xad\xbe"  # flush with the buffer's end
        assert sync_check(bytes(buffer), rs, [(199, 200)]) == Match("r", 197)


def _random_case(rng: random.Random):
    page_size = rng.choice([64, 96, 128])
    n_rules = rng.randint(1, 4)
    rules = []
    for i in range(n_rules):
        length = rng.randint(1, 10)
        atoms = tuple(
            None if rng.random() < 0.25 else rng.randrange(256) for _ in range(length)
        )
        if all(a is None for a in atoms):
            atoms = atoms[:-1] + (rng.randrange(256),)
        rules.append(SignatureRule(f"r{i}", "rnd", "alert", False, atoms))
    page = bytearray(rng.randrange(256) for _ in range(page_size))
    # seed implants so matches actually occur, including page-edge ones
    for r in rules:
        if rng.random() < 0.6:
            limit = page_size - len(r.atoms)
            offset = limit if rng.random() < 0.2 else rng.randint(0, limit)
            embed(page, offset, r.atoms)
    return bytes(page), RuleSet(rules, page_size=page_size), rules


class TestOracleEquivalence:
    def test_randomized_against_naive_oracle(self):
        rng = random.Random(2024)
        for _ in range(3000):
            page, rs, rules = _random_case(rng)
            got = [(m.offset, m.rule) for m in scan_page(page, rs)]
            want = naive_scan(page, [(r.name, r.atoms) for r in rules])
            assert got == want

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_against_naive_oracle(self, data):
        page_size = data.draw(st.integers(min_value=8, max_value=64))
        atom = st.one_of(st.none(), st.integers(min_value=0, max_value=255))
        patterns = data.draw(
            st.lists(
                st.lists(atom, min_size=1, max_size=6).filter(
                    lambda p: any(a is not None for a in p) and len(p) <= page_size
                ),
                min_size=1,
                max_size=3,
            )
        )
        page = bytearray(data.draw(st.binary(min_size=page_size, max_size=page_size)))
        rules = [SignatureRule(f"r{i}", "h", "alert", False, tuple(p)) for i, p in enumerate(patterns)]
        if data.draw(st.booleans()) and patterns:
            target = rules[0]
            offset = data.draw(st.integers(0, page_size - len(target.atoms)))
            embed(page, offset, target.atoms)
        rs = RuleSet(rules, page_size=page_size)
        got = [(m.offset, m.rule) for m in scan_page(bytes(page), rs)]
        assert got == naive_scan(bytes(page), [(r.name, r.atoms) for r in rules])


def test_scan_cost_scales_roughly_linearly():
    # sanity check against accidental quadratic behavior; generous slack
    rng = random.Random(1)
    rules = RuleSet(
        [
            SignatureRule(f"r{i}", "bench", "alert", False,
                          tuple(rng.randrange(256) for _ in range(16)))
            for i in range(16)
        ],
        page_size=8192,
    )

    def best_of(page: bytes) -> float:
        times = []
        for _ in range(5):
            start = time.perf_counter()
            rules._full.scan(page)
            times.append(time.perf_counter() - start)
        return min(times)

    small = bytes(rng.randrange(256) for _ in range(8192))
    big = small * 8
    t_small, t_big = best_of(small), best_of(big)
    assert t_big < 24 * max(t_small, 1e-6)


def _naive(page: bytes, rules) -> list[tuple[int, str]]:
    return naive_scan(page, [(r.name, r.atoms) for r in rules])


def _scanned(page: bytes, rs: RuleSet) -> list[tuple[int, str]]:
    return [(m.offset, m.rule) for m in scan_page(page, rs)]


def _pattern(rng: random.Random, alphabet, length: int, wild: float = 0.25):
    atoms = [None if rng.random() < wild else rng.choice(alphabet) for _ in range(length)]
    if all(a is None for a in atoms):
        atoms[rng.randrange(length)] = rng.choice(alphabet)
    return tuple(atoms)


class TestPrefilterEdges:
    """Edges of the anchor prefilter, each checked against the naive oracle."""

    def test_rules_sharing_an_anchor_prefix_share_a_bucket(self):
        rng = random.Random(7)
        prefix = (0x90, 0x91, 0x92, 0x93)
        tail = [None, 0x90, 0x94, 0x95]
        for _ in range(100):
            rules = [
                SignatureRule(f"s{i}", "t", "alert", False,
                              prefix + tuple(rng.choice(tail) for _ in range(rng.randint(0, 4))))
                for i in range(8)
            ]
            rs = RuleSet(rules, page_size=256)
            assert len(rs._full._buckets[bytes(prefix)]) == 8
            page = bytearray(rng.choice([0x00, 0x90, 0x91, 0x92, 0x93, 0x94]) for _ in range(256))
            for r in rng.sample(rules, 4):
                embed(page, rng.randint(0, 256 - len(r.atoms)), r.atoms)
            assert _scanned(bytes(page), rs) == _naive(bytes(page), rules)

    @pytest.mark.parametrize("shortest", [1, 2, 3, 4, 5, 7])
    def test_every_prefix_length(self, shortest):
        rng = random.Random(shortest)
        alphabet = [0xA0, 0xA1, 0xA2]
        for _ in range(60):
            anchor = tuple(rng.choice(alphabet) for _ in range(shortest))
            rules = [SignatureRule("short", "t", "alert", False, (None,) + anchor + (None,))]
            for i in range(rng.randint(1, 5)):
                run = tuple(rng.choice(alphabet) for _ in range(rng.randint(shortest, shortest + 4)))
                rules.append(SignatureRule(f"r{i}", "t", "alert", False,
                                           _pattern(rng, alphabet, 2, 0.5) + (None,) + run))
            rs = RuleSet(rules, page_size=128)
            assert rs._full._k == min(4, shortest)
            page = bytearray(rng.choice(alphabet + [0x00]) for _ in range(128))
            for r in rules:
                embed(page, rng.randint(0, 128 - len(r.atoms)), r.atoms)
            assert _scanned(bytes(page), rs) == _naive(bytes(page), rules)

    def test_anchor_behind_leading_wildcards_at_both_page_edges(self):
        rules = [
            rule("lead2", "?? ?? aa bb cc"),
            rule("mixed", "?? 11 ?? 22 22 22 ?? 33"),
            rule("both", "?? ?? ?? dd ee ff ?? ??"),
        ]
        rs = ruleset(*rules, page_size=64)
        for r in rules:
            for offset in (0, 64 - len(r.atoms)):
                page = bytearray(64)
                embed(page, offset, r.atoms)
                assert _scanned(bytes(page), rs) == _naive(bytes(page), rules)
                assert (offset, r.name) in _scanned(bytes(page), rs)
        # the anchor alone at the very start or end, its wildcards off the page
        for page in (bytes.fromhex("aabbcc").ljust(64, b"\x00"),
                     bytes.fromhex("ddeeff").rjust(64, b"\x00")):
            assert _scanned(page, rs) == _naive(page, rules)

    def test_page_made_only_of_anchor_bytes(self):
        rng = random.Random(11)
        alphabet = [0xC0, 0xC1]
        for _ in range(3):
            rules = [
                SignatureRule(f"d{i}", "t", "alert", False, _pattern(rng, alphabet, rng.randint(2, 9)))
                for i in range(6)
            ]
            rs = RuleSet(rules, page_size=4096)
            page = bytes(rng.choice(alphabet) for _ in range(4096))
            assert _scanned(page, rs) == _naive(page, rules)
        # a constant page: every position is a candidate and most verify
        page = b"\xc0" * 4096
        rules = [rule("run", "c0 c0 c0"), rule("gap", "c0 ?? c0 c0 c0 c0")]
        assert _scanned(page, ruleset(*rules)) == _naive(page, rules)

    def test_sync_check_is_the_first_naive_sync_hit(self):
        rng = random.Random(5)
        alphabet = [0xE0, 0xE1, 0xE2, 0x00]
        for _ in range(300):
            rules = [
                SignatureRule(f"r{i}", "t", "kill", rng.random() < 0.5,
                              _pattern(rng, alphabet, rng.randint(1, 6)))
                for i in range(rng.randint(1, 6))
            ]
            rs = RuleSet(rules, page_size=96)
            page = bytearray(rng.choice(alphabet) for _ in range(96))
            for r in rules:
                if rng.random() < 0.5:
                    embed(page, rng.randint(0, 96 - len(r.atoms)), r.atoms)
            want = _naive(bytes(page), [r for r in rules if r.sync])
            got = sync_check(bytes(page), rs)
            assert got == (Match(want[0][1], want[0][0]) if want else None)

    @given(st.binary(min_size=64, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_no_rules_and_no_sync_rules_never_match(self, page):
        empty = ruleset(page_size=64)
        assert scan_page(page, empty) == []
        assert sync_check(page, empty) is None
        no_sync = ruleset(rule("a", "00"), rule("b", "ff ?? 7f"), page_size=64)
        assert sync_check(page, no_sync) is None
        assert _scanned(page, no_sync) == _naive(page, no_sync.rules)

    def test_a_window_at_the_buffer_end_shorter_than_the_key(self):
        rs = ruleset(rule("s", "aa bb cc dd", severity="kill", sync=True), page_size=16)
        looked_up = []

        class Recording(dict):
            def get(self, key, default=None):
                looked_up.append(key)
                return super().get(key, default)

        rs._sync._buckets = Recording(rs._sync._buckets)
        # a key's first bytes, all of it but the last, at the end of the buffer
        for buffer in (b"\xaa", b"\xaa\xbb", b"\xaa\xbb\xcc", bytes(13) + b"\xaa\xbb\xcc"):
            end = len(buffer)
            for spans in (None, [(end - 1, end)], [(0, 1), (end - 1, end)]):
                assert sync_check(buffer, rs, spans) is None
        assert looked_up == []  # no candidate short of a whole key
        buffer = bytes(10) + b"\xaa\xbb\xcc\xdd\xaa\xbb"
        assert sync_check(buffer, rs) == Match("s", 10)
        assert sync_check(buffer, rs, [(13, 14)]) == Match("s", 10)
        assert sync_check(buffer, rs, [(15, 16)]) is None
        assert looked_up == [b"\xaa\xbb\xcc\xdd"] * 2
        # the whole key flush with the end, with a window that ends before it
        for buffer in (b"\xaa\xbb\xcc\xdd", bytes(12) + b"\xaa\xbb\xcc\xdd"):
            end = len(buffer)
            for spans in (None, [(end - 1, end)], [(end - 4, end - 3)]):
                assert sync_check(buffer, rs, spans) == Match("s", end - 4)


def _span(rng: random.Random, spans: list[tuple[int, int]], size: int, length: int):
    """A [lo, hi) of the given length: at a page edge, touching, overlapping
    or near an earlier span, or anywhere."""
    where = rng.choice(["start", "end", "touch", "overlap", "near", "any"] if spans else
                       ["start", "end", "any"])
    if where == "start":
        lo = 0
    elif where == "end":
        lo = size - length
    elif where == "any":
        lo = rng.randint(0, size - length)
    else:
        other_lo, other_hi = rng.choice(spans)
        lo = {
            "touch": rng.choice([other_hi, other_lo - length]),
            "overlap": rng.randint(other_lo - length + 1, other_hi - 1),
            "near": other_hi + rng.randint(1, 12),
        }[where]
        lo = min(max(lo, 0), size - length)
    return lo, lo + length


class TestWindowScan:
    """Scans narrowed to written spans, on pages that held no match before."""

    def test_spans_find_what_the_whole_page_scan_finds(self):
        rng = random.Random(10)
        alphabet = [0xB0, 0xB1, 0xB2]
        background = [0x00, 0x01, 0x7F]  # outside every rule, so no match before the writes
        size = 128
        hits = windowed = 0
        for _ in range(2000):
            rules = [
                SignatureRule(f"r{i}", "t", "kill", rng.random() < 0.5,
                              _pattern(rng, alphabet, rng.randint(1, 14)))
                for i in range(rng.randint(1, 6))
            ]
            rs = RuleSet(rules, page_size=size)
            page = bytearray(rng.choice(background) for _ in range(size))
            assert _naive(bytes(page), rules) == []
            spans: list[tuple[int, int]] = []
            for _ in range(rng.randint(0, 8)):
                if rng.random() < 0.5:
                    atoms = rng.choice(rules).atoms
                    lo, hi = _span(rng, spans, size, len(atoms))
                    embed(page, lo, atoms)
                else:
                    lo, hi = _span(rng, spans, size, rng.randint(1, 16))
                    page[lo:hi] = bytes(rng.choice(alphabet + background) for _ in range(hi - lo))
                spans.append((lo, hi))
            content = bytes(page)
            want = _naive(content, rules)
            assert [(m.offset, m.rule) for m in scan_page(content, rs, spans)] == want
            assert _scanned(content, rs) == want
            want_sync = _naive(content, [r for r in rs.rules if r.sync])
            assert sync_check(content, rs, spans) == sync_check(content, rs) == (
                Match(want_sync[0][1], want_sync[0][0]) if want_sync else None
            )
            hits += len(want)
            windowed += sum(hi - lo for lo, hi in spans) < size // 2
        assert hits > 2000 and windowed > 1000  # the cases hold matches and narrow windows

    def test_no_spans_on_a_clean_page_find_nothing(self):
        rs = ruleset(rule("a", "b0 ?? b1"), rule("s", "b2", severity="kill", sync=True),
                     page_size=64)
        page = bytes.fromhex("b0 00 b1 b2").ljust(64, b"\x00")
        assert _scanned(page, rs) != []
        # nothing written since a clean check: nothing new can match
        assert scan_page(page, rs, []) == []
        assert sync_check(page, rs, []) is None


def _overlapping(hits, spans, rules) -> list[tuple[int, str]]:
    """The (offset, name) hits whose bytes overlap some [lo, hi) of spans."""
    length = {r.name: len(r.atoms) for r in rules}
    return [(off, name) for off, name in hits
            if any(off < hi and lo < off + length[name] for lo, hi in spans)]


class TestSpansKeepOverlaps:
    """A narrowed scan keeps exactly the matches that overlap a span, on pages
    that also hold matches outside every span."""

    def test_a_match_just_before_a_span_is_not_kept(self):
        rules = [rule("short", "aa bb", severity="kill", sync=True), rule("long", "cc " * 20)]
        rs = ruleset(*rules, page_size=256)
        page = bytearray(256)
        page[100:102] = b"\xaa\xbb"
        page = bytes(page)
        # long's reach puts offset 100 in the window, but [100, 102) misses [110, 111)
        assert scan_page(page, rs, [(110, 111)]) == []
        assert sync_check(page, rs, [(110, 111)]) is None
        for spans in ([(101, 102)], [(90, 101)], [(0, 1), (101, 110)]):
            assert scan_page(page, rs, spans) == [Match("short", 100)]
            assert sync_check(page, rs, spans) == Match("short", 100)

    def test_equal_the_naive_matches_that_overlap_a_span(self):
        rng = random.Random(34)
        alphabet = [0xD0, 0xD1, 0xD2, 0x00]
        size = 128
        kept = dropped = 0
        for _ in range(600):
            rules = [
                SignatureRule(f"r{i}", "t", "kill", rng.random() < 0.5,
                              _pattern(rng, alphabet, rng.randint(1, 24)))
                for i in range(rng.randint(1, 6))
            ]
            rs = RuleSet(rules, page_size=size)
            page = bytearray(rng.choice(alphabet) for _ in range(size))
            for r in rules:
                embed(page, rng.randint(0, size - len(r.atoms)), r.atoms)
            content = bytes(page)
            want = _naive(content, rules)
            want_sync = _naive(content, [r for r in rules if r.sync])
            spans: list[tuple[int, int]] = []
            for _ in range(rng.randint(1, 4)):
                spans.append(_span(rng, spans, size, rng.randint(1, 6)))
                got = [(m.offset, m.rule) for m in scan_page(content, rs, spans)]
                assert got == _overlapping(want, spans, rules)
                first = _overlapping(want_sync, spans, rules)[:1]
                assert sync_check(content, rs, spans) == (
                    Match(first[0][1], first[0][0]) if first else None
                )
                kept += len(got)
                dropped += len(want) - len(got)
        assert kept > 1000 and dropped > 1000  # hits both inside and outside the spans


def _bench_shaped_rules(rng: random.Random) -> list[SignatureRule]:
    """200 rules of 8-20 atoms, ~85% literals drawn from the whole alphabet,
    literal first and last atoms, 4 of them sync."""
    rules = []
    for i in range(200):
        atoms = [rng.randrange(256) if rng.random() < 0.85 else None
                 for _ in range(rng.randint(8, 20))]
        atoms[0], atoms[-1] = rng.randrange(256), rng.randrange(256)
        sync = i % 50 == 7
        severity = "kill" if sync or rng.random() < 0.5 else "alert"
        rules.append(SignatureRule(f"r{i:03d}", "t", severity, sync, tuple(atoms)))
    return rules


class TestDensePages:
    """Full-alphabet pages, where the prefilter meets candidates at most
    offsets, against the naive oracle: whole pages and 1-3 spans."""

    def test_bench_shaped_rules_on_full_alphabet_pages(self):
        rng = random.Random(3434)
        rules = _bench_shaped_rules(rng)
        sync_rules = [r for r in rules if r.sync]
        rs = RuleSet(rules, page_size=4096)
        hits = outside = 0
        # the naive oracle takes ~0.5 s per page against 200 rules
        for _ in range(10):
            page = bytearray(rng.randbytes(4096))
            for r in rng.sample(rules, 6) + rng.sample(sync_rules, 1):
                embed(page, rng.randrange(4096 - len(r.atoms) + 1), r.atoms)
            content = bytes(page)
            want = _naive(content, rules)
            assert _scanned(content, rs) == want
            want_sync = _naive(content, sync_rules)
            for _ in range(8):
                spans: list[tuple[int, int]] = []
                for _ in range(rng.randint(1, 3)):
                    if rng.random() < 0.5:  # onto a match's bytes
                        off, name = rng.choice(want)
                        lo = rng.randrange(off, off + len(rs.by_name[name].atoms))
                        spans.append((lo, min(4096, lo + rng.randint(1, 40))))
                    else:
                        spans.append(_span(rng, spans, 4096, rng.randint(1, 40)))
                got = [(m.offset, m.rule) for m in scan_page(content, rs, spans)]
                assert got == _overlapping(want, spans, rules)
                first = _overlapping(want_sync, spans, rules)[:1]
                assert sync_check(content, rs, spans) == (
                    Match(first[0][1], first[0][0]) if first else None
                )
                outside += len(want) - len(got)
            hits += len(want)
        assert hits >= 60 and outside > 0  # planted hits, some outside the spans


class TestZeroPageClean:
    """``RuleSet.zero_page_clean`` against a naive scan of an all-zero page."""

    def test_equals_a_naive_scan_of_a_zero_page(self):
        rng = random.Random(13)
        outcomes = {True: 0, False: 0}
        for _ in range(3000):
            ps = rng.randint(1, 64)
            rules = []
            for i in range(rng.randint(1, 6)):
                length = ps if rng.random() < 0.2 else rng.randint(1, min(ps, 8))
                atoms = _pattern(rng, [0x00, 0x00, 0x41], length, wild=rng.choice([0.2, 0.5]))
                sync = rng.random() < 0.5
                severity = "kill" if sync or rng.random() < 0.5 else "alert"
                rules.append(SignatureRule(f"r{i}", "t", severity, sync, atoms))
            rs = RuleSet(rules, page_size=ps)
            clean = naive_scan(bytes(ps), [(r.name, r.atoms) for r in rules]) == []
            assert rs.zero_page_clean == clean, (ps, rules)
            outcomes[clean] += 1
        assert min(outcomes.values()) > 500  # both answers are common

    def test_empty_set_is_clean(self):
        assert ruleset(page_size=64).zero_page_clean

    def test_an_alert_only_async_rule_makes_the_set_unclean(self):
        rs = ruleset(rule("s", "41 00", severity="kill", sync=True), rule("z", "00 ?? 00"),
                     page_size=64)
        assert not rs.zero_page_clean
        # its sync rules alone would be clean: the full set decides
        assert RuleSet([r for r in rs.rules if r.sync], page_size=64).zero_page_clean

    def test_set_up_scans_no_page(self, monkeypatch):
        def no_scan(self, data, spans=None):
            raise AssertionError("building a RuleSet scanned a page")

        monkeypatch.setattr(signatures_module._MultiPattern, "scan", no_scan)
        rs = ruleset(rule("z", "00 00", severity="kill", sync=True), page_size=2**21)
        assert not rs.zero_page_clean


_SOUP_NAMES = ("a", "b", "stub_1")
_HEX = "0123456789abcdefABCDEF"


def _soup_rule_line(rng: random.Random, ps: int) -> str:
    """One rule line: canonical, near-canonical, or with a defect in its
    content (severity, sync, pattern, length, name) or its syntax."""
    severity = rng.choice(["kill", "alert"]) if rng.random() < 0.95 else rng.choice(
        ["maim", "KILL", ""]
    )
    sync = rng.random() < (0.3 if severity == "kill" else 0.05)
    length = rng.randint(1, 4) if rng.random() < 0.9 else rng.choice([0, ps, ps + 1])
    wild = 1.0 if rng.random() < 0.04 else rng.choice([0.1, 0.3])
    atoms = [
        "??" if rng.random() < wild else rng.choice(_HEX) + rng.choice(_HEX)
        for _ in range(length)
    ]
    family = "f" if rng.random() < 0.95 else rng.choice(["", "a=b", "x86"])
    tokens = ["rule", rng.choice(_SOUP_NAMES), f"family={family}", f"severity={severity}"]
    tokens += ["sync"] * sync + ["{", *atoms, "}"]
    if rng.random() < 0.12:  # one syntax defect
        roll = rng.random()
        if roll < 0.15:
            tokens.pop()  # no closing brace
        elif roll < 0.3:
            tokens.append("00")  # trailing input
        elif roll < 0.45 and atoms:
            tokens[tokens.index("{") + 1] = rng.choice(["zz", "0", "abc", "?"])
        elif roll < 0.6:
            tokens[rng.randrange(4)] = rng.choice(["walk", "a-b", "family", "severity"])
        elif roll < 0.75:
            tokens[tokens.index("{")] = rng.choice(["(", "{00"])
        elif roll < 0.9:
            del tokens[rng.randint(1, tokens.index("{") + 1):]  # cut short
        else:
            del tokens[rng.randrange(1, 4)]
    if rng.random() < 0.75:
        line = " ".join(tokens)
    else:
        line = tokens[0]
        for tok in tokens[1:]:
            line += rng.choice([" ", " ", "  ", "\t", " \t", "\x85"]) + tok
    if rng.random() < 0.05:
        line = rng.choice([" ", "\t"]) + line
    if rng.random() < 0.25:
        line += rng.choice([" ", "\t", "\r", " \r", " # note", "#x", "\r\r"])
    return line


def _rule_soup(rng: random.Random, ps: int) -> str:
    """A short rule file: mostly rule lines, some blank or comment lines,
    some rules broken in two; names come from a small pool, so duplicates
    are common."""
    lines = []
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "   ", "# note", "\r"]))
        elif rng.random() < 0.05:  # a rule broken across a line break
            head, _, tail = _soup_rule_line(rng, ps).rpartition(rng.choice(" {"))
            lines += [head, tail]
        else:
            lines.append(_soup_rule_line(rng, ps))
    return rng.choice(["\n", "\r\n"]).join(lines) + rng.choice(["", "\n"])


# a fragment of each error message the soup must reach
_SOUP_KINDS = (
    "severity must", "empty pattern", "literal byte", "sync rules", "duplicate",
    "longer than page", "empty family", "expected hex pair", "before end of line",
    "trailing input", "expected 'rule'", "bad rule name", "expected family",
    "expected severity", "got end of line", "expected '{'",
)


def _rules_outcome(parse, text: str, ps: int):
    try:
        result = parse(text, page_size=ps)
    except RuleSyntaxError as err:
        return ("error", str(err), err.line, err.column)
    return list(getattr(result, "rules", result))


@pytest.mark.parametrize("seed", range(6))
def test_same_rules_as_the_reference_parser_on_token_soup(seed):
    rng = random.Random(seed)
    seen: set[str] = set()
    for _ in range(500):
        ps = rng.choice([4, 64])
        text = _rule_soup(rng, ps)
        got = _rules_outcome(parse_rules, text, ps)
        assert got == _rules_outcome(reference_parse_rules, text, ps), text
        message = "parsed" if isinstance(got, list) else got[1]
        seen.add(next((kind for kind in _SOUP_KINDS if kind in message), message))
    assert seen == {"parsed", *_SOUP_KINDS}, seen


@pytest.mark.parametrize("line,fast", [
    ("rule r family=f severity=kill { 00 ?? AB }", True),
    ("rule r_2 family=a=b severity=alert { ?? 7f }\r", True),
    ("rule r family=f severity=kill sync { 00 }", True),
    ("rule  r family=f severity=kill { 00 }", False),
    ("rule r family=f severity=kill\t{ 00 }", False),
    ("rule r family=f severity=kill { 00 } ", False),
    ("rule r family=f severity=kill { 00 } # note", False),
    ("rule r family=f severity=maim { 00 }", False),
    ("rule r family=f severity=kill { }", False),
    (" rule r family=f severity=kill { 00 }", False),
])
def test_only_canonical_lines_take_the_one_match_path(line, fast):
    match = signatures_module._LINE.match(line)
    assert match.end() == len(line) and (match.group(1) is not None) == fast
