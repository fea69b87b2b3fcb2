"""Hand mutants of ``src/jitscan``, kept so that each runs again when the
code changes.

    python3 tests/mutants.py [NAME ...]

With no NAME it runs every entry; with names, only those entries, and
an unknown name exits 2 with a one-line message before any runs.  Each
entry of ``MUTANTS`` names a file under ``src/``, an exact old text
that occurs there once, its replacement and the pytest node ids that
must fail once the replacement is made.  The runner copies ``src``,
``tests``, the files of ``bench`` (not ``bench/.work/``),
``pyproject.toml`` and ``BENCHMARK.json`` into a temporary directory, so
that every tier-1 test runs there as here, and because pyproject's
``pythonpath = ["src"]`` would otherwise put this tree's unmutated
package first on ``sys.path``.  It applies one mutant at a time there
and runs that entry's node ids, with the copy as pytest's rootdir, one
process at a time.  It prints each mutant that survives (none of its
node ids fails) and each node id that passes though it must fail, and
exits 1 if there is any, 0 if none.

An entry marked ``survives`` is a known survivor: no test can see it
yet, its node ids are the tests that come nearest, and it fails no run.
The runner says so when one of them starts to fail it.

Standard library only; pytest does not collect this file.
``tests/test_mutants.py`` checks that every old text still occurs
exactly once in its file and every named test exists, so a refactor
that moves the code or renames a test must update the entry.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

AGENT = "tests/test_agent.py::"
TRACE = "tests/test_trace.py::"
PIPELINE = "tests/test_pipeline.py::"
MMU = "tests/test_mmu.py::"
SHADOW = "tests/test_shadow.py::"
ACCEPTANCE = "tests/test_acceptance.py::"
SIGNATURES = "tests/test_signatures.py::"
GUARD = "tests/test_guard.py::"
IMPORTS = "tests/test_imports.py::"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]  # node ids that must fail under the mutant
    survives: bool = False  # a known survivor: no test sees it yet


MUTANTS = (
    Mutant(
        "agent skips the guard acknowledgment", "src/jitscan/agent.py",
        "            on_delivered(snap.uid, now)\n", "",
        (
            AGENT + "TestAgentStep::test_step_acknowledges_each_drained_uid_at_its_tick",
            AGENT + "TestReplay::test_eviction_shows_up_in_metrics",
            AGENT + "TestReferenceReplay::test_reports_equal_the_reference",
            AGENT + "TestDrainSkip::test_reports_equal_the_plain_loop",
            AGENT + "TestGuardSweep::test_a_penalty_ends_with_its_eviction_not_before[4]",
            AGENT + "TestGuardSweep::test_a_penalty_ends_with_its_eviction_not_before[5]",
            AGENT + "TestGuardSweep::test_eviction_boundary[5-1]",
        ),
    ),
    Mutant(
        "replay loop swaps READ and FETCH", "src/jitscan/agent.py",
        "result = access(event[2], event[3], event[4], event[5], op)\n",
        "result = access(event[2], event[3], event[4], event[5], READ + FETCH - op)\n",
        (
            AGENT + "TestReplay::test_benign_trace_all_ok",
            AGENT + "TestReferenceReplay::test_reports_equal_the_reference",
            AGENT + "TestDrainSkip::test_reports_equal_the_plain_loop",
            ACCEPTANCE + "test_03_signature_invisible_at_rest_is_caught_at_unpack",
        ),
    ),
    Mutant(
        "_apply_event routes MPROTECT to mmap", "src/jitscan/agent.py",
        "    elif op is MMAP:\n", "    elif op is MMAP or op is MPROTECT:\n",
        (
            AGENT + "TestReplay::test_each_setup_op_code_advances_the_clock_and_returns_ok",
            AGENT + "TestReferenceReplay::test_reports_equal_the_reference",
            ACCEPTANCE + "test_07_regained_write_access_forces_a_recheck",
            SHADOW + "TestFirstCheckSpans::test_data_page_made_executable_gets_only_later_writes",
        ),
    ),
    Mutant(
        "agent acknowledges each snapshot twice", "src/jitscan/agent.py",
        "            on_delivered(snap.uid, now)\n",
        "            on_delivered(snap.uid, now)\n            on_delivered(snap.uid, now)\n",
        (
            AGENT + "TestGuardCountsThePipeline::test_pending_per_uid_equals_the_queued_snapshots",
        ),
    ),
    # bytes.fromhex skips ASCII whitespace, which the loop splits at
    Mutant(
        "image read by bytes.fromhex", "src/jitscan/trace.py",
        "    return line[:start] + line[stop:], unhexlify(token)\n",
        "    return line[:start] + line[stop:], bytes.fromhex(token)\n",
        (
            TRACE + "test_an_image_token_that_is_not_exactly_hex_is_the_loops[90\\tc3]",
            TRACE + "test_an_image_token_that_is_not_exactly_hex_is_the_loops[90c3\\r]",
            TRACE + "test_an_image_token_that_is_not_exactly_hex_is_the_loops[90c3\\x0b]",
            TRACE + "test_an_image_token_that_is_not_exactly_hex_is_the_loops[90\\x0cc3]",
            TRACE + "test_same_result_as_the_reference_parser_on_token_soup[1]",
            TRACE + "test_same_result_as_the_reference_parser_on_token_soup[4]",
            TRACE + "test_same_result_as_the_reference_parser_on_token_soup[5]",
        ),
    ),
    Mutant(
        "op-code table swaps READ and FETCH", "src/jitscan/trace.py",
        "_FAST_CODES = {op: _GRAMMAR[op][0] for op in _FAST_OPS}",
        "_FAST_CODES = {op: _GRAMMAR[{'READ': 'FETCH', 'FETCH': 'READ'}.get(op, op)][0]"
        " for op in _FAST_OPS}",
        (
            TRACE + "test_parses_every_event_kind",
            TRACE + "test_a_read_and_a_fetch_with_equal_fields_differ_by_op_code",
            TRACE + "test_same_result_as_the_reference_parser_on_token_soup[0]",
            AGENT + "TestReplay::test_benign_trace_all_ok",
            AGENT + "TestReferenceReplay::test_reports_equal_the_reference",
        ),
    ),
    Mutant(
        "id cache keeps a value under the wrong text", "src/jitscan/trace.py",
        "        number = ints[text] = int(text, 0)\n",
        "        number = ints[text[:1]] = int(text, 0)\n",
        (
            TRACE + "test_parses_every_event_kind",
            TRACE + "test_same_result_as_the_reference_parser_on_token_soup[0]",
            TRACE + "test_same_result_as_the_reference_parser_on_token_soup[3]",
            AGENT + "TestReferenceReplay::test_reports_equal_the_reference",
            AGENT + "TestReferenceReplay::test_plain_engine_equals_the_reference",
        ),
    ),
    Mutant(
        "image cut keeps the line's trailing CR", "src/jitscan/trace.py",
        '        stop = len(line) - line.endswith("\\r")\n', "        stop = len(line)\n",
        (
            TRACE + "test_crlf_setup_lines_take_their_ops_pattern"
            "[MMAP pid=1 perms=wx pages=2 at=16 content=90c3-groups6]",
            TRACE + "test_crlf_setup_lines_take_their_ops_pattern"
            "[MMAP pid=1 perms=rwx pages=1 at=0x10 content=-groups7]",
        ),
    ),
    Mutant(
        "summary object keys unsorted", "src/jitscan/report.py",
        "for key, value in sorted(fields.items())", "for key, value in fields.items()",
        (
            AGENT + "TestEmit::test_detection_and_action_records_equal_encode_record",
            AGENT + "TestReferenceReplay::test_reports_equal_the_reference",
            AGENT + "TestReferenceReplay::test_plain_engine_equals_the_reference",
            AGENT + "TestDrainSkip::test_reports_equal_the_plain_loop",
        ),
    ),
    Mutant(
        "_str without its quote check", "src/jitscan/report.py",
        """s.isprintable() and '"' not in s and""", "s.isprintable() and",
        (
            AGENT + "TestEmit::test_detection_and_action_records_equal_encode_record",
        ),
    ),
    Mutant(
        "drain without the empty-ring early return", "src/jitscan/pipeline.py",
        "        if not ready:\n            return []\n", "",
        (
            PIPELINE + "TestOrdering::test_drain_locks_once_and_only_when_pending",
        ),
    ),
    Mutant(
        "drain serves a bucket twice in a row", "src/jitscan/pipeline.py",
        "                if bucket:\n                    ready.append(idx)\n",
        "                if bucket:\n                    ready.appendleft(idx)\n",
        (
            PIPELINE + "TestOrdering::test_round_robin_serves_all_buckets",
            PIPELINE + "TestOrdering::test_random_histories_match_a_model[0]",
            PIPELINE + "TestOrdering::test_random_histories_match_a_model[7]",
            AGENT + "TestReferenceReplay::test_reports_equal_the_reference",
        ),
    ),
    Mutant(
        "seq stamped outside the lock", "src/jitscan/pipeline.py",
        "        with self._lock:\n"
        "            seq = snap.seq = self.enqueued_total\n"
        "            self.enqueued_total = seq + 1\n",
        "        seq = snap.seq = self.enqueued_total\n"
        "        self.enqueued_total = seq + 1\n"
        "        with self._lock:\n",
        (
            PIPELINE + "TestConcurrency::test_seq_order_is_drain_order",
        ),
    ),
    Mutant(
        "tlb_flush_one does nothing", "src/jitscan/mmu.py",
        'holds one."""\n        pte.tlb.clear()\n', 'holds one."""\n        pass\n',
        (
            MMU + "TestTlb::test_flush_one_is_a_broadcast",
            SHADOW + "TestWriteFault::test_write_transition_flushes_the_page_entry",
            ACCEPTANCE + "test_02_write_and_execute_never_jointly_reachable",
            ACCEPTANCE + "test_05_stale_tlb_entry_defeats_the_state_machine_without_flushes",
            AGENT + "TestReferenceReplay::test_reports_equal_the_reference",
            AGENT + "TestReferenceReplay::test_every_ok_fetch_runs_the_bytes_its_last_check_passed",
        ),
    ),
    Mutant(
        "mprotect skips its flush", "src/jitscan/mmu.py",
        "                self.engine.on_mprotect(pte, area)\n"
        "                self.tlb_flush_one(pte)\n",
        "                self.engine.on_mprotect(pte, area)\n",
        (
            ACCEPTANCE + "test_02_write_and_execute_never_jointly_reachable",
            ACCEPTANCE + "test_10_shadow_engine_is_invisible_to_benign_workloads",
            AGENT + "TestReferenceReplay::test_reports_equal_the_reference",
            AGENT + "TestReferenceReplay::test_every_ok_fetch_runs_the_bytes_its_last_check_passed",
            AGENT + "TestReferenceReplay::test_plain_engine_equals_the_reference",
            MMU + "TestMmapMprotect::test_mprotect_applies_to_present_pages",
            MMU + "test_area_map_matches_per_page_model[0]",
            MMU + "test_area_map_matches_per_page_model[1]",
            MMU + "test_area_map_matches_per_page_model[3]",
            MMU + "test_area_map_matches_per_page_model[4]",
            MMU + "test_area_map_matches_per_page_model[5]",
            MMU + "test_area_map_matches_per_page_model[6]",
            MMU + "test_area_map_matches_per_page_model[7]",
            MMU + "TestPerPageMprotect::test_a_range_shorter_than_the_present_pages",
            MMU + "TestPerPageMprotect::test_fewer_present_pages_than_the_range",
            MMU + "TestWalk::test_tlb_flush_one_runs_once_per_flushed_page",
            SHADOW + "TestModeRule::test_mprotect_leaves_one_of_the_two_modes[rx-exec]",
        ),
    ),
    Mutant(
        "read miss does not fill the TLB", "src/jitscan/mmu.py",
        "                if cpu_id not in tlb:\n"
        "                    tlb[cpu_id] = _TLB_ENTRIES[pte.writable][pte.exec_disabled]\n",
        "",
        (
            MMU + "TestTlb::test_successful_walk_fills_every_referencing_cpu",
            MMU + "TestTlb::test_flush_one_is_a_broadcast",
            MMU + "TestReferencePath::test_access_equals_the_reference",
        ),
    ),
    # The kept pair shows only when the write then faults and no flush or
    # refill replaces it: a segv, or an engine verdict with flushes suppressed.
    Mutant(
        "write keeps a cached pair that denies it", "src/jitscan/mmu.py",
        "                    del tlb[cpu_id]  # a trapping access drops the local entry\n",
        "                    pass\n",
        (
            MMU + "TestReferencePath::test_access_equals_the_reference",
        ),
    ),
    Mutant(
        "fetch walk ignores exec_disabled", "src/jitscan/mmu.py",
        "                if not pte.exec_disabled:\n"
        "                    tlb[cpu_id] = _TLB_ENTRIES[pte.writable][False]\n",
        "                if True:\n"
        "                    tlb[cpu_id] = _TLB_ENTRIES[pte.writable][False]\n",
        (
            MMU + "TestAccess::test_fetch_from_non_exec_area_delivers_segv",
            MMU + "TestTlb::test_faulting_cpu_drops_its_own_stale_entry",
            MMU + "TestWalk::test_a_permitted_miss_reads_no_area_and_calls_no_hook",
            MMU + "TestReferencePath::test_access_equals_the_reference",
            ACCEPTANCE + "test_01_snapshot_events_match_the_write_fetch_oracle",
            ACCEPTANCE + "test_02_write_and_execute_never_jointly_reachable",
        ),
    ),
    Mutant(
        "find_area bisects left", "src/jitscan/mmu.py",
        "        i = bisect.bisect_right(self.areas, vpage, key=_start)\n",
        "        i = bisect.bisect_left(self.areas, vpage, key=_start)\n",
        (
            MMU + "TestMmapMprotect::test_mprotect_subrange_splits_the_area",
            MMU + "test_area_map_matches_per_page_model[0]",
            AGENT + "TestReplay::test_benign_trace_all_ok",
            ACCEPTANCE + "test_01_snapshot_events_match_the_write_fetch_oracle",
        ),
    ),
    Mutant(
        "free-range insert skips the mmap_cursor bump", "src/jitscan/mmu.py",
        "        if end > self.mmap_cursor:\n",
        "        if end > self.mmap_cursor and lo != hi:\n",
        (
            MMU + "TestFreeRange::test_an_mmap_below_the_cursor_leaves_it_alone",
            MMU + "TestMmapMprotect::test_mmap_auto_placement_is_deterministic",
            MMU + "TestMmapMprotect::test_a_refused_edit_past_the_cursor_leaves_it_alone",
            MMU + "TestAccess::test_perms_the_trace_grammar_refuses_are_refused[]",
            MMU + "TestAccess::test_perms_the_trace_grammar_refuses_are_refused[rr]",
            AGENT + "TestReferenceReplay::test_reports_equal_the_reference",
            AGENT + "TestReferenceReplay::test_plain_engine_equals_the_reference",
        ),
    ),
    # A refused mmap or mprotect that ends past the cursor moves it anyway.
    Mutant(
        "cursor bumped before the overlap check", "src/jitscan/mmu.py",
        "        if lo != hi or mapped:  # else free and touching no area: nothing to check\n",
        "        if end > self.mmap_cursor:\n"
        "            self.mmap_cursor = end\n"
        "        if lo != hi or mapped:  # else free and touching no area: nothing to check\n",
        (
            MMU + "TestMmapMprotect::test_a_refused_edit_past_the_cursor_leaves_it_alone",
            MMU + "TestFreeRange::test_an_mprotect_over_a_hole_raises_and_changes_nothing"
            "[22-3-areas0]",
            MMU + "TestFreeRange::test_an_mprotect_over_a_hole_raises_and_changes_nothing"
            "[40-2-areas0]",
            MMU + "TestFreeRange::test_an_mprotect_over_a_hole_raises_and_changes_nothing"
            "[40-2-areas1]",
            MMU + "test_area_map_matches_per_page_model[7]",
            AGENT + "TestReferenceReplay::test_reports_equal_the_reference",
        ),
    ),
    Mutant(
        "blank install takes the image branch", "src/jitscan/mmu.py",
        "        if image is not None:  # a blank page stays all zero\n",
        "        if image is None:  # a blank page stays all zero\n",
        (
            MMU + "TestAccess::test_backing_image_copied_on_materialize",
            MMU + "TestReadPage::test_zero_fill_for_anonymous_pages",
            MMU + "TestReferencePath::test_access_equals_the_reference",
            SHADOW + "TestFirstCheckSpans::test_blank_wx_page_gets_exactly_its_writes",
        ),
    ),
    # An imaged page then counts as blank: its image is not walked at install,
    # so its first check may cover only the spans written since.
    Mutant(
        "install reports a blank page as imaged", "src/jitscan/mmu.py",
        "        return pte, image is not None\n", "        return pte, image is None\n",
        (
            SHADOW + "TestReadBeforeFirstFetch::"
            "test_sync_kill_payload_is_caught_after_a_read[rx-mmap]",
            SHADOW + "TestReadBeforeFirstFetch::"
            "test_sync_kill_payload_is_caught_after_a_read[rw-mprotect-rx]",
            SHADOW + "TestReadBeforeFirstFetch::test_async_alert_sees_one_snapshot_after_a_read",
            SHADOW + "TestFirstCheckSpans::test_image_holding_a_sync_match_is_checked_whole",
            SHADOW + "TestFirstCheckSpans::test_image_holding_an_async_match_is_checked_whole",
            SHADOW + "TestFirstCheckSpans::"
            "test_image_whose_match_needs_the_zero_padding_is_checked_whole",
            SHADOW + "TestWholePageWalks::test_first_fetch_walks[image]",
            AGENT + "TestWrittenSpans::"
            "test_reports_equal_whole_page_checks_with_zero_rules_and_images",
            AGENT + "TestReferenceReplay::test_reports_equal_the_reference",
        ),
    ),
    # bit i of byte p+i lands on bit i-1 of byte p+i-1: marks are not 0/1
    Mutant(
        "class filter shifts by 8 bits a byte, not 9", "src/jitscan/signatures.py",
        "self._shifts = tuple(9 * i for i in range(1, k))",
        "self._shifts = tuple(8 * i for i in range(1, k))",
        (
            SIGNATURES + "TestScan::test_single_literal_match",
            SIGNATURES + "TestPrefilterEdges::test_every_prefix_length[2]",
            SIGNATURES + "TestPrefilterEdges::test_every_prefix_length[4]",
            SIGNATURES + "TestOracleEquivalence::test_randomized_against_naive_oracle",
            SIGNATURES + "TestWindowScan::test_spans_find_what_the_whole_page_scan_finds",
            SIGNATURES + "TestDensePages::test_bench_shaped_rules_on_full_alphabet_pages",
            ACCEPTANCE + "test_03_signature_invisible_at_rest_is_caught_at_unpack",
            ACCEPTANCE + "test_09_scanner_agrees_with_the_sliding_window_oracle",
        ),
    ),
    Mutant(
        "narrowed scan keeps hits that overlap no span", "src/jitscan/signatures.py",
        "(spans is None or any(", "(True or any(",
        (
            SIGNATURES + "TestSpansKeepOverlaps::test_a_match_just_before_a_span_is_not_kept",
            SIGNATURES + "TestSpansKeepOverlaps::test_equal_the_naive_matches_that_overlap_a_span",
            SIGNATURES + "TestDensePages::test_bench_shaped_rules_on_full_alphabet_pages",
        ),
    ),
    Mutant(
        "window's candidates end at its end, not reach past it", "src/jitscan/signatures.py",
        "chunk = data[lo : hi + reach].translate(table)", "chunk = data[lo:hi].translate(table)",
        (
            SIGNATURES + "TestSpansKeepOverlaps::test_a_match_just_before_a_span_is_not_kept",
            SIGNATURES + "TestSpansKeepOverlaps::test_equal_the_naive_matches_that_overlap_a_span",
            SIGNATURES + "TestPrefilterEdges::test_a_window_at_the_buffer_end_shorter_than_the_key",
            SIGNATURES + "TestDensePages::test_bench_shaped_rules_on_full_alphabet_pages",
            SHADOW + "TestWholePageWalks::test_narrowed_walks_find_what_whole_and_naive_scans_find",
            SHADOW + "TestFirstCheckSpans::"
            "test_image_whose_match_needs_the_zero_padding_is_checked_whole",
            AGENT + "TestWrittenSpans::test_reports_equal_whole_page_checks",
        ),
    ),
    # The configs are the only range checks of the CLI's flags.
    Mutant(
        "GuardConfig accepts threshold 0", "src/jitscan/guard.py",
        "        if threshold < 1:\n", "        if threshold < 0:\n",
        (
            GUARD + "TestConfig::test_bad_values_rejected",
            AGENT + "TestCli::test_every_malformed_flag_exits_2_on_one_line[threshold=0]",
            AGENT + "TestCli::test_malformed_input_exits_2_without_traceback[argv0]",
        ),
    ),
    Mutant(
        "admit skips its sweep", "src/jitscan/guard.py",
        "        self.tick(now - 1)\n", "",
        (
            AGENT + "TestDrainSkip::test_reports_equal_the_plain_loop",
            AGENT + "TestReferenceReplay::test_reports_equal_the_reference",
            AGENT + "TestGuardSweep::test_eviction_boundary[5-1]",
            AGENT + "TestGuardSweep::test_a_penalty_ends_with_its_eviction_not_before[5]",
            AGENT + "TestGuardSweep::test_no_executable_page_sweeps_once",
            GUARD + "TestAgainstSweepOracle::test_same_decisions_as_the_full_table_sweep[0]",
            GUARD + "TestAgainstSweepOracle::test_same_decisions_as_the_full_table_sweep[1]",
            GUARD + "TestAgainstSweepOracle::test_same_decisions_as_the_full_table_sweep[2]",
            GUARD + "TestAgainstSweepOracle::test_same_decisions_as_the_full_table_sweep[3]",
        ),
    ),
    Mutant(
        "guard swept at the fetch's own tick", "src/jitscan/guard.py",
        "self.tick(now - 1)", "self.tick(now)",
        (
            AGENT + "TestReferenceReplay::test_reports_equal_the_reference",
            AGENT + "TestGuardSweep::test_eviction_boundary[4-0]",
            AGENT + "TestGuardSweep::test_a_penalty_ends_with_its_eviction_not_before[4]",
            AGENT + "TestGuardSweep::test_no_executable_page_sweeps_once",
            GUARD + "TestAgainstSweepOracle::test_same_decisions_as_the_full_table_sweep[0]",
            GUARD + "TestAgainstSweepOracle::test_same_decisions_as_the_full_table_sweep[1]",
            GUARD + "TestAgainstSweepOracle::test_same_decisions_as_the_full_table_sweep[2]",
            GUARD + "TestAgainstSweepOracle::test_same_decisions_as_the_full_table_sweep[3]",
        ),
    ),
    Mutant(
        "threshold off by one", "src/jitscan/guard.py",
        "if entry.pending < self.config.threshold:",
        "if entry.pending <= self.config.threshold:",
        (
            ACCEPTANCE + "test_06_flood_is_throttled_then_evicted_after_quiescence",
            AGENT + "TestReplay::test_flood_is_throttled_and_second_pid_shares_the_penalty",
            AGENT + "TestAgentStep::test_async_hit_on_a_throttle_blocked_pid[kill-expected0]",
            AGENT + "TestAgentStep::test_async_hit_on_a_throttle_blocked_pid[block-expected1]",
            AGENT + "TestReferenceReplay::test_reports_equal_the_reference",
            AGENT + "TestGuardSweep::test_a_penalty_ends_with_its_eviction_not_before[4]",
            AGENT + "TestGuardSweep::test_a_penalty_ends_with_its_eviction_not_before[5]",
            AGENT + "TestCli::test_report_does_not_depend_on_the_hash_seed",
            GUARD + "TestAdmit::test_admits_up_to_threshold_then_denies",
            GUARD + "TestAdmit::test_denial_leaves_pending_unchanged",
            GUARD + "TestAdmit::test_penalty_applies_to_every_pid_of_the_uid",
            GUARD + "TestAdmit::test_penalty_expires_after_ttl",
            GUARD + "TestAdmit::test_block_action_reported_on_denial",
            GUARD + "TestDelivery::test_a_surplus_delivery_raises_and_changes_nothing[5]",
            GUARD + "TestAgainstSweepOracle::test_same_decisions_as_the_full_table_sweep[0]",
            GUARD + "TestAgainstSweepOracle::test_same_decisions_as_the_full_table_sweep[1]",
            GUARD + "TestAgainstSweepOracle::test_same_decisions_as_the_full_table_sweep[2]",
            GUARD + "TestAgainstSweepOracle::test_same_decisions_as_the_full_table_sweep[3]",
            SHADOW + "TestExecFault::test_throttle_denial_blocks_before_snapshot",
        ),
    ),
    Mutant(
        "surplus delivery ignored", "src/jitscan/guard.py",
        '            raise SimError(f"delivery for uid {uid} at tick {now} with nothing'
        ' pending")\n',
        "            return\n",
        (
            GUARD + "TestDelivery::test_a_surplus_delivery_raises_and_changes_nothing[5]",
            GUARD + "TestDelivery::test_a_surplus_delivery_raises_and_changes_nothing[42]",
            GUARD + "TestAgainstSweepOracle::test_same_decisions_as_the_full_table_sweep[0]",
            GUARD + "TestAgainstSweepOracle::test_same_decisions_as_the_full_table_sweep[1]",
            GUARD + "TestAgainstSweepOracle::test_same_decisions_as_the_full_table_sweep[2]",
            GUARD + "TestAgainstSweepOracle::test_same_decisions_as_the_full_table_sweep[3]",
            IMPORTS + "test_module_uses_every_import[guard.py]"  # SimError goes unused,
        ),
    ),
    Mutant(
        "SimConfig accepts a negative drain_every", "src/jitscan/agent.py",
        "        if drain_every < 0:\n", "        if drain_every < -1:\n",
        (
            AGENT + "TestBuildRun::test_negative_drain_every_is_rejected",
            AGENT + "TestCli::test_every_malformed_flag_exits_2_on_one_line[drain-every=-1]",
            AGENT + "TestCli::test_malformed_input_exits_2_without_traceback[argv4]",
        ),
    ),
    # The snapshot keeps the page's live span list, which later writes
    # widen: the windows grow, the matches do not, so no report shows it;
    # the page's span list and the snapshots' spans do.
    Mutant(
        "written spans not reset after a check", "src/jitscan/shadow.py",
        "        spans, pte.written = pte.written, []\n", "        spans = pte.written\n",
        (
            AGENT + "TestWrittenSpans::"
            "test_each_snapshot_holds_only_the_spans_written_since_the_last_check",
        ),
    ),
    Mutant(
        "mprotect relabel ignores a new w", "src/jitscan/shadow.py",
        "_set_mode(pte, area, not pte.exec_disabled and (pte.orig_write or not area.logical_w))",
        "_set_mode(pte, area, not pte.exec_disabled)",
        (
            SHADOW + "TestMprotect::test_grant_w_on_exec_page_enters_write_mode",
            SHADOW + "TestMprotect::test_each_page_keeps_its_own_former_w",
            SHADOW + "TestModeRule::test_mprotect_leaves_one_of_the_two_modes[rx-exec]",
        ),
    ),
    Mutant(
        "a block is recorded twice", "src/jitscan/shadow.py",
        'space.alive and not (action == "block" and space.blocked):', "space.alive:",
        (
            AGENT + "TestAgentStep::test_async_hit_on_a_throttle_blocked_pid[block-expected1]",
            AGENT + "TestReferenceReplay::test_reports_equal_the_reference",
        ),
    ),
    Mutant(
        "sync hit keeps the narrowed span list", "src/jitscan/shadow.py",
        "                pte.written = None  # the next check must see this match again\n", "",
        (
            AGENT + "TestWrittenSpans::test_reports_equal_whole_page_checks",
            AGENT + "TestWrittenSpans::"
            "test_reports_equal_whole_page_checks_with_zero_rules_and_images",
            AGENT + "TestReferenceReplay::test_reports_equal_the_reference",
        ),
    ),
    Mutant(
        "scan match family not escaped", "src/jitscan/report.py",
        '''{{"family":{_str(rule.family)},''', '''{{"family":"{rule.family}",''',
        (
            AGENT + "TestCli::test_scan_records_equal_encode_record",
        ),
    ),
)


def copy_tree(into: Path) -> None:
    """This tree's ``src``, ``tests``, ``bench``, ``pyproject.toml`` and
    ``BENCHMARK.json``; caches and the bench's work directory left out."""
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", ".work")
    for name in ("src", "tests", "bench"):
        shutil.copytree(ROOT / name, into / name, ignore=skip)
    for name in ("pyproject.toml", "BENCHMARK.json"):
        shutil.copy2(ROOT / name, into / name)


def failing(root: Path, mutant: Mutant) -> set[str] | None:
    """The node ids of ``mutant`` that fail with it applied under ``root``;
    None when pytest could not run them (a bad node id, say)."""
    target = root / mutant.path
    text = target.read_text()
    target.write_text(text.replace(mutant.old, mutant.new, 1))
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             "--rootdir", str(root), *mutant.tests],
            cwd=root, env=env, capture_output=True, text=True,
        )
    finally:
        target.write_text(text)
    if proc.returncode not in (0, 1):
        print(proc.stdout + proc.stderr, file=sys.stderr)
        return None
    return {  # a summary line is "FAILED <node id> - <message>"; an id may hold spaces
        line.partition(" ")[2].partition(" - ")[0] for line in proc.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    }


def main(names: list[str]) -> int:
    by_name = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        print(f"mutants: unknown mutant(s): {', '.join(map(repr, unknown))}", file=sys.stderr)
        return 2
    chosen = [by_name[name] for name in dict.fromkeys(names)] if names else MUTANTS
    bad = 0
    with tempfile.TemporaryDirectory(prefix="jitscan-mutants-") as tmp:
        root = Path(tmp)
        copy_tree(root)
        for mutant in chosen:
            failed = failing(root, mutant)
            if failed is None:
                bad += 1
                print(f"error: {mutant.name}: pytest could not run its node ids")
            elif mutant.survives:
                state = "now killed, drop its survives mark" if failed else "survives, as known"
                print(f"{state}: {mutant.name}")
            elif not failed:
                bad += 1
                print(f"survivor: {mutant.name}")
            else:
                passed = [node for node in mutant.tests if node not in failed]
                bad += bool(passed)
                print(f"killed: {mutant.name} ({len(failed)} of {len(mutant.tests)} failed)")
                for node in passed:
                    print(f"  passed though it must fail: {node}")
    print(f"mutants: {len(chosen)}, {bad} with a survivor or a passing node id")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
