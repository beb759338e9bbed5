"""A standing mutation gate: each mutant is one exact edit of the package
source, and every test named beside it must fail on the edited copy.

For each mutant the runner copies ``src``, ``tests`` and ``pyproject.toml``
into a fresh temporary directory, replaces the mutant's snippet in its
module and runs the named tests there with pytest, in a subprocess that
imports the copy.  The named tests first run once on an unmutated copy,
where they must pass, and that run sets each mutant's time limit
(:func:`limit_for`).  The run fails when a snippet does not occur exactly
once in its module (so a refactor cannot leave a stale mutant behind), when
the unmutated copy fails, or when a named test does not fail on its mutant;
a mutant whose tests run past the limit is reported as timed out and is not
caught.  A mutant that survives is a fault of the tests, not of the mutant.

Hypothesis runs with a fixed seed, so every run draws the same examples.

Run it from the repository root with the test dependencies installed::

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # the named mutants
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


def limit_for(unmutated_s: float) -> float:
    """A mutant's time limit, from its tests' unmutated run: ten times as
    long, and at least 30 s, so a mutant that makes its tests loop ends in
    bounded time while a slow machine still finishes an honest run."""
    return max(30.0, 10 * unmutated_s)


class Mutant(NamedTuple):
    name: str
    module: str  # a file of src/pqk
    snippet: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "default-probes-drop-a-unit-row",
        "io.py",
        "tuple({dof: Fraction(1)} for dof in d.graph.dofs)",
        "tuple({dof: Fraction(1)} for dof in d.graph.dofs[1:])",
        ("tests/test_dpg.py::test_default_probes_are_the_unit_target_holonomy_rows",
         "tests/test_systems.py::test_check_assumptions_passes_on_generated"),
    ),
    Mutant(
        "a2-granted-to-every-label",
        "systems.py",
        "        ok = name in surjective\n",
        "        ok = True\n",
        ("tests/test_systems.py::"
         "test_check_assumptions_fails_rank_deficient_explicit_rows",
         "tests/test_systems.py::"
         "test_a2_derives_nothing_along_an_edge_whose_projection_does_not_build"),
    ),
    Mutant(
        "select-independent-dofs-takes-the-pool-prefix",
        "systems.py",
        "    return tuple(pool[c] for c in pivots)\n",
        "    return tuple(pool[: len(ops)])\n",
        ("tests/test_acceptance.py::test_criterion_8_greedy_selection",),
    ),
    Mutant(
        "random-label-full-rank-test-always-true",
        "dpg.py",
        "        if len(ratlin.echelon(candidate).pivots) == n:\n",
        "        if True:\n",
        ("tests/test_acceptance.py::test_criterion_6_assumption_audit",),
    ),
    Mutant(
        "lebesgue-factor-not-inverted",
        "frames.py",
        "lebesgue_factor=abs(1 / ratlin.pivot_det(e)),",
        "lebesgue_factor=abs(ratlin.pivot_det(e)),",
        ("tests/test_frames.py::test_kernel_decomposition_zero_dim_kernel_is_det_w",
         "tests/test_frames.py::"
         "test_lebesgue_factor_does_not_depend_on_the_right_inverse",
         "tests/test_gaussian.py::test_projection_with_scaled_dof_preserves_trace",
         "tests/test_gaussian.py::test_projection_with_scaled_dof_and_kernel"),
    ),
    Mutant(
        "right-inverse-check-always-true",
        "frames.py",
        "    if ratlin.matmul(b, w) != ratlin.identity(n):\n",
        "    if False:\n",
        ("tests/test_frames.py::test_kernel_decomposition_rejects_non_right_inverse",
         "tests/test_frames.py::test_kernel_decomposition_decides_b_w_exactly",
         "tests/test_systems.py::test_integer_verdicts_agree_with_their_fraction_forms"),
    ),
    Mutant(
        "equals-dot-always-true",
        "ratlin.py",
        "    return value.numerator * den == num * value.denominator\n",
        "    return True\n",
        ("tests/test_ratlin.py::test_equals_dot_agrees_with_the_fraction_sum",
         "tests/test_systems.py::test_refines_identity_and_perturbation"),
    ),
    Mutant(
        "kernel-basis-sign-flip",
        "ratlin.py",
        "            col[p] = Fraction(-row[f], row[p])\n",
        "            col[p] = Fraction(row[f], row[p])\n",
        ("tests/test_ratlin.py::test_integer_kernel_equals_fraction_elimination",
         "tests/test_frames.py::test_kernel_decomposition_one_dim_kernel"),
    ),
    Mutant(
        "unverified-edge-counts-as-a-relation",
        "systems.py",
        "        if plan.check:\n            verified.setdefault(",
        "        if True:\n            verified.setdefault(",
        ("tests/test_systems.py::test_a5_ignores_an_order_edge_that_does_not_verify",
         "tests/test_systems.py::"
         "test_directed_pair_ignores_an_upper_bound_through_an_unverified_edge"),
    ),
    Mutant(
        "a5-reads-one-direction-of-the-order",
        "systems.py",
        "        ordered = reaches(a, b) or reaches(b, a)\n",
        "        ordered = reaches(a, b)\n",
        ("tests/test_systems.py::test_a5_reads_an_order_edge_in_either_direction",),
    ),
    Mutant(
        "a6-passes-every-edge",
        "systems.py",
        '        record("A6", subject, plan.check.ok, plan.check.diagnostic)\n',
        '        record("A6", subject, True, plan.check.diagnostic)\n',
        ("tests/test_systems.py::"
         "test_refines_names_each_fault_and_the_audit_reports_it",
         "tests/test_systems.py::test_a1b_and_a6_share_the_membership_fault"),
    ),
    Mutant(
        "project-with-reuses-another-states-projection",
        "gaussian.py",
        "    if kept is not None and kept[0] is state:\n",
        "    if kept is not None:\n",
        ("tests/test_gaussian.py::test_a_decomposition_keeps_its_last_projection",
         "tests/test_gaussian.py::test_kept_projections_match_fresh_ones"),
    ),
    Mutant(
        "zero-distance-skips-the-convergence-check",
        "gaussian.py",
        "        _pair_forms(s2, s2)\n        distance = 0.0\n",
        "        distance = 0.0\n",
        ("tests/test_gaussian.py::test_a_divergent_state_keeps_nothing",
         "tests/test_gaussian.py::test_stacked_hs_pairing_keeps_its_errors"),
    ),
    Mutant(
        "expansion-pairs-the-first-state",
        "gaussian.py",
        "    M, v = _pair_forms(s2, s2)\n",
        "    M, v = _pair_forms(s1, s1)\n",
        ("tests/test_gaussian.py::test_a_state_compared_again_gives_the_fresh_bits",
         "tests/test_gaussian.py::test_stacked_hs_pairing_matches_per_pair_reference"),
    ),
    Mutant(
        "a5-compares-operator-ids-only",
        "systems.py",
        "        if set(la.ops) != set(lb.ops):\n",
        "        if {op.id for op in la.ops} != {op.id for op in lb.ops}:\n",
        ("tests/test_systems.py::test_a5_compares_operator_bases_by_value",),
    ),
    Mutant(
        "named-rewraps-a-document-error",
        "io.py",
        "    except DocumentError:\n        raise\n",
        "",
        ("tests/test_io_cli.py::test_named_names_a_field_once",),
    ),
    Mutant(
        "probes-keep-raw-values",
        "systems.py",
        "    def __post_init__(self):\n        # Each label's rows convert",
        "    def _unused(self):\n        # Each label's rows convert",
        ("tests/test_systems.py::test_probes_convert_their_values_as_witnesses_do",),
    ),
    Mutant(
        "exact-rows-keep-the-last-of-a-key-given-twice",
        "systems.py",
        "        if key in out:\n"
        "            raise ValueError(f\"{name} has duplicate row {key!r}\")\n"
        "        if len(entries) != len(row):\n"
        "            raise ValueError(f\"{name} row {key!r} has duplicate entries\")\n",
        "",
        ("tests/test_systems.py::test_exact_rows_refuse_a_key_given_twice",),
    ),
    Mutant(
        "span-probes-keep-raw-values",
        "systems.py",
        '    def __post_init__(self):\n        for name in ("combos", "dof_values"):',
        '    def _unused(self):\n        for name in ("combos", "dof_values"):',
        ("tests/test_systems.py::test_probes_convert_their_values_as_witnesses_do",),
    ),
    Mutant(
        "projected-stack-left-writeable",
        "gaussian.py",
        "    for a in (P, R, s):\n        a.flags.writeable = False\n    return [P, R, s]\n",
        "    return [P, R, s]\n",
        ("tests/test_gaussian.py::test_projected_kernels_carry_the_constructors_bits",
         "tests/test_gaussian.py::test_a_projected_state_keeps_its_checked_stacks"),
    ),
    Mutant(
        "ap-merge-keeps-the-last-amplitude",
        "almost_periodic.py",
        "            merged[freq] = amp if first is None else first + amp\n",
        "            merged[freq] = amp\n",
        ("tests/test_almost_periodic.py::test_a_repeated_frequency_sums_its_amplitudes",),
    ),
    Mutant(
        "product-kernel-test-reads-only-real-R",
        "_kernels.py",
        "    cross = R.any()\n",
        "    cross = R.real.any()\n",
        ("tests/test_kernels.py::test_a_purely_imaginary_R_keeps_the_cross_term",),
    ),
    Mutant(
        "cross-term-always-skipped",
        "_kernels.py",
        "        if cross:\n",
        "        if False:\n",
        ("tests/test_kernels.py::test_kernel_table_matches_pointwise_reference",
         "tests/test_kernels.py::"
         "test_kernels_reproduce_the_former_kernels_bit_for_bit"),
    ),
    Mutant(
        "cross-term-built-for-a-product-kernel",
        "_kernels.py",
        "    cross = R.any()\n",
        "    cross = True\n",
        ("tests/test_kernels.py::test_only_a_nonzero_R_builds_the_cross_term",),
    ),
    Mutant(
        "verify-keeps-the-document-order-of-edges",
        "systems.py",
        "    for edge in sorted(order, key=lambda e: (e.upper, e.lower)):\n",
        "    for edge in order:\n",
        ("tests/test_io_cli.py::test_verify_bytes_ignore_the_order_of_the_order_list",
         "tests/test_io_cli.py::test_a_joined_document_verifies_in_sorted_order",
         "tests/test_systems.py::test_a6_names_an_edge_to_an_unknown_label"),
    ),
    Mutant(
        "tuple-amplitude-swaps-re-and-im",
        "almost_periodic.py",
        "cls(ratlin.as_fraction(value[0]), ratlin.as_fraction(value[1]))",
        "cls(ratlin.as_fraction(value[1]), ratlin.as_fraction(value[0]))",
        ("tests/test_almost_periodic.py::test_a_tuple_amplitude_reads_re_then_im",),
    ),
    Mutant(
        "join-replaces-a-present-label",
        "dpg.py",
        "        if name in self.dlabels:\n"
        "            raise ValueError(f\"label {name!r} already present\")\n",
        "",
        ("tests/test_dpg.py::test_with_join_refuses_a_present_name_and_a_self_join",
         "tests/test_io_cli.py::test_cli_join_refuses_a_self_join_and_a_present_join"),
    ),
    Mutant(
        "join-admits-a-label-joined-with-itself",
        "dpg.py",
        "        if a == b:\n            raise ValueError(f\"cannot join {a!r} with itself\")\n",
        "",
        ("tests/test_dpg.py::test_with_join_refuses_a_present_name_and_a_self_join",
         "tests/test_io_cli.py::test_cli_join_refuses_a_self_join_and_a_present_join"),
    ),
    Mutant(
        "random-system-admits-no-edges",
        "dpg.py",
        "    if n_edges < 1 or depth < 1:\n",
        "    if n_edges < 0 or depth < 1:\n",
        ("tests/test_dpg.py::test_random_system_refuses_no_edges_and_no_depth",),
    ),
    Mutant(
        "kept-distance-matches-any-first-state",
        "gaussian.py",
        "    if kept is not None and kept[0] is s1:\n",
        "    if kept is not None:\n",
        ("tests/test_gaussian.py::test_a_distance_is_kept_for_the_last_first_state",),
    ),
    Mutant(
        "family-compares-the-projection-first",
        "gaussian.py",
        "hs_distance(family.states[edge.lower], projected)",
        "hs_distance(projected, family.states[edge.lower])",
        ("tests/test_gaussian.py::test_chains_from_a_checked_family_read_its_distances",),
    ),
    Mutant(
        "kept-distance-written-before-it-is-known",
        "gaussian.py",
        "    devs = _term_deviations(s1, s2) if",
        "    object.__setattr__(s2, \"_compared\", (s1, 0.0))\n"
        "    devs = _term_deviations(s1, s2) if",
        ("tests/test_gaussian.py::test_a_failed_distance_keeps_nothing",),
    ),
    Mutant(
        "oracle-skips-the-extent-check",
        "gaussian.py",
        "        if not math.isfinite(value):\n",
        "        if False:\n",
        ("tests/test_gaussian.py::test_quadrature_refuses_an_extent_that_overflows",
         "tests/test_io_cli.py::test_cli_oracle_refuses_an_extent_that_overflows"),
    ),
    Mutant(
        "inverse-factor-keeps-a-plus-sign",
        "dpg.py",
        "                parts.append((f, -1))\n",
        "                parts.append((f, 1))\n",
        ("tests/test_dpg.py::test_graph_refines_iff_linear_combination",
         "tests/test_dpg.py::test_decompose_witness_matches_refines",
         "tests/test_systems.py::test_check_assumptions_passes_on_generated"),
    ),
    Mutant(
        "graph-refines-reads-a-refusal-as-refining",
        "dpg.py",
        "    except PqkError:\n        return False\n",
        "    except PqkError:\n        return True\n",
        ("tests/test_dpg.py::test_decompose_disjoint_supports_refused",
         "tests/test_dpg.py::test_decompose_refusal_matches_no_combination",
         "tests/test_dpg.py::test_graph_join_is_coarsest"),
    ),
    Mutant(
        "join-reads-an-unknown-label",
        "dpg.py",
        "        if unknown := [x for x in (a, b) if x not in self.dlabels]:\n"
        "            raise ValueError(f\"unknown label {unknown[0]!r}\")\n",
        "",
        ("tests/test_dpg.py::test_with_join_refuses_a_present_name_and_a_self_join",
         "tests/test_io_cli.py::test_cli_join_refuses_an_unknown_label"),
    ),
    Mutant(
        "pivot-ties-go-to-the-later-column",
        "ratlin.py",
        "live = [(-abs(rows[i][c]), c, i, p)",
        "live = [(-abs(rows[i][c]), -c, i, p)",
        ("tests/test_ratlin.py::test_full_pivot_solve_cases",
         "tests/test_dpg.py::test_system_join_matches_the_reference_in_random_systems"),
    ),
    Mutant(
        "pivot-takes-the-smallest-entry",
        "ratlin.py",
        "live = [(-abs(rows[i][c]), c, i, p)",
        "live = [(abs(rows[i][c]), c, i, p)",
        ("tests/test_ratlin.py::test_full_pivot_solve_cases",
         "tests/test_dpg.py::test_system_join_matches_the_reference_in_random_systems"),
    ),
    Mutant(
        "linear-terms-added-y-first",
        "_kernels.py",
        "            expo += lin_x[:, i:j, None]\n            expo += lin_y[:, None, :]\n",
        "            expo += lin_y[:, None, :]\n            expo += lin_x[:, i:j, None]\n",
        ("tests/test_kernels.py::test_kernels_reproduce_the_former_kernels_bit_for_bit",
         "tests/test_kernels.py::"
         "test_product_kernels_skip_the_cross_term_bit_for_bit"),
    ),
    Mutant(
        "chunk-sums-added-last-first",
        "_kernels.py",
        "    starts = range(0, nu, chunk)\n",
        "    starts = range(0, nu, chunk)[::-1]\n",
        ("tests/test_kernels.py::test_kernels_reproduce_the_former_kernels_bit_for_bit",
         "tests/test_kernels.py::test_threaded_chunk_sums_keep_every_bit",
         "tests/test_kernels.py::test_a_slow_first_chunk_is_still_added_first"),
    ),
    Mutant(
        "exact-pairs-admit-a-repeated-key",
        "ratlin.py",
        "    if len({k for k, _ in pairs}) != len(pairs):\n",
        "    if False:\n",
        ("tests/test_ratlin.py::test_exact_pairs_sorts_converts_and_keeps_zeros",
         "tests/test_constructors.py::test_constructor_refuses_with_its_type_and_message",
         "tests/test_dpg.py::test_duplicate_atoms_are_refused_by_connections_as_by_faces"),
    ),
    Mutant(
        "flux-operators-drop-zero-actions",
        "dpg.py",
        "{d: incidence_number(f, w) for d, w in keyed}",
        "{d: v for d, w in keyed if (v := incidence_number(f, w))}",
        ("tests/test_dpg.py::test_flux_dual_face_is_indicator",
         "tests/test_dpg.py::test_flux_empty_face_is_zero_operator"),
    ),
    Mutant(
        "faces-keep-zero-incidences",
        "dpg.py",
        'object.__setattr__(self, "incidence", tuple(p for p in pairs if p[1]))',
        'object.__setattr__(self, "incidence", pairs)',
        # The join gives Face only nonzero incidences; the reference join's
        # dense rows are what still reach it with zeros.
        ("tests/test_dpg.py::test_system_join_matches_the_reference_in_random_systems",
         "tests/test_dpg.py::"
         "test_system_join_of_faces_with_no_incidence_matches_the_reference"),
    ),
    Mutant(
        "as-fraction-reads-a-bool",
        "ratlin.py",
        "    if isinstance(x, bool):\n"
        "        raise TypeError(\"cannot convert bool to Fraction\")\n",
        "",
        ("tests/test_ratlin.py::test_as_fraction_rejects_bools_complexes_and_decimals",
         "tests/test_constructors.py::test_constructor_refuses_with_its_type_and_message",
         "tests/test_io_cli.py::test_document_errors_name_fields",
         "tests/test_io_cli.py::test_cli_reads_no_json_boolean_as_a_rational"),
    ),
    Mutant(
        "written-face-ids-may-clash",
        "io.py",
        "            if faces.setdefault(f.id, f) != f:\n"
        "                raise ValueError(f\"face id {f.id!r} names two different faces\")\n",
        "            faces.setdefault(f.id, f)\n",
        ("tests/test_io_cli.py::test_a_face_id_names_one_face_when_a_family_is_written",
         "tests/test_io_cli.py::test_cli_join_refuses_a_face_id_the_document_already_holds"),
    ),
    Mutant(
        "zero-weight-admitted",
        "io.py",
        "        if not 0 < weight <= sys.float_info.max:\n",
        "        if not 0 <= weight <= sys.float_info.max:\n",
        ("tests/test_io_cli.py::test_state_document_refuses_a_zero_weight",),
    ),
    Mutant(
        "logw-bound-excludes-the-largest-float",
        "io.py",
        "        if not abs(logw) <= sys.float_info.max:\n",
        "        if not abs(logw) < sys.float_info.max:\n",
        ("tests/test_io_cli.py::test_state_document_refuses_logw_at_the_float_limits",),
    ),
    Mutant(
        "trace-lets-an-overflow-through",
        "gaussian.py",
        "    except OverflowError:",
        "    except ZeroDivisionError:",
        ("tests/test_io_cli.py::test_state_document_refuses_logw_at_the_float_limits",
         "tests/test_io_cli.py::test_cli_refuses_a_state_whose_trace_overflows"),
    ),
    Mutant(
        "chunk-floor-made-zero",
        "_kernels.py",
        "    chunk = max(1, min(chunk, 2**20 // max(1, nx * ny)))\n",
        "    chunk = max(0, min(chunk, 2**20 // max(1, nx * ny)))\n",
        ("tests/test_kernels.py::"
         "test_a_table_past_the_chunk_budget_takes_one_midpoint_a_chunk",),
    ),
    Mutant(
        "tile-loop-skips-the-last-rows",
        "_kernels.py",
        "        while i < nrows:\n",
        "        while i + step <= nrows:\n",
        ("tests/test_kernels.py::test_tiles_that_do_not_divide_the_rows_keep_every_bit",
         "tests/test_kernels.py::test_a_one_column_table_keeps_two_rows_a_tile"),
    ),
    Mutant(
        "one-column-tile-keeps-one-row",
        "_kernels.py",
        "    floor = 2 if ny == 1 else 1\n",
        "    floor = 1\n",
        ("tests/test_kernels.py::test_a_one_column_table_keeps_two_rows_a_tile",),
    ),
    Mutant(
        "slot-queue-unbounded",
        "_kernels.py",
        "    slots = [queue.Queue(maxsize=1) for _ in range(workers - 1)]\n",
        "    slots = [queue.Queue(maxsize=0) for _ in range(workers - 1)]\n",
        ("tests/test_kernels.py::test_a_started_thread_runs_at_most_one_task_ahead",),
    ),
    Mutant(
        "caller-skips-its-own-tasks",
        "_kernels.py",
        "        own = _chunk_sums(*args, tasks[::workers])\n",
        "        own = _chunk_sums(*args, tasks[1::workers])\n",
        ("tests/test_kernels.py::test_kernels_reproduce_the_former_kernels_bit_for_bit",
         "tests/test_kernels.py::test_threaded_chunk_sums_keep_every_bit",
         "tests/test_kernels.py::test_row_blocks_keep_every_bit"),
    ),
    Mutant(
        "threads-run-outside-the-callers-context",
        "_kernels.py",
        "target=ctx.run, args=(work, slot, tasks[w::workers])",
        "target=work, args=(slot, tasks[w::workers])",
        ("tests/test_kernels.py::test_workers_keep_the_callers_errstate",),
    ),
    Mutant(
        "trace-check-lets-nan-through",
        "io.py",
        "    if not abs(total - 1.0) <= 1e-10:\n",
        "    if abs(total - 1.0) > 1e-10:\n",
        ("tests/test_io_cli.py::test_state_document_refuses_a_trace_that_is_not_a_number",
         "tests/test_io_cli.py::test_cli_refuses_a_state_whose_trace_is_not_finite_quietly"),
    ),
    Mutant(
        "exit-code-ignores-passed",
        "cli.py",
        "    return 0 if report.get(\"passed\", True) else 1\n",
        "    return 0 if report.get(\"passed\", True) else 0\n",
        ("tests/test_io_cli.py::test_cli_a_failed_check_at_tol_0_exits_1",
         "tests/test_io_cli.py::test_cli_project_requires_witnessed_relation"),
    ),
    Mutant(
        "check-tol-refuses-zero",
        "gaussian.py",
        "    if not (math.isfinite(tol) and tol >= 0):\n",
        "    if not (math.isfinite(tol) and tol > 0):\n",
        ("tests/test_io_cli.py::test_cli_a_failed_check_at_tol_0_exits_1",),
    ),
    Mutant(
        "state-label-rule-and",
        "cli.py",
        "if not isinstance(label, str) or label not in system.dlabels:",
        "if not isinstance(label, str) and label not in system.dlabels:",
        ("tests/test_io_cli.py::test_cli_refuses_a_state_with_an_unknown_label",),
    ),
    Mutant(
        "ap-amplitude-defaults-to-one",
        "io.py",
        "            json_to_rat(entry.get(\"re\", 0), f\"{where}.re\"),\n"
        "            json_to_rat(entry.get(\"im\", 0), f\"{where}.im\"),\n",
        "            json_to_rat(entry.get(\"re\", 1), f\"{where}.re\"),\n"
        "            json_to_rat(entry.get(\"im\", 1), f\"{where}.im\"),\n",
        ("tests/test_io_cli.py::test_a_missing_ap_amplitude_part_reads_as_zero",),
    ),
    Mutant(
        "linearity-fault-dropped",
        "systems.py",
        "             or membership or _linearity_fault(coarse, combos))\n",
        "             or membership)\n",
        ("tests/test_systems.py::test_refines_names_each_fault_and_the_audit_reports_it",
         "tests/test_systems.py::test_integer_verdicts_agree_with_their_fraction_forms"),
    ),
    Mutant(
        "membership-before-combinations",
        "systems.py",
        "    fault = (_combination_fault(coarse.frame.dofs, combos, fine.frame.dofs, values)\n"
        "             or membership or _linearity_fault(coarse, combos))\n",
        "    fault = (membership\n"
        "             or _combination_fault(coarse.frame.dofs, combos, fine.frame.dofs, values)\n"
        "             or _linearity_fault(coarse, combos))\n",
        ("tests/test_systems.py::test_span_audit_and_refines_share_the_combination_check",
         "tests/test_systems.py::"
         "test_refines_names_the_combination_fault_before_the_membership_fault"),
    ),
    Mutant(
        "loaded-witness-gets-the-lower-words",
        "io.py",
        "        graphs = (dlabels[upper].graph, dlabels[lower].graph)\n",
        "        graphs = (dlabels[lower].graph, dlabels[lower].graph)\n",
        ("tests/test_io_cli.py::test_loaded_witnesses_hold_exactly_their_two_labels_words",),
    ),
    Mutant(
        "canonical-inverse-key-keeps-signs",
        "dpg.py",
        "tuple((a, k ^ 1) for a, k in reversed(key))",
        "tuple((a, k) for a, k in reversed(key))",
        ("tests/test_dpg.py::test_canonical_is_the_smaller_key_of_a_word_and_its_inverse",
         "tests/test_dpg.py::test_graph_join_matches_the_reference_on_random_pairs"),
    ),
    Mutant(
        "reversed-factor-keeps-signs",
        "dpg.py",
        "tuple((x, -t) for x, t in reversed(f.letters))",
        "tuple((x, t) for x, t in reversed(f.letters))",
        ("tests/test_dpg.py::test_decompose_edges_matches_the_reference_on_every_label_pair",
         "tests/test_dpg.py::test_graph_refines_iff_linear_combination"),
    ),
    Mutant(
        "lead-faces-keep-only-zeros",
        "dpg.py",
        "for x, v in zip(support, row) if v)",
        "for x, v in zip(support, row) if not v)",
        ("tests/test_dpg.py::test_system_join_disjoint_single_edges",
         "tests/test_dpg.py::test_system_join_matches_the_reference_in_random_systems"),
    ),
    Mutant(
        "full-pivot-zero-made-one",
        "ratlin.py",
        "if x else zero for x in row[m:]",
        "if x else Fraction(1) for x in row[m:]",
        ("tests/test_ratlin.py::test_full_pivot_solve_equals_the_fraction_join_elimination",
         "tests/test_dpg.py::test_system_join_matches_the_reference_in_random_systems"),
    ),
    Mutant(
        "word-value-signs-swapped",
        "dpg.py",
        "_SIGN = {1: _ONE, -1: -_ONE}",
        "_SIGN = {1: -_ONE, -1: _ONE}",
        ("tests/test_dpg.py::test_flip_witnesses_are_read_off_the_decomposition",
         "tests/test_systems.py::test_check_assumptions_passes_on_generated"),
    ),
    Mutant(
        "pure-state-finiteness-dropped",
        "gaussian.py",
        '    for name, a in (("A", A), ("b", b)):\n'
        "        if not np.isfinite(a).all():\n"
        '            raise ValueError(f"{name} must be finite")\n',
        "",
        ("tests/test_constructors.py::"
         "test_constructor_refuses_with_its_type_and_message[pure-A-not-finite]",
         "tests/test_constructors.py::"
         "test_constructor_refuses_with_its_type_and_message[pure-b-not-finite]"),
    ),
)


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest)


def _failed(
    dest: Path, tests: tuple[str, ...], *flags: str, limit: float | None = None
) -> tuple[int | None, set[str]]:
    """Run ``tests`` on the copy at ``dest``, with pytest's ``flags``: its exit
    code (None when it runs past ``limit`` seconds) and the ids of the tests
    it reports failed."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *flags, *tests],
            cwd=dest, env={**os.environ, "PYTHONPATH": str(dest / "src")},
            capture_output=True, text=True, timeout=limit,
        )
    except subprocess.TimeoutExpired:
        return None, set()
    failed = {line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith("FAILED ")}
    return proc.returncode, failed


def _caught(test: str, failed: set[str]) -> bool:
    """Whether ``test``, or one of its parametrized cases, failed."""
    return any(f == test or f.startswith(test + "[") for f in failed)


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    mutants = [m for m in MUTANTS if not names or m.name in names]
    sources = {m.module: (ROOT / "src" / "pqk" / m.module).read_text()
               for m in mutants}
    stale = [m for m in mutants if sources[m.module].count(m.snippet) != 1]
    for m in stale:
        count = sources[m.module].count(m.snippet)
        print(f"STALE     {m.name}: its snippet occurs {count} times in {m.module}")
    if stale:
        return 1

    every_test = tuple(dict.fromkeys(t for m in mutants for t in m.tests))
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        _copy(Path(tmp))
        code, failed = _failed(Path(tmp), every_test)
    if code != 0:
        print(f"BASELINE  the named tests do not pass unmutated (pytest exit {code}): "
              f"{sorted(failed)}")
        return 1
    # The mutants run subsets of these tests, so their run bounds each one's.
    limit = limit_for(time.perf_counter() - start)
    print(f"limit     {limit:.0f} s per mutant")

    survivors = 0
    for m in mutants:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            dest = Path(tmp)
            _copy(dest)
            (dest / "src" / "pqk" / m.module).write_text(
                sources[m.module].replace(m.snippet, m.replacement)
            )
            code, failed = _failed(dest, m.tests, limit=limit)
        missed = [t for t in m.tests if not _caught(t, failed)]
        if code is None:
            survivors += 1
            print(f"TIMED OUT {m.name} (past the {limit:.0f} s limit)")
        elif code != 1 or missed:
            survivors += 1
            print(f"SURVIVED  {m.name} (pytest exit {code}; not failed: {missed})")
        else:
            print(f"caught    {m.name} ({time.perf_counter() - start:.1f} s)")
    print(f"{len(mutants) - survivors} of {len(mutants)} mutants caught")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
