"""The committed mutants: each one breaks a check or a rule of the package,
and names the tests that must fail when it does.

An entry gives the file under ``src/divdiff/``, the exact old text (it
must occur there once), the new text, the test ids that must fail, and
one line of reason.  A test id is a pytest node id as ``pytest -rf``
prints it, with its parameter part.  A surviving mutant is mended by a
test, never by deleting or weakening its entry; an entry changes only
when the code it targets changes.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    reason: str


CLI = "tests/test_cli.py::"
PARSE = CLI + "test_one_pass_parse_matches_parse_args"
EXTREMAL = "tests/test_extremal.py::"
CONSTRAINTS = "tests/test_constraints.py::"
SIMPLEX = "tests/test_simplex.py::"
ORACLES = "tests/test_kernel_oracles.py::"
INTERPOLATION = "tests/test_interpolation.py::"

MUTANTS = {
    "certify-without-dual-feasibility": Mutant(
        "simplex.py",
        "    if any(v > cj * dy for v, cj in zip(ty, c)):\n"
        '        raise ArithmeticError("LP dual is not feasible")\n',
        "",
        (
            EXTREMAL + "test_lp_certificate_catches_a_corrupted_result[a doubled dual-3]",
            EXTREMAL
            + "test_lp_certificate_catches_a_corrupted_result_on_scaled_rows[a doubled dual]",
            EXTREMAL + "test_lp_certificate_catches_a_corrupted_warm_result[a doubled dual]",
        ),
        "a dual that breaks A^T y <= c would let a value below the optimum certify",
    ),
    "certify-without-solution-sign-and-length": Mutant(
        "simplex.py",
        "    if x is None or len(x) != len(c):\n"
        '        raise ArithmeticError("LP solution is not feasible")\n'
        "    dx = math.lcm(*(v.denominator for v in x))\n"
        "    X = [v.numerator * (dx // v.denominator) for v in x]\n"
        "    if any(v < 0 for v in X):\n"
        '        raise ArithmeticError("LP solution is not feasible")\n',
        "    dx = math.lcm(*(v.denominator for v in x))\n"
        "    X = [v.numerator * (dx // v.denominator) for v in x]\n",
        (
            EXTREMAL
            + "test_lp_certificate_catches_a_corrupted_result[an extra negative solution entry-3]",
            EXTREMAL + "test_lp_certificate_catches_a_corrupted_result_on_scaled_rows"
            "[an extra negative solution entry]",
            EXTREMAL + "test_lp_certificate_catches_a_corrupted_warm_result"
            "[an extra negative solution entry]",
        ),
        "an entry past the last column is seen by no row, only by these checks",
    ),
    "certify-without-solution-sign": Mutant(
        "simplex.py",
        "    if any(v < 0 for v in X):\n"
        '        raise ArithmeticError("LP solution is not feasible")\n',
        "",
        (SIMPLEX + "test_a_negative_solution_entry_is_not_certified",),
        "a negative entry that breaks no row is seen only by the sign check",
    ),
    "certify-row-check-without-dx": Mutant(
        "simplex.py",
        "        if lhs > bi * dx or (lhs != bi * dx and i >= len(a_ub)):\n",
        "        if lhs > bi or (lhs != bi and i >= len(a_ub)):\n",
        (
            SIMPLEX + "test_an_optimum_carries_its_dual",
            EXTREMAL + "test_four_attains_six_with_valid_witness",
        ),
        "row.X is dx times row.x: against b alone a feasible x off the integers fails",
    ),
    "violated-without-dx": Mutant(
        "simplex.py",
        " if sum(a * X[j] for j, a in row.items()) > b[i] * dx\n",
        " if sum(a * X[j] for j, a in row.items()) > b[i]\n",
        (
            SIMPLEX + "test_an_omitted_row_is_checked_against_x_over_its_denominator",
            EXTREMAL + "test_relaxed_programs_hold_only_the_rows_that_bind",
        ),
        "row.X is dx times row.x: against b alone a violated row with b < 0 can be missed",
    ),
    "sweep-without-residual-recomputation": Mutant(
        "probes.py",
        "        if lattice.total(boundary) / N != residual:\n"
        '            raise ArithmeticError("residual recomputation mismatch")\n',
        "",
        ("tests/test_probes.py::test_a_spoiled_average_fails_the_residual_recomputation",),
        "a wrong shift average would reach the probe report unchecked",
    ),
    "pin-row-at-one": Mutant(
        "extremal.py",
        "        b_eq.append(2)\n",
        "        b_eq.append(1)\n",
        (
            EXTREMAL + "test_three_attains_six",
            EXTREMAL + "test_gap_search_matches_the_per_pin_loop[3]",
            EXTREMAL + "test_minlip_report_is_byte_identical[3]",
        ),
        "u_pin = 1 is f(pin) = 0, so the pinned programs lose the sup norm 1",
    ),
    "distance-bound-doubled": Mutant(
        "extremal.py",
        "    return Fraction(2 * L, min(twice_p - 2 * left, 2 * right - twice_p))\n",
        "    return Fraction(4 * L, min(twice_p - 2 * left, 2 * right - twice_p))\n",
        (
            EXTREMAL + "test_gap_search_matches_the_per_pin_loop[4]",
            EXTREMAL + "test_gap_search_matches_the_per_pin_loop[6]",
            "tests/test_golden.py::test_pinned_report_digest[minlip-7]",
        ),
        "a lower bound above a gap's least value prunes the gap that holds the optimum",
    ),
    "witness-unchecked": Mutant(
        "extremal.py",
        "        if u[j] != 2 or not all(0 <= v <= 2 for v in u):\n"
        '            raise ArithmeticError(f"pin {pin}\'s witness is not 1 there or leaves [-1, 1]")\n'
        "        for a, b, u_a, u_b in zip(cols, cols[1:], u, u[1:]):\n"
        "            if abs(u_b - u_a) * self.L > t * (b - a):\n"
        "                slope = abs(u_b - u_a) * self.L / (b - a)\n"
        "                raise ArithmeticError(\n"
        '                    f"pin {pin}\'s witness has slope {slope} over [{a}, {b}], above its bound {t}"\n'
        "                )\n",
        "",
        (
            EXTREMAL + "test_a_misplaced_integer_p_star_is_caught",
            EXTREMAL + "test_a_spoiled_relaxed_witness_is_caught[a pin below 1]",
            EXTREMAL + "test_a_spoiled_relaxed_witness_is_caught[a value above 1]",
        ),
        "a relaxed optimum that is no optimum of its pin would reach the report as its witness",
    ),
    "witness-from-the-last-gap-left-of-the-pin": Mutant(
        "extremal.py",
        "        cols, shifted = programs.witness(gap, pin, value)\n",
        "        last = max(i for i in programs.vertices if programs.cols[i] <= pin)\n"
        "        cols, shifted = programs.witness(last, pin, value)\n",
        (
            EXTREMAL + "test_a_pin_at_a_shared_gap_end_takes_its_witness_from_the_gap_that_credited_it",
        ),
        "a shared gap end may be bounded by the next gap too, whose optimum is not the one "
        "that credited the pin",
    ),
    "rank-check-off": Mutant(
        "constraints.py",
        "    if _rank(minor) < rank:\n",
        "    if False:\n",
        (
            CONSTRAINTS + "test_nullspace_certificate_catches_a_misreported_rank[an extra pivot]",
            "tests/test_cli.py::test_an_extra_pivot_is_one_line_exit_two",
        ),
        "a free column reported as a pivot drops its null vector, and its forced zeros with it",
    ),
    "rank-counts-every-row": Mutant(
        "constraints.py",
        "    return len(kept)\n",
        "    return len(rows)\n",
        (CONSTRAINTS + "test_rank_agrees_with_fraction_free_elimination",),
        "a dependent row would count toward the rank the check certifies",
    ),
    "free-vector-without-row-check": Mutant(
        "constraints.py",
        "    if any(sums.values()):\n"
        "        n = min(n for n, total in sums.items() if total)\n"
        "        raise ArithmeticError("
        'f"null vector of column {free} fails constraint row {n}")\n',
        "",
        (
            CONSTRAINTS + "test_nullspace_certificate_catches_a_corrupted_vector"
            "[pivot entry off by one]",
            "tests/test_cli.py::test_corrupted_null_vector_is_one_line_exit_two",
        ),
        "a null vector that some row does not annihilate would reach the report",
    ),
    "column-index-keeps-first-row": Mutant(
        "constraints.py",
        "                index.setdefault(c, []).append((n, coeff))\n",
        "                index.setdefault(c, [(n, coeff)])\n",
        (
            CONSTRAINTS + "test_full_rank_and_only_the_ends_and_midpoint_forced_up_to_sixty",
            CONSTRAINTS + "test_free_vector_check_agrees_with_the_all_rows_oracle",
        ),
        "a row left out of a column's index is never summed over the vectors that meet it",
    ),
    "kernel-index-keeps-first-holder": Mutant(
        "linalg.py",
        "            holders.setdefault(c, []).append((row, pc))\n",
        "            holders.setdefault(c, [(row, pc)])\n",
        (
            "tests/test_linalg.py::test_kernel_matches_the_per_column_oracle_on_sparse_systems",
            CONSTRAINTS + "test_full_rank_and_only_the_ends_and_midpoint_forced_up_to_sixty",
            CONSTRAINTS + "test_nullspace_matches_the_full_scan_oracle[6]",
        ),
        "a free column's vector would miss the pivot entries of every echelon row but its first",
    ),
    "certify-without-duality-gap": Mutant(
        "simplex.py",
        "    if not Fraction(cx, dx) == Fraction(by, dy) == result.value:\n"
        '        raise ArithmeticError("LP duality gap is not zero")\n',
        "",
        (
            EXTREMAL + "test_lp_certificate_catches_a_corrupted_result[a lower value-3]",
            EXTREMAL + "test_lp_certificate_catches_a_corrupted_result_on_scaled_rows"
            "[a lower value]",
            EXTREMAL + "test_lp_certificate_catches_a_corrupted_warm_result[a lower value]",
            SIMPLEX + "test_an_optimum_carries_its_dual",
        ),
        "a value below the optimum, with x and y each feasible, would certify",
    ),
    "certify-without-farkas-check": Mutant(
        "simplex.py",
        "        if by <= 0 or any(v > 0 for v in ty):\n"
        '            raise ArithmeticError("LP Farkas ray does not prove infeasibility")\n',
        "",
        (
            EXTREMAL
            + "test_lp_certificate_catches_a_corrupted_result[an optimum reported infeasible-3]",
            EXTREMAL + "test_lp_certificate_catches_a_corrupted_result_on_scaled_rows"
            "[an optimum reported infeasible]",
            EXTREMAL + "test_lp_certificate_catches_a_corrupted_warm_result"
            "[an optimum reported infeasible]",
            SIMPLEX + "test_an_infeasible_program_carries_a_farkas_ray",
        ),
        "any multipliers would pass for a ray, so a feasible program could be reported infeasible",
    ),
    "certify-without-multiplier-sign": Mutant(
        "simplex.py",
        "    if any(v > 0 for v in Y[: len(a_ub)]):\n"
        '        raise ArithmeticError("LP multiplier of an inequality row is positive")\n',
        "",
        (
            EXTREMAL + "test_lp_certificate_catches_a_corrupted_result[a positive multiplier-3]",
            EXTREMAL + "test_lp_certificate_catches_a_corrupted_result_on_scaled_rows"
            "[a positive multiplier]",
            EXTREMAL + "test_lp_certificate_catches_a_corrupted_warm_result[a positive multiplier]",
        ),
        "a positive multiplier turns an inequality row around, so weak duality no longer holds",
    ),
    "certify-without-certificate-check": Mutant(
        "simplex.py",
        "    if result.status not in (OPTIMAL, INFEASIBLE) or y is None or len(y) != len(rows):\n"
        '        raise ArithmeticError(f"LP result ({result.status}) carries no certificate")\n',
        "",
        (
            EXTREMAL + "test_lp_certificate_catches_a_corrupted_result[no certificate-3]",
            EXTREMAL + "test_lp_certificate_catches_a_corrupted_result_on_scaled_rows"
            "[no certificate]",
            EXTREMAL + "test_lp_certificate_catches_a_corrupted_warm_result[no certificate]",
        ),
        "a result with no multipliers would reach the sums unchecked, and fail there by accident",
    ),
    "tableau-accepts-a-negative-cost": Mutant(
        "simplex.py",
        "        if any(v < 0 for v in c):\n"
        '            raise ValueError("the simplex method here takes no negative cost")\n',
        "",
        (SIMPLEX + "test_a_negative_cost_is_refused",),
        "a negative cost may leave a program unbounded, which the solver has no outcome for",
    ),
    "tableau-finds-no-violated-row": Mutant(
        "simplex.py",
        '        """The rows out of the working set that x violates, in index order."""\n',
        '        """The rows out of the working set that x violates, in index order."""\n'
        "        return []\n",
        (
            SIMPLEX + "test_a_violated_row_joins_the_working_set_in_the_current_basis",
            SIMPLEX + "test_lazy_rows_match_vertex_enumeration",
        ),
        "an optimum of the working set alone would be taken for the optimum of every row",
    ),
    "tableau-ignores-lazy": Mutant(
        "simplex.py",
        "        self.lazy = {i: a_ub[i] for i in sorted(lazy)}\n",
        "        self.lazy = {}\n",
        (
            SIMPLEX + "test_a_violated_row_joins_the_working_set_in_the_current_basis",
            SIMPLEX + "test_an_infeasible_working_set_has_a_ray_that_is_zero_on_the_omitted_rows",
            EXTREMAL + "test_relaxed_programs_hold_only_the_rows_that_bind",
            EXTREMAL + "test_pivot_paths_are_pinned[9]",
        ),
        "every row would join the working set at once, and each relaxed LP pivot over all of them",
    ),
    "cleanup-keeps-a-row-with-no-pivot": Mutant(
        "simplex.py",
        '                        raise ArithmeticError(f"phase 1 left row {i} with no column to pivot on")\n',
        "                        continue\n",
        (
            SIMPLEX + "test_redundant_equalities_are_refused",
            SIMPLEX + "test_cleanup_pivots_one_artificial_out_and_refuses_its_redundant_twin",
            SIMPLEX + "test_redundant_equalities_with_row_factors_are_refused",
            SIMPLEX + "test_warm_resolves_match_vertex_enumeration",
        ),
        "dependent equality rows, which no program of minlip has, would pass for independent ones",
    ),
    "dual-returns-with-no-entering-column": Mutant(
        "simplex.py",
        '                raise ArithmeticError(f"dual simplex row {leaving} has no column to enter")\n',
        "                return\n",
        (
            SIMPLEX + "test_an_rhs_change_to_an_infeasible_program_is_refused",
            SIMPLEX + "test_a_violated_row_joins_the_working_set_in_the_current_basis",
            SIMPLEX + "test_a_path_longer_than_two_sweeps_matches_vertex_enumeration",
            SIMPLEX + "test_lazy_rows_match_vertex_enumeration",
        ),
        "a basis with a negative rhs would be taken for optimal, and its x, negative there, returned",
    ),
    "search-asks-lower-before-forced": Mutant(
        "extremal.py",
        "        if pin in forced or lower(pin, pin) > m:\n",
        "        if lower(pin, pin) > m or pin in forced:\n",
        (
            EXTREMAL + "test_three_attains_six",
            EXTREMAL + "test_gap_search_finds_the_smallest_pin_of_the_least_value[1]",
            EXTREMAL + "test_gap_search_solves_no_pin_whose_bound_reaches_a_known_value[36]",
        ),
        "a forced pin is at distance 0 from a forced zero, where the distance bound divides by 0",
    ),
    "evaluate-without-zero-extension": Mutant(
        "funcs.py",
        "        if self.extended_by_zero and not 0 <= x <= 1:\n"
        "            return ZERO\n",
        "",
        (
            "tests/test_funcs.py::test_zero_extension_returns_zero_outside",
            "tests/test_funcs.py::test_evaluate_applies_the_zero_extension_without_asking_pairs",
            "tests/test_probes.py::test_probe_matches_the_full_loop",
        ),
        "a zero-extended f would give its formula's value outside [0, 1] in place of 0",
    ),
    "stirling-with-n-minus-one": Mutant(
        "cascade.py",
        "[n * s + t for n, s, t in zip(orders, stirling[1:] + [0], stirling)]",
        "[(n - 1) * s + t for n, s, t in zip(orders, stirling[1:] + [0], stirling)]",
        ("tests/test_cascade.py::test_every_row_is_the_forward_difference_on_the_lattice",),
        "S(k, n) = n S(k-1, n) + S(k-1, n-1); with n - 1, S(2, 1) is 0 and x^2 cascades wrong",
    ),
    "tree-cofactors-swapped": Mutant(
        "differences.py",
        "            sums.append((a * (d // g) + c * (b // g), b // g * d))\n",
        "            sums.append((a * (b // g) + c * (d // g), b // g * d))\n",
        (
            ORACLES + "test_direct_sum_off_a_progression_with_shared_small_gaps[128]",
            ORACLES + "test_direct_sum_on_descending_knots",
            ORACLES + "test_direct_sum_on_many_distinct_denominators",
        ),
        "a/b + c/d over lcm(b, d) scales a by d/g and c by b/g; swapped, each term is wrong",
    ),
    "node-product-skips-a-factor": Mutant(
        "differences.py",
        "points[:k] + points[k + 1:]",
        "points[:k] + points[k + 2:]",
        (
            ORACLES + "test_knots_off_a_progression_take_the_general_products",
            ORACLES + "test_direct_sum_off_a_progression_with_shared_small_gaps[256]",
            ORACLES + "test_mixed_negative_unsorted_knots",
        ),
        "P_k is the product over every i != k; a slice one off drops the factor a_k - a_(k+1)",
    ),
    "interpolant-not-divided-by-d": Mutant(
        "interpolation.py",
        "    return pairs, Polynomial(tuple(c / den for c in q.coefficients))\n",
        "    return pairs, q\n",
        (
            INTERPOLATION + "test_interpolant_of_f_from_its_pairs_matches_the_sample[40]",
            INTERPOLATION + "test_interpolant_of_f_from_its_pairs_matches_the_sample[256]",
            "tests/test_golden.py::test_pinned_report_digest[interp-256]",
            "tests/test_probes.py::test_walkthrough_matches_the_full_loop",
        ),
        "Q_n through the integers a (D/b) is D times too large until it is divided by D",
    ),
    "fd-lattice-unclipped": Mutant(
        "differences.py",
        "    lattice = _Lattice(f.pairs, x, h, clip=f.extended_by_zero)\n",
        "    lattice = _Lattice(f.pairs, x, h, clip=False)\n",
        (
            "tests/test_differences.py::"
            "test_an_unextended_polynomial_above_its_degree_asks_for_no_point",
        ),
        "a zero-extended f would add its values outside [0, 1] instead of 0",
    ),
    "pass-keeps-a-repeated-flag": Mutant(
        "cli.py",
        "        if arg is None or arg.dest in given:\n",
        "        if arg is None:\n",
        (PARSE + "[['minlip', '--N', '3', '--N', '4']]", PARSE + "_on_drawn_argvs"),
        "a flag given twice would be read by the pass, which argparse alone may read",
    ),
    "pass-takes-a-dash-value": Mutant(
        "cli.py",
        "if not value or dash or ",
        "if not value or ",
        (
            PARSE + "[['minlip', '--N', '-h']]",
            PARSE + "[['minlip', '--N=--']]",
            PARSE + "_on_drawn_argvs",
        ),
        "a spaced value such as -h, or an = value of --, is a flag or an end of options "
        "to argparse, not a value",
    ),
    "pass-without-required-check": Mutant(
        "cli.py",
        "    if any(arg.required and arg.dest not in given for arg in command.options):\n"
        "        return None\n",
        "",
        (
            PARSE + "[['minlip']]",
            PARSE + "[['uniform', '--n', '2', '--extend-zero']]",
            PARSE + "_on_drawn_argvs",
        ),
        "a missing required option would reach run as None, not as argparse's usage error",
    ),
}
