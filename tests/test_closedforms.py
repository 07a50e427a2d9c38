import random
from fractions import Fraction
from itertools import permutations
from math import prod

import pytest

from kjuggle import closedforms
from kjuggle.closedforms import (GF_ROWS, catalan,
                                 catalan_product_check, closed_form_check,
                                 closed_form_value, count_matrices,
                                 determinant, dominating_compositions,
                                 ehrhart_fit, generalized_binomial,
                                 gf_coefficients, gf_direct_count,
                                 lidskii_count, multiset_coefficient,
                                 perm_det_count, permanent, surd_value)
from kjuggle.bijection import net_change_target
from kjuggle.errors import DomainError, InvariantViolation
from kjuggle.juggling import count_sequences, normalize_state
from kjuggle.kostant import count_partitions
from kjuggle.roots import eminus, positive_roots


class TestPermDet:
    def test_short_root_matrix_matches_reference(self):
        lam = [r for r in positive_roots("A", 4) if r.j - r.i <= 2]
        m, n = count_matrices(4, lam)
        assert m == [[1, 1, 0, 0], [1, 1, 1, 0], [0, 1, 1, 1], [0, 0, 1, 1]]
        assert n == [[1, 1, 0, 0], [-1, 1, 1, 0], [0, -1, 1, 1], [0, 0, -1, 1]]
        assert perm_det_count(4, lam) == 5

    def test_matrices_match_the_pairwise_probe(self):
        def probe(rank, allowed):
            """Entry (i, j) from asking, for every pair, whether e_i - e_{j+1}
            is allowed, and the descent entries below the diagonal."""
            members = set(allowed)
            m = [[0] * rank for _ in range(rank)]
            n = [[0] * rank for _ in range(rank)]
            for i in range(1, rank + 1):
                for j in range(1, rank + 1):
                    if j >= i and eminus(i, j + 1) in members:
                        m[i - 1][j - 1] = n[i - 1][j - 1] = 1
                    elif j == i - 1:
                        m[i - 1][j - 1], n[i - 1][j - 1] = 1, -1
            return m, n

        rnd = random.Random(1812)
        for _ in range(600):
            rank = rnd.randint(1, 9)
            lam = [r for r in positive_roots("A", rank) if rnd.random() < rnd.random()]
            rnd.shuffle(lam)
            assert count_matrices(rank, lam) == probe(rank, lam), (rank, lam)

    def test_empty_set_counts_zero(self):
        assert perm_det_count(3, []) == 0

    def test_full_set_gives_powers_of_two(self):
        for r in range(1, 9):
            assert perm_det_count(r, positive_roots("A", r)) == 2 ** (r - 1)

    def test_equals_partition_count_on_chains(self):
        lam = [eminus(1, 2), eminus(2, 3), eminus(3, 4), eminus(1, 4)]
        assert perm_det_count(3, lam) == count_partitions((1, 0, 0, -1), lam) == 2

    def test_rejects_foreign_roots(self):
        with pytest.raises(DomainError):
            perm_det_count(3, [eminus(1, 5)])

    def test_violation_names_the_root_set(self, monkeypatch):
        monkeypatch.setattr(closedforms, "determinant", lambda matrix: -1)
        with pytest.raises(InvariantViolation) as info:
            perm_det_count(3, [eminus(2, 3), eminus(1, 4), eminus(1, 2), eminus(3, 4)])
        assert str(info.value) == "permanent 2 != determinant -1 at rank 3 over 1-2 1-4 2-3 3-4"

    def test_permanent_and_determinant_basics(self):
        assert permanent([[1, 1], [1, 1]]) == 2
        assert determinant([[1, 1], [1, 1]]) == 0
        assert determinant([[2, 0], [7, 3]]) == 6
        assert permanent([]) == determinant([]) == 1

    def test_permanent_matches_sum_over_permutations(self):
        rnd = random.Random(2024)
        for size in range(0, 8):
            for trial in range(25 if size < 7 else 6):
                m = [[rnd.choice((0, 0, rnd.randint(-4, 5))) for _ in range(size)]
                     for _ in range(size)]
                if size and trial % 3 == 1:  # a zero row
                    m[rnd.randrange(size)] = [0] * size
                if size and trial % 3 == 2:  # a zero column
                    c = rnd.randrange(size)
                    for row in m:
                        row[c] = 0
                brute = sum(prod(m[i][p[i]] for i in range(size))
                            for p in permutations(range(size)))
                assert permanent(m) == brute, m

    def test_permanent_of_large_count_matrices_matches_row_expansion(self):
        def expand(m):
            """The sum over permutations by Laplace expansion along the rows,
            memoized on the set of columns the rows above used."""
            memo = {}

            def rest(row, used):
                if row == len(m):
                    return 1
                if used not in memo:
                    memo[used] = sum(x * rest(row + 1, used | 1 << c)
                                     for c, x in enumerate(m[row]) if x and not used >> c & 1)
                return memo[used]

            return rest(0, 0)

        rnd = random.Random(1963)
        for rank in (11, 12, 13):
            for density in (0.3, 0.6, 1.0):
                lam = [r for r in positive_roots("A", rank) if rnd.random() < density]
                m, _ = count_matrices(rank, lam)
                assert permanent(m) == expand(m), (rank, density)
            assert permanent(m) == 2 ** (rank - 1)  # every root: one per chain

    def test_permanent_equals_partition_count_on_random_subsets(self):
        rnd = random.Random(7)
        for _ in range(60):
            rank = rnd.randint(1, 8)
            lam = [r for r in positive_roots("A", rank) if rnd.random() < 0.6]
            m, _ = count_matrices(rank, lam)
            target = (1,) + (0,) * (rank - 1) + (-1,)
            assert permanent(m) == count_partitions(target, lam)


def _reference_compositions(total, pattern):
    """The recursive walk the prefix-sum reading replaced: each part in
    turn, from the least the pattern allows to what is left."""
    pattern = tuple(pattern)
    if not pattern:
        if total == 0:
            yield ()
        return
    need = [sum(pattern[:k + 1]) for k in range(len(pattern))]
    out = [0] * len(pattern)

    def rec(pos, used):
        if pos == len(pattern):
            if used == total:
                yield tuple(out)
            return
        for value in range(max(0, need[pos] - used), total - used + 1):
            out[pos] = value
            yield from rec(pos + 1, used + value)

    yield from rec(0, 0)


class TestLidskii:
    def test_reference_values(self):
        assert lidskii_count((1, 0, 0, -1)) == 4
        assert lidskii_count((1, 1, 1, -3)) == 7
        assert lidskii_count((0, 0, 0)) == 1
        assert lidskii_count((2, 1, -3)) == 3

    def test_variants_individually(self):
        mu = (2, 1, 0, -3)
        oracle = count_partitions(mu, positive_roots("A", 3))
        assert lidskii_count(mu, "binomial") == oracle
        assert lidskii_count(mu, "multiset") == oracle

    def test_equals_the_partition_count_on_a_cold_and_a_warm_table(self):
        # the composition terms are built once per rank; every variant must
        # agree with the partition count on the call that builds them and after
        rng = random.Random(13)
        for r in range(2, 6):
            for _ in range(4):
                head = [rng.randint(0, 2) for _ in range(r)]
                mu = tuple(head) + (-sum(head),)
                oracle = count_partitions(mu, positive_roots("A", r))
                for variant in ("binomial", "multiset", "both"):
                    closedforms._lidskii_table.cache_clear()
                    assert lidskii_count(mu, variant) == oracle, (mu, variant, "cold")
                    assert lidskii_count(mu, variant) == oracle, (mu, variant, "warm")

    def test_variant_disagreement_names_the_weight(self, monkeypatch):
        # rank 2 has the one term j = (1,), inner count 1: binomial C(2, 1)
        monkeypatch.setattr(closedforms, "multiset_coefficient", lambda n, k: 3)
        assert lidskii_count((1, 0, -1), "binomial") == 2
        assert lidskii_count((1, 0, -1), "multiset") == 3
        with pytest.raises(InvariantViolation) as info:
            lidskii_count((1, 0, -1))
        assert str(info.value) == "expansion variants disagree at (1, 0, -1): 2 != 3"

    def test_rejects_negative_entries_and_bad_variant(self):
        lidskii_count((1, 0, -1))  # the rank-2 terms are built
        for _ in range(2):
            for mu in ((-1, 1, 0), (1, 1, -1), (1, -1), (2, 0, -1, -1, 0, -1, 1)):
                with pytest.raises(DomainError):
                    lidskii_count(mu)
            with pytest.raises(DomainError):
                lidskii_count((1, 0, -1), "fancy")

    def test_generalized_binomial(self):
        assert generalized_binomial(-1, 1) == -1
        assert generalized_binomial(-2, 2) == 3
        assert generalized_binomial(4, 2) == 6
        assert generalized_binomial(3, 5) == 0
        assert multiset_coefficient(0, 0) == 1
        assert multiset_coefficient(0, 2) == 0
        assert multiset_coefficient(3, 2) == 6

    def test_dominating_compositions(self):
        got = sorted(dominating_compositions(3, (2, 1)))
        assert got == [(2, 1), (3, 0)]
        assert list(dominating_compositions(0, ())) == [()]
        assert sorted(dominating_compositions(6, (3, 2, 1))) == [
            (3, 2, 1), (3, 3, 0), (4, 1, 1), (4, 2, 0),
            (5, 0, 1), (5, 1, 0), (6, 0, 0)]

    def test_dominating_compositions_match_the_recursive_walk_in_order(self):
        rng = random.Random(128)
        patterns = [(), (0,), (2,), (-1,), (3, 2, 1)]
        patterns += [tuple(rng.randint(-2, 3) for _ in range(rng.randint(1, 5)))
                     for _ in range(60)]
        listed = 0
        for pattern in patterns:
            for total in range(-3, 10):
                got = list(dominating_compositions(total, pattern))
                assert got == list(_reference_compositions(total, pattern)), (total, pattern)
                listed += len(got)
        assert listed > 10000


class TestGeneratingFunctions:
    # first six coefficients of each row, frozen from the recurrences
    EXPECTED = {
        "2|2": [1, 3, 10, 35, 125, 450],
        "11|2": [1, 3, 11, 40, 145, 525],
        "21|2": [1, 4, 22, 124, 706, 4036],
        "111|2": [1, 3, 18, 105, 606, 3483],
        "22|2": [1, 3, 21, 162, 1305, 10719],
        "3|3": [1, 4, 20, 112, 660, 3976],
        "21|3": [1, 5, 30, 182, 1110, 6786],
    }

    def test_frozen_coefficients(self):
        for row, expected in self.EXPECTED.items():
            assert gf_coefficients(row, 6) == expected

    def test_direct_counts_agree(self):
        for row in GF_ROWS:
            for n in range(1, 7):
                assert gf_direct_count(row, n) == self.EXPECTED[row][n - 1]

    def test_unknown_row(self):
        with pytest.raises(DomainError):
            gf_coefficients("4|4", 3)
        with pytest.raises(DomainError):
            gf_coefficients("2|2", 0)


class TestClosedForms:
    FROZEN = {
        "c45": {2: 3, 3: 10, 4: 35, 5: 125, 6: 450},
        "c46": {2: 1, 3: 3, 4: 11, 5: 40, 6: 145},
        "c47": {3: 4, 4: 22, 5: 124, 6: 706},
        "c48": {5: 18, 6: 105},
    }

    def test_values_match_oracles(self):
        for which, table in self.FROZEN.items():
            for r, expected in table.items():
                assert closed_form_check(which, r) == expected

    # The closed forms' earlier evaluation: a_r = p a_(r-1) + q a_(r-2) from
    # direct periodic counts of the state (capacity 2) at the seed ranks,
    # the first of them the min rank.
    SEEDED = {
        "c45": ((2,), (2, 3), (5, -5)),
        "c46": ((1, 1), (2, 3, 4), (5, -5)),
        "c47": ((2, 1), (3, 4), (8, -13)),
        "c48": ((1, 1, 1), (5, 6), (8, -13)),
    }

    def test_values_follow_the_seeded_recurrences(self):
        for which, (state, seeds, (p, q)) in self.SEEDED.items():
            values = {r: count_sequences(state, state, r + 1 - len(state), 2) for r in seeds}
            for r in range(max(seeds) + 1, 61):
                values[r] = p * values[r - 1] + q * values[r - 2]
            for r in range(seeds[0], 61):
                assert closed_form_value(which, r) == values[r], (which, r)
            with pytest.raises(DomainError, match=f"^{which} requires rank >= {seeds[0]}$"):
                closed_form_value(which, seeds[0] - 1)

    def test_c45_oracle_is_the_unrestricted_count(self, monkeypatch):
        # two balls never exceed capacity 2, and every A_r root starts by time r
        seen = []
        restricted = closedforms.count_capacity_restricted
        monkeypatch.setattr(closedforms, "count_capacity_restricted",
                            lambda *args: seen.append((args, restricted(*args))) or seen[-1][1])
        for r in range(2, 7):
            value = closed_form_check("c45", r)
            (mu, roots, state, capacity), oracle = seen.pop()
            assert (state, capacity) == ((2,), 2)
            assert set(roots) == set(positive_roots("A", r))
            assert value == oracle == count_partitions(net_change_target((2,), (2,), r),
                                                       positive_roots("A", r))

    def test_extends_past_oracle_range(self):
        assert closed_form_value("c45", 7) == 5 * 450 - 5 * 125
        assert closed_form_value("c45", 8) == 5875
        assert closed_form_value("c48", 8) == 8 * closed_form_value("c48", 7) - 13 * 105

    def test_values_stay_exact_past_machine_width(self):
        value = closed_form_value("c45", 40)
        assert value == surd_value("c45", 40)
        assert value > 2 ** 64

    def test_surd_agrees_where_the_recurrence_is_seeded(self):
        for r in range(2, 9):
            assert surd_value("c45", r) == closed_form_value("c45", r)
        for r in range(3, 9):
            assert surd_value("c46", r) == closed_form_value("c46", r)
            assert surd_value("c47", r) == closed_form_value("c47", r)
        for r in range(5, 9):
            assert surd_value("c48", r) == closed_form_value("c48", r)

    def test_surd_form_breaks_at_the_low_boundary(self):
        # the conjugate-surd form extends below the recurrence corrections
        # and misses the true count of 1 there
        assert surd_value("c46", 2) == Fraction(4, 5)
        assert closed_form_check("c46", 2) == 1

    def test_surd_form_below_the_min_rank(self):
        # no rank check: below the min rank the expression is still evaluated,
        # a negative power of the surd counting as its zeroth
        below = {"c45": ["2/5", "1"], "c46": ["2/5", "1/5"], "c47": ["28/169", "28/169", "10/13"],
                 "c48": ["9/169", "9/169", "9/169", "6/13", "3"]}
        for which, values in below.items():
            assert [surd_value(which, r) for r in range(len(values))] == list(map(Fraction, values))

    def test_surd_form_rejects_a_negative_rank(self):
        for which in ("c45", "c46", "c47", "c48"):
            with pytest.raises(DomainError, match="rank >= 0"):
                surd_value(which, -1)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            closed_form_check("c47", 2)
        with pytest.raises(DomainError):
            closed_form_check("c49", 3)


class TestCatalan:
    def test_products(self):
        assert catalan_product_check(3) == 1
        assert catalan_product_check(4) == 2
        assert catalan_product_check(6) == 140
        assert catalan_product_check(7) == 5880
        assert catalan_product_check(8) == 776160

    def test_catalan_numbers(self):
        assert [catalan(n) for n in range(1, 6)] == [1, 2, 5, 14, 42]

    def test_rank_too_small(self):
        with pytest.raises(DomainError):
            catalan_product_check(2)


def lagrange_interpolate(points) -> tuple[Fraction, ...]:
    """Coefficients (ascending) of the unique polynomial through the points,
    by Lagrange's formula over rationals: the reference for ehrhart_fit."""
    coeffs = [Fraction(0)]
    for i, (xi, yi) in enumerate(points):
        term = [Fraction(yi)]
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            scale = Fraction(1, xi - xj)
            new = [Fraction(0)] * (len(term) + 1)
            for t, cf in enumerate(term):
                new[t] += cf * (-xj) * scale
                new[t + 1] += cf * scale
            term = new
        while len(coeffs) < len(term):
            coeffs.append(Fraction(0))
        for t, cf in enumerate(term):
            coeffs[t] += cf
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _evaluate(coeffs, x):
    return sum(cf * x ** power for power, cf in enumerate(coeffs))


class TestEhrhart:
    def test_forced_sequence_is_constant(self):
        assert ehrhart_fit((1, -1), 2) == (Fraction(1),)

    def test_linear_fits(self):
        assert ehrhart_fit((1, 0, -1), 2) == (Fraction(1), Fraction(1))
        assert ehrhart_fit((1, 1, -2), 2) == (Fraction(1), Fraction(1))
        assert ehrhart_fit((2, 1, -3), 2) == (Fraction(1), Fraction(2))

    def test_cubic_staircase_fit(self):
        coeffs = ehrhart_fit((1, 1, 1, -3), 2)
        assert coeffs == (Fraction(1), Fraction(17, 6), Fraction(5, 2), Fraction(2, 3))
        assert _evaluate(coeffs, 1) == 7

    def test_equals_the_lagrange_interpolant_on_seeded_weights(self):
        rng = random.Random(25)
        for r in range(1, 6):
            for _ in range(4):
                head = [rng.randint(0, 2 if r < 5 else 1) for _ in range(r)]
                mu = tuple(head) + (-sum(head),)
                points = [(t, count_sequences(normalize_state(tuple(t * x for x in head)),
                                              (t * sum(head),), r))
                          for t in range(1, r * (r - 1) // 2 + 2)]
                coeffs = ehrhart_fit(mu, 1)
                assert coeffs == lagrange_interpolate(points), mu
                assert all(type(cf) is Fraction for cf in coeffs), mu

    def test_violation_names_the_weight(self, monkeypatch):
        def perturbed(a, b, *rest):
            # one more sequence at the held-out dilation t = 3, b = (9,)
            return count_sequences(a, b, *rest) + (b == (9,))

        monkeypatch.setattr(closedforms, "count_sequences", perturbed)
        with pytest.raises(InvariantViolation) as info:
            ehrhart_fit((2, 1, -3), 1)
        assert str(info.value) == "weight [2, 1, -3]: interpolant predicts 7 at t=3, count is 8"

    def test_rejects_bad_weights(self):
        with pytest.raises(DomainError):
            ehrhart_fit((1, 0, 0), 2)
        with pytest.raises(DomainError):
            ehrhart_fit((-1, 1, 0), 2)
        with pytest.raises(DomainError):
            ehrhart_fit((1, 0, -1), 0)

    def test_lagrange_roundtrip(self):
        points = [(1, 2), (2, 5), (3, 10), (4, 17)]
        coeffs = lagrange_interpolate(points)
        assert coeffs == (Fraction(1), Fraction(0), Fraction(1))
        assert all(_evaluate(coeffs, x) == y for x, y in points)
