import random
import time
from itertools import accumulate
from math import prod

import pytest

from kjuggle.bcd import (BcdSequence, BcdState, _leaves, b_to_a_inverse, b_to_a_map,
                         bcd_sequence_partition, bcd_successors, c_to_a_inverse,
                         c_to_a_map, count_highest_root_bcd,
                         enumerate_bcd_sequences, schmidt_bincer_count,
                         schmidt_bincer_literal)
from kjuggle.errors import DomainError
from kjuggle.kostant import (count_partitions, enumerate_partitions,
                             make_partition, partition_weight)
from kjuggle.roots import (MINUS, edouble, eminus, eplus, esingle, highest_root,
                           positive_roots, root_to_weight, simple_root)


class TestSuccessors:
    def test_cancellation_is_forced(self):
        succ = bcd_successors("D", BcdState((1,), (1,)), 1, 4)
        assert succ == [(BcdState((), ()), (("cancel", 0),))]

    def test_double_drop_in_type_c(self):
        events = [e for s, e in bcd_successors("C", BcdState((2,), ()), 1, 3) if s.empty]
        assert events == [(("drop2", 0),)]

    def test_single_drop_in_type_b(self):
        events = [e for s, e in bcd_successors("B", BcdState((1,), ()), 1, 3) if s.empty]
        assert events == [(("drop1", 0),)]

    def test_type_d_has_no_drops(self):
        assert not any(s.empty for s, _ in bcd_successors("D", BcdState((1,), ()), 1, 3))

    def test_odd_drop_count_impossible_in_type_c(self):
        # a single available ball cannot be dropped in pairs
        for _, events in bcd_successors("C", BcdState((1,), ()), 1, 3):
            assert ("drop2", 0) not in events

    def test_reflected_excess_is_dead(self):
        assert bcd_successors("B", BcdState((1,), (2,)), 1, 3) == []

    def test_type_a_rejected(self):
        with pytest.raises(DomainError):
            bcd_successors("A", BcdState((1,), ()), 1, 3)


def test_reflected_conveyor_must_be_nonnegative():
    for reflected in ((-1,), (0, -1, 0)):
        with pytest.raises(DomainError, match="^reflected conveyor entries must be nonnegative$"):
            BcdState((1,), reflected)


def test_state_normalizes_both_conveyors():
    state = BcdState((1, 0), (0,))
    assert state == BcdState((1,), ()) and state.reflected == ()
    assert hash(state) == hash(BcdState((1,), ()))
    assert BcdState((0, 0), ()).empty


@pytest.mark.parametrize("lie_type,rank,expected", [
    ("B", 2, 3), ("C", 3, 10), ("D", 4, 15),
])
def test_highest_root_anchor_values(lie_type, rank, expected):
    counts = count_highest_root_bcd(lie_type, rank)
    assert counts["oracle"] == counts["juggling"] == counts["schmidt_bincer"] == expected


def test_three_way_agreement_midrange():
    for lie_type, rank in (("B", 4), ("C", 5), ("D", 5)):
        counts = count_highest_root_bcd(lie_type, rank)
        assert counts["oracle"] == counts["juggling"] == counts["schmidt_bincer"]


def test_two_conveyor_enumeration_realizes_every_partition():
    for lie_type, rank in (("B", 2), ("B", 3), ("C", 3), ("D", 4)):
        mu = highest_root(lie_type, rank)
        seqs = enumerate_bcd_sequences(lie_type, BcdState(mu, ()), rank)
        parts = [bcd_sequence_partition(s) for s in seqs]
        assert len(set(parts)) == len(parts)
        assert sorted(parts) == sorted(enumerate_partitions(mu, positive_roots(lie_type, rank)))
        for part in parts:
            assert partition_weight(part, rank) == mu


def _reference_bcd_sequences(lie_type, initial, n):
    """The recursive walk the explicit stack replaced: one frame per time,
    each successor in turn, each sequence's events sorted."""
    def dead(state, time):
        return any(x > 0 and time + k + 1 > n
                   for conveyor in (state.standard, state.reflected)
                   for k, x in enumerate(conveyor))

    if dead(initial, 0):
        return []
    found = []
    states = [initial]
    events = []

    def rec(time):
        if time > n:
            if states[-1].empty:
                found.append(BcdSequence(tuple(states), tuple(sorted(events))))
            return
        for new, evs in bcd_successors(lie_type, states[-1], time, n):
            if dead(new, time):
                continue
            states.append(new)
            events.extend((time, kind, h) for kind, h in evs)
            rec(time + 1)
            del events[len(events) - len(evs):]
            states.pop()

    rec(1)
    return found


def test_two_conveyor_listing_matches_the_recursive_walk_in_order():
    rng = random.Random(2020)
    listed = nonempty = 0
    for _ in range(300):
        lie_type = rng.choice("BCD")
        standard = tuple(rng.randint(-1, 2) for _ in range(rng.randint(0, 3)))
        reflected = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 2)))
        initial = BcdState(standard, reflected)
        n = rng.randint(0, 4)
        got = enumerate_bcd_sequences(lie_type, initial, n)
        assert got == _reference_bcd_sequences(lie_type, initial, n), (lie_type, initial, n)
        listed += len(got)
        nonempty += bool(got)
    assert nonempty > 40 and listed > 1000


def test_schmidt_bincer_matches_oracle_on_structured_weights():
    cases = [("B", 3, (1, 1, 0)), ("B", 2, (2, 2)), ("C", 3, (2, 1, 1)),
             ("C", 4, (2, 0, 0, 0)), ("D", 4, (1, 1, 1, 1)), ("D", 4, (2, 1, 1, 0))]
    for lie_type, rank, mu in cases:
        assert (schmidt_bincer_count(lie_type, rank, mu)
                == count_partitions(mu, positive_roots(lie_type, rank)))


@pytest.mark.parametrize("lie_type,plus_last_simple,expected", [
    ("B", False, 1178125), ("C", False, 1006250), ("D", False, 450000),
    ("B", True, 1503750), ("C", True, 1284375), ("D", True, 595625),
])
def test_schmidt_bincer_rank12_values(lie_type, plus_last_simple, expected):
    mu = highest_root(lie_type, 12)
    if plus_last_simple:
        mu = tuple(a + b for a, b in zip(mu, simple_root(lie_type, 12, 12)))
    assert schmidt_bincer_count(lie_type, 12, mu) == expected
    assert count_partitions(mu, positive_roots(lie_type, 12)) == expected


def test_schmidt_bincer_matches_oracle_on_random_weights():
    # root-cone weights and signed weights, ranks up to 6
    rng = random.Random(1984)
    for lie_type in "BCD":
        for _ in range(25):
            rank = rng.randint({"B": 2, "C": 3, "D": 4}[lie_type], 6)
            roots = positive_roots(lie_type, rank)
            if rng.random() < 0.25:
                mu = [rng.randint(-2, 3) for _ in range(rank)]
            else:
                mu = [0] * rank
                for _ in range(rng.randint(1, 5)):
                    for k, x in enumerate(root_to_weight(rng.choice(roots), rank)):
                        mu[k] += x
            assert schmidt_bincer_count(lie_type, rank, mu) == count_partitions(mu, roots), \
                (lie_type, rank, mu)


def test_schmidt_bincer_zero_weight():
    for lie_type, rank in (("B", 2), ("C", 3), ("D", 4)):
        assert schmidt_bincer_count(lie_type, rank, (0,) * rank) == 1


def test_schmidt_bincer_rejects_type_a():
    with pytest.raises(DomainError):
        schmidt_bincer_count("A", 3, (1, 0, -1))


def test_literal_reduction_collapses_on_nonzero_sum():
    # configurations over the e_i - e_j roots leave the coordinate sum fixed,
    # so weights off the type-A lattice contribute nothing
    assert schmidt_bincer_literal("B", 2, highest_root("B", 2)) == 0
    assert schmidt_bincer_literal("C", 3, highest_root("C", 3)) == 0


@pytest.mark.parametrize("lie_type", "BCD")
def test_literal_reduction_returns_at_once_off_the_zero_sum_lattice(lie_type):
    start = time.perf_counter()
    assert schmidt_bincer_literal(lie_type, 12, highest_root(lie_type, 12)) == 0
    assert time.perf_counter() - start < 1.0


def test_literal_reduction_checks_its_input_first():
    with pytest.raises(DomainError):
        schmidt_bincer_literal("B", 3, (1, 1))
    with pytest.raises(DomainError):
        schmidt_bincer_literal("A", 3, (1, 0, 0, 0))


# Zero-sum weights, where the literal walk's e_i - e_j roots keep every
# residual at sum zero: a shortcut that ended the walk at a zero-sum residual
# would report the plain e_i - e_j count instead of these overcounts.
LITERAL_ZERO_SUM = {
    2: {(1, -1): 2, (2, -2): 3, (3, -3): 4},
    3: {(1, 0, -1): 6, (1, 1, -2): 10, (2, -1, -1): 10, (2, 0, -2): 20},
    4: {(1, 0, 0, -1): 18, (1, 1, -1, -1): 36, (2, 0, -1, -1): 72, (1, -1, 1, -1): 4},
    5: {(1, 0, 0, 0, -1): 54, (1, 1, 0, -1, -1): 264, (2, 0, 0, -1, -1): 528,
        (2, 1, 0, -1, -2): 4266},
}


@pytest.mark.parametrize("lie_type", "BCD")
def test_literal_reduction_on_zero_sum_weights(lie_type):
    for rank in range({"B": 2, "C": 3, "D": 4}[lie_type], 6):
        assert schmidt_bincer_literal(lie_type, rank, (0,) * rank) == 1
        for mu, value in LITERAL_ZERO_SUM[rank].items():
            assert schmidt_bincer_literal(lie_type, rank, mu) == value, (lie_type, mu)


def test_literal_reduction_at_rank_eight():
    # 1,333,363 e_i - e_j configurations of this weight fold into 9,216 residuals
    assert schmidt_bincer_literal("B", 8, (2, 1, 0, 0, 0, 0, -1, -2)) == 17731854


def _reference_leaves(lie_type, rank, mu):
    """A recursive walk over every configuration, sharing no code with the
    layer walk: for each root outside the e_i - e_j family in turn, every
    multiplicity that keeps the residual's prefix sums nonnegative.  Every
    such root has a positive sum, so a zero-sum residual is a leaf at once."""
    weights = [root_to_weight(r, rank) for r in positive_roots(lie_type, rank)
               if r.kind != MINUS]
    gpres = [list(accumulate(g)) for g in weights]
    pre = list(accumulate(mu))
    steps = [[(k, g) for k, g in enumerate(gpre) if g > 0] for gpre in gpres]
    leaves = {}

    def rec(idx, w, pre):
        if pre[-1] == 0:
            leaves[w] = leaves.get(w, 0) + 1
            return
        if idx == len(weights):
            return
        weight, gpre = weights[idx], gpres[idx]
        bound = min(pre[k] // g for k, g in steps[idx])
        for mult in range(bound + 1):
            rec(idx + 1, w, pre)
            if mult < bound:
                w = tuple(a - b for a, b in zip(w, weight))
                pre = [p - g for p, g in zip(pre, gpre)]

    if min(pre) >= 0:
        rec(0, tuple(mu), pre)
    return leaves


def _seeded_weights(rng, lie_type, rank, count):
    """Sums of a few positive roots, some shifted off the root lattice, and
    signed weights, which may have negative prefix sums."""
    roots = positive_roots(lie_type, rank)
    for _ in range(count):
        if rng.random() < 0.3:
            yield tuple(rng.randint(-2, 3) for _ in range(rank))
            continue
        mu = [0] * rank
        for _ in range(rng.randint(0, 4)):
            for k, x in enumerate(root_to_weight(rng.choice(roots), rank)):
                mu[k] += x
        if rng.random() < 0.25:
            mu[rng.randrange(rank)] += 1
        yield tuple(mu)


@pytest.mark.parametrize("lie_type", "BCD")
def test_walk_leaves_match_the_per_root_walk(lie_type):
    rng = random.Random(f"leaves-{lie_type}")
    for rank in range({"B": 2, "C": 3, "D": 4}[lie_type], 7):
        for mu in _seeded_weights(rng, lie_type, rank, 12):
            assert _leaves(lie_type, rank, mu) == _reference_leaves(lie_type, rank, mu), (rank, mu)


@pytest.mark.parametrize("lie_type", "BCD")
def test_literal_reading_counts_two_coloured_e_i_minus_e_j_partitions(lie_type):
    # An independent route: a pair of e_i - e_j partitions adding up to mu is
    # one partition of mu whose m copies of a root are split between two
    # colours, m + 1 ways.  Half the weights are sums of e_i - e_j roots.
    rng = random.Random(f"two-colour-{lie_type}")
    for rank in range({"B": 2, "C": 3, "D": 4}[lie_type], 7):
        minus_roots = [r for r in positive_roots(lie_type, rank) if r.kind == MINUS]
        for k in range(8):
            if k % 2:
                head = [rng.randint(-1, 2) for _ in range(rank - 1)]
                mu = tuple(head) + (-sum(head),)
            else:
                mu = [0] * rank
                for _ in range(rng.randint(1, 4)):
                    for i, x in enumerate(root_to_weight(rng.choice(minus_roots), rank)):
                        mu[i] += x
                mu = tuple(mu)
            coloured = sum(prod(mult + 1 for _, mult in partition)
                           for partition in enumerate_partitions(mu, minus_roots))
            assert schmidt_bincer_literal(lie_type, rank, mu) == coloured, (rank, mu)


def test_literal_reading_is_bounded_on_wide_zero_sum_weights():
    # a walk over every e_i - e_j configuration of these weights takes seconds
    start = time.perf_counter()
    assert schmidt_bincer_literal("B", 10, (2, 1, 0, 0, 0, 0, 0, 0, -1, -2)) == 4606398846
    assert schmidt_bincer_literal("B", 8, (4, 3, 2, 1, -1, -2, -3, -4)) == 262349660121120
    assert time.perf_counter() - start < 1.0


def test_long_single_root_chains_stay_shallow():
    # a thousand copies of one root: the walk sends every copy of a root in
    # one loop per residual, so no copy costs a frame
    for lie_type, rank, mu, literal in (("B", 2, (0, 1000), 0), ("B", 2, (1000, -1000), 1001),
                                        ("C", 3, (0, 0, 2000), 0), ("D", 4, (0, 0, 1000, 1000), 0)):
        oracle = count_partitions(mu, positive_roots(lie_type, rank))
        assert schmidt_bincer_count(lie_type, rank, mu) == oracle == 1, (lie_type, mu)
        assert schmidt_bincer_literal(lie_type, rank, mu) == literal, (lie_type, mu)


class TestHighestRootMaps:
    def test_b_case1_reference(self):
        image = b_to_a_map(make_partition([eplus(1, 2)]), 2)
        assert image == make_partition([eminus(1, 4), eminus(2, 3)])
        assert b_to_a_inverse(image, 2) == make_partition([eplus(1, 2)])

    def test_b_case2_reference(self):
        image = b_to_a_map(make_partition([esingle(1), esingle(2)]), 2)
        assert image == make_partition([eminus(2, 4), eminus(1, 3)])

    def test_b_case2_equal_indices(self):
        p = make_partition([eminus(1, 2), esingle(2), esingle(2)])
        image = b_to_a_map(p, 2)
        assert image == make_partition([eminus(1, 2), eminus(2, 4), eminus(2, 3)])
        assert b_to_a_inverse(image, 2) == p

    def test_b_roundtrip_exhaustive_rank3(self):
        parts = enumerate_partitions(highest_root("B", 3), positive_roots("B", 3))
        assert len(parts) == 11
        images = [b_to_a_map(p, 3) for p in parts]
        assert len(set(images)) == 11
        assert all(b_to_a_inverse(img, 3) == p for p, img in zip(parts, images))

    def test_c_doubled_root_reference(self):
        image = c_to_a_map(make_partition([edouble(1)]), 3)
        assert image == make_partition([eminus(1, 4), eminus(1, 4)])

    def test_c_tail_root_appends_last_simple(self):
        p = make_partition([eminus(1, 3), eplus(1, 3)])
        image = c_to_a_map(p, 3)
        assert image == make_partition([eminus(1, 3), eminus(1, 4), eminus(3, 4)])
        assert c_to_a_inverse(image, 3) == p

    def test_c_roundtrip_exhaustive_rank3(self):
        parts = enumerate_partitions(highest_root("C", 3), positive_roots("C", 3))
        assert len(parts) == 10
        images = [c_to_a_map(p, 3) for p in parts]
        assert len(set(images)) == 10
        assert all(c_to_a_inverse(img, 3) == p for p, img in zip(parts, images))

    def test_maps_validate_their_domain(self):
        with pytest.raises(DomainError):
            b_to_a_map(make_partition([esingle(1)]), 2)  # wrong weight
        with pytest.raises(DomainError):
            c_to_a_map(make_partition([edouble(2)]), 3)  # sums to 2e2
        with pytest.raises(DomainError):
            b_to_a_inverse(make_partition([eminus(3, 4), eminus(1, 3), eminus(2, 3)]), 2)
