from itertools import product

import pytest

from kjuggle import bijection
from kjuggle.bijection import (gamma, gamma_inverse, net_change_target,
                               root_of_throw, throw_of_root, throwset_of_roots,
                               time_bounded_roots, verify_correspondence)
from kjuggle.errors import DomainError
from kjuggle.juggling import Throw, ThrowSet, count_sequences, enumerate_sequences
from kjuggle.kostant import (count_capacity_restricted, count_partitions, enumerate_partitions,
                             make_partition)
from kjuggle.roots import eminus, eplus, positive_roots, weight_from_simple


def test_throw_root_dictionary():
    assert root_of_throw(Throw(2, 3)) == eminus(2, 5)
    assert throw_of_root(eminus(1, 2)) == Throw(1, 1)
    for i in range(1, 7):
        for j in range(1, 8 - i):
            t = Throw(i, j)
            assert throw_of_root(root_of_throw(t)) == t
    with pytest.raises(DomainError):
        throw_of_root(eplus(1, 2))


def test_gamma_reference_sequence():
    p = make_partition([eminus(1, 2), eminus(2, 3), eminus(2, 3), eminus(3, 4)])
    seq = gamma(p, (1, 1, -1), 3)
    assert seq.states == ((1, 1, -1), (2, -1), (1,), (1,))
    assert gamma_inverse(seq) == p


def test_gamma_empty_partition():
    seq = gamma((), (), 3)
    assert seq.states == ((), (), (), ())
    assert gamma_inverse(seq) == ()


def test_gamma_rejects_inconsistent_partitions():
    with pytest.raises(DomainError):
        gamma(make_partition([eminus(4, 5)]), (1,), 3)  # throw time past length
    with pytest.raises(DomainError):
        gamma(make_partition([eminus(1, 2)]), (2,), 1)  # wrong ball count
    with pytest.raises(DomainError):
        gamma(make_partition([eplus(1, 2)]), (1, 1), 2)


def test_five_partitions_map_onto_the_five_sequences():
    mu = weight_from_simple("A", 3, (1, 2, 1))
    parts = enumerate_partitions(mu, positive_roots("A", 3))
    listed = enumerate_sequences((1, 1, -1), (1,), 3)
    seqs = set(listed)
    images = {gamma(p, (1, 1, -1), 3) for p in parts}
    assert len(images) == 5
    assert images == seqs
    # verify_correspondence finds each image in a set of the listed sequences
    for image in images:
        (same,) = [seq for seq in listed if seq == image]
        assert hash(same) == hash(image)


def test_gamma_inverse_of_conveyor_example():
    for seq in enumerate_sequences((1, 1), (1, 1), 3):
        if seq.states == ((1, 1), (2,), (0, 1, 1), (1, 1)):
            assert gamma_inverse(seq) == make_partition(
                [eminus(1, 2), eminus(2, 4), eminus(2, 5)])
            break
    else:
        pytest.fail("reference sequence missing")


def test_verify_correspondence_reference_weight():
    report = verify_correspondence((1, 1, -1, -1))
    assert report.ok
    assert report.partition_count == report.sequence_count == 5


def test_verify_correspondence_zero_weight():
    report = verify_correspondence((0, 0, 0))
    assert report.ok and report.partition_count == 1


def test_verify_correspondence_scaled_highest_root():
    # three balls, rank four: both sides count the same multisets
    mu = (3, 0, 0, 0, -3)
    report = verify_correspondence(mu)
    assert report.ok
    assert report.partition_count == count_sequences((3,), (3,), 4)


def test_verify_correspondence_names_a_count_mismatch(monkeypatch):
    # both listings agree with their own counts, one partition short, and the
    # gamma checks all pass: only the count comparison can name the fault
    monkeypatch.setattr(bijection, "enumerate_partitions", lambda *a: enumerate_partitions(*a)[1:])
    monkeypatch.setattr(bijection, "count_partitions", lambda *a: count_partitions(*a) - 1)
    report = verify_correspondence((1, 1, -1, -1))
    assert not report.ok
    assert report.first_mismatch == "4 partitions != 5 sequences"


# (1, 0, -1) has two partitions, e1-e2 + e2-e3 listed first, then e1-e3.
PLANTED_FAULTS = {
    "drop-a-partition": (
        "enumerate_partitions", lambda *a: enumerate_partitions(*a)[1:],
        ("counts_equal",), "count_partitions 2 != 1 enumerated"),
    "drop-a-sequence": (
        "enumerate_sequences", lambda *a: enumerate_sequences(*a)[1:],
        ("counts_equal", "image_contained"), "count_sequences 2 != 1 enumerated"),
    "repeat-an-image": (
        "gamma", lambda part, a, r: gamma(make_partition([eminus(1, 2), eminus(2, 3)]), a, r),
        ("injective",), "gamma not injective at ((Root(kind='minus', i=1, j=3), 1),)"),
    "invert-wrongly": (
        "gamma_inverse", lambda seq: make_partition([eminus(1, 3)]),
        ("roundtrip_ok",), "roundtrip failed at ((Root(kind='minus', i=1, j=2), 1), "
                           "(Root(kind='minus', i=2, j=3), 1))"),
    "miscount-capacity": (
        "count_capacity_restricted", lambda *a: count_capacity_restricted(*a) + 1,
        ("capacity_equal",), "capacity-restricted counts disagree"),
}


@pytest.mark.parametrize("fault", PLANTED_FAULTS)
def test_verify_correspondence_flags_a_planted_fault(monkeypatch, fault):
    name, fake, flags, text = PLANTED_FAULTS[fault]
    assert verify_correspondence((1, 0, -1), capacity=1).ok
    monkeypatch.setattr(bijection, name, fake)
    report = verify_correspondence((1, 0, -1), capacity=1)
    assert [getattr(report, flag) for flag in flags] == [False] * len(flags)
    assert report.ok is False
    assert report.first_mismatch == text


def test_verify_correspondence_rejects_nonzero_sum():
    with pytest.raises(DomainError):
        verify_correspondence((1, 0, 0))


def test_verify_correspondence_with_restriction_and_capacity():
    lam = [eminus(1, 2), eminus(2, 3), eminus(3, 4), eminus(4, 5),
           eminus(1, 4), eminus(2, 5)]
    report = verify_correspondence((1, 1, 0, -1, -1), allowed=lam)
    assert report.ok and report.partition_count == 4
    report = verify_correspondence((1, 1, 0, -1, -1), capacity=2)
    assert report.ok and report.capacity_equal


def test_net_change_target():
    assert net_change_target((1, 1), (1, 1), 3) == (1, 1, 0, -1, -1)
    assert net_change_target((2, 0, -1), (1,), 1) == (2, -1, -1)
    assert net_change_target((), (), 2) == (0, 0)


def test_time_bounded_roots():
    lam = time_bounded_roots(1, 3)
    assert lam == (eminus(1, 2), eminus(1, 3))
    assert len(time_bounded_roots(3, 4)) == 6  # all of rank three


def test_capacity_correspondence_with_magic_start():
    # magic entries in the start state loosen the landing budgets
    a, b = (2, 0, -1), (1,)
    for n in (1, 2, 3):
        target = net_change_target(a, b, n)
        lam = time_bounded_roots(n, len(target))
        for m in (1, 2, 3):
            from kjuggle.kostant import count_capacity_restricted
            assert (count_sequences(a, b, n, m)
                    == count_capacity_restricted(target, lam, a, m))


def test_random_stress_restriction_capacity_and_magic_together():
    import random

    from kjuggle.kostant import count_capacity_restricted

    rng = random.Random(424242)
    for _ in range(600):
        a = tuple(rng.randint(-1, 2) for _ in range(rng.randint(1, 4)))
        b = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3)))
        n = rng.randint(1, 4)
        m = rng.choice([1, 2, 3, None])
        target = net_change_target(a, b, n)
        lam = [r for r in time_bounded_roots(n, len(target)) if rng.random() < 0.7]
        ts = throwset_of_roots(lam) if lam else ThrowSet.from_throws([])
        js = count_sequences(a, b, n, m, ts)
        if m is None:
            q = count_partitions(target, lam)
        else:
            q = count_capacity_restricted(target, lam, a, m)
        assert js == q, (a, b, n, m, lam)


def test_restricted_count_equality_small_grid():
    full = positive_roots("A", 3)
    lam = [eminus(1, 2), eminus(1, 4), eminus(2, 3), eminus(3, 4)]
    ts = throwset_of_roots(lam)
    for head in product(range(-1, 2), repeat=3):
        mu = head + (-sum(head),)
        if abs(mu[3]) > 2:
            continue
        assert count_partitions(mu, lam) == count_sequences(
            (mu[0], mu[1], mu[2]), (sum(head),), 3, None, ts)
        assert count_partitions(mu, full) == count_sequences(
            (mu[0], mu[1], mu[2]), (sum(head),), 3)
