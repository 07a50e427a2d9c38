"""The correspondence between root partitions and juggling sequences.

A throw at time i to height j matches the root e_i - e_{i+j}; extending that
match to multisets turns a partition of a weight into a juggling sequence and
back.  verify_correspondence exercises both directions against each other.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DomainError
from .juggling import (ALL_THROWS, JugglingSequence, Throw, ThrowSet, _apply_throws,
                       count_sequences, enumerate_sequences, normalize_state)
from .kostant import (Partition, canonical_roots, count_capacity_restricted,
                      count_partitions, enumerate_partitions, make_partition,
                      partition_parts)
from .roots import MINUS, Root, eminus, positive_roots


def root_of_throw(throw: Throw) -> Root:
    """The root e_i - e_{i+j} of a throw at time i to height j."""
    return eminus(throw.time, throw.time + throw.height)


def throw_of_root(root: Root) -> Throw:
    """The throw of an e_i - e_j root; other kinds have no throw."""
    if root.kind != MINUS:
        raise DomainError(f"root {root} is not of the form e_i - e_j")
    return Throw(root.i, root.j - root.i)


def throwset_of_roots(roots) -> ThrowSet:
    """The explicit throw set matching a set of e_i - e_j roots."""
    return ThrowSet.from_throws(throw_of_root(r) for r in canonical_roots(roots))


def net_change_target(a, b, n: int) -> tuple[int, ...]:
    """The weight every sequence from a to b of length n partitions:
    the start state minus the end state shifted past the length."""
    a, b = normalize_state(a), normalize_state(b)
    ambient = max(len(a), n + len(b))
    w = [0] * ambient
    for k, x in enumerate(a):
        w[k] += x
    for k, x in enumerate(b):
        w[n + k] -= x
    return tuple(w)


def time_bounded_roots(n: int, ambient: int) -> tuple[Root, ...]:
    """The e_i - e_j roots with i <= n inside the ambient dimension: the
    image of all throws available during a length-n sequence."""
    return tuple(eminus(i, j)
                 for i in range(1, min(n, ambient - 1) + 1)
                 for j in range(i + 1, ambient + 1))


def gamma(partition: Partition, a, n: int) -> JugglingSequence:
    """Build the juggling sequence whose throws are the parts of the partition.

    The partition must consist of e_i - e_j roots with i <= n, and at every
    time the number of parts starting there must equal the balls then at
    height one; otherwise the partition is inconsistent with the start state.
    """
    if n < 1:
        raise DomainError("sequence length must be positive")
    by_time: dict[int, list[int]] = {}
    throws = []
    for root in partition_parts(partition):
        throw = throw_of_root(root)
        if throw.time > n:
            raise DomainError(f"root {root} needs a throw at time {throw.time} > length {n}")
        by_time.setdefault(throw.time, []).append(throw.height)
        throws.append(throw)
    states = [normalize_state(a)]
    for time in range(1, n + 1):
        state = states[-1]
        hand = state[0] if state else 0
        heights = by_time.get(time, ())
        if len(heights) != hand:
            raise DomainError(
                f"partition throws {len(heights)} balls at time {time}, state has {hand}")
        states.append(_apply_throws(state, heights))
    return JugglingSequence(tuple(states), tuple(sorted(throws)))


def gamma_inverse(seq: JugglingSequence) -> Partition:
    """The multiset of roots matching the throws of a sequence."""
    return make_partition(root_of_throw(t) for t in seq.throws)


class CorrespondenceReport(NamedTuple):
    """Outcome of cross-checking partitions against juggling sequences."""

    weight: tuple
    partition_count: int
    sequence_count: int
    counts_equal: bool
    injective: bool
    image_contained: bool
    roundtrip_ok: bool
    capacity_count: int | None
    capacity_equal: bool | None
    first_mismatch: str | None

    @property
    def ok(self) -> bool:
        checks = [self.counts_equal, self.injective, self.image_contained, self.roundtrip_ok]
        if self.capacity_equal is not None:
            checks.append(self.capacity_equal)
        return all(checks)


def verify_correspondence(mu, allowed=None, capacity=None) -> CorrespondenceReport:
    """Check that partitions of mu and the matching juggling sequences agree.

    Compares counts, maps every partition through gamma, and checks
    injectivity, membership in the enumerated sequence set, and the inverse
    roundtrip.  With a capacity, also compares against the capacity-restricted
    partition count.
    """
    mu = tuple(mu)
    if sum(mu) != 0:
        raise DomainError("weight coordinates must sum to zero")
    r = len(mu) - 1
    if r < 1:
        raise DomainError("weight must have at least two coordinates")
    roots = canonical_roots(positive_roots("A", r) if allowed is None else allowed)
    if any(root.kind != MINUS for root in roots):
        raise DomainError("the correspondence is stated for e_i - e_j roots")
    throwset = ALL_THROWS if allowed is None else throwset_of_roots(roots)
    a = normalize_state(mu[:r])
    b = normalize_state((sum(mu[:r]),))

    partitions = enumerate_partitions(mu, roots)
    sequences = enumerate_sequences(a, b, r, None, throwset)
    p_count = count_partitions(mu, roots)
    s_count = count_sequences(a, b, r, None, throwset)
    mismatch = None
    if p_count != len(partitions):
        mismatch = f"count_partitions {p_count} != {len(partitions)} enumerated"
    if s_count != len(sequences):
        mismatch = mismatch or f"count_sequences {s_count} != {len(sequences)} enumerated"
    if p_count != s_count:
        mismatch = mismatch or f"{p_count} partitions != {s_count} sequences"

    seq_set = set(sequences)
    images = set()
    injective = True
    contained = True
    roundtrip = True
    for part in partitions:
        seq = gamma(part, a, r)
        if seq in images:
            injective = False
            mismatch = mismatch or f"gamma not injective at {part}"
        images.add(seq)
        if seq not in seq_set:
            contained = False
            mismatch = mismatch or f"gamma image {seq.states} not an enumerated sequence"
        if gamma_inverse(seq) != part:
            roundtrip = False
            mismatch = mismatch or f"roundtrip failed at {part}"

    capacity_count = None
    capacity_equal = None
    if capacity is not None:
        capacity_count = count_capacity_restricted(mu, roots, a, capacity)
        capacity_equal = capacity_count == count_sequences(a, b, r, capacity, throwset)
        if not capacity_equal:
            mismatch = mismatch or "capacity-restricted counts disagree"

    return CorrespondenceReport(
        weight=mu,
        partition_count=p_count,
        sequence_count=s_count,
        counts_equal=p_count == s_count == len(sequences) == len(partitions),
        injective=injective,
        image_contained=contained,
        roundtrip_ok=roundtrip,
        capacity_count=capacity_count,
        capacity_equal=capacity_equal,
        first_mismatch=mismatch,
    )
