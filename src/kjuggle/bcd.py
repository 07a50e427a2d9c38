"""Types B, C, D: two-conveyor juggling, reduction to type A, and the
highest-root counting identities.

The second conveyor holds reflected balls: downward throws put them there,
they only descend, and they leave by cancelling a standard ball at height
one.  Drops remove standard balls singly (B) or in pairs (C); type D allows
neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement
from operator import lshift, sub

from .errors import DomainError
from .juggling import count_sequences, normalize_state
from .kostant import (Partition, count_partitions, count_weighted,
                      make_partition, partition_parts, partition_weight)
from .roots import (MINUS, PLUS, SINGLE, Root, edouble, eminus, eplus,
                    esingle, check_type_rank, highest_root, positive_roots,
                    root_to_weight)

UP, DOWN, SINGLE_DROP, DOUBLE_DROP, CANCEL = "up", "down", "drop1", "drop2", "cancel"


@dataclass(frozen=True)
class BcdState:
    """A standard conveyor (signed) and a reflected conveyor (nonnegative)."""

    standard: tuple
    reflected: tuple

    def __post_init__(self):
        object.__setattr__(self, "standard", normalize_state(self.standard))
        object.__setattr__(self, "reflected", normalize_state(self.reflected))
        if any(x < 0 for x in self.reflected):
            raise DomainError("reflected conveyor entries must be nonnegative")

    @property
    def empty(self) -> bool:
        return not self.standard and not self.reflected


def bcd_successors(lie_type: str, state: BcdState, time: int, max_landing: int):
    """All (state, events) pairs reachable in one step.

    Reflected balls at height one must each cancel a standard ball; the
    leftover standard balls are thrown upward, thrown downward, or dropped
    according to the type.  Events are (kind, height) pairs, height 0 for
    drops and cancellations.
    """
    if lie_type not in ("B", "C", "D"):
        raise DomainError("two-conveyor juggling is defined for types B, C, D")
    s, t = state.standard, state.reflected
    s1 = s[0] if s else 0
    t1 = t[0] if t else 0
    if s1 < 0 or t1 > s1:
        return []
    base_s, base_t = s[1:], t[1:]
    avail = s1 - t1
    cancels = ((CANCEL, 0),) * t1
    heights = range(1, max_landing - time + 1)
    slots = [(UP, j) for j in heights] + [(DOWN, j) for j in heights]
    if lie_type == "B":
        drop_choices = range(avail + 1)
    elif lie_type == "C":
        drop_choices = range(0, avail + 1, 2)
    else:
        drop_choices = range(1)
    out = []
    for dropped in drop_choices:
        if lie_type == "B":
            drops = ((SINGLE_DROP, 0),) * dropped
        else:
            drops = ((DOUBLE_DROP, 0),) * (dropped // 2)
        for combo in combinations_with_replacement(slots, avail - dropped):
            new_s = list(base_s)
            new_t = list(base_t)
            for kind, j in combo:
                target = new_s if kind == UP else new_t
                while len(target) < j:
                    target.append(0)
                target[j - 1] += 1
            events = tuple(sorted(cancels + drops + combo))
            out.append((BcdState(tuple(new_s), tuple(new_t)), events))
    return out


@dataclass(frozen=True)
class BcdSequence:
    states: tuple
    events: tuple  # (time, kind, height), sorted


def enumerate_bcd_sequences(lie_type: str, initial: BcdState, n: int):
    """All two-conveyor sequences of length n from `initial` to the empty state."""
    if lie_type not in ("B", "C", "D"):
        raise DomainError("two-conveyor juggling is defined for types B, C, D")

    def dead(state: BcdState, time: int) -> bool:
        s, t = state.standard, state.reflected
        return (any(x > 0 and time + k + 1 > n for k, x in enumerate(s))
                or any(x > 0 and time + k + 1 > n for k, x in enumerate(t)))

    if dead(initial, 0):
        return []
    found = []
    states = [initial]
    events: list[tuple] = []

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
    del rec  # it refers to itself: free the walk now, not at a collection
    return found


def bcd_sequence_partition(seq: BcdSequence) -> Partition:
    """The multiset of roots read off a two-conveyor sequence's events."""
    parts = []
    for time, kind, h in seq.events:
        if kind == UP:
            parts.append(eminus(time, time + h))
        elif kind == DOWN:
            parts.append(eplus(time, time + h))
        elif kind == SINGLE_DROP:
            parts.append(esingle(time))
        elif kind == DOUBLE_DROP:
            parts.append(edouble(time))
    return make_partition(parts)


@lru_cache(maxsize=None)
def _walked_steps(lie_type: str, rank: int, literal: bool, bits: int) -> tuple[int, ...]:
    """The walked roots' prefix sums, packed bits-wide (field k at bit
    bits * k), in canonical root order: the e_i - e_j roots when `literal`,
    the others otherwise."""
    return tuple(sum(g << bits * k for k, g in enumerate(accumulate(root_to_weight(r, rank))))
                 for r in positive_roots(lie_type, rank) if (r.kind == MINUS) == literal)


def _leaves(lie_type: str, rank: int, mu: tuple, literal: bool) -> dict:
    """The {residual: configurations} mapping of the reduction's walk, for a
    checked weight: a configuration is a multiset of walked roots, and its
    residual is mu minus their sum.

    A node packs the residual's prefix sums into one int, field k at bit
    bits * k biased by half = 2^(bits-1), with half above every prefix sum
    of mu and at least 2.  A walked root's prefix sums lie in 0..2, so one
    copy is one subtraction that never borrows across fields, and a child
    is kept iff every field keeps its top bit (no prefix sum below zero).
    A node's children take copies of the roots after the node's own last
    one, all copies of one root in a loop, so each multiset is one node and
    the recursion is no deeper than the number of walked roots.  A node
    whose top field equals half (coordinate sum zero) is a leaf; walked
    roots of positive sum cannot extend it.
    """
    pre = list(accumulate(mu))
    if min(pre) < 0 or literal and pre[-1] != 0:
        return {}
    bits = max(max(pre), 1).bit_length() + 1
    half = 1 << bits - 1
    mask = (1 << bits) - 1
    tops = half * (((1 << bits * rank) - 1) // mask)  # half in every field
    shifts = range(0, bits * rank, bits)
    top = shifts[-1]
    steps = _walked_steps(lie_type, rank, literal, bits)
    count = len(steps)
    root = tops + sum(map(lshift, pre, shifts))
    packed = {root: 1} if root >> top == half else {}  # leaf node -> configurations

    def rec(start, w):
        for k in range(start, count):
            step = steps[k]
            child = w - step
            while child & tops == tops:
                if child >> top == half:
                    packed[child] = packed.get(child, 0) + 1
                    if not literal:
                        break
                rec(k + 1, child)
                child -= step

    if literal or not packed:
        rec(0, root)
    del rec  # it refers to itself
    leaves = {}
    for w, ways in packed.items():
        sums = [(w >> s & mask) - half for s in shifts]
        leaves[tuple(map(sub, sums, [0] + sums))] = ways
    return leaves


def _reduction(lie_type: str, rank: int, mu, literal: bool) -> int:
    """Sum, over multiplicity configurations of the walked roots (the
    e_i - e_j roots when `literal`, the others otherwise), of the number of
    e_i - e_j partitions of what remains.

    The walk's leaves go into one {residual: configurations} mapping,
    counted in a single count_weighted call (exact: the count is linear in
    the mapping); see `_leaves` for the walk.
    """
    if lie_type not in ("B", "C", "D"):
        raise DomainError("the reduction applies to types B, C, D")
    check_type_rank(lie_type, rank)
    mu = tuple(mu)
    if len(mu) != rank:
        raise DomainError(f"weight has length {len(mu)}, ambient dimension is {rank}")
    minus_roots = tuple(r for r in positive_roots(lie_type, rank) if r.kind == MINUS)
    return count_weighted(_leaves(lie_type, rank, mu, literal), minus_roots)


def schmidt_bincer_count(lie_type: str, rank: int, mu) -> int:
    """Reduce a B/C/D partition count to a sum of type-A counts: the walk
    ranges over configurations of the roots outside the e_i - e_j family."""
    return _reduction(lie_type, rank, mu, literal=False)


def schmidt_bincer_literal(lie_type: str, rank: int, mu) -> int:
    """Diagnostic: the alternate reading with configurations ranging over the
    e_i - e_j roots themselves.  Configurations of those roots preserve the
    coordinate sum, so any weight with nonzero sum yields 0; on type-A weights
    it overcounts instead."""
    return _reduction(lie_type, rank, mu, literal=True)


def highest_root_juggling(lie_type: str, rank: int) -> int:
    """The type-A juggling count equal to the B/C/D highest-root partition count."""
    check_type_rank(lie_type, rank)
    if lie_type not in ("B", "C", "D"):
        raise DomainError("highest-root identities cover types B, C, D")
    if lie_type == "B":
        return count_sequences((1, 1), (1, 1), rank)
    if lie_type == "C":
        return count_sequences((2,), (2,), rank)
    return 5 * count_sequences((1, 1), (1, 1), rank - 2)


def count_highest_root_bcd(lie_type: str, rank: int) -> dict:
    """The highest-root partition count by three routes that must agree:
    brute force, the matching type-A juggling count, and the reduction."""
    juggling = highest_root_juggling(lie_type, rank)
    alpha = highest_root(lie_type, rank)
    return {
        "oracle": count_partitions(alpha, positive_roots(lie_type, rank)),
        "juggling": juggling,
        "schmidt_bincer": schmidt_bincer_count(lie_type, rank, alpha),
    }


def _split_parts(partition: Partition):
    parts = list(partition_parts(partition))
    by_kind: dict[str, list[Root]] = {}
    for root in parts:
        by_kind.setdefault(root.kind, []).append(root)
    return parts, by_kind


def _validate_partition(partition: Partition, lie_type: str, rank: int, target) -> None:
    allowed = set(positive_roots(lie_type, rank))
    for root in partition_parts(partition):
        if root not in allowed:
            raise DomainError(f"root {root} is not a positive root of {lie_type}_{rank}")
    if partition_weight(partition, len(target)) != tuple(target):
        raise DomainError("partition does not sum to the expected weight")


def b_to_a_map(partition: Partition, rank: int) -> Partition:
    """Send a partition of the B_r highest root to one of
    e1+e2-e_{r+1}-e_{r+2} over the e_i - e_j roots of ambient r+2 (with the
    bottom root e_{r+1}-e_{r+2} never used)."""
    check_type_rank("B", rank)
    _validate_partition(partition, "B", rank, highest_root("B", rank))
    parts, by_kind = _split_parts(partition)
    minus = by_kind.get(MINUS, [])
    plus = by_kind.get(PLUS, [])
    single = by_kind.get(SINGLE, [])
    if len(plus) == 1 and not single:
        i, j = plus[0].i, plus[0].j
        new = minus + [eminus(i, rank + 2), eminus(j, rank + 1)]
    elif len(single) == 2 and not plus:
        lo, hi = sorted(s.i for s in single)
        new = minus + [eminus(hi, rank + 2), eminus(lo, rank + 1)]
    else:
        raise DomainError("partition is not a partition of the B highest root")
    return make_partition(new)


def b_to_a_inverse(partition: Partition, rank: int) -> Partition:
    """Inverse of b_to_a_map."""
    check_type_rank("B", rank)
    ambient = rank + 2
    target = [0] * ambient
    target[0] = target[1] = 1
    target[rank] = target[rank + 1] = -1
    parts = list(partition_parts(partition))
    if any(r.kind != MINUS for r in parts):
        raise DomainError("expected a partition into e_i - e_j roots")
    expected = partition_weight(partition, ambient)
    if expected != tuple(target):
        raise DomainError("partition does not sum to e1+e2-e_{r+1}-e_{r+2}")
    last = [r for r in parts if r.j == ambient]
    mid = [r for r in parts if r.j == ambient - 1]
    if len(last) != 1 or len(mid) != 1:
        raise DomainError("partition must use the two terminal coordinates exactly once each")
    if last[0].i == ambient - 1:
        raise DomainError(f"root {last[0]} is excluded from the restricted root set")
    others = [r for r in parts if r.j < ambient - 1]
    i, j = last[0].i, mid[0].i
    if i < j:
        others.append(eplus(i, j))
    else:
        others.extend([esingle(i), esingle(j)])
    return make_partition(others)


def c_to_a_map(partition: Partition, rank: int) -> Partition:
    """Send a partition of the C_r highest root 2e1 to one of
    2e1-2e_{r+1} over the e_i - e_j roots of ambient r+1."""
    check_type_rank("C", rank)
    _validate_partition(partition, "C", rank, highest_root("C", rank))
    parts, by_kind = _split_parts(partition)
    minus = by_kind.get(MINUS, [])
    extra = [r for r in parts if r.kind != MINUS]
    if len(extra) != 1:
        raise DomainError("partition is not a partition of the C highest root")
    root = extra[0]
    if root.kind == PLUS:
        new = minus + [eminus(root.i, rank + 1), eminus(root.j, rank + 1)]
    else:
        new = minus + [eminus(root.i, rank + 1)] * 2
    return make_partition(new)


def c_to_a_inverse(partition: Partition, rank: int) -> Partition:
    """Inverse of c_to_a_map."""
    check_type_rank("C", rank)
    ambient = rank + 1
    target = [0] * ambient
    target[0] = 2
    target[ambient - 1] = -2
    parts = list(partition_parts(partition))
    if any(r.kind != MINUS for r in parts):
        raise DomainError("expected a partition into e_i - e_j roots")
    if partition_weight(partition, ambient) != tuple(target):
        raise DomainError("partition does not sum to 2e1-2e_{r+1}")
    tail = sorted(r.i for r in parts if r.j == ambient)
    if len(tail) != 2:
        raise DomainError("partition must use the terminal coordinate exactly twice")
    others = [r for r in parts if r.j < ambient]
    i, j = tail
    others.append(edouble(i) if i == j else eplus(i, j))
    return make_partition(others)
