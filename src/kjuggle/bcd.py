"""Types B, C, D: two-conveyor juggling, reduction to type A, and the
highest-root counting identities.

The second conveyor holds reflected balls: downward throws put them there,
they only descend, and they leave by cancelling a standard ball at height
one.  Drops remove standard balls singly (B) or in pairs (C); type D allows
neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

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


EMPTY_BCD = BcdState((), ())


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

    @property
    def length(self) -> int:
        return len(self.states) - 1


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


def _prefix_sums(w):
    acc = 0
    out = []
    for x in w:
        acc += x
        out.append(acc)
    return out


def _reduction(lie_type: str, rank: int, mu, walked) -> int:
    """Sum, over multiplicity configurations of the roots selected by
    `walked`, of the number of e_i - e_j partitions of what remains.

    The leaves go into one {residual: configurations} mapping, counted in a
    single count_weighted call (exact: the count is linear in the mapping).
    Each root's multiplicity is bounded so that no prefix sum of the
    residual goes negative.  When every walked root has a positive
    coordinate sum (the non-e_i - e_j roots of schmidt_bincer_count), a node
    whose residual sums to zero is a leaf at once, with no frame per
    remaining root; the e_i - e_j roots of the literal reading sum to zero,
    so there the walk runs to the last root.
    """
    if lie_type not in ("B", "C", "D"):
        raise DomainError("the reduction applies to types B, C, D")
    check_type_rank(lie_type, rank)
    mu = tuple(mu)
    if len(mu) != rank:
        raise DomainError(f"weight has length {len(mu)}, ambient dimension is {rank}")
    all_roots = positive_roots(lie_type, rank)
    minus_roots = tuple(r for r in all_roots if r.kind == MINUS)
    weights = [root_to_weight(r, rank) for r in all_roots if walked(r)]
    # A positive root's prefix sums are nonnegative, and `bound` never takes
    # a residual prefix sum below zero, so after the check on mu they stay
    # nonnegative and are carried down the walk by subtraction.
    gpres = [_prefix_sums(g) for g in weights]
    steps = [[(k, g) for k, g in enumerate(gpre) if g > 0] for gpre in gpres]
    settled = all(gpre[-1] > 0 for gpre in gpres)
    leaves: dict = {}

    def rec(idx, w, pre):
        if idx == len(weights) or (settled and pre[-1] == 0):
            if pre[-1] == 0:
                leaves[w] = leaves.get(w, 0) + 1
            return
        weight, gpre = weights[idx], gpres[idx]
        bound = min(pre[k] // g for k, g in steps[idx])
        for mult in range(bound + 1):
            rec(idx + 1, w, pre)
            if mult < bound:
                w = tuple(a - b for a, b in zip(w, weight))
                pre = [p - g for p, g in zip(pre, gpre)]

    pre = _prefix_sums(mu)
    if min(pre) >= 0:
        rec(0, mu, pre)
    return count_weighted(leaves, minus_roots)


def schmidt_bincer_count(lie_type: str, rank: int, mu) -> int:
    """Reduce a B/C/D partition count to a sum of type-A counts: the walk
    ranges over configurations of the roots outside the e_i - e_j family."""
    return _reduction(lie_type, rank, mu, lambda r: r.kind != MINUS)


def schmidt_bincer_literal(lie_type: str, rank: int, mu) -> int:
    """Diagnostic: the alternate reading with configurations ranging over the
    e_i - e_j roots themselves.  Configurations of those roots preserve the
    coordinate sum, so any weight with nonzero sum yields 0; on type-A weights
    it overcounts instead."""
    return _reduction(lie_type, rank, mu, lambda r: r.kind == MINUS)


def count_highest_root_bcd(lie_type: str, rank: int) -> dict:
    """The highest-root partition count by three routes that must agree:
    brute force, the matching type-A juggling count, and the reduction."""
    check_type_rank(lie_type, rank)
    if lie_type not in ("B", "C", "D"):
        raise DomainError("highest-root identities cover types B, C, D")
    alpha = highest_root(lie_type, rank)
    oracle = count_partitions(alpha, positive_roots(lie_type, rank))
    if lie_type == "B":
        juggling = count_sequences((1, 1), (1, 1), rank)
    elif lie_type == "C":
        juggling = count_sequences((2,), (2,), rank)
    else:
        juggling = 5 * count_sequences((1, 1), (1, 1), rank - 2)
    return {
        "oracle": oracle,
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
