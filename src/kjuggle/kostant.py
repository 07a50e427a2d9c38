"""Partitions of a weight into positive roots: enumeration and counting.

A partition is stored as a canonically sorted tuple of (root, multiplicity)
pairs.  Both engines take the allowed roots in canonical order and bound each
multiplicity by the coordinates the remaining roots can no longer raise, so
multisets are produced exactly once.  Enumeration is liveness-guided: a
per-call memo keeps each node's children that can still reach zero, and the
walk descends only into those, in an order that emits partitions canonically
with no sort.  Counting runs forward over a layer of {residual weight: ways},
one (kind, i) group of roots at a time, so equal residuals merge.
"""

from __future__ import annotations

from itertools import groupby

from .errors import DomainError
from .roots import DOUBLE, MINUS, PLUS, SINGLE, Root, root_to_weight

Partition = tuple  # tuple[tuple[Root, int], ...]


def canonical_roots(roots) -> tuple[Root, ...]:
    """Deduplicate and sort a root collection into canonical order."""
    return tuple(sorted(set(roots), key=Root.sort_key))


def partition_weight(partition: Partition, ambient: int) -> tuple[int, ...]:
    """Sum of the parts of a partition, as a coordinate vector."""
    total = [0] * ambient
    for root, mult in partition:
        for k, x in enumerate(root_to_weight(root, ambient)):
            total[k] += mult * x
    return tuple(total)


def partition_parts(partition: Partition):
    """Expand a partition into its parts, repeating by multiplicity."""
    for root, mult in partition:
        for _ in range(mult):
            yield root


def make_partition(parts) -> Partition:
    """Build the canonical (root, multiplicity) form from an iterable of roots."""
    counts: dict[Root, int] = {}
    for root in parts:
        counts[root] = counts.get(root, 0) + 1
    return tuple(sorted(counts.items(), key=lambda it: it[0].sort_key()))


def _max_mult(root: Root, w) -> int:
    """Largest multiplicity of `root` that can still lead to a zero residual.

    Later canonical roots never raise the coordinates consumed here, so the
    bound is exact: a negative bound means the branch is dead.
    """
    if root.kind == MINUS:
        return w[root.i - 1]
    if root.kind == PLUS:
        return min(w[root.i - 1], w[root.j - 1])
    if root.kind == SINGLE:
        return w[root.i - 1]
    return w[root.i - 1] // 2


def _subtract(w, root: Root, mult: int):
    out = list(w)
    if root.kind == MINUS:
        out[root.i - 1] -= mult
        out[root.j - 1] += mult
    elif root.kind == PLUS:
        out[root.i - 1] -= mult
        out[root.j - 1] -= mult
    elif root.kind == SINGLE:
        out[root.i - 1] -= mult
    else:
        out[root.i - 1] -= 2 * mult
    return tuple(out)


def _check_ambient(target, roots):
    ambient = len(target)
    for root in roots:
        top = root.j if root.kind in (MINUS, PLUS) else root.i
        if top > ambient:
            raise DomainError(f"root {root} does not fit in ambient dimension {ambient}")
    return ambient


def count_weighted(targets, allowed) -> int:
    """Sum over a {weight: ways} mapping of ways times the number of
    partitions of the weight into the allowed roots (linear in the mapping).

    One forward layer DP, one (kind, i) group of roots at a time.  In a group,
    weights are bucketed by the copies coordinate i can still pay for (level
    0 skips or leaves the group); per root, the buckets are swept downward,
    each receiving the one above minus one copy, which sends 0..max copies
    in one step per distinct residual.
    """
    roots = canonical_roots(allowed)
    layer: dict = {}
    for target, ways in targets.items():
        target = tuple(target)
        _check_ambient(target, roots)
        layer[target] = layer.get(target, 0) + ways
    pure = all(r.kind == MINUS for r in roots)
    for (kind, i), group in groupby(roots, key=lambda r: (r.kind, r.i)):
        k = i - 1
        need = 2 if kind == DOUBLE else 1
        out: dict = {}
        levels: dict = {}
        # Prunes: past the e_i - e_j roots no root raises a coordinate; from
        # an e_i - e_j group on, nothing raises coordinate i, and a pure
        # e_i - e_j set never touches the coordinates below i again.
        for w, ways in layer.items():
            if kind != MINUS:
                if min(w) < 0:
                    continue
            elif w[k] < 0 or (pure and any(w[:k])):
                continue
            levels.setdefault(w[k] // need, {})[w] = ways
        for root in group:
            nxt: dict = {}
            above: dict = {}
            for c in range(max(levels, default=0), -1, -1):
                cur = levels.get(c, {})
                for w, ways in above.items():
                    # Coordinates stay nonnegative in a mixed group, so only
                    # e_i + e_j can run out of copies before its level does.
                    if kind != PLUS or w[root.j - 1]:
                        r = _subtract(w, root, 1)
                        cur[r] = cur.get(r, 0) + ways
                if c:
                    nxt[c] = cur
                else:
                    for w, ways in cur.items():
                        out[w] = out.get(w, 0) + ways
                above = cur
            levels = nxt
        for cur in levels.values():  # keys disjoint from out's: w[k] >= need
            out.update(cur)
        layer = out
    return sum(ways for w, ways in layer.items() if not any(w))


def count_partitions(target, allowed) -> int:
    """Number of multisets of allowed roots summing to the target weight.

    The empty weight has exactly one partition (the empty one).
    """
    return count_weighted({tuple(target): 1}, allowed)


def enumerate_partitions(target, allowed) -> list[Partition]:
    """All partitions of the target into allowed roots, canonically ordered."""
    target = tuple(target)
    roots = canonical_roots(allowed)
    _check_ambient(target, roots)
    n = len(roots)
    first_mixed = next((k for k, r in enumerate(roots) if r.kind != MINUS), n)
    memo: dict = {}
    found: list[Partition] = []
    chosen: list[tuple[Root, int]] = []

    def live_children(idx, w) -> list:
        """The (mult, residual) children of node (idx, w) from which the later
        roots can still reach zero, mult 1..bound then 0; empty if it is dead.
        Every tuple below a mult-0 child continues with a later root, so this
        order emits partitions canonically (no tuple ends at mult 0, as
        positive roots never sum to zero)."""
        key = (idx, w)
        out = memo.get(key)
        if out is not None:
            return out
        out = []
        if idx < n:
            root = roots[idx]
            dead = (min(w) < 0 if idx >= first_mixed else
                    w[root.i - 1] < 0 or (first_mixed == n and any(w[:root.i - 1])))
            if not dead:
                for mult in (*range(1, _max_mult(root, w) + 1), 0):
                    child = _subtract(w, root, mult) if mult else w
                    if not any(child) or live_children(idx + 1, child):
                        out.append((mult, child))
        memo[key] = out
        return out

    def rec(idx, w):
        if not any(w):
            found.append(tuple(chosen))
            return
        root = roots[idx]
        for mult, child in memo[idx, w]:
            if mult:
                chosen.append((root, mult))
            rec(idx + 1, child)
            if mult:
                chosen.pop()

    if not any(target) or live_children(0, target):
        rec(0, target)
    return found


def type_a_reachable(weight) -> bool:
    """Whether a weight is a nonnegative sum of e_i - e_j roots: all prefix
    sums nonnegative and total zero."""
    acc = 0
    for x in weight:
        acc += x
        if acc < 0:
            return False
    return acc == 0


def count_capacity_restricted(target, allowed, initial, capacity: int) -> int:
    """Partitions of the target into e_i - e_j roots obeying the hand-capacity
    inequality: for every coordinate j, initial_j plus the number of parts
    with negative entry at j stays at most the capacity.
    """
    target = tuple(target)
    roots = canonical_roots(allowed)
    ambient = _check_ambient(target, roots)
    if any(r.kind != MINUS for r in roots):
        raise DomainError("capacity-restricted counting is defined only for e_i - e_j roots")
    if capacity < 1:
        raise DomainError("capacity must be a positive integer")
    initial = tuple(initial)
    budgets = tuple(capacity - (initial[k] if k < len(initial) else 0) for k in range(ambient))
    if min(budgets, default=0) < 0:
        return 0
    n = len(roots)
    memo: dict = {}

    def rec(idx, w, bud):
        if not any(w):
            return 1
        if idx == n:
            return 0
        key = (idx, w, bud)
        cached = memo.get(key)
        if cached is not None:
            return cached
        root = roots[idx]
        if w[root.i - 1] < 0 or any(w[k] for k in range(root.i - 1)):
            memo[key] = 0
            return 0
        bound = min(w[root.i - 1], bud[root.j - 1])
        total = 0
        for mult in range(bound + 1):
            if mult:
                nb = list(bud)
                nb[root.j - 1] -= mult
                total += rec(idx + 1, _subtract(w, root, mult), tuple(nb))
            else:
                total += rec(idx + 1, w, bud)
        memo[key] = total
        return total

    return rec(0, target, budgets)
