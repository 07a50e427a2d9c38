"""Partitions of a weight into positive roots: enumeration and counting.

A partition is stored as a canonically sorted tuple of (root, multiplicity)
pairs.  Both engines take the allowed roots in canonical order and bound each
multiplicity by the coordinates the remaining roots can no longer raise, so
multisets are produced exactly once.  Enumeration is liveness-guided: a
per-call memo keeps, for each (root index, residual) node, its live entries,
one per positive part that can still reach zero, with the entries of the
part's own remainder below it; skipped roots are spliced out, so the walk
spends one frame per positive part (a root group that the residual cannot
pay for is stepped past in one) and emits partitions canonically with no
sort.  The memo is freed by reference counting when the call returns: the
walk's self-calling closures are deleted, so no cycle holds it.  Counting
runs forward over a layer of {residual weight: ways}, one (kind, i) group of
roots at a time, so equal residuals merge; there each residual is packed
into one int of fixed-width biased fields, so a copy of a root is one
subtraction and each prune one mask test.  For e_i - e_j roots
alone the fields hold prefix sums, so a residual with a negative one is
dropped as dead, and a group's last root sends every copy left in one move.
The capacity-restricted count is the same sweep with a cap on each
coordinate, checked when the sweep reaches it.
"""

from __future__ import annotations

from itertools import accumulate, groupby
from operator import attrgetter

from .errors import DomainError
from .roots import DOUBLE, MINUS, PLUS, Root

Partition = tuple  # tuple[tuple[Root, int], ...]


def canonical_roots(roots) -> tuple[Root, ...]:
    """Deduplicate and sort a root collection into canonical order."""
    unique = {root.key: root for root in roots}
    return tuple([unique[key] for key in sorted(unique)])


def partition_weight(partition: Partition, ambient: int) -> tuple[int, ...]:
    """Sum of the parts of a partition, as a coordinate vector."""
    _check_ambient(ambient, [root for root, _ in partition])
    total = [0] * ambient
    for root, mult in partition:
        for k, x in root.terms:
            total[k - 1] += mult * x
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
    return tuple(sorted(counts.items(), key=lambda it: it[0].key))


def _max_mult(root: Root, w) -> int:
    """Largest multiplicity of `root` that can still lead to a zero residual.

    Later canonical roots never raise the coordinates consumed here, so the
    bound is exact: a negative bound means the branch is dead.  (A loop, not
    a comprehension, whose frame would double the cost of this hot call.)
    """
    top = None
    for k, x in root.terms:
        if x > 0 and (top is None or w[k - 1] // x < top):
            top = w[k - 1] // x
    return top


def _subtract(w, root: Root, mult: int):
    out = list(w)
    for k, x in root.terms:
        out[k - 1] -= mult * x
    return tuple(out)


def _check_ambient(ambient: int, roots) -> None:
    for root in roots:
        if root.terms[-1][0] > ambient:
            raise DomainError(f"root {root} does not fit in ambient dimension {ambient}")


def _sweep(targets, roots, ceiling=None) -> int:
    """The layer DP of count_weighted over a {weight: ways} mapping and
    canonical roots that fit every target, on packed residuals; `ceiling`,
    if given (e_i - e_j roots only), caps w[i] as a level at group i's entry
    (a coordinate with no group of its own is the caller's to check)."""
    span = max((sum(map(abs, w)) for w in targets), default=0)
    half = 1 << span.bit_length()
    bits = span.bit_length() + 1
    mask = (half << 1) - 1
    bias = sum(half << bits * k for k in range(max(map(len, targets), default=0)))
    pure = not roots or roots[-1].kind == MINUS  # canonical order: e_i - e_j first
    layer: dict = {}
    for target, ways in targets.items():
        if pure:
            target = tuple(accumulate(target))
            if target and target[-1]:  # a nonzero total has no partition
                continue
        w = bias + sum(x << bits * k for k, x in enumerate(target))
        layer[w] = layer.get(w, 0) + ways
    for (kind, i), group in groupby(roots, key=attrgetter("kind", "i")):
        if not layer:
            return 0
        shift = bits * (i - 1)
        need = 2 if kind == DOUBLE else 1
        cap = ceiling[i - 1] if ceiling is not None else span  # no level passes span
        # Prunes, w & keep != want: a pure set never changes the prefix sums
        # below i again, and none may be negative; in a mixed set nothing
        # raises coordinate i from its e_i - e_j group on, nor any
        # coordinate past the e_i - e_j roots.
        if pure:
            keep, want = bias | ((1 << shift) - 1), bias
        elif kind == MINUS:
            keep = want = half << shift
        else:
            keep = want = bias
        out: dict = {}
        levels: dict = {}
        for w, ways in layer.items():
            if w & keep != want:
                continue
            c = (((w >> shift) & mask) - half) // need
            if c > cap:
                continue
            if c:
                levels.setdefault(c, {})[w] = ways
            else:
                out[w] = ways
        # One copy of each root is delta; an e_i + e_j copy is sent only
        # while w[j] > 0, that is while w & sel >= lo (sel = 0: always).
        steps = []
        for root in group if levels else ():
            sel = lo = 0
            if pure:  # prefix sums i..j-1 each lose one
                delta = ((1 << bits * (root.j - 1)) - (1 << shift)) // mask
            else:
                delta = 0
                for k, x in root.terms:
                    delta += x << bits * (k - 1)
            if kind == PLUS:
                j = bits * (root.j - 1)
                sel, lo = mask << j, (half + 1) << j
            steps.append((delta, sel, lo))
        last = steps.pop()[0] if pure and steps else None
        for delta, sel, lo in steps:
            nxt: dict = {}
            above: dict = {}
            for c in range(max(levels), -1, -1):
                cur = levels.get(c, {}) if c else out
                if sel:
                    for w, ways in above.items():
                        if w & sel >= lo:
                            r = w - delta
                            cur[r] = cur.get(r, 0) + ways
                else:
                    for w, ways in above.items():
                        r = w - delta
                        cur[r] = cur.get(r, 0) + ways
                if c:
                    nxt[c] = cur
                above = cur
            levels = nxt
        if last is not None:  # nothing after a pure group touches coordinate i
            for c, cur in levels.items():
                drop = c * last
                for w, ways in cur.items():
                    r = w - drop
                    out[r] = out.get(r, 0) + ways
        else:
            for cur in levels.values():  # keys disjoint from out's: w[i] >= need
                out.update(cur)
        layer = out
    return layer.get(bias, 0)


def count_weighted(targets, allowed) -> int:
    """Sum over a {weight: ways} mapping of ways times the number of
    partitions of the weight into the allowed roots (linear in the mapping).

    One forward layer DP, one (kind, i) group of roots at a time.  In a group,
    weights are bucketed by the copies coordinate i can still pay for (level
    0 skips or leaves the group); per root, the buckets are swept downward,
    each receiving the one above minus one copy, which sends 0..max copies
    in one step per distinct residual.

    A residual is one int of bits-wide fields, field k at bit bits * k
    holding a value plus half = 2^(bits-1), where half > P, the largest
    sum(abs(target)); no field borrows from its neighbour, a copy is one
    subtraction, and a field's top bit is set iff its value is >= 0.

    With e_i - e_j roots alone, field k holds the prefix sum w_1 + ... +
    w_(k+1); a copy of e_i - e_j lowers fields i-1..j-2 by one.  A target
    with a nonzero total is skipped.  Every positive root has nonnegative
    prefix sums, so at group entry a residual is dropped as dead if one is
    negative or one below field i-1 is nonzero (no later root changes
    those); the level is then field i-1 itself, and the group's last root
    sends all the copies left in one subtraction, as nothing after the group
    touches coordinate i.  Prefix sums start in [-P/2, P/2], only fall, are
    nonnegative at group entry, and a group lowers each by at most its
    level, itself <= P/2.  Mixed root sets keep one coordinate per field:
    those stay in [-P, P], as an e_i - e_j copy is sent only while w[i] > 0
    and any other only lowers nonnegative coordinates.
    """
    roots = canonical_roots(allowed)
    for ambient in dict.fromkeys(map(len, targets)):  # first seen first: the same error
        _check_ambient(ambient, roots)
    return _sweep(targets, roots)


def count_partitions(target, allowed) -> int:
    """Number of multisets of allowed roots summing to the target weight.

    The empty weight has exactly one partition (the empty one).
    """
    return count_weighted({tuple(target): 1}, allowed)


def enumerate_partitions(target, allowed) -> list[Partition]:
    """All partitions of the target into allowed roots, canonically ordered;
    each memo node is expanded once, and the walk follows live entries only."""
    target = tuple(target)
    roots = canonical_roots(allowed)
    _check_ambient(len(target), roots)
    if not any(target):
        return [()]
    n = len(roots)
    first_mixed = next((k for k, r in enumerate(roots) if r.kind != MINUS), n)
    group_end = [n] * n  # the index past root k's (kind, i) group
    for k in range(n - 2, -1, -1):
        same = roots[k].kind == roots[k + 1].kind and roots[k].i == roots[k + 1].i
        group_end[k] = group_end[k + 1] if same else k + 1
    memo: dict = {}
    found: list[Partition] = []

    def live(idx, w) -> list:
        """The live entries of the nonzero residual w from root idx on: one
        ((root, mult), below) per positive part that can still lead to zero,
        below being the live entries of what remains after it (from the next
        root on), or None when nothing remains; empty if w is dead.  A root's
        own parts come first, mult ascending, then the entries of skipping it
        (the mult-0 child spliced in place), which is canonical order.  When
        coordinate i cannot pay for one copy, no root of the (kind, i) group
        can, and the walk steps past the whole group in one call."""
        key = (idx, w)
        out = memo.get(key)
        if out is not None:
            return out
        out = []
        if idx < n:
            root = roots[idx]
            dead = (min(w) < 0 if idx >= first_mixed else
                    w[root.i - 1] < 0 or (first_mixed == n and any(w[:root.i - 1])))
            if not dead and w[root.i - 1] < (2 if root.kind == DOUBLE else 1):
                out = live(group_end[idx], w)
            elif not dead:
                for mult in range(1, _max_mult(root, w) + 1):
                    child = _subtract(w, root, mult)
                    if not any(child):
                        out.append(((root, mult), None))
                    else:
                        below = live(idx + 1, child)
                        if below:
                            out.append(((root, mult), below))
                out += live(idx + 1, w)
        memo[key] = out
        return out

    def rec(entries, chosen):
        for part, below in entries:
            if below is None:
                found.append(chosen + (part,))
            else:
                rec(below, chosen + (part,))

    rec(live(0, target), ())
    del live, rec  # each refers to itself: free the memo now, not at a collection
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
    ambient = len(target)
    _check_ambient(ambient, roots)
    if roots and roots[-1].kind != MINUS:  # canonical order lists e_i - e_j roots first
        raise DomainError("capacity-restricted counting is defined only for e_i - e_j roots")
    if capacity < 1:
        raise DomainError("capacity must be a positive integer")
    initial = tuple(initial)[:ambient]
    if max(initial, default=0) > capacity:
        return 0
    spare = [capacity - x for x in initial] + [capacity] * (ambient - len(initial))
    # Copies land on j only before j's own group, so w[j] only grows until
    # the sweep reaches j: capping it there by target[j] plus the spare
    # capacity caps every landing.  A coordinate with no roots of its own
    # (the last one, for one) must be zero by then: its ceiling must be >= 0.
    ceiling = [x + s for x, s in zip(target, spare)]
    sources = {root.i for root in roots}
    if any(cap < 0 for j, cap in enumerate(ceiling, 1) if j not in sources):
        return 0
    return _sweep({target: 1}, roots, ceiling)
