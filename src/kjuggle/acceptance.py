"""The acceptance suite: one callable per exit criterion.

Every criterion pits at least two independent routes against each other
(enumeration vs. dynamic programming, recurrence vs. brute force, map vs.
count) and returns (ok, detail).  Shared by the pytest suite and the
command-line selftest.
"""

from __future__ import annotations

import random
import time
from itertools import product

from .bcd import (b_to_a_inverse, b_to_a_map, c_to_a_inverse, c_to_a_map,
                  count_highest_root_bcd, schmidt_bincer_count)
from .bijection import (gamma, gamma_inverse, net_change_target,
                        throwset_of_roots, time_bounded_roots)
from .closedforms import (CLOSED_FORMS, GF_ROWS, catalan, catalan_product_check,
                          closed_form_check, ehrhart_fit, gf_coefficients,
                          gf_direct_count, lidskii_count, perm_det_count)
from .errors import DomainError, InvariantViolation
from .juggling import (ThrowSet, count_sequences, enumerate_labeled_sequences,
                       enumerate_sequences, labeled_count, normalize_state)
from .kostant import (count_capacity_restricted, count_partitions,
                      enumerate_partitions, make_partition)
from .poset import (binomial_power_coefficients, build_poset,
                    characteristic_polynomial)
from .roots import (eminus, highest_root, positive_roots, root_to_weight,
                    weight_from_simple)

_SEED = 20210817


def _zero_sum_weights(r: int, bound: int = 2):
    for head in product(range(-bound, bound + 1), repeat=r):
        last = -sum(head)
        if -bound <= last <= bound:
            yield head + (last,)


def criterion_example_partitions():
    """The rank-3 worked example: five partitions, matched exactly."""
    mu = weight_from_simple("A", 3, (1, 2, 1))
    parts = enumerate_partitions(mu, positive_roots("A", 3))
    expected = {
        make_partition([eminus(1, 2), eminus(2, 3), eminus(2, 3), eminus(3, 4)]),
        make_partition([eminus(1, 3), eminus(2, 4)]),
        make_partition([eminus(1, 3), eminus(2, 3), eminus(3, 4)]),
        make_partition([eminus(1, 2), eminus(2, 3), eminus(2, 4)]),
        make_partition([eminus(1, 4), eminus(2, 3)]),
    }
    ok = len(parts) == 5 and set(parts) == expected
    return ok, f"{len(parts)} partitions, exact multiset match: {set(parts) == expected}"


def criterion_bijection_grid():
    """Counts, images, and roundtrips over every small zero-sum weight, plus
    random restricted root sets."""
    checked = 0
    for r in range(1, 5):
        full = positive_roots("A", r)
        for mu in _zero_sum_weights(r):
            kp = count_partitions(mu, full)
            a = normalize_state(mu[:r])
            b = (sum(mu[:r]),)
            js = count_sequences(a, b, r)
            if kp != js:
                return False, f"count mismatch at {mu}: {kp} vs {js}"
            parts = enumerate_partitions(mu, full)
            seqs = set(enumerate_sequences(a, b, r))
            if len(seqs) != kp:
                return False, f"enumeration mismatch at {mu}"
            images = set()
            for part in parts:
                seq = gamma(part, a, r)
                if seq in images or seq not in seqs or gamma_inverse(seq) != part:
                    return False, f"map failure at {mu}, partition {part}"
                images.add(seq)
            checked += 1
    rng = random.Random(_SEED)
    full4 = positive_roots("A", 4)
    restricted = 0
    for _ in range(50):
        lam = [root for root in full4 if rng.random() < 0.5]
        throws = throwset_of_roots(lam) if lam else ThrowSet.from_throws([])
        for mu in _zero_sum_weights(4):
            kp = count_partitions(mu, lam)
            js = count_sequences(normalize_state(mu[:4]), (sum(mu[:4]),), 4, None, throws)
            if kp != js:
                return False, f"restricted mismatch: {len(lam)} roots, {mu}: {kp} vs {js}"
            restricted += 1
    return True, f"{checked} weights, {restricted} restricted count pairs"


def _small_states(max_total: int, max_height: int):
    states = [()]
    for total in range(1, max_total + 1):
        for vec in product(range(total + 1), repeat=max_height):
            if sum(vec) == total:
                state = normalize_state(vec)
                if state not in states:
                    states.append(state)
    return states


def criterion_capacity_correspondence():
    """Sequence counts with hand capacity against the constrained partition
    counts, over every small (a, b, n, m)."""
    states = _small_states(3, 3)
    checked = 0
    lams: dict = {}  # the roots depend only on n and the ambient dimension
    for a in states:
        for b in states:
            for n in range(1, 5):
                target = net_change_target(a, b, n)
                if (n, len(target)) not in lams:
                    lams[n, len(target)] = time_bounded_roots(n, len(target))
                lam = lams[n, len(target)]
                for m in (1, 2, 3):
                    js = count_sequences(a, b, n, m)
                    q = count_capacity_restricted(target, lam, a, m)
                    if js != q:
                        return False, f"mismatch at a={a} b={b} n={n} m={m}: js={js} q={q}"
                    checked += 1
    return True, f"{checked} parameter tuples"


def criterion_restricted_throw_example():
    """The height-one-and-three worked example: exactly four sequences."""
    seqs = enumerate_sequences((1, 1, 0, -1), (1,), 4, None, ThrowSet.from_heights((1, 3)))
    expected = {
        ((1, 1, 0, -1), (2, 0, -1), (2, -1), (1,), (1,)),
        ((1, 1, 0, -1), (2, 0, -1), (1, -1, 1), (0, 1), (1,)),
        ((1, 1, 0, -1), (1,), (0, 0, 1), (0, 1), (1,)),
        ((1, 1, 0, -1), (1,), (1,), (1,), (1,)),
    }
    got = {seq.states for seq in seqs}
    ok = len(seqs) == 4 and got == expected
    return ok, f"{len(seqs)} sequences, state lists match: {got == expected}"


def criterion_generating_functions():
    """Every periodic-count row: recurrence coefficients vs. direct counts."""
    for row in sorted(GF_ROWS):
        coeffs = gf_coefficients(row, 6)
        direct = [gf_direct_count(row, n) for n in range(1, 7)]
        if coeffs != direct:
            return False, f"row {row}: {coeffs} vs direct {direct}"
    return True, f"{len(GF_ROWS)} rows, lengths 1..6"


def criterion_closed_forms():
    """Recurrence-evaluated closed forms against the partition-side oracles."""
    checked = 0
    for which, spec in sorted(CLOSED_FORMS.items()):
        min_r, _, _, _, oracle, _ = spec
        for r in range(min_r, 7):
            value = closed_form_check(which, r)
            expected = oracle(r)
            if value != expected:
                return False, f"{which} at r={r}: {value} vs oracle {expected}"
            checked += 1
    return True, f"{checked} (form, rank) pairs"


def criterion_highest_roots():
    """Highest-root counts by brute force, juggling, and the reduction."""
    anchors = {("B", 2): 3, ("C", 3): 10, ("D", 4): 15}
    for lie_type, ranks in (("B", range(2, 7)), ("C", range(3, 7)), ("D", range(4, 7))):
        for r in ranks:
            counts = count_highest_root_bcd(lie_type, r)
            if not counts["oracle"] == counts["juggling"] == counts["schmidt_bincer"]:
                return False, f"{lie_type}_{r}: {counts}"
            want = anchors.get((lie_type, r))
            if want is not None and counts["oracle"] != want:
                return False, f"{lie_type}_{r} anchor: {counts['oracle']} != {want}"
    return True, "B 2..6, C 3..6, D 4..6 with anchors 3, 10, 15"


def criterion_schmidt_bincer():
    """The reduction equals brute force on random weights in the root cone."""
    rng = random.Random(_SEED)
    mins = {"B": 2, "C": 3, "D": 4}
    for lie_type in ("B", "C", "D"):
        for _ in range(100):
            rank = rng.randint(mins[lie_type], 4)
            roots = positive_roots(lie_type, rank)
            mu = [0] * rank
            for _ in range(rng.randint(1, 4)):
                for k, x in enumerate(root_to_weight(rng.choice(roots), rank)):
                    mu[k] += x
            reduced = schmidt_bincer_count(lie_type, rank, mu)
            direct = count_partitions(tuple(mu), roots)
            if reduced != direct:
                return False, f"{lie_type}_{rank} at {tuple(mu)}: {reduced} vs {direct}"
    return True, "300 random weights across B, C, D at ranks <= 4"


def criterion_highest_root_maps():
    """The two case-split maps are bijections, checked exhaustively."""
    for rank in (2, 3, 4):
        source = enumerate_partitions(highest_root("B", rank), positive_roots("B", rank))
        mu = net_change_target((1, 1), (1, 1), rank)
        lam = [x for x in positive_roots("A", rank + 1) if x.i <= rank]
        target = enumerate_partitions(mu, lam)
        images = [b_to_a_map(p, rank) for p in source]
        if sorted(images) != sorted(target) or len(set(images)) != len(source):
            return False, f"B_{rank}: image is not a bijection"
        if any(b_to_a_inverse(img, rank) != p for p, img in zip(source, images)):
            return False, f"B_{rank}: roundtrip broken"
    for rank in (3, 4):
        source = enumerate_partitions(highest_root("C", rank), positive_roots("C", rank))
        mu = net_change_target((2,), (2,), rank)
        target = enumerate_partitions(mu, positive_roots("A", rank))
        images = [c_to_a_map(p, rank) for p in source]
        if sorted(images) != sorted(target) or len(set(images)) != len(source):
            return False, f"C_{rank}: image is not a bijection"
        if any(c_to_a_inverse(img, rank) != p for p, img in zip(source, images)):
            return False, f"C_{rank}: roundtrip broken"
    return True, "B at ranks 2..4 and C at ranks 3..4, exhaustive"


def criterion_poset():
    """Characteristic polynomials: hypercube cases and the binary-state law."""
    for n in range(2, 6):
        poset = build_poset((1,), (1,), n, 1)
        if characteristic_polynomial(poset) != binomial_power_coefficients(n - 1):
            return False, f"single-ball poset at n={n}"
        if len(poset) != 2 ** (n - 1):
            return False, f"single-ball poset size at n={n}"
    for length in range(1, 5):
        for bits in product((0, 1), repeat=length):
            poset = build_poset(bits, (sum(bits),), length)
            exponent = sum((length - i) * x for i, x in enumerate(bits, start=1))
            if characteristic_polynomial(poset) != binomial_power_coefficients(exponent):
                return False, f"binary state {bits}"
    tesler = build_poset((1, 1, 1), (3,), 3)
    if characteristic_polynomial(tesler) != binomial_power_coefficients(3):
        return False, "three-ball staircase poset"
    return True, "single-ball n=2..5, all binary states len<=4, (1,1,1)"


def criterion_perm_det():
    """Permanent = determinant = restricted count for random root subsets."""
    lam4 = [root for root in positive_roots("A", 4) if root.j - root.i <= 2]
    if perm_det_count(4, lam4) != 5:
        return False, "short-root example is not 5"
    rng = random.Random(_SEED)
    checked = 0
    for rank in range(1, 8):
        roots = list(positive_roots("A", rank))
        alpha = highest_root("A", rank)
        for _ in range(100):
            lam = [x for x in roots if rng.random() < 0.5]
            value = perm_det_count(rank, lam)
            if value != count_partitions(alpha, lam):
                return False, f"rank {rank}, {len(lam)} roots"
            checked += 1
    return True, f"example = 5 and {checked} random subsets across ranks 1..7"


def criterion_lidskii():
    """Both expansion variants equal brute force on the nonnegative grid."""
    checked = 0
    for r in (2, 3, 4):
        full = positive_roots("A", r)
        for head in product(range(3), repeat=r):
            mu = head + (-sum(head),)
            b = lidskii_count(mu, "binomial")
            m = lidskii_count(mu, "multiset")
            oracle = count_partitions(mu, full)
            if not b == m == oracle:
                return False, f"{mu}: binomial {b}, multiset {m}, oracle {oracle}"
            checked += 1
    return True, f"{checked} weights with entries in [0, 2], ranks 2..4"


def criterion_catalan_products():
    """Staircase counts equal Catalan products through rank 7."""
    for r in range(3, 8):
        value = catalan_product_check(r)
        product_value = 1
        for k in range(1, r - 1):
            product_value *= catalan(k)
        if value != product_value:
            return False, f"rank {r}: {value} vs {product_value}"
    if catalan_product_check(7) != 5880:
        return False, "rank-7 anchor is not 5880"
    return True, "ranks 3..7; rank-7 value 5880"


def criterion_ehrhart():
    """Dilation counts interpolate exactly and predict held-out points."""
    from math import comb

    cases = [(1, 0, -1), (1, 1, -2), (1, 1, 1, -3), (2, 1, -3)]
    degrees = []
    for mu in cases:
        try:
            coeffs = ehrhart_fit(mu, 2)
        except InvariantViolation as exc:
            return False, f"{mu}: {exc}"
        if coeffs[-1] < 0:
            return False, f"{mu}: negative leading coefficient"
        if len(coeffs) - 1 > comb(len(mu) - 1, 2):
            return False, f"{mu}: degree exceeds the dimension bound"
        degrees.append(len(coeffs) - 1)
    return True, f"degrees {degrees} with two held-out points each"


def criterion_labeled():
    """The per-label product formula vs. joint enumeration."""
    states = _small_states(2, 2)
    checked = 0
    for a1 in states:
        for b1 in states:
            if sum(a1) != sum(b1):
                continue
            for a2 in states:
                for b2 in states:
                    if sum(a2) != sum(b2):
                        continue
                    height = max(len(a1), len(a2), len(b1), len(b2), 1)
                    a = tuple((a1[k] if k < len(a1) else 0,
                               a2[k] if k < len(a2) else 0) for k in range(height))
                    b = tuple((b1[k] if k < len(b1) else 0,
                               b2[k] if k < len(b2) else 0) for k in range(height))
                    for n in range(1, 4):
                        predicted = labeled_count(a, b, n)
                        joint = len(enumerate_labeled_sequences(a, b, n))
                        if predicted != joint:
                            return False, f"a={a} b={b} n={n}: {predicted} vs {joint}"
                        checked += 1
    return True, f"{checked} two-label instances with lengths 1..3"


CRITERIA = (
    ("example-partitions", "worked example: five partitions, exact", criterion_example_partitions),
    ("bijection-grid", "counts, images, roundtrips on the zero-sum grid", criterion_bijection_grid),
    ("capacity", "capacity correspondence on all small instances", criterion_capacity_correspondence),
    ("restricted-example", "heights {1,3} worked example: four sequences", criterion_restricted_throw_example),
    ("generating-functions", "periodic rows match direct counts", criterion_generating_functions),
    ("closed-forms", "surd recurrences match oracles", criterion_closed_forms),
    ("highest-roots", "three-way highest-root agreement", criterion_highest_roots),
    ("schmidt-bincer", "reduction matches brute force on random weights", criterion_schmidt_bincer),
    ("highest-root-maps", "case-split maps are exhaustive bijections", criterion_highest_root_maps),
    ("poset", "characteristic polynomials are powers of q-1", criterion_poset),
    ("perm-det", "permanent = determinant = restricted count", criterion_perm_det),
    ("lidskii", "both expansion variants match brute force", criterion_lidskii),
    ("catalan", "staircase counts are Catalan products", criterion_catalan_products),
    ("ehrhart", "dilation polynomials predict held-out points", criterion_ehrhart),
    ("labeled", "labeled product formula vs joint enumeration", criterion_labeled),
)


def run_all():
    """Run every criterion; returns a list of (key, title, ok, detail, seconds)."""
    results = []
    for key, title, fn in CRITERIA:
        start = time.perf_counter()
        try:
            ok, detail = fn()
        except (DomainError, InvariantViolation) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((key, title, ok, detail, time.perf_counter() - start))
    return results
