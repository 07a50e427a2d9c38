"""Fast counting formulas, each cross-checked against the brute-force engines.

Everything here is exact: integer linear recurrences instead of floating
surds, Ryser's formula and fraction-free elimination for permanents and
determinants, and integer forward differences for dilation polynomials,
turned into rational coefficients by one final change of basis.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement
from math import comb, factorial, prod
from operator import ge, sub

from .bijection import net_change_target, time_bounded_roots
from .errors import DomainError, InvariantViolation
from .juggling import count_sequences, normalize_state
from .kostant import canonical_roots, count_capacity_restricted
from .roots import MINUS, positive_roots


# ---------------------------------------------------------------------------
# Permanent / determinant counts of restricted partitions of e1 - e_{r+1}.

def count_matrices(rank: int, allowed):
    """The 0/1 matrix M and its signed variant N for a subset of e_i - e_j
    roots: entry (i, j) with j >= i marks e_i - e_{j+1} being allowed, and the
    subdiagonal carries the descent entries.

    The matrices are rank x rank: a nonzero permutation decomposes into
    intervals [i, j] of [1, rank], one allowed root e_i - e_{j+1} each, so
    permutations biject with chains from 1 to rank+1 and the permanent counts
    partitions of e1 - e_{rank+1}.
    """
    valid = set(positive_roots("A", rank))
    m = [[0] * rank for _ in range(rank)]
    n = [[0] * rank for _ in range(rank)]
    for root in canonical_roots(allowed):
        if root not in valid or root.kind != MINUS:
            raise DomainError(f"{root} is not an e_i - e_j root of rank {rank}")
        m[root.i - 1][root.j - 2] = n[root.i - 1][root.j - 2] = 1
    for i in range(1, rank):
        m[i][i - 1] = 1
        n[i][i - 1] = -1
    return m, n


def permanent(matrix) -> int:
    """Exact permanent by Ryser's inclusion-exclusion over column subsets.

    The subsets are visited in Gray-code order, so each step updates the row
    sums by the one column that flips; step k's subset has k's parity.  Only
    the column's nonzero entries are added, and the product is formed only
    when no row sum is zero.
    """
    size = len(matrix)
    if size == 0:
        return 1
    columns = [[(r, x) for r, x in enumerate(column) if x] for column in zip(*matrix)]
    sums = [0] * size
    zeros = size  # row sums equal to 0
    total = 0
    for k in range(1, 1 << size):
        c = (k & -k).bit_length() - 1
        sign = 1 if (k ^ k >> 1) >> c & 1 else -1
        for r, x in columns[c]:
            old = sums[r]
            sums[r] = new = old + sign * x
            zeros += (new == 0) - (old == 0)
        if not zeros:
            total += -prod(sums) if k & 1 else prod(sums)
    return -total if size & 1 else total


def determinant(matrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    size = len(matrix)
    if size == 0:
        return 1
    a = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(size - 1):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, size) if a[r][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[size - 1][size - 1]


def perm_det_count(rank: int, allowed) -> int:
    """perm(M) for the restricted root set, checked against det(N).  Both
    count the partitions of e1 - e_{r+1} over the set; comparing with the
    partition engine is left to the callers."""
    m, n = count_matrices(rank, allowed)
    p = permanent(m)
    d = determinant(n)
    if p != d:
        raise InvariantViolation(f"permanent {p} != determinant {d} at rank {rank} over "
                                 f"{' '.join(map(str, canonical_roots(allowed)))}")
    return p


# ---------------------------------------------------------------------------
# Lidskii expansions.

def generalized_binomial(n: int, k: int) -> int:
    """n(n-1)...(n-k+1)/k! for any integer n; signed when n is negative."""
    if k < 0:
        return 0
    num = 1
    for step in range(k):
        num *= n - step
    return num // factorial(k)


def multiset_coefficient(n: int, k: int) -> int:
    """Number of k-multisets from n symbols, via the generalized binomial."""
    return generalized_binomial(n + k - 1, k)


def dominating_compositions(total: int, pattern):
    """Weak compositions of `total`, len(pattern) parts, whose prefix sums
    stay at or above the pattern's prefix sums, in lexicographic order.

    A composition is read off its prefix sums: nondecreasing, none below
    the first one the pattern allows, ending at `total`, and in
    lexicographic order exactly as the parts are."""
    need = tuple(accumulate(pattern))
    if not need or total < 0:  # no parts, or no composition at all
        if total == 0:
            yield ()
        return
    for sums in combinations_with_replacement(range(max(need[0], 0), total + 1), len(need) - 1):
        sums += (total,)
        if all(map(ge, sums, need)):
            yield tuple(map(sub, sums, (0,) + sums[:-1]))


@lru_cache(maxsize=None)
def _lidskii_table(r: int) -> tuple:
    """The (composition, inner count) terms of rank r with a nonzero inner
    count; neither depends on the weight, so they are built once per rank."""
    pattern = tuple(range(r - 1, 0, -1))
    terms = []
    for j in dominating_compositions(comb(r, 2), pattern):
        inner = count_sequences(
            normalize_state(tuple(j[k] - (r - 1 - k) for k in range(r - 2))),
            (1 - j[r - 2],), r - 2)
        if inner:
            terms.append((j, inner))
    return tuple(terms)


def _lidskii_terms(mu) -> tuple:
    mu = tuple(mu)
    r = len(mu) - 1
    if r < 2:
        raise DomainError("the expansion needs rank at least 2")
    if sum(mu) != 0:
        raise DomainError("weight coordinates must sum to zero")
    if any(x < 0 for x in mu[:r]):
        raise DomainError("the expansion needs nonnegative leading coordinates")
    return _lidskii_table(r)


def lidskii_count(mu, variant: str = "both") -> int:
    """Evaluate the weighted expansion of the partition count over dominating
    compositions, with binomial or multiset coefficient weights (or both,
    checked against each other)."""
    mu = tuple(mu)
    r = len(mu) - 1
    # (coefficient, its top for part k of a composition) per requested variant
    weights = [(f, [mu[k] + shift - k for k in range(r - 1)])
               for name, f, shift in (("binomial", comb, r - 1),
                                      ("multiset", multiset_coefficient, 1))
               if variant in (name, "both")]
    if not weights:
        raise DomainError(f"unknown variant {variant!r}")
    terms = _lidskii_terms(mu)
    totals = [sum(inner * prod(map(f, tops, j)) for j, inner in terms) for f, tops in weights]
    if totals[0] != totals[-1]:
        raise InvariantViolation(
            f"expansion variants disagree at {mu}: {totals[0]} != {totals[-1]}")
    return totals[0]


# ---------------------------------------------------------------------------
# Rational generating functions for periodic counts (numerators and
# denominators ascending in x; denominator constant term 1).

GF_ROWS = {
    "2|2": ((2,), 2, (0, 1, -2), (1, -5, 5)),
    "11|2": ((1, 1), 2, (0, 1, -2, 1), (1, -5, 5)),
    "21|2": ((2, 1), 2, (0, 1, -4, 3), (1, -8, 13)),
    "111|2": ((1, 1, 1), 2, (0, 1, -5, 7), (1, -8, 13)),
    "22|2": ((2, 2), 2, (0, 1, -11, 33, -27), (1, -14, 54, -57)),
    "3|3": ((3,), 3, (0, 1, -6, 7), (1, -10, 27, -20)),
    "21|3": ((2, 1), 3, (0, 1, -5, 7, -3), (1, -10, 27, -20)),
}


def gf_row(row_id: str):
    try:
        return GF_ROWS[row_id]
    except KeyError:
        raise DomainError(
            f"unknown row {row_id!r}; known rows: {', '.join(sorted(GF_ROWS))}") from None


def gf_coefficients(row_id: str, upto: int) -> list[int]:
    """Coefficients of x^1..x^upto of the row's rational function, by the
    linear recurrence its denominator induces."""
    if upto < 1:
        raise DomainError("need at least one coefficient")
    _, _, num, den = gf_row(row_id)
    coeffs = [0] * (upto + 1)
    for n in range(1, upto + 1):
        value = num[n] if n < len(num) else 0
        for k in range(1, min(n, len(den) - 1) + 1):
            value -= den[k] * coeffs[n - k]
        coeffs[n] = value
    return coeffs[1:]


def gf_direct_count(row_id: str, n: int) -> int:
    """The same coefficient by the juggling engine: periodic count of length n."""
    state, capacity, _, _ = gf_row(row_id)
    return count_sequences(state, state, n, capacity)


GF_DIRECT_MAX = 6  # gf_check compares lengths up to this one with direct counts


def gf_check(row_id: str, upto: int) -> list[int]:
    """Coefficients of x^1..x^upto, asserted equal to the direct counts of
    lengths 1..min(upto, GF_DIRECT_MAX)."""
    coeffs = gf_coefficients(row_id, upto)
    direct = [gf_direct_count(row_id, n) for n in range(1, min(upto, GF_DIRECT_MAX) + 1)]
    if coeffs[:len(direct)] != direct:
        raise InvariantViolation(f"row {row_id}: {coeffs[:len(direct)]} vs direct {direct}")
    return coeffs


# ---------------------------------------------------------------------------
# Conjugate-surd corollaries.  Each counts the periodic sequences of a GF
# row's state at the row's capacity, so its value at rank r is the row's
# coefficient of x^n, n = r + 1 - len(state): the state's length plus the
# sequence length is r + 1, the ambient dimension of A_r.  The oracle check
# goes through the partition engine, so the two sides stay independent.

# which -> (min rank, GF row, exact surd parameters (k, u, v, form, c, d,
#           denom maker)); the closed form is
#   ((c + d sqrt k)(u + v sqrt k)^n +/- conjugate) / denom(r).
CLOSED_FORMS = {
    "c45": (2, "2|2", (5, 5, 1, "plus", 1, 0, lambda r: 5 * 2 ** r)),
    "c46": (2, "11|2", (5, 5, 1, "minus", 3, 1, lambda r: 5 * 2 ** r)),
    "c47": (3, "21|2", (3, 4, 1, "minus", 9, 14, lambda r: 169)),
    "c48": (5, "111|2", (3, 4, 1, "plus", 9, 14, lambda r: 338)),
}

ORACLE_MAX_RANK = 6  # closed_form_check brute-forces ranks up to this one


def _closed_form(which: str):
    try:
        return CLOSED_FORMS[which]
    except KeyError:
        raise DomainError(f"unknown closed form {which!r}") from None


def _length(row_id: str, r: int) -> int:
    """The sequence length n of the row's periodic count at rank r."""
    return r + 1 - len(GF_ROWS[row_id][0])


def closed_form_value(which: str, r: int) -> int:
    """The closed form's value: its GF row's coefficient of x^n."""
    min_r, row, _ = _closed_form(which)
    if r < min_r:
        raise DomainError(f"{which} requires rank >= {min_r}")
    return gf_coefficients(row, _length(row, r))[-1]


def closed_form_check(which: str, r: int) -> int:
    """The value, asserted equal to the capacity-restricted partition count
    (throws start at times 1..n) for ranks small enough to brute force."""
    value = closed_form_value(which, r)
    if r <= ORACLE_MAX_RANK:
        row = CLOSED_FORMS[which][1]
        state, capacity, _, _ = GF_ROWS[row]
        n = _length(row, r)
        oracle = count_capacity_restricted(net_change_target(state, state, n),
                                           time_bounded_roots(n, r + 1), state, capacity)
        if value != oracle:
            raise InvariantViolation(f"{which} at rank {r}: recurrence {value} != oracle {oracle}")
    return value


def _surd_power(u: int, v: int, k: int, p: int) -> tuple[int, int]:
    """(u + v sqrt k)^p as (a, b) with value a + b sqrt k."""
    a, b = 1, 0
    for _ in range(p):
        a, b = a * u + b * v * k, a * v + b * u
    return a, b


def surd_value(which: str, r: int) -> Fraction:
    """Exact value of the conjugate-surd expression at a rank r >= 0; below
    the closed form's min rank it can disagree with the true counts."""
    _, row, (k, u, v, form, c, d, denom) = _closed_form(which)
    if r < 0:
        raise DomainError(f"{which} surd value requires rank >= 0, got {r}")
    a, b = _surd_power(u, v, k, _length(row, r))
    if form == "plus":
        numerator = 2 * (c * a + d * k * b)
    else:
        numerator = 2 * (c * b + d * a)
    return Fraction(numerator, denom(r))


# ---------------------------------------------------------------------------
# Catalan products and dilation polynomials.

def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def catalan_product_check(r: int) -> int:
    """Count the staircase-start sequences and check the Catalan product."""
    if r < 3:
        raise DomainError("the identity needs rank >= 3")
    js = count_sequences(tuple(range(1, r - 1)), (comb(r - 1, 2),), r - 2)
    product = prod(catalan(k) for k in range(1, r - 1))
    if js != product:
        raise InvariantViolation(f"sequence count {js} != Catalan product {product} at rank {r}")
    return js


def ehrhart_fit(mu, extra: int = 2) -> tuple[Fraction, ...]:
    """Fit t -> js of the t-fold dilation and verify held-out points.

    Samples the dilation count f at t = 1..d+1, d the maximal possible
    degree, and takes its forward differences: f(t) = sum_k D^k f(1)
    C(t-1, k), every D^k f(1) an integer.  That form must predict `extra`
    further points exactly.  Only then is it expanded into ascending
    coefficients in t, integers over the common denominator d!.
    """
    mu = tuple(mu)
    r = len(mu) - 1
    if r < 1:
        raise DomainError("weight must have at least two coordinates")
    if sum(mu) != 0:
        raise DomainError("weight coordinates must sum to zero")
    if any(x < 0 for x in mu[:r]):
        raise DomainError("dilation needs nonnegative leading coordinates")
    if extra < 1:
        raise DomainError("need at least one held-out point")
    degree_bound = comb(r, 2)

    def dilate_count(t):
        return count_sequences(normalize_state(tuple(t * x for x in mu[:r])),
                               (t * sum(mu[:r]),), r)

    diffs = [dilate_count(t) for t in range(1, degree_bound + 2)]
    for k in range(1, degree_bound + 1):
        for i in range(degree_bound, k - 1, -1):
            diffs[i] -= diffs[i - 1]
    for t in range(degree_bound + 2, degree_bound + 2 + extra):
        predicted = sum(delta * comb(t - 1, k) for k, delta in enumerate(diffs))
        actual = dilate_count(t)
        if predicted != actual:
            raise InvariantViolation(f"weight {list(mu)}: interpolant predicts "
                                     f"{predicted} at t={t}, count is {actual}")
    # Horner in the Newton basis, C(t-1, k+1) = C(t-1, k) (t-1-k)/(k+1),
    # scaled by d!/k! so that every coefficient stays an integer.
    numer = [diffs[degree_bound]]
    scale = 1  # d!/k!
    for k in range(degree_bound - 1, -1, -1):
        scale *= k + 1
        numer = [a - (k + 1) * b for a, b in zip([0] + numer, numer + [0])]
        numer[0] += diffs[k] * scale
    while len(numer) > 1 and numer[-1] == 0:
        numer.pop()
    return tuple(Fraction(c, scale) for c in numer)
