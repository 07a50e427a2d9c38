"""Positive roots of the classical Lie types A, B, C, D in standard coordinates.

Weights live in Z^d for the ambient dimension d of the type (r+1 for A_r,
r for B_r/C_r/D_r) and are represented as plain integer tuples.  A positive
root is one of four shapes: e_i - e_j, e_i + e_j, e_i, or 2e_i.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import DomainError

# Root kinds, in canonical sort order.
MINUS = "minus"    # e_i - e_j
PLUS = "plus"      # e_i + e_j
SINGLE = "single"  # e_i
DOUBLE = "double"  # 2e_i

_KIND_ORDER = {MINUS: 0, PLUS: 1, SINGLE: 2, DOUBLE: 3}

LIE_TYPES = ("A", "B", "C", "D")
MIN_RANK = {"A": 1, "B": 2, "C": 3, "D": 4}


@dataclass(frozen=True, slots=True)
class Root:
    """A positive root; for SINGLE and DOUBLE kinds the second index is 0."""

    kind: str
    i: int
    j: int = 0
    key: tuple = field(init=False, repr=False, compare=False)  # the canonical sort key

    def __post_init__(self):
        if self.kind not in _KIND_ORDER:
            raise DomainError(f"unknown root kind {self.kind!r}")
        if self.i < 1:
            raise DomainError(f"root index {self.i} must be >= 1")
        if self.kind in (MINUS, PLUS):
            if not self.i < self.j:
                raise DomainError(f"root indices must satisfy i < j, got ({self.i}, {self.j})")
        elif self.j != 0:
            raise DomainError(f"{self.kind} roots take a single index")
        object.__setattr__(self, "key", (_KIND_ORDER[self.kind], self.i, self.j))

    def sort_key(self):
        return self.key

    def __lt__(self, other):
        return self.key < other.key

    def __str__(self):
        if self.kind == MINUS:
            return f"{self.i}-{self.j}"
        if self.kind == PLUS:
            return f"{self.i}+{self.j}"
        if self.kind == SINGLE:
            return f"{self.i}"
        return f"2{self.i}"


def eminus(i, j) -> Root:
    return Root(MINUS, i, j)


def eplus(i, j) -> Root:
    return Root(PLUS, i, j)


def esingle(i) -> Root:
    return Root(SINGLE, i)


def edouble(i) -> Root:
    return Root(DOUBLE, i)


_ROOT_RE = re.compile(r"^(\d+)([+-])(\d+)$")


def parse_root(text: str) -> Root:
    """Parse a root from its compact form: i-j, i+j, i, or 2i.

    The digits-only forms collide: a single index of two or more digits that
    starts with 2 reads as a doubled root, so "21" is 2e_1 (not e_21) and "20"
    is rejected.  B/C ranks of 20 and above are cheap, so this bites (ROADMAP
    item 5).
    """
    text = text.strip()
    m = _ROOT_RE.match(text)
    if m:
        i, op, j = int(m.group(1)), m.group(2), int(m.group(3))
        return eminus(i, j) if op == "-" else eplus(i, j)
    if text.isdigit():
        if len(text) > 1 and text[0] == "2":
            return edouble(int(text[1:]))
        return esingle(int(text))
    raise DomainError(f"cannot parse root {text!r}")


def check_type_rank(lie_type: str, rank: int) -> None:
    if lie_type not in LIE_TYPES:
        raise DomainError(f"unknown Lie type {lie_type!r}")
    if rank < MIN_RANK[lie_type]:
        raise DomainError(f"type {lie_type} requires rank >= {MIN_RANK[lie_type]}, got {rank}")


def ambient_dim(lie_type: str, rank: int) -> int:
    """Dimension of the standard coordinate space: r+1 for A, r otherwise."""
    check_type_rank(lie_type, rank)
    return rank + 1 if lie_type == "A" else rank


@lru_cache(maxsize=None, typed=True)
def positive_roots(lie_type: str, rank: int) -> tuple[Root, ...]:
    """All positive roots of the type, in canonical order.

    Sizes: r(r+1)/2 for A_r, r^2 for B_r and C_r, r(r-1) for D_r.  The
    tuple of frozen roots is built once per (type, rank) and shared; a bad
    type or rank raises each time, as exceptions are not cached.
    """
    check_type_rank(lie_type, rank)
    n = ambient_dim(lie_type, rank)
    roots = [eminus(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    if lie_type in ("B", "C", "D"):
        roots += [eplus(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    if lie_type == "B":
        roots += [esingle(i) for i in range(1, n + 1)]
    elif lie_type == "C":
        roots += [edouble(i) for i in range(1, n + 1)]
    return tuple(roots)


def root_to_weight(root: Root, ambient: int) -> tuple[int, ...]:
    """Expand a root into its coordinate vector of the given length."""
    top = root.j if root.kind in (MINUS, PLUS) else root.i
    if top > ambient:
        raise DomainError(f"root {root} does not fit in ambient dimension {ambient}")
    w = [0] * ambient
    if root.kind == MINUS:
        w[root.i - 1] = 1
        w[root.j - 1] = -1
    elif root.kind == PLUS:
        w[root.i - 1] = 1
        w[root.j - 1] = 1
    elif root.kind == SINGLE:
        w[root.i - 1] = 1
    else:
        w[root.i - 1] = 2
    return tuple(w)


def add_weights(u, v):
    return tuple(a + b for a, b in zip(u, v))


def scale_weight(c, u):
    return tuple(c * a for a in u)


def simple_root(lie_type: str, rank: int, i: int) -> tuple[int, ...]:
    """The i-th simple root (1-based) in standard coordinates."""
    check_type_rank(lie_type, rank)
    if not 1 <= i <= rank:
        raise DomainError(f"simple root index {i} out of range 1..{rank}")
    n = ambient_dim(lie_type, rank)
    w = [0] * n
    if lie_type == "A" or i < rank:
        w[i - 1] = 1
        w[i] = -1
    elif lie_type == "B":
        w[rank - 1] = 1
    elif lie_type == "C":
        w[rank - 1] = 2
    else:  # D
        w[rank - 2] = 1
        w[rank - 1] = 1
    return tuple(w)


def weight_from_simple(lie_type: str, rank: int, coeffs) -> tuple[int, ...]:
    """Expand an integer combination of simple roots into coordinates."""
    coeffs = tuple(coeffs)
    if len(coeffs) != rank:
        raise DomainError(f"expected {rank} coefficients, got {len(coeffs)}")
    n = ambient_dim(lie_type, rank)
    w = (0,) * n
    for i, c in enumerate(coeffs, start=1):
        if c:
            w = add_weights(w, scale_weight(c, simple_root(lie_type, rank, i)))
    return w


def simple_root_coefficients(lie_type: str, rank: int, weight) -> tuple[int, ...]:
    """Invert weight_from_simple; raises if the weight is not in the root lattice."""
    weight = tuple(weight)
    n = ambient_dim(lie_type, rank)
    if len(weight) != n:
        raise DomainError(f"weight has length {len(weight)}, ambient dimension is {n}")
    prefix = []
    acc = 0
    for x in weight:
        acc += x
        prefix.append(acc)
    if lie_type == "A":
        if acc != 0:
            raise DomainError("type A weight must have coordinate sum 0")
        return tuple(prefix[:rank])
    if lie_type == "B":
        return tuple(prefix)
    # C and D need an even tail sum (the last simple root has coordinate sum 2).
    if lie_type == "C":
        if acc % 2:
            raise DomainError("type C weight must have even coordinate sum")
        coeffs = list(prefix[: rank - 1])
        coeffs.append(acc // 2)
        return tuple(coeffs)
    # D: c_{r-1} + c_r = prefix_{r-1}, c_r - c_{r-1} = weight_r.
    if (prefix[rank - 2] + weight[rank - 1]) % 2:
        raise DomainError("weight is not in the type D root lattice")
    cr = (prefix[rank - 2] + weight[rank - 1]) // 2
    coeffs = list(prefix[: rank - 2])
    coeffs.append(prefix[rank - 2] - cr)
    coeffs.append(cr)
    return tuple(coeffs)


def highest_root(lie_type: str, rank: int) -> tuple[int, ...]:
    """The highest root: e1-e_{r+1} (A), e1+e2 (B, D), 2e1 (C)."""
    check_type_rank(lie_type, rank)
    n = ambient_dim(lie_type, rank)
    w = [0] * n
    if lie_type == "A":
        w[0], w[n - 1] = 1, -1
    elif lie_type == "C":
        w[0] = 2
    else:
        w[0], w[1] = 1, 1
    return tuple(w)
