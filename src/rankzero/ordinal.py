"""Exact ordinals below epsilon_0 in Cantor normal form.

Every value is a finite sum w^e1*c1 + ... + w^ek*ck with ordinal exponents
e1 > e2 > ... > ek and positive integer coefficients.  Values are immutable,
hashable and totally ordered.  The set of ordinals below a given bound has
a fixed dovetailed enumeration (ordered by description size, ties broken by
ordinal order) so that every construction seeded by it is reproducible.

Text syntax, round-tripped exactly by parse_ordinal/format_ordinal:

    0   5   w   w+3   w*2   w^2*3+w*2+5   w^w   w^(w+1)*2
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

__all__ = [
    "Ordinal",
    "ZERO",
    "ONE",
    "OMEGA",
    "as_ordinal",
    "compare",
    "predecessor",
    "successor",
    "ordinal_add",
    "ordinal_sub_left",
    "enumerate_below",
    "parse_ordinal",
    "format_ordinal",
]

OrdinalLike = Union["Ordinal", int, str]


@dataclass(frozen=True)
class Ordinal:
    """Cantor normal form; the empty term list denotes 0."""

    terms: Tuple[Tuple["Ordinal", int], ...] = ()

    def __post_init__(self) -> None:
        prev = None
        for exp, coeff in self.terms:
            if not isinstance(exp, Ordinal):
                raise TypeError("exponents must be Ordinal values")
            if not isinstance(coeff, int) or coeff < 1:
                raise ValueError("coefficients must be positive integers")
            if prev is not None and compare(exp, prev) >= 0:
                raise ValueError("exponents must be strictly decreasing")
            prev = exp

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_limit(self) -> bool:
        return bool(self.terms) and not self.terms[-1][0].is_zero

    @staticmethod
    def from_int(n: int) -> "Ordinal":
        if n < 0:
            raise ValueError("ordinals are nonnegative")
        return Ordinal() if n == 0 else Ordinal(((Ordinal(), n),))

    @staticmethod
    def omega_power(exponent: "Ordinal", coeff: int = 1) -> "Ordinal":
        return Ordinal(((exponent, coeff),))

    # -- ordering -----------------------------------------------------------

    def __lt__(self, other: "Ordinal") -> bool:
        return compare(self, other) < 0

    def __le__(self, other: "Ordinal") -> bool:
        return compare(self, other) <= 0

    def __gt__(self, other: "Ordinal") -> bool:
        return compare(self, other) > 0

    def __ge__(self, other: "Ordinal") -> bool:
        return compare(self, other) >= 0

    def __str__(self) -> str:
        return format_ordinal(self)

    def __repr__(self) -> str:
        return f"Ordinal({format_ordinal(self)!r})"


ZERO = Ordinal.from_int(0)
ONE = Ordinal.from_int(1)
OMEGA = Ordinal.omega_power(ONE)


def as_ordinal(value: OrdinalLike) -> Ordinal:
    if isinstance(value, Ordinal):
        return value
    if isinstance(value, int):
        return Ordinal.from_int(value)
    if isinstance(value, str):
        return parse_ordinal(value)
    raise TypeError(f"cannot interpret {value!r} as an ordinal")


def compare(a: Ordinal, b: Ordinal) -> int:
    """Strict total order on normal forms: -1, 0 or 1."""
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = compare(ea, eb)
        if c != 0:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) == len(b.terms):
        return 0
    return -1 if len(a.terms) < len(b.terms) else 1


def successor(a: Ordinal) -> Ordinal:
    return ordinal_add(a, ONE)


def predecessor(a: Ordinal) -> Optional[Ordinal]:
    """a-1 when it exists; None exactly when a is a limit ordinal."""
    if a.is_zero:
        raise ValueError("0 has no predecessor and is not a limit")
    exp, coeff = a.terms[-1]
    if not exp.is_zero:
        return None
    head = a.terms[:-1]
    if coeff > 1:
        return Ordinal(head + ((exp, coeff - 1),))
    return Ordinal(head)


def ordinal_add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal sum a + b (not commutative: 1 + w == w)."""
    if b.is_zero:
        return a
    lead = b.terms[0][0]
    head: List[Tuple[Ordinal, int]] = [t for t in a.terms if compare(t[0], lead) > 0]
    merged = list(b.terms)
    if len(head) < len(a.terms) and compare(a.terms[len(head)][0], lead) == 0:
        merged[0] = (lead, a.terms[len(head)][1] + b.terms[0][1])
    return Ordinal(tuple(head) + tuple(merged))


def ordinal_sub_left(a: Ordinal, b: Ordinal) -> Ordinal:
    """The unique g with a + g == b; requires a <= b."""
    if compare(a, b) > 0:
        raise ValueError(f"{a} > {b}: no left difference")
    i = 0
    while i < len(a.terms) and i < len(b.terms) and a.terms[i] == b.terms[i]:
        i += 1
    if i == len(a.terms):
        return Ordinal(b.terms[i:])
    ea, ca = a.terms[i]
    eb, cb = b.terms[i]
    if compare(ea, eb) == 0 and ca < cb:
        return Ordinal(((eb, cb - ca),) + b.terms[i + 1:])
    # a's term is dominated; the leading term of the suffix absorbs a's tail
    return Ordinal(b.terms[i:])


# -- enumeration of the ordinals below a bound ------------------------------
#
# Description size: size(0) = 1, size(sum of w^e*c terms) = 1 + sum(size(e)+c).
# The enumeration emits, for size budget 1, 2, 3, ..., all not-yet-seen
# ordinals below the bound of that size, in increasing ordinal order.  It is
# injective and every ordinal below the bound appears at a finite index.


@lru_cache(maxsize=None)
def _size(a: Ordinal) -> int:
    return 1 + sum(_size(e) + c for e, c in a.terms)


@lru_cache(maxsize=None)
def _bounded_below(a: Ordinal, budget: int) -> FrozenSet[Ordinal]:
    """All ordinals below a whose description size is within the budget."""
    if budget < 1 or a.is_zero:
        return frozenset()
    out = {ZERO}
    e0, c0 = a.terms[0]
    rest = Ordinal(a.terms[1:])
    # leading exponent strictly below e0
    for e in _bounded_below(e0, budget - 2):
        se = _size(e)
        for c in range(1, budget - se):
            for tail in _bounded_below(Ordinal.omega_power(e), budget - se - c):
                out.add(Ordinal(((e, c),) + tail.terms))
            out.add(Ordinal(((e, c),)))
    # leading term w^e0 with a smaller coefficient
    se0 = _size(e0)
    for c in range(1, c0):
        if se0 + c + 1 > budget:
            break
        for tail in _bounded_below(Ordinal.omega_power(e0), budget - se0 - c):
            out.add(Ordinal(((e0, c),) + tail.terms))
        out.add(Ordinal(((e0, c),)))
    # leading term equal, strictly smaller remainder
    head_size = se0 + c0
    if head_size + 1 <= budget:
        for tail in _bounded_below(rest, budget - head_size):
            out.add(Ordinal(((e0, c0),) + tail.terms))
    return frozenset(v for v in out if _size(v) <= budget)


# Per bound: the enumeration through the last budget tried, the set of all
# ordinals it holds, and the next budget.  Each budget only appends, so one
# stored prefix answers every count.
_PREFIXES: Dict[Ordinal, Tuple[List[Ordinal], FrozenSet[Ordinal], int]] = {}


def enumerate_below(a: OrdinalLike, count: int) -> List[Ordinal]:
    """First `count` entries of the fixed enumeration of {b : b < a}.

    Deterministic across runs; pairwise distinct; complete in the limit.
    When a is finite with fewer than `count` predecessors, all of them are
    returned.
    """
    a = as_ordinal(a)
    if count < 1:
        raise ValueError("count must be >= 1")
    out, prev, budget = _PREFIXES.get(a) or ([], frozenset(), 1)
    while len(out) < count and budget <= count + 2:
        cur = _bounded_below(a, budget)
        out.extend(sorted(cur - prev))
        prev = cur
        budget += 1
    _PREFIXES[a] = (out, prev, budget)
    return out[:count]


# -- text syntax -------------------------------------------------------------

_TOKEN = re.compile(r"\d+|w|\^|\*|\+|\(|\)|\s+")


def format_ordinal(a: Ordinal) -> str:
    if a.is_zero:
        return "0"
    parts = []
    for exp, coeff in a.terms:
        if exp.is_zero:
            parts.append(str(coeff))
            continue
        if exp == ONE:
            base = "w"
        else:
            es = format_ordinal(exp)
            base = f"w^{es}" if es.isdigit() or es == "w" else f"w^({es})"
        parts.append(base if coeff == 1 else f"{base}*{coeff}")
    return "+".join(parts)


def parse_ordinal(text: str) -> Ordinal:
    """Parse the textual syntax; sums normalize left to right."""
    tokens = []
    pos = 0
    for m in _TOKEN.finditer(text):
        if m.start() != pos:
            raise ValueError(f"bad ordinal syntax at {text[pos:]!r}")
        pos = m.end()
        tok = m.group()
        if not tok.isspace():
            tokens.append(tok)
    if pos != len(text):
        raise ValueError(f"bad ordinal syntax at {text[pos:]!r}")
    if not tokens:
        raise ValueError("empty ordinal")

    idx = 0

    def peek() -> Optional[str]:
        return tokens[idx] if idx < len(tokens) else None

    def take(expected: Optional[str] = None) -> str:
        nonlocal idx
        if idx >= len(tokens):
            raise ValueError("unexpected end of ordinal")
        tok = tokens[idx]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r}")
        idx += 1
        return tok

    def parse_expr() -> Ordinal:
        value = parse_term()
        while peek() == "+":
            take("+")
            value = ordinal_add(value, parse_term())
        return value

    def parse_term() -> Ordinal:
        tok = peek()
        if tok == "w":
            take("w")
            exponent = ONE
            if peek() == "^":
                take("^")
                exponent = parse_factor()
            coeff = 1
            if peek() == "*":
                take("*")
                coeff = int(take())
                if coeff < 1:
                    raise ValueError("coefficients must be >= 1")
            return Ordinal.omega_power(exponent, coeff)
        if tok is not None and tok.isdigit():
            return Ordinal.from_int(int(take()))
        raise ValueError(f"unexpected token {take()!r}")  # take() raises at the end

    def parse_factor() -> Ordinal:
        tok = peek()
        if tok == "(":
            take("(")
            value = parse_expr()
            take(")")
            return value
        if tok == "w":
            take("w")
            return OMEGA
        if tok is not None and tok.isdigit():
            return Ordinal.from_int(int(take()))
        raise ValueError(f"unexpected token {take()!r} in exponent")

    value = parse_expr()
    if idx != len(tokens):
        raise ValueError(f"trailing tokens: {tokens[idx:]}")
    return value
