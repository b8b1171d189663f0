"""One-pair plane branches and their equations, in integer arithmetic.

A branch is x1 = t^n, x2 = y(t) with y = P(t^n) + t^beta + (terms above
beta), gcd(n, beta) = 1 and integer coefficients: one Puiseux pair, whose
characteristic exponent is beta / n.  Its equation is
f = prod_k (x2 - y(zeta^k t)) over the n-th roots of unity zeta^k, monic of
degree n in x2.  No root of unity is computed.  The power sums
p_j = sum_k y(zeta^k t)^j are n times the part of y^j whose t-exponents n
divides, and Newton's identities j e_j = sum_{i=1..j} (-1)^(i-1) e_(j-i) p_i
give the elementary symmetric functions e_j of the roots, polynomials in
x1 = t^n with integer coefficients (each division by j is exact).  Then
f = sum_j (-1)^j e_j x2^(n-j) vanishes on the branch in Z[t], and so in
every characteristic.

The curve x2^a - x1^b composed with x2 -> x2 - c x1^k is the branch
``Branch(a, b, {k: c})``.  Stdlib only.
"""

from __future__ import annotations

import math


def _mul(a: dict, b: dict) -> dict:
    """Product of two {exponent: int} polynomials in one variable."""
    out = {}
    for i, u in a.items():
        for j, v in b.items():
            out[i + j] = out.get(i + j, 0) + u * v
    return {k: v for k, v in out.items() if v}


def equation(n: int, y: dict) -> dict:
    """{(x1-exponent, x2-exponent): int} of f for the branch (t^n, y), y a
    {t-exponent: int} map of a polynomial with y(0) = 0."""
    sums, power = [], {0: 1}
    for _ in range(n):
        power = _mul(power, y)
        sums.append({k // n: n * v for k, v in power.items() if k % n == 0})
    e = [{0: 1}]
    for j in range(1, n + 1):
        acc = {}
        for i in range(1, j + 1):
            for k, v in _mul(e[j - i], sums[i - 1]).items():
                acc[k] = acc.get(k, 0) + (v if i % 2 else -v)
        if any(v % j for v in acc.values()):
            raise ArithmeticError("Newton's identities left a remainder")
        e.append({k: v // j for k, v in acc.items() if v})
    return {(k, n - j): (-v if j % 2 else v) for j in range(n + 1) for k, v in e[j].items()}


def polynomial_text(f: dict) -> str:
    """f, with no constant term, in the polynomial grammar: terms by
    descending x2- then x1-degree, ``- `` before a negative coefficient."""
    terms = []
    for (k, l), v in sorted(f.items(), key=lambda item: (-item[0][1], -item[0][0])):
        body = "*".join(f"{x}^{e}" if e > 1 else x for x, e in (("x1", k), ("x2", l)) if e)
        terms.append(body if v == 1 else f"-{body}" if v == -1 else f"{v}*{body}")
    return " + ".join(terms).replace("+ -", "- ")


def series_text(y: dict) -> str:
    """y in the series grammar, ``t^e*c`` by ascending e."""
    return " + ".join(f"t^{e}*{c}" for e, c in sorted(y.items()))


class Branch:
    """The branch x1 = t^n, x2 = sum_j poly[j] t^(n j) + t^beta + sum tail[e] t^e."""

    __slots__ = ("n", "beta", "poly", "tail", "y", "f")

    def __init__(self, n: int, beta: int, poly: dict = None, tail: dict = None):
        poly, tail = dict(poly or {}), dict(tail or {})
        if n < 1 or beta < 1 or math.gcd(n, beta) != 1:
            raise ValueError(f"need gcd(n, beta) = 1, got n = {n}, beta = {beta}")
        if any(not 0 < n * j < beta for j in poly) or any(e <= beta for e in tail):
            raise ValueError("the polynomial part lies below beta and the tail above it")
        self.n, self.beta, self.poly, self.tail = n, beta, poly, tail
        self.y = {n * j: c for j, c in poly.items() if c}
        self.y[beta] = 1
        self.y.update((e, c) for e, c in tail.items() if c)
        self.f = equation(n, self.y)

    def document(self, char: int = 0, trunc=None) -> dict:
        """The arc document of the branch over Q (char 0) or F_char."""
        doc = {"version": 1, "kind": "arc", "ring": {"m": 2, "char": char, "n": 1},
               "f": polynomial_text(self.f),
               "arc": {"x1": f"t^{self.n}", "x2": series_text(self.y)}}
        if trunc is not None:
            doc["trunc"] = trunc
        return doc


def _coefficient(rng) -> int:
    """A nonzero int of absolute value at most 6: a unit mod every p > 6."""
    return rng.choice([-1, 1]) * rng.randint(1, 6)


def draw(rng) -> Branch:
    """A random branch with 2 <= n <= 12 and n < beta <= 3n + 1: half of
    them with a polynomial part, and a tail of up to three terms at most 10
    above beta."""
    n = rng.randint(2, 12)
    beta = rng.choice([b for b in range(n + 1, 3 * n + 2) if math.gcd(n, b) == 1])
    poly = {}
    if rng.random() < 0.5:
        below = range(1, (beta - 1) // n + 1)
        poly = {j: _coefficient(rng) for j in rng.sample(below, rng.randint(1, len(below)))}
    exps = rng.sample(range(beta + 1, beta + 11), rng.randint(0, 3))
    return Branch(n, beta, poly, {e: _coefficient(rng) for e in exps})
