"""Same outputs from the value layer: one sha256 over seeded cases.

About 2,000 cases over the rational context and Q(sqrt(2)), Q(sqrt(3)),
Q(sqrt(5)): value arithmetic and comparisons, `member`, `rational_relation`
(its result or its error class), `lattice_index`, the matrices of `build_a1`
and `build_a6_divide`, and `monomialize` results.  Each case is written as
one line of text and the lines are hashed in order.  A change that alters
these outputs on purpose prints the new digest with

    PYTHONPATH=src python tests/test_value_digest.py

and says why.
"""

import hashlib
import json
import random
from fractions import Fraction as F

from perronval.errors import PerronvalError
from perronval.perron import build_a1, build_a6_divide, monomialize
from perronval.poly import Polynomial, VariableFrame
from perronval.scalars import FieldSpec
from perronval.valgroup import (
    RATIONAL,
    ValueLattice,
    format_value,
    lattice_index,
    member,
    pairing,
    quadratic,
    rational_relation,
)

DIGEST = "c4d7a40de8b0fde406701369ccf3cf64fd5fa81fdd204240679f0fd1eb817e0e"

QQ = FieldSpec(0)
CONTEXTS = (RATIONAL, quadratic(2), quadratic(3), quadratic(5))


def _rational(rng, size=9):
    return F(rng.randint(-size, size), rng.choice((1, 1, 2, 3, 4, 6, 7)))


def _value(rng, ctx, size=9):
    return ctx.value(*(_rational(rng, size) for _ in range(ctx.dim)))


def _positive(rng, ctx):
    while True:
        v = _value(rng, ctx)
        if v.sign() > 0:
            return v


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PerronvalError as exc:
        return type(exc).__name__


def _arithmetic(rng, ctx):
    u, v = _value(rng, ctx, 10 ** rng.randint(1, 30)), _value(rng, ctx)
    q = _rational(rng) if rng.random() < 0.5 else rng.randint(-9, 9)
    exps = [rng.randint(-5, 5) for _ in range(3)]
    return [format_value(x) for x in (u + v, u - v, -u, u.scale(q),
                                      pairing(exps, [u, v, u.scale(q)]))] + [
        u.sign(), u < v, u <= v, u > v, u >= v, u == v]


def _member(rng, ctx):
    gens = [_value(rng, ctx, 6) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.6:
        v = pairing([rng.randint(-5, 5) for _ in gens], gens)
    else:
        v = _value(rng, ctx, 6)
    return member(v, ValueLattice(ctx, tuple(gens)))


def _relation(rng, ctx):
    lead = [_value(rng, ctx) for _ in range(rng.randint(1, ctx.dim + 1))]
    if rng.random() < 0.7:
        last = pairing([rng.randint(-6, 6) for _ in lead], lead).scale(F(1, rng.randint(1, 6)))
    else:
        last = _value(rng, ctx)
    return _outcome(rational_relation, lead + [last])


def _index(rng, ctx):
    big = [_value(rng, ctx, 6) for _ in range(rng.randint(1, 3))]
    small = [pairing([rng.randint(-4, 4) for _ in big], big) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.2:
        small[0] = small[0].scale(F(1, rng.randint(2, 3)))
    return str(_outcome(lattice_index, ValueLattice(ctx, tuple(big)), ValueLattice(ctx, tuple(small))))


def _a1(rng, ctx):
    n = rng.randint(1, ctx.dim)
    frame = VariableFrame(m=n + 1, n=n)
    w = [_positive(rng, ctx) for _ in range(n)]
    if rng.random() < 0.85:
        gamma = pairing([rng.randint(0, 5) for _ in w], w).scale(F(1, rng.randint(1, 5)))
    else:
        gamma = _value(rng, ctx)
    tau = _outcome(build_a1, w, gamma, frame, c=QQ.one, bound=300)
    return tau if isinstance(tau, str) else tau.matrix


def _a6(rng, ctx):
    n = rng.randint(1, 2)
    frame = VariableFrame(m=n, n=n)
    w = [_positive(rng, ctx) for _ in range(n)]
    m1, m2 = ([rng.randint(0, 8) for _ in range(n)] for _ in range(2))
    if pairing(m2, w) < pairing(m1, w):
        m1, m2 = m2, m1
    tau = _outcome(build_a6_divide, m1, m2, w, frame, bound=300)
    return tau if isinstance(tau, str) else tau.matrix


def _monomialize(rng, ctx):
    frame = VariableFrame(m=2, n=2)
    w = [_positive(rng, ctx) for _ in range(2)]
    terms = {(rng.randint(0, 9), rng.randint(0, 9)): rng.choice((-3, -1, 1, 2, F(1, 2)))
             for _ in range(rng.randint(2, 5))}
    res = _outcome(monomialize, Polynomial(frame, QQ, terms), w, frame, bound=200)
    if isinstance(res, str):
        return res
    return [[t.matrix for t in res.transforms], res.exponents, str(res.unit)]


CASES = (
    ("arithmetic", _arithmetic, 120),
    ("member", _member, 100),
    ("relation", _relation, 100),
    ("index", _index, 75),
    ("a1", _a1, 60),
    ("a6", _a6, 60),
    ("monomialize", _monomialize, 20),
)


def value_layer_digest() -> str:
    h = hashlib.sha256()
    for ctx in CONTEXTS:
        rng = random.Random(f"value-layer/{ctx.d}")
        for name, case, count in CASES:
            for k in range(count):
                line = json.dumps([str(ctx.d), name, k, case(rng, ctx)], default=str)
                h.update(line.encode() + b"\n")
    return h.hexdigest()


def test_value_layer_outputs_match_the_recorded_digest():
    assert value_layer_digest() == DIGEST


if __name__ == "__main__":
    print(value_layer_digest())
