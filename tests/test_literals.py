"""Property tests for the stored coefficient format and the literal readers.

Polynomials and series store canonical raw values (``FieldSpec.raw``): an int
in 0..p-1 in characteristic p, over Q an int when integral, else a Fraction
with denominator > 1.  Printing and parsing must round-trip them, and no
text or JSON document may make a reader raise anything but PerronvalError.
The API's integer fields take ints only: a float or a bool raises
InputError rather than be truncated or stored.
"""

import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from perronval.defect import ExtensionData, SimpleFamily, ostrowski
from perronval.errors import DivisionByZero, InputError, PerronvalError
from perronval.oracle import oracle_from_document
from perronval.perron import PerronTransform, verify_cramer
from perronval.poly import _RAT_RE, _VAR_RE, Polynomial, VariableFrame, parse_polynomial
from perronval.scalars import FieldSpec, PuiseuxSeries, format_series, parse_rational, parse_series
from perronval.valgroup import RATIONAL, parse_value, quadratic

FIELDS = [FieldSpec(p) for p in (0, 2, 3, 5, 7)]
# Structured draws cost about 5 ms each, so they get fewer examples than
# plain text; the file stays under about 3 s.
TEXT = settings(max_examples=200, deadline=None)
STRUCTURED = settings(max_examples=100, deadline=None)


def _canonical(field, v):
    if field.modular:
        return type(v) is int and 0 < v < field.characteristic
    if type(v) is int:
        return v != 0
    return type(v) is F and v.denominator > 1


def _fractions(low, high, max_den):
    return st.builds(F, st.integers(low * max_den, high * max_den), st.integers(1, max_den))


def _coefficient(field, v, form):
    """v as a Scalar, int, Fraction or rational string."""
    if field.modular and v.denominator % field.characteristic == 0:
        v = F(v.numerator)
    if form == "scalar":
        return field.scalar(v)
    if form == "int":
        return v.numerator
    return str(v) if form == "str" else v


_FORMS = st.sampled_from(["scalar", "int", "fraction", "str"])
_COEFFICIENTS = {f: st.builds(_coefficient, st.just(f), _fractions(-40, 40, 6), _FORMS)
                 for f in FIELDS}
_MONOMIALS = {m: st.tuples(*[st.integers(0, 4)] * m) for m in (1, 2, 3)}
_EXPONENTS = _fractions(-3, 6, 4)
_TRUNCATIONS = st.none() | _fractions(-2, 8, 4)


@st.composite
def polynomials(draw):
    field = draw(st.sampled_from(FIELDS))
    m = draw(st.integers(1, 3))
    frame = VariableFrame(m=m, n=1, generation=draw(st.integers(0, 2)))
    terms = draw(st.dictionaries(_MONOMIALS[m], _COEFFICIENTS[field], max_size=6))
    return Polynomial(frame, field, terms), terms


@st.composite
def series(draw):
    field = draw(st.sampled_from(FIELDS))
    terms = draw(st.dictionaries(_EXPONENTS, _COEFFICIENTS[field], max_size=6))
    trunc = draw(_TRUNCATIONS)
    return PuiseuxSeries(field, terms, trunc), terms


class TestStoredFormat:
    @STRUCTURED
    @given(polynomials())
    def test_polynomial_roundtrip_and_ring_operations(self, drawn):
        f, given_terms = drawn
        field = f.field
        assert all(_canonical(field, v) for v in f.terms.values())
        for mono, c in given_terms.items():
            assert field.scalar(f.terms.get(mono, 0)) == field.scalar(c)
        back = parse_polynomial(f.frame, field, str(f))
        assert back == f
        # the ring operations and kernels store canonical values too
        xm = Polynomial.variable(f.frame, field, f.frame.m - 1)
        outputs = [back, f + f, f - f * f, -f, f * 3, f ** 2, f.partial_last(),
                   f.translate_last(Polynomial.constant(f.frame, field, 5))]
        outputs += f.divmod_last(xm * 2 + 1)
        for h in outputs:
            assert all(_canonical(field, v) for v in h.terms.values())

    @STRUCTURED
    @given(series())
    def test_series_roundtrip(self, drawn):
        s, given_terms = drawn
        field = s.field
        assert all(_canonical(field, v) for v in s.terms.values())
        for q, c in given_terms.items():
            if s.trunc is None or q < s.trunc:
                assert field.scalar(s.terms.get(q, 0)) == field.scalar(c)
        trunc = "" if s.trunc is None else f" | trunc {s.trunc}"
        text = f"{format_series(s)}{trunc} | N {s.ram}"
        back = parse_series(field, text)
        assert (back, back.ram) == (s, s.ram)
        assert all(_canonical(field, v) for v in back.terms.values())


# Literal text near the grammars, and arbitrary text.
_TEXT = (st.text(max_size=40)
         | st.text(alphabet="x12t0379^*+-/()| .truncN", max_size=40))

_VALUE_TEXT = (st.text(max_size=30)
               | st.text(alphabet="0123-+/* sqrt()\u0663", max_size=30))

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)

_TEMPLATES = [
    {"version": 1, "kind": "arc", "ring": {"m": 2, "char": 0, "n": 1},
     "f": "x2^2 - x1^3", "arc": {"x1": "t^2", "x2": "t^3"}, "trunc": 40},
    {"version": 1, "kind": "arc", "ring": {"m": 2, "char": 3, "n": 1},
     "f": "x2^3 + 2*x1^2*x2 + 2*x1^4", "arc": {"x1": "t", "x2": "t^2*2 + t^4"},
     "trunc": 12, "normalization": "1/2"},
    {"version": 1, "kind": "monomial", "ring": {"m": 2, "n": 2, "char": 0},
     "generators": {"kind": "quadratic", "d": 2}, "weights": ["1", "sqrt(2)"]},
    {"version": 1, "kind": "chain", "ring": {"m": 2, "char": 0, "n": 1},
     "x1_value": "1", "steps": [{"phi": "x2", "gamma": "3/2"}]},
]
_KEYS = st.sampled_from(sorted({key for doc in _TEMPLATES for key in doc} | {"context"}))
_ACTIONS = st.sampled_from(["replace", "drop", "text"])


@st.composite
def documents(draw):
    """A template document with some fields replaced, dropped or nested
    fields mangled, or an arbitrary JSON value."""
    if draw(st.booleans()):
        return draw(_JSON)
    doc = dict(draw(st.sampled_from(_TEMPLATES)))
    for _ in range(draw(st.integers(1, 3))):
        key = draw(_KEYS)
        action = draw(_ACTIONS)
        if action == "drop":
            doc.pop(key, None)
        elif action == "text":
            doc[key] = draw(_TEXT)
        else:
            doc[key] = draw(_JSON)
    return doc


class TestReadersRaiseOnlyPerronvalError:
    @TEXT
    @given(_TEXT, st.sampled_from(FIELDS))
    def test_polynomial_text(self, text, field):
        try:
            parse_polynomial(VariableFrame(m=2, n=1), field, text)
        except PerronvalError:
            pass

    @TEXT
    @given(_TEXT, st.sampled_from(FIELDS))
    def test_series_text(self, text, field):
        try:
            parse_series(field, text)
        except PerronvalError:
            pass

    @STRUCTURED
    @given(documents())
    def test_oracle_documents(self, doc):
        try:
            oracle_from_document(doc)
        except PerronvalError:
            pass


def _reference_parse_polynomial(frame, field, text):
    """``parse_polynomial`` with every coefficient read as a Fraction and the
    term map handed to the validating constructor, as it was before integral
    coefficients stayed ints; kept as the reference."""
    if not isinstance(text, str):
        raise InputError(f"polynomial literal must be a string, got {text!r}")
    text = text.strip()
    if not text:
        raise InputError("empty polynomial literal")
    if text == "0":
        return Polynomial.zero(frame, field)
    tokens = re.findall(r"([+-]?)\s*([^+-]+)", text)
    if not tokens or "".join(s + t for s, t in tokens).replace(" ", "") != text.replace(" ", ""):
        raise InputError(f"cannot tokenize polynomial {text!r}")
    terms = {}
    for sign, chunk in tokens:
        chunk = chunk.strip()
        if not chunk:
            raise InputError(f"dangling sign in {text!r}")
        coeff = F(-1 if sign == "-" else 1)
        mono = [0] * frame.m
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor:
                raise InputError(f"empty factor in term {chunk!r}")
            if _RAT_RE.match(factor):
                coeff *= parse_rational(factor)
                continue
            m = _VAR_RE.match(factor)
            if not m:
                raise InputError(f"bad factor {factor!r}")
            idx, gen, exp = m.group("idx", "gen", "exp")
            try:
                idx, exp = int(idx), int(exp or 1)
                gen = None if gen is None else int(gen)
            except ValueError as exc:
                raise InputError(f"factor {factor[:40]!r}... is too long") from exc
            if not 1 <= idx <= frame.m:
                raise InputError(f"variable x{idx} outside the frame")
            if gen is not None and gen != frame.generation:
                raise InputError(
                    f"generation ({gen}) does not match frame generation "
                    f"{frame.generation}"
                )
            mono[idx - 1] += exp
        terms[tuple(mono)] = terms.get(tuple(mono), 0) + field.raw(coeff)
    return Polynomial(frame, field, terms)


def _parsed(parse, frame, field, text):
    """The term map of ``parse``'s result as (exponents, raw type, value)
    triples in stored order, or the class and message of its error."""
    try:
        f = parse(frame, field, text)
    except PerronvalError as exc:
        return type(exc), str(exc)
    return [(mono, type(v), v) for mono, v in f.terms.items()]


def _seeded_literal(rng, frame):
    """Terms with int and a/b coefficients anywhere among their factors,
    exponents 0..5 with and without the generation suffix, and copies of
    earlier terms, repeated or negated so that they cancel."""
    def var(i):
        gen = f"({frame.generation})" if frame.generation and rng.random() < 0.7 else ""
        return f"x{i}{gen}" + rng.choice(["", "^0", "^1", f"^{rng.randint(2, 5)}"])

    terms = []
    for _ in range(rng.randint(1, 5)):
        factors = [var(rng.randint(1, frame.m)) for _ in range(rng.randint(0, 3))]
        for _ in range(rng.randint(0, 2)):
            den = rng.choice([None, None, rng.randint(1, 12)])
            num = rng.randint(0, 40)
            factors.insert(rng.randint(0, len(factors)), f"{num}/{den}" if den else str(num))
        terms.append([rng.choice("+-"), "*".join(factors) or "1"])
    for _ in range(rng.randint(0, 3)):
        sign, body = rng.choice(terms)
        terms.append([rng.choice([sign, "-" if sign == "+" else "+"]), body])
    rng.shuffle(terms)
    text = "".join(f" {sign}{rng.choice(['', ' '])}{body}" for sign, body in terms)
    return text[2:] if text[1] == "+" and rng.random() < 0.5 else text


_REF_Q = r"-?[0-9]+(?:/[0-9]+)?"
_REF_TERM_RE = re.compile(rf"t(?:\^(?:\(({_REF_Q})\)|({_REF_Q})))?(?:\*({_REF_Q}))?")
_REF_SQRT_RE = re.compile(
    rf"\s*(?:({_REF_Q})\s*([+-])\s*)?(?:({_REF_Q})\s*\*\s*)?sqrt\(([0-9]+)\)\s*")


def _reference_parse_series(field, text):
    """``parse_series`` with every exponent and coefficient read as a
    Fraction and the term map handed to the validating constructor
    ``PuiseuxSeries(field, terms, trunc)``, as it was before the reader
    built its grid directly; kept as the reference."""
    if not isinstance(text, str):
        raise InputError(f"series literal must be a string, got {text!r}")
    parts = [p.strip() for p in text.split("|")]
    trunc = None
    for extra in parts[1:]:
        if extra.startswith("trunc"):
            trunc = parse_rational(extra[len("trunc"):])
        elif extra.startswith("N"):
            if parse_rational(extra[1:]).denominator != 1:
                raise InputError(f"ramification index {extra!r} is not an integer")
        elif extra:
            raise InputError(f"unknown series annotation {extra!r}")
    terms = {}
    if parts[0] not in ("", "0"):
        for chunk in parts[0].split("+"):
            chunk = chunk.strip()
            if re.fullmatch(_REF_Q, chunk):
                q, c = F(0), parse_rational(chunk)
            else:
                m = _REF_TERM_RE.fullmatch(chunk)
                if not m:
                    raise InputError(f"bad series term {chunk!r}")
                exp = m.group(1) or m.group(2)
                q = parse_rational(exp) if exp is not None else F(1)
                c = parse_rational(m.group(3)) if m.group(3) else F(1)
            terms[q] = terms.get(q, 0) + field.raw(c)
    return PuiseuxSeries(field, terms, trunc)


def _reference_parse_value(context, text):
    """``parse_value`` with a and b read as Fractions and handed to the
    validating ``Value`` constructor; kept as the reference."""
    if not isinstance(text, str):
        raise InputError(f"value literal must be a string, got {text!r}")
    text = text.strip()
    m = _REF_SQRT_RE.fullmatch(text)
    if m:
        if context.dim != 2:
            raise InputError("sqrt literal needs a quadratic context")
        d = int(parse_rational(m.group(4)))
        if d != context.d:
            raise InputError(f"sqrt({d}) does not match context sqrt({context.d})")
        a = parse_rational(m.group(1)) if m.group(1) else F(0)
        b = parse_rational(m.group(3)) if m.group(3) else F(1)
        return context.value(a, -b if m.group(2) == "-" else b)
    a = parse_rational(text)
    return context.value(a) if context.dim == 1 else context.value(a, 0)


def _outcome(parse, *args):
    """What ``parse(*args)`` returns, with its stored form, or the class and
    message of its error."""
    try:
        got = parse(*args)
    except PerronvalError as exc:
        return type(exc), str(exc)
    if isinstance(got, PuiseuxSeries):
        return got, (got.ram, got.pairs, got.den, got.top)
    return got, (got.nums, got.den)


def _seeded_series_literal(rng):
    """Terms c, t, t^q and t^(q)*c with int and a/b exponents and
    coefficients (a denominator of 7 or 12 is divisible by some p of
    FIELDS), copies of earlier terms, negated so that they cancel, and a
    truncation at, below or above some of the exponents."""
    def rational(low, high):
        num = rng.randint(low, high)
        return str(num) if rng.random() < 0.5 else f"{num}/{rng.choice([1, 2, 3, 4, 7, 12])}"

    terms = []
    for _ in range(rng.randint(1, 5)):
        exp, coeff = rational(-2, 12), rational(-9, 9)
        terms.append(rng.choice([coeff, "t", f"t^{exp}", f"t^({exp})*{coeff}", f"t*{coeff}"]))
    for _ in range(rng.randint(0, 3)):
        term = rng.choice(terms)
        if term.startswith("t^(") and "*" in term:
            head, coeff = term.rsplit("*", 1)
            terms.append(f"{head}*{coeff[1:] if coeff.startswith('-') else '-' + coeff}")
    rng.shuffle(terms)
    text = " + ".join(terms)
    if rng.random() < 0.6:
        text += f" | trunc {rational(0, 10)}"
    if rng.random() < 0.2:
        text += f" | N {rng.randint(1, 6)}"
    return text


class TestParserMatchesReference:
    def test_seeded_literals(self):
        rng = random.Random(11)
        kinds = set()
        for field in FIELDS:
            for frame in (VariableFrame(2, 1), VariableFrame(3, 2, 1)):
                for _ in range(150):
                    text = _seeded_literal(rng, frame)
                    got = _parsed(parse_polynomial, frame, field, text)
                    assert got == _parsed(_reference_parse_polynomial, frame, field, text), text
                    if isinstance(got, list):
                        assert all(_canonical(field, v) for _, _, v in got)
                        kinds |= {t for _, t, _ in got} | ({"zero"} if not got else set())
                    else:
                        kinds.add(got[0])
        assert kinds >= {int, F, "zero", DivisionByZero}

    @pytest.mark.parametrize("text", [
        "1" + "0" * 5000 + "*x1", "x1 + 2*" + "7" * 5000, "1/" + "3" * 5000 + "*x2",
        "3/0*x1", "1/5*x2", "10/3*x1 + 2/25", "x1 + ", "x1 ++ x2", "2**x1", "x3 + 1",
        "x1(2) - x2", "x2^" + "9" * 5000, "1.5*x1", "x1 - -2", "0", " 0 ", "", "-0*x1",
    ])
    def test_fixed_literals(self, text):
        frame = VariableFrame(2, 1)
        for field in FIELDS:
            assert (_parsed(parse_polynomial, frame, field, text)
                    == _parsed(_reference_parse_polynomial, frame, field, text))

    @TEXT
    @given(_TEXT, st.sampled_from(FIELDS))
    def test_arbitrary_text(self, text, field):
        frame = VariableFrame(m=2, n=1)
        assert (_parsed(parse_polynomial, frame, field, text)
                == _parsed(_reference_parse_polynomial, frame, field, text))


    def test_seeded_series_literals(self):
        rng = random.Random(13)
        kinds = set()
        for field in FIELDS:
            for _ in range(300):
                text = _seeded_series_literal(rng)
                got = _outcome(parse_series, field, text)
                assert got == _outcome(_reference_parse_series, field, text), text
                kinds.add(got[0] if type(got[0]) is type else "zero" if got[0].is_zero
                          else "truncated" if got[0].trunc is not None else "exact")
        assert kinds >= {"zero", "truncated", "exact", DivisionByZero}

    @pytest.mark.parametrize("text", [
        "t^(1/3) + t^(1/3)*-1 + t^2", "t^(1/1000003)*1 + t^(1/1000003)*-1 | trunc 100",
        "1/2 + -1/2", "t^(1/2)*5 + t^(1/2)*2 + 3", "t*3 + t*-3 | trunc 2",
        "t^5 + t^(7/2) + t | trunc 7/2", "t^(200001/200000) + t^(1/2) | trunc 1",
        "t^(1/70000) | trunc 1", "t^(1/70000) + t^(1/70000)*-1 | trunc 1", "t^-2 + t | trunc -1",
        "t*2/2", "t*1/2", "t^(4/6)*10/4 | trunc 2/1", "t | N 4/2", "t | N 3/2", "t | trunc 1/0",
        "t^(1/0)", "t*1/0", "1/0", "t^" + "9" * 5000, "t*" + "1" * 5000, "t^\u0663",
        "\u0663", "t*\u0663", "t^(1/\u0663)", "t | trunc \u0663", "0", "", "t | foo",
    ])
    def test_fixed_series_literals(self, text):
        for field in FIELDS:
            got = _outcome(parse_series, field, text)
            assert got == _outcome(_reference_parse_series, field, text), (field, text)

    @TEXT
    @given(_TEXT, st.sampled_from(FIELDS))
    def test_arbitrary_series_text(self, text, field):
        assert _outcome(parse_series, field, text) == _outcome(_reference_parse_series, field, text)

    @pytest.mark.parametrize("text", [
        "3", "-4/6", "2/1", "1/0", " 1 + sqrt(2)", "1/2 - 3/4*sqrt(2)", "-sqrt(2)", "6/4*sqrt(2)",
        "sqrt(3)", "sqrt(2) + 1", "1 + \u0663*sqrt(2)", "\u0663*sqrt(2)", "sqrt(\u0662)",
        "\u0663", "1" * 5000, "sqrt(" + "2" * 5000 + ")", "1/2*sqrt(2)",
    ])
    def test_fixed_value_literals(self, text):
        for context in (RATIONAL, quadratic(2)):
            got = _outcome(parse_value, context, text)
            assert got == _outcome(_reference_parse_value, context, text), (context, text)

    @TEXT
    @given(_VALUE_TEXT, st.sampled_from([RATIONAL, quadratic(2), quadratic(5)]))
    def test_arbitrary_value_text(self, text, context):
        assert (_outcome(parse_value, context, text)
                == _outcome(_reference_parse_value, context, text))


@pytest.mark.parametrize("text", ["t^\u0663", "\u0663*t", "t*\u0663", "t^(1/\uff13)",
                                  "\u0663", "t | trunc \u0663"])
def test_series_literals_refuse_non_ascii_digits(text):
    for field in FIELDS:
        with pytest.raises(InputError):
            parse_series(field, text)


@pytest.mark.parametrize("text", ["\u0663*sqrt(2)", "1 + sqrt(\u0662)", "\u0663",
                                  "\uff11/2 - sqrt(2)"])
def test_value_literals_refuse_non_ascii_digits(text):
    for context in (RATIONAL, quadratic(2)):
        with pytest.raises(InputError):
            parse_value(context, text)


CUSP_A1 = PerronTransform("A1", ((2, 1), (3, 2)), VariableFrame(m=2, n=1), c=FieldSpec(0).one)


@pytest.mark.parametrize("build", [
    lambda: FieldSpec(2.0),
    lambda: FieldSpec(True),
    lambda: VariableFrame(m=2.5, n=1),
    lambda: VariableFrame(m=2, n=True),
    lambda: VariableFrame(m=2, n=1, generation=1.0),
    lambda: ostrowski(ExtensionData(degree=4.0, e=2, p=2)),
    lambda: ExtensionData(degree=4, e=2, fres=True, p=2),
    lambda: SimpleFamily(1.5, 2),
    lambda: PerronTransform("A1", ((1.0, 0), (1, 1)), VariableFrame(m=2, n=1),
                            c=FieldSpec(0).one),
    lambda: PerronTransform("A6", ((True,),), VariableFrame(m=2, n=1)),
    lambda: verify_cramer(CUSP_A1, (3.7, 0.2), (0.9, 2.0),
                          [RATIONAL.value(2), RATIONAL.value(3)]),
], ids=["char-float", "char-bool", "frame-m-float", "frame-n-bool", "frame-generation-float",
        "extension-degree-float", "extension-f-bool", "family-float", "a1-entry-float",
        "a6-entry-bool", "cramer-float-vectors"])
def test_integer_fields_refuse_floats_and_bools(build):
    with pytest.raises(InputError, match="int"):
        build()


@pytest.mark.parametrize("p", [0, 2, 5])
@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("build", [
    lambda field, flag: field.scalar(flag),
    lambda field, flag: field.one + flag,
    lambda field, flag: Polynomial(VariableFrame(m=2, n=1), field, {(1, 0): flag}),
    lambda field, flag: PuiseuxSeries(field, {F(1, 2): flag}),
], ids=["scalar", "scalar-sum", "polynomial", "series"])
def test_coefficients_refuse_bools(build, flag, p):
    # a bool is an int to Python, but True is not a field element: it would
    # print as "True" in a scalar and pass for 1 in a term map
    with pytest.raises(InputError, match="scalar"):
        build(FieldSpec(p), flag)
