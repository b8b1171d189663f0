import json
import math
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from perronval.cli import _dump, _write, main
from perronval.errors import InputError, PerronvalError
from perronval.oracle import DOCUMENT_VERSION, oracle_from_document
from perronval.perron import monomialize
from perronval.poly import parse_polynomial
from perronval.reduce import run_reduction, trace_document
from contract_fuzz import fuzz
from replay_check import replay_matches
from test_corpus_digest import _corpus

CUSP = {
    "version": 1,
    "kind": "arc",
    "ring": {"m": 2, "char": 0, "n": 1},
    "f": "x2^2 - x1^3",
    "arc": {"x1": "t^2", "x2": "t^3"},
    "trunc": 40,
}

WEIGHTS = {
    "version": 1,
    "kind": "monomial",
    "ring": {"m": 2, "n": 2, "char": 0},
    "generators": {"kind": "quadratic", "d": 2},
    "weights": ["1", "sqrt(2)"],
}

CHAIN = {
    "version": 1,
    "kind": "chain",
    "ring": {"m": 2, "char": 0, "n": 1},
    "x1_value": "1",
    "steps": [{"phi": "x2", "gamma": "3/2"}],
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestValuate:
    def test_finite_value(self, tmp_path, capsys):
        oracle = write(tmp_path, "cusp.json", CUSP)
        assert main(["valuate", "--oracle", oracle, "--poly", "x2"]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_infinite(self, tmp_path, capsys):
        oracle = write(tmp_path, "cusp.json", CUSP)
        assert main(["valuate", "--oracle", oracle, "--poly", "x2^2-x1^3"]) == 0
        assert capsys.readouterr().out.strip() == "INFINITE"

    def test_malformed_poly_exits_2(self, tmp_path, capsys):
        oracle = write(tmp_path, "cusp.json", CUSP)
        assert main(["valuate", "--oracle", oracle, "--poly", "x2^^"]) == 2
        assert "error" in capsys.readouterr().err

    def test_above_truncation_prints_and_exits_0(self, tmp_path, capsys):
        doc = dict(CUSP)
        doc["trunc"] = 10
        oracle = write(tmp_path, "cusp10.json", doc)
        assert main(["valuate", "--oracle", oracle,
                     "--poly", "x2^2 - x1^3 + x1^10"]) == 0
        assert capsys.readouterr().out.strip().startswith("ABOVE-TRUNCATION(")

    def test_high_power_on_exact_arc(self, tmp_path, capsys):
        # value() first divides x2^k by f in x_m, then evaluates it; at
        # k = 500 the quotient spans 500 * (500 * 2 + 1) slots, under the
        # division budget
        doc = {
            "version": 1, "kind": "arc",
            "ring": {"m": 2, "char": 0, "n": 1},
            "f": "x2 - x1 - x1^2",
            "arc": {"x1": "t", "x2": "t + t^2"},
        }
        oracle = write(tmp_path, "line.json", doc)
        for k in ("200", "500"):
            assert main(["valuate", "--oracle", oracle, "--poly", f"x2^{k}"]) == 0
            assert capsys.readouterr().out.strip() == k

    def test_oversized_division_exits_2_within_a_second(self, tmp_path, capsys):
        # dividing x2^10000 by f in x_m would build 9999 quotient rows, each
        # up to 9999 * 5 + 4 degrees in x1: refused before any row is built
        doc = {
            "version": 1, "kind": "arc",
            "ring": {"m": 2, "char": 0, "n": 1},
            "f": "x2^2 - 2*x1*x2 + x1^2 - x1^5",
            "arc": {"x1": "t", "x2": "t + t^(5/7)"},
            "trunc": 20,
        }
        oracle = write(tmp_path, "tacnode.json", doc)
        start = time.perf_counter()
        assert main(["valuate", "--oracle", oracle, "--poly", "x2^10000 - x1^3"]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: INPUT") and "x_m-division" in err and "Traceback" not in err

    # x1 = x2 = t + t^2 exactly: x1^k is the exact series (t + t^2)^k
    EXACT_LINE = {
        "version": 1, "kind": "arc",
        "ring": {"m": 2, "char": 0, "n": 1},
        "f": "x2 - x1",
        "arc": {"x1": "t + t^2", "x2": "t + t^2"},
    }

    def test_exact_power_is_evaluated(self, tmp_path, capsys):
        oracle = write(tmp_path, "exact.json", self.EXACT_LINE)
        assert main(["valuate", "--oracle", oracle, "--poly", "x1^1000"]) == 0
        assert capsys.readouterr().out.strip() == "1000"

    def test_huge_exact_power_exits_2(self, tmp_path, capsys):
        # (t + t^2)^(10^9) spans 10^9 + 1 slots: refused from the orders and
        # bit lengths, before any large integer is built
        oracle = write(tmp_path, "exact.json", self.EXACT_LINE)
        assert main(["valuate", "--oracle", oracle, "--poly", "x1^1000000000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: INPUT") and "slots" in err and "Traceback" not in err

    def test_huge_last_exponent_exits_2(self, tmp_path, capsys):
        # dividing x2^(10^9) by f in x_m would lay out 10^9 + 1 rows
        oracle = write(tmp_path, "cusp.json", CUSP)
        assert main(["valuate", "--oracle", oracle, "--poly", "x2^1000000000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: INPUT") and "rows" in err and "Traceback" not in err


def without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


@pytest.mark.parametrize("doc", [
    without(WEIGHTS, "weights"),
    without(CHAIN, "steps"),
    without(CUSP, "f"),
    {**CUSP, "trunc": "abc"},
    {**CUSP, "f": 5},
    {**WEIGHTS, "weights": 5},
    {**CHAIN, "steps": [5]},
    {**CUSP, "ring": {"m": 2, "n": "x"}},
], ids=["monomial-no-weights", "chain-no-steps", "arc-no-f", "arc-bad-trunc",
        "arc-f-number", "monomial-weights-number", "chain-step-number", "ring-n-text"])
def test_malformed_oracle_document_exits_2(tmp_path, capsys, doc):
    oracle = write(tmp_path, "bad.json", doc)
    assert main(["valuate", "--oracle", oracle, "--poly", "x2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: INPUT") and "Traceback" not in err


@pytest.mark.parametrize("doc", [
    {**CUSP, "trunc": "1e999999"},
    {**CUSP, "arc": {"x1": "t^2 | trunc abc", "x2": "t^3"}},
    {**CUSP, "arc": {"x1": "t^2 | N x", "x2": "t^3"}},
    {**CUSP, "arc": {"x1": "t^2 + t^3*1/0", "x2": "t^3"}},
    {**CUSP, "f": "x2^2 - 1/0*x1^3"},
    {**CUSP, "f": "x2^" + "1" * 5000},
    {**CUSP, "normalization": "1/0"},
    {**CUSP, "arc": {"x1": "t^\u0663", "x2": "t^3"}},
    {**CUSP, "arc": {"x1": "t^2", "x2": "t^3*\u0663"}},
    {**CUSP, "context": {"kind": "quadratic", "d": 2}, "normalization": "\u0663*sqrt(2)"},
    {**CUSP, "normalization": "\u0663"},
], ids=["trunc-exponent", "series-trunc", "series-ramification", "series-coefficient",
        "polynomial-coefficient", "polynomial-exponent-digits", "normalization",
        "series-exponent-non-ascii", "series-coefficient-non-ascii",
        "normalization-sqrt-non-ascii", "normalization-non-ascii"])
def test_bad_literal_exits_2(tmp_path, capsys, doc):
    oracle = write(tmp_path, "bad.json", doc)
    assert main(["valuate", "--oracle", oracle, "--poly", "x2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: INPUT") and "Traceback" not in err


@pytest.mark.parametrize("command", ["valuate", "reduce"])
@pytest.mark.parametrize("text", ['{"kind": "arc",', '{"kind": "arc", "trunc": 1%s}' % ("0" * 5000)],
                         ids=["truncated-json", "overlong-number"])
def test_unreadable_document_exits_2(tmp_path, capsys, command, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    args = [command, "--oracle", str(path)] + (["--poly", "x2"] if command == "valuate" else [])
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: INPUT") and "Traceback" not in err


@pytest.mark.parametrize("doc", [
    {**CUSP, "ring": {"m": 2.5, "char": 0, "n": 1}},
    {**CUSP, "ring": {"m": 2, "char": 0, "n": True}},
    {**CUSP, "ring": {"m": 2, "char": 0.0, "n": 1}},
    {**CUSP, "ring": {"m": "2.5", "char": 0, "n": 1}},
    {**WEIGHTS, "generators": {"kind": "quadratic", "d": 2.5}},
    {**WEIGHTS, "generators": {"kind": "quadratic", "d": "2/1"}},
], ids=["m-float", "n-bool", "char-float", "m-text", "d-float", "d-fraction"])
def test_non_integer_ring_or_context_number_exits_2(tmp_path, capsys, doc):
    oracle = write(tmp_path, "bad.json", doc)
    assert main(["valuate", "--oracle", oracle, "--poly", "x2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: INPUT") and "Traceback" not in err


@pytest.mark.parametrize("command", ["valuate", "reduce"])
@pytest.mark.parametrize("doc", [
    {**CUSP, "ring": {"m": 1000000, "char": 0}},
    {**CUSP, "arc": {"x1": "t^(1/1000003)*1 + t | trunc 100", "x2": "t^3"}},
], ids=["ring-size", "series-grid"])
def test_oversized_document_exits_2(tmp_path, capsys, command, doc):
    oracle = write(tmp_path, "big.json", doc)
    args = [command, "--oracle", oracle] + (["--poly", "x2"] if command == "valuate" else [])
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: INPUT") and "Traceback" not in err


@pytest.mark.parametrize("command", ["valuate", "reduce"])
@pytest.mark.parametrize("doc", [
    {**CUSP, "normalization": "0"},
    {**CUSP, "normalization": "-1"},
    {**CUSP, "context": {"kind": "quadratic", "d": 2}, "normalization": "1 - sqrt(2)"},
], ids=["zero", "negative", "negative-quadratic"])
def test_non_positive_normalization_exits_2(tmp_path, capsys, command, doc):
    # a value group must be ordered with value(x) > 0 on the maximal ideal
    oracle = write(tmp_path, "bad.json", doc)
    args = [command, "--oracle", oracle] + (["--poly", "x2 - x1"] if command == "valuate" else [])
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: INPUT") and "normalization" in err


@pytest.mark.parametrize("poly", ["x\u0662^\u0663 - x1", "x2^\uff13 - x1"],
                         ids=["arabic", "fullwidth"])
def test_non_ascii_digits_in_poly_exit_2(tmp_path, capsys, poly):
    oracle = write(tmp_path, "cusp.json", CUSP)
    assert main(["valuate", "--oracle", oracle, "--poly", poly]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: INPUT")


def test_huge_characteristic_exits_2(tmp_path, capsys):
    oracle = write(tmp_path, "big.json", {**CUSP, "ring": {"m": 2, "char": 2**80, "n": 1}})
    assert main(["valuate", "--oracle", oracle, "--poly", "x2"]) == 2
    assert "2^64" in capsys.readouterr().err


# str() prints ints of at most 4300 digits; K + K = 10^4300 has 4301, and
# the successor of the 4300-nines generation too
K_NINES = "9" * 4299
K_HALF = "5" + "0" * 4299
GEN = "9" * 4300


def _arc(f, x1, x2, **extra):
    return {"version": 1, "kind": "arc", "ring": {"m": 2, "char": 0, "n": 1},
            "f": f, "arc": {"x1": x1, "x2": x2}, **extra}


@pytest.mark.parametrize("args, doc", [
    (["valuate", "--poly", "x1"],
     _arc("x2 - x1", f"t^{K_NINES}", f"t^{K_NINES}", normalization=K_NINES)),
    (["reduce"], _arc(f"x2^2 - x1^{K_HALF}*x1^{K_HALF}", "t", f"t^{K_HALF}")),
    (["reduce"], {**CUSP, "ring": {"m": 2, "char": 0, "n": 1, "gen": int(GEN)},
                  "arc": {f"x1({GEN})": "t^2", f"x2({GEN})": "t^3"}}),
    (["valuate", "--poly", f"x2^{K_HALF}*x2^{K_HALF}"], CUSP),
], ids=["value", "exponent", "generation", "degree-message"])
def test_number_above_the_print_limit_exits_2(tmp_path, capsys, args, doc):
    oracle = write(tmp_path, "big.json", doc)
    assert main(args[:1] + ["--oracle", oracle] + args[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: INPUT") and "Traceback" not in err


def test_dump_refuses_an_integer_above_the_print_limit():
    with pytest.raises(InputError, match="too long to print"):
        _dump({"generation": 10 ** 4300})
    out = []
    with pytest.raises(ValueError):
        _write({"generation": 10 ** 4300}, out, "\n")


def _nested(depth):
    doc = inner = []
    for _ in range(depth - 1):
        inner.append([])
        inner = inner[0]
    return doc


@pytest.mark.parametrize("command", ["valuate", "reduce"])
def test_deeply_nested_document_exits_2(tmp_path, capsys, command):
    # json.load recurses once per level: past the recursion limit the
    # document is refused like any other unreadable one
    depth = 10 ** 5
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(CUSP)[:-1] + ', "deep": ' + "[" * depth + "]" * depth + "}")
    args = [command, "--oracle", str(path)] + (["--poly", "x2"] if command == "valuate" else [])
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: INPUT") and "Traceback" not in err


def test_dump_refuses_a_document_nested_past_the_recursion_limit():
    with pytest.raises(InputError, match="nested too deeply"):
        _dump({"deep": _nested(10 ** 5)})


def _reference_dump(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _written(doc):
    """The writer's text whatever the interpreter (``_dump`` calls
    ``json.dumps`` itself from Python 3.13 on)."""
    out = []
    _write(doc, out, "\n")
    return "".join(out) + "\n"


# what json.load returns: str keys; strings with non-ASCII, control and
# astral characters; negative and 4000-digit ints; floats with -0.0, NaN
# and both infinities; bools and None
_STRINGS = st.text(max_size=12) | st.text(
    alphabet=st.sampled_from("a\"\\/\x00\x1f\x7f\n\t\u00e9\u2028\ud7ff\ue000\U0001f600\U0010ffff"),
    max_size=8)
_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.builds(lambda sign, k: sign * (10 ** 3999 + k), st.sampled_from([1, -1]),
                        st.integers(0, 10 ** 6))
            | st.floats() | st.sampled_from([-0.0, math.nan, math.inf, -math.inf])
            | _STRINGS)
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_STRINGS, inner, max_size=4),
    max_leaves=20,
)


class TestWriter:
    """``_write`` gives ``json.dumps(doc, indent=2, sort_keys=True)`` byte
    for byte, and ``_dump`` keeps to it on every interpreter."""

    @settings(max_examples=300, deadline=None)
    @given(_DOCUMENTS)
    def test_drawn_documents(self, doc):
        expected = _reference_dump(doc)
        assert _written(doc) == expected
        assert _dump(doc) == expected

    @pytest.mark.parametrize("doc", [
        {}, [], {"a": {}, "b": []}, [[[]]], {"k": [1, -2, 0]}, (1, (2, "x")), "\u00e9",
        {"z": None, "y": True, "x": False, "w": 1.5e300, "v": -0.0}, 10 ** 4299, -(10 ** 4299),
    ])
    def test_fixed_documents(self, doc):
        assert _written(doc) == _dump(doc) == _reference_dump(doc)

    @pytest.mark.parametrize("workload", ["ladder", "pairs", "charp", "monomialize"])
    def test_every_seed_one_corpus_document(self, workload):
        docs = []
        for item in _corpus().generate(workload, 1):
            try:
                oracle = oracle_from_document(item["doc"])
                if workload != "monomialize":
                    docs.append(trace_document(run_reduction(oracle), item["doc"]))
                    continue
                res = monomialize(parse_polynomial(oracle.frame, oracle.field, item["poly"]),
                                  oracle.weights, oracle.frame)
            except PerronvalError:
                continue
            docs.append({"version": DOCUMENT_VERSION,
                         "transforms": [t.document() for t in res.transforms],
                         "exponents": list(res.exponents), "unit": str(res.unit)})
        assert docs
        for doc in docs:
            assert _written(doc) == _dump(doc) == _reference_dump(doc)


class TestReduce:
    def test_cusp_trace(self, tmp_path, capsys):
        oracle = write(tmp_path, "cusp.json", CUSP)
        out = tmp_path / "trace.json"
        assert main(["reduce", "--oracle", oracle, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["status"] == "REDUCED-TO-SMOOTH"
        matrices = [s["transform"]["matrix"] for s in doc["steps"] if s["kind"] == "A1"]
        assert matrices == [[[2, 1], [3, 2]]]
        assert replay_matches(doc)

    def test_defect_curve_exits_3(self, tmp_path, capsys):
        terms = " + ".join(f"t^{1 + 2**i}" for i in range(6))
        doc = {
            "version": 1, "kind": "arc",
            "ring": {"m": 2, "char": 2, "n": 1},
            "f": "x2^2 + x1*x2 + x1^3",
            "arc": {"x1": "t", "x2": terms},
            "trunc": 40,
        }
        oracle = write(tmp_path, "defect.json", doc)
        assert main(["reduce", "--oracle", oracle]) == 3
        trace = json.loads(capsys.readouterr().out)
        assert trace["status"] == "DEFECT-SUSPECTED"
        assert trace["diagnostics"]["ladder"][:4] == ["2", "3", "5", "9"]

    def test_inconsistent_arc_exits_2(self, tmp_path, capsys):
        doc = dict(CUSP)
        doc["f"] = "x2^2 - x1^5"
        oracle = write(tmp_path, "bad.json", doc)
        assert main(["reduce", "--oracle", oracle]) == 2

    def test_translation_bound_exits_4(self, tmp_path, capsys):
        doc = {
            "version": 1, "kind": "arc",
            "ring": {"m": 2, "char": 2, "n": 1},
            "f": "x2^2 + x1^2 + x1^4 + x1^5",
            "arc": {"x1": "t", "x2": "t + t^2 + t^(5/2)"},
            "trunc": 40,
        }
        oracle = write(tmp_path, "c.json", doc)
        assert main(["reduce", "--oracle", oracle, "--max-translations", "0"]) == 4

    def test_each_bound_limits_its_own_loop(self, tmp_path, capsys):
        # one translation, found by a two-step approximation ladder x1, x1^2
        doc = {
            "version": 1, "kind": "arc",
            "ring": {"m": 2, "char": 2, "n": 1},
            "f": "x2^2 + x1^2 + x1^4 + x1^5",
            "arc": {"x1": "t", "x2": "t + t^2 + t^(5/2)"},
            "trunc": 40,
        }
        oracle = write(tmp_path, "c.json", doc)
        assert main(["reduce", "--oracle", oracle, "--max-translations", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "REDUCED-TO-SMOOTH"
        assert main(["reduce", "--oracle", oracle, "--max-approx-steps", "1"]) == 3
        trace = json.loads(capsys.readouterr().out)
        assert trace["diagnostics"]["reason"] == "STEP-BOUND"
        assert trace["diagnostics"]["ladder"] == ["1", "2"]

    @pytest.mark.parametrize("doc, args, reason", [
        (CUSP, ["--trunc", "3"], "TRUNCATION"),
        ({**CUSP, "f": "x2^7 - x1^11", "arc": {"x1": "t^7", "x2": "t^11"}, "trunc": 200},
         ["--max-perron-steps", "3"], "STEP-BOUND-EXCEEDED"),
        ({**CUSP, "f": "x2^2 - x1^20001", "arc": {"x1": "t^2", "x2": "t^20001"}, "trunc": 20002},
         [], "STEP-BOUND-EXCEEDED"),
    ], ids=["truncation", "perron-step-bound", "a1-default-bound"])
    def test_bound_exhausted_exits_4(self, tmp_path, capsys, doc, args, reason):
        # trunc 3 cuts t^3 off the arc of x2, so value(x2) reads as above the
        # window; the A1 matrix for (t^7, t^11) takes more than three steps;
        # 20001/2 = [10000; 2] takes 10002 subtractive steps, which the
        # default bound of 10000 refuses although the walk divides
        oracle = write(tmp_path, "c.json", doc)
        out = tmp_path / "trace.json"
        assert main(["reduce", "--oracle", oracle, "--out", str(out)] + args) == 4
        trace = json.loads(out.read_text())
        assert trace["status"] == "BOUND-EXHAUSTED"
        assert trace["diagnostics"]["reason"] == reason
        assert replay_matches(trace)

    @pytest.mark.parametrize("option", [
        "--max-translations", "--max-perron-steps", "--max-approx-steps"])
    @pytest.mark.parametrize("value, message", [
        ("1_0", "must be an integer"),
        ("-1", "must be nonnegative"),
        ("\u0663", "must be an integer"),  # Arabic-Indic digit three
    ], ids=["underscore", "negative", "arabic-digit"])
    def test_bad_bound_exits_2(self, tmp_path, capsys, option, value, message):
        # parse_integer's grammar, not int()'s: int() reads 1_0 as 10 and the
        # Arabic-Indic digit as 3, and a negative bound used to act as zero
        doc = {**CUSP, "f": "x2^7 - x1^11", "arc": {"x1": "t^7", "x2": "t^11"}, "trunc": 200}
        oracle = write(tmp_path, "c.json", doc)
        assert main(["reduce", "--oracle", oracle, f"{option}={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: INPUT: {option} {message}")

    @pytest.mark.parametrize("where", ["top", "ring", "arc"])
    def test_unknown_members_are_left_out_of_the_trace(self, tmp_path, capsys, where):
        # the oracle block holds only the members the arc reader reads: 900
        # nested arrays under an unknown key, at the top level or inside a
        # read member, give the golden cusp trace byte for byte
        doc = json.loads(json.dumps(CUSP))
        (doc if where == "top" else doc[where])["junk"] = _nested(900)
        oracle = write(tmp_path, "junk.json", doc)
        assert main(["reduce", "--oracle", oracle]) == 0
        golden = Path(__file__).parent / "golden" / "cusp_trace.json"
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    def test_a_read_context_keeps_only_its_read_members(self, tmp_path, capsys):
        doc = dict(CUSP, normalization="1", context={"kind": "rational", "junk": _nested(900)})
        oracle = write(tmp_path, "context.json", doc)
        assert main(["reduce", "--oracle", oracle]) == 0
        trace = json.loads(capsys.readouterr().out)
        assert trace["oracle"] == dict(CUSP, normalization="1", context={"kind": "rational"})
        assert replay_matches(trace)

    def test_bad_trunc_override_exits_2(self, tmp_path, capsys):
        oracle = write(tmp_path, "cusp.json", CUSP)
        assert main(["reduce", "--oracle", oracle, "--trunc", "abc"]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_trunc_override_is_the_window_recorded_and_run(self, tmp_path, capsys):
        # the F_2 defect curve cut at 20; --trunc 60 widens the window to the
        # arc's last term t^33, and the trace records the window the run used
        terms = " + ".join(f"t^{1 + 2**i}" for i in range(6))
        doc = {"version": 1, "kind": "arc", "ring": {"m": 2, "char": 2, "n": 1},
               "f": "x2^2 + x1*x2 + x1^3", "arc": {"x1": "t", "x2": terms}, "trunc": 20}
        oracle = write(tmp_path, "defect.json", doc)
        assert main(["reduce", "--oracle", oracle, "--trunc", "60"]) == 3
        trace = json.loads(capsys.readouterr().out)
        assert trace["oracle"]["trunc"] == "60"
        recorded = write(tmp_path, "recorded.json", trace["oracle"])
        assert main(["reduce", "--oracle", recorded]) == 3
        again = json.loads(capsys.readouterr().out)
        assert again["oracle"]["trunc"] == "60"
        assert trace["diagnostics"]["ladder"] == again["diagnostics"]["ladder"]
        assert trace["diagnostics"]["ladder"] == ["2", "3", "5", "9", "17", "33"]


class TestPerron:
    def test_divide_document(self, tmp_path, capsys):
        weights = write(tmp_path, "w.json", WEIGHTS)
        assert main(["perron", "divide", "--weights", weights,
                     "--m1", "x1", "--m2", "x2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "A6" and doc["matrix"] == [[1, 0], [1, 1]]

    def test_divide_precondition_exits_2(self, tmp_path, capsys):
        weights = write(tmp_path, "w.json", WEIGHTS)
        assert main(["perron", "divide", "--weights", weights,
                     "--m1", "x2", "--m2", "x1"]) == 2

    def test_monomialize(self, tmp_path, capsys):
        weights = write(tmp_path, "w.json", WEIGHTS)
        assert main(["perron", "monomialize", "--weights", weights,
                     "--poly", "x1 + x2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["exponents"] == [1, 0]
        assert doc["unit"] == "x2(1) + 1"
        assert [t["matrix"] for t in doc["transforms"]] == [[[1, 0], [1, 1]]]


    @pytest.mark.parametrize("command, extra", [
        ("divide", ["--m1", "x1", "--m2", "x2"]),
        ("monomialize", ["--poly", "x1 + x2"]),
    ])
    @pytest.mark.parametrize("value, message", [
        ("1_0", "must be an integer"),
        ("-1", "must be nonnegative"),
        ("\u0663", "must be an integer"),
    ], ids=["underscore", "negative", "arabic-digit"])
    def test_bad_step_bound_exits_2(self, tmp_path, capsys, command, extra, value, message):
        weights = write(tmp_path, "w.json", WEIGHTS)
        argv = ["perron", command, "--weights", weights, f"--max-perron-steps={value}"]
        assert main(argv + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: INPUT: --max-perron-steps {message}")


class TestDefectCommand:
    def test_char2_cusp(self, capsys):
        assert main(["defect", "--degree", "2", "--e", "2", "--f", "1", "--p", "2"]) == 0
        assert capsys.readouterr().out.strip() == "delta=0"

    def test_defect_one_with_families(self, capsys):
        assert main(["defect", "--degree", "2", "--e", "1", "--f", "1", "--p", "2",
                     "--family", "1:1", "--family", "2:2"]) == 0
        out = capsys.readouterr().out
        assert "delta=1" in out and "jump_total=2" in out and "consistent=true" in out

    @pytest.mark.parametrize("families, message", [
        (["x:y"], "must be an integer"),
        (["1:2:3"], "must be an integer"),
        (["1:1", "1:1"], "JUMP-NOT-GT-ONE"),
    ], ids=["x:y", "1:2:3", "no-jump"])
    def test_bad_family_exits_2_before_output(self, capsys, families, message):
        argv = ["defect", "--degree", "4", "--e", "1", "--p", "2"]
        for family in families:
            argv += ["--family", family]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("option", ["--degree", "--e", "--f", "--p"])
    @pytest.mark.parametrize("value", ["\u0662", "2_0", "x"],
                             ids=["arabic-digit", "underscore", "letter"])
    def test_non_integer_number_exits_2(self, capsys, option, value):
        # int() read the Arabic-Indic two in --p as 2 and printed delta=0
        numbers = {"--degree": "2", "--e": "2", "--f": "1", "--p": "2", option: value}
        argv = ["defect"] + [text for pair in numbers.items() for text in pair]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: INPUT: {option} must be an integer")

    def test_not_ostrowski_exits_2(self, capsys):
        assert main(["defect", "--degree", "6", "--e", "2", "--f", "1", "--p", "2"]) == 2
        assert "NOT-OSTROWSKI" in capsys.readouterr().err

    def test_e_times_f_above_the_print_limit_exits_2(self, capsys):
        # e * f has 8600 digits, too many for the NOT-OSTROWSKI message
        assert main(["defect", "--degree", "3", "--e", GEN, "--f", GEN, "--p", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: INPUT") and "Traceback" not in err


class TestChainCommand:
    def test_chain_value(self, tmp_path, capsys):
        # x2^1000 - x1^3 expands in 1001 x2-adic digits, under the budget
        oracle = write(tmp_path, "chain.json", CHAIN)
        for poly in ("x2^2 - x1^3", "x2^1000 - x1^3"):
            assert main(["chain", "value", "--oracle", oracle, "--poly", poly]) == 0
            assert capsys.readouterr().out.strip() == "3"

    @pytest.mark.parametrize("poly, expected", [
        ("x2", "0"), ("x2^3 + x2", "1"), ("x1*x2", "1"), ("x2^2 + 1", "1"),
    ])
    def test_first_key_of_degree_two(self, tmp_path, capsys, poly, expected):
        doc = dict(CHAIN, steps=[{"phi": "x2^2 + 1", "gamma": "1"}])
        oracle = write(tmp_path, "chain.json", doc)
        assert main(["chain", "value", "--oracle", oracle, "--poly", poly]) == 0
        assert capsys.readouterr().out.strip() == expected

    def test_oversized_expansion_exits_2_within_a_second(self, tmp_path, capsys):
        # 10001 x2-adic digits, each a division over up to 10001 rows
        oracle = write(tmp_path, "chain.json", CHAIN)
        start = time.perf_counter()
        assert main(["chain", "value", "--oracle", oracle, "--poly", "x2^10000 - x1^3"]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: INPUT") and "phi-adic" in err and "Traceback" not in err

    def test_chain_rejects_arc_doc(self, tmp_path, capsys):
        oracle = write(tmp_path, "cusp.json", CUSP)
        assert main(["chain", "value", "--oracle", oracle, "--poly", "x2"]) == 2


class TestRoundTrip:
    def test_emitted_trace_replays(self, tmp_path):
        docs = [
            CUSP,
            {
                "version": 1, "kind": "arc",
                "ring": {"m": 2, "char": 0, "n": 1},
                "f": "x2^2 - 2*x1*x2 + x1^2 - x1^5",
                "arc": {"x1": "t", "x2": "t + t^(5/2)"},
                "trunc": 40,
            },
        ]
        for i, doc in enumerate(docs):
            oracle = write(tmp_path, f"curve{i}.json", doc)
            out = tmp_path / f"trace{i}.json"
            assert main(["reduce", "--oracle", oracle, "--out", str(out)]) == 0
            emitted = json.loads(out.read_text())
            assert replay_matches(emitted)


@pytest.mark.parametrize("argv, message", [
    (["reduce", "--oracle", "{weights}"], "reduce needs an arc oracle document"),
    (["reduce", "--oracle", "{bad_arc}"], "arc is inconsistent with the hypersurface"),
    (["chain", "value", "--oracle", "{cusp}", "--poly", "x2"],
     "chain value needs a chain oracle document"),
    (["perron", "divide", "--weights", "{cusp}", "--m1", "x1", "--m2", "x2"],
     "perron divide needs a monomial oracle document"),
    (["perron", "divide", "--weights", "{weights}", "--m1", "x1 + x2", "--m2", "x2"],
     "'x1 + x2' is not a monomial"),
    (["perron", "monomialize", "--weights", "{cusp}", "--poly", "x1"],
     "perron monomialize needs a monomial oracle document"),
], ids=["reduce-kind", "reduce-inconsistent-arc", "chain-kind", "divide-kind",
        "divide-non-monomial", "monomialize-kind"])
def test_refusal_is_an_input_error(tmp_path, capsys, argv, message):
    paths = {"cusp": write(tmp_path, "cusp.json", CUSP),
             "weights": write(tmp_path, "w.json", WEIGHTS),
             "bad_arc": write(tmp_path, "bad.json", {**CUSP, "f": "x2^2 - x1^5"})}
    assert main([a.format(**paths) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: INPUT: {message}\n"


def test_contract_fuzz_slice():
    # 2,000 mutated documents through main: exit codes 0, 2, 3 and 4 only,
    # no traceback, and an error line on every exit 2; at least a tenth end
    # 0, 3 or 4, so the slice reaches the engine and not only the readers
    report = fuzz(2000, seed=1)
    assert not report["broken"], report["broken"][:3]
    exits = report["exits"]
    assert sum(exits.values()) == 2000 and exits[3] and exits[4]
    assert exits[0] + exits[3] + exits[4] >= 200
