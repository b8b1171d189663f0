import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from perronval.errors import (
    BinomialObstruction,
    DefectSuspected,
    InputError,
    NotCase2,
    PreconditionError,
    PreconditionValueInGroup,
    Unsupported,
)
import perronval.poly as poly_module
import perronval.reduce as reduce_module
from perronval.cli import main
from perronval.oracle import oracle_from_document
from perronval.perron import PerronTransform, build_a1
from perronval.poly import Polynomial, VariableFrame, parse_polynomial, parse_ring_header
from perronval.reduce import (
    Bounds,
    _strict_sanity,
    case2_finish,
    char0_translate,
    defectless_translate,
    lrm_step,
    replay_trace,
    run_reduction,
    trace_document,
)
from perronval.scalars import FieldSpec, parse_rational
from replay_check import replay_matches

import branches


def arcdoc(char, f, arc, trunc=40):
    return {
        "version": 1,
        "kind": "arc",
        "ring": {"m": 2, "char": char, "n": 1},
        "f": f,
        "arc": arc,
        "trunc": trunc,
    }


CUSP = arcdoc(0, "x2^2 - x1^3", {"x1": "t^2", "x2": "t^3"})
CUSP2 = arcdoc(2, "x2^2 + x1^3", {"x1": "t^2", "x2": "t^3"})
TACNODE = arcdoc(0, "x2^2 - 2*x1*x2 + x1^2 - x1^5", {"x1": "t", "x2": "t + t^(5/2)"})
CHAR2_CURVE = arcdoc(2, "x2^2 + x1^2 + x1^4 + x1^5", {"x1": "t", "x2": "t + t^2 + t^(5/2)"})


def defect_doc(p, depth=6, trunc=40):
    # f = x2^p - x1^(p-1) x2 - x1^(p+1) with the Artin-Schreier arc built
    # from the power series root of z^p - z = -x (sign-adjusted for odd p)
    if p == 2:
        f = "x2^2 + x1*x2 + x1^3"
        coeff = ""
    else:
        f = f"x2^{p} + {p - 1}*x1^{p - 1}*x2 + {p - 1}*x1^{p + 1}"
        coeff = f"*{p - 1}"
    terms = " + ".join(f"t^{1 + p**i}{coeff}" for i in range(depth))
    return arcdoc(p, f, {"x1": "t", "x2": terms}, trunc=trunc)


class TestLrmStep:
    def test_cusp(self):
        oracle = oracle_from_document(CUSP)
        new, steps = lrm_step(oracle)
        kinds = [s["kind"] for s in steps]
        assert kinds == ["A1", "STRICT-TRANSFORM"]
        a1 = steps[0]
        assert a1["transform"]["matrix"] == [[2, 1], [3, 2]]
        assert a1["transform"]["c"] == "1"
        assert a1["sigma"]["sigmas"] == [0, 2]
        assert a1["sigma"]["d"] == 2
        strict = steps[1]
        assert strict["exponents"] == [6, 0] and strict["lambda"] == 3
        assert new.f.ord_last() == 1
        assert str(new.f) == "x2(1)"

    def test_char2_cusp_same_matrix(self):
        oracle = oracle_from_document(CUSP2)
        new, steps = lrm_step(oracle)
        assert steps[0]["transform"]["matrix"] == [[2, 1], [3, 2]]
        assert new.f.ord_last() == 1

    def test_value_in_group_rejected(self):
        oracle = oracle_from_document(TACNODE)
        with pytest.raises(PreconditionValueInGroup):
            lrm_step(oracle)

    def test_a7_identity_recorded(self):
        oracle = oracle_from_document(CUSP)
        _, steps = lrm_step(oracle)
        sigma = steps[0]["sigma"]
        lam = {int(k): v for k, v in sigma["lambdas"].items()}
        d = sigma["d"]
        s1 = sigma["sigmas"][0]
        for s in sigma["sigmas"]:
            assert (lam[s] - lam[s1]) * d == s - s1


class TestChar0Translate:
    def test_tacnode(self):
        oracle = oracle_from_document(TACNODE)
        new, (step,) = char0_translate(oracle)
        assert step["omega"] == "-1/2"
        assert step["h"] == "x1"
        assert step["sigma"]["sigmas"] == [0, 1, 2]
        assert step["sigma_t_minus_1_eq_r_minus_1"] is True
        assert new.f.ord_last() == 2
        assert str(new.f) == "-x1^5 + x2^2"
        gamma = new.value(parse_polynomial(new.frame, new.field, "x2"))
        assert str(gamma) == "5/2"

    def test_char2_coefficient_vanishes(self):
        oracle = oracle_from_document(CHAR2_CURVE)
        with pytest.raises(BinomialObstruction):
            char0_translate(oracle)

    def test_precondition_outside_group(self):
        oracle = oracle_from_document(CUSP)
        with pytest.raises(PreconditionError):
            char0_translate(oracle)


class TestDefectlessTranslate:
    def test_char2_curve(self):
        oracle = oracle_from_document(CHAR2_CURVE)
        new, (step,) = defectless_translate(oracle)
        assert step["h"] == "x1^2 + x1"
        assert step["gamma"] == "5/2"
        assert str(new.f) == "x1^5 + x2^2"
        new2, steps = lrm_step(new)
        assert new2.f.ord_last() == 1

    def test_defect_curve_suspected(self):
        oracle = oracle_from_document(defect_doc(2))
        with pytest.raises(DefectSuspected) as err:
            defectless_translate(oracle)
        assert err.value.diagnostics["ladder"] == ["2", "3", "5", "9", "17", "33"]

    def test_precondition_outside_group(self):
        oracle = oracle_from_document(CUSP)
        with pytest.raises(PreconditionError):
            defectless_translate(oracle)


SQRT_ARC = {
    "x1": "t",
    "x2": "t + t^2*1/2 + t^3*-1/8 + t^4*1/16 + t^5*-5/128 + t^6*7/256 "
          "+ t^7*-21/1024 + t^8*33/2048",
}


class TestCase2:
    def test_square_root_curve(self):
        doc = arcdoc(0, "x2^2 - x1^2 - x1^3", SQRT_ARC, trunc=9)
        oracle = oracle_from_document(doc)
        assert oracle.arc_consistency()
        new, steps = case2_finish(oracle)
        assert steps[0]["kind"] == "CASE2"
        assert steps[0]["b"] == [1]
        assert steps[0]["beta"] == "1"
        assert new.f.ord_last() == 1

    def test_b2_is_the_a1_of_the_in_group_value(self, monkeypatch):
        # x2 = t^2 sqrt(1 + t) on x1 = t: value(x2) = 2 value(x1), beta = 1
        arc = {"x1": "t", "x2": "t^2 + t^3*1/2 + t^4*-1/8 + t^5*1/16 + t^6*-5/128 "
                                "+ t^7*7/256 + t^8*-21/1024 + t^9*33/2048"}
        oracle = oracle_from_document(arcdoc(0, "x2^2 - x1^4 - x1^5", arc, trunc=10))
        assert oracle.arc_consistency()
        calls = {"init": 0, "evaluate": 0}
        init, evaluate = Polynomial.__init__, Polynomial.evaluate_at_arc

        def counted_init(self, *args, **kwargs):
            calls["init"] += 1
            init(self, *args, **kwargs)

        def counted_evaluate(self, arc):
            calls["evaluate"] += 1
            return evaluate(self, arc)

        monkeypatch.setattr(Polynomial, "__init__", counted_init)
        monkeypatch.setattr(Polynomial, "evaluate_at_arc", counted_evaluate)
        new, steps = case2_finish(oracle)
        monkeypatch.undo()
        # no validating construction; the one evaluation is the arc check
        assert calls == {"init": 0, "evaluate": 1}
        assert new.f.ord_last() == 1
        tau = build_a1(oracle.variable_values()[:1], oracle.variable_values()[1],
                       oracle.frame, residue=oracle.monomial_residue)
        assert tau.matrix == ((1, 0), (2, 1)) and str(tau.c) == "1"
        recorded = PerronTransform.from_document(steps[0]["transform"], oracle.frame, oracle.field)
        assert recorded == tau
        assert steps[0]["b"] == [2] and steps[0]["beta"] == "1"

    def test_reducible_input_rejected(self):
        # z = x1 exactly: f = (x2 - x1)(x2 - 2 x1), exact polynomial arc
        doc = {
            "version": 1, "kind": "arc",
            "ring": {"m": 2, "char": 0, "n": 1},
            "f": "x2^2 - 3*x1*x2 + 2*x1^2",
            "arc": {"x1": "t", "x2": "t"},
        }
        oracle = oracle_from_document(doc)
        with pytest.raises(DefectSuspected, match="splits off"):
            defectless_translate(oracle)
        with pytest.raises(NotCase2):
            case2_finish(oracle)

    def test_not_case2_when_order_stays_high(self):
        oracle = oracle_from_document(TACNODE)
        with pytest.raises(NotCase2):
            case2_finish(oracle)

    def test_split_off_last_variable_rejected(self):
        # f = (x2 - x1)^2 on its exact arc: the strict transform is x2^2
        doc = {
            "version": 1, "kind": "arc",
            "ring": {"m": 2, "char": 0, "n": 1},
            "f": "x2^2 - 2*x1*x2 + x1^2",
            "arc": {"x1": "t", "x2": "t"},
        }
        with pytest.raises(NotCase2, match="splits off the last variable"):
            case2_finish(oracle_from_document(doc))

    @pytest.mark.parametrize("f1", ["x2", "2*x2"])
    def test_strict_sanity_accepts_smooth(self, f1):
        _strict_sanity(parse_polynomial(VariableFrame(m=2, n=1), FieldSpec(0), f1))


class TestDriver:
    def test_cusp_one_step(self):
        res = run_reduction(oracle_from_document(CUSP))
        assert res.status == "REDUCED-TO-SMOOTH"
        assert res.r_initial == 2 and res.r_final == 1
        assert [s["kind"] for s in res.trace] == ["A1", "STRICT-TRANSFORM"]

    def test_tacnode_translation_then_step(self):
        res = run_reduction(oracle_from_document(TACNODE))
        assert res.status == "REDUCED-TO-SMOOTH"
        kinds = [s["kind"] for s in res.trace]
        assert kinds == ["TRANSLATE-CHAR0", "A1", "STRICT-TRANSFORM"]

    def test_char2_curve(self):
        res = run_reduction(oracle_from_document(CHAR2_CURVE))
        assert res.status == "REDUCED-TO-SMOOTH"
        kinds = [s["kind"] for s in res.trace]
        assert kinds == ["TRANSLATE-DEFECTLESS", "A1", "STRICT-TRANSFORM"]

    def test_defect_curve_exits_suspected(self):
        for p in (2, 3):
            res = run_reduction(oracle_from_document(defect_doc(p, depth=5)))
            assert res.status == "DEFECT-SUSPECTED"
            ladder = res.diagnostics["ladder"]
            assert ladder[0] == "2"
            assert ladder[1] == str(1 + p)
            assert ladder[2] == str(1 + p * p)

    def test_smooth_input_returns_immediately(self):
        doc = arcdoc(0, "x2 - x1^2", {"x1": "t", "x2": "t^2"})
        res = run_reduction(oracle_from_document(doc))
        assert res.status == "REDUCED-TO-SMOOTH" and res.trace == []

    def test_rejects_non_monic(self):
        doc = arcdoc(0, "x1*x2^2 - x1^3", {"x1": "t^2", "x2": "t^3"})
        with pytest.raises(InputError):
            run_reduction(oracle_from_document(doc))

    def test_translation_bound(self):
        res = run_reduction(
            oracle_from_document(CHAR2_CURVE), Bounds(max_translations=0)
        )
        assert res.status == "BOUND-EXHAUSTED"
        assert res.diagnostics["reason"] == "TRANSLATION-BOUND"

    def test_quartic_drops_to_smooth_in_one_step(self):
        doc = arcdoc(0, "x2^4 - x1^7", {"x1": "t^4", "x2": "t^7"}, trunc=60)
        res = run_reduction(oracle_from_document(doc))
        assert res.status == "REDUCED-TO-SMOOTH"
        assert res.r_initial == 4 and res.r_final == 1
        assert [s["kind"] for s in res.trace] == ["A1", "STRICT-TRANSFORM"]
        assert replay_matches(trace_document(res, doc))

    def test_partial_drop_reports_multiplicity_dropped(self):
        # (x2^2 - x1^3)^2 - x1^7: the first macro-step drops 4 -> 2; the
        # continuation has value(x_m) back in the base group with an
        # approximation ladder that truncated arc data cannot resolve, so
        # the driver stops with the drop it certified
        sqrt_coeffs = ["1", "1/2", "-1/8", "1/16", "-5/128", "7/256",
                       "-21/1024", "33/2048", "-429/32768", "715/65536"]
        terms = " + ".join(f"t^{3 + i}*{c}" for i, c in enumerate(sqrt_coeffs))
        doc = arcdoc(0, "x2^4 - 2*x1^3*x2^2 + x1^6 - x1^7",
                     {"x1": "t^2", "x2": terms}, trunc=12)
        oracle = oracle_from_document(doc)
        assert oracle.arc_consistency()
        res = run_reduction(oracle)
        assert res.status == "MULTIPLICITY-DROPPED"
        assert res.r_initial == 4 and res.r_final == 2
        assert res.diagnostics["stalled_as"] == "DEFECT-SUSPECTED"
        assert [s["kind"] for s in res.trace] == ["A1", "STRICT-TRANSFORM"]
        assert res.trace[0]["sigma"]["sigmas"] == [0, 2, 4]
        assert replay_matches(trace_document(res, doc))

    @pytest.mark.parametrize("doc, final_f, diagnostics", [
        ({"version": 1, "kind": "arc", "ring": {"m": 2, "char": 5, "n": 1},
          "f": "x2^2 - 3*x1*x2 + 2*x1^2", "arc": {"x1": "t", "x2": "t"}},
         "2*x1^2 + 2*x1*x2 + x2^2",
         {"case2_rejected": "strict transform splits off the last variable; "
                            "the input hypersurface was reducible",
          "ladder": ["1"], "reason": "NOT-CASE2"}),
        (arcdoc(0, "x2^2 - x1^2 - x1^3", SQRT_ARC, trunc=9),
         "-x1^3 - x1^2 + x2^2",
         {"binomial_obstruction": "a_{r-1} vanishes identically",
          "ladder": [str(k) for k in range(1, 9)], "reason": "TRUNCATION"}),
    ], ids=["not-case2", "binomial-obstruction"])
    def test_paths_the_corpus_never_reaches(self, doc, final_f, diagnostics):
        """The whole trace document of a run that rejects case 2 (two lines
        x2 = x1, x2 = 2*x1 over F_5 on the exact arc of the first) and of one
        whose char-0 translation meets a vanishing a_{r-1} (the node
        x2^2 - x1^2 - x1^3 on one branch).  Both pin today's behaviour, a
        DEFECT-SUSPECTED end with no step; ROADMAP item 1 (an in-group Perron
        step) is meant to change both, and then this expectation with it."""
        res = run_reduction(oracle_from_document(doc))
        expected = {
            "version": 1, "status": "DEFECT-SUSPECTED", "r_initial": 2, "r_final": 2,
            "ring": f"ring m=2 char={doc['ring']['char']} n=1", "steps": [],
            "final_f": final_f, "final_generation": 0, "diagnostics": diagnostics,
            "oracle": doc, "initial_f": doc["f"],
        }
        assert (json.dumps(trace_document(res, doc), sort_keys=True)
                == json.dumps(expected, sort_keys=True))


LADDER_PAIRS = [(a, b) for a in range(3, 9) for b in range(a + 1, 2 * a) if math.gcd(a, b) == 1]


def ladder_doc(a, b, c):
    """x2^a - x1^b on the exact arc (t^a, t^b), composed with x2 -> x2 + c*x1
    when c != 0: the curve (x2 - c*x1)^a - x1^b on (t^a, t^b + c*t^a)."""
    frame, field = VariableFrame(m=2, n=1), FieldSpec(0)
    x1, x2 = (Polynomial.variable(frame, field, i) for i in range(2))
    f = (x2 - x1 * c) ** a - x1**b
    x2_arc = f"t^{b}" + (f" + t^{a}*{c}" if c else "")
    doc = arcdoc(0, str(f), {"x1": f"t^{a}", "x2": x2_arc})
    del doc["trunc"]
    return doc


def charp_branch_doc(p, a, b, sign, c):
    """x2^a + sign*x1^b composed with x2 -> x2 + c*x1 over F_p, on the exact
    arc of x2^a + sign*x1^b: (t^a, t^b) for sign -1; for sign +1,
    (-t^a, t^b) when b is odd and (t^a, -t^b) otherwise (a is then odd)."""
    frame, field = VariableFrame(m=2, n=1), FieldSpec(p)
    x1, x2 = (Polynomial.variable(frame, field, i) for i in range(2))
    f = (x2 - x1 * c) ** a + x1**b * sign
    s1 = -1 if sign == 1 and b % 2 else 1
    s2 = -1 if sign == 1 and not b % 2 else 1
    doc = arcdoc(p, str(f), {"x1": f"t^{a}*{s1}", "x2": f"t^{b}*{s2} + t^{a}*{c * s1}"})
    del doc["trunc"]
    return doc


class TestLadderFamily:
    def test_one_perron_step_to_smooth(self):
        for k, (a, b) in enumerate(LADDER_PAIRS):
            for c in (0, (1, -2, 3)[k % 3]):
                doc = ladder_doc(a, b, c)
                res = run_reduction(oracle_from_document(doc))
                kinds = [s["kind"] for s in res.trace]
                assert res.status == "REDUCED-TO-SMOOTH", (a, b, c)
                assert set(kinds) <= {"TRANSLATE-CHAR0", "A1", "STRICT-TRANSFORM"}, kinds
                assert kinds.count("A1") == 1, (a, b, c, kinds)
                assert ("TRANSLATE-CHAR0" in kinds) == bool(c), (a, b, c, kinds)
                assert replay_matches(trace_document(res, doc)), (a, b, c)

    def test_two_pair_quartic_drops_twice(self):
        doc = arcdoc(0, "x2^4 - 2*x1^3*x2^2 - 4*x1^5*x2 + x1^6 - x1^7",
                     {"x1": "t^4", "x2": "t^6 + t^7"}, trunc=30)
        res = run_reduction(oracle_from_document(doc))
        assert res.status == "REDUCED-TO-SMOOTH"
        assert [s["kind"] for s in res.trace].count("A1") == 2
        orders = [s["r_after"] for s in res.trace if s["kind"] == "STRICT-TRANSFORM"]
        assert [res.r_initial] + orders == [4, 2, 1]
        assert replay_matches(trace_document(res, doc))

    @pytest.mark.parametrize("f, x2, trunc", [
        ("-16*x1^7 + x1^6 - 16*x1^5*x2 - 2*x1^3*x2^2 + x2^4", "t^6 + t^7*-2", 40),
        ("x2^4 - 2*x1^3*x2^2 - 4*x1^5*x2 + x1^6 - x1^7", "t^6 + t^7", 80),
    ], ids=["c=-2", "c=1"])
    def test_two_pair_quartic_on_a_rational_arc(self, f, x2, trunc):
        # the second macro-step leaves an arc with non-integral coefficients,
        # so the series kernels run with a common denominator above 1
        doc = arcdoc(0, f, {"x1": "t^4", "x2": x2}, trunc=trunc)
        res = run_reduction(oracle_from_document(doc))
        assert res.status == "REDUCED-TO-SMOOTH"
        assert [s["kind"] for s in res.trace] == ["A1", "STRICT-TRANSFORM"] * 2
        orders = [s["r_after"] for s in res.trace if s["kind"] == "STRICT-TRANSFORM"]
        assert [res.r_initial] + orders == [4, 2, 1]
        assert replay_matches(trace_document(res, doc))
        assert any(type(c) is Fraction and c.denominator > 1
                   for s in res.oracle.arc for c in s.terms.values())


class TestOnePairBranches:
    """Seeded one-pair branches x1 = t^n, x2 = P(t^n) + t^beta + tail with
    2 <= n <= 12 (``tests/branches.py``), over Q, F_13 and F_17: a window
    that reaches t^beta reduces them in one A1 step, after one translation
    when P is not zero; a window that stops below t^beta exhausts."""

    def test_one_a1_step_to_smooth(self):
        rng = random.Random(1)
        translation = {0: "TRANSLATE-CHAR0", 13: "TRANSLATE-DEFECTLESS",
                       17: "TRANSLATE-DEFECTLESS"}
        for _ in range(50):
            branch = branches.draw(rng)
            where = (branch.n, branch.beta, branch.poly, branch.tail)
            matrices = set()
            for char, trunc in itertools.product(translation, (branch.beta + 1, branch.beta + 8)):
                doc = branch.document(char, trunc)
                oracle = oracle_from_document(doc)
                assert oracle.arc_consistency(), where
                res = run_reduction(oracle)
                kinds = [s["kind"] for s in res.trace]
                assert (res.status, res.r_initial) == ("REDUCED-TO-SMOOTH", branch.n), where
                assert kinds == [translation[char]] * bool(branch.poly) + [
                    "A1", "STRICT-TRANSFORM"], (where, char, trunc)
                assert res.trace[-1]["r_after"] == 1, where
                matrices.add(str(res.trace[-2]["transform"]["matrix"]))
                assert replay_matches(trace_document(res, doc)), (where, char, trunc)
            assert len(matrices) == 1, (where, matrices)
            res = run_reduction(oracle_from_document(branch.document(0, branch.beta)))
            assert res.status == "BOUND-EXHAUSTED", where
            assert res.diagnostics["reason"] == "TRUNCATION", where


class TestRunScope:
    """A run evaluates each arc series once, prints each polynomial once,
    and leaves nothing on the caller's oracle for the next run to find."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        # (arc, polynomial) of every evaluation; holding the arc keeps its id
        # unique, and each oracle has an arc tuple of its own
        seen = []
        evaluate = Polynomial.evaluate_at_arc

        def counting(g, arc):
            seen.append((arc, g))
            return evaluate(g, arc)

        monkeypatch.setattr(Polynomial, "evaluate_at_arc", counting)
        return seen

    @pytest.mark.parametrize("doc, status, kind", [
        (ladder_doc(5, 8, -2), "REDUCED-TO-SMOOTH", "TRANSLATE-CHAR0"),
        (defect_doc(3), "DEFECT-SUSPECTED", None),
    ], ids=["composed-ladder", "artin-schreier"])
    def test_one_evaluation_per_series_and_equal_runs(self, evaluations, doc, status, kind):
        oracle = oracle_from_document(doc)
        counts, texts = [], []
        for _ in range(2):
            del evaluations[:]
            res = run_reduction(oracle)
            assert res.status == status
            assert kind is None or kind in [s["kind"] for s in res.trace]
            keys = [(id(arc), g) for arc, g in evaluations]
            assert len(keys) == len(set(keys))
            counts.append(len(keys))
            texts.append(json.dumps(trace_document(res, doc), sort_keys=True))
        assert counts[0] == counts[1] > 0
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("doc", [
        ladder_doc(5, 8, -2),
        arcdoc(0, "x2^4 - 2*x1^3*x2^2 - 4*x1^5*x2 + x1^6 - x1^7",
               {"x1": "t^4", "x2": "t^6 + t^7"}, trunc=30),
        charp_branch_doc(5, 2, 3, -1, 2),
        defect_doc(3),
    ], ids=["composed-ladder", "two-pair-quartic", "F5-composed", "artin-schreier"])
    def test_each_polynomial_is_printed_once(self, monkeypatch, doc):
        # every polynomial printed; holding it keeps its id unique
        printed = []
        format_polynomial = poly_module.format_polynomial

        def counting(f):
            printed.append(f)
            return format_polynomial(f)

        monkeypatch.setattr(poly_module, "format_polynomial", counting)
        res = run_reduction(oracle_from_document(doc))
        trace = trace_document(res, doc)
        final = replay_trace(trace)
        ids = [id(f) for f in printed]
        assert len(ids) == len(set(ids)) > 0
        # the final text is the one the last step printed
        strict = [s["f_after"] for s in trace["steps"] if s["kind"] == "STRICT-TRANSFORM"]
        if strict:
            assert trace["steps"][-1]["kind"] == "STRICT-TRANSFORM"
            assert final == trace["final_f"] == strict[-1]
        else:
            frame, field = parse_ring_header(trace["ring"])
            assert final == trace["final_f"] == str(parse_polynomial(frame, field, doc["f"]))

    @pytest.mark.parametrize("doc", [ladder_doc(5, 8, -2), defect_doc(3)],
                             ids=["composed-ladder", "artin-schreier"])
    def test_no_validating_construction(self, monkeypatch, doc):
        # every polynomial of a run, its trace and its replay is built from
        # term maps the library made, or by the parser: none is re-validated
        oracle = oracle_from_document(doc)
        built = []
        init = Polynomial.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Polynomial, "__init__", counting)
        res = run_reduction(oracle)
        replay_trace(trace_document(res, doc))
        assert res.status in ("REDUCED-TO-SMOOTH", "DEFECT-SUSPECTED")
        assert built == []

    def test_residue_after_values_evaluates_nothing(self, evaluations):
        # a variable's series is its arc component, so x2 and x1 evaluate
        # nothing; the other pair is evaluated once each, by value
        oracle = oracle_from_document(TACNODE)
        for texts, count in ((("x2", "x1"), 0), (("x2 + x1^3", "x1 + x1^2"), 2)):
            g, u = (parse_polynomial(oracle.frame, oracle.field, t) for t in texts)
            oracle.value(g)
            oracle.value(u)
            assert len(evaluations) == count
            assert str(oracle.residue(g, u)) == "1"
            assert len(evaluations) == count


class TestTranslationSeries:
    """A translation x_m -> x_m + h is handed the series (x_m - h)(arc) the
    run already holds: in characteristic 0 the series of a_{r-1} that its
    value evaluated, times omega, taken from x_m's component; after a best
    approximation the memo's series of x_m - h.  So h is not evaluated."""

    DOCS = [ladder_doc(a, b, (1, -2, 3)[k % 3]) for k, (a, b) in enumerate(LADDER_PAIRS)] + [
        charp_branch_doc(p, a, b, sign, c)
        for p, a, b, sign in ((3, 3, 5, -1), (3, 4, 5, 1), (5, 4, 7, -1), (5, 5, 6, 1))
        for c in (1, p - 1)
    ]

    def test_the_series_handed_over_is_a_fresh_evaluation(self, monkeypatch):
        handed = []
        translate = reduce_module._translate

        def recording(oracle, h, new_last):
            handed.append((oracle, h, new_last))
            return translate(oracle, h, new_last)

        monkeypatch.setattr(reduce_module, "_translate", recording)
        kinds = set()
        for doc in self.DOCS:
            del handed[:]
            res = run_reduction(oracle_from_document(doc))
            steps = [s for s in res.trace if s["kind"].startswith("TRANSLATE")]
            assert len(handed) == len(steps) >= 1, doc["f"]
            kinds.update(s["kind"] for s in steps)
            for oracle, h, new_last in handed:
                xm = Polynomial.variable(oracle.frame, oracle.field, oracle.frame.m - 1)
                assert new_last == (xm - h).evaluate_at_arc(oracle.arc)
                assert new_last == oracle.arc[-1] - h.evaluate_at_arc(oracle.arc)
        assert kinds == {"TRANSLATE-CHAR0", "TRANSLATE-DEFECTLESS"}

    @pytest.mark.parametrize("doc, kind, evaluated", [
        # a_{r-1} for its value, and f's x_m-derivative for the trace
        (ladder_doc(5, 8, -2), "TRANSLATE-CHAR0",
         ["10*x1", "80*x1^4 + 160*x1^3*x2 + 120*x1^2*x2^2 + 40*x1*x2^3 + 5*x2^4"]),
        (charp_branch_doc(5, 4, 7, -1, 2), "TRANSLATE-DEFECTLESS", []),
    ], ids=["composed-ladder", "F5-composed"])
    def test_one_evaluation_fewer_per_translation(self, monkeypatch, doc, kind, evaluated):
        seen = []
        evaluate = Polynomial.evaluate_at_arc

        def counting(g, arc):
            seen.append(g)
            return evaluate(g, arc)

        monkeypatch.setattr(Polynomial, "evaluate_at_arc", counting)
        res = run_reduction(oracle_from_document(doc))
        now = list(seen)
        hs = [s["h"] for s in res.trace if s["kind"] == kind]
        assert len(hs) == 1
        assert [str(g) for g in now] == evaluated
        # the former translation evaluated h afresh: one evaluation more,
        # of h, for the same trace
        translate = reduce_module._translate
        monkeypatch.setattr(reduce_module, "_translate", lambda oracle, h, _: translate(
            oracle, h, oracle.arc[-1] - oracle.series_of(h)))
        del seen[:]
        before = run_reduction(oracle_from_document(doc))
        assert trace_document(before, doc) == trace_document(res, doc)
        assert len(seen) == len(now) + 1
        assert [str(g) for g in seen if g not in now] == hs


class TestHighLadderRungs:
    """The high rungs of x2^a - x1^b on (t^a, t^b), pinned by the sha256 of
    their trace documents.  Each takes one A1 step with lam = 168, 272 and
    1155, and one Taylor shift for it, the shift of f_1 inside
    ``strict_transform``, in the driver and again in replay: the printed
    image g is built from one binomial row, where a second shift would cost
    O(lam^2) row updates."""

    @pytest.mark.parametrize("a, b, trunc, digest", [
        (13, 21, 600, "8c266f78e7edd7d3be8a8c0279ee9f286fee27c80b5d312a1f93b57b3d9ba2b9"),
        (21, 34, 1500, "1acf15b50e05f65071b4b03a61c7ac3bf9460df4b193c52337874ce1f39b6bcc"),
        (34, 55, 4000, "3a1f1f4d3159b6b70ada5704aa82cfbba1160efe07d1fd3112f8d64a6601556a"),
    ], ids=["13-21", "21-34", "34-55"])
    def test_trace_digest_and_one_shift_per_step(self, monkeypatch, a, b, trunc, digest):
        doc = arcdoc(0, f"x2^{a} - x1^{b}", {"x1": f"t^{a}", "x2": f"t^{b}"}, trunc=trunc)
        shifts = []
        shift = Polynomial.translate_last

        def counting(self, h):
            shifts.append(self.degree_in_last())
            return shift(self, h)

        monkeypatch.setattr(Polynomial, "translate_last", counting)
        res = run_reduction(oracle_from_document(doc))
        assert [s["kind"] for s in res.trace] == ["A1", "STRICT-TRANSFORM"]
        assert res.status == "REDUCED-TO-SMOOTH"
        assert shifts == [1]  # deg_xm of what strict_transform shifts into f_1 = x2(1)
        trace = trace_document(res, doc)
        assert hashlib.sha256(json.dumps(trace, sort_keys=True).encode()).hexdigest() == digest
        shifts.clear()
        assert replay_matches(trace)
        assert shifts == [1]


SIGMA_BLOCK_CURVES = [
    pytest.param(ladder_doc(a, b, c), id=f"ladder-{a}-{b}-c{c}")
    for k, (a, b) in enumerate(LADDER_PAIRS) for c in (0, (1, -2, 3)[k % 3])
] + [
    pytest.param(arcdoc(0, "x2^4 - 2*x1^3*x2^2 - 4*x1^5*x2 + x1^6 - x1^7",
                        {"x1": "t^4", "x2": "t^6 + t^7"}, trunc=30), id="quartic-c1"),
    pytest.param(arcdoc(0, "-16*x1^7 + x1^6 - 16*x1^5*x2 - 2*x1^3*x2^2 + x2^4",
                        {"x1": "t^4", "x2": "t^6 + t^7*-2"}, trunc=40), id="quartic-c-2"),
    pytest.param(TACNODE, id="tacnode"),
] + [
    pytest.param(charp_branch_doc(p, a, b, sign, c), id=f"F{p}-{a}-{b}-{sign:+d}-c{c}")
    for p, a, b, sign in ((3, 3, 5, -1), (3, 4, 5, 1), (5, 4, 7, -1), (5, 5, 6, 1))
    for c in (1, p - 1)
] + [
    # values are multiples of a + b*sqrt(2) with a or b negative, so an
    # order read off one coordinate alone reverses them
    pytest.param({**arcdoc(0, "x2^4 - 2*x1^3*x2^2 - 4*x1^5*x2 + x1^6 - x1^7",
                           {"x1": "t^4", "x2": "t^6 + t^7"}, trunc=30),
                  "context": {"kind": "quadratic", "d": 2}, "normalization": norm},
                 id=f"quartic-normalized-{norm}")
    for norm in ("-1 + sqrt(2)", "3 - 2*sqrt(2)")
]


def _oracle_sigma_block(oracle):
    """rho and sigma_1 < .. < sigma_t from the oracle's value of each term."""
    xm = Polynomial.variable(oracle.frame, oracle.field, oracle.frame.m - 1)
    values = {}
    for l, a in enumerate(oracle.f.coeffs_last()):
        if not a.is_zero:
            vr = oracle.value(a * xm**l)
            assert vr.is_finite
            values[l] = vr.value
    rho = min(values.values())
    return {"rho": str(rho), "sigmas": sorted(l for l, v in values.items() if v == rho)}


class TestFactsTheReductionRestsOn:
    """``lrm_step`` and ``char0_translate`` read each term value off the
    exponents, and the strict transform is never rescaled; both rest on the
    algebra checked here."""

    @pytest.mark.parametrize("doc", SIGMA_BLOCK_CURVES)
    def test_sigma_block_matches_the_oracle(self, doc, monkeypatch):
        blocks = {"A1": [], "TRANSLATE-CHAR0": []}

        def record(kind, oracle, step):
            sigma = step["sigma"]
            blocks[kind].append(({"rho": sigma["rho"], "sigmas": sigma["sigmas"]},
                                 _oracle_sigma_block(oracle)))

        def recording_lrm(oracle, bounds):
            oracle1, steps = lrm_step(oracle, bounds)
            record("A1", oracle, steps[0])
            return oracle1, steps

        def recording_translate(oracle):
            oracle1, (step,) = char0_translate(oracle)
            record("TRANSLATE-CHAR0", oracle, step)
            return oracle1, [step]

        monkeypatch.setattr(reduce_module, "lrm_step", recording_lrm)
        monkeypatch.setattr(reduce_module, "char0_translate", recording_translate)
        res = run_reduction(oracle_from_document(doc))
        assert res.status == "REDUCED-TO-SMOOTH"
        assert blocks["A1"]
        for kind, recorded in blocks.items():
            assert len(recorded) == sum(1 for s in res.trace if s["kind"] == kind)
            for block, expected in recorded:
                assert block == expected

    def test_monic_f_keeps_a_leading_coefficient_of_one_or_non_constant(self):
        # M = [[a, b], [c, d]] nonnegative with det 1 sends x1^i x2^j to
        # x1'^(ai+cj) u^(bi+dj); f_1 has a constant leading coefficient
        # other than 1 only if a term other than x2^D had both the top
        # u-exponent and the least x1'-exponent, which det 1 rules out
        rng = random.Random(41)
        frame = VariableFrame(m=2, n=1)
        steps = ([[1, 1], [0, 1]], [[1, 0], [1, 1]])
        for field in (FieldSpec(0), FieldSpec(2), FieldSpec(3), FieldSpec(5)):
            for _ in range(60):
                degree = rng.randint(1, 5)
                terms = {(0, degree): 1}
                for _ in range(rng.randint(0, 6)):
                    mono = (rng.randint(0, 6), rng.randint(0, degree - 1))
                    v = rng.randint(-5, 5)
                    terms[mono] = v if field.modular else Fraction(v, rng.randint(1, 3))
                f = Polynomial(frame, field, terms)
                matrix = [[1, 0], [0, 1]]
                for _ in range(rng.randint(1, 7)):
                    e = rng.choice(steps)
                    matrix = [[sum(row[k] * e[k][j] for k in range(2)) for j in range(2)]
                              for row in matrix]
                c = field.scalar(rng.randint(1, 6))
                if c.is_zero:
                    c = field.one
                tau = PerronTransform("A1", tuple(map(tuple, matrix)), frame, c)
                _, _, f1 = tau.substitute(f).strict_transform(c)
                lead = f1.lead_constant_last()
                assert lead is None or lead == field.one, (f, matrix, c, f1)


def _check_strict_identities(doc):
    """At every STRICT-TRANSFORM of a trace document, the image g printed by
    the A1 or CASE2 step before it equals x^e * (x_m + c)^lam * f_1 exactly,
    with f_1 the printed strict transform (not rescaled).  Only the printed
    polynomials and Polynomial arithmetic are used.  Returns the number of
    identities checked."""
    base, field = parse_ring_header(doc["ring"])
    checked = 0
    for before, step in zip(doc["steps"], doc["steps"][1:]):
        if step["kind"] != "STRICT-TRANSFORM":
            continue
        assert before["kind"] in ("A1", "CASE2")
        frame = VariableFrame(m=base.m, n=base.n, generation=step["generation"])
        g = parse_polynomial(frame, field, before["f_after"])
        f1 = parse_polynomial(frame, field, step["f_after"])
        unit = Polynomial.variable(frame, field, frame.m - 1) + parse_rational(step["c"])
        assert g == Polynomial.monomial(frame, field, step["exponents"]) * unit ** step["lambda"] * f1
        checked += 1
    return checked


class TestStrictIdentityOnTraces:
    @pytest.mark.parametrize("doc, r_after", [
        (arcdoc(0, "x2^21 - x1^34", {"x1": "t^21", "x2": "t^34"}, trunc=1500), [1]),
        (arcdoc(0, "x2^4 - 2*x1^3*x2^2 - 4*x1^5*x2 + x1^6 - x1^7",
                {"x1": "t^4", "x2": "t^6 + t^7"}, trunc=80), [2, 1]),
    ], ids=["ladder-21-34", "two-pair-quartic"])
    def test_image_factors_through_the_strict_transform(self, doc, r_after):
        res = run_reduction(oracle_from_document(doc))
        trace = json.loads(json.dumps(trace_document(res, doc)))
        assert res.status == "REDUCED-TO-SMOOTH"
        assert [s["r_after"] for s in trace["steps"] if s["kind"] == "STRICT-TRANSFORM"] == r_after
        assert replay_matches(trace)
        assert _check_strict_identities(trace) == len(r_after)

    def test_strict_transform_after_a_translation_is_refused(self):
        trace = trace_document(run_reduction(oracle_from_document(TACNODE)), TACNODE)
        kinds = [s["kind"] for s in trace["steps"]]
        assert kinds[:3] == ["TRANSLATE-CHAR0", "A1", "STRICT-TRANSFORM"]
        del trace["steps"][1]
        with pytest.raises(InputError, match="must follow an A1 or CASE2 step"):
            replay_trace(trace)


class TestTraceReplay:
    @pytest.mark.parametrize("doc", [CUSP, CUSP2, TACNODE, CHAR2_CURVE],
                             ids=["cusp", "cusp-char2", "tacnode", "char2"])
    def test_replay_byte_identical(self, doc):
        res = run_reduction(oracle_from_document(doc))
        trace = trace_document(res, doc)
        assert replay_matches(trace)
        # and survives JSON serialization
        trace2 = json.loads(json.dumps(trace))
        assert replay_trace(trace2) == trace["final_f"]

    def test_replay_detects_tampering(self):
        res = run_reduction(oracle_from_document(CUSP))
        trace = trace_document(res, CUSP)
        trace["final_f"] = "x1(1)"
        assert not replay_matches(trace)

    def test_replay_accepts_an_identity_a6_step(self):
        # the driver emits no A6 step, but replay takes one: here the
        # identity A6 only renames x1, x2 to x1(1), x2(1) before the cusp's
        # A1 step and its strict transform
        doc = {"ring": "ring m=2 char=0 n=1", "oracle": {"f": "x2^2 - x1^3"}, "steps": [
            {"kind": "A6", "transform": {"kind": "A6", "matrix": [[1]]},
             "f_after": "-x1(1)^3 + x2(1)^2"},
            {"kind": "A1", "transform": {"kind": "A1", "matrix": [[2, 1], [3, 2]], "c": "1"},
             "f_after": "x1(2)^6*x2(2)^4 + 3*x1(2)^6*x2(2)^3 + 3*x1(2)^6*x2(2)^2 + x1(2)^6*x2(2)"},
            {"kind": "STRICT-TRANSFORM", "c": "1", "exponents": [6, 0], "lambda": 3,
             "f_after": "x2(2)"},
        ], "final_f": "x2(2)"}
        assert replay_matches(doc)
        # a STRICT-TRANSFORM step cannot follow an A6 step
        del doc["steps"][1]
        with pytest.raises(InputError, match="must follow an A1 or CASE2 step"):
            replay_trace(doc)

    @pytest.mark.parametrize("version", [0, 2, "1", True, 1.0])
    def test_replay_refuses_an_unknown_version(self, version):
        # a copy: the oracle block is CUSP itself
        trace = json.loads(json.dumps(
            trace_document(run_reduction(oracle_from_document(CUSP)), CUSP)))
        for doc in (trace, trace["oracle"]):  # the trace, then its oracle block
            doc["version"] = version
        with pytest.raises(InputError, match="unsupported document version"):
            replay_trace(trace)
        with pytest.raises(InputError, match="unsupported document version"):
            oracle_from_document(trace["oracle"])

    def test_replay_rejects_malformed_document(self):
        for doc in (5, []):
            with pytest.raises(InputError, match="must be a JSON object"):
                replay_trace(doc)
        trace = trace_document(run_reduction(oracle_from_document(CUSP)), CUSP)
        del trace["final_f"]
        with pytest.raises(InputError, match="missing 'final_f'"):
            replay_matches(trace)

    @pytest.mark.parametrize("path, value, message", [
        (("steps", 1, "c"), "abc", "rational literal"),
        (("steps", 1, "c"), "1e3", "rational literal"),
        (("steps", 1, "c"), "2", "differs from the record"),
        (("steps", 0, "transform", "c"), "1e3", "rational literal"),
        (("steps", 0, "transform", "matrix"), [[2, 1], [3.0, 2]], "must be an integer"),
        (("ring",), None, "missing 'ring'"),
        (("ring",), 5, "bad ring header"),
        (("ring",), "ring m=\u0662 char=0 n=1", "bad ring header"),
        (("ring",), "ring m=" + "9" * 5000 + " char=0 n=1", "too many digits"),
        (("steps",), 5, "must be a JSON array"),
        (("steps", 0, "kind"), None, "missing 'kind'"),
        (("steps", 0, "transform", "matrix"), None, "missing 'matrix'"),
    ], ids=["c-text", "c-exponent", "c-other", "transform-c-exponent", "matrix-float",
            "no-ring", "ring-number", "ring-arabic-digit", "ring-5000-digits",
            "steps-number", "no-kind", "no-matrix"])
    def test_replay_rejects_malformed_step(self, path, value, message):
        trace = trace_document(run_reduction(oracle_from_document(CUSP)), CUSP)
        *parents, key = path
        target = trace
        for part in parents:
            target = target[part]
        if value is None:
            del target[key]
        else:
            target[key] = value
        with pytest.raises(InputError, match=message):
            replay_trace(trace)

    def test_replay_refuses_an_image_beyond_the_row_limit(self):
        # x1 -> x1(1) * u^70000 puts lam = 70000 on the strict transform of
        # f = x1, and printing g = x1 * (x2 + 1)^70000 would lay out
        # 70001 rows of binomials; refused before anything is built
        doc = {"ring": "ring m=2 char=0 n=1", "oracle": {"f": "x1"}, "steps": [
            {"kind": "A1", "transform": {"kind": "A1", "matrix": [[1, 70000], [0, 1]], "c": "1"}}]}
        with pytest.raises(InputError, match="x_m-degree 70000 needs more than 65536 rows"):
            replay_trace(doc)

    def test_replay_refuses_to_print_a_value_beyond_the_digit_limit(self):
        # translating x2^2 by h = 10^4000 * x1 gives a 8001-digit coefficient,
        # more than str() converts: InputError (exit 2), not ValueError
        doc = {"ring": "ring m=2 char=0 n=1", "oracle": {"f": "x2^2"}, "steps": [
            {"kind": "TRANSLATE-CHAR0", "h": f"{10**4000}*x1", "f_after": "x2^2"}]}
        with pytest.raises(InputError, match="too long to print"):
            replay_trace(doc)


CUSP_ARC = {"x1": "t^2", "x2": "t^3"}


@pytest.mark.parametrize("f, message", [
    ("0", "zero"),
    ("x1*x2^2 - x1^4", "divisible by a variable"),
    ("x2^3 - x1^3*x2", "divisible by a variable"),
    ("x2^2 + x1*x2^2 - x1^3 - x1^4", "monic"),
    ("x2^2 - x1^3 + 1", "center"),
], ids=["zero", "divisible-by-x1", "divisible-by-x2", "not-monic", "off-center"])
def test_input_check_rejects(tmp_path, capsys, f, message):
    doc = arcdoc(0, f, CUSP_ARC)
    with pytest.raises(InputError, match=message):
        run_reduction(oracle_from_document(doc))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["reduce", "--oracle", str(path)]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("step", [lrm_step, char0_translate, defectless_translate,
                                  case2_finish], ids=lambda step: step.__name__)
def test_every_step_function_refuses_three_variables(step):
    # a tacnode in three variables, where a_0 = (x1 + x2)^2 - x1^5 is not a
    # monomial times a unit: each step refuses the frame before it reads a
    # coefficient, as run_reduction does at entry
    doc = {**arcdoc(0, "x3^2 - 2*x1*x3 - 2*x2*x3 + x1^2 + 2*x1*x2 + x2^2 - x1^5",
                    {"x1": "t", "x2": "t^2", "x3": "t + t^2 + t^(5/2)"}),
           "ring": {"m": 3, "char": 0, "n": 2}}
    with pytest.raises(Unsupported, match="plane curves"):
        step(oracle_from_document(doc))


def _many_variable_cusp(m, seed):
    # f = x_m^2 - x1^3 on x1 = t^2, x_m = t^3, every other variable on a
    # random t^(a/b) with three-digit a and b
    rng = random.Random(seed)
    arc = {"x1": "t^2", f"x{m}": "t^3"}
    arc.update((f"x{i}", f"t^({rng.randint(100, 999)}/{rng.randint(100, 999)})")
               for i in range(2, m))
    return {**arcdoc(0, f"x{m}^2 - x1^3", arc), "ring": {"m": m, "char": 0, "n": m - 1}}


@pytest.mark.parametrize("doc", [
    {**arcdoc(0, "x3 - x1*x2", {"x1": "t", "x2": "t", "x3": "t^2"}),
     "ring": {"m": 3, "char": 0, "n": 2}},
    {**CUSP, "ring": {"m": 2, "char": 0, "n": 2}},
    _many_variable_cusp(64, 64),
], ids=["smooth-m3", "cusp-n2", "cusp-m64"])
def test_input_check_refuses_all_but_plane_curves(tmp_path, capsys, doc):
    # the driver runs on m = 2, n = 1 only: each document is refused at
    # entry, the already smooth one too, though its arc is consistent
    oracle = oracle_from_document(doc)
    assert oracle.arc_consistency()
    with pytest.raises(Unsupported, match="plane curves"):
        run_reduction(oracle)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["reduce", "--oracle", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: UNSUPPORTED") and "Traceback" not in err


def test_input_check_rejects_non_arc_oracle(tmp_path, capsys):
    doc = {"version": 1, "kind": "monomial", "ring": {"m": 2, "n": 1, "char": 0},
           "weights": ["1", "3/2"]}
    with pytest.raises(Unsupported):
        run_reduction(oracle_from_document(doc))
    path = tmp_path / "weights.json"
    path.write_text(json.dumps(doc))
    assert main(["reduce", "--oracle", str(path)]) == 2
    assert "Traceback" not in capsys.readouterr().err
