"""A seeded mutation fuzzer for the command line's exit-code contract.

Every document is a valid one with a few mutations: a number inside a
literal replaced, a character inserted, removed or replaced, a member
replaced by a hostile value, dropped or added, an option's value changed.
Each is sent through ``perronval.cli.main`` in process, by one of
``reduce``, ``valuate``, ``chain value``, ``perron divide``, ``perron
monomialize`` and ``defect``.  The contract: the exit code is 0, 2, 3 or
4, no traceback is printed, and an exit 2 prints ``error: ``.

Tier-1 runs a short slice (``tests/test_cli.py``).  A long run, with a
limit in seconds on each document::

    PYTHONPATH=src python tests/contract_fuzz.py --count 20000 --limit 5

prints the exit codes it saw and exits 1 if any document broke the
contract or its time limit.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import re
import signal
import sys
import tempfile
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

from branches import Branch
from perronval.cli import main

RING = {"m": 2, "char": 0, "n": 1}
WEIGHTS = {"version": 1, "kind": "monomial", "ring": {"m": 2, "n": 2, "char": 0},
           "generators": {"kind": "quadratic", "d": 2}, "weights": ["1", "sqrt(2)"]}
CHAIN = {"version": 1, "kind": "chain", "ring": RING, "x1_value": "1",
         "steps": [{"phi": "x2", "gamma": "3/2"}]}
DEFECT_ARC = " + ".join(f"t^{1 + 2**i}" for i in range(6))
ARCS = [
    {"f": "x2^2 + x1*x2 + x1^3", "arc": {"x1": "t", "x2": DEFECT_ARC}, "char": 2},
    {"f": "x2^2 + x1^2 + x1^4 + x1^5", "arc": {"x1": "t", "x2": "t + t^2 + t^(5/2)"}, "char": 2},
    {"f": "x2^2 - 2*x1*x2 + x1^2 - x1^5", "arc": {"x1": "t", "x2": "t + t^(5/2)"}, "char": 0},
]
POLYS = ["x2", "x1", "x2^2 - x1^3", "x1*x2 + 1", "x2^3 - x1^2*x2 + 3/2*x1^5", "x1 + x2"]
# values that no reader should take for what it expects
HOSTILE = [None, True, -1, 0, 1.5, "", "x", "1/0", "t^(1/0)", [], {}, "9" * 5000,
           "t^100000000", "x2^1000000000", {"kind": "arc"}, [[[[]]]]]
ALPHABET = "0123456789tx+-*/^()|. N"
# a number in a literal, not the index of a variable x<i>
NUMBER = re.compile(r"(?<![0-9x])[0-9]+")


def _curve(rng: random.Random) -> dict:
    """An arc document's curve, the one-pair branch (t^a, t^b) of
    ``tests/branches.py``: x2^a - x1^b, composed with the shift
    x2 -> x2 - c x1^k half of the time."""
    a = rng.randint(2, 6)
    b = rng.choice([j for j in range(a + 1, 3 * a + 2) if math.gcd(a, j) == 1])
    char = rng.choice([0, 0, 2, 3, 5])
    poly = {}
    if rng.random() < 0.5:
        c, k = rng.randint(1, 3), rng.randint(1, b // a)
        poly = {k: c}
    doc = Branch(a, b, poly).document(char)
    return {"f": doc["f"], "arc": doc["arc"], "char": char}


def _arc_document(rng: random.Random) -> dict:
    curve = _curve(rng) if rng.random() < 0.7 else rng.choice(ARCS)
    return {"version": 1, "kind": "arc", "ring": dict(RING, char=curve["char"]),
            "f": curve["f"], "arc": dict(curve["arc"]), "trunc": rng.choice([12, 20, 40])}


def _slots(node, out):
    """(container, key) of every member and item below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        out.append((node, key))
        if isinstance(value, (dict, list)):
            _slots(value, out)
    return out


def _mutate_text(rng: random.Random, text: str) -> str:
    numbers = list(NUMBER.finditer(text))
    if numbers and rng.random() < 0.6:
        m = rng.choice(numbers)
        n = int(m.group()[:18])  # a hostile value may hold more digits than int() reads
        new = rng.choice([0, 1, 2, 3, 5, 7, n + 1, 2 * n, 10**rng.randint(2, 12)])
        return text[:m.start()] + str(new) + text[m.end():]
    i = rng.randrange(len(text) + 1)
    op = rng.randrange(3)
    if op == 0 or not text:
        return text[:i] + rng.choice(ALPHABET) + text[i:]
    i = min(i, len(text) - 1)
    return text[:i] + (rng.choice(ALPHABET) if op == 1 else "") + text[i + 1:]


def mutate(rng: random.Random, doc: dict) -> dict:
    """``doc`` after one mutation; ``doc`` itself is left as it is.  A
    mutation drops at most one member, and a case makes at most three, so
    every document the cases start from keeps some."""
    doc = json.loads(json.dumps(doc))
    slots = _slots(doc, [])
    # literals four times as often as other members: a mutated literal more
    # often still reads, so the document reaches the engine
    node, key = rng.choices(slots, [4 if isinstance(n[k], str) else 1 for n, k in slots])[0]
    value = node[key]
    op = rng.random()
    if op < 0.6 and isinstance(value, str):
        node[key] = _mutate_text(rng, value)
    elif op < 0.6 and type(value) is int:
        node[key] = rng.choice([0, 1, -1, value + 1, value - 1, 2 * value, 10**30])
    elif op < 0.8:
        node[key] = rng.choice(HOSTILE)
    elif isinstance(node, dict) and op < 0.9:
        del node[key]
    else:
        doc[rng.choice(["extra", "trunc", "context"])] = rng.choice(HOSTILE + [3, "5/2"])
    return doc


def _case(rng: random.Random):
    """(argv with ``{doc}`` standing for the document's path, the document
    or None) of one mutated call."""
    command = rng.choices(["reduce", "valuate", "chain", "divide", "monomialize", "defect"],
                          [35, 25, 10, 10, 10, 10])[0]
    options = {}
    if command in ("reduce", "valuate"):
        doc, argv = _arc_document(rng), [command, "--oracle={doc}"]
        if command == "valuate":
            options["--poly"] = rng.choice(POLYS + [doc["f"]])
        elif rng.random() < 0.3:
            options[rng.choice(["--trunc", "--max-translations", "--max-perron-steps",
                                "--max-approx-steps"])] = str(rng.randint(0, 30))
    elif command == "chain":
        doc, argv = CHAIN, ["chain", "value", "--oracle={doc}"]
        options["--poly"] = rng.choice(POLYS)
    elif command in ("divide", "monomialize"):
        doc, argv = WEIGHTS, ["perron", command, "--weights={doc}"]
        if command == "divide":
            options["--m1"], options["--m2"] = rng.sample(["x1", "x2", "x1^2", "x1*x2^3"], 2)
        else:
            options["--poly"] = rng.choice(POLYS)
    else:
        doc, argv = None, ["defect"]
        options = {"--degree": "4", "--e": "2", "--f": "1", "--p": "2"}
        if rng.random() < 0.3:
            options["--family"] = rng.choice(["1:2", "2:4", "2"])
    for _ in range(rng.choice([1, 1, 1, 2, 3])):
        if options and (doc is None or rng.random() < 0.25):
            key = rng.choice(sorted(options))
            options[key] = _mutate_text(rng, options[key])
        elif doc is not None:
            doc = mutate(rng, doc)
    # ``--opt=value``: a value that starts with ``-`` is not read as an option
    return argv + [f"{key}={value}" for key, value in options.items()], doc


class _Timeout(BaseException):
    pass


def _alarm(signum, frame):
    raise _Timeout


def run_one(argv, limit=None):
    """(exit code, stdout, stderr, seconds) of ``main(argv)``; an exception
    that escapes it is printed to stderr as a traceback, with code None."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    if limit:
        signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses the command line
                code = exc.code
            except Exception:
                traceback.print_exc()
                code = None
    except _Timeout:
        code = "timeout"
    finally:
        if limit:
            signal.setitimer(signal.ITIMER_REAL, 0)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def fuzz(count: int, seed: int = 1, limit: float | None = None) -> dict:
    """Send ``count`` mutated documents through ``main``.  Returns the
    exit codes seen and the broken cases, each (argv, document, why)."""
    rng = random.Random(seed)
    exits, broken = Counter(), []
    previous = signal.signal(signal.SIGALRM, _alarm) if limit else None
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "doc.json")
            for _ in range(count):
                argv, doc = _case(rng)
                if doc is not None:
                    with open(path, "w", encoding="utf-8") as fh:
                        json.dump(doc, fh)
                argv = [a.replace("{doc}", path) for a in argv]
                code, out, err, seconds = run_one(argv, limit)
                exits[code] += 1
                why = None
                if code not in (0, 2, 3, 4):
                    why = f"exit {code}"
                elif "Traceback" in out + err:
                    why = "traceback"
                elif code == 2 and "error: " not in err:
                    why = "exit 2 without an error line"
                elif limit and seconds > limit:
                    why = f"{seconds:.1f} s"
                if why:
                    broken.append((argv, doc, f"{why}: {err[-500:]}"))
    finally:
        if limit:
            signal.signal(signal.SIGALRM, previous)
    return {"exits": exits, "broken": broken}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--limit", type=float, help="seconds allowed a document")
    args = parser.parse_args()
    report = fuzz(args.count, args.seed, args.limit)
    print("exit codes:", dict(sorted(report["exits"].items(), key=str)))
    for argv, doc, why in report["broken"][:20]:
        print("BROKEN", json.dumps(argv), json.dumps(doc)[:300], why, sep="\n  ")
    sys.exit(1 if report["broken"] else 0)
