#!/usr/bin/env python3
"""Self-test of the benchmark's own checkers on the corpus's known answers.

    python3 bench/selftest.py

Each case feeds the checker the program's real output, which it must
accept, and a doctored output, which it must reject: cyclic3.market has no
stable matching, two_firms.market rounded from half_half.frac is stable,
and triangle.tree has no child order passing the neighbour condition.
Exits 0 when every case holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import run

run.import_balmatch()

import checks  # noqa: E402
import model  # noqa: E402
from workloads import Item  # noqa: E402

CORPUS = os.path.join(run.ROOT, "corpus")
# stderr of a pipeline that claims no rounding, with a valid odd witness
FAILED_ROUNDING = "no integral solution\nwitness submatrix:\n   a  b  c\nr1  1  1  0\nr2  0  1  1\nr3  1  0  1\n"


def corpus(name: str) -> str:
    return os.path.join(CORPUS, name)


def program(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sys.modules["balmatch.cli"].main(list(argv))
    return code, out.getvalue(), err.getvalue()


def accepts(item, code, out, err="") -> bool:
    try:
        checks.Checker().check(0, item, code, out, err)
    except checks.CheckError:
        return False
    return True


def cases():
    cyclic3 = corpus("cyclic3.market")
    with open(cyclic3) as fh:
        market = model.read_market(fh.read())
    yield "cyclic3 has no stable matching", model.has_stable_matching(market) is False
    facts = {"family": "corpus", "decompose": None}
    item = Item("solve", "corpus cyclic3.market", ("solve", cyclic3, "--json"), cyclic3, facts)
    code, out, err = program(item.argv)
    yield "solve on cyclic3 exits 1 and is accepted", code == 1 and accepts(item, code, out, err)
    certs = json.loads(out)["certificates"]
    fake = json.dumps({"matching": {"w1": "f1", "w2": "f1", "w3": None}, "certificates": certs})
    yield "a matching claimed on cyclic3 is rejected", not accepts(item, 0, fake)

    two = corpus("two_firms.market")
    argv = ("solve", two, "--strategy", "pipeline", "--fractional", corpus("half_half.frac"), "--json")
    item = Item("pipeline", "corpus two_firms + half_half", argv, two, {"family": "corpus", "rounds": True})
    code, out, err = program(argv)
    yield "two_firms + half_half rounds to a stable matching", code == 0 and accepts(item, code, out, err)
    payload = json.loads(out)
    payload["matching"] = {w: None for w in payload["matching"]}
    yield "an unstable rounding is rejected", not accepts(item, 0, json.dumps(payload))
    yield "a failed rounding of two_firms is rejected", not accepts(item, 1, "", FAILED_ROUNDING)

    triangle = corpus("triangle.tree")
    argv = ("tree", triangle, "--permute", "--json")
    item = Item("tree", "corpus triangle.tree", argv, triangle, {"family": "corpus"})
    code, out, err = program(item.argv)
    yield "triangle.tree --permute fails and is accepted", code == 1 and accepts(item, code, out, err)
    with open(triangle) as fh:
        text = fh.read()
    fake = json.dumps({"permutation-search": {"verdict": "PASS", "detail": text}})
    yield "a PASS claimed for triangle.tree is rejected", not accepts(item, 0, fake)


def main() -> int:
    results = list(cases())
    failures = [name for name, ok in results if not ok]
    for name in failures:
        print(f"FAILED: {name}", file=sys.stderr)
    print(f"selftest: {len(results) - len(failures)} of {len(results)} cases hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
