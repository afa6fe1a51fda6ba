"""Independent checks of every item's output, run outside the timed region.

Each check rebuilds what it needs with the benchmark's own code in
``model`` and never calls the balmatch function whose answer it checks.
Known answers of the families:
- cyclic(n): balanced, TU, odd-cycle and firm-worker PASS iff n is even,
  never totally balanced, stable matching iff n is even;
- interval(n) and nested(n): balanced, TB and TU PASS within the cap,
  complementary;
- random neighbour trees: worker-set matrix totally balanced.
"""

from __future__ import annotations

import json
import random

import model
from model import Mkt

CAP = 12
VERDICTS = ("PASS", "FAIL", "INCONCLUSIVE")
EXIT_OF = {"PASS": 0, "FAIL": 1, "INCONCLUSIVE": 2}
REPORT_KEY = {
    "--balanced": "balanced",
    "--tu": "totally-unimodular",
    "--totally-balanced": "totally-balanced",
    "--odd-cycles": "odd-cycles",
    "--firm-worker": "firm-worker",
    "--complementary": "complementary",
    "--additive": "additive",
    "--validate": "neighbour-condition",
    "--matrix": "worker-set-matrix",
    "--permute": "permutation-search",
}


class CheckError(AssertionError):
    """An item's output contradicts the benchmark's own answer."""


def expect(cond: bool, message: str):
    if not cond:
        raise CheckError(message)


def known(facts: dict, prop: str):
    """The family's known verdict for a property, or None."""
    fam, n = facts.get("family"), facts.get("n")
    if fam == "cyclic":
        even = n % 2 == 0
        return {
            "balanced": even, "tu": even, "odd-cycles": even, "firm-worker": even,
            "tb": False, "complementary": True, "stable": even,
        }.get(prop)
    if fam == "neighbour-tree":  # any child order: some order passes
        return {"tb": True}.get(prop)
    if fam in ("interval", "nested"):
        return {
            "balanced": True, "tb": True, "tu": True, "odd-cycles": True, "complementary": True,
            "firm-worker": True if fam == "interval" else None,
            "stable": True if fam == "nested" else None,
        }.get(prop)
    return None


class Checker:
    """Checks outputs; caches results per distinct (item, output)."""

    def __init__(self):
        self._markets = {}
        self._done = set()
        self.file_verdicts = {}  # path -> {flag: verdict}

    def market(self, path: str) -> Mkt:
        if path not in self._markets:
            with open(path) as fh:
                self._markets[path] = model.read_market(fh.read())
        return self._markets[path]

    def check(self, index: int, item, code, out, err):
        """Raise CheckError unless the output is right; return its verdicts."""
        key = (index, code, out if item.kind != "sweep" else repr(out))
        try:
            verdicts = _verdicts(item, code, out)
            if key not in self._done:
                getattr(self, "_" + item.kind)(item, code, out, err)
        except (LookupError, ValueError, TypeError, AttributeError) as e:
            raise CheckError(f"unreadable output: {type(e).__name__}: {e}") from e
        self._done.add(key)
        if item.kind == "check":
            seen = self.file_verdicts.setdefault(item.path, {})
            flag = item.facts["flag"]
            expect(seen.setdefault(flag, verdicts[0]) == verdicts[0],
                   f"{flag} on {item.label} changed verdict between passes")
        return verdicts

    # -- certify ---------------------------------------------------------------

    def _check(self, item, code, out, err):
        m = self.market(item.path)
        flag = item.facts["flag"]
        cert = json.loads(out)[REPORT_KEY[flag]]
        verdict = cert["verdict"]
        expect(code == EXIT_OF[verdict], f"exit {code} for verdict {verdict}")
        name = flag[2:]
        if flag in ("--balanced", "--totally-balanced", "--tu"):
            prop = {"--balanced": "balanced", "--totally-balanced": "tb", "--tu": "tu"}[flag]
            _matrix_verdict(prop, model.incidence(model.set_family(m), m.workers), cert, item.facts)
        elif flag in ("--odd-cycles", "--firm-worker"):
            _hypergraph_verdict(m, name, cert, item.facts)
        elif flag == "--complementary":
            own = [model.complementary(m.chains[f]) for f in m.firms]
            want = known(item.facts, "complementary") if None in own else all(own)
            if want is not None:
                expect((verdict == "PASS") == want, f"complementary {verdict} on {item.label}")
        else:
            want = all(model.additive(m.chains[f]) for f in m.firms)
            expect((verdict == "PASS") == want, f"additive {verdict} on {item.label}")

    def consistency(self):
        """Verdicts on one file must agree with each other."""
        for path, v in self.file_verdicts.items():
            bal = v.get("--balanced")
            if bal in ("PASS", "FAIL"):
                for flag in ("--tu", "--totally-balanced"):
                    expect(v.get(flag) != "PASS" or bal == "PASS",
                           f"{flag} PASS but balanced {bal} on {path}")
                odd = v.get("--odd-cycles")
                expect(odd in (None, bal), f"odd-cycles {odd} but balanced {bal} on {path}")

    def _tree(self, item, code, out, err):
        with open(item.path) as fh:
            text = fh.read()
        t = model.read_tree_json(text) if item.path.endswith(".json") else model.read_outline(text)
        mode = item.argv[2]
        cert = json.loads(out)[REPORT_KEY[mode]]
        verdict = cert["verdict"]
        expect(code == EXIT_OF[verdict], f"exit {code} for verdict {verdict}")
        if mode == "--validate":
            bad = model.neighbour_violations(t)
            expect((verdict == "PASS") == (not bad), f"neighbour condition {verdict}, own {sorted(bad)}")
            expect(verdict == "PASS" or cert["worker"] in bad, f"named worker {cert['worker']} is fine")
        elif mode == "--matrix":
            sets = []
            for v in _outline_order(t):
                if t.sets[v] and t.sets[v] not in sets:
                    sets.append(t.sets[v])
            workers = sorted(frozenset().union(*sets)) if sets else []
            mat = model.incidence(sets, workers)
            _matrix_verdict("tb", mat, {"verdict": verdict}, item.facts)
        elif verdict == "PASS":
            r = model.read_outline(cert["detail"])
            expect(r.root == t.root and r.sets == t.sets, "reordered tree changed its vertices")
            expect(all(sorted(r.children[v]) == sorted(c) for v, c in t.children.items()),
                   "reordered tree changed its parent links")
            expect(not model.neighbour_violations(r), "reordered tree fails the neighbour condition")
        else:
            expect(not model.has_neighbour_ordering(t), "permutation search missed an ordering")

    def _malformed(self, item, code, out, err):
        if item.facts["malformed"] == "permute-over-six-children" and code in (0, 1):
            # Accepted once the program orders wide vertices: check the verdict.
            self._tree(item, code, out, err)
        else:
            expect(code in item.facts["expect"], f"malformed {item.label} exited {code}")

    # -- solve -----------------------------------------------------------------

    def _solve(self, item, code, out, err):
        m = self.market(item.path)
        if item.facts["decompose"]:
            m = model.decompose(m, item.facts["decompose"])
        payload = json.loads(out)
        _matching_verdict(m, code, payload["matching"], item)
        certs = payload["certificates"]
        comp = [model.complementary(m.chains[f]) for f in m.firms]
        if None not in comp:
            expect(certs["complementary"] == str(all(comp)), f"complementary certificate on {item.label}")
        add = all(model.additive(m.chains[f]) for f in m.firms)
        expect(certs["additive"] == str(add), f"additive certificate on {item.label}")
        # Both families are sub-families of the original acceptable sets. A
        # known PASS carries over to a sub-family; the one known FAIL, an odd
        # cyclic market, keeps every set in both.
        for key, sets in (("acceptable_sets_balanced", model.set_family(m)),
                          ("primitive_sets_balanced", model.primitive_sets(m))):
            _matrix_verdict("balanced", model.incidence(sets, m.workers), {"verdict": certs[key]}, item.facts)

    def _pipeline(self, item, code, out, err):
        m = self.market(item.path)
        if code == 0:
            _matching_verdict(m, code, json.loads(out)["matching"], item)
            return
        expect(code == 1 and "no integral solution" in err, f"pipeline exit {code} on {item.label}")
        expect(known(item.facts, "stable") is not True and not item.facts.get("rounds"),
               f"pipeline found no rounding of {item.label}")
        rows = [ln.split() for ln in err.split("witness submatrix:")[1].strip().splitlines()[1:]]
        k = len(rows)
        sub = [[int(x) for x in r[-k:]] for r in rows]
        expect(k % 2 == 1 and model.two_per_line(sub, range(k), range(k)),
               "extraction certificate is not an odd two-per-line submatrix")

    # -- sweep -----------------------------------------------------------------

    def _sweep(self, item, code, result, err):
        chains, workers = item.call
        own = {f: p.chain for f, p in chains.items()}
        expect(all(model.complementary(c) for c in own.values()), "sweep profile not complementary")
        family = []
        for c in own.values():
            family += [s for s in model.acceptable(c) if s not in family]
        balanced = model.find_cycle_submatrix(model.incidence(family, workers), True, False)
        expect(balanced is False, "sweep profile not balanced")
        expect(result.ok, f"no stable matching for {result.counterexample} on {item.label}")
        space = model.profile_space(own, workers)
        expect(result.total == space and result.checked == space and not result.sampled,
               f"swept {result.checked} of {result.total} profiles, expected {space}")
        rng = random.Random(space)
        for _ in range(2):
            prefs = {}
            for w in workers:
                hire = [f for f, c in own.items() if any(w in s for s in c)]
                prefs[w] = tuple(rng.sample(hire, rng.randint(0, len(hire))))
            mk = Mkt(tuple(workers), tuple(own), own, prefs)
            expect(model.has_stable_matching(mk) is not False, "sampled profile has no stable matching")


def _outline_order(t):
    out, stack = [], [t.root]
    while stack:
        v = stack.pop()
        out.append(v)
        stack.extend(reversed(t.children.get(v, ())))
    return out


def _matrix_verdict(prop: str, mat, cert: dict, facts: dict):
    """Check a balanced / TB / TU verdict on an incidence matrix."""
    verdict = cert["verdict"]
    expect(verdict in VERDICTS, f"unknown verdict {verdict}")
    nr, nc = len(mat), len(mat[0]) if mat else 0
    if prop == "tu":
        over = nr > CAP or nc > CAP
    else:
        rows, cols = model.reduce_lines(mat)
        over = len(rows) > CAP or len(cols) > CAP
    expect((verdict == "INCONCLUSIVE") == over, f"{prop} {verdict} with matrix {nr}x{nc}, cap {CAP}")
    if verdict == "INCONCLUSIVE":
        return
    want = known(facts, prop)
    if verdict == "FAIL" and cert.get("witness_rows"):
        wr, wc = cert["witness_rows"], cert["witness_cols"]
        sub = [[mat[i][j] for j in wc] for i in wr]
        if prop == "tu":
            det = model.determinant(sub)
            expect(abs(det) >= 2 and det == cert["determinant"],
                   f"TU witness determinant {cert['determinant']}, own {det}")
        else:
            expect(model.two_per_line(mat, wr, wc), f"{prop} witness is not two-per-line")
            if prop == "balanced":
                expect(len(wr) % 2 == 1, "balanced witness has even order")
            else:
                expect(model.connected(mat, wr, wc), "TB witness is not one cycle")
    if want is None:
        if prop == "tu":
            found = model.find_unimodular_violation(mat)
        else:
            found = model.find_cycle_submatrix(mat, prop == "balanced", prop == "tb")
        want = None if found is None else not found
    if want is not None:
        expect((verdict == "PASS") == want, f"{prop} {verdict}, expected {'PASS' if want else 'FAIL'}")


def _hypergraph_verdict(m: Mkt, name: str, cert: dict, facts: dict):
    """Check an odd-cycle verdict: FAIL needs a valid odd cycle in which
    every edge holds exactly two cycle vertices."""
    edges = {}
    for f in m.firms:
        for s in model.acceptable(m.chains[f]):
            if name == "odd-cycles" and len(s) >= 2:
                edges[_label(s)] = s
            elif name == "firm-worker":
                edges[f + ":" + _label(s)] = s | {f}
    verdict = cert["verdict"]
    if verdict == "FAIL":
        vs, ls = cert["cycle_vertices"], cert["cycle_edges"]
        k = len(vs)
        expect(k >= 3 and k % 2 == 1 and len(ls) == k, f"{name} cycle of length {k}")
        expect(len(set(vs)) == k and len(set(ls)) == k, f"{name} cycle repeats a part")
        for i, label in enumerate(ls):
            expect(label in edges, f"{name} cycle uses unknown edge {label}")
            on = edges[label] & set(vs)
            expect(on == {vs[i], vs[(i + 1) % k]}, f"{name} edge {label} holds cycle vertices {sorted(on)}")
    want = known(facts, name)
    if want is None:
        ground = list(m.workers) + (list(m.firms) if name == "firm-worker" else [])
        found = model.find_cycle_submatrix(model.incidence(list(edges.values()), ground), True, False)
        want = None if found is None else not found
    if want is not None:
        expect((verdict == "PASS") == want, f"{name} {verdict}, expected {'PASS' if want else 'FAIL'}")


def _label(s) -> str:
    return "{" + ",".join(sorted(s)) + "}"


def _matching_verdict(m: Mkt, code: int, matching, item):
    want = known(item.facts, "stable") if not item.facts.get("decompose") else None
    if code == 0:
        expect(matching is not None, "exit 0 without a matching")
        bad = model.stability_violation(m, matching)
        expect(bad is None, f"returned matching on {item.label} is unstable: {bad}")
        expect(want is not False, f"{item.label} should have no stable matching")
    else:
        expect(code == 1 and matching is None, f"solve exit {code} on {item.label}")
        if want is None:
            want = model.has_stable_matching(m)
        expect(want is not True, f"solve found no stable matching on {item.label}, but one exists")


def _verdicts(item, code, out) -> list:
    """Certificate verdicts an item reports, for the decided share."""
    if item.kind == "sweep":
        return ["PASS" if out.ok else "FAIL"]
    if code not in (0, 1, 2) or item.kind == "malformed":
        return []
    payload = json.loads(out) if item.kind != "pipeline" or code == 0 else {"certificates": {}}
    if item.kind in ("check", "tree"):
        return [c["verdict"] for c in payload.values()]
    return ["PASS" if v == "True" else "FAIL" if v == "False" else v
            for v in payload["certificates"].values()]
