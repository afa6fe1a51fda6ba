"""Renaming every worker and firm, and listing them in another order,
changes no verdict: existence, the market certificates, the matrix
certificates of the acceptable sets and both hypergraph checks. Each FAIL
witness of the renamed market is re-checked on that market."""

import random

from balmatch.genrandom import MarketGenConfig, random_market
from balmatch.hypergraphs import acceptable_set_hypergraph, check_hypergraph_balanced, firm_worker_hypergraph
from balmatch.market import Market, acceptable_set_family, is_stable
from balmatch.matrices import (
    FAIL,
    cycle_walk,
    integer_determinant,
    is_balanced,
    is_totally_balanced,
    is_totally_unimodular,
    matrix_of_sets,
)
from balmatch.solve import market_certificates, solve


def renamed(m: Market, rng: random.Random) -> Market:
    """m with fresh worker and firm names, ``workers``, ``firms`` and both
    preference dicts shuffled; each chain and worker list keeps its order."""
    ws, fs = list(m.workers), list(m.firms)
    new = dict(zip(ws, (f"x{i}" for i in rng.sample(range(100), len(ws)))))
    new.update(zip(fs, (f"y{i}" for i in rng.sample(range(100), len(fs)))))
    workers, firms = rng.sample(ws, len(ws)), rng.sample(fs, len(fs))
    return Market.build(
        [new[w] for w in workers],
        {new[f]: [[new[w] for w in s] for s in m.firm_prefs[f].chain] for f in firms},
        {new[w]: [new[f] for f in m.worker_prefs[w]] for w in rng.sample(ws, len(ws))},
    )


def recheck_matrix_fail(mat, cert):
    sub = mat.submatrix(cert.witness_rows, cert.witness_cols)
    k = len(sub.rows)
    assert k == len(sub.cols) >= 3
    if cert.property == "totally unimodular":
        det = integer_determinant([list(r) for r in sub.entries])
        assert det == cert.determinant and abs(det) >= 2
        return
    assert all(x.bit_count() == 2 for x in sub.masks)
    assert all(sum(r) == 2 for r in sub.entries)
    if cert.property == "balanced":
        assert k % 2 == 1
    else:  # one cycle through every row
        assert len({i for i, _ in cycle_walk(sub.masks)}) == k


def recheck_hypergraph_fail(h, cycle):
    edges = dict(zip(h.cols, h.masks))
    vertices = set(cycle.vertices)
    assert cycle.length % 2 == 1
    for label, members in cycle.edges:
        assert edges[label] == sum(1 << h.rows.index(v) for v in members)
        assert len(members & vertices) == 2


def verdicts(m: Market) -> tuple:
    mu = solve(m)
    if mu is not None:
        assert is_stable(mu, m)
    mat = matrix_of_sets(acceptable_set_family(m), m.workers)
    certs = [check(mat) for check in (is_balanced, is_totally_balanced, is_totally_unimodular)]
    for cert in certs:
        if cert.verdict == FAIL:
            recheck_matrix_fail(mat, cert)
    hypers = []
    for h in (acceptable_set_hypergraph(m), firm_worker_hypergraph(m)):
        cert = check_hypergraph_balanced(h)
        if cert.verdict == FAIL:
            recheck_hypergraph_fail(h, cert.cycle)
        hypers.append(cert.verdict)
    return mu is not None, market_certificates(m), [c.verdict for c in certs], hypers


def test_renaming_and_reordering_keep_every_verdict():
    rng = random.Random(12)
    cfg = MarketGenConfig(max_workers=6, max_firms=4, max_chain=3, max_set=4)
    seen = set()
    for _ in range(1500):
        m = random_market(rng, cfg)
        got = verdicts(m)
        assert verdicts(renamed(m, rng)) == got
        seen.add((got[0], *got[2], *got[3]))
    # both existence answers, and PASS and FAIL on every certificate
    assert {s[0] for s in seen} == {True, False}
    for i in range(1, 6):
        assert {s[i] for s in seen} >= {"PASS", FAIL}
