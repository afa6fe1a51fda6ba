"""The CLI's contract end to end: the exit code of every README example and
of the argv forms only argparse reads, the commands that must finish
within a time limit in a fresh interpreter, the experiment scripts, and
one transcript of the corpus, the fractional pipeline and the sweeps that
reads the same under hash seeds 0, 1 and 2 and with CRLF line ends."""

import json
import runpy
import shutil
import sys
from fractions import Fraction

import pytest

from balmatch.cli import main
from balmatch.formats import serialize_fractional, serialize_market
from balmatch.fractional import FractionalMatching
from balmatch.oracle import cyclic_market
from balmatch.prefs import decompose_by_sets
from conftest import CORPUS, nested_market, run_python, shuffled_nested_market
from test_cli import _readme_argvs

ROOT = CORPUS.parent

EXIT_CODES = [
    *_readme_argvs(),
    (0, ["solve", "corpus/two_firms.market", "--decompose", "sets", "--strategy", "pipeline",
         "--fractional", "corpus/half_half.frac", "--json"]),
    (64, ["check", "corpus", "--tu"]),
    # argv forms that only argparse reads: abbreviations, --flag=value, help, usage errors
    (2, ["check", "corpus/cyclic3.market", "--bal", "--cap=2"]),
    (0, ["solve", "corpus/two_firms.market", "--strat=pipeline", "--frac", "corpus/half_half.frac"]),
    (0, ["check", "--help"]),
    (64, ["check", "corpus/cyclic3.market", "--tu", "--cap=-1"]),
    (64, ["check", "corpus/cyclic3.market", "--balanced", "extra"]),
]


@pytest.mark.parametrize("code, argv", EXIT_CODES, ids=[" ".join(argv) for _, argv in EXIT_CODES])
def test_exit_code(code, argv, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main(argv) == code


MARKETS = {
    "cyclic20": lambda: cyclic_market(20),
    "cyclic21": lambda: cyclic_market(21),
    # one firm whose chain is the nested prefixes of 120 workers
    "nested120": lambda: nested_market(120),
    # firm k wants the first k of 48 workers alone, firms and workers
    # shuffled: no consecutive ones as listed, but the columns form a chain,
    # so sorted by size every row is a suffix and each check passes unsearched
    "nested48": lambda: shuffled_nested_market(48, 48),
    # one odd cycle through every worker, and none: the girth decides both
    "cyclic499": lambda: cyclic_market(499),
    "cyclic500": lambda: cyclic_market(500),
}

FLAGS = ["--balanced", "--totally-balanced", "--tu", "--odd-cycles", "--firm-worker"]

TIME_LIMITED = [
    # (seconds, exit code, command): cyclic markets past the default cap
    *((60, 1, f"check cyclic21 {flag} --cap 21") for flag in FLAGS),
    *((60, code, f"check cyclic20 {flag} --cap 21") for flag, code in zip(FLAGS, (0, 1, 0, 0, 0))),
    (60, 0, "solve cyclic20"),
    (60, 1, "solve cyclic21"),
    # long chains
    (10, 0, "solve nested120 --decompose components"),
    *((10, 0, f"check nested48 {flags}") for flags in (
        "--odd-cycles", "--firm-worker", "--balanced --cap 48", "--totally-balanced --cap 48", "--tu --cap 48",
    )),
    # long cycles
    *((10, n % 2, f"check cyclic{n} {flags}")
      for flags in ("--odd-cycles", "--firm-worker", "--tu --cap 500", "--balanced --cap 500") for n in (499, 500)),
]


@pytest.mark.parametrize("seconds, code, command", TIME_LIMITED, ids=[c for _, _, c in TIME_LIMITED])
def test_finishes_within_its_time_limit(tmp_path, seconds, code, command):
    name, market, *flags = command.split()
    path = tmp_path / f"{market}.market"
    path.write_text(serialize_market(MARKETS[market]()))
    proc = run_python("-m", "balmatch.cli", name, str(path), *flags, timeout=seconds)
    assert proc.returncode == code, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        "tree_matrices.py --trees 200",
        "cyclic_parity.py --max-n 8",
        "sweep_profiles.py --profiles 100",
        "sweep_profiles.py --profiles 1000 --max-workers 6 --max-firms 5",
    ],
)
def test_experiment_script_exits_0(argv, monkeypatch, capsys):
    script, *args = argv.split()
    path = str(ROOT / "scripts" / script)
    monkeypatch.setattr(sys, "argv", [path, *args])
    runpy.run_path(path, run_name="__main__")  # the scripts exit only to fail


# Run in the directory of the files: every command on the corpus and on a
# market whose one chain set names several unknown workers, the fractional
# pipeline on cyclic_market(n) with every firm at 1/2, the worker-profile
# sweep of every corpus firm side and two wide last-worker sweeps. Prints
# one JSON transcript: each command's argv, stdout, stderr and exit code,
# and each sweep's fields.
TRANSCRIPT = """
import contextlib, dataclasses, io, json, pathlib
from balmatch.cli import main
from balmatch.formats import parse_market
from balmatch.market import FirmPreference as P
from balmatch.oracle import exists_for_all_worker_prefs

here = pathlib.Path()
every = ["--balanced", "--tu", "--totally-balanced", "--odd-cycles", "--firm-worker", "--complementary", "--additive"]
pipeline = ["--strategy", "pipeline", "--fractional"]
commands = []
for m in [*map(str, sorted(here.glob("corpus/*.market"))), "unknown_workers.market"]:
    commands += [["check", m, *every], ["check", m, *every, "--json"], ["solve", m], ["solve", m, "--json"],
                 ["solve", m, "--decompose", "sets"], ["solve", m, "--decompose", "components"]]
for t in map(str, sorted(here.glob("corpus/*.tree"))):
    commands += [["tree", t, "--validate", "--matrix", "--permute"],
                 ["tree", t, "--validate", "--matrix", "--permute", "--json"]]
commands += [["solve", "corpus/two_firms.market", *pipeline, "corpus/half_half.frac"],
             ["solve", "corpus/two_firms.market", *pipeline, "corpus/half_half.frac", "--json"]]
for m in sorted(here.glob("cyclic*.market")):
    commands.append(["solve", m.name, *pipeline, m.stem + ".frac", "--json"])
runs = []
for argv in commands:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    runs.append([argv, out.getvalue(), err.getvalue(), code])

def sweep(firm_prefs, workers):
    return dataclasses.asdict(exists_for_all_worker_prefs(firm_prefs, workers))

sweeps = {}
for p in sorted(here.glob("corpus/*.market")):
    m = parse_market(p.read_text())
    sweeps[p.name] = sweep(m.firm_prefs, m.workers)
# four firms that all want w2, the last worker: 16 x 65 = 1,040 profiles;
# then the triangle with w3 also wanted alone by f4 and f5, whose
# counterexample lies inside w3's row of 65 options
sweeps["wide"] = sweep({"f1": P.of({"w1", "w2"}, {"w2"}), "f2": P.of({"w1", "w2"}), "f3": P.of({"w2"}),
                        "f4": P.of({"w1", "w2"}, {"w1"})}, ["w1", "w2"])
sweeps["triangle"] = sweep({"f1": P.of({"w1", "w2"}), "f2": P.of({"w2", "w3"}), "f3": P.of({"w1", "w3"}),
                            "f4": P.of({"w3"}), "f5": P.of({"w3"})}, ["w1", "w2", "w3"])
print(json.dumps({"runs": runs, "sweeps": sweeps}, indent=1))
"""

CYCLIC_AT_HALF = [*range(3, 13), 20, 21, 40]


def test_transcript_is_independent_of_the_hash_seed_and_line_ends(tmp_path):
    lf, crlf = tmp_path / "lf", tmp_path / "crlf"
    shutil.copytree(CORPUS, lf / "corpus")
    (lf / "unknown_workers.market").write_text(
        '{"workers": ["w1"], "firms": {"f1": [["w7", "w8", "w9", "w5"]]}, "worker_prefs": {"w1": []}}\n'
    )
    for n in CYCLIC_AT_HALF:
        m = cyclic_market(n)
        d = decompose_by_sets(m)
        fm = FractionalMatching({f: Fraction(1, 2) for f in d.market.firms}, {w: Fraction(0) for w in m.workers})
        (lf / f"cyclic{n}.market").write_text(serialize_market(m))
        (lf / f"cyclic{n}.frac").write_text(serialize_fractional(fm, d))
    for p in lf.rglob("*"):
        if p.is_file():
            copy = crlf / p.relative_to(lf)
            copy.parent.mkdir(parents=True, exist_ok=True)
            copy.write_bytes(p.read_bytes().replace(b"\n", b"\r\n"))

    # seed 2 as well: the one set a corpus witness names, {w2, w3}, lists
    # its workers in the same order under seeds 0 and 1
    transcripts = {}
    for seed, where in ((0, lf), (1, lf), (2, lf), (0, crlf)):
        proc = run_python("-c", TRANSCRIPT, hash_seed=seed, cwd=where)
        assert (proc.returncode, proc.stderr) == (0, ""), (seed, where.name)
        transcripts[seed, where.name] = proc.stdout
    first = transcripts[0, "lf"]
    assert [run for run, text in transcripts.items() if text != first] == []

    transcript = json.loads(first)
    runs = transcript["runs"]
    markets, trees = len(list(CORPUS.glob("*.market"))), len(list(CORPUS.glob("*.tree")))
    assert len(runs) == 6 * (markets + 1) + 2 * trees + 2 + len(CYCLIC_AT_HALF)
    # the rounding system has a 0/1 point (exit 0) iff n is even, else exit 1
    cyclic = {argv[1]: code for argv, _, _, code in runs if argv[1].startswith("cyclic")}
    assert cyclic == {f"cyclic{n}.market": n % 2 for n in CYCLIC_AT_HALF}
    # every --json stdout is the text json.dumps(..., indent=2) gives its payload
    outs = [out for argv, out, _, _ in runs if argv[-1] == "--json" and out]
    assert outs
    assert [out for out in outs if json.dumps(json.loads(out), indent=2) + "\n" != out] == []
    # solved pins which options got searched, not only the verdict
    fields = [{k: transcript["sweeps"][name][k] for k in ("ok", "total", "checked", "solved")}
              for name in ("wide", "triangle")]
    assert fields == [
        {"ok": True, "total": 1040, "checked": 1040, "solved": 9},
        {"ok": False, "total": 1625, "checked": 1242, "solved": 9},
    ]
