"""Self-test of the benchmark.

    python3 bench/selftest.py

Runs one round of each workload at seed 7 through the same code as
run.py, requires every output to pass its oracle, and then shows that each
oracle rejects a deliberately wrong answer.  Exits 1 if any line fails.
"""

from __future__ import annotations

import copy
import sys
from types import SimpleNamespace

import run

sys.path.insert(0, str(run.SRC))

import oracle  # noqa: E402

SEED = 7
failures = []


def expect(label, ok):
    print(f"{'ok  ' if ok else 'FAIL'}  {label}")
    if not ok:
        failures.append(label)


def observe_round(wl):
    ops = wl.setup(SEED)
    errors = []
    observed = [wl.observe(kind, arg, wl.call(kind, arg), errors) for kind, _, arg in ops]
    return ops, observed, errors


def decompose():
    wl = run.Decompose()
    ops, observed, errors = observe_round(wl)
    expected = oracle.expected_round("decompose", SEED, 0)
    expect(f"decompose: {len(ops)} operations match the oracle",
           not errors and all(map(run.matches, observed, expected)))
    for kind in ("twisted", "dense", "odd"):
        j = next(i for i, op in enumerate(ops) if op[0] == kind)
        dropped = observed[j][:-1]
        expect(f"decompose: {kind} normal form with one block dropped is rejected",
               not run.matches(dropped, expected[j]))
    j = next(i for i, op in enumerate(ops) if op[0] == "odd")
    wrong = copy.deepcopy(observed[j])
    odd = next(b for b in wrong if b[0] == "odd")
    odd[1] += 2
    expect("decompose: an odd block with the wrong prime is rejected",
           not run.matches(wrong, expected[j]))


def spectral():
    wl = run.Spectral()
    ops, observed, errors = observe_round(wl)
    expected = oracle.expected_round("spectral", SEED, 0)
    expect(f"spectral: {len(ops)} operations pass the oracle and identities",
           not errors and all(map(run.matches, observed, expected)))
    j = next(i for i, op in enumerate(ops) if op[0] == "couple" and expected[i]["e_infinity"])
    wrong = copy.deepcopy(observed[j])
    page = wrong["pages"][-1]
    degree = next(iter(page), "0")
    page[degree] = page.get(degree, 0) + 1
    expect("spectral: a couple page with one rank too many is rejected",
           not run.matches(wrong, expected[j]))
    wrong = dict(observed[j], e_infinity={})
    expect("spectral: an empty E_infinity is rejected", not run.matches(wrong, expected[j]))

    realized = [op for op in ops if op[0] == "couple" and op[2][1] is not None]
    kind, _, arg = next(op for op in realized if wl.call(*op[::2]).pages[0])
    real = wl.call(kind, arg)
    for flag in ("four_term_exact", "identification_holds", "degeneration_holds"):
        errs = []
        wl.observe(kind, arg, SimpleNamespace(**{**vars(real), flag: False}), errs)
        expect(f"spectral: CoupleAnalysis.{flag} = False is rejected", bool(errs))
    emptied = SimpleNamespace(**{**vars(real), "pages": ({},) + real.pages[1:]})
    expect("spectral: couple ranks that disagree with the infinite towers are rejected",
           wl.towers_match(arg[1], real) and not wl.towers_match(arg[1], emptied))

    j = next(i for i, op in enumerate(ops) if op[0] == "pages")
    errs = []
    wl.observe("pages", ops[j][2], wl.call("pages", ops[j][2]), errs)
    pfw = wl.call("pages_from_witt", ops[j][2])
    wl.observe("pages_from_witt", ops[j][2], pfw[:-1] + pfw[:1], errs)
    expect("spectral: pages != pages_from_witt is rejected", bool(errs))
    for kind, field in (("kunneth", "equal"), ("truncated", "holds"), ("leibniz", "holds")):
        errs = []
        wl.observe(kind, None, SimpleNamespace(**{field: False}), errs)
        expect(f"spectral: {kind} with {field} = False is rejected", bool(errs))


def cli():
    expected = oracle.expected_round("cli", SEED, 0)
    names = {name for name, *_ in run.FAULT_CLI_OPS}
    res = run.new_result()
    with run.Spawner() as spawner:
        wl = run.Cli(spawner)
        ops = wl.setup(SEED)
        results = {op[1]: wl.execute(op, op[1] == "witt", res)[1:] for op in ops}
    expect("cli: a traced verb returns its span summary", res["groups"]["cli.main"][0] == 1)
    expect(f"cli: {len(results) - len(names)} verbs succeed and match stored outputs",
           not res["errors"] and all(st == "ok" for n, (st, _) in results.items()
                                     if n not in names))
    seeded = [answer for _, answer in results.values() if answer is not None]
    expect("cli: seeded verbs match the closed-form transcription",
           len(seeded) == len(expected) and all(map(run.matches, seeded, expected)))
    for name in sorted(names):
        print(f"info  cli: known fault {name}: {results[name][0]}")

    witt = copy.deepcopy(results["witt"][1])
    witt["groups"].append({"degree": 99, "free": 1, "torsion": []})
    expect("cli: a Witt table with an extra group is rejected",
           not run.matches(witt, expected[3]))
    expect("cli: a decompose answer with one block dropped is rejected",
           not run.matches(results["big"][1][:-1], expected[1]))
    status, _ = run.judge_cli(("stored", "check-hp1"), 0, "pass  hp1: 60 cases\n", "",
                              wl.stored)
    expect("cli: a stored output that differs is rejected", status == "wrong")
    status, _ = run.judge_cli(("fault", None), 1, "", "Traceback (most recent call last):",
                              wl.stored)
    expect("cli: a traceback in place of an input error counts as failed", status == "failed")


def main() -> int:
    decompose()
    spectral()
    cli()
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
