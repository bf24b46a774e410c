"""Benchmark for mwtate: decompose, spectral and cli workloads.

    python3 bench/run.py --workload decompose --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  Operations come in rounds; round k
holds the same kinds and sizes of operation in every run, with inputs drawn
from ``gen`` by (seed, k).  A run does whole rounds until ``--seconds`` have
passed and there are enough samples for its tail percentile.  Every output
is then checked against ``oracle.py``, which runs in its own process and
does not import mwtate, and against the identities named in the README.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a fixed
number of rounds twice each, once plain and once with spans recorded by
``spans.Tracer``, and prints the per-layer metrics and the tracing
overhead.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The full record is also written to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from spans import GROUPS, SMITH_STATS, TRACE_PREFIX, Tracer, merge  # noqa: E402

SETUP_REPEATS = 7
TAIL_PERCENTILE = {"decompose": 99, "spectral": 99, "cli": 90}
TRACE_ROUNDS = {"decompose": 24, "spectral": 10, "cli": 2}
FRESH_PROCESS_REPEATS = 5
CHILD_TIMEOUT_S = 120
PAGE_RANGE = range(2, 9)


def min_samples(p: int) -> int:
    """Fewest samples that leave at least ten beyond the p-th percentile."""
    n = 10
    while n - math.ceil(p * n / 100) < 10:
        n += 1
    return n


def percentile(xs, p):
    xs = sorted(xs)
    return xs[max(0, math.ceil(p * len(xs) / 100) - 1)]


def fresh_import(names):
    """Import ``names`` from scratch, as a new process would."""
    for name in [n for n in sys.modules if n == "mwtate" or n.startswith("mwtate.")]:
        del sys.modules[name]
    return {name: importlib.import_module(name) for name in names}


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def fresh_process_s(code: str) -> float:
    """Median wall time of a fresh interpreter running ``code``."""
    times = []
    for _ in range(FRESH_PROCESS_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=_child_env(), check=True,
                       capture_output=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def digest(answer) -> bytes:
    """A short fingerprint of an answer, so a run keeps its outputs for the
    oracle without holding them all in memory."""
    return hashlib.blake2b(json.dumps(answer, sort_keys=True).encode(), digest_size=16).digest()


def matches(observed, expected) -> bool:
    return expected is None or digest(observed) == digest(expected)


def run_oracle(workload, seed, rounds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "oracle.py"), workload, str(seed), str(rounds)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout)


# ------------------------------------------------------------- workloads


class InProcess:
    """Shared part of the in-process workloads.  An op is (kind, label,
    argument); ``call`` runs it through module attributes, so the tracer's
    wrappers are seen; ``observe`` turns its result into the JSON form the
    oracle answers in, or None when the answer is checked on the spot."""

    modules: tuple = ()
    tracer = None

    def setup(self, seed):
        """Fresh import, round 0, and one call of each program entry point
        (the first op of each kind in ``warm_kinds``)."""
        self.mods = fresh_import(self.modules)
        ops = self.next_round(seed, 0)
        for kind in self.warm_kinds:
            _, _, arg = next(op for op in ops if op[0] == kind)
            self.call(kind, arg)
        return ops

    def next_round(self, seed, k):
        return self.prepare(self.round(seed, k))

    def execute(self, op, traced, res):
        """Run one op; returns (seconds, "ok" | "failed", answer for the oracle)."""
        kind, label, arg = op
        if self.tracer:
            self.tracer.active, self.tracer.op = traced, res["attempted"]
        t0 = time.perf_counter()
        try:
            result = self.call(kind, arg)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            result = exc
        dt = time.perf_counter() - t0
        if self.tracer:
            self.tracer.active = False
        if isinstance(result, Exception):
            res["notes"].append(f"{label}: {type(result).__name__}: {result}")
            return dt, "failed", None
        return dt, "ok", self.observe(kind, arg, result, res["errors"])

    def start_trace(self):
        self.tracer = Tracer()
        self.tracer.install()

    def finish(self, res):
        res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if self.tracer:
            self.tracer.uninstall()
            merge(res["groups"], self.tracer.summary(), res["smith"], self.tracer.smith)
            res["tracer"] = self.tracer


class Decompose(InProcess):
    name = "decompose"
    modules = ("mwtate.motives",)
    warm_kinds = ("twisted",)  # every kind calls motives.decompose

    def round(self, seed, k):
        return gen.decompose_round(seed, k)

    def prepare(self, ops):
        motives = self.mods["mwtate.motives"]
        out = []
        for kind, label, payload in ops:
            cplx = payload[0] if kind == "twisted" else payload
            out.append((kind, label, motives.TateComplex(*gen.cells_and_attach(*cplx))))
        return out

    def call(self, kind, arg):
        return self.mods["mwtate.motives"].decompose(arg)

    def observe(self, kind, arg, result, errors):
        return block_tuples(result)


def block_tuples(nf):
    out = []
    for b in nf.blocks:
        name = type(b).__name__
        if name == "Free":
            out.append(["free", b.weight])
        elif name == "DyadicEta":
            out.append(["dyadic", b.t, b.weight])
        else:
            out.append(["odd", b.p, b.r, b.shift])
    return sorted(out)


def f2_dims(groups):
    """{degree: dim} of a page of F_2-vector spaces, or None if some group
    is not elementary abelian of exponent 2."""
    out = {}
    for d, g in groups.items():
        if g.free_rank or any(q != 2 for q in g.torsion):
            return None
        out[str(d)] = len(g.torsion)
    return out


class Spectral(InProcess):
    name = "spectral"
    modules = ("mwtate.bockstein", "mwtate.cohomology", "mwtate.exactalg", "mwtate.motives")
    warm_kinds = (
        "couple", "pages", "pages_from_witt", "kunneth", "truncated", "leibniz", "v_group",
    )

    def round(self, seed, k):
        return gen.spectral_round(seed, k)

    def _nf(self, blocks):
        m = self.mods["mwtate.motives"]
        make = {"free": m.Free, "dyadic": m.DyadicEta, "odd": m.OddTorsion}
        return m.NormalForm(make[b[0]](*b[1:]) for b in blocks)

    def prepare(self, ops):
        ex = self.mods["mwtate.exactalg"]
        out = []
        for kind, label, payload in ops:
            if kind == "couple":
                (ranks, diffs), blocks = payload
                arg = (ex.FreeComplex(ranks, diffs), blocks and self._nf(blocks))
            elif kind in ("pages", "pages_from_witt"):
                arg = self._nf(payload)
            elif kind == "kunneth":
                arg = (self._nf(payload[0]), self._nf(payload[1]))
            elif kind in ("truncated", "v_group"):
                arg = (self._nf(payload[0]), *payload[1:])
            else:
                arg = payload
            out.append((kind, label, arg))
        return out

    def call(self, kind, arg):
        bs = self.mods["mwtate.bockstein"]
        if kind == "couple":
            return bs.couple_analyze(bs.bockstein_couple(arg[0]))
        if kind == "pages":
            return [bs.pages(arg, i) for i in PAGE_RANGE]
        if kind == "pages_from_witt":
            h = self.mods["mwtate.cohomology"].witt_cohomology(arg)
            return [bs.pages_from_witt(h, i) for i in PAGE_RANGE]
        if kind == "kunneth":
            return bs.kunneth_e2(*arg)
        if kind == "truncated":
            return bs.truncated_check(*arg)
        if kind == "leibniz":
            return bs.leibniz_check(*arg)
        return bs.v_group(*arg)

    def observe(self, kind, arg, result, errors):
        """Checks that need no oracle run here; ``errors`` collects misses."""
        if kind == "couple":
            for flag in ("four_term_exact", "identification_holds", "degeneration_holds"):
                if not getattr(result, flag):
                    errors.append(f"couple flag {flag} false")
            if arg[1] is not None and not self.towers_match(arg[1], result):
                errors.append(f"E_(i-1) ranks differ from infinite towers of pages for {arg[1]}")
            return {
                "pages": [f2_dims(p) for p in result.pages],
                "e_infinity": f2_dims(result.e_infinity),
                "torsion_order": result.torsion_order,
            }
        if kind == "pages":
            self._last_pages = result
        elif kind == "pages_from_witt":
            if result != self._last_pages:
                errors.append(f"pages != pages_from_witt(witt_cohomology) for {arg}")
        elif kind == "kunneth" and not result.equal:
            errors.append(f"kunneth_e2 unequal for {arg}")
        elif kind in ("truncated", "leibniz") and not result.holds:
            errors.append(f"{kind} check fails for {arg}")
        elif kind == "v_group" and (result.dim_V < 0 or result.fiber_product.free_rank):
            errors.append(f"v_group out of range for {arg}")
        return None

    def towers_match(self, nf, analysis):
        """rank E_{i-1}^d of the couple == infinite towers in row d of pages(A, i)."""
        pages = self.mods["mwtate.bockstein"].pages
        for i in range(2, len(analysis.pages) + 2):
            ranks = f2_dims(analysis.pages[i - 2]) or {}
            rows: dict = {}
            for t in pages(nf, i).towers:
                if t.infinite():
                    rows[str(t.q)] = rows.get(str(t.q), 0) + 1
            if rows != ranks:
                return False
        return True


def new_result():
    return {
        "setup_times": [],
        "latencies": [],  # (label, seconds) of every untraced operation
        "busy": {"plain": 0.0, "traced": 0.0},
        "attempted": 0,
        "failed": 0,
        "errors": [],  # wrong answers: these make the run incorrect
        "notes": [],  # failed operations, counted in "failed"
        "groups": {g: [0, 0.0] for g in GROUPS},
        "smith": dict.fromkeys(SMITH_STATS, 0),
        "tracer": None,
    }


def setup_due(done, elapsed, seconds) -> bool:
    """Set-up repeat i (counting from 0) is due once i / SETUP_REPEATS of the
    run has passed, so the median set-up time sees the same machine as the
    operations do rather than one moment of it."""
    return done < SETUP_REPEATS and elapsed >= done * seconds / SETUP_REPEATS


def run_workload(wl, seed, seconds, trace):
    res = new_result()

    def timed_setup():
        t0 = time.perf_counter()
        ops = wl.setup(seed)
        res["setup_times"].append(time.perf_counter() - t0)
        return ops

    ops = timed_setup()
    if trace:
        wl.start_trace()
    need = min_samples(TAIL_PERCENTILE[wl.name])
    start = time.perf_counter()
    observed, k = [], 0
    while True:
        for traced in ((False, True) if trace else (False,)):
            round_obs = []
            for op in ops:
                res["attempted"] += 1
                dt, status, answer = wl.execute(op, traced, res)
                res["busy"]["traced" if traced else "plain"] += dt
                if not traced:
                    res["latencies"].append((op[1], dt))
                if status == "failed":
                    res["failed"] += 1
                round_obs.append(None if answer is None else digest(answer))
            if not traced:
                observed.append(round_obs)
            elif round_obs != observed[-1]:
                res["errors"].append(f"round {k}: traced answers differ from plain ones")
        k += 1
        elapsed = time.perf_counter() - start
        if trace:
            if k >= TRACE_ROUNDS[wl.name]:
                break
        elif elapsed >= seconds and len(res["latencies"]) >= need:
            break
        elif setup_due(len(res["setup_times"]), elapsed, seconds):
            timed_setup()
        ops = wl.next_round(seed, k)
    while not trace and len(res["setup_times"]) < SETUP_REPEATS:
        timed_setup()
    wl.finish(res)
    res["rounds"] = k
    expected = run_oracle(wl.name, seed, k)
    for r, (obs_round, exp_round) in enumerate(zip(observed, expected)):
        for j, (obs, exp) in enumerate(zip(obs_round, exp_round)):
            if obs is not None and exp is not None and obs != digest(exp):
                res["errors"].append(f"round {r} op {j}: differs from the oracle's {exp}")
    return res


# ------------------------------------------------------------------- cli

EXPECTED_CLI = HERE / "expected_cli.json"
MWDIAG_BLOCKS = json.dumps([
    {"kind": "free", "weight": 0},
    {"kind": "dyadic", "t": 2, "weight": 1},
    {"kind": "odd", "p": 3, "r": 1, "shift": 0},
])
BLOWUP = json.dumps({
    "ambient": {"cells": [{"id": f"x{w}", "weight": w} for w in range(4)], "attach": []},
    "thom": {"cells": [{"id": "t", "weight": 0}], "attach": []},
    "centre": [{"kind": "free", "weight": 0}, {"kind": "dyadic", "t": 1, "weight": 0}],
    "codim": 4,
    "gysin": [{"from": "x3", "to": "t", "coeff": 2}],
})
# (name, argv, stdin); checked against expected_cli.json
FIXED_CLI_OPS = [
    ("pages", ["pages", "--blocks", json.dumps([
        {"kind": "dyadic", "t": 3, "weight": 0}, {"kind": "free", "weight": 1},
        {"kind": "dyadic", "t": 1, "weight": -1}]), "--range", "2:8"], None),
    ("mw-diagonal", ["cohomology", "--blocks", MWDIAG_BLOCKS, "--theory", "mw-diagonal",
                     "--range=-2:3"], None),
    ("classify-hp1", ["classify-hp1", "--rank", "2", "--euler", "0,4"], None),
    ("pbundle-hp1", ["pbundle-hp1", "--euler", "0,8"], None),
    ("blowup", ["blowup", "--in", "-"], BLOWUP),
    ("check-steenrod", ["check", "--suite", "steenrod"], None),
    ("check-leibniz", ["check", "--suite", "leibniz"], None),
    ("check-hp1", ["check", "--suite", "hp1"], None),
    ("check-pbundle", ["check", "--suite", "pbundle"], None),
]
# Known faults, kept so that they show: each fails on every run until fixed.
# The README form of the mw-diagonal range must print what --range= prints;
# a cell without "id" must exit 1 with a message, not a traceback.
FAULT_CLI_OPS = [
    ("mw-diagonal-readme-range", ["cohomology", "--blocks", MWDIAG_BLOCKS, "--theory",
                                  "mw-diagonal", "--range", "-2:3"], None, "mw-diagonal"),
    ("decompose-missing-id", ["decompose", "--in", "-"],
     json.dumps({"cells": [{"weight": 0}]}), None),
]


def cli_round_ops(seed, k):
    """Round k of the cli workload, seeded verbs first (in the order of the
    oracle's answers): ("cli", name, (argv, stdin, (check, reference)))."""
    inp = gen.cli_round(seed, k)
    blocks = lambda b: json.dumps([gen.block_json(x) for x in b])  # noqa: E731
    seeded = [
        ("small", ["decompose", "--in", "-"], json.dumps(gen.complex_json(*inp["small"]))),
        ("big", ["decompose", "--in", "-"], json.dumps(gen.complex_json(*inp["big"][0]))),
        ("tensor", ["tensor", "--blocks", blocks(inp["tensor"][0]),
                    "--blocks", blocks(inp["tensor"][1])], None),
        ("witt", ["cohomology", "--blocks", blocks(inp["witt"]), "--theory", "witt"], None),
        ("chow", ["cohomology", "--blocks", blocks(inp["chow"]), "--theory", "chow"], None),
        ("mod2", ["cohomology", "--blocks", blocks(inp["mod2"]), "--theory", "mod2"], None),
    ]
    return (
        [("cli", name, (argv, stdin, ("oracle", name))) for name, argv, stdin in seeded]
        + [("cli", name, (argv, stdin, ("stored", name))) for name, argv, stdin in FIXED_CLI_OPS]
        + [("cli", name, (argv, stdin, ("fault", ref))) for name, argv, stdin, ref in FAULT_CLI_OPS]
    )


class Spawner:
    """The cli verbs run as children of ``spawner.py``, not of this process
    (see there why); use as a context manager so the helper always ends."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "spawner.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT,
        )
        self.maxrss_kb = 0
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=CHILD_TIMEOUT_S)

    def run(self, argv, stdin, traced=False):
        """Run one verb; returns (seconds, exit code, stdout, stderr, trace)."""
        entry = [str(HERE / "cli_child.py")] if traced else ["-m", "mwtate.cli"]
        req = {"argv": [sys.executable, *entry, *argv], "stdin": stdin,
               "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("spawner.py ended early")
        rep = json.loads(line)
        self.maxrss_kb = max(self.maxrss_kb, rep["children_maxrss_kb"])
        trace, err_lines = None, []
        for err_line in rep["stderr"].splitlines():
            if err_line.startswith(TRACE_PREFIX):
                trace = json.loads(err_line[len(TRACE_PREFIX):])
            else:
                err_lines.append(err_line)
        return rep["seconds"], rep["code"], rep["stdout"], "\n".join(err_lines), trace


def judge_cli(how, code, out, err, stored):
    """("ok" | "failed" | "wrong", parsed output for the oracle or None)."""
    check, ref = how
    if check == "fault" and ref is None:  # bad input: exit 1 with a message
        clean = code == 1 and err.startswith("error:") and "Traceback" not in err
        return ("ok" if clean else "failed"), None
    if code != 0:
        return "failed", None
    if check == "oracle":
        return "ok", json.loads(out)
    return ("ok" if out == stored[ref] else "wrong"), None


class Cli:
    """``python -m mwtate.cli`` verbs, each a fresh process."""

    name = "cli"

    def __init__(self, spawner):
        self.spawner = spawner
        self.stored = json.loads(EXPECTED_CLI.read_text())

    def setup(self, seed):
        """Round 0 and one warm-up process (a ``tensor``)."""
        ops = self.next_round(seed, 0)
        argv, stdin, _ = ops[2][2]
        _, code, _, err, _ = self.spawner.run(argv, stdin)
        if code != 0:
            raise RuntimeError(f"cli warm-up failed: {err}")
        return ops

    def next_round(self, seed, k):
        return cli_round_ops(seed, k)

    def execute(self, op, traced, res):
        _, name, (argv, stdin, how) = op
        dt, code, out, err, trace = self.spawner.run(argv, stdin, traced=traced)
        if trace:
            merge(res["groups"], trace["groups"], res["smith"], trace["smith"])
        status, answer = judge_cli(how, code, out, err, self.stored)
        if status == "failed":
            res["notes"].append(f"{name}: exit {code}: {err.strip()[-200:]}")
        elif status == "wrong":
            res["errors"].append(f"{name}: output differs from {EXPECTED_CLI.name}")
        return dt, status, answer

    def start_trace(self):
        """Traced verbs run through cli_child.py; nothing to set up here."""

    def finish(self, res):
        res["peak_rss_mb"] = self.spawner.maxrss_kb / 1024


# ---------------------------------------------------------------- report


def end_to_end(name, res):
    lat = [dt for _, dt in res["latencies"]]
    p = TAIL_PERCENTILE[name]
    return {
        "ops_per_s": (len(lat) / res["busy"]["plain"], "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "latency_tail_ms": (percentile(lat, p) * 1000, "ms"),
        "setup_s": (statistics.median(res["setup_times"]), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def per_layer(res):
    smith = res["smith"]
    out = {}
    for group, (calls, self_s) in res["groups"].items():
        out[f"{group}.calls"] = (calls, "count")
        out[f"{group}.self_s"] = (self_s, "s")
    out["intmat.smith.max_dim"] = (smith["max_dim"], "count")
    out["intmat.smith.max_bits_in"] = (smith["max_bits_in"], "bits")
    out["intmat.smith.max_bits_out"] = (smith["max_bits_out"], "bits")
    out["cli.import_s"] = (fresh_process_s("import mwtate.cli"), "s")
    out["cli.interpreter_s"] = (fresh_process_s("pass"), "s")
    plain, traced = res["busy"]["plain"], res["busy"]["traced"]
    out["trace.overhead_pct"] = (100 * (traced - plain) / plain, "%")
    return out


def write_spans(path, tracer):
    names = list(GROUPS)
    index = {g: i for i, g in enumerate(names)}
    with open(path, "w") as fh:
        json.dump({"groups": names, "fields": ["group", "op", "start", "end", "parent"],
                   "spans": [[index[g], op, s, e, p] for g, op, s, e, p in tracer.spans]}, fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("decompose", "spectral", "cli"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "mwtate" / "__init__.py").is_file():
        print(f"error: no mwtate sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    trace = bool(args.trace)
    if args.workload == "cli":
        with Spawner() as spawner:
            res = run_workload(Cli(spawner), args.seed, args.seconds, trace)
    else:
        wl = Decompose() if args.workload == "decompose" else Spectral()
        res = run_workload(wl, args.seed, args.seconds, trace)
    metrics = per_layer(res) if trace else end_to_end(args.workload, res)
    result = {
        "correct": not res["errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    by_label: dict = {}
    for label, dt in res["latencies"]:
        by_label.setdefault(label, []).append(dt)
    record = dict(
        result, rounds=res["rounds"], samples=len(res["latencies"]),
        tail_percentile=TAIL_PERCENTILE[args.workload],
        by_label={label: {"n": len(xs), "median_ms": statistics.median(xs) * 1000,
                          "total_s": sum(xs)} for label, xs in by_label.items()},
        errors=res["errors"][:50], failed_ops=res["notes"][:50],
    )
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if res.get("tracer") is not None:
        write_spans(OUT / f"{args.workload}-seed{args.seed}-spans.json", res["tracer"])
    for line in res["errors"][:10]:
        print(f"wrong: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
