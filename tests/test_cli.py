import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import mwtate
from mwtate import serialize
from mwtate.cli import main
from mwtate.motives import DyadicEta, Free, NormalForm, OddTorsion, TateComplex, decompose
from mwtate.wittring import GWElement


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


COMPLEX_JSON = json.dumps(
    {
        "cells": [{"id": "a", "weight": 0}, {"id": "b", "weight": 1}],
        "attach": [{"from": "b", "to": "a", "coeff": 6}],
    }
)

# malformed input that every verb reading it must refuse with exit 1
MALFORMED_COMPLEXES = [
    "{not json",
    json.dumps({"cells": [{"weight": 0}]}),
    json.dumps({"cells": 5}),
    json.dumps({"cells": [{"id": "a", "weight": 0.5}]}),
    json.dumps({"cells": [{"id": "a", "weight": True}]}),
    json.dumps({"cells": [{"id": "a", "weight": 0}], "attach": [5]}),
    json.dumps(
        {
            "cells": [{"id": "a", "weight": 0}, {"id": "b", "weight": 1}],
            "attach": [{"from": "b", "to": "a", "coeff": 2.0}],
        }
    ),
    # unknown keys: a misspelled "attach" must not read as no attachments
    json.dumps(
        {
            "cells": [{"id": "a", "weight": 0}, {"id": "b", "weight": 1}],
            "attachments": [{"from": "b", "to": "a", "coeff": 6}],
        }
    ),
    json.dumps({"cells": [{"id": "a", "weight": 0, "wieght": 1}]}),
    json.dumps(
        {
            "cells": [{"id": "a", "weight": 0}, {"id": "b", "weight": 1}],
            "attach": [{"from": "b", "to": "a", "coeff": 6, "scale": 2}],
        }
    ),
    # a repeated (from, to) pair is refused, not last-wins
    json.dumps(
        {
            "cells": [{"id": "a", "weight": 0}, {"id": "b", "weight": 1}],
            "attach": [
                {"from": "b", "to": "a", "coeff": 6},
                {"from": "b", "to": "a", "coeff": 1},
            ],
        }
    ),
]
MALFORMED_BLOCKS = (
    "[5]",
    '{"kind": "free", "weight": 0}',
    '[{"kind": "free", "weight": 0.5}]',
    '[{"kind": "free", "weight": true}]',
    '[{"kind": "dyadic", "t": 1}]',
    '[{"kind": "odd", "p": 9, "r": 1, "shift": 0}]',
    '[{"kind": "free", "weight": 0, "t": 1}]',
    '[{"kind": "dyadic", "t": 1, "weight": 0, "shift": 0}]',
)
MALFORMED_BLOWUPS = (
    [],
    {"ambient": {"cells": []}, "thom": {"cells": []}, "codim": 2.0},
    {"ambient": {"cells": []}, "thom": {"cells": []}, "codim": 2, "gysin": [3]},
    {"thom": {"cells": []}, "codim": 2},
    {"ambient": {"cells": []}, "thom": {"cells": []}, "codim": 2, "center": []},
    {"ambient": {"cells": [], "extra": 1}, "thom": {"cells": []}, "codim": 2},
    {
        "ambient": {"cells": [{"id": "x", "weight": 1}]},
        "thom": {"cells": [{"id": "t", "weight": 0}]},
        "codim": 2,
        "gysin": [
            {"from": "x", "to": "t", "coeff": 2},
            {"from": "x", "to": "t", "coeff": 2},
        ],
    },
)


def _complex(cells, attach=()):
    return {"cells": [{"id": c, "weight": w} for c, w in cells],
            "attach": [{"from": f, "to": t, "coeff": n} for f, t, n in attach]}


# complexes that parse but are not valid Tate complexes (exit 2)
INVALID_COMPLEXES = (
    _complex([("a", 0), ("b", 2)], [("b", "a", 1)]),  # non-adjacent weights
    _complex([("a", 0), ("b", 1), ("c", 2)], [("b", "a", 1), ("c", "b", 1)]),  # d o d != 0
    _complex([("a", 0), ("b", 1)], [("a", "b", 3)]),  # attached upwards
    _complex([("a", 0), ("a", 1)]),  # repeated cell id
    _complex([("a", 0)], [("b", "a", 1)]),  # unknown cell
)
POINT_BLOWUP = {
    "ambient": _complex([("x0", 0), ("x1", 1), ("x2", 2)]),
    "thom": _complex([("t", 1)]),
    "centre": [{"kind": "free", "weight": 0}],
    "codim": 2,
    "gysin": [{"from": "x2", "to": "t", "coeff": 1}],
}
BLOCKS = '[{"kind":"dyadic","t":2,"weight":0}]'


def _error_corpus():
    """(argv, stdin) of every refused input whose exit code, stdout and
    stderr tests/golden/cli-errors.json pins."""
    cases = [(["decompose", "--in", "-"], text) for text in MALFORMED_COMPLEXES]
    cases.append((["decompose", "--in", "no-such-file.json"], None))
    for blocks in MALFORMED_BLOCKS:
        cases += [(["cohomology", "--blocks", blocks], None),
                  (["tensor", "--blocks", blocks, "--blocks", "[]"], None),
                  (["pages", "--blocks", blocks], None)]
    cases += [(["blowup", "--in", "-"], json.dumps(p)) for p in MALFORMED_BLOWUPS]
    for cx in INVALID_COMPLEXES:
        for fmt in ([], ["--format", "table"]):
            cases.append((["decompose", "--in", "-", *fmt], json.dumps(cx)))
    bad_ambient = dict(POINT_BLOWUP, ambient=INVALID_COMPLEXES[0])
    bad_thom = dict(POINT_BLOWUP, thom=_complex([("t", 1), ("u", 3)], [("u", "t", 2)]))
    for payload in (bad_ambient, bad_thom, dict(POINT_BLOWUP, codim=3),
                    dict(POINT_BLOWUP, gysin=[{"from": "x0", "to": "t", "coeff": 1}])):
        for fmt in ([], ["--format", "table"]):
            cases.append((["blowup", "--in", "-", *fmt], json.dumps(payload)))
    for modulus in ("3", "6", "-4", "-1"):
        cases.append((["cohomology", "--blocks", BLOCKS, "--modulus", modulus], None))
    for euler in ("1,2", "0,4,1", "a,b", "4", ""):
        cases += [(["classify-hp1", "--rank", "2", "--euler", euler], None),
                  (["pbundle-hp1", "--euler", euler], None)]
    cases += [(["classify-hp1", "--rank", "2"], None),
              (["classify-hp1", "--rank", "3"], None),
              (["classify-hp1", "--rank", "1", "--c2", "3"], None),
              (["classify-hp1", "--rank", "-1", "--c2", "0"], None)]
    for bad in ("3:2", "0:65", "a:b", "1", "1:2:3"):
        cases += [(["cohomology", "--blocks", BLOCKS, "--theory", "mw-diagonal",
                    f"--range={bad}"], None),
                  (["pages", "--blocks", BLOCKS, f"--range={bad}"], None)]
    cases += [(["cohomology", "--blocks", BLOCKS, "--theory", "mw-diagonal"], None),
              (["pages", "--blocks", BLOCKS, "--range=1:3"], None),
              (["pages", "--blocks", BLOCKS, "--range=-2:3"], None)]
    for page in ("1", "0", "-3"):
        cases.append((["pages", "--blocks", BLOCKS, f"--page={page}"], None))
    cases += [(["pages"], None),
              (["pages", "--blocks", BLOCKS, "--blocks", BLOCKS], None),
              (["cohomology"], None),
              (["tensor", "--blocks", BLOCKS], None),
              (["tensor", "--blocks", BLOCKS, "--blocks", BLOCKS, "--blocks", BLOCKS], None),
              (["check", "--suite", "nope"], None)]
    return cases


def run_corpus_case(argv, stdin) -> dict:
    """Exit code, stdout and stderr of ``main(argv)`` reading ``stdin``,
    with MWTATE_LOG unset."""
    out, err = io.StringIO(), io.StringIO()
    env = {k: v for k, v in os.environ.items() if k != "MWTATE_LOG"}
    with mock.patch.dict(os.environ, env, clear=True), \
            mock.patch.object(sys, "stdin", io.StringIO(stdin or "")), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "stdin": stdin, "code": code, "out": out.getvalue(),
            "err": err.getvalue()}


class TestSerialization:
    def test_complex_round_trip(self):
        c = TateComplex([("a", 0), ("b", 1)], {("b", "a"): 6})
        again = serialize.complex_from_json(serialize.complex_to_json(c))
        assert again == c

    def test_normal_form_round_trip(self):
        a = NormalForm([Free(0), DyadicEta(2, 1), OddTorsion(3, 1, -1)])
        again = serialize.normal_form_from_json(serialize.normal_form_to_json(a))
        assert again == a

    def test_gw_round_trip(self):
        e = GWElement(2, -4)
        assert serialize.gw_from_json(serialize.gw_to_json(e)) == e

    def test_page_json_shape(self):
        from mwtate.bockstein import pages

        pg = pages(NormalForm([DyadicEta(2, 0)]), 3)
        data = serialize.page_to_json(pg)
        assert data["page"] == 3
        assert data["differential"][0]["rho_power"] == 2
        heights = {t["height"] for t in data["towers"]}
        assert heights == {"inf"}


class TestCLI:
    def test_decompose_file(self, tmp_path, capsys):
        path = tmp_path / "cx.json"
        path.write_text(COMPLEX_JSON)
        code, out, _ = run(capsys, "decompose", "--in", str(path))
        assert code == 0
        assert json.loads(out) == [
            {"kind": "dyadic", "t": 1, "weight": 0},
            {"kind": "odd", "p": 3, "r": 1, "shift": 0},
        ]

    def test_pages_table(self, capsys):
        code, out, _ = run(
            capsys,
            "pages",
            "--blocks",
            '[{"kind":"dyadic","t":2,"weight":0}]',
            "--page",
            "4",
            "--format",
            "table",
        )
        assert code == 0
        assert "height: 2" in out and "label: v" in out

    def test_classify(self, capsys):
        code, out, _ = run(capsys, "classify-hp1", "--rank", "2", "--euler", "0,4")
        assert code == 0
        data = json.loads(out)
        assert data["is_free"] is False
        assert data["stably_free_nontrivial"] is True

    def test_check_suite(self, capsys):
        code, out, _ = run(capsys, "check", "--suite", "hp1", "--seed", "7")
        assert code == 0
        assert out.startswith("pass")

    def test_validation_failure_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "cells": [{"id": "a", "weight": 0}, {"id": "b", "weight": 2}],
                    "attach": [{"from": "b", "to": "a", "coeff": 1}],
                }
            )
        )
        code, out, _ = run(capsys, "decompose", "--in", str(path))
        assert code == 2
        assert "NonAdjacent" in out

    def test_malformed_input_exit_one(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        for text in MALFORMED_COMPLEXES:
            path.write_text(text)
            code, out, err = run(capsys, "decompose", "--in", str(path))
            assert code == 1, text
            assert out == "" and err.startswith("error: "), text
        for blocks in MALFORMED_BLOCKS:
            code, out, err = run(capsys, "cohomology", "--blocks", blocks)
            assert code == 1, blocks
            assert out == "" and err.startswith("error: "), blocks
        for payload in MALFORMED_BLOWUPS:
            path.write_text(json.dumps(payload))
            code, out, err = run(capsys, "blowup", "--in", str(path))
            assert code == 1, payload
            assert out == "" and err.startswith("error: "), payload

    @pytest.mark.parametrize(
        "verb, code",
        [
            (["pages", "--blocks", '[{"kind":"dyadic","t":2,"weight":0}]'], 1),
            (["cohomology", "--blocks", '[{"kind":"free","weight":0}]', "--theory",
              "mw-diagonal"], 0),
        ],
    )
    def test_negative_range_forms_agree(self, capsys, verb, code):
        # pages start at 2, so there the negative range is refused cleanly
        spaced = run(capsys, *verb, "--range", "-2:3")
        assert spaced[0] == code
        assert spaced == run(capsys, *verb, "--range=-2:3")

    @pytest.mark.parametrize("bad", ["3:2", "0:65", "a:b", "1"])
    def test_bad_range_exit_one(self, capsys, bad):
        blocks = '[{"kind":"free","weight":0}]'
        code, _, err = run(capsys, "cohomology", "--blocks", blocks,
                           "--theory", "mw-diagonal", f"--range={bad}")
        assert code == 1 and err.startswith("error: ")

    def test_unknown_suite_exit_one(self, capsys):
        code, out, err = run(capsys, "check", "--suite", "nope")
        assert code == 1 and out == ""
        assert err.startswith("error: unknown suite 'nope'; choose from [")
        assert "'couple'" in err

    def test_usage_error_exit_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pages", "--bogus"])
        assert exc.value.code == 64
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["decompose", "--in", "-", "--seed", "1"],
        ["cohomology", "--blocks", '[{"kind":"free","weight":0}]', "--page", "3"],
    ])
    def test_flags_nothing_reads_exit_64(self, capsys, argv):
        # only check draws random input, and cohomology has no pages
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64
        capsys.readouterr()

    @staticmethod
    def refused(capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 64 and out == ""
        return err

    FREE = '[{"kind":"free","weight":0}]'

    @pytest.mark.parametrize("theory", [["chow"], ["chow2"], ["mod2"],
                                        ["mw-diagonal", "--range", "0:1"]])
    def test_modulus_outside_witt_exit_64(self, capsys, theory):
        err = self.refused(capsys, ["cohomology", "--blocks", self.FREE, "--theory", *theory,
                                    "--modulus", "4"])
        assert err.endswith("error: --modulus is read only by --theory witt\n")

    @pytest.mark.parametrize("theory", ["chow", "chow2", "witt", "mod2"])
    def test_range_outside_mw_diagonal_exit_64(self, capsys, theory):
        err = self.refused(capsys, ["cohomology", "--blocks", self.FREE, "--theory", theory,
                                    "--range", "0:1"])
        assert err.endswith("error: --range is read only by --theory mw-diagonal\n")

    def test_page_with_range_exit_64(self, capsys):
        err = self.refused(capsys, ["pages", "--blocks", self.FREE, "--page", "3",
                                    "--range", "2:3"])
        assert err.endswith("error: argument --range: not allowed with argument --page\n")

    @pytest.mark.parametrize("argv, message", [
        (["--rank", "2", "--euler", "0,4", "--c2", "7"], "--c2 is read only by --rank >= 3"),
        (["--rank", "3", "--c2", "1", "--euler", "0,4"], "--euler is read only by --rank 2"),
        (["--rank", "5", "--euler", "0,4"], "--euler is read only by --rank 2"),
    ])
    def test_classify_flag_of_the_other_rank_exit_64(self, capsys, argv, message):
        err = self.refused(capsys, ["classify-hp1", *argv])
        assert err.endswith(f"error: {message}\n")

    def test_check_has_no_format(self, capsys):
        err = self.refused(capsys, ["check", "--suite", "hp1", "--format", "json"])
        assert err.endswith("error: unrecognized arguments: --format json\n")

    def test_the_read_flags_still_run(self, capsys):
        assert run(capsys, "cohomology", "--blocks", self.FREE, "--theory", "witt",
                   "--modulus", "4")[0] == 0
        assert run(capsys, "pages", "--blocks", self.FREE, "--page", "3")[0] == 0
        assert run(capsys, "classify-hp1", "--rank", "2", "--euler", "0,4")[0] == 0
        assert run(capsys, "classify-hp1", "--rank", "3", "--c2", "1")[0] == 0
        code, out, _ = run(capsys, "classify-hp1", "--rank", "2", "--euler", "0,4",
                           "--format", "table")
        assert code == 0 and "stably_free_nontrivial: True" in out
        code, out, _ = run(capsys, "check", "--suite", "hp1", "--model", "minimal-euclidean")
        assert code == 0 and out.startswith("pass")

    def test_unknown_model_exit_64(self, capsys):
        code, out, err = run(capsys, "tensor", "--model", "other", "--blocks", "[]",
                             "--blocks", "[]")
        assert code == 64 and out == ""
        assert err == "error: unsupported model 'other'\n"

    def test_tensor_round_trip_determinism(self, capsys):
        args = (
            "tensor",
            "--blocks",
            '[{"kind":"dyadic","t":1,"weight":0}]',
            "--blocks",
            '[{"kind":"dyadic","t":2,"weight":0}]',
        )
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_decompose_realize_round_trip_via_codec(self, tmp_path, capsys):
        from mwtate.motives import realize

        a = NormalForm([Free(0), DyadicEta(3, 2)])
        path = tmp_path / "cx.json"
        path.write_text(json.dumps(serialize.complex_to_json(realize(a))))
        code, out, _ = run(capsys, "decompose", "--in", str(path))
        assert code == 0
        assert serialize.normal_form_from_json(json.loads(out)) == a

    def test_blowup(self, tmp_path, capsys):
        payload = {
            "ambient": {
                "cells": [
                    {"id": "x0", "weight": 0},
                    {"id": "x1", "weight": 1},
                    {"id": "x2", "weight": 2},
                ],
                "attach": [],
            },
            "thom": {"cells": [{"id": "t", "weight": 1}], "attach": []},
            "centre": [{"kind": "free", "weight": 0}],
            "codim": 2,
            "gysin": [{"from": "x2", "to": "t", "coeff": 1}],
        }
        path = tmp_path / "blowup.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "blowup", "--in", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["eta_check"] is True
        assert {"kind": "dyadic", "t": 0, "weight": 1} in data["blocks"]

    def test_cohomology_model_tag(self, capsys):
        code, out, _ = run(
            capsys,
            "cohomology",
            "--blocks",
            '[{"kind":"free","weight":0}]',
            "--theory",
            "witt",
        )
        assert code == 0
        assert json.loads(out)["model"] == "minimal-euclidean"


class TestErrorCorpus:
    """Every refused input of ``_error_corpus`` keeps its exit code,
    stdout and stderr byte for byte.  Rewrite the pins, for an intended
    change of message only, with ``PYTHONPATH=src python -m tests.test_cli --write``."""

    PINS = Path(__file__).parent / "golden" / "cli-errors.json"

    def test_same_exit_code_and_output(self):
        got = [run_corpus_case(argv, stdin) for argv, stdin in _error_corpus()]
        want = json.loads(self.PINS.read_text())
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g == w

    def test_every_exit_is_one_or_two(self):
        for case in json.loads(self.PINS.read_text()):
            assert case["code"] in (1, 2), case
            assert "Traceback" not in case["err"], case
            if case["code"] == 1:
                assert case["out"] == "" and case["err"].startswith("error: "), case


# (argv, stdin) that hands a JSON text to each verb that decodes JSON input
JSON_VERBS = {
    "decompose": lambda text: (["decompose", "--in", "-"], text),
    "blowup": lambda text: (["blowup", "--in", "-"], text),
    "tensor": lambda text: (["tensor", "--blocks", text, "--blocks", "[]"], None),
}
FIELDS = ("cells", "attach", "id", "weight", "from", "to", "coeff", "kind", "t", "p",
          "r", "shift", "ambient", "thom", "centre", "codim", "gysin")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2**200), 2**200)
    | st.floats() | st.text(max_size=8) | st.sampled_from(["free", "dyadic", "odd"]),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=4), kids, max_size=5),
    max_leaves=24,
)


def nested(depth, kind="list"):
    if kind == "list":
        return "[" * depth + "]" * depth
    return '{"cells":' * depth + "0" + "}" * depth


def assert_clean(case, codes=(0, 1, 2)):
    assert case["code"] in codes, case["argv"][:3]
    assert "Traceback" not in case["err"]
    if case["code"] == 1:
        assert case["out"] == "" and case["err"].startswith("error: ")


class TestJSONInputRobustness:
    @pytest.mark.parametrize("verb", sorted(JSON_VERBS))
    @pytest.mark.parametrize("depth", [1_100, 100_000])
    @pytest.mark.parametrize("kind", ["list", "object"])
    def test_deep_nesting_exit_one(self, verb, depth, kind):
        assert_clean(run_corpus_case(*JSON_VERBS[verb](nested(depth, kind))), codes=(1,))

    @pytest.mark.parametrize("verb", sorted(JSON_VERBS))
    def test_no_traceback_at_any_depth_near_the_limit(self, verb):
        # near the recursion limit the decoder may succeed and a later
        # reader of the nested value hit the limit instead
        limit = sys.getrecursionlimit()
        for depth in range(max(2, limit - 400), limit + 20):
            assert_clean(run_corpus_case(*JSON_VERBS[verb](nested(depth))), codes=(1,))

    @pytest.mark.parametrize("verb", sorted(JSON_VERBS))
    def test_error_line_does_not_grow_with_the_input(self, verb):
        # a block, a cell or an attachment that is a list of 100,000 ints
        value = list(range(100_000))
        text = {"tensor": [value], "decompose": {"cells": [value]},
                "blowup": {"ambient": {"cells": [], "attach": [value]}}}[verb]
        case = run_corpus_case(*JSON_VERBS[verb](json.dumps(text)))
        assert_clean(case, codes=(1,))
        assert case["err"].count("\n") == 1 and len(case["err"].encode()) < 300

    @pytest.mark.parametrize("verb", sorted(JSON_VERBS))
    @given(text=JSON_VALUES.map(json.dumps))
    @example(text=nested(1_100))
    @example(text=nested(100_000))
    @example(text=nested(1_100, "object"))
    def test_any_json_ends_in_zero_one_or_two(self, verb, text):
        assert_clean(run_corpus_case(*JSON_VERBS[verb](text)))


GOLDEN = Path(__file__).parent / "golden"
SRC = str(Path(mwtate.__file__).resolve().parents[1])

# runs main(argv) in a fresh interpreter; the last stderr line lists
# which of the modules named in PROBE_MODULES the verb loaded
PROBE = """
import json, os, sys
from mwtate.cli import main
if os.environ.get("PROBE_CASES"):  # run only the first cases of each suite
    import itertools
    from mwtate import checks
    cut = int(os.environ["PROBE_CASES"])
    checks.SUITES = {name: lambda seed, suite=suite: itertools.islice(suite(seed), cut)
                     for name, suite in checks.SUITES.items()}
code = main(sys.argv[1:])
names = os.environ["PROBE_MODULES"].split(",")
print(json.dumps([n for n in names if n in sys.modules]), file=sys.stderr)
sys.exit(code)
"""


def _fresh_env(probe=(), **env):
    full = {k: v for k, v in os.environ.items() if k != "MWTATE_LOG"}
    full.update(env, PROBE_MODULES=",".join(probe))
    full["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, full.get("PYTHONPATH")]))
    return full


def run_fresh(argv, probe=(), **env):
    """(exit code, stdout, stderr) of ``main(argv)`` in a new process."""
    res = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True,
                         text=True, env=_fresh_env(probe, **env), timeout=60)
    return res.returncode, res.stdout, res.stderr


BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_run():
    """bench/run.py as a module; it puts bench/ on sys.path for its helpers."""
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestVerbImports:
    # a verb imports only the layers it runs: these are the cheap verbs
    LAYERS = ("mwtate.checks", "mwtate.bockstein", "mwtate.geometry",
              "mwtate.cohomology", "logging")

    def test_decompose_loads_no_other_layer(self):
        code, out, err = run_fresh(
            ["decompose", "--in", str(GOLDEN / "decompose_small.json")], self.LAYERS
        )
        assert code == 0
        assert out == (GOLDEN / "decompose-small.out").read_text()
        assert json.loads(err.splitlines()[-1]) == []

    def test_tensor_loads_no_bockstein_or_checks(self):
        from tests.test_golden import CASES

        code, out, err = run_fresh(CASES["tensor"], self.LAYERS)
        assert code == 0
        assert out == (GOLDEN / "tensor.out").read_text()
        assert not {"mwtate.bockstein", "mwtate.checks"} & set(json.loads(err.splitlines()[-1]))

    # what a verb may load past the block calculus, and the interpreter's
    # own dataclasses, which a verb must not add
    PROBED = ("dataclasses", "mwtate.checks", "mwtate.cohomology", "mwtate.geometry",
              "mwtate.bockstein", "mwtate.bockstein.pages", "mwtate.bockstein.analysis",
              "mwtate.bockstein.fibers", "mwtate.bockstein.couple",
              "mwtate.bockstein.steenrod", "mwtate.exactalg.intmat",
              "mwtate.exactalg.complexes", "mwtate.exactalg.presented", "mwtate.exactalg.f2")
    # suite: the layers it runs, with the layers those import
    SUITE_LAYERS = {
        "block-pages": {"mwtate.bockstein.pages"},
        "bounded": {"mwtate.bockstein.pages", "mwtate.cohomology", "mwtate.exactalg.complexes"},
        "couple": {"mwtate.bockstein.couple", "mwtate.exactalg.complexes",
                   "mwtate.exactalg.intmat", "mwtate.exactalg.presented", "mwtate.exactalg.f2"},
        "decompose": {"mwtate.cohomology", "mwtate.exactalg.complexes", "mwtate.exactalg.intmat"},
        "degeneracy": {"mwtate.bockstein.pages"},
        "hom-cone": {"mwtate.cohomology"},
        "hp1": {"mwtate.geometry", "mwtate.cohomology"},
        "kunneth": {"mwtate.bockstein.analysis", "mwtate.bockstein.fibers",
                    "mwtate.bockstein.pages", "mwtate.exactalg.f2"},
        "leibniz": {"mwtate.bockstein.analysis", "mwtate.bockstein.fibers",
                    "mwtate.bockstein.pages", "mwtate.exactalg.f2"},
        "pbundle": {"mwtate.bockstein.pages", "mwtate.cohomology", "mwtate.geometry",
                    "mwtate.exactalg.complexes", "mwtate.exactalg.intmat"},
        "steenrod": {"mwtate.bockstein.steenrod"},
        "tensor-witt": {"mwtate.cohomology", "mwtate.exactalg.complexes"},
        "torsion-profile": {"mwtate.bockstein.pages", "mwtate.cohomology",
                            "mwtate.exactalg.complexes"},
        "truncated": {"mwtate.bockstein.analysis", "mwtate.bockstein.fibers",
                      "mwtate.bockstein.pages", "mwtate.exactalg.f2"},
    }

    @pytest.fixture(scope="class")
    def bare_dataclasses(self):
        """Whether a bare interpreter, with the same environment, already
        loads dataclasses (a site hook may)."""
        probe = "import sys; print('dataclasses' in sys.modules)"
        res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             timeout=60, check=True)
        return res.stdout.strip() == "True"

    @pytest.fixture(scope="class")
    def workload(self):
        """name: (argv, benchmark verdict, modules loaded) for every verb of
        the benchmark's cli workload, each run in a new process: the seeded
        verbs of round 0, the fixed verbs and the former fault cases."""
        run = _bench_run()
        stored = json.loads((BENCH / "expected_cli.json").read_text())
        out = {}
        for _, name, (argv, stdin, how) in run.cli_round_ops(1, 0):
            res = subprocess.run(
                [sys.executable, "-c", PROBE, *argv], input=stdin, capture_output=True,
                text=True, timeout=60, env=_fresh_env(self.PROBED),
            )
            *err, probe = res.stderr.splitlines()
            verdict, _ = run.judge_cli(how, res.returncode, res.stdout, "\n".join(err), stored)
            out[name] = (argv, verdict, set(json.loads(probe)))
        return out

    def test_workload_verbs_answer(self, workload):
        assert len(workload) == 17
        assert {name: verdict for name, (_, verdict, _) in workload.items()} == dict.fromkeys(
            workload, "ok"
        )

    def test_no_workload_verb_loads_dataclasses(self, workload, bare_dataclasses):
        loading = [name for name, (_, _, loaded) in workload.items() if "dataclasses" in loaded]
        assert bare_dataclasses or loading == []

    def test_page_verbs_load_only_the_page_tables(self, workload):
        page_verbs = {name: loaded for name, (argv, _, loaded) in workload.items()
                      if argv[0] in ("pages", "pbundle-hp1")}
        assert sorted(page_verbs) == ["pages", "pbundle-hp1"]
        for loaded in page_verbs.values():
            assert {n for n in loaded if n.startswith("mwtate.bockstein")} == {
                "mwtate.bockstein", "mwtate.bockstein.pages"
            }

    def test_other_workload_verbs_load_no_bockstein(self, workload):
        for name, (argv, _, loaded) in workload.items():
            if argv[0] not in ("pages", "pbundle-hp1", "check"):
                assert not {n for n in loaded if n.startswith(("mwtate.bockstein",
                                                               "mwtate.checks"))}, name

    def test_only_the_verbs_that_decompose_load_the_matrix_layer(self, workload):
        # the two valid complexes, the P(E) complex, the blow-up and the
        # pbundle suite; a verb that fails validation builds no matrix
        loading = {name for name, (_, _, loaded) in workload.items()
                   if "mwtate.exactalg.intmat" in loaded}
        assert loading == {"small", "big", "pbundle-hp1", "blowup", "check-pbundle"}
        assert not [name for name, (_, _, loaded) in workload.items()
                    if "mwtate.exactalg.presented" in loaded]

    def test_workload_checks_load_only_their_suites_layers(self, workload):
        checks = {name: (argv, loaded) for name, (argv, _, loaded) in workload.items()
                  if argv[0] == "check"}
        assert len(checks) == 4
        for name, (argv, loaded) in checks.items():
            suite = argv[argv.index("--suite") + 1]
            layers = loaded - {"dataclasses", "mwtate.checks", "mwtate.bockstein"}
            assert layers == self.SUITE_LAYERS[suite], name

    @pytest.mark.parametrize("suite", sorted(SUITE_LAYERS))
    def test_check_loads_only_the_layers_of_its_suite(self, suite, bare_dataclasses):
        # the suite is cut to its first three cases: it imports its layers
        # before the first one, and the decompose suite takes 20 s in full
        code, out, err = run_fresh(["check", "--suite", suite], self.PROBED, PROBE_CASES="3")
        assert code == 0 and out == f"pass  {suite}: 3 cases\n"
        loaded = set(json.loads(err.splitlines()[-1]))
        assert loaded - {"dataclasses", "mwtate.checks", "mwtate.bockstein"} == (
            self.SUITE_LAYERS[suite]
        )
        assert bare_dataclasses or "dataclasses" not in loaded

    def test_every_suite_has_its_layers_listed(self):
        from mwtate import checks

        assert sorted(self.SUITE_LAYERS) == sorted(checks.SUITES)


class TestLogLevel:
    def test_bad_level_exit_64(self):
        code, out, err = run_fresh(["classify-hp1", "--rank", "2", "--euler", "0,4"],
                                   MWTATE_LOG="foo")
        assert code == 64 and out == ""
        assert err.startswith("error: MWTATE_LOG") and "Traceback" not in err

    def test_debug_prints_input_error_traceback(self):
        code, _, err = run_fresh(["classify-hp1", "--rank", "2"], MWTATE_LOG="DEBUG")
        assert code == 1  # rank 2 without --euler
        assert "DEBUG:mwtate:input error" in err and "Traceback" in err
        assert "error: rank 2 needs --euler rank,signature" in err

    def test_debug_traceback_covers_every_exit_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"cells": 5}')
        for argv in (
            ["decompose", "--in", str(bad)],  # a decoder's ValueError
            ["cohomology", "--blocks", '[{"kind":"free","weight":0}]', "--modulus", "3"],
            ["classify-hp1", "--rank", "1", "--c2", "0"],  # raised in geometry
        ):
            code, out, err = run_fresh(argv, MWTATE_LOG="DEBUG")
            assert code == 1 and out == "", argv
            assert "DEBUG:mwtate:input error" in err and "Traceback" in err, argv
            assert err.splitlines()[-2].startswith("error: "), argv  # last: PROBE

if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    pins = [run_corpus_case(argv, stdin) for argv, stdin in _error_corpus()]
    TestErrorCorpus.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
