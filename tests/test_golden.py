"""Golden CLI outputs: each case runs one verb and compares stdout bytes.

The stored outputs (``tests/golden/<case>.out``) were written from a
known-good build.  A change to any layer under the CLI must reproduce them
byte for byte; only an intended change of output may rewrite them, with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from mwtate.cli import main

GOLDEN = Path(__file__).parent / "golden"

MIXED = (
    '[{"kind":"free","weight":0},{"kind":"dyadic","t":3,"weight":1},'
    '{"kind":"dyadic","t":0,"weight":-1},{"kind":"odd","p":3,"r":2,"shift":0}]'
)
PAGES = (
    '[{"kind":"dyadic","t":3,"weight":0},{"kind":"free","weight":1},'
    '{"kind":"dyadic","t":1,"weight":-1}]'
)
# a plain eta cone and an odd block, both invisible mod 2, beside a cone
PAGES_INVISIBLE = (
    '[{"kind":"dyadic","t":0,"weight":1},{"kind":"odd","p":3,"r":1,"shift":0},'
    '{"kind":"dyadic","t":2,"weight":0},{"kind":"free","weight":-1}]'
)

# case name: argv, with "@name" standing for the input file tests/golden/name
CASES = {
    "decompose-small": ["decompose", "--in", "@decompose_small.json"],
    "decompose-twisted": ["decompose", "--in", "@decompose_twisted.json"],
    "tensor": ["tensor", "--blocks", MIXED, "--blocks", PAGES],
    "pages-range": ["pages", "--blocks", PAGES, "--range", "2:8"],
    "cohomology-witt": ["cohomology", "--blocks", MIXED, "--theory", "witt"],
    "cohomology-chow": ["cohomology", "--blocks", MIXED, "--theory", "chow"],
    "cohomology-chow2": ["cohomology", "--blocks", MIXED, "--theory", "chow2"],
    "cohomology-mod2": ["cohomology", "--blocks", MIXED, "--theory", "mod2"],
    "cohomology-mw-diagonal": [
        "cohomology", "--blocks", MIXED, "--theory", "mw-diagonal", "--range=-2:3",
    ],
    "blowup": ["blowup", "--in", "@blowup.json"],
    "pages-invisible": ["pages", "--blocks", PAGES_INVISIBLE, "--range", "2:8"],
}
# every check suite but decompose, whose 51,000 cases take seconds; its
# count is pinned in tests/test_acceptance.py
CASES.update(
    (f"check-{s}", ["check", "--suite", s, "--seed", "0"])
    for s in (
        "block-pages", "bounded", "couple", "degeneracy", "hom-cone", "hp1", "kunneth",
        "leibniz", "pbundle", "steenrod", "tensor-witt", "torsion-profile", "truncated",
    )
)


def run_case(name) -> tuple[int, bytes]:
    argv = [str(GOLDEN / a[1:]) if a.startswith("@") else a for a in CASES[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name):
    code, out = run_case(name)
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    for case in sorted(CASES):
        status, data = run_case(case)
        if status != 0:
            raise SystemExit(f"{case}: exit {status}")
        (GOLDEN / f"{case}.out").write_bytes(data)
