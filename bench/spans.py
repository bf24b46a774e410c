"""Spans around calls into mwtate's layers, recorded from outside.

``Tracer.install`` replaces each public function named in GROUPS by a
wrapper in every loaded ``mwtate`` module that holds it, so a call is seen
however its caller looks it up (``mwtate.motives.decompose_free_complex``
as well as ``mwtate.exactalg.complexes.decompose_free_complex``).  A span is
(group, operation, start, end, parent) and stays in memory; a group's self
time is the length of its spans minus the part their child spans cover.

The Smith-form wrapper also records the largest dimension and the largest
entry bit length of its input and of the returned transforms.  That
bookkeeping runs on a paused clock, so no span is charged for it; it shows
only in the tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

_INTMAT = "mwtate.exactalg.intmat"
_COMPLEXES = "mwtate.exactalg.complexes"
_ANALYSIS = "mwtate.bockstein.analysis"
_COUPLE = "mwtate.bockstein.couple"
_PAGES = "mwtate.bockstein.pages"
_SERIALIZE = "mwtate.serialize"

GROUPS = {  # group: (module, functions), "Class.method" for a method
    "intmat.smith": (_INTMAT, ("smith_normal_form", "smith_with_inverses")),
    "intmat.kernel": (_INTMAT, ("kernel_basis", "kernel_mod_lattice")),
    "intmat.solve": (_INTMAT, ("solve_columns", "solve", "lattice_contains")),
    "intmat.column_reduce": (_INTMAT, ("column_reduce",)),
    "intmat.matmul": (_INTMAT, ("matmul",)),
    "complexes.decompose": (_COMPLEXES, ("decompose_free_complex",)),
    "complexes.cohomology": (_COMPLEXES, ("integer_cohomology", "cohomology_of_summands")),
    "presented.invariants": ("mwtate.exactalg.presented", ("PresentedGroup.invariants",)),
    "groups.factor": ("mwtate.exactalg.groups", ("factor_prime_powers",)),
    "motives.validate": ("mwtate.motives", ("validate_complex",)),
    "motives.decompose": ("mwtate.motives", ("decompose",)),
    "motives.blocks": ("mwtate.motives", ("blocks_of_summands",)),
    "cohomology.witt": ("mwtate.cohomology", ("witt_cohomology",)),
    "pages.pages": (_PAGES, ("pages", "pages_from_witt")),
    "analysis.kunneth": (_ANALYSIS, ("kunneth_e2",)),
    "analysis.truncated": (_ANALYSIS, ("truncated_check",)),
    "analysis.leibniz": (_ANALYSIS, ("leibniz_check",)),
    "analysis.v_group": (_ANALYSIS, ("v_group",)),
    "couple.build": (_COUPLE, ("bockstein_couple",)),
    "couple.analyze": (_COUPLE, ("couple_analyze",)),
    "couple.derive": (_COUPLE, ("couple_derive",)),
    "serialize.decode": (
        _SERIALIZE, ("complex_from_json", "normal_form_from_json", "gw_from_json"),
    ),
    "serialize.encode": (_SERIALIZE, (
        "complex_to_json", "normal_form_to_json", "formal_group_to_json",
        "graded_group_to_json", "gw_to_json", "page_to_json",
    )),
    "cli.main": ("mwtate.cli", ("main",)),
}
SMITH_STATS = ("max_dim", "max_bits_in", "max_bits_out")
TRACE_PREFIX = "MWBENCH-TRACE "  # marks the summary line a traced cli child prints


def _max_bits(m) -> int:
    return max((abs(x).bit_length() for row in m for x in row), default=0)


class Tracer:
    def __init__(self):
        self.spans = []  # (group, op, start, end, parent index or -1)
        self.smith = dict.fromkeys(SMITH_STATS, 0)
        self.active = False  # spans are recorded only while an op runs
        self.op = -1
        self._stack = []
        self._paused = 0.0
        self._patches = []

    def _clock(self):
        return perf_counter() - self._paused

    def _wrap(self, group, fn):
        tracer = self
        smith = group == "intmat.smith"

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            start = tracer._clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = tracer._clock()
                tracer._stack.pop()
                tracer.spans[idx] = (group, tracer.op, start, end, parent)
            if smith:
                t0 = perf_counter()
                tracer._smith_stats(args[0], out)
                tracer._paused += perf_counter() - t0
            return out

        return functools.wraps(fn)(wrapper)

    def _smith_stats(self, m, out):
        s = self.smith
        s["max_dim"] = max(s["max_dim"], len(m), len(m[0]) if m else 0)
        s["max_bits_in"] = max(s["max_bits_in"], _max_bits(m))
        transforms = [x for i, x in enumerate(out) if i != 1]
        s["max_bits_out"] = max([s["max_bits_out"]] + [_max_bits(t) for t in transforms])

    def install(self):
        for modname, _ in GROUPS.values():
            importlib.import_module(modname)
        for group, (modname, attrs) in GROUPS.items():
            for attr in attrs:
                owner = sys.modules[modname]
                *path, name = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, name)
                wrapper = self._wrap(group, fn)
                holders = [owner] if path else [
                    m for n, m in list(sys.modules.items())
                    if (n == "mwtate" or n.startswith("mwtate.")) and m is not None
                ]
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, wrapper)
                            self._patches.append((holder, key, fn))

    def uninstall(self):
        for holder, key, fn in reversed(self._patches):
            setattr(holder, key, fn)
        self._patches.clear()

    def summary(self) -> dict:
        """{group: [calls, self seconds]} over every span recorded."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {group: [0, 0.0] for group in GROUPS}
        for (group, _, start, end, _), inner in zip(self.spans, child):
            out[group][0] += 1
            out[group][1] += end - start - inner
        return out


def merge(total: dict, part: dict, smith: dict, part_smith: dict):
    """Add one summary (and its Smith maxima) into running totals."""
    for group, (calls, self_s) in part.items():
        total[group][0] += calls
        total[group][1] += self_s
    for key in SMITH_STATS:
        smith[key] = max(smith[key], part_smith[key])
