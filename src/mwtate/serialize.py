"""JSON codecs for the documented wire schemas.

Complexes:    {"cells": [{"id": str, "weight": int}],
               "attach": [{"from": str, "to": str, "coeff": int}]}
Normal forms: [{"kind": "free", "weight": i},
               {"kind": "dyadic", "t": t, "weight": i},
               {"kind": "odd", "p": p, "r": r, "shift": s}]
Graded groups: [{"degree": int, "free": int, "torsion": [int]}], wrapped
with a model tag for integral hom answers.
Pages:        {"page": i, "towers": [{"p", "q", "height", "label"}],
               "differential": [{"from": idx, "to": idx, "rho_power": j}]}

Blow-ups:     {"ambient": complex, "thom": complex, "centre": normal form,
               "codim": int, "gysin": attachments}

Decoders are strict: a wrong shape, a missing or unknown field, a
repeated (from, to) attachment pair, or a non-integer (bools and floats
included) where an integer belongs raises ValueError.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import TYPE_CHECKING

from .exactalg.groups import FormalGroup, GradedGroup
from .motives import DyadicEta, Free, NormalForm, OddTorsion, TateComplex
from .wittring import GWElement

if TYPE_CHECKING:
    from .bockstein.pages import Page

MODEL_TAG = "minimal-euclidean"


def complex_to_json(c: TateComplex) -> dict:
    return {
        "cells": [{"id": cid, "weight": w} for cid, w in c.cells],
        "attach": [
            {"from": hi, "to": lo, "coeff": v}
            for (hi, lo), v in sorted(c.attach.items())
        ],
    }


def _cut(text: str) -> str:
    """``text``, cut if longer than 80 so that an error message stays short."""
    return text if len(text) <= 80 else f"{text[:60]}... ({len(text)} characters)"


def _object(entry, keys, what):
    """``entry`` itself, checked to be an object with no field outside ``keys``."""
    if not isinstance(entry, dict):
        raise ValueError(f"{what} must be an object, not {_cut(repr(entry))}")
    unknown = sorted(set(entry) - set(keys))
    if unknown:
        names = _cut(", ".join(map(repr, unknown)))
        raise ValueError(f"{what} has unknown field(s) {names}")
    return entry


def _field(entry, key, kind, what):
    if not isinstance(entry, dict):
        raise ValueError(f"{what} must be an object, not {_cut(repr(entry))}")
    if key not in entry:
        raise ValueError(f"{what} has no {key!r} field")
    value = entry[key]
    if type(value) is not kind:  # exact type: rejects bools as ints
        shown = _cut(repr(value))
        raise ValueError(f"{what} field {key!r} must be {kind.__name__}, not {shown}")
    return value


def _list(value, what):
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, not {_cut(repr(value))}")
    return value


def attachments_from_json(data) -> dict:
    """{(from id, to id): coeff} of a list of {"from", "to", "coeff"}."""
    out = {}
    for e in _list(data, "attachments"):
        _object(e, ("from", "to", "coeff"), "attachment")
        pair = (_field(e, "from", str, "attachment"), _field(e, "to", str, "attachment"))
        if pair in out:
            hi, lo = (_cut(repr(x)) for x in pair)
            raise ValueError(f"attachment {hi} -> {lo} is repeated")
        out[pair] = _field(e, "coeff", int, "attachment")
    return out


def complex_from_json(data) -> TateComplex:
    if not isinstance(data, dict) or "cells" not in data:
        raise ValueError("complex JSON needs a 'cells' list")
    _object(data, ("cells", "attach"), "complex")
    cells = []
    for c in _list(data["cells"], "cells"):
        _object(c, ("id", "weight"), "cell")
        cells.append((_field(c, "id", str, "cell"), _field(c, "weight", int, "cell")))
    return TateComplex(cells, attachments_from_json(data.get("attach", [])))


def blowup_from_json(data):
    """(ambient, centre, codim, thom, gysin) of a blow-up object, in the
    order :func:`mwtate.geometry.blowup_motive` takes them."""
    _object(data, ("ambient", "thom", "centre", "codim", "gysin"), "blow-up JSON")
    return (
        complex_from_json(data.get("ambient")),
        normal_form_from_json(data.get("centre", [])),
        _field(data, "codim", int, "blow-up JSON"),
        complex_from_json(data.get("thom")),
        attachments_from_json(data.get("gysin", [])),
    )


def normal_form_to_json(a: NormalForm) -> list:
    out = []
    for b in a.blocks:
        kind = _BLOCK_KINDS[type(b)]
        out.append({"kind": kind, **{k: getattr(b, k) for k in _BLOCK_FIELDS[kind][1]}})
    return out


def normal_form_from_json(data) -> NormalForm:
    if not isinstance(data, list):
        raise ValueError("normal form JSON must be a list of blocks")
    blocks = []
    for entry in data:
        kind = _field(entry, "kind", str, "block")
        if kind not in _BLOCK_FIELDS:
            raise ValueError(f"unknown block kind {_cut(repr(kind))}")
        cls, keys = _BLOCK_FIELDS[kind]
        _object(entry, ("kind",) + keys, f"{kind} block")
        blocks.append(cls(*(_field(entry, k, int, f"{kind} block") for k in keys)))
    return NormalForm(blocks)


_BLOCK_FIELDS = {
    "free": (Free, ("weight",)),
    "dyadic": (DyadicEta, ("t", "weight")),
    "odd": (OddTorsion, ("p", "r", "shift")),
}
_BLOCK_KINDS = {cls: kind for kind, (cls, _) in _BLOCK_FIELDS.items()}


def formal_group_to_json(g: FormalGroup) -> dict:
    return {"free": g.free_rank, "torsion": list(g.torsion)}


def graded_group_to_json(g: GradedGroup, model: bool = False):
    groups = [{"degree": d, **formal_group_to_json(grp)} for d, grp in g.items()]
    if model:
        return {"model": MODEL_TAG, "groups": groups}
    return groups


def gw_to_json(e: GWElement) -> dict:
    return {"rank": e.rank, "signature": e.signature}


def gw_from_json(data) -> GWElement:
    _object(data, ("rank", "signature"), "GW element")
    return GWElement(
        _field(data, "rank", int, "GW element"),
        _field(data, "signature", int, "GW element"),
    )


def page_to_json(pg: Page) -> dict:
    towers = sorted(pg.towers)
    index = {}
    for k, t in enumerate(towers):
        index.setdefault(t, []).append(k)

    def cursors():  # per tower, its indices in turn, the last one repeated
        return {t: chain(ks, repeat(ks[-1])) for t, ks in index.items()}

    src_at, dst_at = cursors(), cursors()
    return {
        "page": pg.index,
        "towers": [
            {"p": t.p, "q": t.q, "height": "inf" if t.height is None else t.height,
             "label": t.label}
            for t in towers
        ],
        "differential": [
            {"from": next(src_at[src]), "to": next(dst_at[dst]), "rho_power": power}
            for src, dst, power in sorted(pg.arrows)
        ],
    }
