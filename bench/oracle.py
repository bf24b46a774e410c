"""Expected answers for the benchmark, computed without mwtate.

Decompose: a twisted realization must give back the blocks it was built
from; any other complex gives the blocks read off sympy's invariant factors
and ``factorint`` of its attachment matrix.  Spectral: the classical
Bockstein spectral sequence of H^*(C; Z) read off the same invariant
factors.  Cli: a transcription of the closed-form tables of the README.

Run as ``python3 bench/oracle.py WORKLOAD SEED ROUNDS``; it prints one JSON
list per round, one entry per operation (null, or no entry at the end of a
cli round, where run.py checks the operation some other way).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402


def _factor(n: int) -> list:
    from sympy import factorint

    return sorted((int(p), int(e)) for p, e in factorint(n).items())


def _invariants(m) -> list:
    from sympy import Matrix
    from sympy.matrices.normalforms import invariant_factors

    return [abs(int(x)) for x in invariant_factors(Matrix(m)) if x != 0]


def cone_blocks(n: int, w: int) -> list:
    """The blocks of a cone of order n between weights w+1 and w."""
    t = (n & -n).bit_length() - 1
    out = [["dyadic", t, w]]
    for p, e in _factor(n >> t) if n >> t > 1 else []:
        out.append(["odd", p, e, w])
    return out


def blocks_of_two_weight(ranks, diffs) -> list:
    (lo, m), = diffs.items()
    inv = _invariants(m)
    out = []
    for n in inv:
        out.extend(cone_blocks(n, lo))
    out += [["free", lo]] * (ranks[lo] - len(inv))
    out += [["free", lo + 1]] * (ranks[lo + 1] - len(inv))
    return sorted(out)


def canonical_blocks(blocks) -> list:
    return sorted(list(b) for b in blocks)


def bockstein(ranks, diffs) -> dict:
    """Classical Bockstein pages of the mod-2 reduction of H^*(C; Z).

    With cochain degrees, H^d has free rank n_d - rk d_d - rk d_{d-1} and
    torsion the invariant factors of d_{d-1}.  dim E_r^d counts the free
    rank of H^d plus the Z/2^k summands with k >= r of H^d and of H^{d+1}.
    """
    inv = {w: _invariants(m) for w, m in diffs.items()}
    free, exps = {}, {}
    for d in ranks:
        free[d] = ranks[d] - len(inv.get(d, ())) - len(inv.get(d - 1, ()))
        exps[d] = [(x & -x).bit_length() - 1 for x in inv.get(d - 1, ()) if x % 2 == 0]
    kmax = max((k for ks in exps.values() for k in ks), default=0)
    r = max(1, kmax)
    degrees = sorted(set(ranks) | {d - 1 for d in ranks})

    def page(rr):
        out = {}
        for d in degrees:
            dim = free.get(d, 0)
            dim += sum(1 for k in exps.get(d, ()) if k >= rr)
            dim += sum(1 for k in exps.get(d + 1, ()) if k >= rr)
            if dim:
                out[str(d)] = dim
        return out

    return {
        "pages": [page(rr) for rr in range(1, r + 2)],
        "e_infinity": {str(d): f for d, f in sorted(free.items()) if f},
        "torsion_order": r,
    }


# ------------------------------------------------------ closed-form tables


def _add(table, deg, free=0, torsion=()):
    f, t = table.get(deg, (0, []))
    table[deg] = (f + free, t + list(torsion))


def _groups_json(table, model):
    groups = [
        {"degree": d, "free": f, "torsion": sorted(t)}
        for d, (f, t) in sorted(table.items())
        if f or t
    ]
    return {"model": "minimal-euclidean", "groups": groups} if model else groups


def witt_table(blocks):
    """Free(i): Z in degree i; DyadicEta(t, i), t >= 1: Z/2^t in degree
    i+1; OddTorsion(p, r, s): Z/p^r in degree s+1."""
    table = {}
    for b in blocks:
        if b[0] == "free":
            _add(table, b[1], free=1)
        elif b[0] == "dyadic" and b[1] >= 1:
            _add(table, b[2] + 1, torsion=[1 << b[1]])
        elif b[0] == "odd":
            _add(table, b[3] + 1, torsion=[b[1] ** b[2]])
    return _groups_json(table, True)


def chow_table(blocks):
    """Free(i): Z in degree i; DyadicEta(t, i): Z in degrees i and i+1."""
    table = {}
    for b in blocks:
        if b[0] == "free":
            _add(table, b[1], free=1)
        elif b[0] == "dyadic":
            _add(table, b[2], free=1)
            _add(table, b[2] + 1, free=1)
    return _groups_json(table, True)


def mod2_table(blocks):
    """Generators (2i, i) per Free(i); (2w, w) and (2w+2, w+1) per cone."""
    gens = []
    for b in blocks:
        if b[0] == "free":
            gens.append((2 * b[1], b[1]))
        elif b[0] == "dyadic":
            gens += [(2 * b[2], b[2]), (2 * b[2] + 2, b[2] + 1)]
    return [{"p": p, "q": q} for p, q in sorted(gens)]


def _fuse(x, y):
    if x[0] == "free":
        return [_twist(y, x[1])]
    if y[0] == "free":
        return [_twist(x, y[1])]
    if x[0] == "dyadic" and y[0] == "dyadic":
        t, w = min(x[1], y[1]), x[2] + y[2]
        return [("dyadic", t, w + 1), ("dyadic", t, w)]
    if x[0] == "odd" and y[0] == "odd" and x[1] == y[1]:
        r, s = min(x[2], y[2]), x[3] + y[3]
        return [("odd", x[1], r, s + 1), ("odd", x[1], r, s)]
    return []


def _twist(b, q):
    return (*b[:-1], b[-1] + q)


def tensor_table(a, b):
    """The block fusion table, extended bilinearly."""
    return [gen.block_json(x) for x in _sort_blocks([z for x in a for y in b for z in _fuse(x, y)])]


def _sort_blocks(blocks):
    """The program's canonical block order: free, dyadic, odd, each by weight."""

    def key(b):
        if b[0] == "free":
            return (0, b[1], 0, 0)
        if b[0] == "dyadic":
            return (1, b[2], b[1], 0)
        return (2, b[3], b[1], b[2])

    return sorted(blocks, key=key)


def normal_form_json(blocks):
    return [gen.block_json(b) for b in _sort_blocks([tuple(b) for b in blocks])]


# ---------------------------------------------------------------- rounds


def expected_round(workload, seed, k):
    if workload == "decompose":
        out = []
        for kind, _, payload in gen.decompose_round(seed, k):
            if kind == "twisted":
                out.append(canonical_blocks(payload[1]))
            else:
                out.append(blocks_of_two_weight(*payload))
        return out
    if workload == "spectral":
        return [
            bockstein(*payload[0]) if kind == "couple" else None
            for kind, _, payload in gen.spectral_round(seed, k)
        ]
    if workload == "cli":
        inp = gen.cli_round(seed, k)
        (ranks, diffs) = inp["small"]
        return [  # the seeded verbs, in run.cli_round_ops order
            normal_form_json(cone_blocks(diffs[0][0][0], 0)),
            normal_form_json(inp["big"][1]),
            tensor_table(*inp["tensor"]),
            witt_table(inp["witt"]),
            chow_table(inp["chow"]),
            mod2_table(inp["mod2"]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def main(argv):
    workload, seed, rounds = argv[0], int(argv[1]), int(argv[2])
    print(json.dumps([expected_round(workload, seed, k) for k in range(rounds)]))


if __name__ == "__main__":
    main(sys.argv[1:])
