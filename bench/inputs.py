"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the seed, and every workload round has
the same shape whatever the seed: the same operations on inputs of the
same size and cost.  The seed moves only values (which d, which
convergent, which curve classes), chosen so that the work per operation
stays within a few percent of its target.

Nothing here imports the package under test: models and families are
written as JSON documents in the package's model format.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from oracles import least_multiplier, rational, sqrt_value, stratum_value, value_lt

# alpha ladder of the first Hirzebruch surface with -K (d=8, c=8, c'=1):
# 5/2 gives B=16, 14/5 gives B=40, 141/50 gives B=400, 707/250 gives B=2000
F1_RR = (8, 8, 1)
F1_ALPHAS = ((5, 2), (14, 5), (141, 50), (707, 250))

# multiplier-search lengths (M / denominator of a) of the minimal_M ladder
RUNG_STEPS = (10, 30, 100, 300, 300, 1000, 3000, 10000, 30000)
RUNG_TOLERANCE = 0.02

# candidate_ratios ladder: B from 16 up to 600, alpha just below sqrt(8)
CANDIDATE_B = (16, 40, 100, 250, 400, 600)
ALPHA_BAND = (2.78, 2.828)

# blown-up planes: L = k H - (E_1 + ... + E_n), d = k^2 - n, c = 3k - n, c' = 1
PLANE_K, PLANE_N = 10, 11

# family-scan: per round three families of SCAN_MEMBERS members, with
# SCAN_STRATA strata of SCAN_GENERATORS generators each, scanned at
# alpha = 3 (B = 89)
SCAN_MEMBERS = 3
SCAN_STRATA = (16, 24, 32)
SCAN_GENERATORS = 10
SCAN_UNCERTIFIED = 0.1
SCAN_ALPHA = (3, 1)
# cli-session: a family scanned near sqrt(89) at alpha = 9 (B = 178), and
# a model (strata x generators) for epsilon and sublevel
CLI_FAMILY_SHAPE = (2, 10, 8)
CLI_ALPHA = (9, 1)
CLI_MODEL_SHAPE = (16, 10)
CLI_LADDER_STEPS = 3000
CLI_CANDIDATE_B = (40, 400)


def rng_for(seed: int, *tags) -> random.Random:
    return random.Random(":".join(str(x) for x in (seed,) + tags))


# ---------------------------------------------------------------------------
# Degree-bound ladders


def convergents_below(d: int, q_max: int = 10**7):
    """Convergents p/q of sqrt(d) (d not a square) with p/q < sqrt(d),
    in order of increasing q."""
    a0 = math.isqrt(d)
    m, den, a = 0, 1, a0
    p0, p1, q0, q1 = 1, a0, 0, 1
    index = 0
    while q1 <= q_max:
        if index % 2 == 0:
            yield p1, q1
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
        index += 1


def ladder_rung(rng: random.Random, steps: int) -> tuple:
    """(d, c, c', p, q) with a = p/q a convergent of sqrt(d) below it whose
    multiplier search takes steps * (1 +- RUNG_TOLERANCE) steps."""
    while True:
        d = rng.randrange(1000, 100000)
        if math.isqrt(d) ** 2 == d:
            continue
        c = rng.randrange(-6, 25)
        c_prime = rng.choice((1, 1, 2, 3))
        for p, q in convergents_below(d):
            if 3 * p * q <= c * q * q:  # l(q) > 0 already; no search at all
                continue
            j = least_multiplier(d, c, c_prime, p, q) // q
            if abs(j - steps) <= RUNG_TOLERANCE * steps:
                return d, c, c_prime, p, q
            if j > steps:
                break


def near_sqrt8_alpha(rng: random.Random) -> tuple:
    q = rng.randrange(50, 300)
    p = rng.randrange(math.ceil(ALPHA_BAND[0] * q), math.floor(ALPHA_BAND[1] * q) + 1)
    g = math.gcd(p, q)
    return p // g, q // g


def shuffled(rng: random.Random, ops: list) -> list:
    """(slot, op) pairs in a seeded order, where slot is the op's place in
    the round's fixed list: the same slot does the same work every round."""
    order = list(enumerate(ops))
    rng.shuffle(order)
    return order


def bounds_round(seed: int, round_index: int) -> list:
    """One round of the bounds-ladder workload: (slot, ("minimal_M",
    (d, c, c', p, q))) and (slot, ("candidate_ratios", (B, p, q)))."""
    rng = rng_for(seed, "bounds", round_index)
    ops = [("minimal_M", ladder_rung(rng, steps)) for steps in RUNG_STEPS]
    ops += [("minimal_M", F1_RR + alpha) for alpha in F1_ALPHAS]
    ops += [("candidate_ratios", (B,) + near_sqrt8_alpha(rng)) for B in CANDIDATE_B]
    return shuffled(rng, ops)


# ---------------------------------------------------------------------------
# Model documents


def _doc(name, gram, labels, polarization, rr, strata, blowup_gens) -> dict:
    return {
        "schema_version": 1,
        "name": name,
        "rank": len(labels),
        "gram": gram,
        "basis_labels": labels,
        "polarization": polarization,
        "rr": {"d": rr[0], "c": rr[1], "c_prime": rr[2], "vanishing_multiplier": 1},
        "very_ample_multiplier": 1,
        "strata": strata,
        "blowup_gens": blowup_gens,
    }


def _stratum(label, dim, general, ocb, candidates) -> dict:
    return {
        "label": label,
        "closure_dim": dim,
        "specializes_from": general,
        "oracle_complete_below": ocb,
        "candidates": candidates,
    }


def _cand(label, cls, t, m) -> dict:
    return {"label": label, "class": cls, "t": t, "m": m}


def _gen(label, cls) -> dict:
    return {"label": label, "class": cls}


def plane_doc(e: int) -> dict:
    """The plane with O(e), as the package's built-in presents it."""
    cands = [_cand("line", [1], e, 1)]
    cands += [_cand(f"deg{k}_mult{m}", [k], e * k, m) for k in (2, 3) for m in range(1, k)]
    gens = [_gen("Ex", [0, 1]), _gen("H-Ex", [1, -1])]
    return _doc(
        f"projective_plane({e})", [[1]], ["H"], [e], (e * e, 3 * e, 1),
        [_stratum("generic", 2, [], str(e), cands)], {"generic": gens},
    )


def quadric_doc(a: int, b: int) -> dict:
    """The quadric with O(a, b), as the package's built-in presents it."""
    cands = [
        _cand("ruling_f1", [1, 0], b, 1),
        _cand("ruling_f2", [0, 1], a, 1),
        _cand("diagonal", [1, 1], a + b, 1),
    ]
    gens = [_gen("Ex", [0, 0, 1]), _gen("f1-Ex", [1, 0, -1]), _gen("f2-Ex", [0, 1, -1])]
    return _doc(
        f"quadric({a},{b})", [[0, 1], [1, 0]], ["f1", "f2"], [a, b], (2 * a * b, 2 * a + 2 * b, 1),
        [_stratum("generic", 2, [], str(min(a, b)), cands)], {"generic": gens},
    )


def f1_doc() -> dict:
    """The first Hirzebruch surface with -K = 3H - E, as the package's
    built-in presents it."""
    generic = [
        _cand("fiber", [1, -1], 2, 1), _cand("line", [1, 0], 3, 1), _cand("conic_node", [2, -1], 5, 2),
    ]
    on_e = [_cand("E", [0, 1], 1, 1), _cand("fiber", [1, -1], 2, 1), _cand("line", [1, 0], 3, 1)]
    return _doc(
        "f1_anticanonical", [[1, 0], [0, -1]], ["H", "E"], [3, -1], F1_RR,
        [_stratum("generic", 2, [], "2", generic), _stratum("on_E", 1, ["generic"], "2", on_e)],
        {
            "generic": [_gen("Ex", [0, 0, 1]), _gen("E", [0, 1, 0]), _gen("H-E-Ex", [1, -1, -1])],
            "on_E": [_gen("Ex", [0, 0, 1]), _gen("E-Ex", [0, 1, -1]), _gen("H-E-Ex", [1, -1, -1])],
        },
    )


def builtin_doc(rng: random.Random) -> tuple:
    """A seeded built-in surface: (document, builtin name, parameters)."""
    kind = rng.choice(("projective_plane", "quadric", "f1_anticanonical"))
    if kind == "projective_plane":
        params = {"e": rng.randint(1, 6)}
        return plane_doc(**params), kind, params
    if kind == "quadric":
        params = {"a": rng.randint(1, 6), "b": rng.randint(1, 6)}
        return quadric_doc(**params), kind, params
    return f1_doc(), kind, {}


def blowup_plane_doc(rng: random.Random, name: str, strata: int, gens: int, uncertified=0.0) -> dict:
    """A blown-up plane with PLANE_N points and L = k H - sum E_i.

    Each stratum has `gens` blow-up generators C - m Ex, and its curve
    table lists (L.C, m) for every generator with m >= 1, so the curve
    path and the nef path agree by construction.  The dense stratum's
    ratios all reach sqrt(d), so it carries the supremum; every other
    stratum specializes from the dense one and from at most one other
    stratum of no smaller value.  A share `uncertified` of the other
    strata declares no completeness threshold.
    """
    k, n = PLANE_K, PLANE_N
    rank = n + 1
    d = k * k - n
    labels = ["H"] + [f"E{i}" for i in range(1, n + 1)]
    gram = [[(1 if i == 0 else -1) if i == j else 0 for j in range(rank)] for i in range(rank)]
    ceiling = sqrt_value(d)

    def random_class(dense: bool):
        while True:
            if rng.random() < 0.15 and not dense:
                i = rng.randrange(1, rank)
                base = [0] * rank
                base[i] = 1  # the exceptional curve E_i, L.E_i = 1
                m = rng.randint(0, 1)
            else:
                a = rng.randint(1, 3)
                base = [a] + [0] * n
                for i in rng.sample(range(1, rank), rng.randint(0, 4)):
                    base[i] = -rng.randint(1, 2)
                m = rng.randint(0, a)
            t = k * base[0] + sum(base[1:])
            if t < max(1, m):
                continue
            if dense and m and value_lt(rational(t, m), ceiling):
                continue
            return base, t, m

    strata_docs, blowup, values = [], {}, []
    for s in range(strata):
        dense = s == 0
        label = "generic" if dense else f"s{s}"
        gen_docs, cands = [_gen("Ex", [0] * rank + [1])], []
        for g in range(gens - 1):
            if dense and g == 0:
                base, t, m = [1] + [0] * n, k, 1  # H - Ex
            else:
                base, t, m = random_class(dense)
            gen_docs.append(_gen(f"g{g}", base + [-m]))
            if m:
                cands.append(_cand(f"g{g}", base, t, m))
        if not cands:
            base, t, m = [1] + [0] * n, k, 1
            gen_docs.append(_gen("h", base + [-1]))
            cands.append(_cand("h", base, t, 1))
        least = min((rational(c["t"], c["m"]) for c in cands), key=lambda v: Fraction(v[1], v[2]))
        value = least if value_lt(least, ceiling) else ceiling
        if not dense and rng.random() < uncertified:
            ocb = None
        elif value == ceiling:
            ocb = str(k)
        else:
            ocb = f"{value[1]}/{value[2]}" if value[2] != 1 else str(value[1])
        general = [] if dense else ["generic"]
        if not dense:
            above = [values[i][0] for i in range(1, s) if not value_lt(values[i][1], value)]
            if above and rng.random() < 0.3:
                general.append(rng.choice(above))
        values.append((label, value))
        strata_docs.append(_stratum(label, 2 if dense else rng.randint(0, 1), general, ocb, cands))
        blowup[label] = gen_docs
    return _doc(name, gram, labels, [k] + [-1] * n, (d, 3 * k - n, 1), strata_docs, blowup)


def family_doc(rng: random.Random, members: int, strata: int, gens: int, uncertified=0.0) -> dict:
    """A family of blown-up planes of one degree; the first member is the
    general one and specializes to each of the others."""
    labels = [f"m{i}" for i in range(members)]
    return {
        "degree": PLANE_K * PLANE_K - PLANE_N,
        "members": [
            {"param_label": label, "model": blowup_plane_doc(rng, label, strata, gens, uncertified)}
            for label in labels
        ],
        "member_specialization": [[labels[0], label] for label in labels[1:]],
    }


# ---------------------------------------------------------------------------
# Rounds


def family_round(seed: int, round_index) -> list:
    """The families scanned in one family-scan round, as (slot, family)."""
    rng = rng_for(seed, "family", round_index)
    fams = [
        family_doc(rng, SCAN_MEMBERS, strata, SCAN_GENERATORS, uncertified=SCAN_UNCERTIFIED)
        for strata in SCAN_STRATA
    ]
    return shuffled(rng, fams)


def cli_round(seed: int, round_index) -> dict:
    """The files and arguments of one cli-session round."""
    rng = rng_for(seed, "cli", round_index)
    builtin, kind, params = builtin_doc(rng)
    model = blowup_plane_doc(rng, f"cli{round_index}", *CLI_MODEL_SHAPE)
    values = sorted(
        {v for s in model["strata"] for v in [stratum_value(model, s["label"])[0]] if v[0] == "q"},
        key=lambda v: Fraction(v[1], v[2]),
    )
    return {
        "builtin": builtin,
        "builtin_kind": kind,
        "builtin_params": params,
        "builtin_stratum": rng.choice([s["label"] for s in builtin["strata"]]),
        "model": model,
        "family": family_doc(rng, *CLI_FAMILY_SHAPE),
        "bound": ladder_rung(rng, CLI_LADDER_STEPS),
        "candidates": [(B,) + near_sqrt8_alpha(rng) for B in CLI_CANDIDATE_B],
        "sublevel_cut": rng.choice(values),
    }


if __name__ == "__main__":
    import json
    import sys

    if len(sys.argv) != 4:
        sys.exit("usage: python3 bench/inputs.py {bounds-ladder,family-scan,cli-session} SEED ROUND")
    workload, seed, round_index = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    make = {"bounds-ladder": bounds_round, "family-scan": family_round, "cli-session": cli_round}
    json.dump(make[workload](seed, round_index), sys.stdout, indent=1)
    print()
