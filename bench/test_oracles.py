"""Self-tests of the benchmark's oracles against brute force on small
inputs.  Run with `python3 bench/test_oracles.py` or
`python3 -m pytest bench/test_oracles.py`; neither needs the package."""

import math
import random
from fractions import Fraction

import inputs
import oracles


def least_multiplier_linear(d, c, c_prime, p, q):
    """l(n) evaluated in exact rationals at n = q, 2q, 3q, ... until it is
    positive."""
    a = Fraction(p, q)
    n = q
    while (d - a * a) * n * n / 2 + (c - 3 * a) * n / 2 + (c_prime - 1) <= 0:
        n += q
    return n


def test_least_multiplier_matches_linear_search():
    rng = random.Random(7)
    cases = 0
    while cases < 3000:
        d = rng.randint(1, 60)
        q = rng.randint(1, 12)
        p = rng.randint(1, math.isqrt(d * q * q - 1) if d * q * q > 1 else 1)
        if p * p >= d * q * q or math.gcd(p, q) != 1:
            continue
        c, c_prime = rng.randint(-12, 20), rng.randint(-3, 6)  # c' > 1 included
        want = least_multiplier_linear(d, c, c_prime, p, q)
        assert oracles.least_multiplier(d, c, c_prime, p, q) == want, (d, c, c_prime, p, q)
        cases += 1


def test_least_multiplier_known_bounds():
    # f1_anticanonical: the alpha ladder 5/2, 14/5, 141/50, 707/250 gives B = 16, 40, 400, 2000
    for (p, q), B in zip(inputs.F1_ALPHAS, (16, 40, 400, 2000)):
        assert oracles.least_multiplier(*inputs.F1_RR, p, q) * 8 == B
    assert oracles.least_multiplier(4, 0, 2, 3, 2) == 4  # M = 4, B = 16


def test_farey_walk_matches_brute_force():
    rng = random.Random(11)
    for _ in range(400):
        B = rng.randint(1, 40)
        p, q = rng.randint(1, 60), rng.randint(1, 12)
        want = sorted(
            {(t, m) for t in range(1, B + 1) for m in range(1, t + 1)
             if math.gcd(t, m) == 1 and t * q <= p * m},
            key=lambda tm: Fraction(*tm),
        )
        assert list(oracles.farey_ratios(B, p, q)) == want, (B, p, q)
        members = set(want)
        for t in range(1, B + 2):
            for m in range(1, B + 2):
                if math.gcd(t, m) == 1:
                    assert oracles.in_superset(t, m, B, p, q) == ((t, m) in members), (t, m)


def _brute_nef(doc, stratum):
    """Largest grid point s = i/j (j <= 6) with t - s m >= 0 for every
    generator and s^2 <= d, plus whether every grid point below sqrt(d)
    is feasible."""
    gram, L = doc["gram"], doc["polarization"]
    rank = len(L)
    d = oracles.degree(doc)
    cons = []
    for gen in doc["blowup_gens"][stratum]:
        cls = gen["class"]
        t = sum(L[i] * gram[i][j] * cls[j] for i in range(rank) for j in range(rank))
        cons.append((t, -cls[rank]))
    grid = {Fraction(i, j) for j in range(1, 7) for i in range(0, 6 * 40)}
    below = [s for s in grid if s * s <= d]
    feasible = [s for s in below if all(t - s * m >= 0 for t, m in cons)]
    return max(feasible), len(feasible) == len(below)


def test_nef_threshold_matches_grid_search():
    rng = random.Random(5)
    docs = [inputs.blowup_plane_doc(rng, f"t{i}", 6, 6) for i in range(4)]
    docs += [inputs.plane_doc(e) for e in (1, 2, 3)]
    docs += [inputs.quadric_doc(a, b) for a in (1, 2, 5) for b in (1, 3)]
    docs.append(inputs.f1_doc())
    for doc in docs:
        for s in doc["strata"]:
            value = oracles.nef_threshold(doc, s["label"])
            best, unbounded = _brute_nef(doc, s["label"])
            if value[0] == "sqrt":
                assert unbounded, (doc["name"], s["label"])
            else:
                r = Fraction(value[1], value[2])
                assert best <= r, (doc["name"], s["label"], best, r)
                if r.denominator <= 6:
                    assert best == r, (doc["name"], s["label"], best, r)
            # generated tables agree with their generators
            assert oracles.stratum_value(doc, s["label"])[0] == value


def test_known_values_of_builtins():
    for e in range(1, 6):
        assert oracles.nef_threshold(inputs.plane_doc(e), "generic") == oracles.known_value(
            "projective_plane", {"e": e}, "generic")
    for a in range(1, 5):
        for b in range(1, 5):
            doc = inputs.quadric_doc(a, b)
            assert oracles.curve_table(doc, "generic") == (oracles.rational(min(a, b)), oracles.EXACT)
            assert oracles.nef_threshold(doc, "generic") == oracles.known_value(
                "quadric", {"a": a, "b": b}, "generic")
    f1 = inputs.f1_doc()
    for stratum, value in (("generic", 2), ("on_E", 1)):
        assert oracles.stratum_value(f1, stratum) == (oracles.rational(value), oracles.EXACT)
        assert oracles.known_value("f1_anticanonical", {}, stratum) == oracles.rational(value)


def test_value_order_and_parsing():
    rng = random.Random(3)
    values = [oracles.rational(rng.randint(-5, 40), rng.randint(1, 9)) for _ in range(60)]
    values += [oracles.sqrt_value(rng.randint(1, 200)) for _ in range(60)]

    def real(v):
        return v[1] / v[2] if v[0] == "q" else math.sqrt(v[1])

    for u in values:
        text = f"sqrt({u[1]})" if u[0] == "sqrt" else f"{u[1]}/{u[2]}"
        assert oracles.parse_value(text) == u
        for v in values:
            if abs(real(u) - real(v)) > 1e-9:
                assert oracles.value_lt(u, v) == (real(u) < real(v)), (u, v)
            else:
                assert not oracles.value_lt(u, v) and not oracles.value_lt(v, u), (u, v)


def test_ladder_rungs_hit_their_step_targets():
    rng = random.Random(2)
    for steps in inputs.RUNG_STEPS:
        d, c, c_prime, p, q = inputs.ladder_rung(rng, steps)
        j = oracles.least_multiplier(d, c, c_prime, p, q) // q
        assert abs(j - steps) <= inputs.RUNG_TOLERANCE * steps
        assert p * p < d * q * q


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"ok {name}")
