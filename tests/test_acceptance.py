"""Acceptance checks, one test per criterion, each ending in a single
summary line (visible with -s, and on any failure).

Oracles here are deliberately self-contained: the necklace formula and the
brute-force ideal closure are reimplemented locally instead of importing the
library's equivalents.
"""

import json
import random
from collections import deque
from fractions import Fraction
from time import perf_counter

from lieobstruct import data_path
from lieobstruct.cdga import (
    cohomology,
    holonomy,
    load_cdga,
    resonance_dim,
    resonance_trivial_probe,
)
from lieobstruct.ce import (
    canonical_connection,
    canonical_filtration,
    check_stability,
    is_flat,
    lie_homology_by_weight,
    tower_from_cdga,
    verify_one_equivalence,
)
from lieobstruct.cli import main
from lieobstruct.fplie import (
    FiniteList,
    LiePresentation,
    finiteness_scan,
    h2_graded,
    ideal_span,
    lcs_graded_dims,
    lcs_quotient,
    linearize_presentation,
    load_presentation,
)
from lieobstruct.freelie import (
    LieElement,
    bracket,
    format_element,
    gen_elt,
    hall_basis_derived,
    hall_level,
)
from lieobstruct.ratlin import ONE, EchelonForm

HEIS = load_cdga(data_path("heis.json"))
NONCARNOT = load_cdga(data_path("noncarnot.json"))
TORUS = load_cdga(data_path("torus.json"))
WEDGE2 = load_cdga(data_path("wedge2.json"))
ALL_CDGAS = (HEIS, NONCARNOT, TORUS, WEDGE2)


def note(num, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_parity_table(capsys):
    t0 = perf_counter()
    code = main(["hall", "--gens", "2", "--level", "2", "--deg", "12"])
    elapsed = perf_counter() - t0
    out, _ = capsys.readouterr()
    slice2 = json.loads(out)["results"]["x2_slice"]
    got = [slice2[str(i)] for i in range(3, 13)]
    ok = code == 0 and got == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5] and elapsed < 10
    note(1, ok, f"x2 slice {got}, {elapsed:.2f}s < 10s")


def test_criterion_02_free_metabelian_scan():
    p = load_presentation(data_path("free_metabelian.json"))
    t0 = perf_counter()
    scan = finiteness_scan(p, 12)
    elapsed = perf_counter() - t0
    nonzero = {k: v for k, v in scan["dims"].items() if v}
    ok = (
        nonzero == {5: 2, 7: 4, 9: 6, 11: 8}
        and scan["verdict"] == "growing"
        and elapsed < 30
    )
    note(2, ok, f"H2 dims {nonzero}, verdict {scan['verdict']}, {elapsed:.2f}s < 30s")


def test_criterion_03_hall_vs_necklace():
    def mobius(m):
        out, d = 1, 2
        while d * d <= m:
            if m % d == 0:
                m //= d
                if m % d == 0:
                    return 0
                out = -out
            d += 1
        if m > 1:
            out = -out
        return out

    def necklace(n, k):
        total = sum(mobius(d) * n ** (k // d) for d in range(1, k + 1) if k % d == 0)
        return total // k

    ok = True
    for n in (2, 3):
        counts = {d: 0 for d in range(1, 9)}
        for level in range(4):
            for w in hall_level(n, level, 8):
                counts[w.degree] += 1
        ok = ok and all(counts[d] == necklace(n, d) for d in range(1, 9))
    note(3, ok, "level-summed Hall counts equal the necklace formula, n=2,3, deg<=8")


def test_criterion_04_heis_holonomy():
    p = holonomy(HEIS)
    relators = [format_element(r, p.generators) for r in p.scheme.relators]
    dims = lcs_quotient(p, 5).dims_by_weight()
    got = tuple(dims[k] for k in range(1, 5))
    ok = relators == ["x3 + [x1,x2]", "[x1,x3]", "[x2,x3]"] and got == (2, 1, 0, 0)
    note(4, ok, f"relators {relators}, LCS dims {got}")


def test_criterion_05_one_equivalence():
    t0 = perf_counter()
    ok = True
    for a in ALL_CDGAS:
        tower = tower_from_cdga(a, 5)
        for n in (2, 3, 4):
            out = verify_one_equivalence(a, tower, n)
            ok = ok and out == {"h1_iso": True, "h2_kernel_inclusion": True}
    elapsed = perf_counter() - t0
    ok = ok and elapsed < 60
    note(5, ok, f"(true, true) at stages 2..4 on 4 models, {elapsed:.2f}s < 60s")


def test_criterion_06_stability_and_filtration():
    ok = True
    for a in ALL_CDGAS:
        tower = tower_from_cdga(a, 5)
        for n in range(2, 5):
            for m in range(n + 1, 6):
                ok = ok and check_stability(tower, m, n) == {
                    "prop_i": True,
                    "prop_ii": True,
                }
        ok = ok and canonical_filtration(tower)["all_equal"]
    note(6, ok, "stability for all 2<=n<m<=5 and W^n = V^n at every stage")


def test_criterion_07_maurer_cartan():
    ok = True
    for a in ALL_CDGAS:
        for n in range(1, 6):
            g, omega = canonical_connection(a, n)
            ok = ok and is_flat(a, g, omega)
    note(7, ok, "canonical connections flat for n <= 5 on 4 models")


def test_criterion_08_hopf_cross_check():
    ok = True
    for name in ("pres_cubic", "pres_torus", "free_metabelian"):
        p = load_presentation(data_path(name + ".json"))
        fp = h2_graded(p, 6)
        for k in range(2, 7):
            g = lcs_quotient(p, k + 1)
            ok = ok and lie_homology_by_weight(g, 2).get(k, 0) == fp.get(k, 0)
    note(8, ok, "weight-split H2 equals Hopf dims per degree <= 6, 3 presentations")


def test_criterion_09_linearize():
    ok = True
    for name in ("pres_heis", "pres_noncarnot", "pres_cubic"):
        p = load_presentation(data_path(name + ".json"))
        bound = max(d for r in p.scheme.relators for d in r.degrees())
        q = linearize_presentation(p, bound)
        ok = ok and all(max(r.degrees()) <= 2 for r in q.scheme.relators)
        ok = ok and lcs_graded_dims(p, 6) == lcs_graded_dims(q, 6)
    note(9, ok, "relators in degrees <= 2 and quotient dims agree through class 6")


def test_criterion_10_resonance():
    probe_t = resonance_trivial_probe(TORUS)
    probe_w = resonance_trivial_probe(WEDGE2)
    ok = probe_t["verdict"] == "no-witness-found"
    ok = ok and probe_w["verdict"] == "nontrivial"
    if ok:
        names = {nm: k for k, nm in enumerate(WEDGE2.names[1])}
        vec = {names[nm]: Fraction(c) for nm, c in probe_w["witness"].items()}
        ok = bool(vec) and resonance_dim(WEDGE2, vec, 1) >= 1
    rng = random.Random(20260818)
    models = (TORUS, WEDGE2, HEIS)
    for t in range(20):
        a = models[t % 3]
        reps = cohomology(a, 1)[1]
        omega = {}
        for rep in reps:
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            for k, v in rep.items():
                x = omega.get(k, Fraction(0)) + c * v
                if x:
                    omega[k] = x
                else:
                    omega.pop(k, None)
        lam = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        if rng.random() < 0.5:
            lam = -lam
        scaled = {k: lam * v for k, v in omega.items()}
        for i in range(a.top):
            ok = ok and resonance_dim(a, scaled, i) == resonance_dim(a, omega, i)
    note(10, ok, "probes as expected, witness certified, 20 scale-invariant points")


def test_criterion_11_ideal_span_oracle():
    def brute_pivots(p, cap):
        n = p.n_gens
        words = hall_basis_derived(n, 0, cap)
        idx = {w: i for i, w in enumerate(words)}
        elts = [LieElement(n, {w: ONE}) for w in words]
        ech = EchelonForm()
        pool = deque(
            r.truncate(cap) for r in p.scheme.relators if not r.truncate(cap).is_zero()
        )
        while pool:
            e = pool.popleft()
            res, _ = ech.insert({idx[w]: c for w, c in e.terms.items()})
            if res:
                lo = min(e.degrees())
                for w, b in zip(words, elts):
                    if w.degree + lo > cap:
                        continue
                    z = bracket(b, e).truncate(cap)
                    if not z.is_zero():
                        pool.append(z)
        return tuple(ech.pivots)

    rng = random.Random(20260818)
    ok = True
    for case in range(10):
        n = 2 if case < 8 else 3
        pool = list(hall_basis_derived(n, 0, 3))
        relators = []
        for _ in range(rng.randint(1, 2)):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                terms[rng.choice(pool)] = Fraction(rng.randint(-2, 2))
            e = LieElement(n, terms)
            if not e.is_zero():
                relators.append(e)
        if not relators:
            relators.append(gen_elt(n, 0))
        p = LiePresentation(
            tuple(f"x{i + 1}" for i in range(n)), FiniteList(tuple(relators))
        )
        ok = ok and ideal_span(p, 6).pivots == brute_pivots(p, 6)
    note(11, ok, "ideal_span equals brute-force closure, degree <= 6, 10 seeded cases")


def test_criterion_12_deterministic_reports(tmp_path, capsys):
    suite = [
        ["hall", "--gens", "2", "--level", "2", "--deg", "10"],
        ["h2scan", data_path("free_metabelian.json"), "--deg", "10"],
        ["holonomy", data_path("heis.json"), "--lcs", "5"],
        ["resonance", data_path("torus.json"), "--trials", "20", "--seed", "0"],
        ["resonance", data_path("wedge2.json"), "--point", "a1 - 2*a2"],
        ["classify", data_path("noncarnot.json"), "--stage", "4"],
        ["linearize", data_path("pres_cubic.json"), "--class", "6"],
        ["fixed", data_path("torus.json"), data_path("swap_torus.json")],
    ]
    ok = True
    for idx, argv in enumerate(suite):
        a = tmp_path / f"run_a_{idx}.json"
        b = tmp_path / f"run_b_{idx}.json"
        ok = ok and main(argv + ["--out", str(a)]) == 0
        ok = ok and main(argv + ["--out", str(b)]) == 0
        ok = ok and a.read_bytes() == b.read_bytes()
    capsys.readouterr()
    note(12, ok, f"{len(suite)} commands, two runs each, byte-identical reports")
