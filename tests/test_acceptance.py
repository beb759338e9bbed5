"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -s``) and enforces both the
stated tolerance and the stated runtime budget.
"""

import itertools
import time
import zlib
from fractions import Fraction

import numpy as np
import pytest

from pqk import (
    MomentumOperator,
    QC,
    ReducedFrame,
    ap_vector,
    basis_vector,
    build_projection,
    chain_consistency,
    check_assumptions,
    compose_projections,
    embedding_matrix,
    inner_product,
    min_eigenvalue,
    oracle_report,
    pairing_matrix,
    project_state,
    promote,
    pure_state,
    purity,
    refines,
    select_independent_dofs,
    system_join,
    trace,
)
from pqk import ratlin
from pqk.dpg import materialize, random_system
from pqk.io import default_probes
from pqk.systems import SystemLabel, projection_from_witness

from conftest import generic_reduction, random_mixture, random_pure


def _report(number, name, passed, detail, elapsed, budget):
    status = "PASS" if passed else "FAIL"
    print(
        f"ACCEPTANCE {number} {name}: {status} ({detail}; {elapsed:.1f}s <= {budget}s)"
    )
    assert passed, f"criterion {number} ({name}): {detail}"
    assert elapsed <= budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"


@pytest.fixture(scope="module")
def corpus():
    return [
        (seed, random_system(1 + seed % 5, 3, seed)) for seed in range(100)
    ]


def test_criterion_1_triple_consistency(corpus):
    start = time.monotonic()
    worst = 0.0
    for seed, rs in corpus:
        chains = rs.chains()
        top, mid, bot = chains[seed % len(chains)]
        state = random_mixture(rs.labels[top].dim, 3, np.random.default_rng(seed))
        report = chain_consistency(
            state,
            rs.labels[top],
            rs.labels[mid],
            rs.labels[bot],
            rs.find_witness(top, mid),
            rs.find_witness(mid, bot),
            rs.find_witness(top, bot),
            tol=1e-9,
        )
        worst = max(worst, report.distance)
    elapsed = time.monotonic() - start
    _report(
        1,
        "triple consistency",
        worst <= 1e-9,
        f"100 systems, max HS distance {worst:.2e} <= 1e-9",
        elapsed,
        60,
    )


def test_criterion_2_projection_injection_algebra(corpus):
    start = time.monotonic()
    checked = 0
    for seed, rs in corpus[:40]:
        top, mid, bot = rs.chains()[seed % len(rs.chains())]
        lt, lm, lb = rs.labels[top], rs.labels[mid], rs.labels[bot]
        w_tm = rs.find_witness(top, mid)
        w_mb = rs.find_witness(mid, bot)
        w_tb = rs.find_witness(top, bot)
        b_tm = projection_from_witness(lt, lm, w_tm).entries
        b_mb = projection_from_witness(lm, lb, w_mb).entries
        b_tb = projection_from_witness(lt, lb, w_tb).entries
        assert ratlin.matmul(b_mb, b_tm) == b_tb  # pr composition, exact
        e_tm = embedding_matrix(lt, lm, w_tm)
        e_mb = embedding_matrix(lm, lb, w_mb)
        e_tb = embedding_matrix(lt, lb, w_tb)
        assert ratlin.matmul(b_tm, e_tm) == ratlin.identity(lm.dim)
        assert ratlin.matmul(b_tb, e_tb) == ratlin.identity(lb.dim)
        assert e_tb == ratlin.matmul(e_tm, e_mb)  # embedding cocycle, exact
        checked += 1
    elapsed = time.monotonic() - start
    _report(
        2,
        "projection/injection algebra",
        checked == 40,
        f"{checked} chains: B@W=I, cocycle and pr-composition exact",
        elapsed,
        5,
    )


ORACLE_FIXTURES = (
    ("2->1 keep first", [[1, 0]]),
    ("2->1 diagonal sum", [[1, 1]]),
    ("2->2 relabel", [[0, 1], [1, 0]]),
    ("3->1", [[1, 1, 0]]),
    ("3->2", [[1, 0, 0], [0, 1, 1]]),
)


def test_criterion_3_oracle_equivalence():
    start = time.monotonic()
    worst64 = 0.0
    results = []
    for name, rows in ORACLE_FIXTURES:
        fine, coarse, witness = generic_reduction(rows)
        n = fine.dim
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        sharp = 6.0 * np.eye(n)
        states = [
            random_mixture(n, 2, rng, displacement=0.3),
            pure_state(np.eye(n), 0.5 * np.ones(n)),
            pure_state(sharp, np.zeros(n)),
        ]
        for state in states:
            r64 = oracle_report(
                state, fine, coarse, witness, grid_points=64, extent=8.0
            )
            r128 = oracle_report(
                state, fine, coarse, witness, grid_points=128, extent=8.0
            )
            worst64 = max(worst64, r64.max_rel_error)
            halved = (
                r128.max_rel_error <= r64.max_rel_error / 2
                or r128.max_rel_error <= 1e-9
            )
            results.append(r64.max_rel_error <= 1e-4 and halved)
    elapsed = time.monotonic() - start
    _report(
        3,
        "oracle equivalence",
        all(results),
        f"{len(results)} fixtures, max rel error {worst64:.2e} <= 1e-4, "
        "halving-or-better under grid doubling",
        elapsed,
        30,
    )


def test_criterion_4_trace_and_positivity(corpus):
    start = time.monotonic()
    drifts, eigs, checked, pur_ok = [], [], 0, True
    for seed, rs in corpus:
        small = [
            e
            for e in rs.order
            if rs.labels[e.lower].dim <= 2
            and rs.labels[e.upper].dim > rs.labels[e.lower].dim
        ]
        if not small:
            continue
        edge = small[seed % len(small)]
        fine, coarse = rs.labels[edge.upper], rs.labels[edge.lower]
        rng = np.random.default_rng(1000 + seed)
        mixture = random_mixture(fine.dim, 2, rng)
        projected = project_state(mixture, fine, coarse, edge.witness)
        drifts.append(projected.trace_drift)
        eigs.append(min_eigenvalue(projected, extent=8.0))
        pure = random_pure(fine.dim, rng)
        reduced = project_state(pure, fine, coarse, edge.witness)
        pur_ok &= purity(reduced) <= purity(pure) + 1e-9
        checked += 1
    elapsed = time.monotonic() - start
    ok = (
        checked >= 30
        and max(drifts) <= 1e-9
        and min(eigs) >= -1e-8
        and pur_ok
    )
    _report(
        4,
        "trace and positivity",
        ok,
        f"{checked} projections: max drift {max(drifts):.2e} <= 1e-9, "
        f"min eigenvalue {min(eigs):.2e} >= -1e-8, purity monotone on pure states",
        elapsed,
        30,
    )


def test_criterion_5_join_correctness():
    start = time.monotonic()
    ok = True
    for seed in range(100):
        rs = random_system(1 + seed % 5, 2, 1000 + seed)
        a, b = rs.dlabels["b0"], rs.dlabels["b1"]
        res = system_join(a, b, "probe")
        uni = list(
            dict.fromkeys((*res.label.graph.edges, *a.graph.edges, *b.graph.edges))
        )
        joined = materialize(res.label, uni)
        g = pairing_matrix(joined)
        n, m = len(g), res.span_dim
        block = all(
            g[i][j] == (1 if i == j else 0)
            for i in range(n)
            for j in range(n)
            if i < m and j < m or i >= m
        )
        ok &= block
        ok &= ratlin.det(g) == 1
        ok &= bool(refines(joined, materialize(a, uni), res.witness_a))
        ok &= bool(refines(joined, materialize(b, uni), res.witness_b))
        if not ok:
            break
    elapsed = time.monotonic() - start
    _report(
        5,
        "join correctness",
        ok,
        "100 pairs: exact block form [[I,G'],[0,I]], det 1, both relations verify",
        elapsed,
        10,
    )


def test_criterion_6_assumption_audit(corpus):
    start = time.monotonic()
    audited = 0
    all_pass = True
    for seed, rs in corpus[:25]:
        report = check_assumptions(rs.labels, rs.order, default_probes(rs))
        all_pass &= report.passed
        audited += 1

    seed, rs = corpus[1]
    probes = default_probes(rs)
    # defect 1: a singular pairing matrix
    name = sorted(rs.labels)[0]
    label = rs.labels[name]
    singular = {**rs.labels, name: SystemLabel((label.ops[0],) * label.dim, label.frame)}
    flipped_a4 = not check_assumptions(singular, rs.order, probes).passed
    # defect 2: a broken order witness
    edge = next(
        e for e in rs.order if rs.labels[e.upper].dim > rs.labels[e.lower].dim
    )
    dof, row = next(iter(edge.witness.combos.items()))
    src = next(iter(row))
    from pqk import OrderWitness
    from pqk.systems import OrderEdge

    bad_w = OrderWitness(
        {**edge.witness.combos, dof: {**row, src: row[src] + Fraction(1, 1000)}},
        edge.witness.op_membership,
        edge.witness.dof_values,
    )
    broken_order = tuple(
        OrderEdge(e.upper, e.lower, bad_w) if e is edge else e for e in rs.order
    )
    flipped_a6 = not check_assumptions(rs.labels, broken_order, probes).passed
    # defect 3: a missing join
    keep = {n for n in rs.labels if n.startswith("b")}
    family = {k: v for k, v in rs.labels.items() if k in keep}
    pruned = tuple(e for e in rs.order if e.upper in keep and e.lower in keep)
    flipped_dir = any(
        inst.assumption == "directed"
        for inst in check_assumptions(family, pruned, probes).failures()
    )

    elapsed = time.monotonic() - start
    ok = all_pass and flipped_a4 and flipped_a6 and flipped_dir
    _report(
        6,
        "assumption audit",
        ok,
        f"{audited} systems pass; singular pairing, broken witness and "
        "missing join each flip the audit",
        elapsed,
        10,
    )


def test_criterion_7_almost_periodic():
    start = time.monotonic()
    import random as pyrandom

    rng = pyrandom.Random(0)
    K1 = ReducedFrame(("k1", "k2"))
    K2 = ReducedFrame(("p1", "p2", "p3"))
    K3 = ReducedFrame(("q1", "q2", "q3", "q4"))
    b12 = build_projection(
        K1, K2, {"k1": [1, 0, Fraction(1, 2)], "k2": [0, 1, 1]}
    )
    b23 = build_projection(
        K2,
        K3,
        {
            "p1": [1, 1, 0, 0],
            "p2": [0, Fraction(1, 3), 1, 0],
            "p3": [0, 0, -1, 2],
        },
    )
    b13 = compose_projections(b12, b23)

    def vec():
        terms = {}
        for _ in range(3):
            coords = tuple(
                Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(2)
            )
            amp = QC(
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
            )
            terms[coords] = terms.get(coords, QC()) + amp
        return ap_vector(K1, terms)

    ok = True
    for _ in range(1000):
        v, w = vec(), vec()
        ok &= inner_product(promote(v, b12), promote(w, b12)) == inner_product(v, w)
        ok &= promote(promote(v, b12), b23) == promote(v, b13)
        if not ok:
            break
    e1 = basis_vector(K1, (Fraction(1), Fraction(0)))
    e2 = basis_vector(K1, (Fraction(1), Fraction(1, 2)))
    ok &= inner_product(e1, e1) == QC(Fraction(1))
    ok &= inner_product(e2, e2) == QC(Fraction(1))
    ok &= inner_product(e1, e2) == QC()
    ok &= inner_product(e2, e1) == QC()
    elapsed = time.monotonic() - start
    _report(
        7,
        "almost periodic",
        ok,
        "1000 vectors: exact isometry and cocycle; Kronecker table exact",
        elapsed,
        5,
    )


def test_criterion_8_greedy_selection():
    start = time.monotonic()
    import random as pyrandom

    rng = pyrandom.Random(0)
    ok = True
    cases = 0
    while cases < 100:
        m = rng.randint(1, 5)
        pool_size = rng.randint(m, 12)
        pool = tuple(f"k{i}" for i in range(pool_size))
        rows = [
            [Fraction(rng.randint(-3, 3)) for _ in range(pool_size)]
            for _ in range(m)
        ]
        if ratlin.rank(ratlin.mat(rows)) < m:
            continue
        cases += 1
        ops = tuple(
            MomentumOperator(f"op{j}", tuple(zip(pool, rows[j])))
            for j in range(m)
        )
        chosen = select_independent_dofs(ops, pool)
        ok &= len(chosen) == m
        sel_cols = ratlin.mat(
            [[rows[j][pool.index(d)] for d in chosen] for j in range(m)]
        )
        ok &= ratlin.rank(sel_cols) == m
        fl = np.array([[float(x) for x in row] for row in rows])
        sv = np.linalg.svd(fl[:, [pool.index(d) for d in chosen]], compute_uv=False)
        ok &= int(np.sum(sv > 1e-10 * sv.max())) == m
        # exhaustive search: the greedy pick is the first full-rank subset
        first = None
        for combo in itertools.combinations(range(pool_size), m):
            sub = fl[:, combo]
            sv = np.linalg.svd(sub, compute_uv=False)
            if int(np.sum(sv > 1e-10 * max(sv.max(), 1e-30))) == m:
                first = combo
                break
        ok &= first == tuple(pool.index(d) for d in chosen)
        if not ok:
            break
    elapsed = time.monotonic() - start
    _report(
        8,
        "greedy selection",
        ok,
        "100 cases: rank M confirmed two ways; matches first full-rank "
        "subset from exhaustive search",
        elapsed,
        10,
    )
