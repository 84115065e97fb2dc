"""Acceptance suite: each test exercises one release criterion at its stated
tolerance and prints a PASS line on success (run with -s or check the test
outcome)."""

import time
from dataclasses import replace

import numpy as np
import pytest

from folkwalk.baselines import block_scorer, run_algorithm
from folkwalk.cli import main
from folkwalk.dataset import (
    TaggingDataset,
    ingest,
    split as make_split,
    stats,
)
from folkwalk.evaluation import (
    evaluate_lists,
    f_measure,
    paired_t_test,
    run_experiment,
)
from folkwalk.linalg import row_normalize
from folkwalk.params import AlgorithmSpec
from folkwalk.similarity import (
    closed_form_item,
    closed_form_user,
    item_similarity,
    user_similarity,
    walk_item,
    walk_user,
)

from gen import (
    covered_posts,
    csr,
    held_out,
    padded,
    planted_cluster_posts,
    post_table,
    random_dataset,
    slow_mix_dataset,
    write_dataset,
)


def report(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


def all_scores(kind, ds, **params):
    """Every user's scores from one algorithm's row-block scorer."""
    return block_scorer(AlgorithmSpec(kind, params), ds)(0, ds.num_users)


def random_walk_instance(rng):
    m = int(rng.integers(5, 51))
    n = int(rng.integers(5, 51))
    ds = random_dataset(rng, n_users=m, n_items=n, n_tags=int(rng.integers(3, 9)))
    alpha, beta = rng.uniform(), rng.uniform()
    return (
        row_normalize(ds.UI),
        item_similarity(ds, alpha),
        user_similarity(ds, beta),
    )


def test_01_closed_form_iterative_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(20):
        ui_norm, s_item, s_user = random_walk_instance(rng)
        eta = rng.uniform(0.0, 0.95)
        lam = rng.uniform(0.0, 0.95)
        x, _ = walk_item(ui_norm, s_item, eta, tol=1e-12, max_iters=2000)
        cf = closed_form_item(ui_norm, s_item, eta)
        assert np.abs(x - cf).max() < 1e-8
        y, _ = walk_user(ui_norm, s_user, lam, tol=1e-12, max_iters=2000)
        cfu = closed_form_user(ui_norm, s_user, lam)
        assert np.abs(y - cfu).max() < 1e-8
    assert time.perf_counter() - start < 10.0
    report("1 closed-form/iterative equivalence")


def test_02_neumann_series_oracle():
    rng = np.random.default_rng(202)
    for _ in range(10):
        ui_norm, s_item, _ = random_walk_instance(rng)
        eta = rng.uniform(0.0, 0.9)
        sd = s_item.toarray()
        total = np.zeros_like(sd)
        power = np.eye(sd.shape[0])
        for _k in range(201):
            total += power
            power = power @ (eta * sd)
        series = (1 - eta) * ui_norm.toarray() @ total
        cf = closed_form_item(ui_norm, s_item, eta)
        assert np.abs(cf - series).max() < 1e-10
    report("2 Neumann-series oracle")


def test_03_row_stochasticity():
    rng = np.random.default_rng(303)
    for _ in range(50):
        ds = random_dataset(
            rng,
            n_users=int(rng.integers(4, 15)),
            n_items=int(rng.integers(4, 15)),
            n_tags=int(rng.integers(2, 8)),
        )
        for w in (0.0, 0.3, 0.7, 1.0):
            assert np.abs(item_similarity(ds, w).sum(axis=1) - 1.0).max() < 1e-10
            assert np.abs(user_similarity(ds, w).sum(axis=1) - 1.0).max() < 1e-10
    report("3 row-stochasticity")


def test_04_convergence_speed():
    for seed in range(20):
        ds = slow_mix_dataset(np.random.default_rng(404 + seed))
        ui_norm = row_normalize(ds.UI)
        for build, walk in (
            (lambda: item_similarity(ds, 0.5), walk_item),
            (lambda: user_similarity(ds, 0.5), walk_user),
        ):
            s = build()
            _, iters = walk(ui_norm, s, 0.5, tol=1e-3, max_iters=100)
            assert iters <= 10
            trace = []
            walk(ui_norm, s, 0.5, tol=1e-15, max_iters=12, trace=trace)
            ratios = [trace[t + 1] / trace[t] for t in range(3, 9)]
            assert all(0.5 - 0.1 <= r <= 0.5 + 0.05 for r in ratios)
    report("4 convergence speed analogue")


def synthetic_interactions(m, n, p, seed=0):
    rng = np.random.default_rng(seed)
    flat = rng.choice(m * n, size=p, replace=False)
    return TaggingDataset(
        users=tuple(f"u{i}" for i in range(m)),
        items=tuple(f"i{j}" for j in range(n)),
        tags=(),
        UI=csr(m, n, [(int(f) // n, int(f) % n, 1.0) for f in flat]),
        UT=csr(m, 0),
        IT=csr(n, 0),
    )


def test_05_reference_table_arithmetic():
    # (m, n, p) -> density %, avg items/user, avg users/item; the middle
    # dataset's published transaction count is internally inconsistent with
    # its own derived cells, which pin p = 4383
    cases = [
        (338, 392, 6031, 4.55, 17.84, 15.39),
        (125, 388, 4383, 9.04, 35.06, 11.30),
        (177, 210, 4093, 11.01, 23.12, 19.49),
    ]
    for m, n, p, density, avg_i, avg_u in cases:
        s = stats(synthetic_interactions(m, n, p))
        assert round(s.density_percent, 2) == density
        assert round(s.avg_items_per_user, 2) == avg_i
        assert round(s.avg_users_per_item, 2) == avg_u
    report("5 reference statistics arithmetic")


def test_06_metric_unit_suite():
    def metrics(items, test_items, half_life=5):
        return evaluate_lists(padded([items], len(items)), held_out([test_items], 30), half_life)

    m = metrics([1, 2, 3, 4, 5], [5, 20, 21, 22, 23, 24, 25, 26])
    p, r = m.precision, m.recall
    assert p == pytest.approx(20.0)
    assert r == pytest.approx(12.5)
    assert f_measure(p, r) == pytest.approx(15.384615384615385)
    single_hit = [10, 11, 7, 12, 13]
    assert metrics(single_hit, [7], half_life=5).rankscore == pytest.approx(
        100 * 2 ** (-2 / 4)
    )
    assert metrics([1, 2], [1, 2, 3], 5).rankscore == pytest.approx(100.0)
    assert metrics([8, 9], [1], 5).rankscore == 0.0
    report("6 metric unit suite")


def test_07_ordering_on_planted_clusters():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    ds = ingest(post_table(planted_cluster_posts(rng)))
    walk = {"eta": 0.9, "lambda_": 0.8, "mu": 0.7}
    prw = run_experiment(
        ds, [AlgorithmSpec("pRW", {**walk, "alpha": 1.0, "beta": 0.5})], 0.2, 5, 10, 0
    )[0][0]
    prw_ui = run_experiment(
        ds, [AlgorithmSpec("pRW-UI", walk)], 0.2, 5, 10, 0
    )[0][0]
    rand = run_experiment(ds, [AlgorithmSpec("Random")], 0.2, 5, 10, 0)[0][0]
    assert prw.means.precision >= 5.0 * rand.means.precision
    assert prw.means.precision >= prw_ui.means.precision
    _, p_value = paired_t_test(
        [r.precision for r in prw.runs], [r.precision for r in rand.runs]
    )
    assert p_value < 0.05
    assert time.perf_counter() - start < 60.0
    report("7 planted-cluster ordering")


def test_08_ablation_identities():
    rng = np.random.default_rng(808)
    ds = random_dataset(rng, n_users=10, n_items=12, n_tags=6)
    train = make_split(ds, 0.3, 1).train

    def lists(kind, ds, **params):
        return run_algorithm(AlgorithmSpec(kind, params), ds, 5, 0)

    assert np.array_equal(lists(
        "pRW", train, mu=1.0, alpha=1.0
    ), lists("pRW-IT", train))
    assert np.array_equal(lists(
        "pRW", train, mu=0.0, beta=1.0
    ), lists("pRW-UT", train))
    perm = np.random.default_rng(5).permutation(ds.num_users)
    permuted = replace(train, UT=ds.UT[perm])
    assert np.array_equal(lists("pRW-IT", train), lists("pRW-IT", permuted))
    report("8 ablation identities")


def test_09_cli_determinism(tmp_path):
    rng = np.random.default_rng(909)
    ds_path = tmp_path / "ds.json"
    write_dataset(ds_path, covered_posts(rng, n_users=15, n_items=20, n_tags=6))
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main([
            "evaluate", "--dataset", str(ds_path),
            "--algorithms", "Random,UserCF,ItemCF,Fusion,pRW", "--runs", "3",
            "--seed", "11", "--output-dir", str(out),
        ])
        assert code == 0
        blobs.append((out / "report.json").read_bytes())
    assert blobs[0] == blobs[1]
    report("9 CLI determinism")


def test_10_baseline_score_oracles():
    def cosine(rows):
        k = rows.shape[0]
        sim = np.zeros((k, k))
        for a in range(k):
            for b in range(k):
                if a == b:
                    continue
                na, nb = np.linalg.norm(rows[a]), np.linalg.norm(rows[b])
                if na > 0 and nb > 0:
                    sim[a, b] = float(rows[a] @ rows[b]) / (na * nb)
        return sim

    rng = np.random.default_rng(1010)
    for _ in range(10):
        m = int(rng.integers(4, 13))
        n = int(rng.integers(4, 13))
        ds = random_dataset(rng, n_users=m, n_items=n, n_tags=4)
        sp = make_split(ds, 0.4, int(rng.integers(1000)))
        train = sp.train.UI.toarray()
        assert np.abs(all_scores("UserCF", sp.train) - cosine(train) @ train).max() < 1e-12
        assert np.abs(all_scores("ItemCF", sp.train) - train @ cosine(train.T)).max() < 1e-12
        user_ext = np.hstack([train, ds.UT.toarray()])
        item_ext = np.hstack([train.T, ds.IT.toarray()])
        expected = 0.5 * (cosine(user_ext) @ train) + 0.5 * (train @ cosine(item_ext))
        assert np.abs(all_scores("Fusion", sp.train, fuse_weight=0.5) - expected).max() < 1e-12
    report("10 baseline score oracles")
