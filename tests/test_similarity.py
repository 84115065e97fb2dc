import ast
from pathlib import Path

import numpy as np
import pytest

import folkwalk
from folkwalk.dataset import ingest
from folkwalk.similarity import item_similarity, user_similarity

from conftest import run_python
from gen import post_table, random_dataset


def two_hop_oracle(out_hop: np.ndarray, back_hop: np.ndarray) -> np.ndarray:
    """Explicit probability sum: sum_k P(k | i) * P(j | k), each hop
    normalized over its own row."""
    n_src, n_mid = out_hop.shape
    n_dst = back_hop.shape[1]
    result = np.zeros((n_src, n_dst))
    for i in range(n_src):
        src_total = out_hop[i].sum()
        if src_total == 0:
            continue
        for k in range(n_mid):
            p_ik = out_hop[i, k] / src_total
            mid_total = back_hop[k].sum()
            if mid_total == 0:
                continue
            for j in range(n_dst):
                result[i, j] += p_ik * back_hop[k, j] / mid_total
    return result


def item_oracle(ds, alpha):
    it = ds.IT.toarray()
    ui = ds.UI.toarray()
    return alpha * two_hop_oracle(it, it.T) + (1 - alpha) * two_hop_oracle(ui.T, ui)


def user_oracle(ds, beta):
    ut = ds.UT.toarray()
    ui = ds.UI.toarray()
    return beta * two_hop_oracle(ut, ut.T) + (1 - beta) * two_hop_oracle(ui, ui.T)


class TestItemSimilarity:
    def test_unique_tags_give_identity(self):
        # each item carries its own tag only: no inter-item tag paths
        ds = ingest(post_table([(f"u{i}", f"i{i}", (f"t{i}",)) for i in range(3)]))
        s = item_similarity(ds, alpha=1.0)
        np.testing.assert_allclose(s.toarray(), np.eye(3))

    def test_shared_tag_splits_mass(self):
        ds = ingest(post_table([("u1", "i1", ("t",)), ("u2", "i2", ("t",))]))
        s = item_similarity(ds, alpha=1.0)
        np.testing.assert_allclose(s.toarray(), [[0.5, 0.5], [0.5, 0.5]])

    def test_matches_probability_sum_oracle(self):
        rng = np.random.default_rng(17)
        ds = random_dataset(rng, n_users=5, n_items=6, n_tags=4)
        s = item_similarity(ds, alpha=0.4)
        assert np.abs(s.toarray() - item_oracle(ds, 0.4)).max() < 1e-12

    def test_alpha_out_of_range(self):
        ds = random_dataset(np.random.default_rng(0))
        with pytest.raises(ValueError):
            item_similarity(ds, 1.2)


class TestUserSimilarity:
    def test_identical_tag_usage_splits_mass(self):
        ds = ingest(post_table([("u1", "i1", ("t",)), ("u2", "i2", ("t",))]))
        s = user_similarity(ds, beta=1.0)
        np.testing.assert_allclose(s.toarray(), [[0.5, 0.5], [0.5, 0.5]])

    def test_disjoint_users_are_identity_patterned(self):
        ds = ingest(post_table([("u1", "i1", ("a",)), ("u2", "i2", ("b",))]))
        for beta in (0.0, 0.5, 1.0):
            s = user_similarity(ds, beta)
            np.testing.assert_allclose(s.toarray(), np.eye(2))

    def test_matches_probability_sum_oracle(self):
        rng = np.random.default_rng(23)
        ds = random_dataset(rng, n_users=5, n_items=7, n_tags=4)
        s = user_similarity(ds, beta=0.7)
        assert np.abs(s.toarray() - user_oracle(ds, 0.7)).max() < 1e-12


class TestProperties:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("weight", [0.0, 0.3, 0.7, 1.0])
    def test_row_stochastic_on_covered_data(self, seed, weight):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, n_users=7, n_items=9, n_tags=5)
        assert np.abs(item_similarity(ds, weight).sum(axis=1) - 1.0).max() < 1e-10
        assert np.abs(user_similarity(ds, weight).sum(axis=1) - 1.0).max() < 1e-10

    def test_interpolation_linearity(self):
        rng = np.random.default_rng(31)
        ds = random_dataset(rng, n_users=6, n_items=8, n_tags=4)
        s0 = item_similarity(ds, 0.0).toarray()
        s1 = item_similarity(ds, 1.0).toarray()
        for alpha in (0.25, 0.6, 0.9):
            s = item_similarity(ds, alpha).toarray()
            assert np.abs(s - (alpha * s1 + (1 - alpha) * s0)).max() < 1e-12

    def test_isolated_item_keeps_unit_mass(self):
        posts = [
            ("u1", "i1", ("a",)),
            ("u1", "i2", ("a",)),
            ("u2", "lone", ("only",)),
        ]
        ds = ingest(post_table(posts))
        lone = ds.items.index("lone")
        for alpha in (0.0, 0.5, 1.0):
            row = item_similarity(ds, alpha).toarray()[lone]
            expected = np.zeros(3)
            expected[lone] = 1.0
            np.testing.assert_allclose(row, expected)

    def test_two_hop_path_enumeration(self):
        # alpha=1 entry (i, j) equals sum over tags of P(tag | i) P(j | tag)
        rng = np.random.default_rng(37)
        ds = random_dataset(rng, n_users=4, n_items=6, n_tags=3)
        s = item_similarity(ds, 1.0).toarray()
        it = ds.IT.toarray()
        for i in range(6):
            for j in range(6):
                total = 0.0
                for k in range(3):
                    if it[i].sum() and it[:, k].sum():
                        total += (it[i, k] / it[i].sum()) * (it[j, k] / it[:, k].sum())
                assert abs(s[i, j] - total) < 1e-12


# every module but the reference itself
PIPELINE_MODULES = (
    "__init__", "params", "linalg", "dataset", "walker", "baselines", "evaluation", "cli",
)


def imported_names(tree: ast.AST):
    """Every module and module attribute an AST imports, as absolute names;
    a relative import resolves inside the folkwalk package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:
                base = "folkwalk" + (f".{node.module}" if node.module else "")
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize(
    "source",
    [
        "import folkwalk.similarity",
        "import folkwalk.similarity as reference",
        "from folkwalk.similarity import walk_item",
        "from .similarity import walk_item",
        "from . import similarity",
        "from folkwalk import similarity",
    ],
)
def test_import_check_sees_every_form(source):
    assert "folkwalk.similarity" in set(imported_names(ast.parse(source)))


@pytest.mark.parametrize("module", PIPELINE_MODULES)
def test_no_pipeline_module_imports_the_reference(module):
    # the pipeline is tested against this module, so it must not use it
    path = Path(folkwalk.__file__).with_name(f"{module}.py")
    names = set(imported_names(ast.parse(path.read_text(encoding="utf-8"))))
    assert "folkwalk.similarity" not in names


def test_importing_the_cli_leaves_the_reference_unloaded():
    # no pipeline module imports the reference, so a command run never
    # loads the paper's formulas
    code = "import sys, folkwalk.cli; sys.exit('folkwalk.similarity' in sys.modules)"
    run = run_python("-c", code)
    assert run.returncode == 0, run.stderr


def test_star_import_stays_light():
    # every exported name resolves, and none of them is the reference or
    # needs scipy
    code = (
        "import sys\n"
        "from folkwalk import *\n"
        "import folkwalk\n"
        "assert all(name in globals() for name in folkwalk.__all__)\n"
        "sys.exit(bool({'scipy.sparse', 'folkwalk.similarity'} & set(sys.modules)))\n"
    )
    run = run_python("-c", code)
    assert run.returncode == 0, run.stderr
