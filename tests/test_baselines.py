import numpy as np
import pytest

from nlasso import Disconnected, InvalidNode, IsolatedNode, NoConvergence, baselines, build_graph
from nlasso.baselines import (
    NORMALIZED,
    UNNORMALIZED,
    LaplacianOperator,
    fiedler_value,
    fiedler_vector,
    indicator_error,
    laplacian,
)
from nlasso.generators import chain_graph
from oracle import random_connected_graph


def dense_laplacian(g, mode):
    """Independent dense construction from the adjacency structure."""
    a = np.zeros((g.n, g.n))
    for (i, j), w in zip(g.edges, g.weights):
        a[i - 1, j - 1] = w
        a[j - 1, i - 1] = w
    deg = a.sum(axis=1)
    lap = np.diag(deg) - a
    if mode == NORMALIZED:
        d = 1.0 / np.sqrt(deg)
        lap = lap * d[:, None] * d[None, :]
    return lap


def path(n, w=1.0):
    return build_graph(n, [(i, i + 1, w) for i in range(1, n)])


def count_applies(monkeypatch):
    """Record every LaplacianOperator.apply call from here on."""
    calls = []
    apply = LaplacianOperator.apply

    def counted(self, x):
        calls.append(1)
        return apply(self, x)

    monkeypatch.setattr(LaplacianOperator, "apply", counted)
    return calls


def test_apply_two_node():
    op = laplacian(build_graph(2, [(1, 2, 1.0)]))
    assert op.apply([1.0, -1.0]).tolist() == [2.0, -2.0]


def test_constant_in_nullspace(house_graph):
    op = laplacian(house_graph, UNNORMALIZED)
    assert np.max(np.abs(op.apply(np.full(5, 2.2)))) <= 1e-14


def test_operator_matches_dense(rng):
    for mode in (UNNORMALIZED, NORMALIZED):
        for _ in range(5):
            g = random_connected_graph(int(rng.integers(2, 9)), rng)
            dense = dense_laplacian(g, mode)
            op = laplacian(g, mode)
            for _ in range(3):
                x = rng.normal(size=g.n)
                assert np.allclose(op.apply(x), dense @ x, rtol=1e-12, atol=1e-12)


def test_operator_psd(rng):
    for _ in range(10):
        g = random_connected_graph(6, rng)
        op = laplacian(g, UNNORMALIZED)
        x = rng.normal(size=6)
        assert float(x @ op.apply(x)) >= -1e-12


def test_normalized_rejects_isolated_node():
    g = build_graph(3, [(1, 2, 1.0)])
    with pytest.raises(IsolatedNode):
        laplacian(g, NORMALIZED)


def test_bad_mode():
    with pytest.raises(ValueError):
        laplacian(build_graph(2, [(1, 2, 1.0)]), "rw")


@pytest.mark.parametrize("n", [5, 10, 50])
def test_fiedler_path_closed_form(n):
    v = fiedler_vector(path(n), UNNORMALIZED, tol=1e-12)
    mu = fiedler_value(path(n), v, UNNORMALIZED)
    exact = 2.0 - 2.0 * np.cos(np.pi / n)
    assert abs(mu - exact) <= 1e-8 * exact


def test_fiedler_complete_graph():
    g = build_graph(3, [(1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)])
    v = fiedler_vector(g, UNNORMALIZED, tol=1e-10)
    assert fiedler_value(g, v, UNNORMALIZED) == pytest.approx(3.0, abs=1e-8)


def test_fiedler_matches_dense_eigensolver(rng):
    for _ in range(5):
        g = random_connected_graph(int(rng.integers(4, 11)), rng)
        for mode in (UNNORMALIZED, NORMALIZED):
            vals = np.linalg.eigvalsh(dense_laplacian(g, mode))
            target = vals[1]
            if target - vals[0] < 1e-8 or (len(vals) > 2 and vals[2] - target < 1e-6):
                continue  # near-degenerate pair: not a meaningful check
            v = fiedler_vector(g, mode, tol=1e-11)
            mu = fiedler_value(g, v, mode)
            assert mu == pytest.approx(target, rel=1e-7, abs=1e-9)


def test_fiedler_orthogonal_to_nullspace():
    g = path(12)
    for mode in (UNNORMALIZED, NORMALIZED):
        v = fiedler_vector(g, mode, tol=1e-11)
        null = laplacian(g, mode).nullspace_direction()
        assert abs(float(null @ v)) <= 1e-8 * np.linalg.norm(v)


def test_fiedler_normalization_convention():
    v = fiedler_vector(path(9), UNNORMALIZED, tol=1e-10)
    assert np.max(np.abs(v)) == pytest.approx(1.0, abs=1e-14)
    assert v[0] >= 0.0


def test_fiedler_eigen_residual_contract():
    g = path(30)
    tol = 1e-9
    v = fiedler_vector(g, UNNORMALIZED, tol=tol)
    op = laplacian(g, UNNORMALIZED)
    mu = fiedler_value(g, v, UNNORMALIZED)
    resid = np.linalg.norm(op.apply(v) - mu * v)
    assert resid <= tol * np.linalg.norm(v)


def test_fiedler_deterministic():
    a = fiedler_vector(path(20), NORMALIZED, tol=1e-10)
    b = fiedler_vector(path(20), NORMALIZED, tol=1e-10)
    assert a.tobytes() == b.tobytes()


def test_fiedler_apply_count_on_chain(monkeypatch):
    # the Krylov space of an n-node path is exhausted after n - 1 steps
    calls = count_applies(monkeypatch)
    fiedler_vector(path(100), NORMALIZED, tol=1e-10)
    assert len(calls) <= 100 + 16


@pytest.mark.parametrize("make_graph", [
    lambda: chain_graph(100, 5.0 / 4.0, [(4, 1.0)]),
    lambda: path(300),
], ids=["criterion-3-chain", "path-300"])
def test_fiedler_matches_dense_on_long_chains(make_graph):
    g = make_graph()
    exact = float(np.linalg.eigvalsh(dense_laplacian(g, NORMALIZED))[1])
    v = fiedler_vector(g, NORMALIZED, tol=1e-10)
    assert abs(fiedler_value(g, v, NORMALIZED) - exact) <= 1e-8 * exact


def test_fiedler_restarts_when_basis_is_full(monkeypatch):
    g = path(30)
    rows = 8
    monkeypatch.setattr(baselines, "_BASIS_BYTES", 8 * g.n * rows)
    calls = count_applies(monkeypatch)
    v = fiedler_vector(g, NORMALIZED, tol=1e-10)
    assert len(calls) > rows + 1  # more than one cycle and its residual check
    exact = float(np.linalg.eigvalsh(dense_laplacian(g, NORMALIZED))[1])
    mu = fiedler_value(g, v, NORMALIZED)
    assert abs(mu - exact) <= 1e-8 * exact
    resid = np.linalg.norm(laplacian(g, NORMALIZED).apply(v) - mu * v)
    assert resid <= 1e-10 * np.linalg.norm(v)


def test_fiedler_rejects_disconnected():
    g = build_graph(4, [(1, 2, 1.0), (3, 4, 1.0)])
    with pytest.raises(Disconnected):
        fiedler_vector(g, UNNORMALIZED)
    with pytest.raises(Disconnected):
        fiedler_vector(build_graph(1, []), UNNORMALIZED)


def test_fiedler_rejects_bad_tolerance(monkeypatch):
    # each would make 500 000 applications before NoConvergence, or return
    # an unchecked Ritz vector (inf); none makes a single application
    calls = count_applies(monkeypatch)
    for tol in (float("nan"), 0.0, -1.0, float("inf"), -float("inf"), True, None, "1e-10",
                np.array(1e-10)):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            fiedler_vector(chain_graph(30), UNNORMALIZED, tol=tol)
    assert not calls
    for tol in (1, np.float32(1e-3), np.float64(1e-10)):
        fiedler_vector(path(5), UNNORMALIZED, tol=tol)


def test_fiedler_no_convergence(monkeypatch):
    monkeypatch.setattr(baselines, "_MAX_APPLIES", 3)
    with pytest.raises(NoConvergence, match="in 3 Laplacian applications"):
        fiedler_vector(path(40), UNNORMALIZED, tol=1e-14)


def test_indicator_error_values():
    x = np.zeros(10)
    x[[0, 1, 2, 3]] = 1.0
    assert indicator_error(x, [1, 2, 3, 4]) == (0.0, 0.0)
    err = indicator_error(np.zeros(10), [1, 2, 3, 4])
    assert err.l2 == 2.0
    assert err.linf == 1.0
    # the cluster ids are checked against the signal's length
    with pytest.raises(InvalidNode, match=r"node id 11 is not an integer in 1\.\.10"):
        indicator_error(np.zeros(10), [1, 11])
    # an empty signal with an empty cluster has no error
    err = indicator_error([], [])
    assert err == (0.0, 0.0) and type(err.linf) is float
