"""One rule for every numeric parameter, and one base for the input errors.

Every numeric public parameter is a real number, not a bool, in its range,
and is stored as a Python float or int; a bad value raises a ValueError
that names the parameter.  The input errors are ValueErrors, which the CLI
reports with exit code 2.
"""

import ast
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import nlasso
from nlasso import (
    CountTooLarge,
    DimensionMismatch,
    Disconnected,
    DuplicateEdge,
    GreyImage,
    InvalidEdge,
    InvalidNode,
    InvalidOverride,
    InvalidWeight,
    NLassoError,
    NLassoProblem,
    PgmError,
    SbmSpec,
    SolverConfig,
    UNNORMALIZED,
    boundary,
    chain_graph,
    extract_cluster,
    fiedler_value,
    fiedler_vector,
    indicator_error,
    kkt_residuals,
    reach_bound_check,
    sample_seeds,
    write_node_set,
)
from nlasso import cli

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

_CHAIN = chain_graph(3)
_PROBLEM = NLassoProblem(_CHAIN, [1], 0.25, 0.5)
_CLUSTER = extract_cluster(np.ones(3), 0.5)
_TINY = math.ulp(0.0)

# parameter (after its owner, where two share a name), a call that passes
# it the value, and one value just outside its range (None where any real
# number is in range)
PARAMETERS = {
    "max_iters": (lambda v: SolverConfig(max_iters=v), 0),
    "check_interval": (lambda v: SolverConfig(check_interval=v), -1),
    "gap_tolerance": (lambda v: SolverConfig(gap_tolerance=v), -_TINY),
    "alpha": (lambda v: NLassoProblem(_CHAIN, [1], v, 0.5), 0.0),
    "lam": (lambda v: NLassoProblem(_CHAIN, [1], 0.25, v), 0.0),
    "tol": (lambda v: fiedler_vector(_CHAIN, UNNORMALIZED, tol=v), 0.0),
    "threshold": (lambda v: extract_cluster(np.ones(3), v), math.inf),
    "block size": (lambda v: SbmSpec((v, 5), 0.5, 0.1), 0),
    "p_in": (lambda v: SbmSpec((5, 5), v, 0.1), math.nextafter(1.0, 2.0)),
    "p_out": (lambda v: SbmSpec((5, 5), 0.5, v), -_TINY),
    "SbmSpec.rng_seed": (lambda v: SbmSpec((5, 5), 0.5, 0.1, rng_seed=v), -1),
    "count": (lambda v: sample_seeds([1, 2, 3], v), 0),
    "sample_seeds.rng_seed": (lambda v: sample_seeds([1, 2, 3], 2, rng_seed=v), -1),
    "eps_sat": (lambda v: kkt_residuals(_PROBLEM, np.ones(3), np.zeros(2), eps_sat=v), 1.0),
    "max_outside": (lambda v: reach_bound_check(_PROBLEM, _CLUSTER, v), -1),
    "width": (lambda v: GreyImage(v, 2, [0, 0]), 0),
    "height": (lambda v: GreyImage(2, v, [0, 0]), 0),
    "default_w": (lambda v: chain_graph(3, v), None),
    "override weight": (lambda v: chain_graph(3, 1.0, [(1, v)]), None),
}

BAD = {"true": True, "str": "1", "none": None, "nan": float("nan"), "complex": 1 + 0j,
       "1d-array": np.array([1.0])}


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("param", PARAMETERS)
def test_bad_numeric_parameter_raises_value_error_naming_it(param, bad):
    call, _ = PARAMETERS[param]
    with pytest.raises(ValueError, match=param.rpartition(".")[2]):
        call(BAD[bad])


@pytest.mark.parametrize("param", [p for p, (_, out) in PARAMETERS.items() if out is not None])
def test_parameter_just_outside_its_range_raises_value_error_naming_it(param):
    call, outside = PARAMETERS[param]
    with pytest.raises(ValueError, match=param.rpartition(".")[2]):
        call(outside)


# parameter and a value of it past the float range, which float() and a
# product with a float cannot hold
BEYOND_FLOATS = {
    "max_iters": Fraction(10 ** 400) + Fraction(1, 2),
    "max_outside": 10 ** 400,
}


@pytest.mark.parametrize("param", BEYOND_FLOATS)
def test_value_beyond_the_float_range_raises_value_error_naming_it(param):
    call, _ = PARAMETERS[param]
    with pytest.raises(ValueError, match=param):
        call(BEYOND_FLOATS[param])


def test_chain_weights_out_of_range_stay_invalid_weight():
    for w in (0.0, -1.0, math.inf):
        with pytest.raises(InvalidWeight):
            chain_graph(3, w)
        with pytest.raises(InvalidWeight):
            chain_graph(3, 1.0, [(2, w)])


def test_numpy_scalars_are_stored_as_python_numbers():
    cfg = SolverConfig(max_iters=np.int64(5), check_interval=np.int64(2),
                       gap_tolerance=np.float32(0.5))
    assert [type(v) for v in (cfg.max_iters, cfg.check_interval, cfg.gap_tolerance)] == [
        int, int, float]
    p = NLassoProblem(_CHAIN, [1], np.float32(0.25), np.int64(1))
    assert type(p.alpha) is float and type(p.lam) is float
    spec = SbmSpec((np.int64(3), np.float64(4.0)), np.float32(0.5), np.float32(0.25),
                   rng_seed=np.int64(2))
    assert [type(s) for s in spec.block_sizes] == [int, int]
    assert type(spec.p_in) is float and type(spec.p_out) is float
    assert type(spec.rng_seed) is int
    # stored as the double the float32 becomes
    assert spec.p_out == 0.25 and SbmSpec((2,), np.float32(0.1), 0.0).p_in == float(
        np.float32(0.1))
    img = GreyImage(np.int64(2), np.float64(1.0), [0, 0])
    assert type(img.width) is int and type(img.height) is int
    assert type(extract_cluster(np.ones(3), np.float32(0.5)).threshold) is float
    report = kkt_residuals(_PROBLEM, np.ones(3), np.zeros(2), eps_sat=np.float32(1e-3))
    assert type(report.eps_sat) is float
    # parameters used but not stored take numpy scalars too
    assert sample_seeds([1, 2, 3], np.int64(2), rng_seed=np.int64(0)).size == 2
    assert reach_bound_check(_PROBLEM, _CLUSTER, np.int64(0))
    assert fiedler_vector(_CHAIN, UNNORMALIZED, tol=np.float32(1e-3)).shape == (3,)
    assert chain_graph(3, np.float32(2.0), [(np.int64(1), np.int64(3))]).weights.tolist() == [
        3.0, 2.0]


@pytest.mark.parametrize("block", [[1.5, 2.7, 3.2], [1, 1, 1], [-1, 0, 2], ["1", "2"]],
                         ids=["fractional", "duplicate", "non-positive", "strings"])
def test_sample_seeds_rejects_bad_block_ids(block):
    with pytest.raises(InvalidNode):
        sample_seeds(block, 2)


def test_sample_seeds_block_order_does_not_matter():
    block = list(range(1, 21))
    want = sample_seeds(block, 3, rng_seed=2)
    assert want.dtype == np.int64 and want.tolist() == [3, 5, 16]
    for same in (block[::-1], np.array(block, dtype=np.float64), np.array(block, dtype=np.int32)):
        assert sample_seeds(same, 3, rng_seed=2).tolist() == [3, 5, 16]
    with pytest.raises(CountTooLarge):
        sample_seeds(block, 21)


def test_fiedler_value_scores_every_finite_nonzero_vector():
    # the Rayleigh quotient does not depend on scale, so a vector whose
    # v @ v underflows or overflows scores as its multiple of largest
    # magnitude 1; a zero or non-finite vector has no score
    g = chain_graph(4)
    assert fiedler_value(g, [5e-324, 0.0, 0.0, 0.0]) == 1.0
    assert fiedler_value(g, [1e200, -1e200, 0.0, 0.0]) == 2.5
    for v in (np.zeros(4), [np.nan, 1.0, 0.0, 0.0], [np.inf, 0.0, 0.0, 0.0]):
        with pytest.raises(ValueError, match="v must be finite and not zero"):
            fiedler_value(g, v)


@pytest.mark.parametrize("signal", [[[0.9, 0.1], [0.8, 0.7]], 0.9, [[0.9]]],
                         ids=["2x2", "scalar", "1x1"])
def test_cluster_signal_must_be_one_dimensional(signal):
    with pytest.raises(DimensionMismatch, match="1-d"):
        extract_cluster(signal)
    with pytest.raises(DimensionMismatch, match="1-d"):
        indicator_error(signal, [1])


@pytest.mark.parametrize("ids, got", [([[2, 3], [1, 2]], "shape (2, 2)"), ([[1]], "shape (1, 1)"),
                                     (np.ones((2, 0)), "shape (2, 0)"), (np.array(2), "shape ()"),
                                     ([[1, 2], [3]], "[[1, 2], [3]]"), (3, "3")],
                         ids=["2x2", "1x1", "2x0", "0-d", "ragged", "scalar"])
def test_node_ids_must_be_one_flat_list(tmp_path, ids, got):
    # the 2x2 list holds node 2 twice, which a duplicate check over its
    # rows misses; the ragged list and the bare int have no shape, so the
    # message names the input itself
    g = chain_graph(4)
    calls = [lambda: NLassoProblem(g, ids, 0.1, 0.5),
             lambda: extract_cluster(np.ones(4), 0.5, seeds=ids),
             lambda: boundary(g, ids),
             lambda: indicator_error(np.ones(4), ids),
             lambda: write_node_set(tmp_path / "s.txt", ids),
             lambda: sample_seeds(ids, 1)]
    message = f"node ids must be a flat list, got {got}"
    for call in calls:
        with pytest.raises(InvalidNode, match=re.escape(message)):
            call()
    assert not (tmp_path / "s.txt").exists()


INPUT_ERRORS = [InvalidNode, InvalidEdge, DuplicateEdge, InvalidWeight, DimensionMismatch,
                CountTooLarge, InvalidOverride, PgmError]


@pytest.mark.parametrize("error", INPUT_ERRORS, ids=lambda e: e.__name__)
def test_input_errors_are_value_errors_and_exit_2(monkeypatch, capsys, tmp_path, error):
    assert issubclass(error, ValueError) and issubclass(error, NLassoError)

    def fail():
        raise error("bad input")

    monkeypatch.setattr(cli, "chain_problem", fail)
    assert cli.main(["chain-experiment", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "nlasso: bad input\n"


def test_runtime_errors_still_exit_3(monkeypatch, capsys, tmp_path):
    def fail():
        raise Disconnected("graph has more than one connected component")

    monkeypatch.setattr(cli, "chain_problem", fail)
    assert cli.main(["chain-experiment", "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "nlasso: graph has more than one connected component\n"


def test_only_graph_imports_numbers():
    # the numeric rule lives in graph._real and graph._whole; a module that
    # imports `numbers` is writing it out again by hand
    package = Path(nlasso.__file__).parent
    importers = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numbers" for name in names):
                importers.add(path.name)
    assert importers == {"graph.py"}
