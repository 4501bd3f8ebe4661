"""One rule per kind of argument, and one base for the input errors.

Every numeric public parameter is a real number, not a bool, in its range,
and is stored as a Python float or int; a bad value raises a ValueError
that names the parameter.  Every array holds numbers; a signal, flow or
vector of anything else raises a ValueError that names it.  A path goes
through os.fspath, as open does, and a library object is duck typed: a
wrong one raises the TypeError or AttributeError of its first use.  The
input errors are ValueErrors, which the CLI reports with exit code 2.
"""

import ast
import math
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nlasso
from nlasso import (
    NORMALIZED,
    BoundaryConditionReport,
    ClusterResult,
    CountTooLarge,
    DimensionMismatch,
    Disconnected,
    DuplicateEdge,
    GreyImage,
    IndicatorError,
    InvalidEdge,
    InvalidNode,
    InvalidOverride,
    InvalidWeight,
    KKTReport,
    LaplacianOperator,
    NLassoError,
    NLassoProblem,
    PgmError,
    SbmSpec,
    SolverConfig,
    SolverResult,
    UNNORMALIZED,
    boundary_conditions,
    build_graph,
    chain_graph,
    conjugate_f,
    conjugate_g_feasible,
    divergence,
    duality_gap,
    extract_cluster,
    fiedler_value,
    fiedler_vector,
    grid_from_image,
    incidence_apply,
    indicator_error,
    is_connected,
    kkt_residuals,
    laplacian,
    primal_objective,
    reach_bound_check,
    read_edge_list,
    read_node_set,
    read_pgm,
    run,
    sample_seeds,
    sbm_graph,
    total_variation,
    write_node_set,
    write_pgm,
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
    assert type(SolverConfig(max_iters=np.int64(5)).max_iters) is int
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


@pytest.mark.parametrize("block", [[1.5, 2.7, 3.2], [1, 1, 1], [-1, 0, 2], ["1", "2"],
                                   [True, 2, 3]],
                         ids=["fractional", "duplicate", "non-positive", "strings", "bool"])
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


# a vector argument given values that are not real numbers, of which a
# float64 conversion would make numbers: the real part of a complex, nan for
# None, 0/1 for bools and the number a string spells
NOT_REAL = {
    "complex signal": (lambda: indicator_error(np.array([1 + 2j, 0, 0]), [1]), "node signal"),
    # its real part, 0.1, is within the capacity 0.5
    "complex flow": (lambda: kkt_residuals(_PROBLEM, np.ones(3), np.array([0.1 + 5j, 0.0])),
                     "edge flow"),
    "None in signal": (lambda: primal_objective(_PROBLEM, [1, None, 0]), "node signal"),
    "bool signal": (lambda: extract_cluster(np.array([True, False, True])), "node signal"),
    "str signal": (lambda: total_variation(_CHAIN, ["1", "0", "0"]), "node signal"),
    # numpy makes a bool among numbers a number: 1 here, and 1.0 below
    "bool in signal list": (lambda: primal_objective(_PROBLEM, [True, 0, 0]),
                            "node signal must hold real numbers, got dtype bool"),
    "numpy bool in flow tuple": (lambda: divergence(_CHAIN, (0.5, np.True_)),
                                 "edge flow must hold real numbers, got dtype bool"),
    "dict flow": (lambda: divergence(_CHAIN, {}), "edge flow"),
    "int past the float range": (lambda: fiedler_value(_CHAIN, [10 ** 400, 0, 0]),
                                 "node signal holds an integer past the float range"),
    # numpy's own message for a ragged list names no argument
    "ragged signal": (lambda: primal_objective(_PROBLEM, [[1, 2], [3]]),
                      re.escape("node signal must not be ragged, got [[1, 2], [3]]")),
    "ragged flow": (lambda: kkt_residuals(_PROBLEM, np.ones(3), [[0.1], [0.2, 0.3]]),
                    re.escape("edge flow must not be ragged, got [[0.1], [0.2, 0.3]]")),
    "ragged pixels": (lambda: GreyImage(2, 1, [[1], [2, 3]]),
                      re.escape("pixels must not be ragged, got [[1], [2, 3]]")),
}


@pytest.mark.parametrize("case", NOT_REAL)
def test_vector_of_anything_but_real_numbers_raises_value_error_naming_it(case):
    call, what = NOT_REAL[case]
    with pytest.raises(ValueError, match=what):
        call()


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


_IMAGE = GreyImage(2, 1, [0, 255])
_FILES = {"edges.txt": "1 2 1.0\n2 3 1.0\n", "nodes.txt": "1\n",
          "image.pgm": "P2 2 1 255 0 255\n",
          # the one string among the malformed values below, as a path
          "1": "1 2 1.0\n"}


def _write_files():
    """Write _FILES to the working directory, over any change a call made."""
    for name, text in _FILES.items():
        Path(name).write_text(text, encoding="utf-8")


# every public callable but Graph (made by build_graph alone), called with
# valid arguments, and the rule for each argument: V for a value (a number,
# an array, node ids or a mode), O for a library object, P for a path
# (relative to a directory that holds _FILES)
PUBLIC_CALLS = {
    "build_graph": (build_graph, "VV", (3, [(1, 2, 1.0), (2, 3, 1.0)])),
    "divergence": (divergence, "OV", (_CHAIN, np.zeros(2))),
    "incidence_apply": (incidence_apply, "OV", (_CHAIN, np.zeros(3))),
    "is_connected": (is_connected, "O", (_CHAIN,)),
    "read_edge_list": (read_edge_list, "P", ("edges.txt",)),
    "read_node_set": (read_node_set, "PV", ("nodes.txt", 3)),
    "write_node_set": (write_node_set, "PV", ("out.txt", [1])),
    "NLassoProblem": (NLassoProblem, "OVVV", (_CHAIN, [1], 0.25, 0.5)),
    "conjugate_f": (conjugate_f, "OV", (_PROBLEM, np.zeros(3))),
    "conjugate_g_feasible": (conjugate_g_feasible, "OV", (_PROBLEM, np.zeros(2))),
    "duality_gap": (duality_gap, "OVV", (_PROBLEM, np.ones(3), np.zeros(2))),
    "primal_objective": (primal_objective, "OV", (_PROBLEM, np.ones(3))),
    "total_variation": (total_variation, "OV", (_CHAIN, np.ones(3))),
    "SolverConfig": (SolverConfig, "V", (10,)),
    "run": (run, "OO", (_PROBLEM, SolverConfig(10))),
    "SolverResult": (SolverResult, "VVV", (np.ones(3), np.zeros(2), 10)),
    "ClusterResult": (ClusterResult, "VVV", (np.array([1]), 0.5, True)),
    "KKTReport": (KKTReport, "VVVVV", (0.0, 0.0, True, 0.0, 1e-6)),
    "BoundaryConditionReport": (BoundaryConditionReport, "VVVVVV",
                                (1.0, 0.5, 1.0, 1.0, True, True)),
    "boundary_conditions": (boundary_conditions, "OOV", (_PROBLEM, _CLUSTER, np.ones(3))),
    "extract_cluster": (extract_cluster, "VVV", (np.ones(3), 0.5, [1])),
    "kkt_residuals": (kkt_residuals, "OVVV", (_PROBLEM, np.ones(3), np.zeros(2), 1e-6)),
    "reach_bound_check": (reach_bound_check, "OOV", (_PROBLEM, _CLUSTER, 1)),
    "LaplacianOperator": (LaplacianOperator, "OV", (_CHAIN, NORMALIZED)),
    "LaplacianOperator.apply": (LaplacianOperator(_CHAIN, NORMALIZED).apply, "V", (np.ones(3),)),
    "laplacian": (laplacian, "OV", (_CHAIN, UNNORMALIZED)),
    "fiedler_value": (fiedler_value, "OVV", (_CHAIN, [1.0, 0.0, -1.0], UNNORMALIZED)),
    "fiedler_vector": (fiedler_vector, "OVV", (_CHAIN, UNNORMALIZED, 1e-8)),
    "indicator_error": (indicator_error, "VV", (np.ones(3), [1])),
    "IndicatorError": (IndicatorError, "VV", (0.0, 0.0)),
    "GreyImage": (GreyImage, "VVV", (2, 1, [0, 255])),
    "SbmSpec": (SbmSpec, "VVVV", ((3, 3), 0.5, 0.1, 0)),
    "chain_graph": (chain_graph, "VVV", (3, 1.0, [(1, 2.0)])),
    "grid_from_image": (grid_from_image, "O", (_IMAGE,)),
    "read_pgm": (read_pgm, "P", ("image.pgm",)),
    "sample_seeds": (sample_seeds, "VVV", ([1, 2, 3], 2, 0)),
    "sbm_graph": (sbm_graph, "O", (SbmSpec((3, 3), 0.5, 0.1),)),
    "write_pgm": (write_pgm, "PO", ("out.pgm", _IMAGE)),
}

MALFORMED = [None, True, 1 + 0j, "1", {}, object(), math.nan, math.inf, -1, 0, 2 ** 70,
             10 ** 400, [[1], [2, 3]], [None], np.array([1 + 1j])]


def test_public_calls_are_every_public_callable_with_valid_arguments(tmp_path, monkeypatch):
    # else a call could raise its ValueError whatever the malformed value
    monkeypatch.chdir(tmp_path)
    _write_files()
    names = {n for n in nlasso.__all__ if callable(obj := getattr(nlasso, n))
             and not (isinstance(obj, type) and issubclass(obj, Exception))}
    assert names - {"Graph"} == set(PUBLIC_CALLS) - {"LaplacianOperator.apply"}
    for name, (call, rules, args) in PUBLIC_CALLS.items():
        assert len(rules) == len(args), name
        call(*args)


@settings(derandomize=True, max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_argument_returns_or_raises_value_error(tmp_path, monkeypatch, data):
    # only the object and path rules let a TypeError or AttributeError out
    monkeypatch.chdir(tmp_path)
    _write_files()
    name = data.draw(st.sampled_from(sorted(PUBLIC_CALLS)), label="callable")
    call, rules, args = PUBLIC_CALLS[name]
    k = data.draw(st.integers(0, len(args) - 1), label="position")
    args = list(args)
    args[k] = data.draw(st.sampled_from(MALFORMED), label="value")
    try:
        call(*args)
    except ValueError:
        pass
    except (TypeError, AttributeError):
        if rules[k] == "V":
            raise


def test_reader_given_a_descriptor_raises_type_error_and_leaves_it_open(tmp_path):
    # in a child process: a reader that took the int for a descriptor would
    # close a file the test process holds
    path = tmp_path / "edges.txt"
    path.write_text("1 2 1.0\n", encoding="utf-8")
    script = textwrap.dedent("""
        import os, sys
        sys.path.insert(0, sys.argv[2])
        from nlasso import read_edge_list, read_node_set, read_pgm
        fd = os.open(sys.argv[1], os.O_RDONLY)
        for read in (read_edge_list, lambda path: read_node_set(path, 3), read_pgm):
            try:
                read(fd)
            except TypeError:
                os.fstat(fd)
            else:
                sys.exit("a reader took an int for a path")
    """)
    src = Path(nlasso.__file__).parent.parent
    proc = subprocess.run([sys.executable, "-c", script, str(path), str(src)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


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
