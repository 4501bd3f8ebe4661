import hashlib

import numpy as np
import pytest

from nlasso import cli
from nlasso.cli import main
from nlasso.generators import GreyImage, read_pgm, write_pgm


@pytest.fixture
def tiny_instance(tmp_path):
    graph = tmp_path / "edges.txt"
    graph.write_text("# three-node path\n1 2 1.0\n2 3 1.0\n")
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("1\n")
    return graph, seeds


def read(path):
    return path.read_text(encoding="utf-8")


def test_solve_writes_outputs(tmp_path, tiny_instance):
    graph, seeds = tiny_instance
    out = tmp_path / "out"
    code = main(["solve", "--graph", str(graph), "--seeds", str(seeds),
                 "--alpha", "0.1", "--lambda", "0.5", "--iters", "2000",
                 "--out", str(out)])
    assert code == 0
    signal = read(out / "signal.csv").splitlines()
    assert signal[0] == "i,x"
    assert len(signal) == 4
    assert [int(line) for line in read(out / "cluster.txt").split()] == [1, 2, 3]
    cert = read(out / "certificates.txt")
    assert "holds_injecting = true" in cert
    assert "capacity_ok = true" in cert


def test_solve_with_manifest_and_override(tmp_path, tiny_instance):
    graph, seeds = tiny_instance
    manifest = tmp_path / "run.manifest"
    manifest.write_text(
        f"# benchmark run\ngraph = {graph}\nseeds = {seeds}\n"
        f"alpha = 0.1\nlambda = 0.5\niters = 50\nthreshold = 0.0001\n"
        f"out = {tmp_path / 'a'}\n")
    assert main(["solve", "--manifest", str(manifest)]) == 0
    assert (tmp_path / "a" / "signal.csv").exists()
    assert "threshold = 0.0001\n" in read(tmp_path / "a" / "certificates.txt")
    # flags override the manifest values
    assert main(["solve", "--manifest", str(manifest),
                 "--out", str(tmp_path / "b"), "--threshold", "0.25"]) == 0
    assert (tmp_path / "b" / "signal.csv").exists()
    assert "threshold = 0.25\n" in read(tmp_path / "b" / "certificates.txt")


def test_solve_missing_file_exits_2(tmp_path, tiny_instance):
    _, seeds = tiny_instance
    code = main(["solve", "--graph", str(tmp_path / "nope.txt"),
                 "--seeds", str(seeds), "--alpha", "0.1", "--lambda", "0.5",
                 "--out", str(tmp_path / "out")])
    assert code == 2


def test_solve_invalid_alpha_exits_2(tmp_path, tiny_instance):
    graph, seeds = tiny_instance
    code = main(["solve", "--graph", str(graph), "--seeds", str(seeds),
                 "--alpha", "0", "--lambda", "0.5", "--out", str(tmp_path / "out")])
    assert code == 2


@pytest.mark.parametrize("flags, edges", [
    (["--alpha", "inf"], "1 2 1.0\n2 3 1.0\n"),
    (["--lambda", "inf"], "1 2 1.0\n2 3 1.0\n"),
    (["--threshold", "nan"], "1 2 1.0\n2 3 1.0\n"),
    ([], "1 2 1.0\n2 3 inf\n"),
    (["--iters", "0"], "1 2 1.0\n2 3 1.0\n"),
    # without the node-count check these allocate node arrays of 9e9 entries
    ([], "1 2 1.0\n2 9000000000 1.0\n"),
    ([], "# parsed line by line\n1 2 1.0\n2 9000000000 1.0\n"),
    # finite lambda and weights whose product lambda * W_e overflows
    (["--lambda", "10"], "1 2 1.0\n2 3 1e308\n"),
    # finite weights and capacities whose sum at node 2 overflows
    (["--lambda", "1", "--iters", "50"], "1 2 1e308\n2 3 1e308\n"),
    # nothing overflows, but lambda times node 2's weighted degree is far
    # beyond 2**52, which makes the duality gap meaningless
    (["--lambda", "1", "--iters", "50"], "1 2 1e308\n2 3 6e307\n"),
], ids=["alpha-inf", "lambda-inf", "threshold-nan", "weight-inf", "iters-zero",
        "id-huge", "id-huge-commented", "capacity-overflow", "degree-overflow",
        "weight-scale"])
@pytest.mark.filterwarnings("error")
def test_solve_non_finite_input_exits_2(tmp_path, capsys, flags, edges):
    graph = tmp_path / "edges.txt"
    graph.write_text(edges)
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("1\n")
    settings = {"--alpha": "0.1", "--lambda": "0.5", "--threshold": "0.5", "--iters": "10"}
    settings.update(zip(flags[::2], flags[1::2]))
    argv = ["solve", "--graph", str(graph), "--seeds", str(seeds),
            "--out", str(tmp_path / "o")]
    for flag, value in settings.items():
        argv += [flag, value]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("nlasso: ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_failed_write_leaves_no_partial_file(tmp_path, tiny_instance, monkeypatch):
    graph, seeds = tiny_instance
    argv = ["solve", "--graph", str(graph), "--seeds", str(seeds),
            "--alpha", "0.1", "--lambda", "0.5", "--iters", "10"]
    kept = tmp_path / "kept"
    assert main(argv + ["--out", str(kept)]) == 0
    before = {f.name: f.read_bytes() for f in kept.iterdir()}

    def failing_lines(x, limit=None):
        yield "i,x"
        yield "1,0.5"
        raise OSError("disk full")

    monkeypatch.setattr(cli, "_signal_csv_lines", failing_lines)
    fresh = tmp_path / "fresh"
    assert main(argv + ["--out", str(fresh)]) == 3
    assert list(fresh.iterdir()) == []
    # an earlier run's files stay whole
    assert main(argv + ["--out", str(kept)]) == 3
    assert {f.name: f.read_bytes() for f in kept.iterdir()} == before


def test_solve_threshold_above_signal_writes_empty_cluster(tmp_path, tiny_instance):
    # no node's signal exceeds 2: the cluster is empty and holds no seed, so
    # the certificates end without the boundary conditions
    graph, seeds = tiny_instance
    out = tmp_path / "out"
    assert main(["solve", "--graph", str(graph), "--seeds", str(seeds), "--alpha", "0.1",
                 "--lambda", "0.5", "--iters", "50", "--threshold", "2",
                 "--out", str(out)]) == 0
    assert read(out / "cluster.txt") == ""
    lines = read(out / "certificates.txt").splitlines()
    assert lines[-1] == "seeds_in_cluster = false"
    assert "threshold = 2.0" in lines and "cluster_size = 0" in lines
    assert not any(line.startswith("holds_") for line in lines)


def test_solve_without_graph_exits_2(tmp_path, tiny_instance, capsys):
    _, seeds = tiny_instance
    assert main(["solve", "--seeds", str(seeds), "--alpha", "0.1", "--lambda", "0.5",
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "nlasso: missing required setting `graph`\n"
    assert not (tmp_path / "o").exists()


def test_negative_workers_exits_2(tmp_path, capsys):
    assert main(["chain-experiment", "--workers", "-1", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "nlasso: --workers must be >= 0, got -1\n"
    assert not (tmp_path / "o").exists()


def test_solve_unknown_manifest_key_exits_2(tmp_path, capsys):
    manifest = tmp_path / "m.txt"
    manifest.write_text("graph = g.txt\nwat = 1\ncolour = red\n")
    assert main(["solve", "--manifest", str(manifest)]) == 2
    # the first unknown key in file order, at its line
    assert capsys.readouterr().err == f"nlasso: {manifest}:2: unknown key `wat`\n"


def test_solve_manifest_workers_key_exits_2(tmp_path, tiny_instance, capsys):
    # `workers` is a flag only: a manifest key would go unread and unchecked
    graph, seeds = tiny_instance
    manifest = tmp_path / "m.txt"
    manifest.write_text(f"graph = {graph}\nseeds = {seeds}\nalpha = 0.1\n"
                        f"lambda = 0.5\nout = {tmp_path / 'o'}\nworkers = -1\n")
    assert main(["solve", "--manifest", str(manifest)]) == 2
    assert "workers" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_solve_manifest_bad_line_names_path_and_line(tmp_path, capsys):
    manifest = tmp_path / "m.txt"
    manifest.write_text("# run\n\ngraph = g.txt\nalpha 0.1\n")
    assert main(["solve", "--manifest", str(manifest)]) == 2
    assert f"{manifest}:4: " in capsys.readouterr().err


# a value that does not convert, then one out of the solver's range, reported
# under the manifest's key
@pytest.mark.parametrize("key, value, message", [
    ("alpha", "abc", "alpha: could not convert string to float: 'abc'"),
    ("iters", "1e3", "iters: invalid literal for int() with base 10: '1e3'"),
    ("alpha", "-1", "alpha must be positive and finite, got -1.0"),
    ("lambda", "0", "lambda must be positive and finite, got 0.0"),
    ("iters", "0", "iters must be a whole number >= 1, got 0"),
    ("threshold", "nan", "threshold must be finite, got nan"),
], ids=["alpha", "iters", "alpha-range", "lambda-range", "iters-range", "threshold-range"])
def test_solve_manifest_bad_value_names_path_and_line(tmp_path, tiny_instance, capsys,
                                                       key, value, message):
    graph, seeds = tiny_instance
    settings = {"graph": graph, "seeds": seeds, "alpha": 0.1, "lambda": 0.5, "iters": 10,
                "out": tmp_path / "o", key: value}
    manifest = tmp_path / "m.txt"
    manifest.write_text("# run\n" + "".join(f"{k} = {v}\n" for k, v in settings.items()))
    assert main(["solve", "--manifest", str(manifest)]) == 2
    lineno = 2 + list(settings).index(key)
    assert capsys.readouterr().err == f"nlasso: {manifest}:{lineno}: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["solve", "segment"])
@pytest.mark.parametrize("flag, value, message", [
    ("--lambda", "0", "--lambda must be positive and finite, got 0.0"),
    ("--iters", "0", "--iters must be a whole number >= 1, got 0"),
    ("--alpha", "nan", "--alpha must be positive and finite, got nan"),
    ("--threshold", "inf", "--threshold must be finite, got inf"),
], ids=["lambda", "iters", "alpha", "threshold"])
def test_bad_flag_value_names_the_flag(tmp_path, tiny_instance, capsys, command, flag, value,
                                       message):
    graph, seeds = tiny_instance
    image = tmp_path / "image.pgm"
    write_pgm(image, GreyImage(3, 1, [0, 128, 255]))
    inputs = {"solve": ["--graph", str(graph)], "segment": [str(image)]}[command]
    # argparse keeps the last value of a repeated flag
    argv = [command, *inputs, "--seeds", str(seeds), "--alpha", "0.1", "--lambda", "0.5",
            flag, value, "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"nlasso: {message}\n"
    assert not (tmp_path / "o").exists()


def test_solve_manifest_duplicate_key_exits_2(tmp_path, tiny_instance, capsys):
    # a second `graph` line would otherwise replace the first
    graph, seeds = tiny_instance
    other = tmp_path / "other.txt"
    other.write_text("1 2 1.0\n")
    manifest = tmp_path / "m.txt"
    manifest.write_text(f"graph = {graph}\nseeds = {seeds}\nalpha = 0.1\nlambda = 0.5\n"
                        f"out = {tmp_path / 'o'}\ngraph = {other}\n")
    assert main(["solve", "--manifest", str(manifest)]) == 2
    assert capsys.readouterr().err == f"nlasso: {manifest}:6: duplicate key `graph`\n"
    assert not (tmp_path / "o").exists()
    # without the second line the manifest solves the first graph
    manifest.write_text("".join(read(manifest).splitlines(keepends=True)[:-1]))
    assert main(["solve", "--manifest", str(manifest)]) == 0
    assert len(read(tmp_path / "o" / "signal.csv").splitlines()) == 4


def test_solve_isolated_node_exits_3(tmp_path):
    graph = tmp_path / "edges.txt"
    graph.write_text("1 3 1.0\n")  # node 2 has no incident edge
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("1\n")
    code = main(["solve", "--graph", str(graph), "--seeds", str(seeds),
                 "--alpha", "0.1", "--lambda", "0.5", "--out", str(tmp_path / "o")])
    assert code == 3


def test_solve_bad_inputs_exit_2(tmp_path):
    graph = tmp_path / "edges.txt"
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("1\n")
    graph.write_text("1 2 1.0\n2 2 1.0\n")  # self-loop
    assert main(["solve", "--graph", str(graph), "--seeds", str(seeds),
                 "--alpha", "0.1", "--lambda", "0.5",
                 "--out", str(tmp_path / "o")]) == 2
    graph.write_text("1 2 1.0\n2 3 1.0\n")
    seeds.write_text("4\n")  # seed id outside the graph
    assert main(["solve", "--graph", str(graph), "--seeds", str(seeds),
                 "--alpha", "0.1", "--lambda", "0.5",
                 "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("edges, seed_ids, message", [
    ("", "1\n", "{graph}: no edges"),
    ("# header\n\n# note\n", "1\n", "{graph}: no edges"),
    ("1 2 1.0\n2 3 1.0\n", "1\n99999999999999999999\n",
     "{seeds}:2: node id 99999999999999999999 is not an integer in 1..3"),
    ("1 2 0.5\n0 3 1\n", "1\n", "{graph}:2: node id 0 is not an integer in 1..3"),
    ("1 2 0.5\n\n2 2 1\n", "1\n", "{graph}:3: self-loop at node 2"),
    ("# c\n1 2 0.5\n\n2 2 1\n", "1\n", "{graph}:4: self-loop at node 2"),
    ("1 2 0.5\n2 3 1\n2 1 4\n", "1\n", "{graph}:3: edge (1, 2) listed twice"),
    ("1 2 1e308\n2 3 1e308\n", "1\n", "{graph}: the edge weights at node 2 sum past the "
                                        "largest double (weighted degree inf)"),
], ids=["graph-empty", "graph-comments-only", "seed-id-past-int64", "graph-id-zero",
        "graph-self-loop", "graph-self-loop-after-comment", "graph-duplicate-edge",
        "graph-weighted-degree-overflow"])
def test_solve_bad_input_file_names_it(tmp_path, capsys, edges, seed_ids, message):
    graph, seeds = tmp_path / "edges.txt", tmp_path / "seeds.txt"
    graph.write_text(edges)
    seeds.write_text(seed_ids)
    assert main(["solve", "--graph", str(graph), "--seeds", str(seeds), "--alpha", "0.1",
                 "--lambda", "0.5", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"nlasso: {message.format(graph=graph, seeds=seeds)}\n"
    assert not (tmp_path / "o").exists()


def test_chain_experiment_outputs(tmp_path):
    out = tmp_path / "chain"
    assert main(["chain-experiment", "--out", str(out)]) == 0
    nl = read(out / "nLassoChain.csv").splitlines()
    fd = read(out / "FiedlerChain.csv").splitlines()
    assert nl[0] == "i,x" and fd[0] == "i,x"
    assert len(nl) == 21 and len(fd) == 21
    assert [int(line) for line in read(out / "cluster.txt").split()] == [1, 2, 3, 4]
    cert = read(out / "certificates.txt")
    assert "reach_bound_holds = true" in cert
    assert "holds_absorbing = true" in cert


def test_chain_experiment_deterministic(tmp_path):
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    assert main(["chain-experiment", "--out", str(out1)]) == 0
    assert main(["chain-experiment", "--out", str(out2), "--workers", "4"]) == 0
    for name in ("nLassoChain.csv", "FiedlerChain.csv", "certificates.txt", "cluster.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_sbm_experiment(tmp_path):
    out = tmp_path / "sbm"
    assert main(["sbm-experiment", "--rng-seed", "3", "--out", str(out)]) == 0
    text = read(out / "accuracy.txt")
    value = float([l for l in text.splitlines() if l.startswith("accuracy")][0]
                  .split("=")[1])
    assert 0.0 <= value <= 1.0
    assert (out / "signal.csv").exists() and (out / "cluster.txt").exists()


def test_segment_uniform_image(tmp_path):
    img = GreyImage(8, 8, np.full(64, 128))
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("10\n")
    out = tmp_path / "seg"
    code = main(["segment", str(path), "--seeds", str(seeds),
                 "--alpha", "0.005", "--lambda", "5.0", "--iters", "2000",
                 "--out", str(out)])
    assert code == 0
    mask = read_pgm(out / "mask.pgm")
    assert np.all(mask.pixels == 255)


def test_segment_malformed_pgm_exits_2(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_text("P7\nnot a pgm\n")
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("1\n")
    code = main(["segment", str(path), "--seeds", str(seeds),
                 "--out", str(tmp_path / "o")])
    assert code == 2


def test_csv_uses_lf_line_endings(tmp_path, tiny_instance):
    graph, seeds = tiny_instance
    out = tmp_path / "out"
    assert main(["solve", "--graph", str(graph), "--seeds", str(seeds),
                 "--alpha", "0.1", "--lambda", "0.5", "--iters", "10",
                 "--out", str(out)]) == 0
    for name in ("signal.csv", "cluster.txt", "certificates.txt"):
        data = (out / name).read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")


def test_csv_values_round_trip(tmp_path, tiny_instance):
    graph, seeds = tiny_instance
    out = tmp_path / "out"
    assert main(["solve", "--graph", str(graph), "--seeds", str(seeds),
                 "--alpha", "0.1", "--lambda", "0.5", "--iters", "123",
                 "--out", str(out)]) == 0
    from nlasso import NLassoProblem, SolverConfig, read_edge_list, run
    g = read_edge_list(graph)
    res = run(NLassoProblem(g, [1], 0.1, 0.5), SolverConfig(max_iters=123))
    rows = read(out / "signal.csv").splitlines()[1:]
    parsed = np.array([float(r.split(",")[1]) for r in rows])
    assert np.array_equal(parsed, res.x)  # repr is shortest round-trip


def test_missing_out_exits_2(tmp_path):
    assert main(["chain-experiment"]) == 2


def test_bad_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--no-such-flag"])
    assert exc.value.code == 2


def two_region_image(path, size=64):
    """A disc of grey 170 on grey 80, with a fixed +-15 texture."""
    rows, cols = np.mgrid[0:size, 0:size]
    inside = (rows - 30) ** 2 + (cols - 34) ** 2 <= 20 ** 2
    grey = np.where(inside, 170, 80) + (rows * 7 + cols * 13) % 31 - 15
    write_pgm(path, GreyImage(size, size, grey.ravel()))



def test_segment_defaults_match_their_flags(tmp_path):
    # segment's defaults are alpha 1/200, lambda 0.2, 1000 iterations and
    # threshold 0.5: the same files as those values given as flags
    image = tmp_path / "disc.pgm"
    two_region_image(image, size=24)
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("300\n")
    argv = ["segment", str(image), "--seeds", str(seeds)]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert main(argv + ["--alpha", "0.005", "--lambda", "0.2", "--iters", "1000",
                        "--threshold", "0.5", "--out", str(tmp_path / "b")]) == 0
    for name in ("mask.pgm", "signal.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    # 999 iterations give another signal, so the default budget shows
    assert main(argv + ["--iters", "999", "--out", str(tmp_path / "c")]) == 0
    signals = [(tmp_path / out / "signal.csv").read_bytes() for out in ("a", "c")]
    assert signals[0] != signals[1]

# sha256 of every output file, recorded from a build before the solver had
# more than one flow layout: a change of layout must not change a byte.  The
# 64 x 64 grid takes the band layout (its mask is exactly the disc), the
# four-node graph the scalar layout (m + n = 8).  The two experiments' files
# were recorded before they were built in cli.chain_problem and
# cli.sbm_problem; the chain takes the gather layout.  FiedlerChain.csv is
# left out: it goes through LAPACK and BLAS, whose last bits may differ
# between builds.
PINNED_DIGESTS = {
    "chain-experiment": {
        "certificates.txt": "cd64c330c1f6b4ebab3fefb7ddfdd3a8b31c9ab5fce33d48d110f7fe3e2afcb0",
        "cluster.txt": "16fbd7d1f18d2fedb247d73edc3bc6aa040f5ab99bd3b48c35b79e543d22179b",
        "nLassoChain.csv": "93477d13c6eb27d8d1330be67fa777df656786fe0cd312c85054a3cab3a66f43",
    },
    "sbm-experiment": {
        "accuracy.txt": "6def1d1c2664fd0f41062ba3c65411b54bba8e7e78473c456573628c32b0e5e8",
        "cluster.txt": "93d4e5c77838e0aa5cb6647c385c810a7c2782bf769029e6c420052048ab22bb",
        "signal.csv": "ef3ecfe4937b0898d16a11032dbca9c6180258c8bf0ade66b09466dc0afbee2f",
    },
    "segment": {
        "mask.pgm": "e1e0aaf23ea788b3ab483a2dcbab34c912548c2b6d3d161c4662044d94f7f910",
        "signal.csv": "69e7c77110a9457d025303299ce19c1a9eefcc7d2b947dddfb56a2b0d4106f67",
    },
    "solve": {
        "certificates.txt": "9bd43e0377b9ca676fad4b3a37c6ba7be30bf96b208a4b2d064e50f5626c5588",
        "cluster.txt": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
        "signal.csv": "e7122ba7f47522f74701c1dafdadecf667b98e8f06e554ee6f0372b802e9ea83",
    },
}


@pytest.mark.parametrize("command", sorted(PINNED_DIGESTS))
def test_outputs_match_pinned_digests(tmp_path, command):
    if command == "segment":
        image = tmp_path / "disc.pgm"
        two_region_image(image)
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("".join(f"{r * 64 + c + 1}\n" for r, c in
                                 ((30, 34), (24, 28), (36, 40), (22, 38))))
        argv = ["segment", str(image), "--seeds", str(seeds), "--alpha", "0.005",
                "--lambda", "0.2", "--iters", "600"]
    elif command == "chain-experiment":
        argv = ["chain-experiment"]
    elif command == "sbm-experiment":
        argv = ["sbm-experiment", "--rng-seed", "3"]
    else:
        # the inputs of acceptance criterion 9
        graph = tmp_path / "edges.txt"
        graph.write_text("1 2 1.0\n2 3 0.5\n3 4 2.0\n1 4 1.5\n")
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("2\n")
        argv = ["solve", "--graph", str(graph), "--seeds", str(seeds),
                "--alpha", "0.2", "--lambda", "0.1", "--iters", "400"]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()
               if f.name != "FiedlerChain.csv"}
    assert digests == PINNED_DIGESTS[command]
