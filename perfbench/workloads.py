"""The four benchmark workloads.

Each workload generates its inputs from the workload seed, builds its
graphs and problems through nlasso's public constructors in ``setup``,
lists its operations in ``ops`` (one pass runs each in order, each call
starting after the previous one returned) and checks a pass's results in
``check``.  The checks recompute what they need with plain numpy from
the inputs, so they do not trust the code they check.

Importing this module imports nlasso and, from the checkout's ``tests``,
the frozen criterion-5 instances and the oracle's random graph generator;
set-up time is measured from before that import.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import numpy as np

import nlasso
import nlasso.cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import oracle  # noqa: E402
from frozen_oracle import INSTANCES as FROZEN  # noqa: E402


# ---------------------------------------------------------------------------
# reference maths for the output checks (independent of nlasso's own code)


def divergence(n, src, dst, y):
    return np.bincount(src, weights=y, minlength=n) - np.bincount(dst, weights=y, minlength=n)


def solution_residuals(p, x, y):
    """(capacity_ok, gap / |S|, demand residual, jump residual) of a pair."""
    g = p.graph
    src, dst, w = np.asarray(g.src), np.asarray(g.dst), np.asarray(g.weights)
    s = np.asarray(p.seed_mask)
    cap = p.lam * w
    capacity_ok = bool(np.all(np.abs(y) <= cap))
    z = -divergence(g.n, src, dst, y)
    primal = (0.5 * np.sum((x[s] - 1.0) ** 2) + 0.5 * p.alpha * np.sum(x[~s] ** 2)
              + p.lam * np.sum(w * np.abs(x[src] - x[dst])))
    conj = np.sum(0.5 * z[s] ** 2 + z[s]) + np.sum(z[~s] ** 2) / (2.0 * p.alpha)
    gap = float(primal + conj) / int(s.sum())
    demand = max(float(np.max(np.abs(z[s] - (x[s] - 1.0)), initial=0.0)),
                 float(np.max(np.abs(z[~s] - p.alpha * x[~s]), initial=0.0)))
    loose = np.abs(y) < cap * (1.0 - 1e-6)
    jump = float(np.max(np.abs(x[src[loose]] - x[dst[loose]]), initial=0.0))
    return capacity_ok, gap, demand, jump


def normalized_laplacian(n, src, dst, w):
    """Dense D^{-1/2} (D - A) D^{-1/2} of a graph given by 0-based edges."""
    a = np.zeros((n, n))
    a[src, dst] = w
    a[dst, src] = w
    d = a.sum(axis=1)
    inv = 1.0 / np.sqrt(d)
    return np.eye(n) - inv[:, None] * a * inv[None, :]


def keyvalues(path) -> dict:
    values = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(" = ")
        values[key] = value
    return values


def read_ids(path) -> np.ndarray:
    text = Path(path).read_text(encoding="utf-8").split()
    return np.asarray([int(t) for t in text], dtype=np.int64)


def write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{line}\n" for line in lines)


def cli_ok(result) -> bool:
    return not isinstance(result, BaseException) and result == 0


# ---------------------------------------------------------------------------


class Workload:
    """Base: holds the seed and a private working directory."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.ops = []           # callables, one per operation of a pass
        self.edge_updates = 0   # sum over the pass's solves of edges x iterations

    def setup(self) -> None:
        raise NotImplementedError

    def check(self, results) -> list[str | None]:
        """One entry per op: None when it passed, else why it failed."""
        raise NotImplementedError

    def out_dir(self, k: int) -> Path:
        return self.workdir / f"out{k}"

    def clean(self) -> None:
        for k in range(len(self.ops)):
            shutil.rmtree(self.out_dir(k), ignore_errors=True)


class TinyBatch(Workload):
    """The 25 frozen criterion-5 instances plus seeded random small graphs."""

    name = "tiny-batch"
    ITERS = 1000
    # 50 solves make a pass of under a second, so a run times enough passes
    # for a steady median
    RANDOM = 25
    ALPHAS = (0.01, 0.1, 1.0)
    LAMBDAS = (0.05, 0.5)
    X_TOL = 1e-4
    RESIDUAL_TOL = 1e-3

    def random_instances(self):
        """The criterion-5 fixtures' distribution, with n stratified.

        As in ``tools/gen_oracle_fixtures.make_instances``: the oracle's
        random connected graph, one uniform seed node, alpha and lambda
        cycling the 3 x 2 grid.  n cycles through 2..6 instead of being
        drawn, so that each pass has the same size mix and the same work.
        """
        rng = np.random.default_rng(self.seed)
        grid = [(a, l) for a in self.ALPHAS for l in self.LAMBDAS]
        out = []
        for k in range(self.RANDOM):
            n = 2 + k % 5
            g = oracle.random_connected_graph(n, rng)
            alpha, lam = grid[k % len(grid)]
            out.append((g, int(rng.integers(1, n + 1)), alpha, lam, None))
        return out

    def setup(self):
        self.cfg = nlasso.SolverConfig(max_iters=self.ITERS)
        frozen = [(nlasso.build_graph(inst["n"], inst["edges"]), inst["seed"], inst["alpha"],
                   inst["lam"], np.asarray(inst["x_star"])) for inst in FROZEN]
        self.cases = []
        for g, seed, alpha, lam, x_star in frozen + self.random_instances():
            p = nlasso.NLassoProblem(g, [seed], alpha, lam)
            self.cases.append((p, x_star))
            self.edge_updates += g.num_edges * self.ITERS
        self.ops = [self._solver(p) for p, _ in self.cases]

    def _solver(self, p):
        return lambda: nlasso.run(p, self.cfg)

    def check(self, results):
        verdicts = []
        for (p, x_star), res in zip(self.cases, results):
            if isinstance(res, BaseException):
                verdicts.append(f"raised {res!r}")
                continue
            x, y = np.asarray(res.x), np.asarray(res.y)
            cap_ok, gap, demand, jump = solution_residuals(p, x, y)
            why = None
            if x_star is not None and not np.max(np.abs(x - x_star)) <= self.X_TOL:
                why = f"|x - x*| = {np.max(np.abs(x - x_star)):.2e}"
            elif not cap_ok:
                why = "capacity exceeded"
            elif not max(gap, demand, jump) <= self.RESIDUAL_TOL:
                why = f"gap/|S| {gap:.2e} demand {demand:.2e} jump {jump:.2e}"
            verdicts.append(why)
        return verdicts


class SegmentLarge(Workload):
    """`nlasso segment` on a noisy two-region greyscale image."""

    name = "segment-large"
    SIZE = 256
    RADIUS = 75
    SEED_RADIUS = 70
    SEED_STEP = 4
    JITTER = 8
    INSIDE, OUTSIDE, NOISE = 170, 80, 15
    ALPHA, LAM, ITERS = 1.0 / 200.0, 0.2, 700

    def setup(self):
        rng = np.random.default_rng(self.seed)
        n = self.SIZE
        cy, cx = n // 2 + rng.integers(-self.JITTER, self.JITTER + 1, size=2)
        rows, cols = np.mgrid[0:n, 0:n]
        self.region = (rows - cy) ** 2 + (cols - cx) ** 2 <= self.RADIUS ** 2
        grey = np.where(self.region, self.INSIDE, self.OUTSIDE)
        grey = grey + rng.integers(-self.NOISE, self.NOISE + 1, size=(n, n))
        pixels = np.clip(grey, 0, 255).astype(np.uint8)
        self.image = self.workdir / "image.pgm"
        with open(self.image, "wb") as fh:
            fh.write(f"P5\n{n} {n}\n255\n".encode("ascii") + pixels.tobytes())
        lattice = (rows % self.SEED_STEP == 0) & (cols % self.SEED_STEP == 0)
        inner = (rows - cy) ** 2 + (cols - cx) ** 2 <= self.SEED_RADIUS ** 2
        seed_ids = np.flatnonzero(lattice & inner) + 1
        self.seeds = self.workdir / "seeds.txt"
        write_lines(self.seeds, seed_ids)
        # the graph and problem the command will build, through the same constructors
        g = nlasso.grid_from_image(nlasso.read_pgm(self.image))
        nlasso.NLassoProblem(g, nlasso.read_node_set(self.seeds, g.n), self.ALPHA, self.LAM)
        self.edge_updates = g.num_edges * self.ITERS
        argv = ["segment", str(self.image), "--seeds", str(self.seeds),
                "--alpha", repr(self.ALPHA), "--lambda", repr(self.LAM),
                "--iters", str(self.ITERS), "--out", str(self.out_dir(0))]
        self.ops = [lambda: nlasso.cli.main(argv)]

    def check(self, results):
        if not cli_ok(results[0]):
            return [f"exit {results[0]!r}"]
        data = (self.out_dir(0) / "mask.pgm").read_bytes()
        mask = np.frombuffer(data[len(data) - self.SIZE ** 2:], dtype=np.uint8)
        wrong = int(np.sum((mask.reshape(self.SIZE, self.SIZE) == 255) != self.region))
        return [None if wrong == 0 else f"{wrong} wrong pixels"]


class SbmLarge(Workload):
    """`nlasso solve` on a large two-block SBM, then the spectral baseline."""

    name = "sbm-large"
    BLOCK = 2000
    P_IN, P_OUT = 20.0 / 2000, 1.0 / 2000
    SEEDS = 400
    ALPHA, LAM, ITERS = 1.0 / 40.0, 1.0 / 200.0, 1000
    MIN_ACCURACY = 0.99
    FIEDLER_TOL = 1e-10

    def setup(self):
        spec = nlasso.SbmSpec((self.BLOCK, self.BLOCK), self.P_IN, self.P_OUT,
                              rng_seed=self.seed)
        g, blocks = nlasso.sbm_graph(spec)
        seed_ids = nlasso.sample_seeds(blocks[0], self.SEEDS, rng_seed=self.seed)
        graph_file = self.workdir / "graph.txt"
        seed_file = self.workdir / "seeds.txt"
        write_lines(graph_file, (f"{i} {j} {float(w)!r}"
                                 for i, j, w in zip(g.src + 1, g.dst + 1, g.weights)))
        write_lines(seed_file, seed_ids)
        self.graph = nlasso.read_edge_list(graph_file)
        nlasso.NLassoProblem(self.graph, nlasso.read_node_set(seed_file, self.graph.n),
                             self.ALPHA, self.LAM)
        self.edge_updates = self.graph.num_edges * self.ITERS
        argv = ["solve", "--graph", str(graph_file), "--seeds", str(seed_file),
                "--alpha", repr(self.ALPHA), "--lambda", repr(self.LAM),
                "--iters", str(self.ITERS), "--out", str(self.out_dir(0))]
        self.ops = [lambda: nlasso.cli.main(argv),
                    lambda: nlasso.fiedler_vector(self.graph, nlasso.NORMALIZED,
                                                  tol=self.FIEDLER_TOL)]

    def check(self, results):
        verdicts = []
        solve, fiedler = results
        if not cli_ok(solve):
            verdicts.append(f"exit {solve!r}")
        else:
            out = self.out_dir(0)
            cluster = read_ids(out / "cluster.txt")
            inside = np.zeros(2 * self.BLOCK, dtype=bool)
            inside[cluster - 1] = True
            accuracy = float(np.mean(inside == (np.arange(2 * self.BLOCK) < self.BLOCK)))
            capacity = keyvalues(out / "certificates.txt").get("capacity_ok")
            if accuracy < self.MIN_ACCURACY:
                verdicts.append(f"accuracy {accuracy}")
            elif capacity != "true":
                verdicts.append(f"capacity_ok = {capacity}")
            else:
                verdicts.append(None)
        if isinstance(fiedler, BaseException):
            verdicts.append(f"raised {fiedler!r}")
            return verdicts
        # eigen-residual and deflation of the returned vector, matrix free
        g = self.graph
        v = np.asarray(fiedler, dtype=np.float64)
        src, dst, w = np.asarray(g.src), np.asarray(g.dst), np.asarray(g.weights)
        root_d = np.sqrt(np.bincount(src, weights=w, minlength=g.n)
                         + np.bincount(dst, weights=w, minlength=g.n))
        u = v / root_d
        t = w * (u[src] - u[dst])
        lv = divergence(g.n, src, dst, t) / root_d
        mu = float(v @ lv) / float(v @ v)
        residual = float(np.linalg.norm(lv - mu * v)) / float(np.linalg.norm(v))
        null = abs(float(v @ root_d)) / (float(np.linalg.norm(v)) * float(np.linalg.norm(root_d)))
        if not (max(residual, null) <= 1e-8 and abs(float(np.max(np.abs(v))) - 1.0) <= 1e-12):
            verdicts.append(f"eigen-residual {residual:.2e} nullspace {null:.2e}")
        else:
            verdicts.append(None)
        return verdicts


class PaperExperiments(Workload):
    """Acceptance criteria 1-4: chain experiment, spectral comparison, 10 SBMs."""

    name = "paper-experiments"
    CHAIN_N, CHAIN_W, CHAIN_SPECIAL = 100, 5.0 / 4.0, (4, 1.0)
    CHAIN_ALPHA, CHAIN_LAM, ITERS = 1.0 / 200.0, 2.0 / 10.0, 1000
    CHAIN_CLUSTER = [1, 2, 3, 4]
    SBM_BLOCK, SBM_P_IN, SBM_P_OUT, SBM_SEEDS = 100, 1.0 / 5.0, 1.0 / 100.0, 20
    SBM_ALPHA, SBM_LAM = 1.0 / 40.0, 1.0 / 200.0
    SBM_RUNS = 10
    FIEDLER_REL_TOL = 1e-8

    def setup(self):
        self.chain = nlasso.chain_graph(self.CHAIN_N, self.CHAIN_W, [self.CHAIN_SPECIAL])
        self.chain_problem = nlasso.NLassoProblem(self.chain, [1], self.CHAIN_ALPHA,
                                                  self.CHAIN_LAM)
        self.cfg = nlasso.SolverConfig(max_iters=self.ITERS)
        self.edge_updates = 2 * self.chain.num_edges * self.ITERS
        self.rng_seeds = [self.SBM_RUNS * self.seed + k for k in range(self.SBM_RUNS)]
        for rng_seed in self.rng_seeds:
            spec = nlasso.SbmSpec((self.SBM_BLOCK, self.SBM_BLOCK), self.SBM_P_IN,
                                  self.SBM_P_OUT, rng_seed=rng_seed)
            g, blocks = nlasso.sbm_graph(spec)
            seeds = nlasso.sample_seeds(blocks[0], self.SBM_SEEDS, rng_seed=rng_seed)
            nlasso.NLassoProblem(g, seeds, self.SBM_ALPHA, self.SBM_LAM)
            self.edge_updates += g.num_edges * self.ITERS
        chain_argv = ["chain-experiment", "--out", str(self.out_dir(0))]
        self.ops = [
            lambda: nlasso.cli.main(chain_argv),
            lambda: nlasso.run(self.chain_problem, self.cfg),
            lambda: nlasso.fiedler_vector(self.chain, nlasso.NORMALIZED, tol=1e-10),
        ]
        for k, rng_seed in enumerate(self.rng_seeds, start=3):
            argv = ["sbm-experiment", "--rng-seed", str(rng_seed), "--out", str(self.out_dir(k))]
            self.ops.append(lambda argv=argv: nlasso.cli.main(argv))
        self.lap = None

    def fiedler_reference(self):
        """Dense normalized Laplacian of the chain and its exact Fiedler value."""
        if self.lap is None:
            g = self.chain
            self.lap = normalized_laplacian(g.n, np.asarray(g.src), np.asarray(g.dst),
                                            np.asarray(g.weights))
            self.fiedler_exact = float(np.linalg.eigvalsh(self.lap)[1])
        return self.lap, self.fiedler_exact

    def check(self, results):
        verdicts = [None] * len(results)
        chain, signal, fiedler = results[:3]
        # criteria 1 and 2: chain cluster and its certificates
        if not cli_ok(chain):
            verdicts[0] = f"exit {chain!r}"
        else:
            out = self.out_dir(0)
            cluster = read_ids(out / "cluster.txt").tolist()
            values = keyvalues(out / "certificates.txt")
            flags = [values.get(k) for k in ("holds_injecting", "holds_absorbing",
                                             "reach_bound_holds")]
            if cluster != self.CHAIN_CLUSTER or flags != ["true"] * 3:
                verdicts[0] = f"cluster {cluster} certificates {flags}"
        # criterion 3: the TV signal beats the Fiedler vector; Fiedler value exact
        if isinstance(signal, BaseException):
            verdicts[1] = f"raised {signal!r}"
        if isinstance(fiedler, BaseException):
            verdicts[2] = f"raised {fiedler!r}"
        if verdicts[1] is None and verdicts[2] is None:
            x, v = np.asarray(signal.x), np.asarray(fiedler, dtype=np.float64)
            ind = np.zeros(self.CHAIN_N)
            ind[np.asarray(self.CHAIN_CLUSTER) - 1] = 1.0
            wins = []
            for hi in (20, self.CHAIN_N):
                e_tv, e_sp = x[:hi] - ind[:hi], v[:hi] - ind[:hi]
                wins += [np.linalg.norm(e_tv) < np.linalg.norm(e_sp),
                         np.max(np.abs(e_tv)) < np.max(np.abs(e_sp))]
            lap, exact = self.fiedler_reference()
            mu = float(v @ lap @ v) / float(v @ v)
            rel = abs(mu - exact) / exact
            if not all(wins):
                verdicts[1] = f"spectral comparison {wins}"
            if not rel <= self.FIEDLER_REL_TOL:
                verdicts[2] = f"Fiedler value off by {rel:.2e} relative"
        # criterion 4: at least 9 of 10 perfect recoveries, mean accuracy >= 0.99
        accuracies = []
        for k, res in enumerate(results[3:], start=3):
            if not cli_ok(res):
                verdicts[k] = f"exit {res!r}"
                accuracies.append(0.0)
            else:
                accuracies.append(float(keyvalues(self.out_dir(k) / "accuracy.txt")["accuracy"]))
        if sum(a == 1.0 for a in accuracies) < 9 or np.mean(accuracies) < 0.99:
            for k, a in enumerate(accuracies, start=3):
                verdicts[k] = verdicts[k] or f"block model accuracies {accuracies}"
        return verdicts


WORKLOADS = {cls.name: cls for cls in (TinyBatch, SegmentLarge, SbmLarge, PaperExperiments)}
