import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AB_RUN = ROOT / "tools" / "ab_run.py"


def ab_run(other, *flags):
    return subprocess.run([sys.executable, str(AB_RUN), str(other), *flags],
                          capture_output=True, text=True, timeout=300)


def test_ab_run_against_the_same_checkout():
    # every workload's problems at 3 iterations: both sides load, agree bit
    # for bit and are timed
    proc = ab_run(ROOT, "--iters", "3", "--rounds", "2")
    assert proc.returncode == 0, proc.stderr
    for name in ("segment-large", "sbm-large", "tiny-batch"):
        assert f"{name} (" in proc.stdout
    # the chain and the seed's ten block models
    assert "paper-experiments (11 solves x 3 iterations, bitwise equal)" in proc.stdout
    assert proc.stdout.count("bitwise equal") == 4
    assert proc.stdout.count("wins") == 8


def test_ab_run_refuses_to_time_different_results(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src")
    solver = tmp_path / "src" / "nlasso" / "solver.py"
    text = solver.read_text()
    assert text.count("d *= 0.5\n") == 2
    solver.write_text(text.replace("d *= 0.5\n", "d *= 0.25\n"))
    proc = ab_run(tmp_path, "--iters", "3", "--rounds", "1", "--workload", "tiny-batch")
    assert proc.returncode != 0
    assert "differs between the checkouts" in proc.stderr
    assert "wins" not in proc.stdout
