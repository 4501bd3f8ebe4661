import re
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# the line each demo exists to show
HEADLINES = {
    "chain_cluster.py": "cluster above threshold 1/2: [1, 2, 3, 4]",
    "duality_flow.py": "flow within capacities: True",
    "image_segmentation.py": "mask equals the disc exactly: True",
    "sbm_recovery.py": "labelling accuracy 1.000",
}


def run_demo(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    return capsys.readouterr().out


def test_every_demo_is_listed():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(HEADLINES)


@pytest.mark.parametrize("name", sorted(HEADLINES))
def test_demo_runs(name, capsys):
    assert HEADLINES[name] in run_demo(name, capsys)


def test_duality_flow_demo_numbers(capsys):
    out = run_demo("duality_flow.py", capsys)
    gap = float(re.search(r"^duality gap (\S+)$", out, re.M).group(1))
    assert gap <= 1e-9
    outflow, absorbed = re.search(r"^seed outflow (\S+) vs absorbed (\S+)$", out, re.M).groups()
    assert outflow == absorbed
    primal = re.search(r"^primal value (\S+) ", out, re.M).group(1)
    dual = re.search(r"^dual value +(\S+) ", out, re.M).group(1)
    assert primal == dual
    saturated = re.findall(r"edge \((\d+),(\d+)\): .* saturated=True", out)
    assert saturated == [("3", "4")]
