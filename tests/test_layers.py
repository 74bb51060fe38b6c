"""Which module picks an integrator.

`dynamics._Cavity` resolves a device under one chi source once and answers
every field question of `design` and of the scenarios.  So no private
function takes a chi source, and neither `design` nor `scenarios` reaches
for a stepper of `dynamics` by name.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cavreset"
STEPPERS = ("_rk4", "_gbs_", "_segment_end_alpha", "_closed_form_end", "_propagate_ode_shared")


def test_no_private_function_takes_a_chi_source():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                args = node.args
                if "chi_source" in {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}:
                    offenders.append(f"{path.name}:{node.name}")
    assert offenders == []


@pytest.mark.parametrize("module", ["design.py", "scenarios.py"])
def test_no_stepper_outside_dynamics(module):
    names = []
    for node in ast.walk(ast.parse((SRC / module).read_text())):
        if isinstance(node, ast.ImportFrom):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    assert [name for name in names if name.startswith(STEPPERS)] == []
