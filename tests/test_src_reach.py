"""Every function definition in ``src/depolcap`` is entered by a command,
or is kept on purpose, with the reason, in KEEP.

The command set runs in a fresh interpreter under ``sys.setprofile``: the
per-dimension structures of ``decomposition`` are ``functools.cache``d, so
in a process where other tests already built them, the functions that
build them would not be entered again. The definitions come from parsing
the sources with ``ast``, keyed as ``module:qualified name`` in the form
of ``co_qualname``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "depolcap"

# Runs every subcommand at a small size, a verify whose randomized
# tolerances are all 0, and the replay of one witness of each family that
# fails there; prints the entered definitions as JSON.
REACH_SCRIPT = r"""
import contextlib, io, json, os, sys
from depolcap import cli

package = os.path.dirname(cli.__file__)
entered = set()


def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and os.path.dirname(code.co_filename) == package:
        module = os.path.splitext(os.path.basename(code.co_filename))[0]
        entered.add(f"{module}:{code.co_qualname}")


def run(*argv):
    out = io.StringIO()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            cli.main(list(argv))
    finally:
        sys.setprofile(None)
    return out.getvalue()


small = ("--dims", "2", "3")
for command in ("measures", "decompose", "capacity"):
    run(command, *small)
run("capacity", "--bits", "--dims", "2")
run("verify", "--trials", "3")
run("verify", "--trials", "3", "--format", "csv")
zero = {k: 0 for k in ("lieb_thirring", "norm_bound", "invariance",
                       "multiplicativity", "product_saturation", "relent_bound",
                       "relent_saturation", "additivity")}
with open("zero.json", "w") as fh:
    json.dump({"tolerances": zero}, fh)
report = json.loads(run("verify", *small, "--trials", "3", "--config", "zero.json"))
witnesses = {r["name"]: r["witness"] for r in report["records"] if "witness" in r}
for name, witness in sorted(witnesses.items()):
    with open(f"{name}.json", "w") as fh:
        json.dump(witness, fh)
    run("verify", "--replay", f"{name}.json")
print(json.dumps(sorted(entered)))
"""

# Definitions no command enters, each kept for the reason given.
TRACER = "perfbench/tracer.py wraps it by name (see test_perfbench_hooks)"
EXPORT = "package export or documented library protocol"
ITEM_2 = "ROADMAP item 2: Delta's Kraus form and the CP range"
ITEM_3 = "ROADMAP item 3: the entropy lower bound for uniform dampers"
ITEM_6 = "ROADMAP item 6: a step of the paper's argument, not yet a report row"
KEEP = {
    "optimize:ascend_on_sphere": TRACER,
    "core:tensor_channel": TRACER,
    "core:superoperator_from_action": TRACER,
    "core:random_pure_state": TRACER,
    "core:random_density_matrix": TRACER,
    "core:random_unitary": TRACER,
    "core:random_bipartite_state": TRACER,
    "bounds:neg_entropy_objective": TRACER,
    "bounds:neg_entropy_objective.<locals>.objective": TRACER,
    "bounds:min_output_entropy": EXPORT,
    "capacity:shannon_capacity_depolarizing": EXPORT,
    "core:DensityMatrix.eigenvalues": EXPORT,
    "core:DensityMatrix.__repr__": EXPORT,
    "core:PureState.__array__": EXPORT,
    "core:PureState.projector": EXPORT,
    "core:PureState.__repr__": EXPORT,
    "core:BipartiteState.__repr__": EXPORT,
    "core:LinearMap.superoperator": EXPORT + ": the abstract method",
    "core:LinearMap.__call__": EXPORT,
    "core:LinearMap.choi": EXPORT,
    "core:choi_matrix": EXPORT + ": LinearMap.choi",
    "core:min_choi_eigenvalue": EXPORT + ": the Choi test of any action",
    "core:Channel.__repr__": EXPORT,
    "core:LambdaChannel.lam_min": EXPORT + ": the abstract method",
    "core:LambdaChannel.__repr__": EXPORT,
    "decomposition:ConvexDecomposition.__repr__": EXPORT,
    "depolarizing:DepolarizingChannel.kraus_channel": ITEM_2,
    "depolarizing:shift_matrix": ITEM_2,
    "depolarizing:clock_matrix": ITEM_2,
    "core:LambdaChannel.is_cp": ITEM_2,
    "depolarizing:DepolarizingChannel.nu_p_derivative_at_1": ITEM_3,
    "capacity:entropy_lower_bound_check": ITEM_3,
    "capacity:EntropyLowerBoundCheck.slack": ITEM_3,
    "capacity:EntropyLowerBoundCheck.x_uniform": ITEM_3,
    "phase_damping:PhaseDampingChannel.is_uniform": ITEM_3,
    "core:von_neumann_entropy": ITEM_3,
    "core:ptrace_matrix": ITEM_3,
    "bounds:BlockFactorization.__init__": ITEM_6,
    "bounds:BlockFactorization.rho2_block": ITEM_6,
    "bounds:BlockFactorization.a_matrix": ITEM_6,
    "bounds:small_b_matrix": ITEM_6,
    "bounds:spectrum_identity_check": ITEM_6,
    "bounds:b_matrix_diagonal_check": ITEM_6,
    "bounds:diagonalize_first_factor": ITEM_6,
    "phase_damping:uniform_diag_expectation": ITEM_6,
    "phase_damping:is_uniform_vector": ITEM_6,
    "decomposition:dephasing_average": ITEM_6,
    "decomposition:averaged_projector_identity_error": ITEM_6,
    "decomposition:psi_state": ITEM_6,
    "decomposition:theta_state": ITEM_6,
    "core:matrix_power_psd": ITEM_6,
}


def _definitions() -> dict:
    """``module:qualified name`` -> source file and line of each function
    definition in the package, nested ones included."""
    found = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                found[f"{module}:{name}"] = f"{module}.py:{child.lineno}"
                visit(child, module, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, prefix + child.name + ".")
            else:
                visit(child, module, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "")
    return found


@pytest.fixture(scope="module")
def entered(tmp_path_factory) -> set:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    env.pop("DEPOLCAP_OUT_DIR", None)
    proc = subprocess.run([sys.executable, "-c", REACH_SCRIPT], env=env,
                          cwd=tmp_path_factory.mktemp("reach"),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_every_definition_is_entered_or_kept(entered):
    missing = {name: where for name, where in _definitions().items()
               if name not in entered and name not in KEEP}
    assert not missing, f"no command enters these, and KEEP lacks them: {missing}"


def test_kept_definitions_are_not_entered(entered):
    stale = sorted(entered & set(KEEP))
    assert not stale, f"a command enters these; drop them from KEEP: {stale}"


def test_kept_definitions_exist():
    unknown = sorted(set(KEEP) - set(_definitions()))
    assert not unknown, f"KEEP names no such definition: {unknown}"
