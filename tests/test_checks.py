"""The argument rules: one message per rule, naming its argument, at every
library entry point; and no hand-written copy of a rule outside them."""

import ast
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import linsde
from linsde import (BoundConstants, GridSpec, InitialCondition,
                    SimulationConfig, builtin_model, covariance_by_quadrature,
                    estimate_constants, gaussian_delta_bound,
                    linearised_distribution, s2_empirical_limit, s2_field,
                    s2_point, solve_flow)
from linsde._checks import at_least, finite, finite_array, integer, positive
from linsde.bounds import check_bound
from linsde.scaling import moment_orders
from linsde.sensitivity import check_field

OU = builtin_model("ornstein_uhlenbeck", a=1.0)
JET = builtin_model("meandering_jet")
GRID = GridSpec(((0.0, 1.0, 2), (0.0, 1.0, 2)))
nan, inf = math.nan, math.inf

#: (entry point, call with the bad value, argument, bad value)
BAD_ARGUMENTS = [
    # accepted before the rules
    ("BoundConstants", lambda v: BoundConstants(1.0, 1.0, 1.0, 1.0, n=v),
     "n", 1.5),
    ("BoundConstants", lambda v: BoundConstants(1.0, 1.0, 1.0, 1.0, n=v),
     "n", True),
    ("check_field", lambda v: check_field(JET, GRID, workers=v),
     "workers", 1.5),
    ("s2_field", lambda v: s2_field(JET, GRID, 1.0, workers=v),
     "workers", True),
    ("InitialCondition.gaussian",
     lambda v: InitialCondition.gaussian([0.0], rho=v), "rho", nan),
    ("InitialCondition.gaussian",
     lambda v: InitialCondition.gaussian([0.0], rho=v), "rho", inf),
    ("solve_flow", lambda v: solve_flow(OU, [0.5], 1.0, tol=v), "tol", True),
    ("linearised_distribution",
     lambda v: linearised_distribution(JET, InitialCondition.fixed([0.3, 1.1]),
                                       1.0, 0.1, method="mazzoni", dt=v),
     "dt", True),
    ("gaussian_delta_bound", lambda v: gaussian_delta_bound([[0.01]], v),
     "r", True),
    ("check_bound", lambda v: check_bound(v, 1.0), "r", True),
    ("moment_orders", moment_orders, "r", True),
    ("moment_orders", moment_orders, "r", []),
    ("s2_empirical_limit",
     lambda v: s2_empirical_limit(OU, [1.0], 1.0, [v],
                                  SimulationConfig(n_samples=10)),
     "epsilons[0]", True),
    ("s2_empirical_limit",
     lambda v: s2_empirical_limit(OU, [1.0], 1.0, [0.1],
                                  SimulationConfig(n_samples=v)),
     "n_samples", 1),
    ("gaussian_delta_bound", lambda v: gaussian_delta_bound(v, 1.0),
     "covariance", [[1.0, 0.0, 0.0]]),
    ("estimate_constants", lambda v: estimate_constants(OU, n_jitter=v),
     "n_jitter", -3),
    ("estimate_constants", lambda v: estimate_constants(OU, times=v),
     "times[0]", (nan,)),
    ("estimate_constants", lambda v: estimate_constants(OU, times=v),
     "times", ()),
    # these three cases keep the ids they had when the law was checked by a
    # validate() method; the same bad values are now refused when it is built
    ("InitialCondition.gaussian.validate",
     lambda v: InitialCondition.gaussian(v, rho=0.1), "mean", [nan]),
    ("InitialCondition.gaussian.validate",
     lambda v: InitialCondition.gaussian([0.0], rho=0.1, reference_point=v),
     "reference_point", [0.0, 1.0]),
    ("InitialCondition.gaussian",
     lambda v: InitialCondition.gaussian([0.0], covariance=v), "covariance",
     [[1.0, 0.0, 0.0]]),
    ("builtin_model", lambda v: builtin_model("meandering_jet", K=v), "K",
     True),
    ("builtin_model", lambda v: builtin_model("ornstein_uhlenbeck", a=v),
     "a", True),
    # a TypeError, a LinAlgError or another message before the rules
    ("covariance_by_quadrature",
     lambda v: covariance_by_quadrature(OU, [0.5], 1.0, quad_points=v),
     "quad_points", 2.5),
    ("estimate_constants",
     lambda v: estimate_constants(OU, samples_per_axis=v),
     "samples_per_axis", 2.5),
    ("estimate_constants", lambda v: estimate_constants(OU, fd_step=v),
     "fd_step", 0.0),
    ("InitialCondition.fixed.validate", InitialCondition.fixed, "mean",
     [nan]),
    ("builtin_model", lambda v: builtin_model("brownian", dim=v), "dim",
     1.0),
    ("builtin_model",
     lambda v: builtin_model("linear_additive", a_matrix=v, b_vector=[0.0],
                             sigma_matrix=[[1.0]]), "a_matrix", [[nan]]),
    ("builtin_model",
     lambda v: builtin_model("linear_additive", a_matrix=v, b_vector=[0.0],
                             sigma_matrix=[[1.0]]), "a_matrix", [[True]]),
    ("builtin_model",
     lambda v: builtin_model("linear_additive", a_matrix=[[1.0]], b_vector=v,
                             sigma_matrix=[[1.0]]), "b_vector", ["0.5"]),
    ("builtin_model",
     lambda v: builtin_model("linear_additive", a_matrix=[[1.0]],
                             b_vector=[0.0], sigma_matrix=v), "sigma_matrix",
     np.array([[True]])),
    # np.asarray reads a bool or a numeric string as a float
    ("solve_flow", lambda v: solve_flow(OU, v, 1.0), "x0", [True]),
    ("s2_point", lambda v: s2_point(JET, v, 0.5), "x0", [True, "1.0"]),
    ("InitialCondition.gaussian",
     lambda v: InitialCondition.gaussian(v, rho=0.1), "mean", ["0.5"]),
    ("InitialCondition.gaussian",
     lambda v: InitialCondition.gaussian([0.0], rho=0.1, reference_point=v),
     "reference_point", [np.True_]),
    # estimated from the jitter points alone before the rules
    ("estimate_constants",
     lambda v: estimate_constants(OU, samples_per_axis=v),
     "samples_per_axis", 0),
]


@pytest.mark.parametrize(
    "call, argument, value", [case[1:] for case in BAD_ARGUMENTS],
    ids=[f"{case[0]}-{case[2]}={case[3]!r}" for case in BAD_ARGUMENTS])
def test_bad_argument_raises_a_value_error_that_names_it(call, argument,
                                                        value):
    with pytest.raises(ValueError, match=f"^{re.escape(argument)} must"):
        call(value)


class TestRules:
    def test_values_come_back_unchanged(self):
        # an int stays an int, so records that echo it do not change
        for rule in (finite, at_least, positive, integer):
            assert type(rule(3, "x")) is int
        assert type(at_least(np.float64(0.5), "x")) is np.float64
        assert at_least(2.0, "r", 1) == 2.0
        assert integer(0, "seed", 0) == 0
        big = 10 ** 400
        assert positive(big, "x") is big and integer(big, "x") is big

    @pytest.mark.parametrize("rule", [finite, at_least, positive, integer])
    @pytest.mark.parametrize("value", [True, False, np.True_, "1", None,
                                       nan, inf, -inf, [1.0]])
    def test_no_bool_string_or_non_finite_value_is_a_number(self, rule,
                                                            value):
        with pytest.raises(ValueError, match=r"^arg must .*, got "):
            rule(value, "arg")

    @pytest.mark.parametrize("rule, value, message", [
        (at_least, -1e-300, "arg must be finite and non-negative, got -1e-300"),
        (positive, 0.0, "arg must be finite and positive, got 0.0"),
        (integer, 0, "arg must be a positive integer, got 0"),
        (integer, 2.0, "arg must be a positive integer, got 2.0"),
        (finite, -inf, "arg must be a finite number, got -inf"),
        (lambda v, name: at_least(v, name, 1), 0.5,
         "arg must be finite and at least 1, got 0.5"),
        (lambda v, name: integer(v, name, 0), -1,
         "arg must be a non-negative integer, got -1")])
    def test_messages(self, rule, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            rule(value, "arg")

    def test_array_rule(self):
        np.testing.assert_array_equal(finite_array(2, "x", (1,)), [2.0])
        assert finite_array([[1, 2]], "m").dtype == float
        with pytest.raises(ValueError, match=r"^x must have shape \(2,\), "
                                             r"got \(3,\)$"):
            finite_array([1.0, 2.0, 3.0], "x", (2,))
        with pytest.raises(ValueError, match="^m must be finite"):
            finite_array([[1.0, nan]], "m")

    @pytest.mark.parametrize("value", [[True, 2.0], ["0.5"], "0.5", None,
                                       [[1.0], [True]], np.array([True]),
                                       np.array(["0.5"]), [1j]])
    def test_array_of_bools_or_strings_is_rejected(self, value):
        # np.asarray would make [1.0, 2.0] of [True, 2.0] and [0.5] of
        # ["0.5"]: a list is read entry by entry, an array by its dtype
        with pytest.raises(ValueError, match=r"^x0 must hold real numbers"):
            finite_array(value, "x0")


#: phrases of the rules' messages; a raise elsewhere that uses one is a
#: hand-written copy of a rule
RULE_PHRASES = ("must be finite", "positive integer", "non-negative")
MODULES = sorted(p.name for p in Path(linsde.__file__).parent.glob("*.py")
                 if p.name != "_checks.py")


@pytest.mark.parametrize("module", MODULES)
def test_no_rule_is_written_out_outside_the_rules_module(module):
    tree = ast.parse((Path(linsde.__file__).parent / module).read_text())
    copies = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            text = "".join(c.value for c in ast.walk(node.exc)
                           if isinstance(c, ast.Constant)
                           and isinstance(c.value, str))
            copies += [(node.lineno, p) for p in RULE_PHRASES if p in text]
    assert not copies, f"{module}: call linsde._checks instead at {copies}"


def _tree(module):
    return ast.parse((Path(linsde.__file__).parent / module).read_text())


#: names whose use parses CSV
CSV_PARSERS = ("loadtxt", "genfromtxt", "csv")


def _csv_parsing(node) -> list:
    """The CSV parsers that one syntax node names or calls."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [node.module or "", *(a.name for a in node.names)]
    else:
        names = [getattr(node, "attr", getattr(node, "id", ""))]
    found = [n for n in names if n in CSV_PARSERS]
    if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "split" \
            and any(isinstance(a, ast.Constant) and a.value == ","
                    for a in node.args):
        found.append('split(",")')
    return found


@pytest.mark.parametrize("module", [m for m in MODULES
                                    if m != "artifacts.py"])
def test_no_csv_is_parsed_outside_the_artifacts_module(module):
    found = [(node.lineno, name) for node in ast.walk(_tree(module))
             for name in _csv_parsing(node)]
    assert not found, f"{module}: read tables with linsde.artifacts at {found}"


def test_no_module_of_the_library_imports_scipy():
    # numpy is the one runtime dependency; scipy serves tests and the bench
    used = set()
    for path in Path(linsde.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            used |= {f"{path.name}: {name}" for name in names
                     if name.split(".")[0] == "scipy"}
    assert not used, used


def _identifiers(module) -> set:
    """Every name that a module reads or binds: variables, attributes,
    imports, definitions, arguments and keywords."""
    return {value for node in ast.walk(_tree(module))
            for field in ("id", "attr", "name", "arg")
            if isinstance(value := getattr(node, field, None), str)}


@pytest.mark.parametrize("module", MODULES + ["_checks.py"])
def test_the_flow_gradient_is_integrated_in_the_flow_module_alone(module):
    # solve_flow is the one variational solve: no other module reaches the
    # flow's rate, and no covariance kernel carries a gradient mode
    names = _identifiers(module)
    found = sorted(names & ({"need_gradient"} if module == "flow.py"
                            else {"_flow_rate", "need_gradient"}))
    assert not found, f"{module}: take DF from flow.solve_flow, not {found}"


@pytest.mark.parametrize("module", MODULES + ["_checks.py"])
def test_sample_streams_are_keyed_in_the_sampling_module_alone(module):
    # one key path: no other module builds Philox keys, and no module
    # copies SeedSequence's hash by reading its mixed pool
    keys = set() if module == "sampling.py" \
        else _identifiers(module) & {"_stream_keys", "_Key"}
    pools = [node.lineno for node in ast.walk(_tree(module))
             if isinstance(node, ast.Attribute) and node.attr == "pool"]
    assert not keys and not pools, \
        f"{module}: draw streams with linsde.sampling, not {keys} or the " \
        f".pool read at lines {pools}"


def test_the_command_line_loads_no_scipy():
    # a cold start pays for numpy alone
    code = ("import sys, linsde.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(linsde.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert run.stdout.strip() == "[]", run.stdout
