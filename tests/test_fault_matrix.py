"""The verify and capacity columns of the seeded-fault matrix: which
families catch which fault.

Each fault is patched into its class and the command runs in-process. For
``verify``, at ``--trials 10``, the set of families with a failed row must
equal the fault's entry. For ``capacity``, at its defaults, the failed rows
must be ``capacity-chain`` rows, as many as the entry says, and so must the
rows whose ``holevo_gap`` exceeds its tolerance: the optimizer route has to
keep catching what it catches. A change that makes a family catch a fault,
or lose one, flips an entry here. Every fault keeps its channel completely
positive, so what fails is a check, not the construction of a state.
"""

import contextlib
import io
import json
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from depolcap.cli import main
from depolcap.depolarizing import DepolarizingChannel
from depolcap.phase_damping import PhaseDampingChannel
from depolcap.report import DEFAULT_TOLERANCES

_nu_p_any = DepolarizingChannel._nu_p_any
_s_min = DepolarizingChannel.s_min
_chi_star = DepolarizingChannel.chi_star
_depolarizer_superoperator = DepolarizingChannel.superoperator
_damper_superoperator = PhaseDampingChannel.superoperator


def _leaky_damper(self):
    s = _damper_superoperator(self)
    return (1.0 - 1e-3) * s + 1e-3 * np.eye(len(s))


# Fault -> (class, attribute, faulty version, families that must fail).
# nu_p(Delta) is the closed form that both the product bound and the
# damper's block bound read; the leaky damper is mixed with 1e-3 of the
# identity map, a channel still.
FAULTS = {
    "nu_p up 1e-3": (
        DepolarizingChannel, "_nu_p_any",
        lambda self, p: _nu_p_any(self, p) * (1.0 + 1e-3),
        {"nu-p-multiplicativity"}),
    "nu_p down 1e-3": (
        DepolarizingChannel, "_nu_p_any",
        lambda self, p: _nu_p_any(self, p) * (1.0 - 1e-3),
        {"nu-p-multiplicativity", "tensor-output-norm-bound"}),
    "damper leaks 1e-3 of the identity": (
        PhaseDampingChannel, "superoperator", _leaky_damper,
        {"tensor-output-norm-bound"}),
}


def failed_rows(cls, attr, faulty) -> Counter:
    """Failed rows per family of the default verify at --trials 10 under
    the fault."""
    out = io.StringIO()
    with mock.patch.object(cls, attr, faulty), contextlib.redirect_stdout(out):
        main(["verify", "--trials", "10"])
    return Counter(r["name"] for r in json.loads(out.getvalue())["records"]
                   if not r["passed"])


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_fails_its_families(fault):
    cls, attr, faulty, families = FAULTS[fault]
    assert set(failed_rows(cls, attr, faulty)) == families


def _shifted_depolarizer(self):
    """Delta's superoperator at lam + 1e-3 (1 - lam), inside the CP range."""
    lam = self.lam + 1e-3 * (1.0 - self.lam)
    return _depolarizer_superoperator(DepolarizingChannel.unchecked(self.dim, lam))


def _resetting_depolarizer(self):
    """Delta's superoperator mixed with 1e-3 of rho -> Tr rho |0><0|, whose
    superoperator's only nonzero row is vec(I), in row (0, 0)."""
    d = self.dim
    reset = np.zeros((d * d, d * d), dtype=complex)
    reset[0] = np.eye(d).reshape(-1)
    return (1.0 - 1e-3) * _depolarizer_superoperator(self) + 1e-3 * reset


# Fault -> (attribute of DepolarizingChannel, faulty version, failed
# capacity-chain rows, rows whose holevo_gap is out of tolerance), of the 10
# chain rows at d = 2, 3 and five lam. The closed-form faults shift chi_star
# on every row. The channel faults move what Blahut-Arimoto and the
# optimizer see, not the closed form. The shifted lam leaves lam = 1 alone
# and moves the lam = 0 rows by 5.0e-7 (d = 2) and 9.997e-7 (d = 3), inside
# holevo_agreement (1e-6) but not capacity_chain (1e-8); every other failed
# row fails both clauses. The reset leaves the lam = 0 rows at zero
# capacity; its optimum is not the uniform basis ensemble, so the optimizer
# has to leave its start. It breaks the self-adjointness that LambdaChannel
# assumes, so the searches ascend along a gradient off by about 1e-3, but
# the values they report are the faulty channel's.
CAPACITY_FAULTS = {
    "s_min up 1e-3": (
        "s_min", lambda self: _s_min(self) + 1e-3, 10, 10),
    "chi_star up 1e-3": (
        "chi_star", lambda self: _chi_star(self) + 1e-3, 10, 10),
    "Delta at lam + 1e-3 (1 - lam)": (
        "superoperator", _shifted_depolarizer, 8, 6),
    "Delta resets 1e-3 to |0>": (
        "superoperator", _resetting_depolarizer, 8, 8),
}


@pytest.mark.parametrize("fault", sorted(CAPACITY_FAULTS))
def test_fault_fails_the_capacity_chain(fault):
    attr, faulty, failed, holevo_failed = CAPACITY_FAULTS[fault]
    out = io.StringIO()
    with (mock.patch.object(DepolarizingChannel, attr, faulty),
          contextlib.redirect_stdout(out)):
        main(["capacity"])
    records = json.loads(out.getvalue())["records"]
    chain = [r for r in records if r["name"] == "capacity-chain"]
    assert len(chain) == 10
    assert Counter(r["name"] for r in records if not r["passed"]) == {
        "capacity-chain": failed}
    tol = DEFAULT_TOLERANCES["holevo_agreement"]
    assert sum(abs(r["values"]["holevo_gap"]) > tol for r in chain) == holevo_failed
