"""The verify column of the seeded-fault matrix: which families catch which
fault.

Each fault is patched into its class, the default ``verify`` runs in-process
at ``--trials 10``, and the set of families with a failed row must equal the
fault's entry. A change that makes a family catch a fault, or lose one,
flips an entry here. Every fault keeps its channel completely positive, so
what fails is a check, not the construction of a state.
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

_nu_p_any = DepolarizingChannel._nu_p_any
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
