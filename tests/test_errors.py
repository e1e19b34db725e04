import numpy as np
import pytest

from dephasim.dephasing import Segment, blocks_from_propagators
from dephasim.errors import DephasimError, InvalidArgument, NotNormalizedError
from dephasim.fock import (
    EnvDensity,
    FockSpace,
    env_from_matrix,
    fock_state,
    thermal_state,
)
from dephasim.qubit_boson import AlphaSegment, QubitBosonParams, branch_generator
from dephasim.sweep import emit_csv

EYE2 = np.eye(2, dtype=complex)
SEGMENT = AlphaSegment(1.0, 0.5)


CALL_SITES = {
    "Segment duration": (InvalidArgument, lambda: Segment(0.0, (EYE2,))),
    "Segment generator shape": (InvalidArgument, lambda: Segment(1.0, (np.zeros((2, 3)),))),
    "Segment without generators": (InvalidArgument, lambda: Segment(1.0, ())),
    "AlphaSegment duration": (InvalidArgument, lambda: AlphaSegment(-1.0, 0.0)),
    "QubitBosonParams beta": (InvalidArgument, lambda: QubitBosonParams(0.0, (SEGMENT,), 8)),
    "QubitBosonParams segments": (InvalidArgument, lambda: QubitBosonParams(1.0, (), 8)),
    "branch_generator branch": (
        InvalidArgument,
        lambda: branch_generator(0.5, 1.0, 0.0, FockSpace(4), 2),
    ),
    "FockSpace cutoff": (InvalidArgument, lambda: FockSpace(1)),
    "EnvDensity shape": (InvalidArgument, lambda: EnvDensity(FockSpace(3), EYE2 / 2)),
    "EnvDensity trace": (NotNormalizedError, lambda: EnvDensity(FockSpace(2), EYE2)),
    "EnvDensity eigenvalue": (
        InvalidArgument,
        lambda: EnvDensity(FockSpace(2), np.diag([1.5, -0.5]).astype(complex)),
    ),
    "fock_state level": (InvalidArgument, lambda: fock_state(8, FockSpace(8))),
    "thermal_state theta": (InvalidArgument, lambda: thermal_state(-1.0, FockSpace(8))),
    "env_from_matrix shape": (InvalidArgument, lambda: env_from_matrix(np.zeros((2, 3)))),
    "pointer amplitude norm": (
        NotNormalizedError,
        lambda: blocks_from_propagators((EYE2, EYE2), env_from_matrix(EYE2 / 2), [1.0, 1.0]),
    ),
    "emit_csv rows": (InvalidArgument, lambda: emit_csv([], None)),
}


@pytest.mark.parametrize("site", CALL_SITES)
def test_argument_errors_are_dephasim_and_value_errors(site):
    expected, call = CALL_SITES[site]
    with pytest.raises(expected) as err:
        call()
    assert isinstance(err.value, DephasimError)
    assert isinstance(err.value, ValueError)
