import numpy as np
import pytest

from squeezer_sim import ModelParams, reference_params


@pytest.fixture(scope="session")
def moderate():
    """Hand-built parameter set with both thresholds and mild stiffness.

    Rates sit within three decades of each other, so `settle` needs at
    most a few thousand rhs evaluations; the lasing window is roughly
    pump in (0.11, 546).
    """
    return ModelParams(
        stim_rate_G=20.0,
        nl_coupling_mu=0.1,
        decay_k2=500.0,
        decay_k3=1.0,
        gamma_par_c=0.3,
        gamma_par_l=0.7,
        gamma_orth_c=1.7,
        gamma_orth_l=0.3,
    )


@pytest.fixture(scope="session")
def reference():
    return reference_params()


@pytest.fixture()
def rng():
    return np.random.default_rng(20260810)
