import warnings

import numpy as np
import pytest

from squeezer_sim import ModelParams, dynamics, model, reference_params


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


@pytest.fixture(scope="session")
def kernel_path():
    """Run the oracle's kernel `_rosenbrock23` from `init` = (a_par,
    a_orth, s1, s2) to t_end through a spy f that records every state it
    is called at.  Returns the kernel's result and those states, one
    five-component row (s3 = 1 - s1 - s2) per evaluation.
    """
    def run(params, pump, init, t_end, rtol=1e-8, atol=1e-12):
        f, jac = model.rate_equations(params, pump)
        seen = []

        def spy(*y):
            seen.append(y)
            return f(*y)

        out = dynamics._rosenbrock23(spy, jac, init, t_end, rtol=rtol, atol=atol)
        return out, np.array(seen)

    return run


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_makereport(item, call):
    """Import Hypothesis' patching module once a test fails.

    Hypothesis imports it to report a failing property test, and the
    import warns that mypy_extensions.TypedDict is deprecated; under
    warnings-as-errors that would stop the session with INTERNALERROR.
    Imported here first, with that warning ignored, the failure reports
    as a failure.  It is not imported up front: it takes most of a
    second.
    """
    if call.excinfo is None:
        return
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
