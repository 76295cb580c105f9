"""Exception types shared across the package, and the memory gate.

Exit-code mapping used by the CLI: InvalidParams and config problems are
input errors (exit 1), solver/numerical failures are exit 2, and
statistical verification failures are exit 3.
"""

import os


class SqueezerSimError(Exception):
    """Base class for all package-specific errors."""


class InvalidParams(SqueezerSimError):
    """Raised when a parameter set violates one or more invariants.

    Carries the complete list of violations, not just the first one.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class WrongRegime(SqueezerSimError):
    """An operation was evaluated outside its pump-regime validity domain."""


class Unreachable(SqueezerSimError):
    """A threshold cannot be reached for this parameter set."""


class RootFindFailure(SqueezerSimError):
    """A region-iii closed-form state failed its fixed-point residual guard."""


class StepUnderflow(SqueezerSimError):
    """The adaptive integrator step fell below the resolution of t."""


class NonFiniteState(SqueezerSimError):
    """Integration produced NaN or infinite state components."""


class NoConvergence(SqueezerSimError):
    """`settle` ran out of run time before the state settled."""


class DomainError(SqueezerSimError):
    """An argument lies outside the mathematical domain of the operation."""


class SingularMatrix(SqueezerSimError):
    """The frequency-domain system matrix is singular at this frequency."""


class TooShort(SqueezerSimError):
    """A time series is too short for the requested spectral estimate."""


class BandMismatch(SqueezerSimError):
    """The trusted comparison band contains no usable frequency bins."""


def check_fits_in_memory(need: float, what: str, remedy: str):
    """Raise DomainError when `need` bytes exceed physical memory.

    The message reads "<what> needs about X GiB, more than the Y GiB of
    physical memory; <remedy>".  The gate reads physical memory only:
    a request just under it still allocates, whatever other processes
    or a container limit leave free.
    """
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise DomainError(
            f"{what} needs about {need / 2**30:.3g} GiB, more than the "
            f"{have / 2**30:.3g} GiB of physical memory; {remedy}")
