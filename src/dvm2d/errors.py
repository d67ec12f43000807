"""Exception hierarchy shared across the package, and the memory budget.

PreconditionError maps to CLI exit code 2, NumericalError and its
subclasses to exit code 3.  Every entry point that allocates in
proportion to its input sizes that allocation as a count of units times
a measured bytes-per-unit constant (the *_BYTES_PER_* names) and calls
check_memory, which refuses anything past MEMORY_BUDGET before it is
allocated.
"""

MEMORY_BUDGET = 1 << 30  # bytes


class PreconditionError(ValueError):
    """An argument violates an operation's stated precondition."""


def check_memory(what: str, count: int, bytes_each: int) -> None:
    """Refuse `count` units of `what` at `bytes_each` bytes each when they
    need more than MEMORY_BUDGET bytes, which is read at the call."""
    if count * bytes_each > MEMORY_BUDGET:
        raise PreconditionError(
            f"{what}: {count} x {bytes_each} bytes = {count * bytes_each} bytes, "
            f"more than MEMORY_BUDGET = {MEMORY_BUDGET} bytes"
        )


class NumericalError(RuntimeError):
    """A computation failed on numerical grounds."""


class QuadratureError(NumericalError):
    """Quadrature self-convergence check failed."""


class PositivityLossError(NumericalError):
    """Time integration drove the distribution negative; dt too large."""


class NonFiniteStateError(NumericalError):
    """Time integration overflowed the distribution to inf or nan; dt too large."""
