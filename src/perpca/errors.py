"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operands have incompatible shapes."""


class InvariantError(ValueError):
    """A structural contract (orthonormality, cross-orthogonality, ...) is violated."""


class SingularityError(RuntimeError):
    """A matrix that must have full column rank does not, or is not finite.

    For a stack of matrices, ``index`` is the position of the first failing
    one along the leading axis; it is None for a single matrix.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index
