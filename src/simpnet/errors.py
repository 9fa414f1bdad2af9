"""Exception types shared across the engine."""


class ShapeError(ValueError):
    """Tensor dims incompatible with the requested operation."""


class NoForwardCacheError(RuntimeError):
    """Model.backward called with no train-mode forward to differentiate."""


class FormatError(ValueError):
    """A binary file (IDX, CIFAR batch, checkpoint) is malformed."""


class CompatibilityError(ValueError):
    """Checkpoint tensors do not match the target model."""


class ArchParseError(ValueError):
    """Architecture text failed to parse; carries line/column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column


class ArchValidationError(ValueError):
    """Invalid architecture (e.g. spatial collapse, no tail, or an input shape not the data's)."""


class IsolationError(ValueError):
    """Ablation arms are not comparable (parameter budgets diverge)."""


class NumericsError(ArithmeticError):
    """Non-finite value encountered during training."""
