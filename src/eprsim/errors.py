"""Exception types shared across the package."""


class UnsupportedStateError(ValueError):
    """A mode count outside what is supported: a Gaussian state of other than
    1 or 2 modes given to the Fock conversion, or a two-mode reference asked
    of a one-mode dataset."""


class IllPosedFitError(ValueError):
    """Fit input lacks the phase coverage needed to identify the model."""


class IllConditionedDatumError(RuntimeError):
    """A datum has vanishing likelihood under the current iterate."""

    def __init__(self, index: int, probability: float):
        self.index = index
        self.probability = probability
        super().__init__(
            f"datum {index} has likelihood {probability:g}; "
            "reconstruction cannot proceed"
        )


class DataFormatError(ValueError):
    """A data file failed to parse."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")
