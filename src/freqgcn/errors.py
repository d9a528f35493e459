"""Exception types shared across the package; ContractViolationError is its ValueError."""


class FreqGcnError(Exception):
    """Base class for every error this package raises on purpose."""


class ParseError(FreqGcnError):
    """Keypoint document is not well formed."""

    def __init__(self, message: str, offset: int | None = 0):
        super().__init__(message if offset is None else f"{message} (byte offset {offset})")
        self.offset = offset


class FormatError(FreqGcnError):
    """Document parsed but violates the keypoint layout."""


class TopologyMismatchError(FreqGcnError):
    """Joint count disagrees with the configured topology."""


class EmptyInputError(FreqGcnError):
    """No frames found where a sequence was expected."""


class UnrecoverableJointError(FreqGcnError):
    """A joint has no observation in any frame, so no gap can be filled."""

    def __init__(self, joint: int):
        super().__init__(f"joint {joint} is missing in every frame")
        self.joint = joint


class DegeneratePoseError(FreqGcnError):
    """Torso scale too small to normalize against."""


class InsufficientLengthError(FreqGcnError):
    """Signal too short to fill every frequency bin."""

    def __init__(self, message: str, required_frames: int):
        super().__init__(message)
        self.required_frames = required_frames


class UnknownPresetError(FreqGcnError):
    """Requested skeleton preset does not exist."""


class ContractViolationError(FreqGcnError, ValueError):
    """A value broke a precondition (shape, range, finiteness); the package's ValueError."""


class NonFiniteError(ContractViolationError):
    """Finite inputs produced non-finite values, as when training diverges."""


class DegenerateDatasetError(FreqGcnError):
    """Training data does not contain both classes."""


class AliasingConfigError(FreqGcnError):
    """Synthetic frequency band reaches the Nyquist limit."""


class ModelMismatchError(FreqGcnError):
    """Model document version or shapes do not match expectations."""
