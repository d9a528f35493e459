"""Exception types shared across the package, each with the exit status of a command it ends;
ContractViolationError is the package's ValueError."""


class FreqGcnError(Exception):
    """Base class for every error this package raises on purpose."""

    exit_code = 1


class ParseError(FreqGcnError):
    """Keypoint document is not well formed; ``offset`` is where JSON or UTF-8 decoding failed, if it did."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (byte offset {offset})")
        self.offset = offset


class FormatError(FreqGcnError):
    """Document parsed but violates the keypoint layout."""


class TopologyMismatchError(FreqGcnError):
    """Joint count disagrees with the configured topology."""


class EmptyInputError(FreqGcnError):
    """No frames found where a sequence was expected."""

    exit_code = 2


class UnrecoverableJointError(FreqGcnError):
    """A joint has no observation in any frame, so no gap can be filled."""

    def __init__(self, joint: int):
        super().__init__(f"joint {joint} is missing in every frame")
        self.joint = joint


class DegeneratePoseError(FreqGcnError):
    """Torso scale too small to normalize against."""


class InsufficientLengthError(FreqGcnError):
    """Signal too short to fill every frequency bin."""

    exit_code = 3

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

    exit_code = 4


class AliasingConfigError(FreqGcnError):
    """Synthetic frequency band reaches the Nyquist limit."""


class WriteError(FreqGcnError, OSError):
    """An output could not be written; a file already there is left as it was."""

    def __str__(self) -> str:
        return f"cannot write {self.filename}: {self.strerror}"


class MissingDirectoryError(FileNotFoundError):
    """An output's directory does not exist; like a missing input, it ends a command in exit 2."""

    def __str__(self) -> str:
        return f"no such directory for {self.filename}"


class ReadError(FreqGcnError, OSError):
    """An input could not be read: a directory, say, or a file without read permission."""

    def __str__(self) -> str:
        return f"cannot read {self.filename}: {self.strerror}"


class ModelMismatchError(FreqGcnError):
    """Model document version or shapes do not match expectations."""

    exit_code = 5
