"""Exception types shared across the package, each with the exit status of a command it ends;
ContractViolationError is the package's ValueError.

A type exists only where it is handled its own way: it sets its own exit status, renders its own
message, or a caller catches it by name. Any other failure raises the type it is handled as:
FormatError for a file's content, ContractViolationError for a value."""


class FreqGcnError(Exception):
    """Base class for every error this package raises on purpose."""

    exit_code = 1


class FormatError(FreqGcnError):
    """A file's content is wrong: JSON or UTF-8 that does not decode (its text ends in the byte
    offset), or a layout, joint count or value that its format does not allow."""


class EmptyInputError(FreqGcnError):
    """No frames found where a sequence was expected."""

    exit_code = 2


class InsufficientLengthError(FreqGcnError):
    """Signal too short to fill every frequency bin."""

    exit_code = 3


class ContractViolationError(FreqGcnError, ValueError):
    """A value broke a precondition (shape, range, finiteness); the package's ValueError."""


class NonFiniteError(ContractViolationError):
    """Finite inputs produced non-finite values, as when training diverges."""


class DegenerateDatasetError(FreqGcnError):
    """Training data does not contain both classes."""

    exit_code = 4


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
