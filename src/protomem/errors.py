"""Exception hierarchy shared across the package."""


class ProtomemError(Exception):
    """Base class for all library errors."""


class ShapeMismatchError(ProtomemError):
    """Operand dimensions do not chain."""


class ZeroNormError(ProtomemError):
    """A vector with norm below the 1e-12 floor reached a norm-sensitive op."""


class NoForwardRecordedError(ProtomemError):
    """backward() or sgd_step() called on a tape with no recorded forward pass."""


class MalformedFileError(ProtomemError):
    """An input file does not parse: a bad magic, version, header field or
    length, a stored value its writer cannot produce, a CSV line that is not
    a labelled row, or a CIFAR batch that is not a whole number of records."""


class EmptyMemoryError(ProtomemError):
    """classify() called on an explicit memory with no prototypes."""


class OverflowAfterShiftError(ProtomemError):
    """Right-shifted accumulator still exceeds the target bit range."""


class DuplicateClassError(ProtomemError):
    """Class id already present in a class memory."""


class ClassIdRangeError(ProtomemError, ValueError):
    """Class id, label or shot count outside the range of the u32 field that
    stores it: [0, 2**32) for ids and labels, [1, 2**32) for counts."""


class EmptySampleSetError(ProtomemError):
    """A class with no samples: learn_class() called with none, or a stored shot count of 0."""


class MisalignedMemoriesError(ProtomemError):
    """The explicit memory and the class means that finetuning reads disagree on class ids."""


class InsufficientSamplesError(ProtomemError):
    """A class has fewer samples than the requested split or draw needs."""


class InsufficientClassesError(ProtomemError):
    """Dataset has fewer classes than the requested split needs."""


class NumericFailureError(ProtomemError):
    """Training produced a non-finite loss, or pretraining diverged."""


class NonFiniteValueError(ProtomemError, ValueError):
    """An input array holds NaN or infinite entries."""


class ConfigError(ProtomemError):
    """Unknown key, bad value, or malformed config file."""


class SettingValueError(ConfigError, ValueError):
    """A settings dataclass rejected one of its values."""


class ConflictingFlagsError(ConfigError):
    """Mutually exclusive ablation flags requested together."""


class LayerWidthError(ShapeMismatchError, SettingValueError):
    """Requested layer widths do not give an extractor and a reducing projection."""
