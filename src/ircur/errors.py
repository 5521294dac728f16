"""Exception hierarchy shared by all pipeline stages.

Three families matter to callers: `DataContractError` (a file or record
violates its declared contract), `DegeneracyError` (the data is valid but a
computation is undefined on it), and `MismatchError` (two inputs that must
describe the same sample set do not). The CLI maps each family to a distinct
exit code.
"""


class IrcurError(Exception):
    """Base class for all errors raised by this package."""


class DataContractError(IrcurError):
    """A file, line, or record violates its declared contract."""


class MalformedLineError(DataContractError):
    """A line is not valid JSON or lacks the required fields/types."""

    def __init__(self, path, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = path
        self.line_no = line_no


class DimensionMismatchError(DataContractError):
    """A vector's length disagrees with the dimension fixed earlier."""


class NonFiniteValueError(DataContractError):
    """A numeric payload contains NaN or infinity."""


class DuplicateIdError(DataContractError):
    """The same sample id appears more than once in one file."""


class EmptyDomainError(DataContractError):
    """A required input collection (embedding domain, frame list) is empty."""


class BoundsError(DataContractError):
    """A bounding box extends outside its image."""


class UnknownCategoryError(DataContractError):
    """An object category is not in the declared vocabulary."""


class VocabularyTooSmallError(DataContractError):
    """The category vocabulary cannot supply the options a task needs."""


class GenerationPreconditionError(DataContractError):
    """An annotation lacks the objects or fields a QA task requires."""


class MissingTaskError(DataContractError):
    """A benchmark aggregate is missing one of the nine task values."""


class MissingConfidenceError(DataContractError):
    """A detection prediction carries no confidence score."""


class DegeneracyError(IrcurError):
    """Valid data on which the requested computation is undefined."""


class DegenerateSetError(DegeneracyError):
    """An empty set, or all samples identical: nothing to rank, bin or
    derive a bandwidth from."""


class IndistinguishableDomainsError(DegeneracyError):
    """Domain discrepancy is below epsilon; projection ranking undefined."""


class BatchTooSmallError(DegeneracyError):
    """Contrastive scoring needs at least two pairs for negatives."""


class ZeroNormError(DegeneracyError):
    """A projected vector has zero norm and cannot be normalized."""


class UndefinedRateError(DegeneracyError):
    """Loss variation rate is undefined for a non-positive base loss."""


class DivergenceError(DegeneracyError):
    """Training produced a non-finite loss or parameters."""


class DegenerateBoxError(DegeneracyError):
    """A bounding box has zero area."""


class MismatchError(IrcurError):
    """Two inputs that must cover the same samples or tasks do not."""


class IdSetMismatchError(MismatchError):
    """Two rankings, or a plan and a dataset, cover different id sets."""


class TierCountError(MismatchError):
    """More tiers requested than there are samples."""
