"""Exception types shared across the pipeline."""


class PipelineError(Exception):
    """Base class for every error raised by this package."""


class EmptyCorpus(PipelineError):
    """An aggregate operation received zero records."""


class FocalNotFound(PipelineError):
    """The requested focal method does not exist in the parsed file."""


class PromptTooLong(PipelineError):
    """No context level fits the prompt token budget."""


class TooFewRepos(PipelineError):
    """Not enough distinct repositories to produce non-empty splits."""


class InsufficientData(PipelineError):
    """A required reward class is empty or the data is single-class."""


class LengthMismatch(PipelineError):
    """Paired sequences differ in length or are empty."""


class DomainError(PipelineError):
    """An input the operation does not accept: a value outside its domain,
    a malformed record field, or an unreadable or invalid file."""
