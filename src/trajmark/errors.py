"""Exception hierarchy for trajmark.

Every failure mode that crosses a module boundary gets its own class so
callers (and the CLI exit-code mapping) can dispatch on type rather than
on message text.
"""


class TrajmarkError(Exception):
    """Base class for all trajmark errors."""


# --- trajectory ingestion -------------------------------------------------

class MalformedLine(TrajmarkError):
    """Input line is not valid JSON."""


class SchemaViolation(TrajmarkError):
    """JSON parsed but a field is missing, mistyped, or out of contract."""


class EmptyActions(SchemaViolation):
    """Trajectory carries no actions."""


# --- distributions --------------------------------------------------------

class InvalidDistribution(TrajmarkError):
    """Weights are negative, non-finite, or do not sum to one."""


class IndexOutOfRange(TrajmarkError):
    """Member index outside the distribution's arity."""


class ArityMismatch(TrajmarkError):
    """Two distributions of different arity were compared."""


class SupportMismatch(TrajmarkError):
    """KL divergence undefined: P has mass where Q has none."""


class NoObservations(TrajmarkError):
    """A corpus contained zero matches for an equivalence set."""


# --- sandbox --------------------------------------------------------------

class UnknownTool(TrajmarkError):
    """Action references a tool absent from the sandbox library."""


class InvalidArguments(TrajmarkError):
    """Action arguments do not satisfy the tool's declared arity."""


class ExecutionFailure(TrajmarkError):
    """Sandbox execution aborted (bad effect program, not bad input)."""


# --- pool / rewriting -----------------------------------------------------

class MappingGap(TrajmarkError):
    """A rewrite target argument has neither a source slot nor a literal."""


class ManifestError(TrajmarkError):
    """Candidate manifest is structurally invalid."""


class NoValidCandidates(TrajmarkError):
    """Pool build rejected every candidate equivalence set."""


# --- registry -------------------------------------------------------------

class CapacityExhausted(TrajmarkError):
    """No unused UID remains in the configured weight band."""


class LengthMismatch(TrajmarkError):
    """A UID or detected-pass vector's bit-length does not equal the pool size."""


class InvalidRange(TrajmarkError):
    """A parameter or count is out of range: weight band, threshold, probability, size."""


# --- verification / attacks -----------------------------------------------

class EmptyRegistry(TrajmarkError):
    """Localization requested against a registry with no users."""


class CorpusMismatch(TrajmarkError):
    """Ground-truth edit log does not cover the attacked corpus."""


class DomainMismatch(TrajmarkError):
    """A surrogate is sampled against another domain than the one it was fitted on."""
