"""Error taxonomy shared by the library and the CLI.

Exit-code mapping used by the CLI: UsageError -> 1, InvariantViolation -> 2.
Budget exhaustion is a result state, not an exception (exit 3 at the CLI).
"""

from .bitwords import set_text


class VcxError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(VcxError):
    """Bad arguments, malformed input files, or violated preconditions."""


class InvariantViolation(VcxError):
    """A structural guarantee failed while processing supposedly valid data."""


class MemberShattered(VcxError):
    """A member of a (d+1)-uniform family has no certificate.

    Equivalent to the family having VC dimension d+1, so whether this is a
    usage problem or an invariant violation depends on the caller's promises.
    """

    def __init__(self, member: int, d: int):
        self.member = member
        self.d = d
        super().__init__(f"member {set_text(member)} is shattered: no certificate of size <= {d}")
