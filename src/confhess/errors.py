"""Exception taxonomy shared by all modules, and the descriptor grammar.

The split mirrors the CLI exit-code contract: domain/admissibility problems
(exit 1), numeric failures (exit 2), and usage/config mistakes (exit 3).
Operator, cone, profile and background descriptors share one grammar,
parsed by :func:`parse_descriptor` into usage errors.  ``_QUIET`` is the one
floating-point error state of the package.
"""

import math

#: Floating-point events ignored where the results are checked for the float range
#: instead (operator values, Schouten eigenvalues, the solver's node state, the
#: monitors and volume ratios), so that intermediates that leave it raise no warning.
_QUIET = {"invalid": "ignore", "divide": "ignore", "over": "ignore"}


class ConfhessError(Exception):
    """Base class for every error raised by this package."""


class DomainError(ConfhessError, ValueError):
    """Input outside the mathematical domain of an operation."""


class AdmissibilityError(DomainError):
    """A tuple of eigenvalues lies outside the required cone.

    ``condition`` carries the violated cone condition as text (for example
    ``"sigma_2 <= 0"``); ``node`` identifies the offending grid node when the
    error arises inside the radial solver.
    """

    def __init__(self, message, condition=None, node=None):
        super().__init__(message)
        self.condition = condition
        self.node = node


class PositivityError(DomainError):
    """A conformal factor is nonpositive where it must be positive."""


class NumericError(ConfhessError, RuntimeError):
    """Numeric failure: singular linearization, eigendecomposition failure."""


class UsageError(ConfhessError, ValueError):
    """Malformed CLI arguments or configuration files."""


def _finite_or_text(val):
    try:
        return math.isfinite(float(val))
    except ValueError:
        return True


def parse_descriptor(text, what, table):
    """Build an object from descriptor text ``head[:key=val,...]``.

    ``table`` maps each head to ``(keys, make)``: the keys it accepts and a
    callable building the object from the dict of given fields.  An
    ``inner=`` field comes last and takes the rest of the text, so nested
    descriptors such as ``ricci:inner=quotient:k=2,l=1`` need no quoting.
    Unknown heads and keys, repeated keys, items without a value, values
    that read as a non-finite float (``nan``, ``inf``, ``1e999``) and the
    ``KeyError``/``ValueError`` raised by ``make`` become :class:`UsageError`.
    """
    head, _, rest = text.partition(":")
    if head not in table:
        raise UsageError(f"unknown {what} '{head}' (expected one of {', '.join(table)})")
    keys, make = table[head]
    fields = {}
    while rest:
        key, _, rest = rest.partition("=")
        key = key.strip()
        val, sep, rest = (rest, "", "") if key == "inner" else rest.partition(",")
        if not val.strip() or (sep and not rest):
            raise UsageError(f"{what} '{text}' has an item that is not key=value")
        if key not in keys or key in fields:
            raise UsageError(f"{what} '{text}': field '{key}' is unknown or repeated "
                             f"(fields: {', '.join(keys) or 'none'})")
        if key != "inner" and not _finite_or_text(val):
            raise UsageError(f"{what} '{text}' needs a finite {key}")
        fields[key] = val.strip()
    try:
        return make(fields)
    except KeyError as exc:
        raise UsageError(f"{what} '{text}' is missing field {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"{what} '{text}': {exc}") from exc
