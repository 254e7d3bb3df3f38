"""Shared exception and warning types."""


class ScriptedExhaustedError(RuntimeError):
    """A scripted word source ran out of words (it never recycles silently)."""


class DegenerateStreamError(RuntimeError):
    """A redraw loop hit its limit: the generator repeats a word (or a
    draw) far beyond what IID uniform input ever does, so the loop would
    never end."""


class InfeasibleSizeError(ValueError):
    """A requested exhaustive computation is too large to run exactly."""


class UnreachableValuesWarning(UserWarning):
    """The requested integer range exceeds the word range, so some values
    can never be produced."""


class ShortStreamWarning(UserWarning):
    """A reservoir was requested from a stream with fewer items than the
    reservoir size."""
