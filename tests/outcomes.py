"""Test-side reading of a check's outcome list, as ``Report.count`` reads it."""


def holds(outcomes) -> bool:
    """Whether the outcomes hold: at least one, and every one True.

    Unlike a bare ``all``, an empty list fails, so an audit that compared
    nothing cannot pass a test.
    """
    outcomes = list(outcomes)
    return len(outcomes) > 0 and outcomes.count(True) == len(outcomes)
