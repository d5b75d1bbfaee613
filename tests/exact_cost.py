"""Costs by ``fractions.Fraction``, independent of the package's integer
image: the exact cost of a matching, and a rational cost as the package
reports it, an int on an instance of ints and otherwise the float nearest
to it (``float(Fraction)`` divides two ints, which rounds correctly)."""

from fractions import Fraction


def exact_cost(instance, assignment, arrivals=None) -> Fraction:
    """The cost of ``assignment`` on ``instance``, as an exact rational; of
    the requests ``arrivals`` only, when given."""
    servers, requests = instance.servers, instance.requests
    arrivals = range(len(assignment)) if arrivals is None else arrivals
    return sum(
        (abs(Fraction(requests[t]) - Fraction(servers[assignment[t]])) for t in arrivals),
        Fraction(0),
    )


def reported(instance, cost: Fraction):
    """``cost`` as the package reports a cost on ``instance``."""
    if all(type(x) is int for x in (*instance.servers, *instance.requests)):
        return int(cost)
    return float(cost)
