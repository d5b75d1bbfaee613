"""Growth by operation counts, not wall time. LR (its oracle and its run),
DIVIDE_k with ``greedy`` at k = 4 and at k = isqrt(n), RESCALE with
``greedy`` at k = 4, ``monotone_optimal``, DIVIDE_k's ``compute_advice``
and ``classify_requests`` at k = 4, and its advice tape's round trip
(encode, then decode) at k = isqrt(n) run on coordinates of
``Counted``, an ``int`` that counts every compare, ``+``, ``-``, ``*``,
``//``, negation and ``abs`` made on it and returns its results as
``Counted``. Its instances are in integer mode and are their own integer
image, so the package runs on them unchanged. Only the layer's own call is
counted, not the inputs built for it. The count per n log2 n at n = 2^14
may be at most ``MARGIN`` times its value at n = 2^10: an n log n run keeps
it level, and a linear scan in a search makes it grow with n.

Each run on LR's pool goes once with its own ``RUN`` and once with runs of
``SHORT_RUN`` entries. At these sizes a pool of ``RUN`` = 1024 holds at most
16 runs, so a linear scan over its runs would cost little more than the
bisect it replaced; short runs make the runs' index grow with n, as it does
with ``RUN`` past n = 10^6, and such a scan shows.

What is not counted: C-level memmoves (``del run[i]`` in a run of at most
``RUN`` entries, ``insort``, the drop of an emptied run, which moves the
n / RUN runs after it), set and dict hashing, and int operations the
package makes on counts and indices rather than coordinates."""

import math

import pytest

from matchline import lr
from matchline.divide import (
    classify_requests,
    compute_advice,
    decode_divide_advice,
    divide_run,
    encode_divide_advice,
    plan_blocks,
    rescale_run,
)
from matchline.generators import gen_uniform
from matchline.lr import lr_oracle, lr_run
from matchline.model import Instance
from matchline.offline import monotone_optimal

SIZES = (2**10, 2**12, 2**14)
MARGIN = 1.25
SHORT_RUN = 16


def _counting(name: str, wrap: bool):
    op = getattr(int, name)

    def method(*args):
        Counted.ops += 1
        result = op(*args)
        return Counted(result) if wrap and result is not NotImplemented else result

    return method


class Counted(int):
    ops = 0
    __hash__ = int.__hash__


for _name in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__ne__"):
    setattr(Counted, _name, _counting(_name, False))
for _name in (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__floordiv__", "__rfloordiv__", "__neg__", "__abs__",
):  # fmt: skip
    setattr(Counted, _name, _counting(_name, True))


def counted_instance(n: int) -> Instance:
    plain = gen_uniform(n, (0, 10 * n), 1, integer_mode=True)
    instance = Instance(tuple(map(Counted, plain.servers)), tuple(map(Counted, plain.requests)))
    assert instance.integer_mode and instance.scale == 1
    return instance


# each layer takes an instance and returns the call whose operations count


def lr_oracle_and_run(instance: Instance):
    return lambda: lr_run(instance, lr_oracle(instance))


def divide_greedy(instance: Instance):
    return lambda: divide_run(instance, 4, "greedy")


def divide_sqrt_blocks(instance: Instance):
    return lambda: divide_run(instance, math.isqrt(instance.n), "greedy")


def rescale_greedy(instance: Instance):
    return lambda: rescale_run(instance, 4, "greedy")


def monotone_optimum(instance: Instance):
    return lambda: monotone_optimal(instance)


def advice_inputs(instance: Instance, k: int = 4):
    """DIVIDE_k's plan at ``k`` and its requests, clamped into [1, N - 1] as
    a run clamps them."""
    plan = plan_blocks(instance.servers, k)
    top = plan.span_bound - 1
    return [1 if r < 1 else top if r > top else r for r in instance.requests], plan


def advice(instance: Instance):
    requests, plan = advice_inputs(instance)
    return lambda: compute_advice(requests, plan)


def classification(instance: Instance):
    requests, plan = advice_inputs(instance)
    words = compute_advice(requests, plan)
    return lambda: classify_requests(requests, plan, words)


def tape_round_trip(instance: Instance):
    requests, plan = advice_inputs(instance, math.isqrt(instance.n))
    words = compute_advice(requests, plan)
    return lambda: decode_divide_advice(encode_divide_advice(words, plan), plan)


def ops_per_n_log_n(layer, n: int) -> float:
    call = layer(counted_instance(n))
    Counted.ops = 0
    call()
    return Counted.ops / (n * math.log2(n))


@pytest.mark.parametrize("run_size", [lr.RUN, SHORT_RUN])
@pytest.mark.parametrize(
    "run", [lr_oracle_and_run, divide_greedy, divide_sqrt_blocks, rescale_greedy]
)
def test_operations_grow_as_n_log_n(run, run_size, monkeypatch):
    monkeypatch.setattr(lr, "RUN", run_size)
    counts = [ops_per_n_log_n(run, n) for n in SIZES]
    assert counts[-1] <= MARGIN * counts[0], counts


@pytest.mark.parametrize(
    "layer", [monotone_optimum, advice, classification, tape_round_trip]
)
def test_offline_and_advice_operations_grow_as_n_log_n(layer):
    # none of these layers builds a pool, so RUN does not reach them
    counts = [ops_per_n_log_n(layer, n) for n in SIZES]
    assert counts[-1] <= MARGIN * counts[0], counts
