"""The committed output digest: one SHA-256 per (algorithm, field) over a
fixed grid of runs, so a change that should leave every output as it was
can prove it by leaving ``golden.json`` as it is.

The grid, with fixed seeds and no hypothesis draws:
- n = 1..40, seeds 0..2, four shapes: distinct ints, duplicates, requests
  outside the servers' span, and floats;
- every algorithm of ``run_algorithm``; ``divide`` and ``rescale`` at each
  k in {1, 2, isqrt(n), n} with every subroutine (``divide`` on the int
  shapes only, as it refuses floats);
- LR on every member of the hard family I_n for n <= 10;
- one n = 10^4 instance per algorithm (k = isqrt(n) with ``greedy``).

Each run gives one record of plain strings, written out field by field
(no dataclass ``repr``): its id; the assignment; the cost as reported, with
the int total on the integer image and D; the bits read and the oracle
tape's bits; and for ``divide`` and ``rescale`` every ``DivideResult``
field. A field's digest hashes the id and the field of each record of its
algorithm, in grid order, so a new algorithm adds keys and changes none.

    python tests/golden.py           # print the digests that differ
    python tests/golden.py --write   # rewrite tests/golden.json
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from matchline.experiment import ALGORITHMS, K_ALGORITHMS, run_algorithm
from matchline.generators import gen_family, gen_uniform
from matchline.lr import lr_oracle
from matchline.model import integer_image, validate_instance
from matchline.subroutines import SUBROUTINE_NAMES

GOLDEN = Path(__file__).resolve().parent / "golden.json"
SHAPES = ("distinct", "duplicates", "outside", "float")
SIZES = range(1, 41)
SEEDS = (0, 1, 2)
FAMILY_MAX_N = 10
LARGE_N = 10**4


def make_instance(shape: str, n: int, seed: int):
    rng = random.Random(f"{shape}-{n}-{seed}")
    if shape == "float":
        servers = [rng.uniform(0.0, 10.0) for _ in range(n)]
        return validate_instance(servers, [rng.uniform(0.0, 10.0) for _ in range(n)])
    if shape == "distinct":
        servers = rng.sample(range(4 * n), n)
    else:
        top = max(1, n // 3) if shape == "duplicates" else 4 * n
        servers = [rng.randint(0, top) for _ in range(n)]
    shift = 1 - min(servers)
    servers = sorted(s + shift for s in servers)
    if shape == "distinct":
        requests = rng.sample(range(1, servers[-1] + 1), n)
    elif shape == "duplicates":
        requests = [rng.randint(1, servers[-1]) for _ in range(n)]
    else:
        requests = [rng.randint(-6 * n, 10 * n) for _ in range(n)]
    return validate_instance(servers, requests)


def block_counts(n: int) -> list:
    return sorted({1, min(2, n), math.isqrt(n), n})


def runs():
    """(algorithm, id, instance, k, subroutine) per run of the grid."""
    for n in SIZES:
        for seed in SEEDS:
            for shape in SHAPES:
                instance = make_instance(shape, n, seed)
                name = f"{shape} n={n} seed={seed}"
                for algo in ALGORITHMS:
                    if algo not in K_ALGORITHMS:
                        yield algo, name, instance, None, "greedy"
                    elif algo == "rescale" or shape != "float":
                        for k in block_counts(n):
                            for sub in SUBROUTINE_NAMES:
                                yield algo, f"{name} k={k} {sub}", instance, k, sub
    for n in range(1, FAMILY_MAX_N + 1):
        for i, member in enumerate(gen_family(n)):
            yield "lr", f"family n={n} member={i}", member.instance(), None, "greedy"
    large = gen_uniform(LARGE_N, (0, 10 * LARGE_N), 0, integer_mode=True)
    for algo in ALGORITHMS:
        k = math.isqrt(LARGE_N) if algo in K_ALGORITHMS else None
        yield algo, f"uniform n={LARGE_N} k={k}", large, k, "greedy"


def bit_string(bits) -> str:
    return "".join(map(str, bits))


def record(algo: str, instance, k, sub: str) -> dict:
    """The run's outputs, one string per field."""
    outcome = run_algorithm(instance, algo, k, sub)
    matching = outcome["matching"]
    servers, requests = integer_image(instance)
    total = sum(abs(requests[t] - servers[j]) for t, j in enumerate(matching.assignment))
    fields = {
        "assignment": " ".join(map(str, matching.assignment)),
        "cost": f"{matching.cost!r} total={total} D={instance.scale}",
        "bits": f"oracle={outcome['oracle_bits_read']} aux={outcome['aux_bits']}",
    }
    if algo == "lr":
        fields["tape"] = bit_string(lr_oracle(instance).bits)
    if algo in K_ALGORITHMS:
        result = outcome["divide"]
        plan, advice, marks = result.plan, result.advice, result.marks
        fields.update(
            plan=f"k={plan.k} groups={plan.groups} boundaries={plan.boundaries} "
            f"N={plan.span_bound}",
            advice=f"k={advice.k} q={advice.q} d={advice.d} m={advice.m}",
            marks=f"right={sorted(marks.marked_right)} left={sorted(marks.marked_left)}",
            tape=bit_string(result.tape.bits),
            read=f"oracle={result.oracle_bits_read} aux={result.aux_bits_written} "
            f"tape={result.tape.bits_read}",
            pools=f"lr={result.lr_cost!r} blocks={list(map(repr, result.block_costs))}",
            arrivals=f"{result.arrivals} marked={result.marked_arrivals}",
        )
    return fields


def digests() -> dict:
    hashes = {}
    for algo, name, instance, k, sub in runs():
        for field, value in record(algo, instance, k, sub).items():
            key = f"{algo}.{field}"
            if key not in hashes:
                hashes[key] = hashlib.sha256()
            hashes[key].update(f"{name}\t{value}\n".encode())
    return {key: hashes[key].hexdigest() for key in sorted(hashes)}


def main(argv) -> int:
    found = digests()
    if argv == ["--write"]:
        GOLDEN.write_text(json.dumps(found, indent=2) + "\n")
        return 0
    if argv:
        print(__doc__.rsplit("\n\n", 1)[-1], file=sys.stderr)
        return 2
    committed = json.loads(GOLDEN.read_text())
    keys = found.keys() | committed.keys()
    changed = sorted(key for key in keys if found.get(key) != committed.get(key))
    for key in changed:
        print(key)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
