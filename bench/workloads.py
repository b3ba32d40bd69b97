"""Seeded inputs for the four benchmark workloads.

A workload is a cycle of rounds; round r runs ``cycle[r % len(cycle)]``,
one ``run --verify`` per case.  The seed picks inputs from finite pools so
that every input the benchmark can generate has a structured-report sha256
recorded in ``golden.json`` (see ``record_golden.py``).  Changing the seed
changes the inputs, never the rung sizes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import oracle

BAUR_POOL = 32  # --seed values 0..31 for paper:baur-sampling
CHASE_POOL = 16  # chase starts s = 1..16
NOISE_POOL = 16  # noise polynomials added to the lazy-quotient target

CHASE_RUNGS = (16, 32, 64, 128)
NOT_CA_RUNGS = (8, 9, 10, 11, 12)
ARTIN_SCHREIER_RUNGS = (8, 10, 12)
ARTIN_SCHREIER_CEILING = 10 ** 6
# (formula as the scenario writes it, the same formula for the oracle, ceiling)
QUOTIENT_RUNGS = (
    ("i^2", lambda i: i * i, 64),
    ("i*(i+1)//2", lambda i: i * (i + 1) // 2, 72),
    ("i^2", lambda i: i * i, 80),
)


@dataclass(frozen=True)
class Case:
    key: str  # golden.json key; one per distinct input
    rung: str  # row of the per-rung growth table
    argv: tuple  # CLI arguments after "run"; empty when ``doc`` is set
    facts: Callable[[dict], list]
    doc: Optional[dict] = None  # generated scenario, written to a file at set-up


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cycle: Callable[[int], list]  # seed -> list of rounds, each a list of cases
    pool: Callable[[], list]  # every case any seed can produce
    # Percentile of verdict_tail_s.  Every round runs the same K cases, so
    # verdict times fall into K clusters, and a percentile picked from the
    # sample count would jump between rungs when the round count changes by
    # one.  Each value sits inside one cluster and left at least 10 samples
    # beyond it in 25-second runs of the code this benchmark was written for.
    tail_percentile: float


# paper-suite: the 8 built-ins at default precision

_BUILTIN_FACTS = (
    ("fpt-y", oracle.fpt_y),
    ("ti-minus-ti1", oracle.ti_minus_ti1),
    ("notCA", partial(oracle.not_ca, 8)),
    ("sqrt-t", oracle.sqrt_t),
    ("standard-2x2", oracle.standard_2x2),
    ("artin-schreier", partial(oracle.artin_schreier, 100, 6)),
    ("cofinal-approx", oracle.cofinal_approx),
)


def _builtin(name: str, facts) -> Case:
    return Case(f"paper-suite/{name}", name, (f"paper:{name}",), facts)


def _baur(k: int) -> Case:
    return Case(
        f"paper-suite/baur-sampling/seed={k}", "baur-sampling",
        ("paper:baur-sampling", "--seed", str(k)), oracle.baur_sampling,
    )


def paper_suite(seed: int) -> list:
    # The sampling seed changes every round, so a run averages over the pool
    # instead of resting on one draw of 100 random families.
    order = list(range(BAUR_POOL))
    random.Random(seed).shuffle(order)
    fixed = [_builtin(name, facts) for name, facts in _BUILTIN_FACTS]
    return [fixed + [_baur(k)] for k in order]


def paper_suite_pool() -> list:
    return [_builtin(name, facts) for name, facts in _BUILTIN_FACTS] + [_baur(k) for k in range(BAUR_POOL)]


# chase-ladder: t^s against the telescoping family, max_terms 16..128


def chase_case(start: int, max_terms: int) -> Case:
    doc = {
        "name": f"chase-s{start}-m{max_terms}",
        "ambient": {"group": {"group": "Z"}, "coefficients": {"field": "Q"}},
        "base_field": {"kind": "trivial", "name": "Q"},
        "elements": {"target": [[start, 1]]},
        "tasks": [{
            "task": "nearest_point", "target": "target",
            "family": {"family_builder": "telescoping", "start": start, "count": "auto"},
        }],
        # the default ceiling 40 leaves family members without a witnessed
        # term once max_terms >= 39, so the ceiling grows with the rung
        "precision": {"ceiling": 2 * max_terms + 40, "max_terms": max_terms, "degree_cap": 16},
    }
    return Case(
        f"chase-ladder/s={start}/max_terms={max_terms}", f"max_terms={max_terms}", (),
        partial(oracle.chase, start, max_terms), doc,
    )


def chase_ladder(seed: int) -> list:
    start = 1 + random.Random(seed).randrange(CHASE_POOL)
    return [[chase_case(start, m) for m in CHASE_RUNGS]]


def chase_ladder_pool() -> list:
    return [chase_case(s, m) for s in range(1, CHASE_POOL + 1) for m in CHASE_RUNGS]


# frobenius-ladder: the 3^i chain is the input, so it is the same for every seed


def frobenius_ladder(seed: int) -> list:
    del seed
    cases = [
        Case(
            f"frobenius-ladder/notCA/max_terms={m}", f"notCA max_terms={m}",
            ("paper:notCA", "--max-terms", str(m)), partial(oracle.not_ca, m),
        )
        for m in NOT_CA_RUNGS
    ]
    cases += [
        Case(
            f"frobenius-ladder/artin-schreier/max_terms={m}", f"artin-schreier max_terms={m}",
            ("paper:artin-schreier", "--max-terms", str(m), "--precision-exp", str(ARTIN_SCHREIER_CEILING)),
            partial(oracle.artin_schreier, ARTIN_SCHREIER_CEILING, m),
        )
        for m in ARTIN_SCHREIER_RUNGS
    ]
    return [cases]


def frobenius_ladder_pool() -> list:
    return frobenius_ladder(0)[0]


# lazy-quotient: b = geometric + artin_schreier + noise against one custom_powers
# element over the full completion F3((t))


def noise_polynomial(index: int) -> list:
    rng = random.Random(1000 + index)
    return [[e, rng.randint(1, 2)] for e in sorted(rng.sample(range(24), 3))]


def _quotient(index: int, formula: str, exponent_of, ceiling: int) -> Case:
    noise = noise_polynomial(index)
    doc = {
        "name": f"quotient-n{index}-c{ceiling}",
        "ambient": {"group": {"group": "Z"}, "coefficients": {"field": "Fp", "p": 3}},
        "base_field": {"kind": "completion", "t_value": 1, "name": "F3((t))"},
        "elements": {
            "geometric": {"builder": "geometric"},
            "artin": {"builder": "artin_schreier", "p": 3},
            "noise": noise,
            "target": {"sum": ["geometric", "artin", "noise"]},
            "w": {"builder": "custom_powers", "exponents": formula},
        },
        "tasks": [{"task": "nearest_point", "target": "target", "family": ["w"]}],
        "precision": {"ceiling": ceiling, "max_terms": 8, "degree_cap": 16},
    }
    target = [(e, 1) for e in range(ceiling)] + [(e, c) for e, c in noise]
    power = 1
    while power < ceiling:
        target.append((power, 1))
        power *= 3
    divisor = []
    i = 0
    while exponent_of(i) < ceiling:
        divisor.append((exponent_of(i), 1))
        i += 1
    return Case(
        f"lazy-quotient/noise={index}/{formula}/ceiling={ceiling}", f"{formula} ceiling={ceiling}", (),
        partial(oracle.quotient, target, divisor, 3, ceiling), doc,
    )


def lazy_quotient(seed: int) -> list:
    index = random.Random(seed).randrange(NOISE_POOL)
    return [[_quotient(index, *rung) for rung in QUOTIENT_RUNGS]]


def lazy_quotient_pool() -> list:
    return [_quotient(n, *rung) for n in range(NOISE_POOL) for rung in QUOTIENT_RUNGS]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-suite",
            "the 8 built-ins users run; fixed per-call cost in scenarios, reports and verify",
            paper_suite, paper_suite_pool, 98.0,
        ),
        Workload(
            "chase-ladder",
            "nearest-point chase at max_terms 16..128; groups-bound coset tests",
            chase_ladder, chase_ladder_pool, 62.5,
        ),
        Workload(
            "frobenius-ladder",
            "notCA and artin-schreier along the 3^i chain; presentations and residues blowup",
            frobenius_ladder, frobenius_ladder_pool, 81.25,
        ),
        Workload(
            "lazy-quotient",
            "b * invert(w) over F3((t)) up to ceilings 64..80; series multiply/invert",
            lazy_quotient, lazy_quotient_pool, 80.0,
        ),
    )
}

LADDERS = ("chase-ladder", "frobenius-ladder", "lazy-quotient")
