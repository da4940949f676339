"""Seeded benchmark inputs: the zoo sources and random flat presentations.

The program only ever sees the text written here, as ``.ffn`` files or
as strings handed to ``parse_presentation``.  Random presentations keep
the number of terms at the workload's size, the sum of size^arity over
their shapes, under a budget, so that every seed costs about the same.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path

VARIABLES = "abc"


@dataclass(frozen=True)
class Case:
    """One input of a pass: a presentation text and how to apply it."""

    label: str
    text: str
    modify: str | None = None
    zoo: str | None = None      # zoo name, None for a random presentation
    max_arity: int = 0
    path: Path | None = None


def _term(shape: str, arity: int, rng: random.Random) -> str:
    if arity == 0:
        return shape
    return f"{shape}({','.join(rng.choice(VARIABLES) for _ in range(arity))})"


def random_presentation(rng: random.Random, name: str, size: int,
                        budget: int) -> tuple[str, int]:
    """A flat presentation with at most ``budget`` terms over ``size``
    points, and its largest arity."""
    while True:
        arities = [rng.choice((0, 1, 1, 2, 2))
                   for _ in range(rng.randint(1, 3))]
        if sum(size ** a for a in arities) <= budget:
            break
    shapes = [f"s{i}" for i in range(len(arities))]
    lines = [f"functor {name}"]
    lines += [f"shape {s}/{a}" for s, a in zip(shapes, arities)]
    for _ in range(rng.randint(0, 2)):
        i, j = rng.randrange(len(shapes)), rng.randrange(len(shapes))
        lines.append(f"eq {_term(shapes[i], arities[i], rng)} = "
                     f"{_term(shapes[j], arities[j], rng)}")
    return "\n".join(lines) + "\n", max(arities)


def make_cases(sources: dict[str, str], seed: int, size: int, budget: int,
               n_random: int) -> list[Case]:
    """Every zoo source, ``twins`` under both modifications, then
    ``n_random`` seeded random presentations."""
    cases = [Case(name, text, zoo=name) for name, text in sources.items()]
    cases += [Case(f"twins-{mode}", sources["twins"], modify=mode,
                   zoo="twins") for mode in ("max", "min")]
    rng = random.Random(seed)
    for k in range(n_random):
        text, arity = random_presentation(rng, f"rand{k}", size, budget)
        cases.append(Case(f"rand{k}", text, max_arity=arity))
    return cases


def write_cases(cases: list[Case], directory: Path) -> list[Case]:
    """Write each distinct text once as ``<label>.ffn``; return the cases
    with their paths filled in."""
    directory.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    out = []
    for case in cases:
        key = case.zoo or case.label
        if key not in written:
            written[key] = directory / f"{key}.ffn"
            written[key].write_text(case.text, encoding="utf-8")
        out.append(replace(case, path=written[key]))
    return out
