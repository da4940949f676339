"""Built-in example functors, each given by a small presentation source.

The sources dict is the single point of truth; instances are parsed and
cached on first use.  `twins` is deliberately not monomorphic: its two
constants become equal as soon as the set is inhabited, so the map out
of the empty set collapses them.  That makes it the stock test subject
for the support and modification machinery.
"""

from __future__ import annotations

from functools import lru_cache

from .presentation import PresentationInstance, parse_presentation

SOURCES: dict[str, str] = {
    "identity": """\
functor identity
# F(X) = X
shape x/1
""",
    "const2": """\
functor const2
# F(X) = {a, b} no matter what X is
shape a/0
shape b/0
""",
    "power2": """\
functor power2
# ordered pairs, F(X) = X^2
shape t/2
""",
    "power3": """\
functor power3
# ordered triples, F(X) = X^3
shape t/3
""",
    "upair": """\
functor upair
# unordered pairs {x, y} with x = y allowed
shape p/2
eq p(a,b) = p(b,a)
""",
    "exp2": """\
functor exp2
# nonempty subsets of size at most 2; the diagonal of the pair
# shape collapses onto the singleton shape
shape s1/1
shape s2/2
eq s2(a,b) = s2(b,a)
eq s2(a,a) = s1(a)
""",
    "pointed": """\
functor pointed
# X plus one extra basepoint
shape pt/1
shape base/0
""",
    "twins": """\
functor twins
# two constants that coincide whenever X is nonempty: u eats its
# argument, so over the empty set neither equation can fire
shape c/0
shape d/0
shape u/1
eq c = u(a)
eq d = u(a)
""",
}


def zoo_names() -> tuple[str, ...]:
    return tuple(SOURCES)


def zoo_source(name: str) -> str:
    """The source of ``name``; ValueError naming the available ones."""
    try:
        return SOURCES[name]
    except KeyError:
        raise ValueError(
            f"unknown zoo functor {name!r}; available: "
            f"{', '.join(SOURCES)}") from None


@lru_cache(maxsize=None)
def zoo_instance(name: str) -> PresentationInstance:
    return PresentationInstance(parse_presentation(zoo_source(name)))
