"""Set-level conjugation by Garside elements: twists and conjugator words.

Conjugating a standard parabolic subgroup by the Garside element of a
spherical subset permutes generators according to the diagram reflection of
each twistable component (and fixes everything else).  Words of such signed
factors are kept symbolic; expanding a factor into generator letters is
delegated to the oracle module and is optional.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .classify import TypedComponent, is_twistable, recognize_component
from .graph import CoxeterGraph, VertexSet, adjacent, components


class DeltaActionUndefined(ValueError):
    """A vertex outside the twisted subset is adjacent to it, so the
    conjugate is not a set of standard generators."""

    def __init__(self, vertex: str, subset: VertexSet, factor_index: int | None = None):
        self.vertex = vertex
        self.subset = subset
        self.factor_index = factor_index
        at = "" if factor_index is None else f" (word factor {factor_index})"
        super().__init__(
            f"conjugation by delta of {list(subset)} undefined on {vertex!r}{at}"
        )


@dataclass(frozen=True)
class TwistFactor:
    """A signed Garside factor delta(subset)^sign; the subset is spherical."""

    subset: VertexSet
    sign: int = 1

    def to_json_dict(self) -> dict:
        return {"delta_of": list(self.subset), "sign": self.sign}


@dataclass(frozen=True)
class ConjugatorWord:
    """Formal product of signed Garside factors, applied left to right."""

    factors: tuple[TwistFactor, ...] = ()

    def extended(self, factor: TwistFactor) -> ConjugatorWord:
        return ConjugatorWord(self.factors + (factor,))

    def __len__(self) -> int:
        return len(self.factors)

    def __iter__(self) -> Iterator[TwistFactor]:
        return iter(self.factors)

    def __bool__(self) -> bool:
        return bool(self.factors)

    def to_json_list(self) -> list[dict]:
        return [f.to_json_dict() for f in self.factors]


def delta_automorphism(c: TypedComponent) -> dict[str, str]:
    """The involution induced on a component's vertices by conjugation with
    its Garside element: the identity unless the component is twistable."""
    p = c.positions
    n = len(p)
    if not is_twistable(c):
        return {v: v for v in p}
    family = c.type.family
    if family == "A":
        return {p[i]: p[n - 1 - i] for i in range(n)}
    if family == "D":
        out = {v: v for v in p}
        out[p[0]], out[p[1]] = p[1], p[0]
        return out
    if family == "E":
        return {p[0]: p[0], p[3]: p[3], p[1]: p[5], p[5]: p[1], p[2]: p[4], p[4]: p[2]}
    return {p[0]: p[1], p[1]: p[0]}  # odd I2


def delta_conjugation_map(g: CoxeterGraph, V: Iterable[str]) -> dict[str, str]:
    """Componentwise delta involution on all of V.  V must be spherical."""
    out: dict[str, str] = {}
    for comp in components(g, V):
        tc = recognize_component(g, comp)
        if tc is None:
            raise ValueError(f"subset is not of spherical type: {list(comp)}")
        out.update(delta_automorphism(tc))
    return out


def delta_conjugate_set(
    g: CoxeterGraph, V: Iterable[str], X: Iterable[str], sign: int = 1
) -> VertexSet:
    """Image of the set X under conjugation by delta(V)^sign.

    Defined only when every element of X lies in V or commutes with all of V;
    the sign never changes the image (the action is an involution) but is
    carried by produced words.
    """
    Vs = g.subset(V)
    Xs = g.subset(X)
    tau = delta_conjugation_map(g, Vs)
    inside = set(Vs)
    out = []
    for x in Xs:
        if x in inside:
            out.append(tau[x])
        else:
            for v in Vs:
                if g.has_edge(x, v):
                    raise DeltaActionUndefined(x, Vs)
            out.append(x)
    return tuple(sorted(out))


def twist_component(g: CoxeterGraph, Y: VertexSet, t: str) -> VertexSet:
    """The component of Y + t containing t.  Y is canonical and t must be
    adjacent to Y."""
    if t not in adjacent(g, Y):
        raise ValueError(f"{t!r} is not adjacent to {list(Y)}")
    return next(c for c in components(g, Y + (t,)) if t in c)


def _garside_twist(
    tc: TypedComponent | None,
) -> tuple[dict[str, str], TwistFactor] | None:
    """The involution that conjugation by the Garside element of a
    recognized component induces on it, and that factor; None unless the
    component is twistable (None, the component of infinite type, is not)."""
    if tc is None or not is_twistable(tc):
        return None
    return delta_automorphism(tc), TwistFactor(tc.vertices, 1)


def elementary_twist(
    g: CoxeterGraph, Y: Iterable[str], t: str
) -> tuple[VertexSet, TwistFactor] | None:
    """One twist step: conjugate Y by the Garside element of the component
    of Y + t containing t, when that component is twistable.

    Returns the twisted set and the factor, or None when the component is
    not twistable.  The new set has the same size as Y.
    """
    Ys = g.subset(Y)
    comp = twist_component(g, Ys, t)
    twist = _garside_twist(recognize_component(g, comp))
    if twist is None:
        return None
    tau, factor = twist
    Z = (set(Ys) - set(comp)) | (set(comp) - {tau[t]})
    return tuple(sorted(Z)), factor


def apply_word(g: CoxeterGraph, X: Iterable[str], w: ConjugatorWord) -> VertexSet:
    """Apply a conjugator word factor by factor, left to right."""
    cur = g.subset(X)
    for i, factor in enumerate(w):
        try:
            cur = delta_conjugate_set(g, factor.subset, cur, factor.sign)
        except DeltaActionUndefined as exc:
            raise DeltaActionUndefined(exc.vertex, exc.subset, i) from exc
    return cur
