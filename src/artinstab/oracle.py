"""Brute-force finite Coxeter group engine over exact integer root lattices.

Crystallographic types (A, B, D, E, F) are handled through integer matrices
acting on the root lattice in the simple-root basis, built on the diagram that
the shared catalog (``classify._diagram``) gives; dihedral types I2(m) through
a direct model of the dihedral group of order 2m.  The independence lies in
the arithmetic: the longest element is found by descent on roots, never from
the diagram involutions (``classify._delta_images``) that the twists use, so
the two can be checked against each other.

H_3 and H_4 are not supported: they would need exact golden-ratio
arithmetic, they are never twistable, and their longest element is central.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .classify import TypedComponent, _diagram, recognize_component
from .graph import CoxeterGraph, components

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]

_CRYSTALLOGRAPHIC = {"A", "B", "D", "E", "F"}


class UnsupportedTypeError(ValueError):
    """Type outside the oracle's scope (H types, or I2 where a matrix model
    was requested)."""


class WeylElement(NamedTuple):
    """Integer matrix on the root lattice plus the word that produced it
    (1-based position indices, multiplied left to right)."""

    matrix: Matrix
    word: tuple[int, ...]


class DihedralElement(NamedTuple):
    """Element of the dihedral group of order 2m: (s1 s2)^rot, optionally
    followed by s1, plus the producing word."""

    m: int
    rot: int
    flip: bool
    word: tuple[int, ...]


def _column(m: Matrix, j: int) -> Vector:
    return tuple(row[j] for row in m)


def _matvec(m: Matrix, v: Vector) -> Vector:
    n = len(m)
    return tuple(sum(m[i][k] * v[k] for k in range(n)) for i in range(n))


def _cartan_matrix(t) -> list[list[int]]:
    """Cartan matrix in position order.  On a label-4 edge the smaller
    position takes the -2 entry; the orientation never affects the longest
    element's conjugation permutation."""
    if t.family not in _CRYSTALLOGRAPHIC:
        raise UnsupportedTypeError(f"{t} is not crystallographic")
    n = t.rank
    cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for (i, j), m in _diagram(t.family, n).items():
        if m == 3:
            cartan[i][j] = cartan[j][i] = -1
        else:
            cartan[i][j] = -2
            cartan[j][i] = -1
    return cartan


def _reflection_matrices(t) -> list[Matrix]:
    cartan = _cartan_matrix(t)
    n = t.rank
    out = []
    for i in range(n):
        rows = []
        for r in range(n):
            if r != i:
                rows.append(tuple(1 if r == j else 0 for j in range(n)))
            else:
                rows.append(tuple((1 if i == j else 0) - cartan[i][j] for j in range(n)))
        out.append(tuple(rows))
    return out


def _is_positive(v: Vector) -> bool:
    return all(x >= 0 for x in v)


def _crystallographic_longest(t) -> WeylElement:
    """Greedy descent: right-multiply by the first s_i whose column is
    positive until none is.  Right-multiplying by s_i subtracts A_ij times
    column i from each column j (A the Cartan matrix), so the product is
    kept as columns and each letter costs O(n^2)."""
    cartan = _cartan_matrix(t)
    n = t.rank
    cols = [[1 if r == j else 0 for r in range(n)] for j in range(n)]
    word: list[int] = []
    while True:
        for i in range(n):
            if _is_positive(cols[i]):
                ci = cols[i]
                for j, a in enumerate(cartan[i]):
                    if a:
                        cols[j] = [x - a * y for x, y in zip(cols[j], ci)]
                word.append(i + 1)
                break
        else:
            return WeylElement(tuple(zip(*cols)), tuple(word))


def _dihedral_mul(m: int, a: tuple[int, bool], b: tuple[int, bool]) -> tuple[int, bool]:
    ra, fa = a
    rb, fb = b
    return ((ra - rb) % m if fa else (ra + rb) % m, fa != fb)


def _dihedral_gens(m: int) -> dict[int, tuple[int, bool]]:
    return {1: (0, True), 2: (m - 1, True)}


def _dihedral_lengths(m: int) -> dict[tuple[int, bool], int]:
    gens = _dihedral_gens(m)
    dist = {(0, False): 0}
    queue = deque([(0, False)])
    while queue:
        e = queue.popleft()
        for gen in gens.values():
            nxt = _dihedral_mul(m, e, gen)
            if nxt not in dist:
                dist[nxt] = dist[e] + 1
                queue.append(nxt)
    return dist


def _dihedral_longest(m: int) -> DihedralElement:
    gens = _dihedral_gens(m)
    dist = _dihedral_lengths(m)
    cur = (0, False)
    word: list[int] = []
    while True:
        for i in (1, 2):
            nxt = _dihedral_mul(m, cur, gens[i])
            if dist[nxt] > dist[cur]:
                cur = nxt
                word.append(i)
                break
        else:
            return DihedralElement(m, cur[0], cur[1], tuple(word))


def longest_element(c: TypedComponent) -> WeylElement | DihedralElement:
    """Longest element by greedy descent; the word is reduced and its
    length equals the number of positive roots."""
    t = c.type
    if t.family == "I2":
        return _dihedral_longest(t.m)
    if t.family not in _CRYSTALLOGRAPHIC:
        raise UnsupportedTypeError(f"{t} is not supported by the oracle")
    return _crystallographic_longest(t)


def positive_roots(c: TypedComponent) -> list[Vector]:
    """All positive roots, enumerated by closing the simple roots under the
    simple reflections.  Crystallographic types only."""
    t = c.type
    if t.family not in _CRYSTALLOGRAPHIC:
        raise UnsupportedTypeError(f"{t} has no integer root system here")
    refl = _reflection_matrices(t)
    n = t.rank
    simples = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    seen: set[Vector] = set(simples)
    queue = deque(simples)
    while queue:
        v = queue.popleft()
        for r in refl:
            w = _matvec(r, v)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return sorted(v for v in seen if _is_positive(v))


def w0_conjugation_permutation(c: TypedComponent) -> dict[int, int]:
    """The involution i -> j with w0(alpha_i) = -alpha_j (1-based positions);
    computed in the dihedral model for I2 types."""
    t = c.type
    if t.family == "I2":
        m = t.m
        gens = _dihedral_gens(m)
        w0 = _dihedral_longest(m)
        e = (w0.rot, w0.flip)
        inv = (e[0], True) if e[1] else ((-e[0]) % m, False)
        out: dict[int, int] = {}
        for i, gen in gens.items():
            img = _dihedral_mul(m, _dihedral_mul(m, inv, gen), e)
            matches = [j for j, h in gens.items() if h == img]
            if not matches:
                raise AssertionError("conjugate of a generator is not a generator")
            out[i] = matches[0]
        return out
    if t.family not in _CRYSTALLOGRAPHIC:
        raise UnsupportedTypeError(f"{t} is not supported by the oracle")
    w0 = _crystallographic_longest(t)
    n = t.rank
    perm: dict[int, int] = {}
    for i in range(n):
        col = _column(w0.matrix, i)
        targets = [j for j in range(n) if col == tuple(-1 if k == j else 0 for k in range(n))]
        if not targets:
            raise AssertionError("w0 does not send a simple root to a negative simple root")
        perm[i + 1] = targets[0] + 1
    return perm


def expand_subset(g: CoxeterGraph, V) -> list[str] | None:
    """Concatenated delta word of a (possibly reducible) spherical subset,
    or None when some component's type is outside the oracle's scope."""
    Vs = g.subset(V)
    letters: list[str] = []
    for comp in components(g, Vs):
        tc = recognize_component(g, comp)
        if tc is None:
            raise ValueError(f"subset is not of spherical type: {list(comp)}")
        try:
            letters.extend(tc.positions[i - 1] for i in longest_element(tc).word)
        except UnsupportedTypeError:
            return None
    return letters
