"""Class lists: the layout in which the descent holds a polynomial.

The degree-k part of a polynomial in n variables is one list per nonzero
parity class e.  The list holds the coefficient of alpha = e + 2*beta at
the position of beta in layout (n, b): the multi-indices beta of |beta| = b
= (k - |e|) / 2 in descending lexicographic order, which is the class's
member order in its level plan.  Zeros are stored.  Exact lists hold int
numerators over one denominator per degree, float lists floats.  No
exponent tuple is built or looked up between ``_split``, which reads a
``Poly`` into lists, and ``_attach``, which writes lists out as terms.

Every term of q is x_j^2, x_j or a constant, so the Laplacian and the
products with q move each beta by one unit vector e_j, with a weight:
x_j^2 keeps the class, and x_j changes its j-th parity.  A shift moves the
runs of the last two axes of layout b, one per value of beta_0 ..
beta_(n-3), whole; ``_shift_program`` lists them as slices, joined where
runs continue on both sides, and every shift is one chain of slices and
one elementwise ``map`` per axis.  Sums run over the axes in order, so a
float answer does not depend on the order of the input's terms.

A list per degree would hold comb(k + n - 1, n - 1) slots whatever the
input, up to (k + n - 1)(k + n - 2) / (k(k - 1)) times the level's size:
the degree-4 part of x1^4 in 64 variables would take 766,480 slots, where
its one class, e = 0, takes comb(65, 2) = 2,080.  The closed-form sizes of
a descent's levels and classes, which the command line checks before it
solves, are here too.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, compress, repeat
from operator import add, and_, mul, neg, sub
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .polynomial import Poly, Scalar
from .quadric import NonhyperbolicQuadratic


def _layout_size(n: int, b: int) -> int:
    return math.comb(b + n - 1, n - 1)


def descent_unknowns(p: Poly, quadric: NonhyperbolicQuadratic, limit: int) -> int:
    """Unknowns over every level that ``solve_dirichlet``'s descent may
    solve for p on the quadric, from closed forms.

    The level of degree k has comb(k - 2 + n - 1, n - 1) unknowns and runs
    when p_k is nonzero, or q has a linear part and level k + 1 ran, or a
    constant and level k + 2 ran; with a linear part that is every degree
    from the top down to 2, comb(top - 2 + n, n) in all.  Otherwise the sum
    stops at the first level past ``limit``, after at most limit + 1 levels.
    """
    n = p.n
    degrees = {sum(alpha) for alpha in p.terms}
    top = max(degrees, default=0)
    if top < 2:
        return 0
    _, q1, q0 = quadric.parts()
    if not q1.is_zero():
        return math.comb(top - 2 + n, n)
    if q0.is_zero():
        levels = (k for k in degrees if k >= 2)
    else:
        # One chain of every other degree per parity, from p's highest degree of it.
        heads = [max((k for k in degrees if k % 2 == r), default=0) for r in (0, 1)]
        levels = (k for head in heads for k in range(head, 1, -2))
    total = 0
    for k in levels:
        total += math.comb(k - 2 + n - 1, n - 1)
        if total > limit:
            break
    return total


def largest_class_work(n: int, order: int) -> int:
    """Work of the largest parity class of the order, in closed form: its
    size s times the larger of s and the square of its bandwidth w.

    The class of parity e holds the e + 2*beta with |beta| = (order - |e|)/2,
    so the largest has b = order // 2, s = comb(b + n - 1, n - 1), and both
    bandwidths w = comb(b + n - 2, n - 2), or less where an a_j is 0.  Its
    elimination takes about s * w^2 steps, and the working rows of either
    float kernel hold about s * w entries.  No kernel stores s^2 entries any
    more; the s^2 term stays until ``cli.SOLVE_MAX_CLASS_WORK`` is restated
    in counted elimination work, so that the limit refuses what it refused.
    A descent's top level has its largest class.
    """
    if order < 0:
        return 0
    b = order // 2
    size = _layout_size(n, b)
    band = _layout_size(n - 1, b) if n > 1 else 0
    return size * max(size, band * band)


def _heads(parity: tuple[int, ...], b: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """(head, r) for each run of the last two axes of a class at half
    degree b, in layout order, given the parities of its other axes: head
    holds the run's exponents on those axes and r the half degree left to
    the last two, whose exponents go (y + 2r, z), (y + 2r - 2, z + 2), ...,
    (y, z + 2r)."""
    if not b or not parity:
        yield parity, b
        return
    first, rest = parity[0], parity[1:]
    for x in range(b, -1, -1):
        for head, r in _heads(rest, b - x):
            yield (first + 2 * x,) + head, r


def _members(parity: tuple[int, ...], b: int) -> list[tuple[int, ...]]:
    """The multi-indices of a class list of half degree b, in order."""
    if len(parity) == 1:
        return [(parity[0] + 2 * b,)]
    y, z = parity[-2:]
    return [head + (y + 2 * x, z + 2 * (r - x))
            for head, r in _heads(parity[:-2], b) for x in range(r, -1, -1)]


def _split(poly: Poly, exact: bool, plan_of: Callable[[int], Iterable]
           ) -> dict[int, tuple[dict[tuple[int, ...], list], int]]:
    """The homogeneous parts of poly as class lists, by degree, each with
    its denominator: int numerators over the lcm of the part's
    denominators in exact mode, floats over 1 in float mode.  A degree k
    whose level plan ``plan_of(k)`` gives reads its classes' members from
    the plan, and keeps the classes that hold a term; any other makes the
    members of the classes its terms fall in."""
    by_degree: dict[int, dict] = {}
    for alpha, c in poly.terms.items():
        by_degree.setdefault(sum(alpha), {})[alpha] = c
    ones = (1,) * poly.n
    parts = {}
    for k, terms in by_degree.items():
        classes = [(parity, members) for parity, members, _ in plan_of(k)]
        if not classes:
            parities = dict.fromkeys(tuple(map(and_, alpha, ones)) for alpha in terms)
            classes = [(parity, _members(parity, (k - sum(parity)) >> 1)) for parity in parities]
        found = {}
        if exact:
            den = math.lcm(*[c.denominator for c in terms.values()])
            for parity, members in classes:
                values = [c.numerator * (den // c.denominator) if (c := terms.get(alpha)) else 0
                          for alpha in members]
                if any(values):
                    found[parity] = values
        else:
            den = 1
            for parity, members in classes:
                values = [float(terms.get(alpha, 0.0)) for alpha in members]
                if any(values):
                    found[parity] = values
        parts[k] = (found, den)
    return parts


def _attach(terms: dict, classes: Mapping[tuple[int, ...], list], k: int, den: int,
            exact: bool, plan: Iterable = ()) -> None:
    """Add the nonzero entries of the degree-k class lists to terms, as
    ``Fraction``s over den in exact mode and as they are in float mode.
    The exponent tuples are the members of the level plan of order k,
    where one is given, so that the terms share them."""
    known = {parity: members for parity, members, _ in plan}
    for parity, values in classes.items():
        members = known.get(parity) or _members(parity, (k - sum(parity)) >> 1)
        if exact:
            terms.update({alpha: Fraction(v, den) for alpha, v in zip(members, values) if v})
        else:
            terms.update(zip(compress(members, values), compress(values, values)))


def _runs(n: int, b: int, j: int) -> list[tuple[int, int, int]]:
    """(source start, target start, length) of the runs in which beta ->
    beta + e_j carries layout (n, b) into layout (n, b + 1): beta_0 leads
    both layouts, so axis 0 moves all of layout b onto the head of layout
    b + 1, and axis j moves each block of one beta_0 as axis j - 1 moves
    layout (n - 1, b - beta_0)."""
    if not j:
        return [(0, 0, _layout_size(n, b))]
    if not b:
        return [(0, j, 1)]
    out = []
    # The target's first block, beta_0 = b + 1, has one member and no source.
    s, t = 0, 1
    for x in range(b, -1, -1):
        out += [(s + s2, t + t2, size) for s2, t2, size in _runs(n - 1, b - x, j - 1)]
        s += _layout_size(n - 1, b - x)
        t += _layout_size(n - 1, b + 1 - x)
    return out


def _shift_program(n: int, b: int) -> tuple:
    """(N_b, N_(b+1), axes), the sizes of layouts (n, b) and (n, b + 1)
    and, for each axis j, how beta -> beta + e_j carries the first into
    the second, as slices of its ``_runs`` joined where they continue on
    both sides (a block of the last two axes at least); an axis is (down,
    up, weights):

    * ``down``, the slices of a layout-(b + 1) list that, joined, hold the
      entry at beta + e_j for each beta of layout b;
    * ``up``, the slices of a layout-b list followed by N_(b+1) - N_b
      zeros that, joined, hold the entry at gamma - e_j for each gamma of
      layout b + 1, and a zero where gamma_j = 0;
    * ``weights``, for e_j = 0 and for e_j = 1, the factor (e_j + 2beta_j +
      2)(e_j + 2beta_j + 1) of each beta of layout b: the Laplacian takes
      x_j^2 off the term at beta + e_j with it.
    """
    low, high = _layout_size(n, b), _layout_size(n, b + 1)
    # By the exponent 2*beta_j of the members of class 0.
    factors = [[(e + x + 2) * (e + x + 1) for x in range(2 * b + 1)] for e in (0, 1)]
    columns = zip(*_members((0,) * n, b))
    axes = []
    for j, column in enumerate(columns):
        merged: list[list[int]] = []
        for s, t, size in _runs(n, b, j):
            if merged and merged[-1][0] + merged[-1][2] == s and merged[-1][1] + merged[-1][2] == t:
                merged[-1][2] += size
            else:
                merged.append([s, t, size])
        # A gap of g zeros is one slice of the zeros, shared by every gap of g.
        up, at, gaps = [], 0, {}
        for s, t, size in merged:
            if t > at:
                up.append(gaps.setdefault(t - at, slice(low, low + t - at)))
            up.append(slice(s, s + size))
            at = t + size
        if at < high:
            up.append(slice(low, low + high - at))
        axes.append((
            tuple(slice(t, t + size) for _, t, size in merged),
            tuple(up),
            tuple(tuple(map(factor.__getitem__, column)) for factor in factors),
        ))
    return low, high, tuple(axes)


def _gather(values: list, slices: tuple[slice, ...]) -> Iterable:
    """The slices of values, joined."""
    if len(slices) == 1:
        return values[slices[0]]
    return chain.from_iterable(map(values.__getitem__, slices))


def _laplacian(values: list, parity: tuple[int, ...], axes: tuple) -> Iterator:
    """The Laplacian of a class list of half degree b + 1, given the shift
    axes of layout (n, b): each entry of layout b summed over the axes in
    order."""
    total = None
    for (down, _, weights), e in zip(axes, parity):
        term = map(mul, _gather(values, down), weights[e])
        total = term if total is None else map(add, total, term)
    return total


def _carry(k: int, part: Mapping, scale: int, above: Mapping, c: Sequence, same: Mapping,
           d: Scalar, shifts: Callable[[int], tuple]) -> dict[tuple[int, ...], list]:
    """part * scale - q1 * above - q0 * same, the degree-k carry, class by
    class, with q1 = sum c_j x_j and q0 = d, already scaled, and ``shifts``
    the shift program of each b; classes that come out all zero are
    dropped.  Each product is formed, its terms summed over the axes in
    order, before it is subtracted."""
    linear: dict = {}
    padded: dict = {}
    for j, cj in enumerate(c):
        if not cj:
            continue
        for parity, values in above.items():
            if parity[j]:
                # x_j * x^alpha moves the class e to e - e_j, beta to beta + e_j.
                if parity not in padded:
                    low, high, axes = shifts((k - 1 - sum(parity)) >> 1)
                    padded[parity] = (values + [0] * (high - low), axes)
                source, axes = padded[parity]
                term = map(mul, _gather(source, axes[j][1]), repeat(cj))
                target = parity[:j] + (0,) + parity[j + 1:]
            else:
                term = map(mul, values, repeat(cj))
                target = parity[:j] + (1,) + parity[j + 1:]
            before = linear.get(target)
            linear[target] = term if before is None else map(add, before, term)
    out = {}
    for parity in dict.fromkeys(chain(part, linear, same)):
        total = part.get(parity)
        if total is not None and scale != 1:
            total = map(mul, total, repeat(scale))
        terms = [linear.get(parity)]
        if d and parity in same:
            terms.append(map(mul, same[parity], repeat(d)))
        for term in terms:
            if term is not None:
                total = map(neg, term) if total is None else map(sub, total, term)
        if total is not None:
            values = list(total)
            if any(values):
                out[parity] = values
    return out


def _minus_q2(carry: Mapping, scale: int, f: Mapping, a: Sequence, k: int,
              shifts: Callable[[int], tuple]) -> dict[tuple[int, ...], list]:
    """carry * scale - q2 * f for the degree-k carry, class by class, with
    q2 = sum a_j x_j^2, already scaled, f of degree k - 2 and ``shifts`` as
    for ``_carry``; the terms of q2 * f are summed over the axes in order
    before it is subtracted."""
    out = {}
    for parity, values in carry.items():
        if scale != 1:
            values = [v * scale for v in values]
        f_values = f.get(parity)
        if f_values is not None:
            low, high, axes = shifts((k - 2 - sum(parity)) >> 1)
            padded = f_values + [0] * (high - low)
            total = None
            for (_, up, _), aj in zip(axes, a):
                if aj:
                    term = map(mul, _gather(padded, up), repeat(aj))
                    total = term if total is None else map(add, total, term)
            values = list(map(sub, values, total))
        out[parity] = values
    return out
