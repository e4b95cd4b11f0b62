"""Rotation groups in closed form or by closure, order spectra, and recognition.

Over a field of odd characteristic p, every rotation group preserves the
symmetric form B of ``universal.invariant_form``, with
det B = -(x - 1)^2 (x + 1)(y - 1)(y + 1)^2.  ``closed_form`` answers rows
with no walk, from x, y and the traces of rho_v and rho_f, by two rules:

- det B != 0: the group is a subgroup of SO(3, B) = PGL(2, q).  By
  Macbeath's classification (A. M. Macbeath, "Generators of the linear
  fractional groups", 1969; Dickson, *Linear Groups*, ch. XII) it is
  dihedral, A4, S4, A5, or PSL(2, q') or PGL(2, q') for the field F_q' that
  the two traces generate, and the last kind is answered.
- every other closed form is T : H, translations T extended by a point
  group H.  With det B = 0 (x or y = +-1; not the report's ``degenerate``
  flag) G fixes the radical of B and H is cyclic or dihedral, the finite
  analogue of a Euclidean torus map at y = -1.  In characteristic 2
  (zmod:2 and gf:2^k) sigma0 = I, |T| = 1 and G = H: dihedral, C2 or trivial.
  The cap is checked once for both, and by PSL/PGL before any factoring.

Every other row walks: rows over composite moduli, rows that
``closed_form``'s trace screen keeps ((p, q) spherical in the trichotomy of
``catalog.classify_pq``, or the great dodecahedron's (5, 5)), and rows whose
dart model is asked for.

The walk is a breadth-first closure from the identity under right
multiplication by the generators, which numbers the elements in discovery
order.  It first numbers the orbit of the identity rows, multiplying each
frontier of rows by each generator in one call (about 3q^2 rows over a
field of q elements), then walks the elements as triples of row numbers,
reading each edge from the row images with no product.  A group is
summarized by an isomorphism-invariant fingerprint: order, multiset of
element orders, and center size (the group is abelian when its center is
all of it).  For the small groups named in the recognition table the
fingerprint identifies the group; this is a lookup guarantee for table
entries only, not a general isomorphism test.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .catalog import TilingClass, classify_pq
from .errors import CapExceeded, InvariantViolation, MixedRings, NonInvertibleGenerator
from .mat3 import Mat3
from .rings import _cyclic_counts, _factor
from .universal import GeneratorSet, PolyhedronParams, invariant_form

CLOSURE_CAP_DEFAULT = 10**6


@dataclass(frozen=True)
class GroupFingerprint:
    """Isomorphism-invariant summary of a finite group."""

    order: int
    spectrum: tuple[tuple[int, int], ...]  # sorted (element order, count)
    center_size: int

    @property
    def abelian(self) -> bool:
        """A group is abelian exactly when its center is all of it."""
        return self.center_size == self.order

    def serialize(self) -> str:
        spec = ",".join(f"{d}:{c}" for d, c in self.spectrum)
        ab = "true" if self.abelian else "false"
        return f"order={self.order};spectrum={spec};abelian={ab};center={self.center_size}"


class GeneratedGroup:
    """The closure of a generator list: its generators and Cayley table.

    The elements are numbered in discovery order, with index 0 the
    identity.  ``generators`` lists the generator matrices in column
    order, and ``cayley`` holds one column of element indices per
    generator: ``cayley[g][i]`` is the index of element i times
    ``generators[g]``.  The map pipeline passes the rotations (rho_v,
    rho_e, rho_f) in this order, so ``cayley[0..2]`` are their columns.
    No other matrix is kept.  Instances are immutable after construction;
    ``tree`` is computed on first read and kept.
    """

    def __init__(self, generators: list[Mat3], cayley: list[list[int]]):
        self.generators = generators
        self.cayley = cayley

    @property
    def order(self) -> int:
        return len(self.cayley[0])

    @functools.cached_property
    def tree(self) -> tuple[array, bytearray]:
        """``schreier_tree`` of the table: one sweep per table, shared by
        ``order_spectrum`` and ``regmap.dart_model``.  A table the sweep
        rejects caches nothing, so every read raises."""
        return schreier_tree(self.cayley, self.order)


def generate(gens: Sequence[Mat3], cap: int = CLOSURE_CAP_DEFAULT) -> GeneratedGroup:
    """Breadth-first closure of the generators under right multiplication.

    Deterministic: the element numbering depends only on the generator
    list.  Every edge i -> (element i) * gens[g] is recorded in the Cayley
    table, one int per edge, for every group size.

    Row r of a * g is (row r of a) * g, so the closure runs in two passes
    (Holt, Eick & O'Brien, *Handbook of Computational Group Theory*, ch. 4:
    the orbit first, then a walk on it):

    1. Row orbit.  The rows of the elements are the orbit of the three
       identity rows.  Each distinct row vector (three entry codes) is
       numbered when first seen.  The orbit is walked one breadth-first
       frontier at a time: the rows numbered but not yet multiplied go to
       the ring's ``_rows_mul`` in one call per generator, which splits or
       packs the generator's entries once.  R rows cost exactly R row
       products per generator, in one call per generator per frontier
       (near the cap, per chunk of a frontier; see below).
    2. Element walk.  An element is the triple of its rows' numbers, and
       its image under generator g is the triple of their images, so the
       walk makes no product: one dict lookup per edge.

    The elements, their order and the table are those of a walk on whole
    matrices.  Raises CapExceeded if the closure passes ``cap`` elements:
    during the walk, or in the orbit pass once it numbers more than 3 * cap
    rows (every row is a row of an element, so the group is then larger
    than ``cap``).  The orbit pass cuts a frontier into chunks small enough
    that it numbers at most 3 * cap + 3 * len(gens) rows before it stops.
    """
    if not gens:
        raise ValueError("need at least one generator")
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise MixedRings("generators live in different rings")
        if not g.det().is_unit:
            raise NonInvertibleGenerator(f"generator determinant {g.det()} is not a unit")

    # pass 1: number the row orbit; images[g][r] is the number of rows[r] * gens[g]
    ident = Mat3.identity(ring).vals
    rows = [ident[0:3], ident[3:6], ident[6:9]]
    row_index = {row: r for r, row in enumerate(rows)}
    images: list[list[int]] = [[] for _ in gens]
    k, rows_mul = len(gens), ring._rows_mul
    done = 0
    while done < len(rows):
        if len(rows) > 3 * cap:
            raise CapExceeded(cap)
        # the frontier is every row not yet multiplied; a chunk of c rows adds
        # at most c per generator, so cutting it keeps at most 3 * cap + 3 * k
        # rows numbered
        frontier = rows[done:done + (3 * cap - len(rows)) // k + 3]
        done += len(frontier)
        for g, image in zip(gens, images):
            for row in rows_mul(frontier, g.vals):
                s = row_index.get(row)
                if s is None:
                    s = row_index[row] = len(rows)
                    rows.append(row)
                image.append(s)
    del rows, row_index

    # pass 2: walk the elements in discovery order, one generator's row images at a time
    start = (0, 1, 2)
    index = {start: 0}
    order = [start]
    table: list[int] = []
    for r0, r1, r2 in order:
        for im in images:
            b = (im[r0], im[r1], im[r2])
            j = index.get(b)
            if j is None:
                j = len(order)
                if j >= cap:
                    raise CapExceeded(cap)
                index[b] = j
                order.append(b)
            table.append(j)
    del order, images, index  # before the columns copy the table: the walk's peak is here
    return GeneratedGroup(list(gens), [table[g::k] for g in range(k)])


def schreier_tree(cols: Sequence[Sequence[int]], n: int) -> tuple[array, bytearray]:
    """The closure's breadth-first tree, read back from its Cayley table.

    Returns ``parent`` and ``gen`` with ``j = parent[j] * generators[gen[j]]``
    and ``parent[j] < j`` for every j > 0.  ``generate`` numbers the
    elements in discovery order, so a row-by-row sweep of the table meets
    each new index exactly when it is the next unseen one.  Raises
    InvariantViolation when an index is never reached from index 0 or the
    table is not numbered in discovery order.  This is the one check of that
    numbering.  Its readers, ``order_spectrum``'s class path and
    ``regmap.dart_model``, read it through ``GeneratedGroup.tree``, so a
    table is swept once however many of them run.
    """
    parent = array("l", [0]) * n
    gen = bytearray(n)
    reached = 1
    for i, row in enumerate(zip(*cols)):
        if reached == n:
            return parent, gen
        if i == reached:
            raise InvariantViolation(f"index {i} of {n} is not reached from index 0")
        for k, j in enumerate(row):
            if j >= reached:
                if j != reached or j == n:
                    raise InvariantViolation(
                        f"Cayley entry {j} at row {i} is not in discovery order")
                parent[j] = i
                gen[j] = k
                reached += 1
    if reached < n:
        raise InvariantViolation(f"index {reached} of {n} is not reached from index 0")
    return parent, gen


def _conjugacy_classes(cols: list[list[int]], parent: array,
                       gen: bytearray) -> tuple[list[int], list[int], list[int]]:
    """Each element's class number, and each class's first element and size.

    Conjugation by a generator g sends x * g to g * x, so ``conj[col[x]]``
    is g * x and needs no inverse.  It is filled in index order along the
    tree: g * j = (g * parent[j]) * generators[gen[j]], and g * parent[j]
    is already stored, at ``conj[col[parent[j]]]``, because parent[j] < j.
    The classes are the orbits of these maps, because the generators generate
    the group.  The lists hold the table's own int objects, so they cost no
    more than arrays.
    """
    n = len(parent)
    conjs = []
    for col in cols:
        conj = [0] * n
        conj[col[0]] = col[0]
        for j in range(1, n):
            conj[col[j]] = cols[gen[j]][conj[col[parent[j]]]]
        conjs.append(conj)

    class_of = [-1] * n
    reps: list[int] = []
    sizes: list[int] = []
    for r in range(n):
        if class_of[r] >= 0:
            continue
        c = len(reps)
        class_of[r] = c
        reps.append(r)
        members = [r]
        for y in members:
            for conj in conjs:
                z = conj[y]
                if class_of[z] < 0:
                    class_of[z] = c
                    members.append(z)
        sizes.append(len(members))
    return class_of, reps, sizes


def order_spectrum(G: GeneratedGroup) -> GroupFingerprint:
    """Element-order multiset and center size.

    Everything is read from the Cayley table, and no matrix is multiplied
    (Holt, Eick & O'Brien, *Handbook of Computational Group Theory*,
    section 3.1 and chapter 4).  The closure's breadth-first tree, whose
    sweep rejects a table not numbered in discovery order, gives left
    multiplication and conjugation by each generator, and from them
    the conjugacy classes.  The center is the set of one-element classes.

    Element order is a class invariant, so one power walk per class gives
    the orders.  The walk right-multiplies by the class representative a,
    following a's tree word through the columns, until index 0 (the
    identity) comes back after n steps.  The power a^k has order
    n / gcd(k, n), so the walk also settles the classes of a's powers.

    A table that the tree sweep rejects, or a walk longer than |G|, raises
    InvariantViolation.
    """
    n_elems = G.order
    cols = G.cayley
    parent, gen = G.tree
    class_of, reps, sizes = _conjugacy_classes(cols, parent, gen)

    class_order = [0] * len(reps)
    for c, a in enumerate(reps):
        if class_order[c]:
            continue
        word = []
        j = a
        while j:
            word.append(cols[gen[j]])
            j = parent[j]
        word.reverse()
        walk = [a]
        j = a
        while j:
            if len(walk) >= n_elems:
                raise InvariantViolation(
                    f"powers of element {a} do not reach index 0 within |G| = {n_elems} steps")
            for col in word:
                j = col[j]
            walk.append(j)
        n = len(walk)
        for k, j in enumerate(walk, 1):
            if not class_order[class_of[j]]:
                class_order[class_of[j]] = n // math.gcd(k, n)

    counts: Counter[int] = Counter()
    for order, size in zip(class_order, sizes):
        counts[order] += size
    return GroupFingerprint(n_elems, tuple(sorted(counts.items())), sizes.count(1))


class FactTable:
    """What the rows of one ring share, each worked out on first use and kept per command.

    ``closed_form`` reads through it every fact that depends only on a trace,
    on q' or on a fingerprint: the codes of 0, 1, 2, 3 and -1; per trace its
    Frobenius image and ``_screened_to_walk``'s order class; per trace and
    q' its ``_trace_order`` and the PSL/PGL Euler test; ``_factor(n)``; the
    spectra of PSL(2, q') and PGL(2, q') and of each T : H; and per
    fingerprint its ``serialize()`` text and ``recognize()`` name.  Over
    GF(41) a scan of 1,681 rows then orders each of the 41 traces once, not
    each row's two.  A command builds one table and drops it when it ends,
    and nothing is stored on the ring, so no fact outlives the command or
    reaches a ring with equal codes and other arithmetic.  Entries are filled
    lazily, so a single row pays only for its own traces; a scan passes
    ``frob``, its table of u -> u^P over all codes, and any other caller gets
    each trace's image computed when first asked.
    """

    def __init__(self, ring, frob: Sequence[int] | None = None):
        code = ring._from_int
        self.ring, self._frob, self._facts = ring, frob, {}
        self.zero, self.one, self.two, self.three, self.minus_one = (
            code(0), code(1), code(2), code(3), code(-1))

    def _get(self, key, compute, *args):
        value = self._facts.get(key)  # no fact is None
        if value is None:
            value = self._facts[key] = compute(*args)
        return value

    def frobenius(self, t: int) -> int:
        """t^P, P the characteristic."""
        if self._frob is None:
            return self._get(("frobenius", t), self.ring._pow, t, self.ring.modulus)
        return self._frob[t]

    def factor(self, n: int) -> dict[int, int]:
        """``_factor(n)``, one dict shared by every reader, which must not change it."""
        return self._get(("factor", n), _factor, n)

    def trace_order(self, t: int, qp: int) -> int:
        return self._get(("order", t, qp), _trace_order, self, t, qp)

    def plus_one_is_square(self, t: int, qp: int) -> bool:
        return self._get(("square", t, qp), _plus_one_is_square, self, t, qp)

    def order_class(self, t: int) -> int:
        return self._get(("class", t), _order_class, self, t)

    def linear_fractional_spectrum(self, qp: int, e: int) -> tuple[tuple[int, int], ...]:
        return self._get(("psl", qp, e), _linear_fractional_spectrum, self, qp, e)

    def translation_spectrum(self, t_size: int, point: tuple) -> tuple[tuple[int, int], ...]:
        return self._get(("translation", t_size, point), _translation_spectrum,
                         self.ring.modulus, t_size, point)

    def serialize(self, fp: GroupFingerprint) -> str:
        return self._get(("text", fp), fp.serialize)

    def recognize(self, fp: GroupFingerprint) -> str:
        return self._get(("name", fp), recognize, fp)


def _lucas_v(ring, s: int, n: int, two: int) -> int:
    """V_n(s), with V_0 = 2, V_1 = s, V_(m+1) = s V_m - V_(m-1), on ring codes.

    V_n(lam + 1/lam) = lam^n + lam^(-n).  The ladder keeps (V_m, V_(m+1)) and
    uses V_2m = V_m^2 - 2 and V_(2m+1) = V_m V_(m+1) - s.  ``two`` is the
    code of 2.
    """
    mul, sub = ring._mul, ring._sub
    a, b = two, s
    for bit in bin(n)[2:]:
        if bit == "1":
            a, b = sub(mul(a, b), s), sub(mul(b, b), two)
        else:
            a, b = sub(mul(a, a), two), sub(mul(a, b), s)
    return a


def _trace_order(facts: FactTable, t: int, q: int) -> int:
    """The order of g != I in SO(3, B), odd characteristic p, with trace t in the subfield F_q.

    g has eigenvalues 1, lam, 1/lam with lam + 1/lam = s = t - 1, and no lone
    Jordan block of even size at +-1 (G. E. Wall, J. Austral. Math. Soc. 3,
    1963).  So t = 3 is one 3x3 Jordan block, of order p; otherwise g has
    order ord(lam), which divides n = q - 1 when V_(q-1)(s) = 2 (lam in F_q)
    and n = q + 1 otherwise.  lam^n = 1 exactly when V_n(s) = 2, and the
    least such n is found by dividing out the primes of ``facts.factor(n)``.
    A rotation of a det B = 0 row with eigenvalues 1, lam, 1/lam and
    lam != +-1 is diagonalizable too, so the same n is its order.  So is
    rho_v in characteristic 2 when s != 0, where 2 = 0 and q -+ 1 are odd:
    ord(lam) is odd, and V_n(s) = 0 exactly when lam^(2n) = 1, that is
    lam^n = 1.
    """
    ring, two = facts.ring, facts.two
    if t == facts.three:
        return ring.modulus
    s = ring._sub(t, facts.one)
    n = q - 1 if _lucas_v(ring, s, q - 1, two) == two else q + 1
    for f in facts.factor(n):
        while n % f == 0 and _lucas_v(ring, s, n // f, two) == two:
            n //= f
    return n


def _plus_one_is_square(facts: FactTable, t: int, qp: int) -> bool:
    """Whether t + 1 is a square in F_q' (Euler's criterion)."""
    ring, one = facts.ring, facts.one
    return ring._pow(ring._add(t, one), (qp - 1) // 2) == one


def _order_class(facts: FactTable, t: int) -> int:
    """3, 4 or 5 when g != I in SO(3, B) with trace t has that order, else 0.

    See ``_screened_to_walk``.
    """
    ring, zero, one = facts.ring, facts.zero, facts.one
    return (3 if t == zero else 4 if t == one else
            5 if ring._sub(ring._mul(t, t), ring._add(t, one)) == zero else 0)


def _screened_to_walk(facts: FactTable, t_v: int, t_f: int) -> bool:
    """Whether a row with det B != 0 and traces (t_v, t_f) of rho_v and rho_f must walk.

    In SO(3, B), odd characteristic, g != I has order 2, 3, 4 or 5 exactly
    when its trace is -1, 0, 1 or a root of t^2 - t - 1.  Trace -1 does not
    occur: t_f = 1 - 2x = -1 means x = 1, and t_v = (1 + x)(1 - y) - 1 = -1
    means x = -1 or y = 1, all rows with det B = 0.  A row walks when both
    orders (p, q) are known and the triangle group (2, p, q) is finite,
    ``classify_pq(p, q)`` SPHERICAL (maybe A4, S4 or A5), or when
    (p, q) = (5, 5) with t_v != t_f: the two roots of t^2 - t - 1, the great
    dodecahedron {5, 5/2}, which gives A5.  A (5, 5) row with t_v = t_f
    generates PSL(2, q'), as does every row with an infinite (2, p, q), so
    it has a closed form.
    """
    p, q = facts.order_class(t_v), facts.order_class(t_f)
    return bool(p and q) and (classify_pq(p, q) is TilingClass.SPHERICAL
                              or p == q == 5 and t_v != t_f)


def closed_form(params: PolyhedronParams, gens: GeneratorSet, cap: int = CLOSURE_CAP_DEFAULT,
                facts: FactTable | None = None
                ) -> tuple[GroupFingerprint, int, int, int, tuple[int, int]] | None:
    """Fingerprint, p, e_order, q and dedupe key of <rho_v, rho_e, rho_f> with no walk, or None.

    p, e_order and q are the orders of rho_v, rho_e and rho_f.  ``gens`` are
    the rotations of ``params``.  None means the row must walk: the ring is
    not a field, or the row has odd characteristic P, det B != 0 and
    ``_screened_to_walk`` keeps it.  Every other row is answered from x, y and
    the traces (t_v, t_f) of rho_v and rho_f by one of two rules: PSL(2, q')
    or PGL(2, q') when det B != 0, else T : H.  q' = P^d for the length d of
    the Frobenius orbit of (t_v, t_f), so F_q' = F_P(t_v, t_f).  The key is
    equal for two rows of one ring and fingerprint exactly when their maps
    are: in odd characteristic the orbit's least pair, in characteristic 2
    (e_order, q).  ``facts`` is the command's ``FactTable`` of ``ring``; each
    fact of a trace or of q' is read from it, and None builds one for this
    row alone.  The certificates below run on every row.

    det B != 0 (x, y != +-1): G is PSL(2, q') or PGL(2, q') (Macbeath 1969).
    It is PSL exactly when t_v + 1 and t_f + 1 are both squares in F_q', and
    |G| = q'(q'^2 - 1)/e, e = 2 for PSL and 1 for PGL.  Its elements: the
    identity, q'^2 - 1 of order P, and phi(n) q'(q' +- 1)/2 of order n for
    each n > 1 dividing (q' -+ 1)/e; the center is 1.  p, q and the spectrum
    are read from one factorization each of q' -+ 1.  Raises InvariantViolation
    unless g^T B g = B and det g = 1 for each generator, B the form of
    ``universal.invariant_form``.

    det B = 0 (x or y = +-1; not the report's ``degenerate`` flag: these maps
    are not degenerate): G preserves the radical of B (a line, a plane, or all
    of F^3 at x = 1, y = -1, where B = 0), and G = T : H: T is the normal
    subgroup of unipotent elements, a P-group of exponent P (translations),
    and H, the point group, has order prime to P (F_q' = F_P(t) for t
    whichever of x, y is not +-1):

    - x = 1, y != +-1: H = D_p, p the order of rho_v, |T| = q'^2, q = 2P;
      y = 1, x != +-1 is the dual, H = D_q, p = 2P;
    - y = -1, x != +-1 (dihedral angle pi, the Euclidean case): H = C_n,
      n = max(p, q), |T| = q'^2;
    - x = -1, y != 1 (p, q = 2P, P) and x = 1, y = -1 (p, q = P, 2P):
      H = C_2, |T| = P^2;
    - x = y = 1: H = C_2 x C_2, |T| = P^3, p = q = 2P;
    - x = -1, y = 1: D_P, that is H = C_2 and |T| = P, p = 2, q = P.

    p or q that the case leaves open comes from the trace by ``_trace_order``.
    |T|, H, p and q were measured against the walk on every such row of 16
    rings (README), and the tests repeat that on eight.  The spectrum and the
    center follow with no walk over T.  An element h != 1 of H has order m
    prime to P.  The elements of order m in its coset T.h are its conjugates
    under T (the complements of T in T<h> are conjugate), |T : C_T(h)| of
    them, and the others have order mP, as (th)^m is then in T but not 1.
    A rotation of C_n or D_n fixes no element of T = F_q'^2 (it has no
    eigenvalue 1), a reflection of D_n fixes a line of q', and each
    involution of the C_2 and C_2 x C_2 cases fixes P.  No h != 1
    centralizes T, so the center lies in T and is C_T(H): P when H = C_2
    and |T| = P^2, else 1 (at x = y = 1 the three involutions fix no
    common element; measured).  t_f = 1 - 2x and t_v = (1 + x)(1 - y) - 1
    fix (x, y) when x != -1, and the x = -1 rows of one fingerprint are one
    map, so the key splits these rows as their maps do.

    Characteristic 2 (P = 2, so -1 = 1 and 2 = 0), T : H with |T| = 1 and
    G = H: sigma0 = I, so rho_e = sigma2 and rho_f = sigma1 are transvections
    or I, rho_e^2 = rho_f^2 = I, and rho_v = rho_f rho_e.  Two involutions
    generate the dihedral group whose order is twice that of their product
    (Coxeter & Moser, *Generators and Relations for Discrete Groups*, section
    1.5):

    - x, y != 1: t_f = 1 and s = t_v - 1 = (1 + x)(1 + y) != 0.  rho_v has
      the eigenvalues 1, lam and 1/lam with lam + 1/lam = s, so lam != 1, and
      these three are distinct (lam^2 = 1 means lam = 1), so rho_v is
      diagonalizable of order p = ord(lam).  p divides q' -+ 1 and is odd
      and at least 3, and ``_trace_order`` finds it: V_0 = 2 = 0, and
      V_n(s) = 0 exactly when lam^(2n) = 1, that is lam^n = 1.  G = D_p:
      |G| = 2p, q = e_order = 2, center 1;
    - x = 1 (rho_f = I, so rho_v = rho_e), y != 1: G = C2, (p, e_order, q)
      = (2, 2, 1); y = 1 (rho_e = I, so rho_v = rho_f), x != 1: G = C2,
      (2, 1, 2); x = y = 1: G = 1, (1, 1, 1).

    D_p acts on the pairs (rho_v, rho_f) of a rotation of order p and a
    reflection transitively through its automorphisms, so the rows of one
    fingerprint are one map but for the two C2 kinds, which (e_order, q)
    splits.  Raises InvariantViolation unless rho_e^2 = rho_f^2 = I and
    rho_v = rho_f rho_e.

    Raises CapExceeded(cap), as the walk would, when |G| > cap: PSL and PGL
    before any factorization, T : H here, once for both its cases.
    """
    ring = gens.ring
    if not ring.is_field:
        return None
    if facts is None:
        facts = FactTable(ring)
    elif facts.ring != ring:
        raise MixedRings(f"a fact table of {facts.ring} used in {ring}")
    add, one, minus_one = ring._add, facts.one, facts.minus_one
    traces = tuple(add(add(g.vals[0], g.vals[4]), g.vals[8]) for g in (gens.rho_v, gens.rho_f))
    x, y = params.x.val, params.y.val
    char, rows_mul = ring.modulus, ring._rows_mul
    flat = bool({x, y} & {one, minus_one})  # det B = 0
    if char == 2:
        i, v, e, f = ([m[0:3], m[3:6], m[6:9]] for m in (
            Mat3.identity(ring).vals, gens.rho_v.vals, gens.rho_e.vals, gens.rho_f.vals))
        # rho_e^2 = rho_f^2 = I and rho_v = rho_f rho_e
        if [rows_mul(e, gens.rho_e.vals), rows_mul(f, gens.rho_f.vals),
                rows_mul(f, gens.rho_e.vals)] != [i, i, v]:
            raise InvariantViolation("rho_e and rho_f are not involutions with product rho_v")
    elif not flat:
        if _screened_to_walk(facts, *traces):
            return None
        form = invariant_form(params)
        b = form.vals
        form_rows = [b[0:3], b[3:6], b[6:9]]
        for g in (gens.rho_v, gens.rho_e, gens.rho_f):
            v = g.vals
            # the rows of g^T are the columns of g
            if rows_mul(rows_mul((v[0::3], v[1::3], v[2::3]), b), v) != form_rows \
                    or g.det().val != one:
                raise InvariantViolation(f"generator {g} is not in SO(3, B) for B = {form}")
    orbit = [traces]
    while (image := tuple(map(facts.frobenius, orbit[-1]))) != traces:
        orbit.append(image)
    qp = char ** len(orbit)  # q'
    if char == 2 or flat:
        t_size, point, center, p, e_order, q = (
            _dihedral_group if char == 2 else _translation_point_group)(facts, x, y, traces, qp)
        order = t_size * (1 + sum(k for _, k, _ in point))
        if order > cap:
            raise CapExceeded(cap)
        spectrum = facts.translation_spectrum(t_size, point)
    else:
        order, spectrum, p, q = _linear_fractional_group(facts, traces, qp, cap)
        center, e_order = 1, 2
    key = (e_order, q) if char == 2 else min(orbit)
    return GroupFingerprint(order, spectrum, center), p, e_order, q, key


def _spectrum(counts: dict[int, int]) -> tuple[tuple[int, int], ...]:
    """A fingerprint's spectrum from element-order counts, zero counts dropped."""
    return tuple(sorted((d, c) for d, c in counts.items() if c))


def _rotations(factors: dict[int, int]) -> tuple[tuple[int, int, int], ...]:
    """C_n's h != 1 as (order, how many, |C_T(h)| = 1: they fix no translation)."""
    return tuple((d, phi, 1) for d, phi in _cyclic_counts(factors)[1:])


def _dihedral_group(facts: FactTable, x: int, y: int, traces: tuple[int, int], qp: int):
    """|T| = 1, H's h != 1, center, p, e_order and q of a characteristic-2 row."""
    one = facts.one
    if x == one or y == one:
        q, e_order = 1 if x == one else 2, 1 if y == one else 2
        p = max(q, e_order)  # C2, or the trivial group: G is its center
        return 1, ((2, 1, 1),) if p == 2 else (), p, p, e_order, q
    p = facts.trace_order(traces[0], qp)
    return 1, _rotations(facts.factor(p)) + ((2, p, 1),), 1, p, 2, 2  # D_p


def _linear_fractional_group(facts: FactTable, traces: tuple[int, int], qp: int, cap: int):
    """|G|, spectrum, p and q of a ``closed_form`` row with det B != 0."""
    e = 2 if all(facts.plus_one_is_square(t, qp) for t in traces) else 1
    order = qp * (qp * qp - 1) // e
    if order > cap:
        raise CapExceeded(cap)
    return (order, facts.linear_fractional_spectrum(qp, e),
            *(facts.trace_order(t, qp) for t in traces))


def _linear_fractional_spectrum(facts: FactTable, qp: int, e: int):
    """The spectrum of PSL(2, q') (e = 2) or PGL(2, q') (e = 1), q' odd."""
    counts = Counter({1: 1, facts.ring.modulus: qp * qp - 1})
    for n, size in ((qp - 1, qp * (qp + 1) // 2), (qp + 1, qp * (qp - 1) // 2)):
        factors = facts.factor(n)
        # q' is odd, so dividing n by e lowers the exponent of 2 by e - 1
        for d, phi in _cyclic_counts({**factors, 2: factors[2] + 1 - e})[1:]:
            counts[d] += phi * size
    return _spectrum(counts)


def _translation_point_group(facts: FactTable, x: int, y: int, traces: tuple[int, int],
                             qp: int):
    """|T|, H's h != 1 as (order, how many, |C_T(h)|), center, p, e_order, q; det B = 0."""
    char, one, minus_one = facts.ring.modulus, facts.one, facts.minus_one
    if x == minus_one and y == one:
        t_size, point, center, p, q = char, ((2, 1, 1),), 1, 2, char
    elif x == minus_one or x == one and y == minus_one:
        t_size, point, center = char * char, ((2, 1, char),), char
        p, q = (2 * char, char) if x == minus_one else (char, 2 * char)
    elif x == y == one:
        t_size, point, center, p, q = char ** 3, ((2, 3, char),), 1, 2 * char, 2 * char
    else:
        p = 2 * char if y == one else facts.trace_order(traces[0], qp)
        q = 2 * char if x == one else facts.trace_order(traces[1], qp)
        n = p if x == one else q if y == one else max(p, q)
        point = _rotations(facts.factor(n))
        if y != minus_one:
            point += ((2, n, qp),)  # the n reflections of D_n
        t_size, center = qp * qp, 1
    return t_size, point, center, p, 2, q


def _translation_spectrum(char: int, t_size: int, point: tuple):
    """The spectrum of T : H with |T| = t_size.

    ``point`` lists H's elements h != 1 as (order, how many, |C_T(h)|).
    """
    counts = Counter({1: 1, char: t_size - 1})
    for m, k, fix in point:
        counts[m] += k * t_size // fix
        counts[m * char] += k * (t_size - t_size // fix)
    return _spectrum(counts)


# ---------------------------------------------------------------------------
# recognition

def dihedral_spectrum(n: int) -> tuple[tuple[int, int], ...]:
    """Order spectrum of D_n, of order 2n (n >= 2): T : H with |T| = 1, so any P serves."""
    return _translation_spectrum(2, 1, _rotations(_factor(n)) + ((2, n, 1),))


# spectra verified against brute-force permutation enumeration (see tests)
RECOGNITION_TABLE: dict[str, tuple[int, tuple[tuple[int, int], ...], bool]] = {
    "S3": (6, ((1, 1), (2, 3), (3, 2)), False),
    "A4": (12, ((1, 1), (2, 3), (3, 8)), False),
    "S4": (24, ((1, 1), (2, 9), (3, 8), (4, 6)), False),
    "A5": (60, ((1, 1), (2, 15), (3, 20), (5, 24)), False),
}


def recognize(fp: GroupFingerprint) -> str:
    """Name the group by exact fingerprint match, or "unrecognized".

    Checks the named table (S3, A4, S4, A5), then cyclic groups (an element
    of order |G| generates G), then dihedral groups by spectrum.
    """
    for name, (order, spectrum, abelian) in RECOGNITION_TABLE.items():
        if fp.order == order and fp.spectrum == spectrum and fp.abelian == abelian:
            return name
    if fp.spectrum[-1][0] == fp.order:
        return f"C{fp.order}"
    if fp.order % 2 == 0 and fp.order >= 4:
        n = fp.order // 2
        # D_n's largest element order is n: a cheap test before its divisors
        if fp.spectrum[-1][0] == n and fp.spectrum == dihedral_spectrum(n) \
                and fp.abelian == (n <= 2):
            return f"D{n}"
    return "unrecognized"
