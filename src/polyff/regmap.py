"""Regular-map reconstruction from a generated rotation group.

A finite group generated by the rotations (rho_v, rho_e, rho_f), in this
order, acts simply transitively on the darts (oriented flags) of a regular
map, so the darts can be identified with the group elements themselves.  With p the
order of rho_v and q the order of rho_f, the counts are

    V = |G| / p,   E = |G| / 2,   F = |G| / q,

and the genus comes from 2g - 2 = |G| - V - E - F, equivalently
2g - 2 = E (1 - 2/p - 2/q).  When rho_e or rho_f is the identity, the map
is not defined and the report carries a degeneracy reason instead; other
counts that miss a closed surface raise InvariantViolation (exit 5).

Dart permutations are right multiplications by the three rotations on the
deterministic element order; their export format is one header line
``darts <n>`` followed by ``v:``, ``e:``, ``f:`` lines in disjoint-cycle
notation with 0-based darts (fixed points omitted, cycles sorted by
smallest element).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import InvariantViolation
from .groupgen import GeneratedGroup, GroupFingerprint, order_spectrum, recognize


@dataclass(frozen=True)
class RegularMapReport:
    """Combinatorial summary of one specialization, in report order.

    A degenerate report leaves the counts it could not define as ``None``.
    """

    group_order: int
    p: int
    q: int
    e_order: int
    V: int | None
    E: int | None
    F: int | None
    genus: int | None
    euler: int | None
    degenerate: bool
    degeneracy_reason: str | None
    fingerprint: GroupFingerprint
    recognized: str


def genus_formula(p: int, q: int, E: int):
    """Exact genus g with 2g - 2 = E(1 - 2/p - 2/q), as a ``Fraction``."""
    # imported here: ``analyze`` counts in integers, so the CLI never loads ``fractions``
    from fractions import Fraction

    if p < 2 or q < 2 or E < 1:
        raise ValueError(f"need p, q >= 2 and E >= 1, got ({p}, {q}, {E})")
    rhs = E * (Fraction(1) - Fraction(2, p) - Fraction(2, q))
    return (rhs + 2) / 2


def _rotation_columns(G: GeneratedGroup) -> list[list[int]]:
    """The Cayley-table columns of rho_v, rho_e and rho_f, in this order."""
    if len(G.cayley) != 3:
        raise ValueError(f"expected the three rotations as generators, got {len(G.cayley)}")
    return G.cayley


def _column_order(col: list[int]) -> int:
    """A generator's order: the length of its column's cycle through index 0 (the identity).

    Raises InvariantViolation when the cycle does not come back to index 0
    within len(col) steps: the column is then not a permutation.
    """
    n, j = 1, col[0]
    while j:
        if n == len(col):
            raise InvariantViolation(
                f"a rotation's column does not return to index 0 within |G| = {n} steps")
        j = col[j]
        n += 1
    return n


def analyze(G: GeneratedGroup, fp: GroupFingerprint | None = None) -> RegularMapReport:
    """The map report of a walked group, with ``fp`` as its fingerprint if already known."""
    p, e_order, q = map(_column_order, _rotation_columns(G))
    return _map_report(G.order, p, e_order, q, order_spectrum(G) if fp is None else fp)


def _map_report(order: int, p: int, e_order: int, q: int, fp: GroupFingerprint,
                name: str | None = None) -> RegularMapReport:
    """The report of |G| = order with rotation orders p, e_order, q: walked or closed form.

    rho_e^2 = I, and rho_v = I forces rho_e = I, so only rho_e or rho_f = I
    makes a map degenerate.  Otherwise three regular permutations composing
    to the identity tile a closed orientable surface, and counts that do not
    (a wrong |G|, p or q) raise InvariantViolation.  ``name`` is
    ``recognize(fp)``, computed here when not given.
    """
    reason = V = E = F = genus = euler = None
    if e_order != 2:
        reason = f"rho_e has order {e_order}, expected 2"
    elif q < 2:
        reason = f"rho_f has order {q} < 2"
    else:
        V, E, F = order // p, order // 2, order // q
        doubled = order - V - E - F + 2  # equals 2g
        if order % p or order % 2 or order % q or doubled < 0 or doubled % 2:
            raise InvariantViolation(f"|G| = {order}, p = {p}, q = {q} give no closed surface")
        genus, euler = doubled // 2, V - E + F
    return RegularMapReport(order, p, q, e_order, V, E, F, genus, euler,
                            reason is not None, reason, fp,
                            recognize(fp) if name is None else name)


# ---------------------------------------------------------------------------
# dart permutations

def _cycles_str(perm: tuple[int, ...], names: list[str]) -> str:
    """Nontrivial cycles in disjoint-cycle notation, ``names[i]`` for dart i.

    Each cycle starts at its smallest element, and the cycles are sorted by it.
    """
    seen = bytearray(len(perm))
    out = []
    for start, j in enumerate(perm):
        if seen[start] or j == start:
            continue
        cycle = [names[start]]
        while j != start:
            cycle.append(names[j])
            seen[j] = 1
            j = perm[j]
        out.append("(" + " ".join(cycle) + ")")
    return "".join(out)


@dataclass(frozen=True)
class DartModel:
    """The map as three permutations of darts {0..degree-1}.

    Applying perm_v then perm_e then perm_f is the identity, mirroring the
    matrix identity rho_v * rho_e * rho_f = I.
    """

    degree: int
    perm_v: tuple[int, ...]
    perm_e: tuple[int, ...]
    perm_f: tuple[int, ...]

    def perms(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        return (self.perm_v, self.perm_e, self.perm_f)

    def to_text(self) -> str:
        lines = [f"darts {self.degree}"]
        names = list(map(str, range(self.degree)))
        for name, perm in zip("vef", self.perms()):
            cyc = _cycles_str(perm, names)
            lines.append(f"{name}: {cyc}" if cyc else f"{name}:")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> DartModel:
        lines = text.strip("\n").split("\n")
        header = lines[0].split()
        if len(lines) != 4 or header[0] != "darts" or len(header) != 2:
            raise ValueError("bad dart-model text")
        degree = int(header[1])
        perms = []
        for name, line in zip("vef", lines[1:]):
            prefix = f"{name}:"
            if not line.startswith(prefix):
                raise ValueError(f"expected line starting with {prefix!r}")
            perm = list(range(degree))
            for cycle_text in re.findall(r"\(([0-9 ]+)\)", line[len(prefix):]):
                cycle = [int(tok) for tok in cycle_text.split()]
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    perm[a] = b
            perms.append(tuple(perm))
        return cls(degree, *perms)


def dart_model(G: GeneratedGroup) -> DartModel:
    """Dart permutations by right multiplication on the element order.

    Each permutation is the Cayley-table column of its rotation, so every
    group ``generate`` builds from (rho_v, rho_e, rho_f) has a dart model.
    The model invariants are checked before returning: the permutations
    compose to the identity, rho_e's is a fixed-point-free involution unless
    it is the identity, and the table's ``GeneratedGroup.tree`` sweep (shared
    with ``order_spectrum``, so a table is swept once) checks that every dart
    is reached from dart 0 and numbered in breadth-first discovery order,
    which the ``--darts`` export and ``scan --exact-dedupe``'s keys depend
    on.  A failure there is a bug trap, not a user error.
    """
    model = DartModel(G.order, *map(tuple, _rotation_columns(G)))

    pv, pe, pf = model.perms()
    n = model.degree
    if any(pf[pe[pv[i]]] != i for i in range(n)):
        raise InvariantViolation("dart permutations do not compose to the identity")
    if any(pe[pe[i]] != i for i in range(n)):
        raise InvariantViolation("rho_e dart permutation is not an involution")
    if pe != tuple(range(n)) and any(pe[i] == i for i in range(n)):
        raise InvariantViolation("rho_e dart involution has fixed points")
    G.tree  # read for the sweep's check
    return model


def maps_equivalent(a: DartModel, b: DartModel) -> bool:
    """Whether some dart bijection conjugates a's permutations to b's.

    Only the candidate that fixes dart 0 is tried: it is extended along the
    action and rejected at the first inconsistency, so a call costs O(n).

    The search is sound for any input: True is returned only once the
    candidate is a bijection checked against every dart and permutation.
    It is complete when the actions are regular (transitive with trivial
    dart stabilizers), as for every model ``dart_model`` builds: no
    equivalent pair is then answered False.  One candidate decides because
    the centralizer of a regular permutation group is transitive (it is the
    regular action from the other side).  If some bijection psi conjugates
    a to b, with psi(0) = d, then c * psi also does for every c
    centralizing b's permutations, and one such c maps d back to 0.
    """
    if a.degree != b.degree:
        return False
    pa = a.perms()
    pb = b.perms()
    n = a.degree
    if n == 0:
        return False  # no dart 0 to anchor a candidate on
    phi = [-1] * n
    phi[0] = 0
    used = [False] * n
    used[0] = True
    stack = [0]
    while stack:
        s = stack.pop()
        for qa, qb in zip(pa, pb):
            ta, tb = qa[s], qb[phi[s]]
            if phi[ta] == -1:
                if used[tb]:
                    return False
                phi[ta] = tb
                used[tb] = True
                stack.append(ta)
            elif phi[ta] != tb:
                return False
    return all(v >= 0 for v in phi)
