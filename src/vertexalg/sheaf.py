"""Supports on a rational interval, section contexts, and the gluing check.

A SheafContext tags each symbol it knows with a TaggedInfo: a window
(where the section may be nonzero) plus a list of bump factors, each a
named function with a support set and a plateau where it is identically
1.  The tag lives in the context only; a Symbol carries no support.
Products propagate supports by the closed-overlap rule
supp(x o_n y) = cl(int supp x  cap  int supp y).

Two readings of "where does this element live" coexist:

  support           per-monomial recursive overlap rule, union over terms.
  semantic_support  groups monomials into classes that share a tree shape
                    and per-slot base sections, evaluates each class on
                    the open cells cut by all declared breakpoints, and
                    keeps the cells where the class polynomial in the
                    bump unknowns survives the declared partition
                    relations.  Cancellation between a section and its
                    bump-dressed copy is visible here and not above.

A context's declarations are fixed when it is built: its constructor
takes every section, bump and partition of unity.  Every declared support
has interior: the universe, each section's support and each bump's
support (a plateau may be empty or a point), since a set without interior
holds no section.  A name is declared once, as a section or a bump, and
never holds "|" or "*", which join the parts of minted names.

pi keeps leaves and the classes alive somewhere; k = id - pi spans the
kernel ideal used by the gluing argument.  glue assembles bump-weighted
restricted sections over a cover by _rho_sum, which builds every sum of
the existence chain too, and sheaf_axiom_check replays that chain patch
by patch, certifying each hop either by an empty semantic support or by
a unit reduction, then witnesses uniqueness.
"""

from dataclasses import dataclass
from fractions import Fraction as Q

from .intervals import SupportSet, overlap_core
from .models.base import check
from .models.polys import PolyVars
from .parsing import DATA_DIR, expect, read_document, read_rational
from .rewrite import UNIT_RULES, RuleSet, reduce_element
from .terms import Alphabet, Element, Node, Symbol, fold_tree, leaves, preorder


class SupportError(ValueError):
    pass


@dataclass(frozen=True)
class SectionDeclaration:
    name: str
    support: SupportSet
    parity: int = 0
    degree: Q = 0


@dataclass(frozen=True)
class BumpDeclaration:
    name: str
    support: SupportSet
    plateau: SupportSet  # subset of support where the bump is exactly 1


@dataclass(frozen=True)
class TaggedInfo:
    base: str          # underlying section name; unit name for pure bumps
    bumps: tuple       # bump names dressing the section, sorted, with multiplicity
    window: SupportSet  # where this symbol may be nonzero


@dataclass(frozen=True)
class CoverPatch:
    name: str
    window: SupportSet   # the open set U^i, stored closed
    core: SupportSet     # the shrunk set T^i, cl(T^i) inside U^i
    sigma: str           # bump with support window and plateau core
    rho: str             # partition member with support core


class SheafContext:
    """Registry of tagged symbols over one universe, fixed when built.

    The constructor takes every declaration, and no method adds one: the
    sections, the bumps, and the partitions of unity, each a tuple of bump
    names imposing sum = 1 on the whole universe.  The unit is a record
    like any other, the unit section on the universe.

    Every set the context keeps is closed, as every SupportSet is: the
    universe, the windows, and the bump supports and plateaus.  A window
    stands for the open set it is the closure of, so a window with no
    interior holds no section (_mint returns None) and two windows overlap
    when their meet has interior.  So the universe and every declared
    section or bump support must have interior, and a declaration
    without it is refused.  A name is declared once, as a section or as
    a bump, and holds neither character minted names are joined with.  A
    partition is accepted only when the geometry can carry it: its members
    are declared bumps that cover the universe, and on every cell either
    some member is free to vary, or exactly one sits on its plateau.

    Declared sections and bumps get stable names; products of restriction
    and bump dressing mint derived symbols with canonical names, so the
    same section restricted along two different paths to the same window
    is the same Symbol and element equality stays exact.

    Two caches live on the context:

      cell table  the cells, each symbol's value on every cell and each
                  cell's partition plan (see cells()).  Only a _mint
                  whose window adds a breakpoint drops it.
      mint memo   (symbol name, added bumps, target window) ->
                  the Symbol _mint returns, or None.  Nothing drops it:
                  the declarations are fixed, and a minted symbol changes
                  no answer of _mint.
    """

    def __init__(self, universe: SupportSet, sections=(), bumps=(), partitions=()):
        if not universe.has_interior():
            raise SupportError(f"universe {universe} has no interior")
        self.universe = universe
        self.alphabet = Alphabet()
        unit = self.alphabet.unit.name
        self._tags = {unit: TaggedInfo(unit, (), universe)}  # name -> TaggedInfo
        self._bumps = {}       # bump name -> BumpDeclaration
        self._table = None     # the _CellTable of the current breakpoints
        self._minted = {}      # the mint memo
        for sec in sections:
            self._check_declaration(sec.name, sec.support, "")
            self.alphabet.add(Symbol(sec.name, sec.parity, sec.degree, "algebra"))
            self._tags[sec.name] = TaggedInfo(sec.name, (), sec.support)
        for bd in bumps:
            self._check_declaration(bd.name, bd.support, "bump ")
            if not bd.plateau.subset_of(bd.support):
                raise SupportError(f"plateau of bump {bd.name} leaves its support")
            # the pure bump is the unit dressed by one factor
            self.alphabet.add(Symbol(bd.name, 0, Q(0), "algebra"))
            self._bumps[bd.name] = bd
            self._tags[bd.name] = TaggedInfo(unit, (bd.name,), bd.support)
        self._partitions = tuple(tuple(members) for members in partitions)
        for members in self._partitions:
            cover = SupportSet.empty()
            for m in members:
                if m not in self._bumps:
                    raise SupportError(f"partition member {m} is not a declared bump")
                cover = cover.union(self._bumps[m].support)
            if not self.universe.subset_of(cover):
                raise SupportError("partition members do not cover the universe")
        table = self._cell_table()
        for members in self._partitions:
            for i, (lo, hi) in enumerate(table.cells):
                ones, free = table.split(members, i)
                if ones > 1 or (not free and ones != 1):
                    raise SupportError(
                        f"partition {members} cannot sum to 1 near {(lo + hi) / 2}")

    def _check_declaration(self, name: str, support: SupportSet, kind: str) -> None:
        """Refuse a section or bump (kind "" or "bump ") whose support
        leaves the universe or has no interior, or whose name is taken or
        holds a character of minted names."""
        if not support.subset_of(self.universe):
            raise SupportError(f"support of {kind}{name} leaves the universe")
        if not support.has_interior():
            raise SupportError(f"support {support} of {kind}{name} has no interior")
        if name in self._tags:
            raise SupportError(f"{name} is declared twice")
        for ch in "|*":  # the characters minted names join their parts with
            if ch in name:
                raise SupportError(
                    f"{kind}name {name} holds {ch!r}, which minted names use")

    # -- tagged symbol minting ---------------------------------------------

    def info(self, sym) -> TaggedInfo:
        name = sym.name if isinstance(sym, Symbol) else sym
        try:
            return self._tags[name]
        except KeyError:
            raise SupportError(f"leaf {name} carries no support tag") from None

    def window_of(self, sym) -> SupportSet:
        return self.info(sym).window

    def _natural_window(self, base: str, bumps: tuple) -> SupportSet:
        win = self.info(base).window
        for b in bumps:
            win = win.intersect(self._bumps[b].support)
        return win

    def _mint(self, name: str, bumps: tuple, window: SupportSet):
        """Return the Symbol for section `name` dressed by the added
        `bumps` and cut to `window`, or None when the result is degenerate
        (the section is already zero there).  Bumps whose plateau covers
        the whole window are dropped: they are identically 1 there, so the
        dressed symbol is the bare one.  Answers come from the mint memo,
        keyed on the arguments, so a hit computes no interval."""
        key = (name, bumps, window)
        try:
            return self._minted[key]
        except KeyError:
            sym = self._minted[key] = self._mint_uncached(*key)
            return sym

    def _mint_uncached(self, name: str, bumps: tuple, window: SupportSet):
        info = self.info(name)
        base, bumps = info.base, tuple(sorted(info.bumps + bumps))
        window = window.intersect(info.window).intersect(
            self._natural_window(base, bumps))
        if not window.has_interior():
            return None
        unit = self.alphabet.unit.name
        kept = tuple(b for b in bumps
                     if not window.subset_of(self._bumps[b].plateau))
        if base == unit and not kept:
            if window == self.universe:
                return self.alphabet.unit
            kept = bumps  # a windowed bare unit is not the unit symbol
        bumps = kept
        stem = "*".join(bumps + ((base,) if base != unit else ())) or unit
        if window == self._natural_window(base, bumps):
            name = stem
        else:
            key = ";".join(f"{p.lo}..{p.hi}" for p in window.pieces)
            name = f"{stem}|{key}"
        if name in self._tags:
            return self.alphabet.symbol(name)
        if base != unit:
            proto = self.alphabet.symbol(base)
            sym = Symbol(name, proto.parity, proto.degree, proto.kind)
        else:
            # windowed pure bump or unit; constants carry no parity or degree
            sym = Symbol(name, 0, Q(0), "algebra")
        self.alphabet.add(sym)
        self._tags[name] = TaggedInfo(base, bumps, window)
        # the cells, classes and plans read only the breakpoints, the bumps
        # and the partitions, so a window on the table's points keeps it
        if self._table is not None and not self._table.points.issuperset(
                window.breakpoints()):
            self._table = None
        return sym

    def restricted_symbol(self, name: str, window: SupportSet):
        return self._mint(name, (), window)

    # -- cells and pointwise values ------------------------------------------

    def _breakpoints(self) -> frozenset:
        """The boundary points of the universe, of every bump's support
        and plateau, and of every symbol's window."""
        pts = set(self.universe.breakpoints())
        for bd in self._bumps.values():
            pts.update(bd.support.breakpoints())
            pts.update(bd.plateau.breakpoints())
        for info in self._tags.values():
            pts.update(info.window.breakpoints())
        return frozenset(pts)

    def _cut_cells(self, pts) -> tuple:
        """The open intervals between consecutive points of pts whose
        midpoint lies in the universe."""
        pts = sorted(pts)
        return tuple(
            (lo, hi)
            for lo, hi in zip(pts, pts[1:])
            if lo < hi and self.universe.contains_point((lo + hi) / 2)
        )

    def cells(self) -> tuple:
        """Open intervals between consecutive declared breakpoints, inside
        the universe.  No declared set has a boundary point inside a cell,
        so one midpoint decides membership for the whole cell.

        The cells are the first entry of the cell table, which holds each
        symbol's value on every cell and each cell's partition plan.  The
        bumps and partitions are fixed when the context is built, so one
        rule keeps the table: only a _mint whose window adds a breakpoint
        drops it.  A minted window on the table's points leaves every
        cell, class and plan as it was, so the table is kept and values()
        reads the new name on its first use."""
        return self._cell_table().cells

    def _cell_table(self) -> "_CellTable":
        if self._table is None:
            self._table = _CellTable(self)
        return self._table


_ONE = PolyVars.const(1)
_ZERO = PolyVars.const(0)


class _CellTable:
    """Per-cell facts of one set of breakpoints, read at each cell's
    midpoint:

      points  the breakpoints the cells were cut from; the table outlives
              a _mint whose window adds no breakpoint, and a _mint whose
              window adds one drops it
      cells   the cells, in order
      plans   per cell, one (eliminated bump, replacement) pair for each
              partition family with a member free to vary there, in
              declaration order; substituting them imposes sum = 1
      values  per symbol name, its PolyVars value on each cell, filled in
              on the first values(name)

    Every bump is classed once per cell as "one" (on its plateau), "free"
    (inside its support, off the plateau) or "off"; the leaf values, the
    plans and the constructor's partition check all read that class."""

    def __init__(self, context: SheafContext):
        self._context = context
        self.points = context._breakpoints()
        self.cells = context._cut_cells(self.points)
        self._mids = tuple((lo + hi) / 2 for lo, hi in self.cells)
        self._class = {
            name: tuple("one" if bd.plateau.contains_point(mid)
                        else "free" if bd.support.contains_point(mid)
                        else "off" for mid in self._mids)
            for name, bd in context._bumps.items()
        }
        self.plans = tuple(self._plan(i) for i in range(len(self.cells)))
        self._values = {}

    def split(self, members, i: int):
        """(how many members sit on their plateau, the members free to
        vary) on cell i."""
        ones, free = 0, []
        for m in members:
            c = self._class[m][i]
            if c == "one":
                ones += 1
            elif c == "free":
                free.append(m)
        return ones, free

    def _plan(self, i: int) -> tuple:
        plan = []
        for fam in self._context._partitions:
            ones, free = self.split(fam, i)
            if free:
                repl = PolyVars.const(1 - ones)
                for m in free[:-1]:
                    repl = repl - PolyVars.var(m)
                plan.append((free[-1], repl))
        return tuple(plan)

    def values(self, name: str) -> tuple:
        vals = self._values.get(name)
        if vals is None:
            info = self._context.info(name)
            vals = self._values[name] = tuple(
                self._value(info, i) for i in range(len(self.cells)))
        return vals

    def _value(self, info: TaggedInfo, i: int) -> PolyVars:
        if not info.window.contains_point(self._mids[i]):
            return _ZERO
        val = _ONE
        for b in info.bumps:
            c = self._class[b][i]
            if c == "off":
                return _ZERO
            if c == "free":
                val = val * PolyVars.var(b)
        return val


# -- class grouping -----------------------------------------------------------


def _class_key(tree, context):
    """Flat preorder key: ("n", index) for a node, ("s", base) for a leaf.
    The encoding is prefix-free, so two trees share a key exactly when
    they have the same shape, indices and leaf bases."""
    out = []
    for t in preorder(tree):
        out += ("s", context.info(t).base) if t.__class__ is Symbol else ("n", t.index)
    return tuple(out)


def _class_cells(members, context):
    """Open cells where the class polynomial survives the partition
    relations.  members is a list of (tree, coeff)."""
    table = context._cell_table()
    rows = [(coeff, [table.values(s.name) for s in leaves(tree)])
            for tree, coeff in members]
    alive = []
    for i, plan in enumerate(table.plans):
        poly = PolyVars()
        for coeff, columns in rows:
            mono = _ONE
            for col in columns:
                # values hands out the shared _ONE, which multiplies as 1
                factor = col[i]
                if mono is _ONE:
                    mono = factor
                elif factor is not _ONE:
                    mono = mono * factor
                if not mono.c:
                    break
            else:
                poly = poly + coeff * mono
        for b, repl in plan:
            poly = poly.substitute(b, repl)
        if not poly.is_zero():
            alive.append(table.cells[i])
    return alive


def _classes(x: Element, context):
    """All monomials bucketed by class key, leaves included."""
    classes = {}
    for tree, coeff in x.terms.items():
        classes.setdefault(_class_key(tree, context), []).append((tree, coeff))
    return classes


# -- the two support readings -------------------------------------------------


def _term_support(tree, context) -> SupportSet:
    return fold_tree(
        tree,
        context.window_of,
        lambda node, left, right: overlap_core(left, right),
    )


def support(x: Element, context: SheafContext) -> SupportSet:
    """Recursive overlap-rule support, union over monomials.  Blind to
    cancellation between monomials; see semantic_support for that."""
    out = SupportSet.empty()
    for tree in x.terms:
        out = out.union(_term_support(tree, context))
    return out


def semantic_support(x: Element, context: SheafContext) -> SupportSet:
    out = SupportSet.empty()
    for members in _classes(x, context).values():
        for lo, hi in _class_cells(members, context):
            out = out.union(SupportSet.closed(lo, hi))
    return out


# -- projection, kernel, dressing, restriction ---------------------------------


def pi(x: Element, context: SheafContext) -> Element:
    """Identity on leaves; kills every product class that is dead on all
    open cells.  Idempotent, and on a single generator instance it acts
    all-or-nothing because the monomials share one class."""
    kept = {}
    for members in _classes(x, context).values():
        if members[0][0].__class__ is Symbol or _class_cells(members, context):
            for tree, coeff in members:
                kept[tree] = coeff
    return Element(x.alphabet, kept)


def k_generator(x: Element, context: SheafContext) -> Element:
    return x - pi(x, context)


def sigma_star(sigma, x: Element, context: SheafContext) -> Element:
    """Multiply every tensor slot by the bump: each leaf s becomes the
    dressed section sigma*s, the unit becomes the pure bump.  Slots whose
    window misses the bump entirely drop out."""
    name = sigma.name if isinstance(sigma, (Symbol, BumpDeclaration)) else sigma
    if name not in context._bumps:
        raise SupportError(f"{name} is not a declared bump")
    bd = context._bumps[name]

    return _map_leaves(x, lambda leaf: context._mint(leaf.name, (name,), bd.support))


def restrict(x: Element, window: SupportSet, context: SheafContext) -> Element:
    """Shrink every leaf window to its trace on the target set, drop slots
    that die, then project.  The bare unit monomial is the unit section and
    is cut to the window like any section; a unit leaf inside a product
    stays whole.  So restriction does not commute with the unit rules:
    restrict(1 o_{-1} 1) unit-reduces to the whole unit, restrict(1) is
    the unit cut to the window.  Restricting to a set that is not inside
    the universe is an error, not a clamp."""
    if not window.subset_of(context.universe):
        raise SupportError("restriction target leaves the universe")

    def rewindow(leaf):
        return context.restricted_symbol(leaf.name, window)

    def rewindow_slot(leaf):
        # a unit leaf inside a product stays whole, so the unit rules
        # (unit_strip, unit_left) still match it
        if leaf.name == context.alphabet.unit.name:
            return leaf
        return rewindow(leaf)

    return pi(_map_leaves(x, rewindow_slot, rewindow), context)


def _map_leaves(x: Element, leaf_map, bare_map=None) -> Element:
    """Rebuild every monomial of x with each leaf replaced by leaf_map(leaf),
    or by bare_map(leaf) when given and the monomial is that one leaf; a
    monomial with a leaf mapped to None drops out.  Monomials that meet
    after the map are summed."""
    acc = {}
    for tree, coeff in x.terms.items():
        if bare_map is not None and tree.__class__ is Symbol:
            moved = bare_map(tree)
        else:
            moved = fold_tree(tree, leaf_map, _node_unless_dead)
        if moved is not None:
            Element.of_term(x.alphabet, moved)._add_into(acc, coeff)
    return Element._trusted(x.alphabet, acc)


def _node_unless_dead(node, left, right):
    if left is None or right is None:
        return None
    return Node(node.index, left, right)


# -- covers, gluing, axiom check ------------------------------------------------


def check_cover(cover, context: SheafContext):
    """Geometric side conditions: cores shrink their windows, cores cover
    the universe, each sigma fills its window and sits at 1 on the core,
    each rho lives inside the core, and the rhos form a declared
    partition of unity."""
    problems = []
    union_cores = SupportSet.empty()
    for p in cover:
        union_cores = union_cores.union(p.core)
        if not p.core.subset_of(p.window):
            problems.append(f"{p.name}: core not inside window")
        sig = context._bumps.get(p.sigma)
        rho = context._bumps.get(p.rho)
        if sig is None or rho is None:
            problems.append(f"{p.name}: undeclared bump")
            continue
        if not sig.support.subset_of(p.window):
            problems.append(f"{p.name}: sigma spills out of the window")
        if not p.core.subset_of(sig.plateau):
            problems.append(f"{p.name}: sigma is not 1 on the core")
        if not rho.support.subset_of(p.core):
            problems.append(f"{p.name}: rho spills out of the core")
    if not context.universe.subset_of(union_cores):
        problems.append("cores do not cover the universe")
    rhos = tuple(p.rho for p in cover)
    if not any(tuple(sorted(fam)) == tuple(sorted(rhos))
               for fam in context._partitions):
        problems.append("the rhos are not a declared partition of unity")
    return problems


def _overlaps(cover, sections, context: SheafContext):
    """(patch, patch, meet, agree) for each pair of patches whose windows
    meet in a set with interior, in cover order; agree says whether the
    two sections restrict to the same element on the meet."""
    for i in range(len(cover)):
        for j in range(i + 1, len(cover)):
            meet = cover[i].window.intersect(cover[j].window)
            if meet.has_interior():
                agree = (restrict(sections[i], meet, context)
                         == restrict(sections[j], meet, context))
                yield cover[i], cover[j], meet, agree


def glue(cover, sections, context: SheafContext) -> Element:
    """sum_j rho_j o_{-1} (sigma_j * x_j); raises on a broken cover or on
    sections that disagree on an overlap."""
    problems = check_cover(cover, context)
    if problems:
        raise SupportError("; ".join(problems))
    if len(sections) != len(cover):
        raise SupportError("one section per patch required")
    for p, q, meet, agree in _overlaps(cover, sections, context):
        if not agree:
            raise SupportError(
                f"overlap disagreement between {p.name} and {q.name} on {meet}")
    return _rho_sum(cover, [sigma_star(p.sigma, x, context)
                            for p, x in zip(cover, sections)], context)


def _rho_sum(cover, parts, context: SheafContext) -> Element:
    """sum_j rho_j o_{-1} parts_j, unchecked."""
    al = context.alphabet
    out = Element.zero(al)
    for p, x in zip(cover, parts):
        out = out + Element.sym(al, p.rho).o(-1, x)
    return out


def sheaf_axiom_check(cover, sections, context: SheafContext):
    """Existence and uniqueness, mechanically.

    For each patch the restriction of the glued element is walked to the
    local section through four hops: strip the sigma dressing, swap every
    neighbour section for this patch's on the rho cores, collapse the rho
    sum to the unit by the partition relation, and strip the unit by a
    rewrite.  Hops one to three are certified by an empty semantic
    support (membership in the kernel ideal); hop four is a unit_left
    reduction whose normal form restricts to zero: a unit the rules lift
    out of a product is whole, and restricting cuts it to the window as
    restrict cut the section's own bare unit.  The strip-sigma hop is
    shared by every patch, and restricts-to-<patch> passes when all four
    of its hops do.  Uniqueness: the probe, the Cor-style difference
    rho o (x - sigma*x) on the first patch, has empty semantic support, so
    pi kills it and k returns it whole.

    The cover and overlap checks are records here, so the glued element
    and every sum of the chain are built by _rho_sum, which does not
    repeat them.
    """
    if len(sections) != len(cover):
        raise SupportError("one section per patch required")
    problems = check_cover(cover, context)
    checks = [check("cover-geometry", not problems, detail="; ".join(problems))]

    for p, q, meet, agree in _overlaps(cover, sections, context):
        checks.append(check(f"overlap-{p.name}-{q.name}", agree, detail=f"on {meet}"))

    if any(c["status"] == "fail" for c in checks):
        return checks

    al = context.alphabet
    glued = _rho_sum(cover, [sigma_star(p.sigma, x, context)
                             for p, x in zip(cover, sections)], context)
    g2 = _rho_sum(cover, sections, context)
    stripped = semantic_support(glued - g2, context).is_empty()
    checks.append(check("strip-sigma", stripped, detail="rho kills x - sigma*x"))

    for i, p in enumerate(cover):
        gi2 = _rho_sum(cover, [sections[i]] * len(cover), context)
        d = restrict(g2 - gi2, p.window, context)
        swapped = semantic_support(d, context).is_empty()
        checks.append(check(
            f"swap-to-{p.name}", swapped,
            detail="neighbour sections agree under each rho inside this window"))

        gi3 = Element.unit(al).o(-1, sections[i])
        collapsed = semantic_support(gi2 - gi3, context).is_empty()
        checks.append(check(
            f"partition-collapse-{p.name}", collapsed, detail="sum of rhos is 1"))

        rep = reduce_element(restrict(gi3, p.window, context)
                             - restrict(sections[i], p.window, context),
                             RuleSet(None, None, UNIT_RULES))
        unit_stripped = bool(rep) and restrict(rep.result, p.window, context).is_zero()
        checks.append(check(
            f"unit-strip-{p.name}", unit_stripped,
            detail=f"{rep.steps} rewrite steps"))

        checks.append(check(
            f"restricts-to-{p.name}",
            stripped and swapped and collapsed and unit_stripped,
            detail="restrict(glue) = local section modulo the kernel ideal"))

    p0, x0 = cover[0], sections[0]
    rho0 = Element.sym(al, p0.rho)
    probe = rho0.o(-1, x0) - rho0.o(-1, sigma_star(p0.sigma, x0, context))
    empty = semantic_support(probe, context).is_empty()
    killed = pi(probe, context) == Element.zero(al)
    whole = k_generator(probe, context) == probe
    checks.append(check("uniqueness-probe", empty and killed and whole,
                        detail="empty support forces membership in the kernel ideal"))
    return checks


# -- the two statements the gluing rests on ------------------------------------


def bump_support_check(sigma, x: Element, window: SupportSet,
                       core: SupportSet, context: SheafContext) -> bool:
    """x - sigma*x lives on window.minus(core), the closure of window -
    core, when every slot of x lives inside the window and sigma is 1 on
    the core."""
    diff = x - sigma_star(sigma, x, context)
    region = window.minus(core)
    return semantic_support(diff, context).subset_of(region)


def rho_transfer_check(rho, sigma, x: Element, n: int,
                       context: SheafContext) -> bool:
    """rho o_n x = rho o_n (sigma*x) modulo the kernel ideal, when rho
    lives inside sigma's plateau."""
    al = context.alphabet
    r = Element.sym(al, rho)
    diff = r.o(n, x) - r.o(n, sigma_star(sigma, x, context))
    empty = semantic_support(diff, context).is_empty()
    killed = pi(diff, context) == Element.zero(al)
    return empty and killed


# -- shipped covers -------------------------------------------------------------

def make_cover_two():
    """Universe [0,3], two patches overlapping on [1,2], cores split at
    3/2.  Sections f (global), g on [0,2], h on [1,3]."""
    return load_cover(DATA_DIR / "cover_two.json")


def make_cover_three():
    """Universe [0,4], three patches in a chain, cores split at 3/2 and
    5/2.  Sections f (global), g on [0,8/3], h on [4/3,4]."""
    return load_cover(DATA_DIR / "cover_three.json")


def load_cover(path):
    """Build a context and cover from a JSON cover file.  Rationals are
    numbers or strings ("3/2"); each patch gives its window, core, and
    bump names; sections list name, support and optionally parity (0 or
    1) and degree.  The rho partition is declared automatically.  A field
    of the wrong shape, and a field no reader reads, is a ValueError
    naming its JSON path (patches[0].window, patches[0].corr)."""
    data = read_document(path, "cover file")
    _known(data, "", "universe", "sections", "patches")
    universe = _field(data, "", "universe", _span)
    sections = []
    for at, sec in _field(data, "", "sections", _objects, ()):
        _known(sec, at, "name", "support", "parity", "degree")
        sections.append(SectionDeclaration(
            _field(sec, at, "name", _name), _field(sec, at, "support", _span),
            _field(sec, at, "parity", _parity, 0),
            _field(sec, at, "degree", read_rational, 0)))
    cover, bumps = [], []
    for at, patch in _field(data, "", "patches", _objects):
        _known(patch, at, "name", "window", "core", "sigma", "rho")
        window = _field(patch, at, "window", _span)
        core = _field(patch, at, "core", _span)
        sigma = _field(patch, at, "sigma", _name)
        rho = _field(patch, at, "rho", _name)
        bumps += (BumpDeclaration(sigma, window, core),
                  BumpDeclaration(rho, core, SupportSet.empty()))
        cover.append(CoverPatch(_field(patch, at, "name", _name, sigma),
                                window, core, sigma, rho))
    ctx = SheafContext(universe, sections, bumps, (tuple(p.rho for p in cover),))
    return ctx, tuple(cover)


# readers of cover-file fields: each takes a JSON value and its path in the
# document, and returns what it read or raises a ValueError naming the path

_REQUIRED = object()


def _field(obj, at, key, read, default=_REQUIRED):
    """read(obj[key], path) for the field key of the object at path at; a
    missing field is the default, or refused when there is none."""
    path = f"{at}.{key}" if at else key
    if key in obj:
        return read(obj[key], path)
    if default is _REQUIRED:
        raise ValueError(f"{path}: missing")
    return default


def _known(obj, at, *keys):
    """Refuse the first field of the object at path at that is not in keys."""
    for key in obj:
        if key not in keys:
            raise ValueError(f"{at + '.' if at else ''}{key}: unknown field")


def _span(value, path):
    expect(type(value) is list and len(value) == 2, path, "[lo, hi]", value)
    lo, hi = (read_rational(v, f"{path}[{i}]") for i, v in enumerate(value))
    expect(lo <= hi, path, "[lo, hi] with lo <= hi", value)
    return SupportSet.closed(lo, hi)


def _name(value, path):
    return expect(type(value) is str, path, "a name", value)


def _parity(value, path):
    return expect(type(value) is int and value in (0, 1), path, "0 or 1", value)


def _objects(value, path):
    """(path, object) for each entry of a list of objects."""
    expect(type(value) is list, path, "a list of objects", value)
    return [(f"{path}[{i}]", expect(type(v) is dict, f"{path}[{i}]", "an object", v))
            for i, v in enumerate(value)]
