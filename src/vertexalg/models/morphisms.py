"""Structure-preserving symbol maps and their induced maps on trees.

A morphism sends each source symbol to an Element of target leaves; the
induced map sends x o_n y to image(x) o_n image(y), and a one-term
Element goes to its term's image times its coefficient.  Validation pairs
each symbol with its image once and checks the bracket, product and
action laws on all symbol pairs, witness "<s>, <t>"; functor_laws
checks identity, composition, and that generator-family instances map to
generator-family instances of the images, as one models.base.battery_check
record: one case per random draw, witness "<law>: <term>", and counts per
law of the cases on which it ran and held.
"""

import random
from fractions import Fraction
from itertools import product

from ..generators import FUNCTION_KINDS, fam_a, fam_i, fam_s
from ..parsing import to_text
from ..terms import Element, fold_tree
from .base import Model, battery_check, case_check
from .factory import _name_exp, pow_name, vf_name

Q = Fraction


def _product(node, left: Element, right: Element) -> Element:
    return left.o(node.index, right)


class Morphism:
    def __init__(self, name: str, source: Model, target: Model, table: dict):
        """table maps source symbol names to target Elements; the unit is
        implicit and must not appear as a key."""
        if source.alphabet.unit.name in table:
            raise ValueError("the unit maps to the unit; leave it out")
        # apply() accumulates images in place, which checks no alphabets
        foreign = [n for n, img in table.items() if img.alphabet is not target.alphabet]
        if foreign:
            raise ValueError(f"images of {foreign} are not over the target alphabet")
        self.name = name
        self.source = source
        self.target = target
        self.table = dict(table)

    def image_of_symbol(self, sym) -> Element:
        if sym.kind == "unit":
            return self.target.leaf(self.target.alphabet.unit)
        try:
            return self.table[sym.name]
        except KeyError:
            raise KeyError(f"morphism {self.name} has no image for {sym.name!r}")

    def apply(self, x: Element) -> Element:
        leaf_image = self.image_of_symbol
        if len(x.terms) == 1:
            # one term: its image, scaled, with no accumulator to fill; a
            # leaf at coefficient 1 returns the table's own Element, which
            # is safe because no Element is changed in place
            (t, c), = x.terms.items()
            image = fold_tree(t, leaf_image, _product)
            return image if c == 1 else image * c
        acc = {}
        for t, c in x.terms.items():
            fold_tree(t, leaf_image, _product)._add_into(acc, c)
        return Element._trusted(self.target.alphabet, acc)

    def compose(self, inner: "Morphism") -> "Morphism":
        """self after inner."""
        if inner.target is not self.source:
            raise ValueError("composition needs inner.target == self.source")
        table = {name: self.apply(img) for name, img in inner.table.items()}
        return Morphism(f"{self.name}*{inner.name}", inner.source, self.target, table)

    def __repr__(self):
        return f"Morphism({self.name}: {self.source.name} -> {self.target.name})"


def identity_morphism(model: Model) -> Morphism:
    table = {
        s.name: model.leaf(s)
        for s in model.symbols()
        if s.kind != "unit"
    }
    return Morphism("id", model, model, table)


def validate_morphism(phi: Morphism) -> list:
    """Symbol-level law checks, one record per law with cases; degree-cap
    cases are skipped and counted.  Each symbol is paired with its image
    once, and a case is a tuple of (symbol, image) pairs."""
    src, tgt = phi.source, phi.target
    pairs = [(s, phi.image_of_symbol(s)) for s in src.symbols()]
    lie = [p for p in pairs if p[0].kind == "lie"]
    comm = [p for p in pairs if p[0].kind in FUNCTION_KINDS]

    def law(source_table, target_table):
        # phi(s . t) == phi(s) . phi(t), witness "<s>, <t>"
        def probe(case):
            (s, x), (t, y) = case
            if phi.apply(source_table(s, t)) == target_table(x, y):
                return None
            return f"{s.name}, {t.name}"
        return probe

    laws = (
        ("bracket", list(product(pairs, pairs)),
         law(src.bracket, tgt.bracket_elem)),
        ("product", list(product(comm, comm)), law(src.mul, tgt.mul_elem)),
        ("action", list(product(comm, lie)), law(src.act, tgt.act_elem)),
    )
    return [case_check(cid, cases, probe) for cid, cases, probe in laws if cases]


def random_tree(al, syms, rng, length: int, lo: int, hi: int) -> Element:
    """Random monomial with `length` leaves drawn from syms and product
    indices from lo..hi.  Draws, in order: the split, the left tree, the
    index, the right tree."""
    if length == 1:
        return Element.of_term(al, rng.choice(syms))
    split = rng.randrange(1, length)
    left = random_tree(al, syms, rng, split, lo, hi)
    n = rng.randint(lo, hi)
    return left.o(n, random_tree(al, syms, rng, length - split, lo, hi))


def random_element(model: Model, rng, max_length: int = 4) -> Element:
    """Random monomial over the model alphabet with at most max_length leaves."""
    length = rng.randrange(1, max_length + 1)
    return random_tree(model.alphabet, model.symbols(), rng, length, -3, 2)


def functor_laws(
    phi: Morphism, psi: Morphism, samples: int = 100, seed: int = 0
) -> dict:
    """Identity, composition, and generator-instance mapping over `samples`
    draws of (x, n, s, t, a) as one battery_check record.

    identity and composition are checked on x, their witness is x.
    i-family, s-family and a-family require phi to map the instance on
    (x, n), (s, t) or (a, s) to the instance on the images; the witness
    is the source instance."""
    if not (phi.source is phi.target is psi.source is psi.target):
        raise ValueError("functor_laws expects endomorphisms of one model")
    model = phi.source
    rng = random.Random(seed)
    ident = identity_morphism(model)
    comp = phi.compose(psi)
    lie = model.sample_symbols(("lie",)) or model.sample_symbols(("algebra",))
    comm = model.sample_symbols(FUNCTION_KINDS)

    leaf = model.leaf

    def draws():
        for _ in range(samples):
            yield dict(x=random_element(model, rng), n=rng.randrange(-3, 3),
                       s=leaf(rng.choice(lie)), t=leaf(rng.choice(lie)),
                       a=leaf(rng.choice(comm)))

    def unless(holds, term):
        return None if holds else to_text(term)

    def mapped(instance, image_instance):
        return unless(phi.apply(instance) == image_instance, instance)

    return battery_check(f"functor-laws-{model.name}", draws(), {
        "identity": lambda x, **_: unless(ident.apply(x) == x, x),
        "composition": lambda x, **_: unless(
            comp.apply(x) == phi.apply(psi.apply(x)), x),
        "i-family": lambda x, n, **_: mapped(
            fam_i(x, n), fam_i(phi.apply(x), n)),
        "s-family": lambda s, t, **_: mapped(
            fam_s(s, t, model), fam_s(phi.apply(s), phi.apply(t), model)),
        "a-family": lambda a, s, **_: mapped(
            fam_a(a, s, model), fam_a(phi.apply(a), phi.apply(s), model)),
    })


# shipped endomorphism pairs -----------------------------------------------------


def shipped_morphisms(model: Model) -> tuple:
    """Two nontrivial endomorphisms of diffpoly or weyl1, by one rule over
    the non-unit symbols: b -> 2b with del -> del/2 (named "double" on
    diffpoly, "scale" on weyl1), and the shift b -> b+1, del -> del."""
    first = {"diffpoly": "double", "weyl1": "scale"}.get(model.name)
    if first is None:
        raise ValueError(f"no shipped morphisms for model {model.name!r}")
    al = model.alphabet

    def powers(base: Element) -> list:
        # base^k for k = 0..max_degree, each power the product of the one
        # before it and the base
        out = [Element.unit(al)]
        for _ in range(model.max_degree):
            out.append(model.mul_elem(out[-1], base))
        return out

    def poly_image(power: Element, vf: bool, scale_del=1) -> Element:
        # image of b^k, or of b^k del, given power, the image of b^k
        if not vf:
            return power
        out = {}
        for t, c in power.terms.items():
            e = _name_exp(t.name)[0]
            Element.sym(al, vf_name(e))._add_into(out, c * scale_del)
        return Element._trusted(al, out)

    b = Element.sym(al, pow_name(1))
    scaled, shifted = powers(2 * b), powers(b + Element.unit(al))
    scale_table, shift_table = {}, {}
    for s in model.symbols():
        if s.kind == "unit":
            continue
        k, vf = _name_exp(s.name)
        scale_table[s.name] = poly_image(scaled[k], vf, Q(1, 2))
        shift_table[s.name] = poly_image(shifted[k], vf)
    return (
        Morphism(first, model, model, scale_table),
        Morphism("shift", model, model, shift_table),
    )
