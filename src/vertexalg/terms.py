"""Free integer-indexed nonassociative algebra with exact coefficients.

Elements are exact rational linear combinations of binary trees.  A leaf
is a named symbol; an inner node o_n(x, y) is the n-th product of its
children.  The formal derivative is Dx := o_{-2}(x, 1) where 1 is the unit
leaf.  Everything is immutable; operations build new objects.

Cached hashes.  A leaf is its Symbol: a tree's leaves are the alphabet's
Symbol objects themselves.  Symbol and Node compute their hash once, at
construction, with exactly the formula a frozen dataclass would use:
hash((name, parity, degree, kind)) and hash((index, left,
right)).  The children's hashes are already cached, so hashing a tree is
O(1).  Node is a plain __slots__ class (index, left, right, _hash)
rather than a dataclass: its one __new__ fills the four slots through the
slot descriptors and computes the hash, and __setattr__ and __delattr__
raise AttributeError, so it is immutable and cheap to build.  Equality
rejects on the cached hash, then compares fields.  Two nodes with equal
hash and index whose children are the same objects are equal at once,
with no walk; otherwise the walk skips every pair of identical subtrees.
Copies and pickles of symbols and nodes are rebuilt through the
constructors from the fields, so a pickle loaded under another hash seed
carries that process's hashes.

Tree walks.  Four primitives walk a tree, each on an explicit stack, so
deep trees cost time but never raise RecursionError: preorder(t) yields
the subtrees node, left, right; fold_tree(t, leaf, node) folds bottom-up;
render(t, leaf, node) builds the in-order text; any_leaf_pair(t, test)
tries each product of two leaves, o_n(u, v), in preorder and stops at the
first with test(u, v, n), pushing only Nodes and making no generator, so
truncation's deadness search costs one call of test per leaf pair.
sort_key, leaves, term_degree and shape_key are built on them; Node
equality, which walks two trees in pairs, keeps a loop of its own.  No
other module walks a tree: the rest of the package calls these.
leaf_terms(x) is the one test of whether an Element is a leaf
combination.

Coefficients.  as_coeff is the package's one coefficient rule: ints stay
ints, a Fraction with denominator 1 becomes its int numerator, any other
exact number becomes a Fraction, and a float raises TypeError.  Every
stored coefficient is a nonzero int or Fraction made by it, here in
Element(alphabet, terms), scalar * and / and every scale, and in the
polynomials of models/polys.py.  Integer arithmetic stays integer until a
Fraction enters it.  An int compares and hashes equal to the Fraction of
the same value and prints the same, so equality, hashing and printing
cannot tell the two apart.  Element._trusted(alphabet, terms) takes the
dict as it is: every coefficient must already follow the rule.  Sums are
accumulated in place with x._add_into(acc, scale), which keeps acc in that
trusted form, so a loop of n additions costs O(total terms), not O(n^2).

Products.  x.o(n, y) checks the alphabets and wraps its dict the way
_trusted does, inline.  A one-term by one-term product, the common shape
in the bridge tails and the model tables, builds its one Node with no
comprehension; the result, term order and coefficient type included, is
that of the general bilinear path.

Derivatives.  x.D() is built once: the Element keeps it in its _d slot
and every later call returns that same object, so callers that
differentiate one Element share one derivative, and equal trees built
from it share subtrees, which Node equality skips on identity.  The memo
takes no part in ==, hash or repr; it is sound because no Element's terms
change after construction.  x.D_pow(k) wraps each term k times in
o_{-2}(., 1) in one pass, without the k - 1 intermediate Elements; the
result is not memoised.  A caller that needs a whole tower
x, Dx, ..., D^k x builds it with D, one step per level.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

Q = Fraction


def binom(m: int, k: int) -> int:
    """Binomial coefficient for arbitrary integer m, k (0 for k < 0).
    k! divides any k consecutive integers, so the division is exact."""
    if k < 0:
        return 0
    return falling(m, k) // factorial(k)


def minus_one_pow(e: int) -> int:
    """(-1)^e for any integer e."""
    return -1 if e % 2 else 1


def falling(p: int, i: int) -> int:
    """Falling factorial p(p-1)...(p-i+1), i factors; 1 for i = 0."""
    out = 1
    for j in range(i):
        out *= p - j
    return out


@dataclass(frozen=True)
class Symbol:
    name: str
    parity: int = 0
    degree: Fraction = Q(0)
    kind: str = "generic"  # unit | algebra | lie | generic

    def __post_init__(self):
        if self.parity not in (0, 1):
            raise ValueError(f"parity must be 0 or 1, got {self.parity}")
        if self.kind not in ("unit", "algebra", "lie", "generic"):
            raise ValueError(f"unknown symbol kind {self.kind!r}")
        object.__setattr__(self, "degree", Q(self.degree))
        object.__setattr__(self, "_hash", hash(self._fields()))

    def _fields(self) -> tuple:
        return (self.name, self.parity, self.degree, self.kind)

    def __reduce__(self):
        # a pickle rebuilds the cached hash in the loading process
        return Symbol, self._fields()

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not Symbol:
            return NotImplemented
        return self._hash == other._hash and self._fields() == other._fields()


class Node:
    """o_index(left, right): an immutable inner node with its hash cached.
    Each child is a Symbol (a leaf) or a Node."""

    __slots__ = ("index", "left", "right", "_hash")

    def __new__(cls, index: int, left, right):
        node = object.__new__(cls)
        _set_index(node, index)
        _set_left(node, left)
        _set_right(node, right)
        _set_hash(node, hash((index, left, right)))
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"Node is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Node is immutable: cannot delete {name!r}")

    def __reduce__(self):
        # a pickle rebuilds the cached hash in the loading process
        return Node, (self.index, self.left, self.right)

    def __repr__(self):
        return f"Node(index={self.index!r}, left={self.left!r}, right={self.right!r})"

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not Node:
            return NotImplemented
        if self._hash != other._hash or self.index != other.index:
            return False
        if self.left is other.left and self.right is other.right:
            return True
        stack = [(self.right, other.right), (self.left, other.left)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__ or a._hash != b._hash:
                return False
            if a.__class__ is Symbol:
                if a._fields() != b._fields():
                    return False
            elif a.index != b.index:
                return False
            else:
                stack.append((a.right, b.right))
                stack.append((a.left, b.left))
        return True


# Node.__new__ fills its slots through their descriptors, past __setattr__
_set_index = Node.index.__set__
_set_left = Node.left.__set__
_set_right = Node.right.__set__
_set_hash = Node._hash.__set__


def preorder(t):
    """Every subtree of t in preorder: a node, then its left subtree, then
    its right subtree."""
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        if t.__class__ is Node:
            stack.append(t.right)
            stack.append(t.left)


def any_leaf_pair(t, test) -> bool:
    """Whether t holds a product of two leaves, o_n(u, v), with test(u, v,
    n).  The products are tried in preorder and the walk stops at the
    first that passes; only Nodes go on the stack."""
    if t.__class__ is not Node:
        return False
    stack = [t]
    while stack:
        t = stack.pop()
        u, v = t.left, t.right
        if u.__class__ is Node:
            if v.__class__ is Node:
                stack.append(v)
            stack.append(u)
        elif v.__class__ is Node:
            stack.append(v)
        elif test(u, v, t.index):
            return True
    return False


def sort_key(t) -> tuple:
    """Flat preorder key: (0, name) for a leaf, (1, index) then both
    children's keys for a node.  The encoding is prefix-free, so it orders
    trees exactly as the nested key (1, index, key(left), key(right))."""
    out = []
    for s in preorder(t):
        out += (0, s.name) if s.__class__ is Symbol else (1, s.index)
    return tuple(out)


def leaves(t):
    """The leaves of t, left to right."""
    return (s for s in preorder(t) if s.__class__ is Symbol)


def fold_tree(t, leaf, node):
    """Fold t bottom-up: leaf(s) at each leaf s, then node(n, a, b) at each
    Node n whose left and right subtrees folded to a and b.  The walk keeps
    an explicit stack, so a deep tree costs time, never RecursionError."""
    if t.__class__ is Symbol:
        return leaf(t)
    order, stack = [], [t]
    while stack:
        s = stack.pop()
        order.append(s)
        if s.__class__ is Node:
            stack.append(s.left)
            stack.append(s.right)
    vals = []
    for s in reversed(order):
        if s.__class__ is Symbol:
            vals.append(leaf(s))
        else:
            right = vals.pop()
            vals[-1] = node(s, vals[-1], right)
    return vals[0]


def term_length(t) -> int:
    return sum(1 for _ in leaves(t))


def term_parity(t) -> int:
    return sum(s.parity for s in leaves(t)) % 2


def render(t, leaf, node) -> str:
    """In-order text of t: leaf(s) at each leaf s, and at each Node n, with
    (opening, separator) = node(n), the text opening + left + separator +
    right + ")"."""
    out = []
    stack = [t]
    while stack:
        t = stack.pop()
        if t.__class__ is str:
            out.append(t)
        elif t.__class__ is Symbol:
            out.append(leaf(t))
        else:
            opening, separator = node(t)
            out.append(opening)
            stack += (")", t.right, separator, t.left)
    return "".join(out)


def term_degree(t) -> Fraction:
    # |o_n(x, y)| = |x| + (-n - 1) + |y|
    return sum(
        (s.degree if s.__class__ is Symbol else -s.index - 1 for s in preorder(t)),
        Q(0),
    )


def shape_key(t) -> str:
    """Canonical string of the product shape including indices."""
    return render(t, lambda s: "*", lambda n: ("(", f"o{n.index}"))


class Alphabet:
    """Named symbol table with exactly one unit symbol.

    Append-only: registering the same symbol twice is a no-op, a clashing
    redefinition is an error.  Safe to share between threads as a cache.
    """

    def __init__(self):
        self.unit = Symbol("1", 0, Q(0), "unit")
        self._by_name = {"1": self.unit}

    def add(self, sym: Symbol) -> Symbol:
        old = self._by_name.get(sym.name)
        if old is None:
            if sym.kind == "unit":
                raise ValueError("alphabet already has a unit symbol")
            self._by_name[sym.name] = sym
            return sym
        if old != sym:
            raise ValueError(f"symbol {sym.name!r} redefined inconsistently")
        return old

    def symbol(self, name: str) -> Symbol:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown symbol {name!r}") from None

    def has(self, name: str) -> bool:
        return name in self._by_name

    def names(self):
        return list(self._by_name)


def as_coeff(c):
    """An exact coefficient: an int, or a Fraction whose denominator is not
    1; any other exact number is converted, a float refused."""
    if c.__class__ is int:
        return c
    if not isinstance(c, Fraction):
        if isinstance(c, float):
            raise TypeError("float coefficients are not allowed; use int or Fraction")
        c = Q(c)
    return c.numerator if c.denominator == 1 else c


class Element:
    """Exact linear combination of trees over a fixed alphabet."""

    __slots__ = ("alphabet", "terms", "_d")

    def __init__(self, alphabet: Alphabet, terms=None):
        self.alphabet = alphabet
        self._d = None
        clean = {}
        if terms:
            for t, c in terms.items():
                c = as_coeff(c)
                if c != 0:
                    clean[t] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, alphabet: Alphabet, terms: dict) -> "Element":
        """Wrap terms without copying; every coefficient must already be a
        nonzero int or Fraction."""
        out = object.__new__(cls)
        out.alphabet = alphabet
        out.terms = terms
        out._d = None
        return out

    def _add_into(self, acc: dict, scale=1) -> None:
        """acc += scale * self, in place.  Terms that cancel are deleted at
        once, so acc stays trusted and keeps the key order of repeated +."""
        scale = as_coeff(scale)
        if not scale:
            return
        scaled = scale != 1
        get = acc.get
        for t, c in self.terms.items():
            if scaled:
                c *= scale
            old = get(t)
            if old is None:
                acc[t] = c
            else:
                c += old
                if c:
                    acc[t] = c
                else:
                    del acc[t]

    # construction helpers

    @staticmethod
    def zero(alphabet: Alphabet) -> "Element":
        return Element(alphabet)

    @staticmethod
    def of_term(alphabet: Alphabet, t, coeff=1) -> "Element":
        return Element(alphabet, {t: as_coeff(coeff)})

    @staticmethod
    def sym(alphabet: Alphabet, name: str, coeff=1) -> "Element":
        return Element.of_term(alphabet, alphabet.symbol(name), coeff)

    @staticmethod
    def unit(alphabet: Alphabet, coeff=1) -> "Element":
        return Element.of_term(alphabet, alphabet.unit, coeff)

    # ring-ish operations

    def _check(self, other: "Element"):
        if self.alphabet is not other.alphabet:
            raise ValueError("elements over different alphabets")

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        out = dict(self.terms)
        other._add_into(out)
        return Element._trusted(self.alphabet, out)

    def __sub__(self, other: "Element") -> "Element":
        self._check(other)
        out = dict(self.terms)
        other._add_into(out, -1)
        return Element._trusted(self.alphabet, out)

    def __neg__(self) -> "Element":
        return Element._trusted(self.alphabet, {t: -c for t, c in self.terms.items()})

    def __mul__(self, c) -> "Element":
        c = as_coeff(c)
        if not c:
            return Element.zero(self.alphabet)
        return Element._trusted(
            self.alphabet, {t: v * c for t, v in self.terms.items()}
        )

    __rmul__ = __mul__

    def __truediv__(self, c) -> "Element":
        return self * (Q(1) / as_coeff(c))

    def o(self, n: int, other: "Element") -> "Element":
        """n-th product, extended bilinearly.  Distinct (t1, t2) pairs give
        distinct trees, so nothing collects or cancels.  See Products in
        the module docstring for the inline fast path."""
        alphabet = self.alphabet
        if alphabet is not other.alphabet:
            raise ValueError("elements over different alphabets")
        a, b = self.terms, other.terms
        out = object.__new__(Element)
        out.alphabet = alphabet
        out._d = None
        if len(a) == 1 and len(b) == 1:
            (t1, c1), = a.items()
            (t2, c2), = b.items()
            out.terms = {Node(n, t1, t2): c1 * c2}
        else:
            out.terms = {
                Node(n, t1, t2): c1 * c2
                for t1, c1 in a.items()
                for t2, c2 in b.items()
            }
        return out

    def D(self) -> "Element":
        """x o_{-2} 1; the unit's coefficient is 1, so coefficients carry over.
        Built once per Element: every later call returns the same object."""
        d = self._d
        if d is None:
            unit = self.alphabet.unit
            d = self._d = Element._trusted(
                self.alphabet, {Node(-2, t, unit): c for t, c in self.terms.items()}
            )
        return d

    def D_pow(self, k: int) -> "Element":
        """D applied k times, in one pass: each term is wrapped k times in
        o_{-2}(., 1), with no intermediate Elements and the term order of k
        calls of D."""
        if k < 0:
            raise ValueError("negative derivative power")
        if not k:
            return self
        unit = self.alphabet.unit
        terms = {}
        for t, c in self.terms.items():
            for _ in range(k):
                t = Node(-2, t, unit)
            terms[t] = c
        return Element._trusted(self.alphabet, terms)

    # predicates and views

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.alphabet is other.alphabet
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda tc: sort_key(tc[0]))

    def coeff(self, t) -> "int | Fraction":
        return self.terms.get(t, 0)

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        from .parsing import to_text

        return f"<Element {to_text(self)}>"


def leaf_terms(x: Element):
    """The terms of x, a list of Symbols, if every one is a leaf; else
    None.  The zero Element gives []."""
    syms = list(x.terms)
    for t in syms:
        if t.__class__ is not Symbol:
            return None
    return syms


def parity(x: Element):
    """Common parity of all monomials, or None if mixed (0 for zero)."""
    seen = {term_parity(t) for t in x.terms}
    if not seen:
        return 0
    if len(seen) > 1:
        return None
    return seen.pop()


@dataclass(frozen=True)
class GradeReport:
    degree: object  # Fraction, or None when inhomogeneous
    lengths: tuple  # multiset of leaf counts, sorted
    shape_keys: tuple  # multiset of per-monomial shape keys, sorted


def grade(x: Element) -> GradeReport:
    degrees = {term_degree(t) for t in x.terms}
    degree = degrees.pop() if len(degrees) == 1 else None
    lengths = tuple(sorted(term_length(t) for t in x.terms))
    shapes = tuple(sorted(shape_key(t) for t in x.terms))
    return GradeReport(degree, lengths, shapes)


def is_homogeneous(x: Element) -> bool:
    return grade(x).degree is not None or x.is_zero()
