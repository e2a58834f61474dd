"""The one normal-ordering engine: ordered output and associative products.

Every noncommutative product in the package -- CompactElement, AElement
with either coefficient type, GlWeylElement -- puts its words in order
through ``sparse.normal_order`` with its own pair rule.  A wrong
relation in a rule shows up as a product that is not associative.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ncu2 import glweyl, u2
from ncu2.glweyl import D_KIND, GlWeylElement, dsym, lsym
from ncu2.scalars import HBAR, ONE, RHAT, Scalar, TAU, rational
from ncu2.shifts import FuncExpr
from ncu2.sparse import normal_order
from ncu2.u2 import AElement, CompactElement

_COMPACT = [CompactElement.gen(n) for n in "txyz"]
_GL = [
    *(GlWeylElement.generator(2, i, j) for i in (1, 2) for j in (1, 2)),
    *(GlWeylElement.derivative(2, i, j) for i in (1, 2) for j in (1, 2)),
    GlWeylElement.derivative(2, 1, 1, hat=True),
    GlWeylElement.derivative(2, 2, 2, hat=True),
]
_SCALARS = (TAU, RHAT, HBAR, rational(-3, 2))


def _a_letters(coeff):
    if coeff is FuncExpr:
        one = FuncExpr.from_scalar(ONE)
        return [AElement.gen(n).mul_scalar(one) for n in "xyz"] + [
            AElement.from_coeff(FuncExpr.symbol("W", 1, -1))
        ]
    return [AElement.gen(n) for n in "xyz"] + [AElement.from_scalar(RHAT)]


LETTERS = {
    "CompactElement": _COMPACT,
    "GlWeylElement": _GL,
    "AElement/Scalar": _a_letters(Scalar),
    "AElement/Func": _a_letters(FuncExpr),
}


@pytest.mark.parametrize("kind", ["CompactElement", "GlWeylElement"])
def test_generator_triples_associate(kind):
    gens = LETTERS[kind]
    bad = [
        (i, j, k)
        for (i, a), (j, b), (k, c) in itertools.product(enumerate(gens), repeat=3)
        if (a * b) * c != a * (b * c)
    ]
    assert bad == []


@st.composite
def words(draw, kind):
    """A product of up to three letters times a scalar."""
    letters = draw(st.lists(st.sampled_from(LETTERS[kind]), min_size=1, max_size=3))
    out = letters[0]
    for e in letters[1:]:
        out = out * e
    return out * draw(st.sampled_from(_SCALARS))


@pytest.mark.parametrize("kind", sorted(LETTERS))
def test_products_of_words_associate(kind):
    @settings(max_examples=25, deadline=None)
    @given(words(kind), words(kind), words(kind))
    def check(a, b, c):
        assert (a * b) * c == a * (b * c)

    check()


def test_an_ordered_word_is_returned_as_is():
    for word, rule in (
        ((0, 1, 1, 2, 3), u2._swap),
        ((lsym(1, 2), lsym(2, 1), dsym(1, 1), dsym(2, 1)), glweyl._rewrite_pair),
        ((), u2._swap),
    ):
        ((w, s),) = normal_order(word, rule)
        assert w == word
        assert s is ONE


def _in_order(word, rule):
    return all(rule(a, b) is None for a, b in zip(word, word[1:]))


_GL_SYMBOLS = [lsym(i, j) for i in (1, 2) for j in (1, 2)] + [
    dsym(i, j) for i in (1, 2) for j in (1, 2)
]


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.tuples(st.lists(st.integers(0, 3), max_size=6), st.just(u2._swap)),
        st.tuples(st.lists(st.sampled_from(_GL_SYMBOLS), max_size=5), st.just(glweyl._rewrite_pair)),
    )
)
def test_every_output_word_is_in_order(case):
    word, rule = case
    out = normal_order(tuple(word), rule)
    assert all(_in_order(w, rule) and s for w, s in out)
    if rule is glweyl._rewrite_pair:
        # all generators left of all derivatives
        for w, _ in out:
            kinds = [sym[0] for sym in w]
            assert kinds == sorted(kinds, key=lambda k: k == D_KIND)
