"""The certificate writer `certfmt.dumps`: it writes the text of
`json.dumps(value, sort_keys=True, separators=(",", ":")) + "\\n"` byte
for byte, and refuses what no certificate holds.

The oracle here spells out the compact canonical text with `json.dumps`'s
own arguments, so a change of separators, key order or escaping in the
package shows as a difference.
"""

import json
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freecert.certfmt import FORMAT, CertificateError, _over, _Unprintable, dumps, rat


def oracle(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=True) + "\n"


# Quotes, backslashes, control characters, non-ASCII text and lone
# surrogates, besides whatever `characters` draws.
_chars = st.characters(exclude_categories=()) | st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80é €\U0001f600𐏿')
strings = st.text(_chars, max_size=8)
scalars = st.none() | st.booleans() | st.integers() | st.integers(min_value=-(10**60), max_value=10**60) | strings


def _containers(children):
    return st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple) | st.dictionaries(strings, children, max_size=4)


values = st.recursive(scalars, _containers, max_leaves=20)


def _wrap(inner, wrappers):
    for kind, key in wrappers:
        inner = {"list": [inner], "tuple": (inner,), "dict": {key: inner, key + "0": None}}[kind]
    return inner


_wrappers = st.tuples(st.sampled_from(("list", "tuple", "dict")), st.sampled_from(("", "k", '"', "\\", "é", "\ud800")))
deep = st.builds(_wrap, values, st.lists(_wrappers, min_size=25, max_size=30))


@settings(max_examples=200, deadline=None)
@given(st.one_of(values, deep))
@example([])
@example({})
@example(())
@example({"": {}, "b": [[]], "a": [2, "x", None, True, False, -1]})
def test_dumps_writes_the_text_of_json(value):
    assert dumps(value) == oracle(value)


def test_dumps_writes_no_whitespace_between_tokens():
    cert = {"verdict": "yes", "claims": [{"type": "kernel", "elements": [0, 1]}], "format": FORMAT, "place": None}
    assert dumps(cert) == '{"claims":[{"elements":[0,1],"type":"kernel"}],"format":"' + FORMAT + '","place":null,"verdict":"yes"}\n'


def test_an_unprintable_number_names_its_field():
    huge = rat(F(1, 10**5000))
    cert = {"format": FORMAT, "claims": [{"type": "word-eval", "matrix": [["1", "0"], ["0", huge]]}], "verdict": "yes"}
    with pytest.raises(CertificateError) as err:
        dumps(cert)
    assert str(err.value) == (
        f"certificate field claims[0].matrix[1][1] holds a number of about 5001 digits, over the {sys.get_int_max_str_digits()} "
        "Python writes: raise epsilon-sq or lower max-n (or m-max, k-max)"
    )
    # the first field in key order is named, and a tuple's item by its index
    with pytest.raises(CertificateError, match=r"certificate field a\[1\] holds"):
        dumps({"b": [huge], "a": ("0", huge)})


@pytest.mark.parametrize("value, name", [(1 + 2j, "complex"), (object(), "object"), (F(1, 2), "Fraction"), ({1, 2}, "set"), (b"x", "bytes")])
def test_dumps_refuses_values_no_certificate_holds(value, name):
    with pytest.raises(TypeError, match=f"^{name} is not JSON serializable$"):
        dumps({"claims": [{"value": value}]})


_ints = st.integers(-8, 8) | st.integers(-(10**60), 10**60)


@settings(max_examples=200, deadline=None)
@given(st.lists(_ints, max_size=4), st.integers(1, 12) | st.integers(1, 10**60))
@example([0, -4, 6, 3], 6)
@example([5, -7], 1)
def test_over_writes_the_text_of_each_fraction(values, den):
    """`_over` writes x / den from the reduced integer pair; the text is
    `rat`'s of the Fraction."""
    assert _over(values, den) == [rat(F(x, den)) for x in values]


def test_over_keeps_the_refusal_of_a_part_with_too_many_digits():
    huge = 10**5000
    for values, den in (([3, huge], 3), ([1, 2], 2 * huge), ([huge, 1], 1)):
        out = _over(values, den)
        want = [rat(F(x, den)) for x in values]
        assert [type(t) for t in out] == [type(t) for t in want]
        assert [t.x if isinstance(t, _Unprintable) else t for t in out] == [t.x if isinstance(t, _Unprintable) else t for t in want]
