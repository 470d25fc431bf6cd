"""Property test: the CLI's document writer gives the bytes of
json.dumps(doc, sort_keys=True, indent=2) in one write."""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from qpl import cli

from helpers import Recording

# no example database; hypothesis still caches the constants of local
# modules in ./.hypothesis, which .gitignore lists
PROPERTY = settings(database=None, deadline=None, max_examples=300)

TEXT = st.text() | st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7fé€'
                                    '\U0001f600\ud800ab')
BIG = st.integers(-10 ** 300, 10 ** 300)
SCALARS = (st.none() | st.booleans() | BIG | TEXT | st.floats()
           | st.sampled_from((-0.0, 1e300, float("nan"), float("inf"),
                              float("-inf"))))
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.lists(BIG | st.booleans())
                   | st.dictionaries(TEXT, inner)
                   | st.dictionaries(st.integers(), inner)),
    max_leaves=40)


@PROPERTY
@given(st.dictionaries(TEXT, DOCUMENTS))
def test_emit_writes_json_dumps_bytes_once(doc):
    stream = Recording()
    cli._emit(doc, stream)
    assert stream.writes == [json.dumps(dict(doc, schema=cli.SCHEMA),
                                        sort_keys=True, indent=2) + "\n"]
