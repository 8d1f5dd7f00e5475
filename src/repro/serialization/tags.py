"""The run-time-typed value model both codecs carry, and its one-octet tags.

A CDR ``any`` and every jser value is None, a bool, an int, a float, a str,
bytes, a list, a tuple, a dict or an instance of a registered value type
(:mod:`repro.serialization.registry`).  Both wire formats mark the kind with
the same tag, and both classify a Python object the same way: by its exact
type first, a subclass as the first base it matches.

It also holds the closed table of *declared wire names*: the texts the
program itself puts on the wire (piggyback keys, JRMP frame kinds, the
security wrappers' keys, IDL operation names), each declared by the module
that owns it through :func:`declare_names` and never learned from a value.
Inside a container, jser writes an exact ``str`` found there as one
pre-built run and reads its octets back as the declared object, with no
``encode``, ``len`` or ``decode``.  Nothing read or written is ever added,
so the table holds no parameter, reply value, id or key material.
"""

TAG_NONE = 0
TAG_TRUE = 1
TAG_FALSE = 2
TAG_INT = 3  # fits 64 bits signed
TAG_BIGINT = 4  # any other int, as decimal text
TAG_FLOAT = 5
TAG_STR = 6
TAG_BYTES = 7
TAG_LIST = 8
TAG_TUPLE = 9
TAG_DICT = 10
TAG_VALUE = 11

#: The tags followed by a length and that many octets.
LENGTH_PREFIXED = frozenset((TAG_STR, TAG_BYTES, TAG_BIGINT, TAG_VALUE))

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

#: Containers a value may nest.  Neither codec recurses, but what reads the
#: value afterwards does (``hash`` of a nested tuple used as a dict key
#: overflows the C stack), so a peer may not send deeper.
MAX_DEPTH = 512

#: Exact type -> tag (``TAG_TRUE`` for either bool, ``TAG_INT`` for any int).
#: The order matters to :func:`ladder_tag`.
TAG_OF = {
    type(None): TAG_NONE,
    bool: TAG_TRUE,
    int: TAG_INT,
    float: TAG_FLOAT,
    str: TAG_STR,
    bytes: TAG_BYTES,
    bytearray: TAG_BYTES,
    list: TAG_LIST,
    tuple: TAG_TUPLE,
    dict: TAG_DICT,
}

def ladder_tag(value: object) -> int:
    """Tag for a value whose exact type :data:`TAG_OF` does not list: a
    subclass is written as the first base it matches, in that table's order,
    and anything else has to be a registered value type."""
    for base, tag in TAG_OF.items():
        if isinstance(value, base):
            return tag
    return TAG_VALUE


#: Declared name -> the jser run for it: ``TAG_STR``, a one-octet length and
#: its UTF-8 text.  Filled only by :func:`declare_names`.
NAME_RUNS: dict[str, bytes] = {}
#: The same names by their UTF-8 text, as jser reads them.
NAMES_BY_TEXT: dict[bytes, str] = {}


def declare_names(*names: str) -> None:
    """Declare texts this program puts on the wire itself.

    Only a name's owner declares it, at import or when it compiles the name
    (an IDL operation).  A name of 128 octets or more, which would need a
    longer length, is written and read like any other text.
    """
    for name in names:
        text = name.encode()
        if len(text) < 0x80 and name not in NAME_RUNS:
            NAMES_BY_TEXT[text] = name
            NAME_RUNS[name] = bytes((TAG_STR, len(text))) + text
