"""The config reader without PyYAML: it declines a document, or builds what PyYAML builds."""

import os
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from mdiqkd._yaml_subset import OUTSIDE, read

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import gate_tables  # noqa: E402

LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])

# scalars that YAML 1.1 resolves in ways a reader can get wrong, and text
# that is no scalar of the subset
TRICKY = ["1e-7", "1.0e5", "1.0e+5", "1.0E-5", "1.e-5", "-0.0", "+0", "-0", "010", "0x1F",
          "0b11", "1_000", ".5", "1.", "+1", "-12", ".inf", "-.inf", ".nan", "yes", "No", "ON",
          "off", "y", "n", "~", "~a", "null", "NULL", "nul", "'a, b'", "a #b", "a#b", "'a #b'",
          "2001-12-14", "1:30", "190:20:30.15", "=", "<<", "''", "'it''s'", "'x: y'", "/tmp/x",
          "-x", "-", ".", "&a x", "*a", "!!str 1", '"q"', "a: b", "a b", "? a", "[1, [2]]",
          "{a: {b: 1}}", "a\tb", "'a\tb'", "\u00e9"]
WORD = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_./+~-"


def _words(first, rest=WORD, size=5):
    return st.tuples(st.sampled_from(first), st.text(rest, max_size=size)).map("".join)


def _dumped(x):
    """x as yaml.safe_dump writes a finite float: 1e-07 as 1.0e-07."""
    text = repr(x)
    return text if "." in text or "e" not in text else text.replace("e", ".0e", 1)


# each document holds one tricky text, as some of its keys and scalars,
# amid keys and scalars of the subset
TRICK = st.shared(st.sampled_from(TRICKY), key="trick")
SCALARS = st.integers(0, 5).flatmap(lambda i: TRICK if i == 0 else st.one_of(
    _words(WORD[:52] + "_/~"),
    st.text("".join(map(chr, range(32, 127))).replace("'", ""), max_size=6).map("'{}'".format),
    st.floats(allow_nan=False, allow_infinity=False).map(_dumped),
    st.integers(-10**20, 10**20).map(str)))
KEYS = st.integers(0, 5).flatmap(lambda i: TRICK if i == 0 else st.one_of(
    _words("abcdefghijklmnopqrstuvwxyz_", "abcdefghijklmnopqrstuvwxyz_"),
    st.sampled_from(["on", "No", "1", "-1", "1.0", "~", "'a b'"])))
COMMENTS = st.sampled_from(["", "", "", "", " # note", "  #x'y", " #"])
# a spoiler applied to a whole document: most keep it as it is
SPOILERS = [lambda doc: doc] * 6 + [
    lambda doc: "\ufeff" + doc,
    lambda doc: doc.replace("  ", "\t", 1),
    lambda doc: "---\n" + doc,
    lambda doc: doc + doc,  # every key twice
    lambda doc: doc.replace("\n", "\n\n# comment\n", 1),
    lambda doc: doc.replace("\n", "# tight\n", 1),
    lambda doc: "  " + doc,
]


@st.composite
def _flow(draw, mapping):
    sep = draw(st.sampled_from([", ", ",", " , ", ",  "]))
    if mapping:
        pairs = draw(st.lists(st.tuples(KEYS, SCALARS), max_size=3))
        return "{" + sep.join(f"{k}: {v}" for k, v in pairs) + "}"
    return "[" + sep.join(draw(st.lists(SCALARS, max_size=3))) + "]"


@st.composite
def _block(draw, indent, depth):
    """The lines of a block mapping at column indent."""
    lines, pad = [], " " * indent
    for _ in range(draw(st.integers(1, 4))):
        key, comment = draw(KEYS), draw(COMMENTS)
        kind = draw(st.sampled_from(["scalar", "list", "map", "empty"]
                                    + (["block-list", "block-map"] if depth < 2 else [])))
        if kind == "scalar":
            lines.append(f"{pad}{key}: {draw(SCALARS)}{comment}")
        elif kind in ("list", "map"):
            lines.append(f"{pad}{key}: {draw(_flow(kind == 'map'))}{comment}")
        elif kind == "empty":
            lines.append(f"{pad}{key}:{comment}")
        elif kind == "block-list":
            lines.append(f"{pad}{key}:{comment}")
            item_pad = pad + " " * draw(st.sampled_from([0, 2, 4]))
            values = draw(st.lists(st.one_of(SCALARS, _flow(False), _flow(True)), min_size=1,
                                   max_size=3))
            lines += [f"{item_pad}- {value}" for value in values]
        else:
            lines.append(f"{pad}{key}:{comment}")
            lines += draw(_block(indent + draw(st.sampled_from([1, 2, 4])), depth + 1))
    return lines


def _assert_read_as_pyyaml(doc):
    got = read(doc)
    if got is OUTSIDE:
        return
    for loader in LOADERS:
        assert repr(yaml.load(doc, Loader=loader)) == repr(got), (loader, doc)


@settings(max_examples=150, deadline=None)
@given(_block(0, 0), st.sampled_from(SPOILERS))
def test_a_block_document_is_declined_or_read_as_pyyaml_reads_it(lines, spoil):
    _assert_read_as_pyyaml(spoil("\n".join(lines) + "\n"))


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="ab1.0e+-_:#' []{},\n~\t", max_size=40))
def test_any_text_is_declined_or_read_as_pyyaml_reads_it(doc):
    _assert_read_as_pyyaml(doc)


SUBSET_DOCUMENT = """\
# every form of the subset
root:
  int: -12        # a trailing comment
  zero: +0
  floats: [1.0e-06, -0.0, 1., 6.02e-6, 1.5E+300]
  bools: [yes, No, TRUE, off, On]
  nulls: {a: ~, b: null, c: NULL}
  empty:
  words: [f_ec, json-lines, /tmp/x.csv, ~a, y, nul]
  quoted: ['a, b', 'a #b', '', 'x: y', '1e-5']
  map: {k: v, 2: 3, on: 4}
  at_key_indent:
  - 1
  - [a, b]
  deeper:
      - x
      - {y: z}
1: int_key
'k': quoted_key
"""


def test_every_form_of_the_subset_is_read_without_pyyaml():
    assert read(SUBSET_DOCUMENT) is not OUTSIDE
    _assert_read_as_pyyaml(SUBSET_DOCUMENT)
    for doc in ("", "\n", "# only a comment\n", "  \n# a\n"):
        assert read(doc) is None is yaml.safe_load(doc)


@pytest.mark.parametrize("doc", [
    "a: 1\ta\n", "a: 'b\tc'\n", "a:\n\t- 1\n", "a: \u00e9\n", "\ufeffa: 1\n", "a: \x07\n",
    "a: &x 1\nb: *x\n", "a: *x\n", "a: !!str 1\n", "---\na: 1\n", "a: 'b\n  c'\n", "a: b\n  c\n",
    "a: 1\na: 2\n", "a: {b: 1, b: 2}\n", "a: [1, [2]]\n", "a: {b: {c: 1}}\n", "a: 010\n",
    "a: 0x1F\n", "a: 1_000\n", "a: .inf\n", "a: .5\n", "a: 1:30\n", "a: 2001-12-14\n",
    "a: 1e-5\n", "a: 1.0e5\n", 'a: "b"\n', "a: 'it''s'\n", "a: b c\n", "a: 1\n  b: 2\n",
    "- 1\n- - 2\n", "k" * 1100 + ": 1\n",
], ids=["tab", "tab-in-quotes", "tab-indent", "non-ascii", "bom", "control", "anchor", "alias",
        "tag", "document-start", "multi-line-quoted", "multi-line-plain", "duplicate-key",
        "duplicate-flow-key", "nested-flow-list", "nested-flow-map", "octal", "hex", "underscore",
        "inf", "leading-dot", "sexagesimal", "date", "exponent-without-dot",
        "exponent-without-sign", "double-quoted", "quote-escape", "space", "indented-after-value",
        "nested-list", "long-key"])
def test_documents_outside_the_subset_go_to_pyyaml(doc):
    assert read(doc) is OUTSIDE


def test_the_gate_configs_are_read_without_pyyaml():
    for _, doc, _ in gate_tables.configs():
        assert read(doc) is not OUTSIDE
        _assert_read_as_pyyaml(doc)


def test_cli_runs_on_the_gate_configs_import_no_yaml(tmp_path):
    # a yaml module that refuses to load, first on the writer's path, fails
    # the run of any config that the subset reader declines
    (tmp_path / "yaml.py").write_text("raise ImportError('yaml imported')\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(tmp_path), os.environ.get("PYTHONPATH")])))
    jobs = gate_tables.configs()
    gate_tables.write(ROOT / "src", jobs, tmp_path / "tables", env)
    assert len(list((tmp_path / "tables").iterdir())) == 2 * len(jobs)
