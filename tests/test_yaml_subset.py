"""The config reader without PyYAML: it refuses a document, or builds what PyYAML builds."""

import os
import re
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from mdiqkd._yaml_subset import read
from mdiqkd.sweep import load_config

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import gate_tables  # noqa: E402

LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])

# scalars that YAML 1.1 resolves in ways a reader can get wrong, and text
# that is no scalar of the subset
TRICKY = ["1e-7", "1.0e5", "1.0e+5", "1.0E-5", "1.e-5", "5e-1", "1E5", "-2e+3", "01e5", "-0.0",
          "+0", "-0", "010", "0x1F", "0b11", "1_000", ".5", "1.", "+1", "-12", ".inf", "-.inf",
          ".nan", "yes", "No", "ON", "off", "y", "n", "~", "~a", "null", "NULL", "nul", "'a, b'",
          "a #b", "a#b", "'a #b'", "2001-12-14", "1:30", "190:20:30.15", "=", "<<", "''",
          "'it''s'", "'x: y'", "/tmp/x", "-x", "-", ".", "&a x", "*a", "!!str 1", '"q"', "a: b",
          "a b", "no thanks", "a  b", "yes sir", "1 2", "? a", "[1, [2]]", "{a: {b: 1}}",
          "a\tb", "'a\tb'", "\u00e9", "|", ">"]
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
    st.sampled_from(["on", "No", "1", "-1", "1.0", "~", "'a b'", "a b"])))
COMMENTS = st.sampled_from(["", "", "", "", " # note", "  #x'y", " #", " # \u00e9\u03b5 \u2014"])
# what separates two items of a flow collection, and what follows its
# opening bracket or precedes its closing one: most stay on the line, some
# break it, at a deeper, the same or a shallower indent, after a comment
SEPARATORS = st.sampled_from([", ", ",", " , ", ",  ", ",\n  ", ",\n", ",\n        ",
                              ", # \u00e9\n   ", " ,\n\n    "])
EDGES = st.sampled_from(["", "", "", " ", "\n  ", "\n", " # c\n      "])
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
def _flow(draw, depth=0):
    """A flow collection with flow collections nested in it up to two deep."""
    mapping = draw(st.booleans())
    values = SCALARS if depth == 2 else st.one_of(SCALARS, SCALARS, _flow(depth + 1))
    items = [f"{draw(KEYS)}: {value}" if mapping else value
             for value in draw(st.lists(values, max_size=3))]
    body = "".join(draw(SEPARATORS) + item for item in items[1:])
    return "{["[not mapping] + draw(EDGES) + "".join(items[:1]) + body + draw(EDGES) + "}]"[
        not mapping]


@st.composite
def _block(draw, indent, depth):
    """The lines of a block mapping at column indent."""
    lines, pad = [], " " * indent
    for _ in range(draw(st.integers(1, 4))):
        key, comment = draw(KEYS), draw(COMMENTS)
        kind = draw(st.sampled_from(["scalar", "flow", "flow", "empty"]
                                    + (["block-list", "block-map"] if depth < 2 else [])))
        if kind == "scalar":
            lines.append(f"{pad}{key}: {draw(SCALARS)}{comment}")
        elif kind == "flow":
            lines.append(f"{pad}{key}: {draw(_flow())}{comment}")
        elif kind == "empty":
            lines.append(f"{pad}{key}:{comment}")
        elif kind == "block-list":
            lines.append(f"{pad}{key}:{comment}")
            item_pad = pad + " " * draw(st.sampled_from([0, 2, 4]))
            values = draw(st.lists(st.one_of(SCALARS, _flow()), min_size=1, max_size=3))
            lines += [f"{item_pad}- {value}" for value in values]
        else:
            lines.append(f"{pad}{key}:{comment}")
            lines += draw(_block(indent + draw(st.sampled_from([1, 2, 4])), depth + 1))
    return lines


def _pyyaml(doc, loader):
    """PyYAML's object of doc, and the (key, line) of each key it reads twice in a mapping."""
    repeats = []

    class Recording(loader):
        def construct_mapping(self, node, deep=False):
            seen = []
            for key_node, _ in node.value:
                key = self.construct_object(key_node)
                if key in seen:
                    repeats.append((key, key_node.start_mark.line + 1))
                seen.append(key)
            return super().construct_mapping(node, deep)

    return yaml.load(doc, Loader=Recording), repeats


def _assert_read_as_pyyaml(doc):
    """read(doc) builds PyYAML's object under every loader, or refuses naming the line."""
    try:
        got = read(doc, "doc.yaml")
    except ValueError as exc:
        refused = re.fullmatch(r"doc\.yaml: (?:line \d+: .+ is not read; write .+"
                               r"|config key (.+) repeated at line (\d+))", str(exc), re.S)
        assert refused, (str(exc), doc)
        for loader in LOADERS if refused[1] else ():
            try:
                _, repeats = _pyyaml(doc, loader)
            except yaml.YAMLError:
                continue  # PyYAML refuses the document as well
            assert (refused[1], int(refused[2])) in [(repr(k), n) for k, n in repeats], (exc, doc)
        return
    for loader in LOADERS:
        value, repeats = _pyyaml(doc, loader)
        assert repr(value) == repr(got) and not repeats, (loader, doc)


@settings(max_examples=150, deadline=None)
@given(_block(0, 0), st.sampled_from(SPOILERS))
def test_a_block_document_is_declined_or_read_as_pyyaml_reads_it(lines, spoil):
    _assert_read_as_pyyaml(spoil("\n".join(lines) + "\n"))


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="ab1.0e+-_:#' []{},\n~\t\u00e9\"", max_size=40))
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
    read(SUBSET_DOCUMENT, "doc.yaml")
    _assert_read_as_pyyaml(SUBSET_DOCUMENT)
    for doc in ("", "\n", "# only a comment\n", "  \n# a\n"):
        assert read(doc, "doc.yaml") is None is yaml.safe_load(doc)


@pytest.mark.parametrize("doc", [
    "a: [1, [2]]\n", "a: {b: {c: 1}}\n", "a: [[1, {b: [c, 'd, e']}], {}]\n",
    "sweep: {eps: [1.0e-6], loss: {start: 0.0, stop: 1.0, step: 0.5}}\n",
    "a: [1,\n  2]\nb: 3\n", "a:\n  b: {c: 1,\n      d: [2,\n          3]}\n",
    "- [1, # one\n   2]\n- {a: 1,\n\n   b: 2}\n",
    "sweep: {eps: [1e-7, 1.0e-6, 0], delta: [0.05, -0.0, 1],\n"
    "        loss: {start: 1, stop: 2.0, step: 0.5}}\noutput: {path: 'rates, all.jsonl'}\n",
    "a: 1e-5\n", "a: 1.0e5\n", "a: [5e-1, 1E5, -2e+3, 01e5]\n",
    "a: b c\n", "include_sifting: no thanks\n", "a: [x  y, ~ z]\n", "a b: {c d: e f}\n",
    "# \u00e9\u03b5 \u2014 \U0001d6c6\na: 1  # \u00fc\n",
], ids=["nested-flow-list", "nested-flow-map", "deep-flow", "nested-flow-config",
        "continued-flow", "continued-nested-flow", "continued-flow-items",
        "continued-flow-config", "exponent-without-dot", "exponent-without-sign",
        "exponents-in-a-list", "space", "words", "spaces-in-flow", "spaces-in-keys",
        "non-ascii-comment"])
def test_forms_beyond_block_yaml_are_read_as_pyyaml_reads_them(doc):
    read(doc, "doc.yaml")
    _assert_read_as_pyyaml(doc)


@pytest.mark.parametrize("doc, line", [
    ("a: 1\ta\n", 1), ("a: 'b\tc'\n", 1), ("a:\n\t- 1\n", 2), ("a: 1 # x\ty\n", 1),
    ("a: \u00e9\n", 1), ("\ufeffa: 1\n", 1), ("a: \x07\n", 1), ("a: 1\nb: &x 1\nc: *x\n", 2),
    ("a: *x\n", 1), ("a: !!str 1\n", 1), ("---\na: 1\n", 1), ("a: 'b\n  c'\n", 2),
    ("a: b\n  c\n", 2), ("a: |\n  x\n", 2), ("a: >\n  x\n", 2), ("a: [b\n  c]\n", 1),
    ("a: 1\na: 2\n", 2), ("a: {b: 1,\n    b: 2}\n", 2), ("a: 010\n", 1), ("a: 0x1F\n", 1),
    ("a: 1_000\n", 1), ("a: .inf\n", 1), ("a: .5\n", 1), ("a: 1:30\n", 1),
    ("a: 2001-12-14\n", 1), ('a: "b"\n', 1), ("a: 'it''s'\n", 1), ("a: 1\n  b: 2\n", 2),
    ("- 1\n- - 2\n", 2), ("k" * 1100 + ": 1\n", 1), ("a: [1, 2\nb: 3\n", 1),
    ("sweep: {eps: [1e-7, 1.0e-6, 0],\n"
     "        loss: {start: 1, stop: &stop 2.0, step: 0.5}}\n", 2),
], ids=["tab", "tab-in-quotes", "tab-indent", "tab-in-comment", "non-ascii", "bom", "control",
        "anchor", "alias", "tag", "document-start", "multi-line-quoted", "multi-line-plain",
        "literal-block", "folded-block", "multi-line-in-flow", "duplicate-key",
        "duplicate-flow-key", "octal", "hex", "underscore", "inf", "leading-dot",
        "sexagesimal", "date", "double-quoted", "quote-escape", "indented-after-value",
        "nested-list", "long-key", "unclosed-flow", "anchor-in-a-continued-flow"])
def test_other_documents_are_refused_naming_their_line(doc, line):
    # the line is the first that the reader cannot read: the second of a
    # multi-line or block scalar
    with pytest.raises(ValueError, match=rf"^doc\.yaml: (line {line}: |config key .* at line"
                                         rf" {line}$)"):
        read(doc, "doc.yaml")
    _assert_read_as_pyyaml(doc)


@pytest.mark.parametrize("doc, message", [
    ("a: &x 1\n", "line 1: '&x 1' is not read;"
     " write the value itself: anchors, aliases and tags are not read"),
    ('a: "b"\n', "line 1: '\"b\"' is not read; write single quotes"),
    ("a:\n\t- 1\n", "line 2: '\\t' is not read; write spaces"),
    ("a: 010\n", "line 1: '010' is not read; write a decimal number such as 8, 0.5 or 1.0e-05"),
    ("a: {b: [1,\n  &x 2]}\n", "line 2: '&x 2' is not read;"
     " write the value itself: anchors, aliases and tags are not read"),
    ("a: \u00e9\n", "line 1: '\u00e9' is not read; write printable ASCII: a word or 'quoted text'"),
], ids=["anchor", "double-quoted", "tab", "octal", "anchor-on-a-continued-line", "non-ascii"])
def test_a_refusal_names_the_path_line_token_and_what_to_write(doc, message):
    with pytest.raises(ValueError) as exc:
        read(doc, "doc.yaml")
    assert str(exc.value) == f"doc.yaml: {message}"


def test_the_gate_configs_are_read_without_pyyaml():
    for _, doc, _ in gate_tables.configs():
        read(doc, "gate.yaml")
        _assert_read_as_pyyaml(doc)


def _no_yaml(tmp_path):
    """os.environ with a yaml module first on the path that refuses to import."""
    (tmp_path / "yaml.py").write_text("raise ImportError('yaml imported')\n")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(tmp_path), os.environ.get("PYTHONPATH")])))


def test_cli_runs_on_the_gate_configs_import_no_yaml(tmp_path):
    jobs = gate_tables.configs()
    gate_tables.write(ROOT / "src", jobs, tmp_path / "tables", _no_yaml(tmp_path))
    assert len(list((tmp_path / "tables").iterdir())) == 2 * len(jobs)


# a sweep config in each form that only PyYAML read before: nested flow
# collections, flow collections over lines, exponents that YAML 1.1 keeps
# as strings, words with spaces and non-ASCII comments
NEW_FORMS = {
    "nested-flow": "sweep: {eps: [1.0e-6], delta: [0.0, 0.126],"
                   " loss: {start: 0.0, stop: 1.0, step: 0.5}}\n",
    "continued-flow": "sweep: {eps: [1.0e-6,\n         1.0e-7],\n"
                      "  loss: {start: 0.0, stop: 1.0,\n  step: 0.5}}\n",
    "exponents": "channel:\n  p_d: 1e-5\nestimation:\n  cond_ceiling: 1.0e5\n"
                 "sweep:\n  eps: [5e-7, 1.0e-6]\n  loss: {start: 0.0, stop: 1.0, step: 5e-1}\n",
    "spaces": "output:\n  path: rates table.csv\nsweep:\n  loss: {start: 0.0, stop: 1.0, step: 0.5}\n",
    "non-ascii-comment": "# Schl\u00fcsselrate bei \u03b5 = 10\u207b\u2076\n"
                         "sweep:\n  eps: [1.0e-6]  # \u03b5\n  loss: {start: 0.0, stop: 1.0,"
                         " step: 0.5}\n",
}


def test_cli_reads_the_readme_and_every_new_form_import_no_yaml(tmp_path):
    readme = (ROOT / "README.md").read_text().split("```yaml\n", 1)[1].split("```", 1)[0]
    jobs = ([(f"readme-{sweep}", readme, sweep) for sweep in ("loss", "frequency")]
            + [(name, text, "loss") for name, text in NEW_FORMS.items()])
    gate_tables.write(ROOT / "src", jobs, tmp_path / "tables", _no_yaml(tmp_path))
    assert sorted(p.name for p in (tmp_path / "tables").iterdir() if p.suffix != ".warnings") \
        == sorted(name for name, _, _ in jobs)
    for name, text in NEW_FORMS.items():
        _assert_read_as_pyyaml(text)
        (tmp_path / f"{name}.yaml").write_text(text, encoding="utf-8")
    config = load_config(str(tmp_path / "spaces.yaml"))
    assert config.out_path == "rates table.csv"
    assert load_config(str(tmp_path / "exponents.yaml")).channel.p_d == 1e-5
