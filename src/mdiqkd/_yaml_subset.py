"""Read the block-YAML subset that sweep configs are written in, without PyYAML.

read(text) gives what PyYAML's SafeLoader builds from a document of the
subset, and OUTSIDE for any other document, which the caller hands to
PyYAML. The subset: printable ASCII lines of block mappings and block
sequences ("- x", also at the parent key's indent, as yaml.safe_dump
writes them) of scalars and one-level flow collections of scalars
("[a, b]", "{k: v}"); full-line and " #" comments; single-quoted
scalars without escapes; and plain scalars that YAML 1.1 resolves to a
decimal int, a float with a dot and a signed exponent, a bool or null
word, or a str that starts with a letter, "_", "/" or "~". Everything
else, 1e-5 (a str to YAML 1.1) and duplicate keys too, is outside.
Lines are split with str methods, which cost a process that reads one
config less than compiling regular expressions would.
"""

import re

OUTSIDE = object()
_PLAIN = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_./+~-"
_NUMBER = re.compile(r"[-+]?(?:(0|[1-9][0-9]*)|[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?)")
# the only plain scalars that YAML 1.1 resolves from a word starting with a letter or "~"
_WORDS = {w: value for value, words in ((True, "yes true on"), (False, "no false off"))
          for word in words.split() for w in (word, word.capitalize(), word.upper())}
_WORDS.update(dict.fromkeys(("~", "null", "Null", "NULL")))


class _Outside(Exception):
    pass


def _scalar(token):
    if len(token) > 1 and token[0] == token[-1] == "'" and token.count("'") == 2:
        return token[1:-1]
    if not token or token.strip(_PLAIN):  # empty, or a character no plain word holds
        raise _Outside(token)
    if token in _WORDS:
        return _WORDS[token]
    if token[0] not in "+-.0123456789":
        return token
    number = _NUMBER.fullmatch(token)
    if number is None:  # octal, hex, 1_000, .inf, a date, 1e-5 ...
        raise _Outside(token)
    return int(token) if number[1] else float(token)


def _split(text, sep):
    """text split at each sep outside single quotes."""
    parts = []
    for part in text.split(sep):
        if parts and parts[-1].count("'") % 2:
            parts[-1] += sep + part
        else:
            parts.append(part)
    return parts


def _mapping(pairs):
    node = dict(pairs)
    if len(node) < len(pairs):  # a key twice
        raise _Outside(pairs)
    return node


def _inline(text):
    """The value of a scalar or a one-level flow collection on one line."""
    if text[0] not in "[{":
        return _scalar(text)
    inner = text[1:-1]
    if text[-1] != {"[": "]", "{": "}"}[text[0]]:
        raise _Outside(text)
    items = [item.strip(" ") for item in _split(inner, ",")] if inner.strip(" ") else []
    if text[0] == "[":
        return [_scalar(item) for item in items]
    pairs = [_split(item, ": ") for item in items]
    if any(len(pair) != 2 for pair in pairs):
        raise _Outside(text)
    return _mapping([(_scalar(key), _scalar(value.lstrip(" "))) for key, value in pairs])


def _block(lines, i, indent):
    """The block collection whose entries start at lines[i] in column indent, and the next line."""
    is_list = lines[i][1] is None
    entries = []
    while i < len(lines) and lines[i][0] == indent and (lines[i][1] is None) == is_list:
        _, key, value = lines[i]
        i += 1
        if value is not None:
            value = _inline(value)
        elif i < len(lines) and (lines[i][0] > indent
                                 or lines[i][0] == indent and lines[i][1] is None):
            value, i = _block(lines, i, lines[i][0])  # deeper, or a list at the key's indent
        entries.append(value if is_list else (_scalar(key), value))
    return (entries if is_list else _mapping(entries)), i


def _line(line):
    """(indent, key or None for a list item, value text or None) of a line."""
    body = line.lstrip(" ")
    indent = len(line) - len(body)
    if body[:2] == "- ":
        return indent, None, body[2:].lstrip(" ")
    if body[-1] == ":":
        return indent, body[:-1], None
    key, *value = _split(body, ": ")
    if not value:
        raise _Outside(line)
    return indent, key, ": ".join(value).lstrip(" ")


def read(text):
    """The object of a document in the subset, else OUTSIDE."""
    lines = []
    try:
        if not text.isascii():
            raise _Outside(text)
        for line in text.split("\n"):
            # PyYAML refuses a key of 1024 characters
            if not line.isprintable() or len(line) > 1000:
                raise _Outside(line)
            # a comment starts at a # that opens the line or follows a space, outside quotes
            cut = line.find("#")
            while cut > 0 and (line[cut - 1] != " " or line.count("'", 0, cut) % 2):
                cut = line.find("#", cut + 1)
            line = (line if cut < 0 else line[:cut]).rstrip(" ")
            if line:
                lines.append(_line(line))
        if not lines:
            return None
        node, end = _block(lines, 0, lines[0][0])
        return node if end == len(lines) else OUTSIDE
    except _Outside:
        return OUTSIDE
