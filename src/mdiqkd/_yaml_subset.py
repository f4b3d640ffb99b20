"""Read the YAML that sweep configs are written in, without PyYAML.

read(text, path) gives what PyYAML's SafeLoader builds from a document
of the subset below, and raises ValueError("<path>: line N: <token> is
not read; write ...") for any other, naming the token and what to write
instead. The subset: lines of block mappings and block sequences ("- x",
also at the parent key's indent, as yaml.safe_dump writes them) of
scalars and flow collections ("[a, b]", "{k: v}"), these nested to any
depth and continued on later lines; full-line and " #" comments of any
printable text; single-quoted scalars on one line without escapes; and
plain scalars on one line of printable ASCII that YAML 1.1 resolves to
a decimal int, a float with a dot and a signed exponent, a bool or null
word, or a str: words that start with a letter, "_", "/" or "~", spaces
between them included, and numbers with an exponent but no dot or no
exponent sign (1e-5, 1.0e5), which YAML 1.1 keeps as strings. Anchors,
aliases, tags, "---", double quotes, quote escapes, multi-line and block
scalars, tabs, non-ASCII text outside comments, 010, 0x1F, 1_000, .inf,
.5, dates and 1:30 are refused. So is a key set twice in one mapping,
whose first value PyYAML would drop: ValueError("<path>: config key 'k'
repeated at line N"). Lines are split with str methods, which cost a
process that reads one config less than compiling regular expressions
would.
"""

import re

_PLAIN = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_./+~- "
# group 1: a decimal int; group 2: a number that YAML 1.1 keeps as a string
# (an exponent without a dot or without its sign), which float() reads
_NUMBER = re.compile(r"[-+]?(?:(0|[1-9][0-9]*)|[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?"
                     r"|([0-9]+(?:\.[0-9]*)?[eE][-+]?[0-9]+))")
# the only plain scalars that YAML 1.1 resolves from a word starting with a letter or "~"
_WORDS = {w: value for value, words in ((True, "yes true on"), (False, "no false off"))
          for word in words.split() for w in (word, word.capitalize(), word.upper())}
_WORDS.update(dict.fromkeys(("~", "null", "Null", "NULL")))
# what to write instead of a refused token, by its first character
_INSTEAD = {**dict.fromkeys("&*!", "the value itself: anchors, aliases and tags are not read"),
            **dict.fromkeys("+-.0123456789", "a decimal number such as 8, 0.5 or 1.0e-05"),
            **dict.fromkeys("|>", "the scalar on one line"), '"': "single quotes",
            "'": "single-quoted text on one line, without a quote inside", "\t": "spaces"}


def _refused(n, token, instead=None):
    """The ValueError for token on line n, naming what to write instead."""
    instead = instead or _INSTEAD.get(token[:1], "printable ASCII: a word or 'quoted text'")
    return ValueError(f"line {n}: {token!r} is not read; write {instead}")


def _scalar(token, n):
    """The value of a scalar token on line n, stripped of spaces."""
    if token and not token.strip(_PLAIN):
        if token[0] not in "+-.0123456789":
            return _WORDS.get(token, token)
        number = _NUMBER.fullmatch(token)
        if number:  # not octal, hex, 1_000, .inf, a date ...
            return int(token) if number[1] else token if number[2] else float(token)
    elif token[:1] == "'" == token[-1:] and token.count("'") == 2 and "\n" not in token:
        return token[1:-1]
    raise _refused(n, token)


def _depth(text):
    """How many brackets text leaves open outside single quotes; 1 if it leaves a quote open."""
    if "'" in text:
        parts = text.split("'")
        if len(parts) % 2 == 0:
            return 1
        text = "".join(parts[::2])
    return text.count("[") + text.count("{") - text.count("]") - text.count("}")


def _split(text, sep):
    """text split at each sep outside single quotes and brackets."""
    parts = []
    for part in text.split(sep):
        if parts and _depth(parts[-1]) > 0:
            parts[-1] += sep + part
        else:
            parts.append(part)
    return parts


def _put(node, key, value, n):
    """node[key] = value, refusing a key that node already holds."""
    if key in node:
        raise ValueError(f"config key {key!r} repeated at line {n}")
    node[key] = value


def _inline(text, n):
    """The value of a scalar or a flow collection that starts on line n."""
    if text[:1] not in ("[", "{"):
        return _scalar(text, n)
    if text[-1] != "]}"["[{".index(text[0])]:
        raise _refused(n, text.split("\n")[0], "a flow collection closed on its last line")
    node, inner = ([] if text[0] == "[" else {}), text[1:-1]
    for part in _split(inner, ",") if inner.strip(" \n") else ():
        item = part.strip(" \n")
        m = n + part.count("\n", 0, part.find(item))  # the line of the item
        n += part.count("\n")
        if text[0] == "[":
            node.append(_inline(item, m))
        elif len(pair := _split(item, ": ")) == 2:
            _put(node, _scalar(pair[0].rstrip(" "), m), _inline(pair[1].lstrip(" "), m), m)
        else:
            raise _refused(m, item.split("\n")[0], "'key: value' items in a flow mapping")
    return node


def _block(lines, i, indent):
    """The block collection whose entries start at lines[i] in column indent, and the next line."""
    is_list = lines[i][2] is None
    node = [] if is_list else {}
    while i < len(lines) and lines[i][1] == indent and (lines[i][2] is None) == is_list:
        n, _, key, value = lines[i]
        i += 1
        if value is not None:
            value = _inline(value, n)
        elif i < len(lines) and (lines[i][1] > indent
                                 or lines[i][1] == indent and lines[i][2] is None):
            value, i = _block(lines, i, lines[i][1])  # deeper, or a list at the key's indent
        if is_list:
            node.append(value)
        else:
            _put(node, _scalar(key.rstrip(" "), n), value, n)
    return node, i


def _line(line, n):
    """[n, indent, key or None for a list item, value text or None] of line n."""
    body = line.lstrip(" ")
    # a key holds no ": ", so the first one ends it
    key, sep, value = (None, "- ", body[2:]) if body[:2] == "- " else (body + " ").partition(": ")
    if not sep:
        raise _refused(n, body, "'key: value', 'key:' or '- item' lines")
    return [n, len(line) - len(body), key, value.strip(" ") or None]


def read(text, path):
    """The object of a config document; ValueError naming path and line for any other."""
    # flow: the brackets that the last line's value leaves open
    lines, flow, all_ascii = [], 0, text.isascii()
    try:
        for n, line in enumerate(text.split("\n"), 1):
            # a comment starts at a # that opens the line or follows a space, outside quotes
            cut = line.find("#")
            while cut > 0 and (line[cut - 1] != " " or line.count("'", 0, cut) % 2):
                cut = line.find("#", cut + 1)
            code = (line if cut < 0 else line[:cut]).rstrip(" ")
            if not ((all_ascii or code.isascii()) and line.isprintable()):
                bad = [c for c in code if not (c.isascii() and c.isprintable())]
                raise _refused(n, (bad or [c for c in line if not c.isprintable()])[0])
            if len(line) > 1000:  # PyYAML refuses a key of 1024 characters
                raise _refused(n, line[:20] + "...", "lines of at most 1000 characters")
            if flow > 0:  # a flow collection continued
                lines[-1][3] += "\n" + code
                flow = _depth(lines[-1][3])
            elif code:
                lines.append(_line(code, n))
                flow = (lines[-1][3] or " ")[0] in "[{" and _depth(lines[-1][3])
        node, end = _block(lines, 0, lines[0][1]) if lines else (None, 0)
        if end < len(lines):  # a line indented as no entry before it
            raise _refused(lines[end][0], lines[end][2] or lines[end][3],
                           "each key under a 'key:' line, and each scalar on one line")
        return node
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
