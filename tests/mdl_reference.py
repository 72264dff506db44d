"""Character-by-character reference scanner for MDL chain text.

This was the package's scanner before `mdl.parse_mdl` became one compiled
lexeme pattern; it is kept here as the oracle the pattern is checked
against. It shares only the grammar constants and the error types with
the package, and returns plain (kind, params, offset) tuples.
"""

from chainfold.mdl import (
    KIND_CHARS,
    PARAM_CHARS,
    SEPARATOR_CHARS,
    TruncatedTokenError,
    UnknownKindError,
)


def ref_scan(text, strict=False):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif c in SEPARATOR_CHARS:
            i += 1
        elif c in KIND_CHARS:
            start = i
            i += 1
            if strict:
                params = text[i : i + 2]
                if len(params) < 2 or any(p not in PARAM_CHARS for p in params):
                    raise TruncatedTokenError(start)
                i += 2
            else:
                params = ""
                while i < n and len(params) < 2 and text[i] in PARAM_CHARS:
                    params += text[i]
                    i += 1
                params = params.ljust(2, "_")
            tokens.append((c, params, start))
        else:
            raise UnknownKindError(i, c)
    return tokens
