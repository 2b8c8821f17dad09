"""A Globus-style RSL (Resource Specification Language) parser.

Job requests arrive at the gatekeeper as RSL strings, e.g.::

    &(executable=knapsack)(count=8)(arguments="data.txt" "50")
     (resource=COMPaS)(maxTime=120)

Grammar (the GRAM-relevant subset)::

    request   := "&" relation+
    relation  := "(" attribute "=" value+ ")"
    value     := WORD | QUOTED

Attribute names are case-insensitive with the conventional aliases
(``max_time``/``maxTime``).  :func:`parse_rsl` returns a
:class:`~repro.rmf.jobs.JobSpec`; :func:`unparse_rsl` is its inverse
(used when a job manager forwards a request).
"""

from __future__ import annotations

from typing import Iterator

from repro.rmf.jobs import JobSpec, RMFError

__all__ = ["RSLError", "parse_rsl", "parse_relations", "unparse_rsl"]


class RSLError(RMFError):
    """Malformed RSL text."""


def _tokens(text: str) -> Iterator[tuple[str, str]]:
    """Lex into (kind, value): PUNCT for ``&()=``, WORD for atoms."""
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "&()=":
            yield ("PUNCT", c)
            i += 1
        elif c in "\"'":
            quote = c
            j = text.find(quote, i + 1)
            if j < 0:
                raise RSLError(f"unterminated quote at offset {i}")
            yield ("WORD", text[i + 1 : j])
            i = j + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "&()=\"'":
                j += 1
            yield ("WORD", text[i:j])
            i = j


def parse_relations(text: str) -> dict[str, list[str]]:
    """Parse RSL into an attribute → values mapping (names lowercased)."""
    toks = list(_tokens(text))
    if not toks:
        raise RSLError("empty RSL")
    pos = 0
    if toks[pos] == ("PUNCT", "&"):
        pos += 1
    relations: dict[str, list[str]] = {}
    while pos < len(toks):
        if toks[pos] != ("PUNCT", "("):
            raise RSLError(f"expected '(' at token {pos}: {toks[pos][1]!r}")
        pos += 1
        if pos >= len(toks) or toks[pos][0] != "WORD":
            raise RSLError("expected attribute name")
        attr = toks[pos][1].lower()
        pos += 1
        if pos >= len(toks) or toks[pos] != ("PUNCT", "="):
            raise RSLError(f"expected '=' after attribute {attr!r}")
        pos += 1
        values: list[str] = []
        while pos < len(toks) and toks[pos][0] == "WORD":
            values.append(toks[pos][1])
            pos += 1
        if not values:
            raise RSLError(f"attribute {attr!r} has no value")
        if pos >= len(toks) or toks[pos] != ("PUNCT", ")"):
            raise RSLError(f"expected ')' to close attribute {attr!r}")
        pos += 1
        if attr in relations:
            raise RSLError(f"duplicate attribute {attr!r}")
        relations[attr] = values
    return relations


_ALIASES = {
    "maxtime": "max_time",
    "max_time": "max_time",
    "stagein": "stage_in",
    "stage_in": "stage_in",
    "stageout": "stage_out",
    "stage_out": "stage_out",
}


def parse_rsl(text: str) -> JobSpec:
    """Parse an RSL request into a :class:`JobSpec`."""
    rel = parse_relations(text)
    known = {"executable", "count", "arguments", "resource"} | set(_ALIASES)
    unknown = set(rel) - known
    if unknown:
        raise RSLError(f"unknown RSL attributes: {sorted(unknown)}")

    def single(attr: str) -> str:
        vals = rel[attr]
        if len(vals) != 1:
            raise RSLError(f"attribute {attr!r} wants one value, got {len(vals)}")
        return vals[0]

    if "executable" not in rel:
        raise RSLError("RSL must specify (executable=...)")
    kwargs: dict = {"executable": single("executable")}
    if "count" in rel:
        try:
            kwargs["count"] = int(single("count"))
        except ValueError:
            raise RSLError(f"count is not an integer: {rel['count'][0]!r}")
    if "arguments" in rel:
        kwargs["arguments"] = tuple(rel["arguments"])
    if "resource" in rel:
        kwargs["resource"] = single("resource")
    for raw, canon in _ALIASES.items():
        if raw in rel:
            if canon == "max_time":
                try:
                    kwargs["max_time"] = float(single(raw))
                except ValueError:
                    raise RSLError(f"maxTime is not a number: {rel[raw][0]!r}")
            else:
                kwargs[canon] = tuple(rel[raw])
    try:
        return JobSpec(**kwargs)
    except RMFError as exc:
        raise RSLError(str(exc)) from exc


def _quote(value: str) -> str:
    if value and not any(c.isspace() or c in "&()=\"'" for c in value):
        return value
    # The grammar has no escape: wrap in the quote the value lacks.
    for quote in "\"'":
        if quote not in value:
            return quote + value + quote
    raise RSLError(f"value contains both quote characters: {value!r}")


def unparse_rsl(spec: JobSpec) -> str:
    """Render a :class:`JobSpec` back to RSL (inverse of parse)."""
    parts = [f"(executable={_quote(spec.executable)})", f"(count={spec.count})"]
    if spec.arguments:
        parts.append("(arguments=" + " ".join(_quote(a) for a in spec.arguments) + ")")
    if spec.resource:
        parts.append(f"(resource={_quote(spec.resource)})")
    if spec.stage_in:
        parts.append("(stage_in=" + " ".join(_quote(f) for f in spec.stage_in) + ")")
    if spec.stage_out:
        parts.append("(stage_out=" + " ".join(_quote(f) for f in spec.stage_out) + ")")
    parts.append(f"(max_time={spec.max_time!r})")
    return "&" + "".join(parts)
