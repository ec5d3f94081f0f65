"""Source-region splitting for LiveParser.

The paper (§III-C): "LiveParser divides the code into regions based on
the module structure, and the locations of pre-processor directives."
This module performs that division on raw (un-preprocessed) text so an
edit can be attributed to a specific module, or to a directive whose
change poisons everything below it.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Optional

MODULE_REGION = "module"
DIRECTIVE_REGION = "directive"
TOPLEVEL_REGION = "toplevel"  # stray text between modules (comments etc.)

_MODULE_RE = re.compile(r"^\s*module\s+([A-Za-z_]\w*)")
_ENDMODULE_RE = re.compile(r"\bendmodule\b")
_DIRECTIVE_RE = re.compile(r"^\s*`(define|undef|ifdef|ifndef|else|endif)\b")


class SourceRegion(NamedTuple):
    """A contiguous span of source lines with a single owner."""

    kind: str
    name: str  # module name, directive text, or "" for toplevel filler
    start_line: int  # 1-based, inclusive
    end_line: int  # 1-based, inclusive
    text: str

    def contains_line(self, line: int) -> bool:
        return self.start_line <= line <= self.end_line


def _strip_line_comment(line: str) -> str:
    idx = line.find("//")
    return line[:idx] if idx >= 0 else line


def split_regions(source: str) -> List[SourceRegion]:
    """Split ``source`` into module / directive / toplevel regions.

    The scanner is line-oriented and deliberately forgiving: it only
    needs to be right about *boundaries*; full syntax checking belongs
    to the parser.  Block comments spanning a ``module`` keyword are
    not supported by the region scanner (they are rare and the parser
    still handles them correctly).
    """
    lines = source.splitlines()
    regions: List[SourceRegion] = []
    i = 0
    pending_start: Optional[int] = None  # start of an accumulating toplevel run

    def flush_toplevel(upto: int) -> None:
        nonlocal pending_start
        if pending_start is None:
            return
        text = "\n".join(lines[pending_start - 1 : upto])
        if text.strip():
            regions.append(
                SourceRegion(TOPLEVEL_REGION, "", pending_start, upto, text)
            )
        pending_start = None

    while i < len(lines):
        raw = lines[i]
        # Substring tests first: the regexes run only where they can match.
        opens = "`" in raw or "module" in raw
        stripped = _strip_line_comment(raw) if opens else raw
        directive = opens and _DIRECTIVE_RE.match(stripped)
        if directive:
            flush_toplevel(i)
            regions.append(
                SourceRegion(
                    DIRECTIVE_REGION, stripped.strip(), i + 1, i + 1, raw
                )
            )
            i += 1
            continue
        module = opens and _MODULE_RE.match(stripped)
        if module:
            flush_toplevel(i)
            start = i
            name = module.group(1)
            while i < len(lines):
                if "endmodule" in lines[i] and _ENDMODULE_RE.search(
                        _strip_line_comment(lines[i])):
                    break
                i += 1
            end = min(i, len(lines) - 1)
            text = "\n".join(lines[start : end + 1])
            regions.append(SourceRegion(MODULE_REGION, name, start + 1, end + 1, text))
            i = end + 1
            continue
        if pending_start is None:
            pending_start = i + 1
        i += 1

    flush_toplevel(len(lines))
    return regions


def module_regions(source: str) -> dict:
    """Map module name -> :class:`SourceRegion` for ``source``."""
    return {
        region.name: region
        for region in split_regions(source)
        if region.kind == MODULE_REGION
    }


def splice_modules(text: str, library: str) -> str:
    """``text`` with ``library`` merged in, one definition per module.

    A module ``library`` redefines replaces its region in ``text``, in
    place; everything else in ``library`` (new modules, directives,
    filler) is appended as written.
    """
    library_regions = split_regions(library)
    incoming = {
        r.name: r for r in library_regions if r.kind == MODULE_REGION
    }
    lines, rest = text.splitlines(), library.splitlines()
    redefined = set()
    # Bottom-up, so the line numbers of the regions still to go hold.
    for region in reversed(split_regions(text)):
        if region.kind == MODULE_REGION and region.name in incoming:
            lines[region.start_line - 1 : region.end_line] = (
                incoming[region.name].text.splitlines()
            )
            redefined.add(region.name)
    for region in reversed(library_regions):
        if region.kind == MODULE_REGION and region.name in redefined:
            del rest[region.start_line - 1 : region.end_line]
    merged = "\n".join(lines).rstrip() + "\n"
    appended = "\n".join(rest).strip("\n")
    return merged + "\n" + appended + "\n" if appended.strip() else merged


def region_at_line(regions: List[SourceRegion], line: int) -> Optional[SourceRegion]:
    for region in regions:
        if region.contains_line(line):
            return region
    return None
