"""VCD export: the one encoder behind :meth:`TraceBuffer.to_vcd`."""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Tuple

_VCD_ID_CHARS = "".join(chr(c) for c in range(33, 127))


def vcd_id(index: int) -> str:
    """Compact VCD identifier for the ``index``-th variable (base-94
    over the printable ASCII range, per the VCD spec)."""
    base = len(_VCD_ID_CHARS)
    out = ""
    index += 1
    while index:
        index, digit = divmod(index - 1, base)
        out = _VCD_ID_CHARS[digit] + out
    return out


def write_vcd(
    path: str,
    probes: Iterable[Tuple[str, int]],
    changes_of: Callable[[str], Iterable[Tuple[int, int]]],
    timescale: str = "1 ns",
    module_name: str = "uut",
) -> None:
    """Write one VCD file (``TraceBuffer.to_vcd`` is the caller).

    ``probes`` is ``(name, width)`` pairs in declaration order;
    ``changes_of(name)`` yields that probe's ``(cycle, value)``
    change stream (consecutive duplicates already removed).
    """
    probes = list(probes)
    ids = {name: vcd_id(i) for i, (name, _width) in enumerate(probes)}
    lines: List[str] = [
        "$date repro-livesim $end",
        "$version repro LiveSim reproduction $end",
        f"$timescale {timescale} $end",
        f"$scope module {module_name} $end",
    ]
    for name, width in probes:
        safe = name.replace(" ", "_")
        lines.append(f"$var wire {width} {ids[name]} {safe} $end")
    lines.append("$upscope $end")
    lines.append("$enddefinitions $end")

    # Merge all samples into a cycle-ordered change stream.
    events: Dict[int, List[Tuple[str, int, int]]] = {}
    for name, width in probes:
        for cycle, value in changes_of(name):
            events.setdefault(cycle, []).append((ids[name], value, width))
    lines.append("$dumpvars")
    first = True
    for cycle in sorted(events):
        lines.append(f"#{cycle}")
        for ident, value, width in events[cycle]:
            if width == 1:
                lines.append(f"{value & 1}{ident}")
            else:
                lines.append(f"b{value:b} {ident}")
        if first:
            lines.append("$end")
            first = False
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
