"""Small indented-source emitter shared by both code generators."""

from __future__ import annotations

from typing import List


class FunctionEmitter:
    """Accumulates Python source lines with indentation and fresh temps."""

    def __init__(self, indent: str = "    "):
        self._lines: List[str] = []
        self._indent_str = indent
        self._level = 0
        self._temp_counter = 0

    def line(self, text: str) -> None:
        self._lines.append(self._indent_str * self._level + text)

    def blank(self) -> None:
        self._lines.append("")

    def push(self) -> None:
        self._level += 1

    def pop(self) -> None:
        if self._level == 0:
            raise RuntimeError("unbalanced indentation pop")
        self._level -= 1

    def fresh(self, hint: str = "t") -> str:
        self._temp_counter += 1
        return f"_{hint}{self._temp_counter}"

    def splice(self, body: "FunctionEmitter") -> None:
        """Append ``body``'s lines at the current indentation (a body
        generated before the prologue that depends on it)."""
        prefix = self._indent_str * self._level
        self._lines.extend(prefix + text if text else text
                           for text in body._lines)

    def source(self) -> str:
        return "\n".join(self._lines) + "\n"

    @property
    def line_count(self) -> int:
        return len(self._lines)


class Block:
    """Context manager for an indented block: ``with emit.block("if x:"):``."""

    def __init__(self, emitter: FunctionEmitter, header: str):
        self._emitter = emitter
        self._header = header

    def __enter__(self) -> "Block":
        self._emitter.line(self._header)
        self._emitter.push()
        return self

    def __exit__(self, *exc: object) -> None:
        self._emitter.pop()


def block(emitter: FunctionEmitter, header: str) -> Block:
    return Block(emitter, header)
