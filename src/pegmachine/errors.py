"""Exception types shared across the toolkit."""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for all pegmachine errors."""


class GrammarTextError(ToolkitError):
    """Syntax or reference error in a grammar source file."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}" if line else message)


class GrammarInvariantError(ToolkitError):
    """A grammar violates a structural invariant (duplicate rules, bad alphabet, ...)."""


class NotCoreError(ToolkitError):
    """An operation that requires a core-only grammar saw a sugar node."""


class IllFormedError(ToolkitError):
    """A grammar is left-recursive (directly or mutually)."""

    def __init__(self, cycle: tuple[str, ...]):
        self.cycle = cycle
        super().__init__("left-recursive cycle: " + " -> ".join(cycle + (cycle[0],)))


class NotCnfError(ToolkitError):
    """A grammar does not have the restricted normal-form rule shapes."""


class MachineTextError(ToolkitError):
    """Syntax error in a machine / DPDA / DFA source file."""

    def __init__(self, message: str, line: int = 0):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class MachineInvariantError(ToolkitError):
    """A machine description violates the model's invariants.

    ``key`` is the δ key of the offending transition, when there is one;
    the message then starts with it.
    """

    def __init__(self, message: str, key: tuple[str, str, str] | None = None):
        self.key = key
        self.detail = message
        super().__init__(f"delta{key!r}: {message}" if key else message)


class MachineRowError(MachineTextError, MachineInvariantError):
    """A row of a machine file whose transition violates the model's invariants."""


class NotNormalError(ToolkitError):
    """A machine lacks a normal-form property required by the operation."""


class CompositionError(ToolkitError):
    """A closure construction was given incompatible or uncertified inputs."""
