"""Built-in machines used by the CLI, benchmarks and tests."""

from __future__ import annotations

from .machine import (
    DOWN, HAT_RIGHT, LEFT_MARK, Machine, MachineBuilder, Move, RIGHT, RIGHT_MARK, UP,
)


def builtin_anbncn() -> Machine:
    """Three-state machine recognizing a^n b^n c^n for n >= 1.

    The first pass checks the a/b balance against the stack, popping ``up``
    on the first ``c`` to rewind the head; the second pass skips the ``a``
    block and checks the b/c balance.
    """
    mb = MachineBuilder("q0", "Z0", ("a", "b", "c"), ("qf",), states=("q0", "q1", "qf"),
                        stack_alphabet=("Z0", "Y", "X"))
    emit = mb.emit
    emit("q0", LEFT_MARK, "Z0", Move("q0", ("Y",), RIGHT))
    emit("q0", "a", "Y", Move("q0", ("X",), RIGHT))
    emit("q0", "a", "X", Move("q0", ("X",), RIGHT))
    emit("q0", "b", "X", Move("q0", (), RIGHT))
    emit("q0", "c", "Y", Move("q1", (), UP))
    emit("q1", "a", "Z0", Move("q1", (), HAT_RIGHT))
    emit("q1", "b", "Z0", Move("q1", ("X",), RIGHT))
    emit("q1", "b", "X", Move("q1", ("X",), RIGHT))
    emit("q1", "c", "X", Move("q1", (), RIGHT))
    emit("q1", RIGHT_MARK, "Z0", Move("qf", (), DOWN))
    return mb.build()


def builtin_loop() -> Machine:
    """Two-rule machine that push/pops forever at cell 1 on every input.

    The direct engine burns its whole step budget on it; the memoizing
    engine must reject it by loop detection in constant work regardless of
    input length.
    """
    mb = MachineBuilder("q", "Z", ("a",), states=("q", "h"), stack_alphabet=("Z", "H", "Z2"))
    mb.emit("q", LEFT_MARK, "Z", Move("h", ("H",), RIGHT))
    mb.emit_any("h", "H", Move("q", (), DOWN))
    mb.emit_any("q", "Z", Move("q", ("Z2",), DOWN))
    mb.emit_any("q", "Z2", Move("q", (), UP))
    return mb.build()


def builtin_sweep() -> Machine:
    """Three-state machine recognizing a* with a quadratic direct run.

    It pushes one ``X`` per letter; then every ``X``'s ``up`` pop sends the
    head back to that symbol's origin, from where the machine sweeps right
    to the end marker again.  Each origin is read only at its symbol's pop,
    so the memoizing engine's table stays linear in the word length.
    """
    mb = MachineBuilder("q0", "Z", ("a", "b"), ("f",), states=("q0", "r", "f"),
                        stack_alphabet=("Z", "X"))
    emit = mb.emit
    emit("q0", LEFT_MARK, "Z", Move("q0", ("X",), RIGHT))
    emit("q0", "a", "X", Move("q0", ("X",), RIGHT))
    emit("q0", RIGHT_MARK, "X", Move("r", (), UP))
    emit("r", "a", "X", Move("r", (), HAT_RIGHT))
    emit("r", "a", "Z", Move("r", (), HAT_RIGHT))
    emit("r", RIGHT_MARK, "X", Move("r", (), UP))
    emit("r", RIGHT_MARK, "Z", Move("f", (), DOWN))
    return mb.build()
