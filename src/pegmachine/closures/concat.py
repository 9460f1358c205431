"""Left concatenation of the regular closure of DCFLs with a grammar machine.

``left_concat_dcfl(x, y)`` is :func:`~pegmachine.closures.regclosure.suspend_resume_machine`
with ``y`` as the continuation.  A composition spec ``x`` is passed as it
is.  A single DPDA ``x`` is the one-block spec ``c0 -x-> c1 -x-> c2`` with
``c1`` final: nothing is tried after its block, so ``x`` may accept the
empty word, which a spec's bound languages may not.
"""

from __future__ import annotations

from ..pppda.machine import Machine
from .dfa import LabeledDfa
from .dpda import Dpda
from .regclosure import CompositionSpec, suspend_resume_machine

_ONE_BLOCK = LabeledDfa(
    states=("c0", "c1", "c2"),
    labels=("x",),
    delta={("c0", "x"): "c1", ("c1", "x"): "c2", ("c2", "x"): "c2"},
    initial="c0",
    finals=("c1",),
)


def left_concat_dcfl(x: Dpda | CompositionSpec, y: Machine) -> Machine:
    """Machine for ``L(x)·L(y)``; ``y`` must be a compiled grammar machine.

    The grammar behind ``y`` must have been compiled over an alphabet
    containing every DPDA's, so that its letter-quantified rules cover
    every input letter of the product.
    """
    if isinstance(x, CompositionSpec):
        return suspend_resume_machine(x.dfa, x.bindings, y, "concat-dcfl")
    return suspend_resume_machine(_ONE_BLOCK, {"x": x}, y, "concat-dcfl")
