"""Language closure constructions: Boolean combinators, and one
suspend-and-resume machine builder for the regular closure of deterministic
pushdown languages and for its left concatenation with a grammar."""

from .boolean import pel_complement, pel_intersection, pel_union
from .concat import left_concat_dcfl
from .dfa import LabeledDfa, absorb_epsilon_labels, parse_dfa_text, render_dfa_text
from .dpda import ACCEPT, BUDGET, Dpda, EPSILON, REJECT, dpda_run, parse_dpda_text, render_dpda_text
from .regclosure import CompositionSpec, brute_force_membership, reg_closure_machine

__all__ = [
    "ACCEPT",
    "BUDGET",
    "CompositionSpec",
    "Dpda",
    "EPSILON",
    "LabeledDfa",
    "REJECT",
    "absorb_epsilon_labels",
    "brute_force_membership",
    "dpda_run",
    "left_concat_dcfl",
    "parse_dfa_text",
    "parse_dpda_text",
    "pel_complement",
    "pel_intersection",
    "pel_union",
    "reg_closure_machine",
    "render_dfa_text",
    "render_dpda_text",
]
