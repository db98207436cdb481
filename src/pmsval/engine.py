"""The dominating-degree calculus and the induced valuation on K(X).

Roots of rational functions are never materialized as field elements: the
limit-or-ultimately-constant alternative makes a tag (limit of the sequence,
or the ultimate distance value beta) a complete description for valuation
purposes.  The induced value of a function is then d*delta + beta where d
counts limit roots of the numerator minus the denominator.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple, Optional

from .errors import InvariantError
from .groups import Value
# The chain checkers live with the rank walk that verifies alpha; they are
# re-exported here.
from .ranktree import (RankResult, check_pcs_equivalence_iii,
                       check_pds_equivalence_iii, rank_of_vE)
from .sequences import PmsDescriptor, PmsKind


# ---------------------------------------------------------------------------
# Tagged rational functions


class TaggedRoot(namedtuple("TaggedRoot", "beta multiplicity")):
    """A root known only through its relation to the sequence: either a
    limit (beta None), or at ultimate distance beta from the tail."""

    __slots__ = ()

    def __new__(cls, beta: Optional[Value], multiplicity: int):
        if multiplicity < 1:
            raise InvariantError("multiplicity must be positive")
        return super().__new__(cls, beta, multiplicity)

    is_limit = property(lambda self: self.beta is None)

    @staticmethod
    def limit(multiplicity: int = 1) -> "TaggedRoot":
        return TaggedRoot(None, multiplicity)

    @staticmethod
    def at_distance(beta: Value, multiplicity: int = 1) -> "TaggedRoot":
        return TaggedRoot(beta, multiplicity)


class FactoredRationalFunction(NamedTuple):
    """lead value plus tagged numerator and denominator roots (reduced)."""

    lead_value: Value
    num_roots: tuple[TaggedRoot, ...] = ()
    den_roots: tuple[TaggedRoot, ...] = ()

    def dominating_form(self) -> "DominatingForm":
        """d = limit roots of the numerator minus the denominator (counted
        with multiplicity); beta = lead value plus the non-limit distance
        values, signed the same way."""
        d = 0
        beta = self.lead_value
        for sign, roots in ((1, self.num_roots), (-1, self.den_roots)):
            for root in roots:
                if root.is_limit:
                    d += sign * root.multiplicity
                else:
                    beta = beta + root.beta.scale(sign * root.multiplicity)
        return DominatingForm(d, beta)


class DominatingForm(NamedTuple):
    """The affine tail pattern d*delta_nu + beta of the values along E."""

    degree: int
    beta: Value


def _validate_tags(phi: FactoredRationalFunction, E: PmsDescriptor) -> None:
    if not E.group.contains(phi.lead_value):
        raise InvariantError("lead value must be a member of the group")
    for root in phi.num_roots + phi.den_roots:
        if root.is_limit:
            if E.is_transcendental_pcs():
                raise InvariantError(
                    "a pcs of transcendental type admits no root limits")
        else:
            if not E.group.contains(root.beta):
                raise InvariantError(
                    "root distance must be a member of the group")


def dominating_degree(phi: FactoredRationalFunction,
                      E: PmsDescriptor) -> DominatingForm:
    """The dominating form of phi, once its tags are checked against E."""
    _validate_tags(phi, E)
    return phi.dominating_form()


# ---------------------------------------------------------------------------
# The induced valuation


class InducedValue(NamedTuple):
    """v_E of a function: its value, the tail pattern, and where the value
    lives: in the base group vK (so in its rational hull), or else only in
    the extended group, which over_extended says."""

    value: Value
    form: DominatingForm
    over_extended: bool


def v_e(phi: FactoredRationalFunction, E: PmsDescriptor,
        rank_result: RankResult) -> InducedValue:
    """Value of phi under the induced valuation.

    Ultimately constant values land in the base group; otherwise the value
    is d*alpha + beta over the extended group of rank_result, the rank walk
    of E (alpha the value of X minus a limit).
    """
    form = dominating_degree(phi, E)
    if E.kind is PmsKind.PCTS:
        value = E.pcts_delta.scale(form.degree) + form.beta if form.degree \
            else form.beta
        return InducedValue(value, form, False)
    if form.degree == 0:
        return InducedValue(form.beta, form, False)
    value = rank_result.alpha.scale(form.degree) + rank_result.embed(form.beta)
    return InducedValue(value, form, True)


# ---------------------------------------------------------------------------
# Extension classification


class PairOfDefinition(NamedTuple):
    point: str
    alpha: Value


class ExtensionReport(NamedTuple):
    extension_kind: str  # "immediate" | "value-transcendental" | "residue-transcendental"
    pure: bool
    pair: Optional[PairOfDefinition]
    key_poly_sketch: Optional[str]

    ic_label = property(lambda self: "K^h" if self.pure
                        else "K^h (via key polynomial sequence)")


def extension_report(E: PmsDescriptor) -> ExtensionReport:
    """Classify the induced extension of the rational function field.

    The constant-field label is always the henselization: through pureness
    when the sequence has a limit in the ground field or is of
    transcendental type, through the key-polynomial sequence otherwise.
    """
    if E.is_transcendental_pcs():
        return ExtensionReport(
            "immediate", True, None,
            "{X - z_nu : nu} (limits of the sequence itself)")
    if E.kind is PmsKind.PCTS:
        pair = PairOfDefinition("a", E.pcts_delta)
        return ExtensionReport(
            "residue-transcendental", True, pair, "{X - a}")
    alpha = rank_of_vE(E).alpha
    if E.kind is PmsKind.PDS:
        pair = PairOfDefinition("z_mu", alpha)
        return ExtensionReport(
            "value-transcendental", True, pair, "{X - z_mu}")
    deg = E.pcs_type.degree
    pair = PairOfDefinition("a (root of Q)", alpha)
    sketch = f"{{X - z_nu : nu}} U {{Q : deg {deg}}}"
    return ExtensionReport("value-transcendental", deg == 1, pair, sketch)
