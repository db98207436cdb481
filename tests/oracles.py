"""Test oracles that no command runs.  Encoders for the problem-file
records that no command writes: a stage chain, a sequence descriptor and a
tagged rational function; the round-trip tests check the jsonio decoders
against them.  The mirror of a descriptor, by which the tests check the
paper's duality of the pcs and pds rules.  The monomial valuation at a
value alpha, and the configuration of a prefix together with X, by which
the acceptance criteria check v_E and the limit reading."""

from __future__ import annotations

from typing import Any, Iterable, Optional

from pmsval.engine import FactoredRationalFunction
from pmsval.errors import IndeterminateError, InvariantError
from pmsval.groups import INFINITY, Value
from pmsval.jsonio import encode_exact, encode_group, encode_value
from pmsval.ranktree import rank_of_vE
from pmsval.sequences import (Algebraic, ConstantFrom, PcsType, PmsDescriptor,
                              PmsKind, StageChain, Transcendental,
                              UltrametricConfiguration, pattern_distance)


def encode_chain(chain: StageChain, sign: int) -> list:
    out: list = []
    for e in chain.constants:
        out.append({"const": {"v": encode_exact(e.value), "from": e.stage}})
    bound: Any = "unbounded"
    if chain.bound is not None:
        key = "in_group" if chain.bound_in_group else "not_in_group"
        bound = {key: encode_exact(chain.bound)}
    out.append({"terminal": {"dir": "inc" if sign > 0 else "dec",
                             "bound": bound}})
    return out


def encode_descriptor(E: PmsDescriptor) -> dict:
    out: dict = {"kind": E.kind.value, "group": encode_group(E.group)}
    if E.chain is not None:
        out["chain"] = encode_chain(E.chain, E.sign)
    if E.pcts_delta is not None:
        out["pcts_delta"] = encode_value(E.pcts_delta)
    if E.pcs_type is not None:
        out["pcs_type"] = ("transcendental" if isinstance(E.pcs_type, Transcendental)
                           else {"algebraic": {"deg": E.pcs_type.degree}})
    if E.prefix is not None:
        out["prefix"] = [encode_value(v) for v in E.prefix]
    return out


def encode_function(phi: FactoredRationalFunction) -> dict:
    def enc(roots):
        return [{"limit": True, "mult": r.multiplicity} if r.is_limit else
                {"beta": encode_value(r.beta), "mult": r.multiplicity}
                for r in roots]

    return {"lead": encode_value(phi.lead_value), "num": enc(phi.num_roots),
            "den": enc(phi.den_roots)}


def mirror(E: PmsDescriptor, pcs_type: Optional[PcsType] = None) -> PmsDescriptor:
    """Negate every distance value: swaps the pcs and pds worlds and
    negates the cut."""
    if E.kind is PmsKind.PCTS:
        return PmsDescriptor(PmsKind.PCTS, E.group, pcts_delta=-E.pcts_delta,
                             prefix=tuple(-v for v in E.prefix) if E.prefix else None)
    old = E.chain
    chain = StageChain(tuple(ConstantFrom(-e.value, e.stage)
                             for e in old.constants),
                       None if old.bound is None else -old.bound,
                       old.bound_in_group)
    kind = PmsKind.PDS if E.kind is PmsKind.PCS else PmsKind.PCS
    if kind is PmsKind.PCS and pcs_type is None:
        pcs_type = E.pcs_type if E.pcs_type is not None else Algebraic(1)
    return PmsDescriptor(
        kind, E.group, chain=chain,
        pcs_type=pcs_type if kind is PmsKind.PCS else None,
        prefix=tuple(-v for v in E.prefix) if E.prefix else None)


def monomial_value(coeff_values: Iterable[tuple[int, Value]],
                   alpha: Value) -> Value:
    """min over i of v(c_i) + i*alpha, the monomial valuation at alpha."""
    best: Optional[Value] = None
    seen = False
    for i, vc in coeff_values:
        seen = True
        if vc.is_infinity:
            continue
        term = vc + alpha.scale(i) if i else vc
        if best is None or term < best:
            best = term
    if not seen:
        raise InvariantError("monomial valuation needs at least one coefficient")
    if best is None:
        # All coefficients vanish: the zero polynomial has value +infinity.
        return INFINITY
    return best


def induced_configuration(E: PmsDescriptor) -> UltrametricConfiguration:
    """Build the configuration of the prefix members together with X.

    The distance from X to z_nu is delta_nu for a pcs or pcts (X is a limit)
    and the constant alpha below every delta for a pds (X is not).
    """
    if E.prefix is None or len(E.prefix) < 2:
        raise IndeterminateError("need a prefix of length >= 2 to build the "
                                 "induced configuration")
    prefix = E.prefix
    m = len(prefix) + 1
    names = [f"z{i}" for i in range(m)]
    emb = lambda v: v
    if E.kind is PmsKind.PDS:
        result = rank_of_vE(E)
        emb, alpha = result.embed, result.alpha
    dist: dict[tuple[str, str], Value] = {}
    for i in range(m):
        for j in range(i + 1, m):
            dist[(names[i], names[j])] = emb(
                pattern_distance(E.kind, prefix, i, j))
    for nu in range(m):
        if E.kind is PmsKind.PCS:
            v = emb(prefix[nu]) if nu < len(prefix) else None
        elif E.kind is PmsKind.PCTS:
            v = E.pcts_delta
        else:
            v = alpha
        if v is not None:
            dist[(names[nu], "X")] = v
    return UltrametricConfiguration.build(names, ("X",), dist)
