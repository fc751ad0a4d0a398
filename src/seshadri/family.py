"""Finite-family scans: the observed value set up to a threshold, its
containment in the candidate superset, semicontinuity across declared
specializations, and attainment of the family supremum.

The candidate superset is finite but can be huge (B^2 ratios for a
degree bound B), so it is held implicitly, by its multiplier, degree
bound and threshold: membership is an O(1) integer test, its size is a
closed-form count, and it is listed only when a caller iterates it.

The base of the family is a finite list of members with a declared
specialization partial order; all order-theoretic statements (values do
not increase under specialization, the supremum is attained) are checked
exactly on that finite structure.
"""

from __future__ import annotations

import csv
import io
import os
from typing import Dict, List, Optional, Tuple

from .bounds import CandidateSuperset, SupersetUnion
from .degree import DegreeBound, minimal_M
from .engine import Certification, SeshadriResult, compare, global_epsilon, sigma_local
from .models import (
    SurfaceModel,
    check_specialization_order,
    document_array,
    document_object,
    load_model_file,
    model_from_document,
    parse_document,
    unexpected,
)
from .values import (
    Rational,
    Record,
    SeshadriValue,
    as_int,
    as_rational,
    as_tuple,
    cut,
    format_rational,
    require_label,
    set_field,
    shown,
    without_collection,
)


class FamilyError(ValueError):
    pass


class Family(Record):
    """Members of one degree, as (label, model) pairs, with the declared
    (general, special) pairs of labels.  The members' order is checked by
    `check_specialization_order`, as a model's strata's is."""

    __slots__ = _fields = ("members", "degree", "member_specialization")
    _defaults = {"member_specialization": ()}

    def __post_init__(self):
        degree = as_int(self.degree, "degree", FamilyError)
        if degree < 1:
            raise FamilyError(f"degree must be positive, got {cut(degree)}")
        members = tuple(
            as_tuple(member, "a family member", FamilyError)
            for member in as_tuple(self.members, "members", FamilyError)
        )
        specialization = tuple(
            as_tuple(pair, "a member specialization", FamilyError)
            for pair in as_tuple(self.member_specialization, "member_specialization", FamilyError)
        )
        if not members:
            raise FamilyError("a family needs at least one member")
        for member in members:
            if len(member) != 2 or not isinstance(member[1], SurfaceModel):
                kinds = ", ".join(type(item).__name__ for item in member)
                raise FamilyError(f"a family member is a (label, SurfaceModel) pair, got ({kinds})")
        for label, model in members:
            require_label(label, "a family member", FamilyError)
            if model.rr.d != degree:
                raise FamilyError(
                    f"member {shown(label)} has degree {cut(model.rr.d)}, family degree is "
                    f"{cut(degree)}; the degree is constant across a family"
                )
        for pair in specialization:
            if len(pair) != 2:
                raise FamilyError(
                    "a member specialization is a (general, special) pair, "
                    f"got {shown(list(pair))}"
                )
            for label in pair:
                require_label(label, "a member specialization", FamilyError, "entry")
        check_specialization_order(
            [label for label, _ in members], specialization, FamilyError, "member", "members"
        )
        set_field(self, "members", members)
        set_field(self, "member_specialization", specialization)

    def member(self, label: str) -> SurfaceModel:
        for l, m in self.members:
            if l == label:
                return m
        raise FamilyError(f"no member {shown(label)}")


class Verdict(Record):
    __slots__ = _fields = (
        "kind", "context", "general", "special", "general_value", "special_value", "status"
    )

    @property
    def passed(self) -> bool:
        """The special value is proven not to exceed the general one."""
        return self.status == "pass"

    def to_document(self) -> dict:
        doc = {
            "kind": self.kind,
            "context": self.context,
            "general": self.general,
            "special": self.special,
            "general_value": self.general_value.serialize(),
            "special_value": self.special_value.serialize(),
            "passed": self.passed,
        }
        if self.status == "undetermined":
            doc["undetermined"] = True
        return doc


class FamilyScanReport(Record):
    # a row of epsilon_table: (member, stratum, result, degree bound at alpha)
    __slots__ = _fields = (
        "alpha", "degree", "sigma_family", "sigma_attained_at", "epsilon_table", "sigma_cap",
        "candidate_superset", "semicontinuity_verdicts", "jump_members", "uncertified",
    )

    def to_document(self) -> dict:
        return {
            "alpha": format_rational(self.alpha),
            "degree": self.degree,
            "sigma_family": self.sigma_family.serialize(),
            "sigma_attained_at": {
                "member": self.sigma_attained_at[0],
                "stratum": self.sigma_attained_at[1],
            },
            "epsilon_table": [
                {"member": m, "stratum": s, **res.to_document(bound)}
                for m, s, res, bound in self.epsilon_table
            ],
            "sigma_cap": [format_rational(q) for q in self.sigma_cap],
            "sigma_cap_size": len(self.sigma_cap),
            "candidate_supersets": [
                {"very_ample_multiplier": s.very_ample_multiplier, "B": s.B, "size": s.size}
                for s in self.candidate_superset.sets
            ],
            "semicontinuity_verdicts": [v.to_document() for v in self.semicontinuity_verdicts],
            "jump_members": list(self.jump_members),
            "uncertified": [{"member": m, "stratum": s} for m, s in self.uncertified],
        }

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["param_label", "stratum", "epsilon", "certification", "witness"])
        for member, stratum, res, _ in self.epsilon_table:
            writer.writerow(
                [
                    member,
                    stratum,
                    res.value.serialize(),
                    res.certification.value,
                    res.witness.label if res.witness else "",
                ]
            )
        return out.getvalue()

    def text_lines(self) -> List[str]:
        """The report as the lines of its text format."""
        lines = [
            f"sigma(family) = {self.sigma_family.serialize()} attained at "
            f"{self.sigma_attained_at[0]}/{self.sigma_attained_at[1]}",
            f"observed values <= {format_rational(self.alpha)}: "
            + (", ".join(format_rational(q) for q in self.sigma_cap) or "(none)")
            + f"  [{len(self.sigma_cap)} values]",
            "candidate superset: "
            + "; ".join(
                f"{s.size} ratios at v={s.very_ample_multiplier}, B={s.B}"
                for s in self.candidate_superset.sets
            ),
            "semicontinuity: " + _verdict_summary(self.semicontinuity_verdicts),
            "jump members: " + (", ".join(self.jump_members) or "(none)"),
        ]
        if self.uncertified:
            lines.append(
                "uncertified strata: " + ", ".join(f"{m}/{s}" for m, s in self.uncertified)
            )
        return lines


def _verdict_summary(verdicts) -> str:
    """The failed and the undetermined verdicts on one line, or "all pass"."""
    groups = []
    for status, heading in (("fail", "FAILURES"), ("undetermined", "UNDETERMINED")):
        pairs = [
            f"{v.kind} {v.general}->{v.special} in {v.context}"
            for v in verdicts
            if v.status == status
        ]
        if pairs:
            groups.append(f"{heading}: " + "; ".join(pairs))
    return " | ".join(groups) or "all pass"


def member_candidate_superset(model: SurfaceModel, alpha: Rational) -> CandidateSuperset:
    """Candidate ratios for one member at threshold alpha, as a
    CandidateSuperset of reduced (t, m) pairs, none of them listed: the
    set of its Riemann-Roch data and very-ampleness multiplier v, whose
    ratios are those of the v-th power divided back by v."""
    alpha = as_rational(alpha, "alpha", FamilyError)
    return CandidateSuperset.of(model.rr, model.very_ample_multiplier, alpha)


def semicontinuity_check(family: Family) -> List[Verdict]:
    """Exact order checks on declared specializations: no special member's
    global value, nor special stratum's value, exceeds a general one's.
    Each verdict is `compare` of the two results; only a member pair can
    fail, as a model's table rejects its own."""
    globals_by_member = {label: global_epsilon(model) for label, model in family.members}
    return _semicontinuity_verdicts(family, globals_by_member)


def _semicontinuity_verdicts(
    family: Family, globals_by_member: Dict[str, SeshadriResult]
) -> List[Verdict]:
    """semicontinuity_check's verdicts by `compare`, from each member's global result."""
    pairs = [("member", "family", *p, globals_by_member) for p in family.member_specialization]
    pairs += [
        ("stratum", label, general, s.label, model.stratum_table)
        for label, model in family.members
        for s in model.strata
        for general in s.specializes_from
    ]
    return [
        Verdict(
            kind, context, general, special, results[general].value, results[special].value,
            compare(results[special], results[general]),
        )
        for kind, context, general, special, results in pairs
    ]


def scan(family: Family, alpha: Rational) -> FamilyScanReport:
    """Full family report at threshold alpha < sqrt(d): per-member
    per-stratum values, the finite observed value set up to alpha with
    its candidate-superset containment, semicontinuity verdicts, the
    attained supremum, and members whose global value jumps below the
    largest global value of a general member.

    Each member's strata were evaluated once, as its model was built,
    into the stratum_table that every part of the report reads.  Each
    member bounds its own candidate superset; the walks of one multiplier
    at one alpha nest by B, so one CandidateSuperset per multiplier, of
    the largest B, covers them.  An observed value is contained iff one
    of those sets holds its reduced pair, an O(1) test each: nothing is
    listed.
    """
    alpha = as_rational(alpha, "alpha", FamilyError)
    ceiling = family.members[0][1].ceiling  # every member has the family's degree
    if alpha <= 0 or ceiling._cmp_ratio(alpha.numerator, alpha.denominator) <= 0:
        raise FamilyError(
            f"alpha must satisfy 0 < alpha^2 < d for a certified scan, got {cut(alpha)}"
        )

    rows: List[Tuple[str, str, SeshadriResult, DegreeBound]] = []
    uncertified: List[Tuple[str, str]] = []
    sigma_cap_set = set()
    largest = {}  # multiplier -> its CandidateSuperset of the largest B
    alpha_value = SeshadriValue.exact(alpha)
    members = sorted(family.members, key=lambda lm: lm[0])

    for label, model in members:
        candidates = member_candidate_superset(model, alpha)
        v = candidates.very_ample_multiplier
        if v not in largest or candidates.B > largest[v].B:
            largest[v] = candidates
        bound = minimal_M(model.rr, alpha)
        for stratum_label, res in sorted(model.stratum_table.items()):
            rows.append((label, stratum_label, res, bound))
            if res.certification is Certification.EXACT_CERTIFIED:
                if res.value <= alpha_value:
                    # below alpha < sqrt(d) every certified value is rational
                    sigma_cap_set.add(res.value.rational)
            else:
                uncertified.append((label, stratum_label))

    superset = SupersetUnion([largest[v] for v in sorted(largest)])

    sigma_cap = sorted(sigma_cap_set)
    missing = [q for q in sigma_cap if (q.numerator, q.denominator) not in superset]
    if missing:
        raise FamilyError(
            "observed values escape the candidate superset: "
            + ", ".join(format_rational(q) for q in missing)
        )

    # max keeps the first of equals, in label order
    top_label, top = max(
        ((label, sigma_local(model)) for label, model in members), key=lambda ls: ls[1].value
    )

    # each member's global result, once, for the jumps and the member
    # verdicts; a general member is never the special side of a pair, and
    # an acyclic order on a finite, non-empty set always has one
    globals_by_member = {label: global_epsilon(model) for label, model in family.members}
    specials = {special for _, special in family.member_specialization}
    reference = max(
        res.value for label, res in globals_by_member.items() if label not in specials
    )
    jump_members = tuple(
        label for label, _ in members if globals_by_member[label].value < reference
    )

    return FamilyScanReport(
        alpha=alpha,
        degree=family.degree,
        sigma_family=top.value,
        sigma_attained_at=(top_label, top.attained_at),
        epsilon_table=tuple(rows),
        sigma_cap=tuple(sigma_cap),
        candidate_superset=superset,
        semicontinuity_verdicts=tuple(_semicontinuity_verdicts(family, globals_by_member)),
        jump_members=jump_members,
        uncertified=tuple(uncertified),
    )


_FAMILY_KEYS = dict.fromkeys(("degree", "members"))
_MEMBER_KEYS = dict.fromkeys(("param_label", "model"))


@without_collection
def load_family(text: str, base_dir: Optional[str] = None) -> Family:
    """Parse a family document; member models are inline objects or paths
    to model files (resolved relative to base_dir).  As for a model, the
    loader checks keys and container kinds and `Family` checks the rest.
    An error in a member model names the member's label, and an inline
    member's schema violation gives its path in the family document."""
    doc = parse_document(text, FamilyError)
    document_object(doc, _FAMILY_KEYS, FamilyError, "$", optional=("member_specialization",))
    members = []
    for i, md in enumerate(document_array(doc["members"], FamilyError, "$.members")):
        document_object(md, _MEMBER_KEYS, FamilyError, "$.members", i)
        label, spec = md["param_label"], md["model"]
        if type(spec) not in (dict, str):
            want = "a model object or a file path"
            raise unexpected(FamilyError, f"$.members[{i}].model", want, spec)
        try:
            if type(spec) is str:
                path = spec if base_dir is None else os.path.join(base_dir, spec)
                model = load_model_file(path)
            else:
                model = model_from_document(spec, root=f"$.members[{i}].model")
        except (ValueError, OSError) as exc:
            raise FamilyError(f"member {shown(label)}: {exc}") from exc
        members.append((label, model))
    where = "$.member_specialization"
    pairs = document_array(doc.get("member_specialization", []), FamilyError, where)
    for i, pair in enumerate(pairs):
        document_array(pair, FamilyError, where, i)
    return Family(members=members, degree=doc["degree"], member_specialization=pairs)
