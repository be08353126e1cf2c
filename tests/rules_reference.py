"""The eager §4.2 rule generator, kept as a test reference.

The library generates rules by a streamed frontier sweep
(:func:`repro.tradeoff.rules.stream_rules_from_pmtds`); this is the
product it replaced, read by ``test_rule_selection.py`` (the stream
equals it) and ``test_joint_flow.py`` (its raw product's size).
"""

from itertools import product
from typing import List, Sequence

from repro.decomposition.pmtd import PMTD, S_VIEW
from repro.tradeoff.rules import TwoPhaseRule


def rules_from_pmtds_eager(pmtds: Sequence[PMTD],
                           reduce_rules: bool = True) -> List[TwoPhaseRule]:
    """§4.2's rules as the full cartesian product of the PMTDs' views.

    Exponential in the PMTD count: the oracle the property tests diff
    :func:`~repro.tradeoff.rules.stream_rules_from_pmtds` against, and
    with ``reduce_rules=False`` the raw (deduplicated) product.
    """
    if not pmtds:
        raise ValueError("need at least one PMTD")
    choices = [p.ordered_views() for p in pmtds]
    raw: List[TwoPhaseRule] = []
    seen = set()
    for combo in product(*choices):
        s_targets = [v.variables for v in combo if v.kind == S_VIEW]
        t_targets = [v.variables for v in combo if v.kind != S_VIEW]
        if reduce_rules:
            rule = TwoPhaseRule.reduced(s_targets, t_targets)
        else:
            rule = TwoPhaseRule(frozenset(s_targets), frozenset(t_targets))
        key = (rule.s_targets, rule.t_targets)
        if key not in seen:
            seen.add(key)
            raw.append(rule)
    if not reduce_rules:
        return raw
    # keep subset-minimal rules only
    kept: List[TwoPhaseRule] = []
    for rule in raw:
        if not any(other is not rule and rule.no_easier_than(other)
                   and (other.s_targets, other.t_targets)
                   != (rule.s_targets, rule.t_targets)
                   for other in raw):
            kept.append(rule)
    return kept
