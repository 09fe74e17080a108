"""Per-operation correctness gate.

An operation (one input complex carried to certified answers) fails when a
status is not exact (not-coverable is the expected tc answer for a
disconnected input), a value differs from the pinned one, scat > TC, TC = 0
or scat = 0 disagrees with "the core is one vertex", or verify_certificate
rejects a certificate.  The core test is this file's own dominated-vertex
loop over label sets; it shares no code with the library's collapse module.
"""

from __future__ import annotations

from workloads import Case, maximal_facets


def core_is_one_vertex(facets) -> bool:
    """Delete dominated vertices (every facet with v also holds u) to a fixed point."""
    fs = maximal_facets(facets)
    while True:
        verts = set().union(*fs)
        if len(verts) == 1:
            return True
        for v in sorted(verts):
            star = [f for f in fs if v in f]
            common = frozenset.intersection(*star) - {v}
            if common:
                fs = maximal_facets(f - {v} for f in fs)
                break
        else:
            return False


def facets_of_text(text: str) -> list[frozenset[str]]:
    return [frozenset(line.split()) for line in text.splitlines() if line.strip()]


def check_operation(case: Case, tc_result, scat_result, verdicts) -> list[str]:
    """Reasons the operation failed; empty when every answer is correct.

    tc_result is None when the workload skips tc.  verdicts holds one
    (kind, accepted, messages) triple per emitted certificate.
    """
    problems = []
    collapsible = core_is_one_vertex(facets_of_text(case.text))
    tc_value = None
    if tc_result is not None:
        if case.expect_tc is None:
            if tc_result.status.value != "not-coverable":
                problems.append(f"tc status {tc_result.status.value}, expected not-coverable")
        elif tc_result.status.value != "exact":
            problems.append(f"tc status {tc_result.status.value}, expected exact")
        else:
            tc_value = tc_result.value
            if tc_value != case.expect_tc:
                problems.append(f"tc = {tc_value}, pinned {case.expect_tc}")
            if (tc_value == 0) != collapsible:
                problems.append(f"tc = {tc_value} but core-is-one-vertex is {collapsible}")
    if scat_result.status.value != "exact":
        problems.append(f"scat status {scat_result.status.value}, expected exact")
    else:
        if scat_result.value != case.expect_scat:
            problems.append(f"scat = {scat_result.value}, pinned {case.expect_scat}")
        if (scat_result.value == 0) != collapsible:
            problems.append(f"scat = {scat_result.value} but core-is-one-vertex is {collapsible}")
        if tc_value is not None and scat_result.value > tc_value:
            problems.append(f"scat = {scat_result.value} > tc = {tc_value}")
    for kind, accepted, messages in verdicts:
        if not accepted:
            problems.append(f"{kind} certificate rejected: {'; '.join(messages)}")
    return problems
