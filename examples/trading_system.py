#!/usr/bin/env python3
"""A Swiss-Exchange-style trading system on light-weight groups.

The paper motivates the service with the Swiss Exchange Trading System:
"A different group is associated with a different data 'subject' and the
resulting system uses as many as 50 groups that may overlap."

This example runs 8 trading gateways subscribing to 24 instrument
subjects across 3 market segments (equities / bonds / derivatives).
Gateways subscribe to every subject of their segments, so subjects of a
segment have identical membership — exactly the sharing opportunity the
LWG service exploits.  We then publish quotes, report how few
heavy-weight groups carry all 24 subjects, and fail over a gateway.

Run:  python examples/trading_system.py
"""

from collections import defaultdict

from repro.core import LwgListener
from repro.workloads import Cluster
from repro.core.config import LwgConfig
from repro.sim import SECOND

SEGMENTS = {
    "equities": ["NOVN", "NESN", "ROG", "UBSG", "ZURN", "ABBN", "CSGN", "SREN"],
    "bonds": ["CH10Y", "CH30Y", "EUR5Y", "USD2Y", "USD10Y", "CORP-A", "CORP-B", "MUNI"],
    "derivatives": ["SMI-FUT", "SMI-OPT", "EURCHF-FUT", "GOLD-OPT",
                    "RATE-SWP", "FX-SWP", "VOL-IDX", "CDS-X"],
}

#: Which market segments each gateway subscribes to.
GATEWAY_SEGMENTS = {
    "p0": ["equities"],
    "p1": ["equities"],
    "p2": ["equities", "derivatives"],
    "p3": ["equities", "derivatives"],
    "p4": ["bonds"],
    "p5": ["bonds"],
    "p6": ["bonds", "derivatives"],
    "p7": ["bonds", "derivatives"],
}


class QuoteBook(LwgListener):
    """Keeps the latest quote per subject at one gateway."""

    def __init__(self, node):
        self.node = node
        self.last_quote = {}
        self.updates = 0

    def on_data(self, lwg, src, payload, size):
        subject, price = payload
        self.last_quote[subject] = price
        self.updates += 1


def main() -> None:
    config = LwgConfig()
    config.policy_period_us = 2 * SECOND
    cluster = Cluster(num_processes=8, seed=13, lwg_config=config)
    books = {node: QuoteBook(node) for node in cluster.process_ids}
    handles = {}

    print("== Subscribing 8 gateways to 24 instrument subjects ==")
    for segment, subjects in SEGMENTS.items():
        members = [n for n, segs in GATEWAY_SEGMENTS.items() if segment in segs]
        print(f"  {segment:12s}: {len(subjects)} subjects x {len(members)} gateways")
        for subject in subjects:
            for node in members:
                handles[(subject, node)] = cluster.services[node].join(
                    subject, books[node]
                )
    print("  converging (joins + mapping heuristics)...")
    cluster.run_for_seconds(25)

    print("\n== Mapping achieved by the dynamic service ==")
    hwg_subjects = defaultdict(set)
    for (subject, node), handle in handles.items():
        if handle.hwg:
            hwg_subjects[handle.hwg].add(subject)
    for hwg, subjects in sorted(hwg_subjects.items()):
        print(f"  {hwg}: {len(subjects)} subjects")
    total_subjects = sum(len(s) for s in SEGMENTS.values())
    print(
        f"  -> {total_subjects} user groups on {len(hwg_subjects)} heavy-weight "
        f"groups (vs {total_subjects} without the service)"
    )

    print("\n== Publishing a round of quotes on every subject ==")
    price = 100.0
    for segment, subjects in SEGMENTS.items():
        publisher = [n for n, s in GATEWAY_SEGMENTS.items() if segment in s][0]
        for subject in subjects:
            handles[(subject, publisher)].send((subject, round(price, 2)), size=64)
            price += 0.25
    cluster.run_for_seconds(2)
    for node in ("p0", "p2", "p4", "p6"):
        book = books[node]
        print(f"  {node}: {len(book.last_quote)} subjects quoted, "
              f"{book.updates} updates")

    print("\n== Gateway p3 fails; every equities+derivatives subject heals ==")
    affected = [s for seg in GATEWAY_SEGMENTS["p3"] for s in SEGMENTS[seg]]
    cluster.crash("p3")
    # Wait for the failure detector + view changes rather than a fixed
    # sleep: mid-reconfiguration a handle briefly has no installed view.
    cluster.run_until(
        lambda: all(
            handles[(subject, "p2")].view is not None
            and "p3" not in handles[(subject, "p2")].view.members
            for subject in affected
        ),
        timeout_us=30 * SECOND,
    )
    healthy = sum(
        1
        for subject in affected
        if "p3" not in handles[(subject, "p2")].view.members
    )
    print(f"  {healthy}/{len(affected)} affected subjects reconfigured without p3")

    print("\n== Quotes still flow after the failure ==")
    before = books["p0"].updates
    handles[("NOVN", "p0")].send(("NOVN", 101.5), size=64)
    cluster.run_for_seconds(1)
    print(f"  p0 received {books['p0'].updates - before} new update(s)")
    print("\nDone.")


if __name__ == "__main__":
    main()
