#!/usr/bin/env python3
"""A CCTL-style collaboration system with session churn.

The paper's second motivating application is CCTL, "a group
communication based collaboration system that manages several groups on
behalf of the same application": every document a team works on gets its
own group (membership awareness, chat, shared cursors), and users open
and close documents constantly.

Six users collaborate on documents in two teams.  Each document session
is one light-weight group; sessions come and go (churn), and the
dynamic service keeps re-balancing mappings — sharing heavy-weight
machinery per team while sessions churn on top.

Run:  python examples/collaboration.py
"""

from repro.core import LwgListener
from repro.core.config import LwgConfig
from repro.sim import SECOND
from repro.workloads import Cluster

TEAMS = {
    "design": ["p0", "p1", "p2"],
    "backend": ["p3", "p4", "p5"],
}


class SessionLog(LwgListener):
    """Tracks membership and edits of one user's document session."""

    def __init__(self, node, doc):
        self.node = node
        self.doc = doc
        self.peers = ()
        self.edits = []

    def on_view(self, lwg, view):
        self.peers = view.members

    def on_data(self, lwg, src, payload, size):
        self.edits.append((src, payload))


def main() -> None:
    config = LwgConfig()
    config.policy_period_us = 2 * SECOND
    cluster = Cluster(num_processes=6, seed=99, lwg_config=config)
    logs = {}
    handles = {}

    def open_doc(doc, users):
        for user in users:
            log = SessionLog(user, doc)
            logs[(doc, user)] = log
            handles[(doc, user)] = cluster.services[user].join(doc, log)

    def close_doc(doc, users):
        for user in users:
            cluster.services[user].leave(doc)
            handles.pop((doc, user), None)

    print("== Morning: the design team opens three documents ==")
    for doc in ("spec.md", "mockup.fig", "notes.txt"):
        open_doc(doc, TEAMS["design"])
    cluster.run_for_seconds(10)
    hwgs = {handles[(d, "p0")].hwg for d in ("spec.md", "mockup.fig", "notes.txt")}
    print(f"  3 documents -> {len(hwgs)} heavy-weight group(s): {sorted(hwgs)}")

    print("\n== Backend team starts its own sessions ==")
    for doc in ("api.yaml", "schema.sql"):
        open_doc(doc, TEAMS["backend"])
    cluster.run_for_seconds(10)
    backend_hwgs = {handles[(d, "p3")].hwg for d in ("api.yaml", "schema.sql")}
    print(f"  2 documents -> {len(backend_hwgs)} heavy-weight group(s) "
          f"(disjoint from design: {not (hwgs & backend_hwgs)})")

    print("\n== Concurrent edits are totally ordered per document ==")
    handles[("spec.md", "p0")].send("insert §2 heading", size=48)
    handles[("spec.md", "p1")].send("fix typo in §1", size=48)
    handles[("spec.md", "p2")].send("add TODO", size=48)
    cluster.run_for_seconds(2)
    orders = {tuple(logs[("spec.md", u)].edits) for u in TEAMS["design"]}
    print(f"  every member saw the same edit order: {len(orders) == 1}")
    for src, edit in logs[("spec.md", "p0")].edits:
        print(f"    {src}: {edit}")

    print("\n== Churn: documents close, new ones open ==")
    close_doc("notes.txt", TEAMS["design"])
    close_doc("api.yaml", TEAMS["backend"])
    open_doc("retro.md", TEAMS["design"])
    open_doc("deploy.sh", TEAMS["backend"])
    cluster.run_for_seconds(10)
    live_docs = sorted({doc for doc, _ in handles})
    print(f"  live documents: {live_docs}")
    all_hwgs = {h.hwg for h in handles.values()}
    print(f"  all sessions still on {len(all_hwgs)} heavy-weight groups")

    print("\n== A cross-team standup document brings everyone together ==")
    open_doc("standup.md", TEAMS["design"] + TEAMS["backend"])
    cluster.run_for_seconds(12)
    standup = handles[("standup.md", "p0")]
    print(f"  standup.md members: {standup.view.members}")
    print(f"  mapped onto: {standup.hwg}")

    print("\n== p2 goes offline mid-session ==")
    cluster.crash("p2")
    cluster.run_for_seconds(3)
    for doc in ("spec.md", "standup.md"):
        peers = logs[(doc, "p0")].peers
        print(f"  {doc}: surviving members {peers}")

    stats = cluster.service("p0").stats
    print(
        f"\nDone. p0: {stats.lwg_views_installed} LWG views installed, "
        f"{stats.switches_committed} switches, "
        f"{stats.data_delivered} edits delivered."
    )


if __name__ == "__main__":
    main()
