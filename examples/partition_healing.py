#!/usr/bin/env python3
"""The paper's partition-healing walkthrough (Figures 3-4, Tables 3-4).

Recreates the exact situation of Figure 3 — two LWGs whose concurrent
views end up mapped onto *different* HWGs in two partitions — and then
narrates the four reconciliation steps of Section 6 as they execute:

  step 1  global peer discovery   (naming reconciliation + callbacks)
  step 2  mapping reconciliation  (switch to the highest group id)
  step 3  local peer discovery    (concurrent views share one HWG)
  step 4  merge-views protocol    (one flush merges them all)

Run:  python examples/partition_healing.py
"""

from repro.sim import SECOND
from repro.workloads import build_partition_scenario


def print_naming_db(cluster, groups, label):
    print(f"\n  naming database ({label}):")
    for server_id, server in sorted(cluster.name_servers.items()):
        for group in groups:
            records = server.db.live_records(f"lwg:{group}")
            for record in records:
                print(f"    [{server_id}] {record}")
            if not records:
                print(f"    [{server_id}] lwg:{group}: (no mapping)")


def main() -> None:
    print("== Figure 3: building inconsistent mappings across a partition ==")
    print("   partition p  = {p0, p1, ns0};  partition p' = {p2, p3, ns1}")
    scenario = build_partition_scenario(num_groups=2, seed=42)
    cluster = scenario.cluster
    for group in scenario.groups:
        for side, node in (("p ", "p0"), ("p'", "p2")):
            handle = scenario.handles[(group, node)]
            print(
                f"   {side}: lwg:{group} view {handle.view.view_id} "
                f"{handle.view.members} -> {handle.hwg}"
            )
    print_naming_db(cluster, scenario.groups, "partitioned — each side knows its own")

    print("\n== The partition heals ==")
    interesting = {
        "naming": {"reconciled", "multiple_mappings"},
        "lwg": {"reconcile_switch", "switch_committed", "lwg_views_merged"},
    }
    log = []

    def listener(record):
        wanted = interesting.get(record.category)
        if wanted and record.event in wanted:
            log.append(record)

    cluster.env.tracer.subscribe(listener)
    cluster.heal()
    assert cluster.run_until(scenario.converged, timeout_us=60 * SECOND)
    cluster.run_for_seconds(3)

    step_names = {
        "reconciled": "step 1  naming databases reconciled",
        "multiple_mappings": "step 1  MULTIPLE-MAPPINGS callback",
        "reconcile_switch": "step 2  switch to highest-gid HWG",
        "switch_committed": "step 2  switch committed",
        "lwg_views_merged": "step 4  concurrent LWG views merged (one flush)",
    }
    print("\n== Section 6 reconciliation, as it happened ==")
    seen = set()
    for record in log:
        key = (record.event, record.fields.get("lwg"), record.fields.get("target"),
               record.fields.get("node") if record.event == "lwg_views_merged" else None)
        if key in seen:
            continue  # repeated gossip/retry noise
        seen.add(key)
        t_ms = record.time / 1000
        detail = {k: v for k, v in record.fields.items()
                  if k in ("lwg", "target", "from_hwg", "to_hwg", "merged", "lwgs")}
        print(f"   t={t_ms:9.1f}ms  {step_names[record.event]:45s} {detail}")

    print("\n== Table 4 (final stage): merged views, obsolete mappings GC'd ==")
    for group in scenario.groups:
        handle = scenario.handles[(group, "p0")]
        print(
            f"   lwg:{group}: view {handle.view.view_id} members {handle.view.members}"
        )
        print(f"            parents (pre-heal views): "
              f"{[str(p) for p in handle.view.parents]}")
    print_naming_db(cluster, scenario.groups, "converged — one mapping per LWG")

    print("\n== Post-heal traffic flows in the merged views ==")
    scenario.handles[("a", "p0")].send("hello, reunited group")
    cluster.run_for_seconds(1)
    delivered = sum(
        1
        for node in scenario.cluster.process_ids
        if any(p == "hello, reunited group"
               for _, p in scenario.probes[("a", node)].delivered)
    )
    print(f"   delivered at {delivered}/4 members")
    print("\nDone.")


if __name__ == "__main__":
    main()
