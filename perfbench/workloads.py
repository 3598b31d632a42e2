"""The benchmark's workloads, as data.

Each workload derives its synthetic corpus spec and its labeling rules from
the run's seed, and fixes the meter config and the eval arguments the CLI
stages receive. This module imports only the standard library, so the
benchmark's parent process stays small and the peak RSS it reports for
each stage process is that process's own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

_UDP = 17
_TCP = 6
_S = 1_000_000  # microseconds per second


def _snapshot_sweep_spec(seed: int) -> dict:
    # Four classes that share packets 1-2 and diverge from packet 3 on. Each
    # class has a fast template and a slow one, so that every one of the 31
    # default triggers (FD up to 20 s) fires for some flows. Gaps stay below
    # the 60 s idle timeout and UDP never sends FIN, so every flow stays live
    # until the end of the trace. Every flow has at least 9 packets, so the
    # PF files for PC=2..8 hold every flow and no sweep cell is skipped.
    shapes = (
        ("BENIGN", "10.10.0.0/16", [40, 400], [1000, 30000]),
        ("PortScan", "10.20.0.0/16", [40, 120], [200, 2000]),
        ("DDoS", "10.30.0.0/16", [600, 1200], [1000, 30000]),
        ("Bot", "10.40.0.0/16", [200, 600], [20000, 60000]),
    )
    templates = []
    for label, pool, payload, iat in shapes:
        for flows, packets, iat_us in ((35, [9, 30], iat), (15, [24, 40], [200_000, 1_000_000])):
            templates.append(
                {
                    "label": label,
                    "flows": flows,
                    "packets": packets,
                    "payload": payload,
                    "iat_us": iat_us,
                    "client_ips": [pool],
                    "server_ips": ["192.168.50.0/28"],
                    "server_ports": [80, 443],
                    "protocol": _UDP,
                    "start_us": [0, 20 * _S],
                }
            )
    return {
        "name": "snapshot-sweep",
        "divergence_at": 3,
        "shared": {"payload": [40, 400], "iat_us": [1000, 30000]},
        "templates": templates,
    }


def _client_pool_rules(seed: int, spec: dict) -> dict:
    pools = {}  # label -> client pool, in template order
    for t in spec["templates"]:
        if t["label"] != "BENIGN":
            pools.setdefault(t["label"], (t["client_ips"], t["protocol"]))
    return {
        "default_label": "BENIGN",
        "rules": [
            {"label": label, "src_ips": ips, "protocol": protocol}
            for label, (ips, protocol) in pools.items()
        ],
    }


# ingest-dup is shaped like the CICIDS-2017 Wednesday capture: attack tools
# run one after another from one attacker against one victim port, each in
# its own time window, among benign traffic from a client subnet.
_ATTACKER = "172.16.0.1"
_VICTIM = "192.168.10.50"
_ATTACKS = ("DoS Slowloris", "DoS Slowhttptest", "DoS Hulk")
_WINDOW_S = 40  # attack flows start in the first 20 s of a window, last < 20 s


def _ingest_epoch(seed: int) -> int:
    # A seed-derived capture start, so the rule windows differ between seeds.
    return (1_499_000_000 + random.Random(seed).randrange(86_400)) * _S


def _ingest_dup_spec(seed: int) -> dict:
    epoch = _ingest_epoch(seed)
    common = {
        "packets": [100, 300],
        # iat >= 1 us keeps a flow's timestamps distinct, so reordering the
        # file cannot change the order reorder() restores within a flow.
        "iat_us": [1000, 60000],
        "protocol": _TCP,
        "tcp": {"handshake": True, "fin": True},
    }
    templates = [
        {
            "label": "BENIGN",
            "flows": 60,
            # Payloads of >= 16 random bytes keep real packets distinct for dedup.
            "payload": [16, 600],
            "client_ips": ["192.168.10.0/24"],
            "server_ips": ["192.168.10.50", "192.168.10.51", "8.8.0.0/24"],
            "server_ports": [80, 443, 8080],
            "start_us": [epoch, epoch + len(_ATTACKS) * _WINDOW_S * _S],
            **common,
        }
    ]
    for i, label in enumerate(_ATTACKS):
        start = epoch + i * _WINDOW_S * _S
        templates.append(
            {
                "label": label,
                "flows": 25,
                "payload": [16 + 200 * i, 400 + 200 * i],
                "client_ips": [_ATTACKER],
                "server_ips": [_VICTIM],
                "server_ports": [80],
                "start_us": [start, start + _WINDOW_S // 2 * _S],
                **common,
            }
        )
    return {"name": "ingest-dup", "templates": templates}


def _ingest_dup_rules(seed: int, spec: dict) -> dict:
    epoch = _ingest_epoch(seed)
    rules = []
    for i, label in enumerate(_ATTACKS):
        start = epoch + i * _WINDOW_S * _S
        rules.append(
            {
                "label": label,
                "src_ips": [_ATTACKER],
                "dst_ips": [_VICTIM],
                "dst_ports": [80],
                "protocol": _TCP,
                "window_us": [start, start + _WINDOW_S * _S - 1],
            }
        )
    return {"default_label": "BENIGN", "rules": rules}


@dataclass(frozen=True)
class Workload:
    name: str
    spec: Callable[[int], dict]  # seed -> synth spec
    rules: Callable[[int, dict], dict]  # seed, spec -> rule file
    meter_config: dict  # meter config file; {} is the default policy
    min_class_count: int
    pf_files: tuple[str, ...]  # the PF files handed to eval
    eval_flags: tuple[str, ...]
    cells: int  # rows of results.csv: PF files x scenarios x tasks
    perturb: bool = False  # inject in-window duplicates and local reordering


WORKLOADS = {
    w.name: w
    for w in (
        # The default 31 triggers (19 PC, 12 FD) over flows that all stay
        # live: snapshot export, build_pf and the PF CSV write and read-back
        # dominate the meter stage. Eval sweeps 7 PF files with both tasks,
        # 3 scenarios and 10 trees, so 42 forests: training dominates it.
        Workload(
            name="snapshot-sweep",
            spec=_snapshot_sweep_spec,
            rules=_client_pool_rules,
            meter_config={},
            min_class_count=30,
            pf_files=tuple(f"pf_pc_{n}.csv" for n in range(2, 9)),
            eval_flags=("--task", "both", "--trees", "10"),
            cells=42,
        ),
        # Long TCP flows that end on FIN, 5% in-window duplicates, local
        # reordering, one PC trigger: trace I/O and the meter's packet path
        # dominate, with few flows live at a time. Snapshot export and the
        # forest are bypassed: eval is one cell.
        Workload(
            name="ingest-dup",
            spec=_ingest_dup_spec,
            rules=_ingest_dup_rules,
            meter_config={"pc_triggers": [2], "fd_triggers_ms": []},
            min_class_count=20,
            pf_files=("pf_pc_2.csv",),
            eval_flags=("--task", "binary", "--scenario", "PF_PF", "--trees", "2"),
            cells=1,
            perturb=True,
        ),
    )
}


def scaled_spec(workload: Workload, seed: int, scale: float) -> dict:
    """The workload's spec with every template's flow count scaled.

    Each template is then split into one-flow templates whose packet counts
    are spread evenly over its range. The seed still draws each flow's
    addresses, start, payloads and gaps, but no longer its packet count, so
    every seed's trace holds the same number of packets: otherwise stage
    times and peak RSS would differ from seed to seed by the size of the
    input as well as by the program's speed.
    """
    spec = workload.spec(seed)
    templates = []
    for t in spec["templates"]:
        flows = max(1, round(t["flows"] * scale))
        lo, hi = t["packets"]
        for i in range(flows):
            n = lo + (hi - lo) * (2 * i + 1) // (2 * flows)
            templates.append({**t, "flows": 1, "packets": [n, n]})
    spec["templates"] = templates
    return spec


def scaled_min_class_count(workload: Workload, scale: float) -> int:
    return max(1, round(workload.min_class_count * scale))
