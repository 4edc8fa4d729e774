"""Reproducible report envelopes.

Every report file embeds a manifest describing the command, the group, the
parameters and the budget that produced it, plus a digest of the payload.
Nothing time- or host-dependent goes into the file: identical inputs must
produce byte-identical reports, which the acceptance suite checks. A
non-finite float raises ValueError instead of writing invalid JSON.
"""

from __future__ import annotations

import json
from typing import Optional

TOOL_VERSION = "0.1.0"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True, allow_nan=False)


def payload_digest(payload) -> str:
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True,
                      allow_nan=False)
    import hashlib  # here, so that importing the CLI does not load hashlib
    return "sha256:" + hashlib.sha256(body.encode("ascii")).hexdigest()


def build_manifest(command: str, group: Optional[dict], parameters: dict,
                   budget_limit: Optional[int], nodes_explored: int,
                   payload) -> dict:
    return {
        "command": command,
        "group": group,
        "parameters": parameters,
        "tool_version": TOOL_VERSION,
        "budget": {"limit": budget_limit, "nodes_explored": nodes_explored},
        "output_digest": payload_digest(payload),
    }


def render_json_report(command: str, group: Optional[dict], parameters: dict,
                       budget_limit: Optional[int], nodes_explored: int,
                       payload) -> str:
    manifest = build_manifest(command, group, parameters, budget_limit,
                              nodes_explored, payload)
    return canonical_json({"manifest": manifest, "report": payload}) + "\n"


def render_csv_table(command: str, group: Optional[dict], parameters: dict,
                     budget_limit: Optional[int], nodes_explored: int,
                     header: list, rows: list) -> str:
    payload = {"header": header, "rows": rows}
    manifest = build_manifest(command, group, parameters, budget_limit,
                              nodes_explored, payload)
    lines = ["# manifest: " + json.dumps(manifest, sort_keys=True, separators=(",", ":"),
                                         ensure_ascii=True, allow_nan=False)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(str(x) for x in row))
    return "\n".join(lines) + "\n"
