"""The child server process of ``online_hnsw_net``.

The harness's own launcher (not the CLI): loads the index the data
owner outsourced, wraps it in ``CloudServer(index)`` and a default
``serving_frontend()`` (32 / 2 ms / cache off), binds a ``NetServer``
with one tenant on an ephemeral port and prints ``READY <port>``.

It then blocks on stdin.  Any line — or end-of-file, which is what a
dying parent leaves behind — shuts it down; on the way out it prints one
JSON line with its peak resident set size, so memory moved into the
server shows in ``peak_rss_mb``.
"""

from __future__ import annotations

import json
import resource
import sys


def main(argv: "list[str]") -> int:
    """``e2e_child.py INDEX_PATH KEY_ID``; returns the exit code."""
    index_path, key_id = argv[0], int(argv[1])
    from repro.core.persistence import load_index
    from repro.core.roles import CloudServer
    from repro.net import NetServer, TenantConfig

    server = CloudServer(load_index(index_path))
    with server, server.serving_frontend() as frontend:
        with NetServer(frontend, [TenantConfig(key_id)], port=0) as net:
            print(f"READY {net.address[1]}", flush=True)
            sys.stdin.readline()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_mb": peak_kib / 1024.0}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
