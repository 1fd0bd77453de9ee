#!/usr/bin/env python3
"""Holds N idle keep-alive connections open against a usi server.

Used by the CI smoke job to prove that parked connections do not occupy
workers: the helper opens the connections (never sending a byte — the
server parks each socket in its epoll set on accept), touches a ready
file so the calling shell knows the connections are up, then sleeps
until killed. Assertions (active query still answered, /metrics gauges)
run from the shell while this process holds the sockets.

Usage: idle_conns.py HOST PORT COUNT READY_FILE
"""

import socket
import sys
import time


def main() -> None:
    host, port, count, ready_file = (
        sys.argv[1],
        int(sys.argv[2]),
        int(sys.argv[3]),
        sys.argv[4],
    )
    conns = []
    for i in range(count):
        for attempt in range(50):
            try:
                conns.append(socket.create_connection((host, port), timeout=5))
                break
            except OSError as e:
                # the connect burst can outrun the accept loop; retry
                if attempt == 49:
                    raise SystemExit(f"connection {i} failed after retries: {e}")
                time.sleep(0.1)
    with open(ready_file, "w") as f:
        f.write(f"{len(conns)}\n")
    print(f"holding {len(conns)} idle connections", flush=True)
    # hold the sockets until the caller kills us
    time.sleep(3600)


if __name__ == "__main__":
    main()
