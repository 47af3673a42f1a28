"""Time iptsim's set-up in a fresh process: the import, then loading a config.

Usage: python3 setup_probe.py <src dir> <config file>
Prints one JSON object: {"import_s": ..., "config_s": ..., "setup_s": ...}.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    import iptsim  # noqa: F401  (numpy and scipy come with it)
    t_import = time.perf_counter()
    from iptsim.config import load_config
    load_config(sys.argv[2])
    t_config = time.perf_counter()
    print(json.dumps({"import_s": t_import - T0, "config_s": t_config - t_import,
                      "setup_s": t_config - T0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
