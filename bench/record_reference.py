"""Record the reference outputs the figures and cli workloads check against.

    python3 bench/record_reference.py

Run it at the commit whose output is the reference: it renders every
figure any seed can draw, runs the CLI's SVG commands, and writes the
sha256 of each to bench/reference.json.
"""
from __future__ import annotations

import hashlib
import json

import run
import workloads


def main():
    lib = run.load_library()
    figures = {}
    for kind, payload in workloads.figure_pool():
        svg = lib.render.render(workloads.render_spec(lib, kind, payload))
        figures[workloads.figure_label(kind, payload)] = hashlib.sha256(svg.encode()).hexdigest()
    cli = {}
    for argv, text, _part in workloads.README_COMMANDS:
        if text is None:
            proc = workloads.run_cli(run.ROOT, argv)
            proc.check_returncode()
            cli[" ".join(argv)] = hashlib.sha256(proc.stdout).hexdigest()
    path = workloads.HERE / "reference.json"
    path.write_text(json.dumps({"figures": figures, "cli": cli}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(figures)} figure and {len(cli)} cli hashes to {path.name}")


if __name__ == "__main__":
    main()
