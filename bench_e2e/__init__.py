"""End-to-end host-time benchmark for the ``repro`` package.

``python3 -m bench_e2e.run`` is the one command; see ``README.md`` in
this directory for the workloads, the metrics and how to read them.
Everything here times the program from outside ``src/``: the traced
pass wraps public callables for its own duration and restores them.
"""
