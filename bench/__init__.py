"""The Kizzle day-loop benchmark (see ``bench/README.md``).

Stdlib only.  ``python3 bench/run.py --workload <name> ...`` is the one
command; everything here measures ``src/repro`` from outside, through its
public functions, and changes no file outside this directory.
"""
