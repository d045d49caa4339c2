"""The CLI's option surface, pinned (no new knobs, no moved defaults).

``SURFACE`` is ``(subcommand, option strings, default, choices)`` for
every argument of every subcommand, snapshotted from ``build_parser()``
at commit 008c204 — before the repeated ``--journal/--max-units``,
``--scale/--grid/--algorithm``, surrogate and fault-plan blocks became
shared ``parents=``. argparse hands a parent's Action objects to every
child parser, so a careless shared parent can silently give ``design``,
``chaos`` and ``fleet`` one common ``--grid`` default; this table is
the guard. A deliberate CLI change edits the table in the same commit.
"""

import argparse

from repro.cli import build_parser

ALGORITHMS = ("exhaustive", "greedy", "dynamic-programming")
PLANS = ("flaky", "hostile", "noisy", "none", "turbulent")
POOLS = ("serial", "thread", "process")

SURFACE = {
    ('calibrate', ('--cpu',), 0.5, None),
    ('calibrate', ('--io',), 0.5, None),
    ('calibrate', ('--load',), None, None),
    ('calibrate', ('--memory',), 0.5, None),
    ('calibrate', ('--save',), None, None),
    ('calibrate', ('--stats',), False, None),
    ('calibrate', ('--stats-json',), None, None),
    ('chaos', ('--algorithm',), 'greedy', ALGORITHMS),
    ('chaos', ('--boot-failure-rate',), None, None),
    ('chaos', ('--continuous',), False, None),
    ('chaos', ('--fine-factor',), 8, None),
    ('chaos', ('--grid',), 4, None),
    ('chaos', ('--hang-rate',), None, None),
    ('chaos', ('--host-degrade-rate',), None, None),
    ('chaos', ('--journal',), None, None),
    ('chaos', ('--max-evaluations',), None, None),
    ('chaos', ('--max-units',), None, None),
    ('chaos', ('--migration-failure-rate',), None, None),
    ('chaos', ('--outlier-rate',), None, None),
    ('chaos', ('--plan',), 'noisy', PLANS),
    ('chaos', ('--pool',), 'thread', POOLS),
    ('chaos', ('--scale',), 0.002, None),
    ('chaos', ('--seed',), None, None),
    ('chaos', ('--stats',), False, None),
    ('chaos', ('--stats-json',), None, None),
    ('chaos', ('--surrogate-budget',), 24, None),
    ('chaos', ('--surrogate-tol',), 0.05, None),
    ('chaos', ('--transient-rate',), None, None),
    ('chaos', ('--vm-crash-rate',), None, None),
    ('chaos', ('--watchdog-probes',), 0, None),
    ('chaos', ('--workers',), None, None),
    ('design', ('--algorithm',), 'exhaustive', ALGORITHMS),
    ('design', ('--co-tune',), False, None),
    ('design', ('--continuous',), False, None),
    ('design', ('--drift-threshold',), 0.15, None),
    ('design', ('--epochs',), 8, None),
    ('design', ('--fine-factor',), 8, None),
    ('design', ('--grid',), 4, None),
    ('design', ('--journal',), None, None),
    ('design', ('--load',), None, None),
    ('design', ('--max-rounds',), 6, None),
    ('design', ('--max-units',), None, None),
    ('design', ('--online',), False, None),
    ('design', ('--pool',), 'thread', POOLS),
    ('design', ('--recal-budget',), 12, None),
    ('design', ('--resources',), 'cpu', None),
    ('design', ('--save',), None, None),
    ('design', ('--scale',), 0.01, None),
    ('design', ('--stats',), False, None),
    ('design', ('--stats-json',), None, None),
    ('design', ('--storage-budget',), 64, None),
    ('design', ('--surrogate-budget',), 24, None),
    ('design', ('--surrogate-tol',), 0.05, None),
    ('design', ('--validate',), False, None),
    ('design', ('--workers',), None, None),
    ('experiment', ('--load',), None, None),
    ('experiment', ('--stats',), False, None),
    ('experiment', ('--stats-json',), None, None),
    ('experiment', ('name',), None, ('fig3', 'fig4', 'fig5')),
    ('explain', ('--cpu',), 0.5, None),
    ('explain', ('--io',), 0.5, None),
    ('explain', ('--load',), None, None),
    ('explain', ('--memory',), 0.5, None),
    ('explain', ('--query',), 'Q4', None),
    ('explain', ('--scale',), 0.01, None),
    ('explain', ('--stats',), False, None),
    ('explain', ('--stats-json',), None, None),
    ('fleet', ('--algorithm',), 'greedy', ALGORITHMS),
    ('fleet', ('--baseline',), False, None),
    ('fleet', ('--clusters',), 0, None),
    ('fleet', ('--grid',), 16, None),
    ('fleet', ('--hosts',), 12, None),
    ('fleet', ('--journal',), None, None),
    ('fleet', ('--max-units',), None, None),
    ('fleet', ('--pool',), 'thread', POOLS),
    ('fleet', ('--rounds',), 8, None),
    ('fleet', ('--seed',), 7, None),
    ('fleet', ('--stats',), False, None),
    ('fleet', ('--stats-json',), None, None),
    ('fleet', ('--workers',), None, None),
    ('fleet', ('--workloads',), 60, None),
    ('monitor', ('--algorithm',), 'greedy', ALGORITHMS),
    ('monitor', ('--drift-threshold',), 0.15, None),
    ('monitor', ('--epochs',), 8, None),
    ('monitor', ('--fine-factor',), 8, None),
    ('monitor', ('--grid',), 4, None),
    ('monitor', ('--host-degrade-factor',), None, None),
    ('monitor', ('--host-degrade-rate',), None, None),
    ('monitor', ('--journal',), None, None),
    ('monitor', ('--max-units',), None, None),
    ('monitor', ('--plan',), 'turbulent', PLANS),
    ('monitor', ('--pool',), 'thread', POOLS),
    ('monitor', ('--recal-budget',), 12, None),
    ('monitor', ('--scale',), 0.002, None),
    ('monitor', ('--seed',), None, None),
    ('monitor', ('--stats',), False, None),
    ('monitor', ('--stats-json',), None, None),
    ('monitor', ('--surrogate-budget',), 24, None),
    ('monitor', ('--surrogate-tol',), 0.05, None),
    ('monitor', ('--transient-rate',), None, None),
    ('monitor', ('--workers',), None, None),
    ('profile', ('--output-dir',), 'benchmarks/profiles', None),
    ('profile', ('--scenario',), 'all', ('all', 'calibration', 'design', 'workload')),
    ('profile', ('--smoke',), False, None),
    ('profile', ('--stats',), False, None),
    ('profile', ('--stats-json',), None, None),
    ('profile', ('--top',), 25, None),
    ('report', ('--algorithm',), 'greedy', ALGORITHMS),
    ('report', ('--grid',), 4, None),
    ('report', ('--json',), False, None),
    ('report', ('--load',), None, None),
    ('report', ('--scale',), 0.002, None),
    ('resume', ('--max-units',), None, None),
    ('resume', ('--pool',), 'thread', POOLS),
    ('resume', ('--stats',), False, None),
    ('resume', ('--stats-json',), None, None),
    ('resume', ('--workers',), None, None),
    ('resume', ('journal',), None, None),
    ('serve', ('--algorithm',), 'greedy', ALGORITHMS),
    ('serve', ('--design-every',), 25, None),
    ('serve', ('--fine-factor',), 8, None),
    ('serve', ('--grid',), 4, None),
    ('serve', ('--journal',), None, None),
    ('serve', ('--max-batch',), 16, None),
    ('serve', ('--max-queue',), 32, None),
    ('serve', ('--max-units',), None, None),
    ('serve', ('--plan',), 'flaky', PLANS),
    ('serve', ('--pool',), 'thread', POOLS),
    ('serve', ('--quota-capacity',), 8.0, None),
    ('serve', ('--quota-refill',), 4.0, None),
    ('serve', ('--rate',), 40.0, None),
    ('serve', ('--requests',), 120, None),
    ('serve', ('--scale',), 0.002, None),
    ('serve', ('--seed',), None, None),
    ('serve', ('--stats',), False, None),
    ('serve', ('--stats-json',), None, None),
    ('serve', ('--surrogate-budget',), 24, None),
    ('serve', ('--surrogate-tol',), 0.05, None),
    ('serve', ('--tenants',), 4, None),
    ('serve', ('--trace-seed',), 7, None),
    ('serve', ('--transient-rate',), None, None),
    ('serve', ('--workers',), None, None),
}


def parser_surface():
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {
        (name, tuple(action.option_strings) or (action.dest,),
         action.default,
         None if action.choices is None else tuple(action.choices))
        for name, sub in subparsers.choices.items()
        for action in sub._actions
        if not isinstance(action, argparse._HelpAction)
    }


def test_parser_surface_is_unchanged():
    surface = parser_surface()
    assert surface - SURFACE == set(), "options added or defaults moved"
    assert SURFACE - surface == set(), "options removed or defaults moved"


def test_parsed_defaults_match_the_declared_ones():
    """``action.default`` is what ``--help`` shows; what parsing yields
    must agree (parser-level ``set_defaults`` could diverge from it)."""
    required = {"experiment": ["fig3"], "resume": ["run.journal"]}
    parser = build_parser()
    for name in sorted({row[0] for row in SURFACE}):
        args = parser.parse_args([name, *required.get(name, [])])
        for command, options, default, _choices in SURFACE:
            if command == name and options[0].startswith("--"):
                dest = options[0][2:].replace("-", "_")
                assert getattr(args, dest) == default, (name, options)
