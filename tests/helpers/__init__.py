"""Test-only helpers: differential oracles, ablation baselines and workloads.

Modules under this package are *not* part of the library and nothing in
``src/`` imports them.  They hold the independent implementations the
differential tests check the engine against (``yannakakis_dict``,
``cover_game_naive``, ``chase_subinstances``, ``gyo_reference``, the
dict-of-sets GYO reduction the int-mask kernel must agree with edge for
edge, and ``elimination_reference``, the two Gaifman builders and the two
elimination loops that the one builder and the one greedy loop must agree
with order for order), the ablation-only join planners (``ablation_planners``) and shared
workload builders (``workloads``).  The tier-1 suite imports them as ``helpers.*`` because
pytest puts ``tests/`` on ``sys.path``; ``benchmarks/conftest.py`` does the
same for the benchmarks that time these baselines.
"""
