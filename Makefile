# Convenience wrappers around the repository's canonical commands.
# Everything runs from the repo root with the src/ layout on PYTHONPATH.

PYTEST := PYTHONPATH=src python -m pytest

.PHONY: test typecheck lint docs-check bench bench-smoke bench-enum bench-plans bench-backend bench-parallel bench-service bench-terms bench-semac bench-fpt bench-treewidth bench-repo bench-diff

## Tier-1 verify: the command every PR must keep green.
## REPRO_VERIFY=1 statically re-checks every plan the engines emit.
test:
	REPRO_VERIFY=1 $(PYTEST) -x -q

## Static types: strict on datamodel/ and hypergraph/, permissive elsewhere.
## Skips gracefully (exit 0 with a notice) where mypy is not installed.
typecheck:
	python scripts/run_typecheck.py

## Repository conventions, the 13 rules of scripts/lint_conventions.py:
## operator faces, mutable defaults, BENCH_SMOKE, batch-face registry,
## immutable operators, one scan path, radix-only kernels, probes counted
## per kernel call, environment knobs, used exports, used imports, hash
## beside equality, one collector pause.
lint:
	python scripts/lint_conventions.py

## Execute the fenced python blocks of README.md (docs can't rot).
docs-check:
	$(PYTEST) -q tests/test_readme_snippets.py

## Full benchmark suite (paper-artefact sizes; minutes).
bench:
	$(PYTEST) benchmarks/ -s

## Benchmark suite at smoke sizes (seconds; what tier-1 also exercises).
bench-smoke:
	BENCH_SMOKE=1 $(PYTEST) benchmarks/ -q

## Streaming enumeration: time-to-first-answer / delay vs materialising.
bench-enum:
	$(PYTEST) benchmarks/bench_enumeration.py -s

## Plan quality: greedy intermediates, legacy heuristic vs calibrated model.
bench-plans:
	$(PYTEST) benchmarks/bench_plan_quality.py -s

## Columnar engine vs the tuple-at-a-time oracle on the Yannakakis scaling workload.
bench-backend:
	$(PYTEST) benchmarks/bench_yannakakis_scaling.py -k backend -s

## Vectorised vs loop kernels on numpy storage (Yannakakis scaling workload).
bench-parallel:
	$(PYTEST) benchmarks/bench_parallel_scaling.py -s

## Service cache: delta merge vs rebuild, plan-cache hit rate.
bench-service:
	$(PYTEST) benchmarks/bench_service_cache.py -s

## Term layer: interned vs value-hashed terms (hash, answer sets, decode).
bench-terms:
	$(PYTEST) benchmarks/bench_terms.py -s

## Reformulation search: decision ms and candidates checked per shape,
## pruned against the unpruned reference (BENCH_semac_search.json).
bench-semac:
	$(PYTEST) benchmarks/bench_guarded_semac.py -k search -s

## Decomposition route: Example 1 curves and the 5-cycle row (largest
## intermediate, seconds), with host metadata (BENCH_fpt_evaluation.json).
bench-fpt:
	$(PYTEST) benchmarks/bench_fpt_evaluation.py -s

## Structural widths before and after the chase, exact vs heuristic
## treewidth, and the decomposition route's width and bag count on growing
## cycles, with host metadata (BENCH_treewidth_decompositions.json).
bench-treewidth:
	$(PYTEST) benchmarks/bench_treewidth_decompositions.py -s

## Repository benchmark: four workloads end to end (see bench/README.md).
bench-repo:
	python3 bench/run.py

## Regression gate between two bench/run.py results files; fails when
## any metric is worse.  Usage: make bench-diff BASE=a.json HEAD=b.json
bench-diff:
	python3 bench/compare.py $(BASE) $(HEAD)
