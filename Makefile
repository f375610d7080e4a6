# Convenience targets; the build itself is plain dune.

.PHONY: all build test check bench experiments results clean clean-cache

all: build

build:
	dune build

test: build
	dune runtest

# The full gate: build, test suite, and a parallel smoke run of the
# experiment driver (2 worker domains, default traced engine).
check: build
	dune runtest
	dune exec bin/tagsim_cli.exe -- experiments --only table3 --jobs 2

bench: build
	dune exec bench/main.exe

experiments: build
	dune exec bin/tagsim_cli.exe -- experiments --jobs 0

# Refresh the committed machine-readable reproduction (one planner
# fan-out over every artifact).  CI regenerates it and fails on drift;
# run this and commit the result when a cost-model change is intended.
results: build
	dune exec bin/tagsim_cli.exe -- experiments --jobs 0 --json RESULTS.json > /dev/null

clean:
	dune clean

# Wipe the persistent measurement cache.
clean-cache:
	rm -rf _tagsim_cache
