# Convenience wrappers over dune; `make smoke` is the CI fast path.

.PHONY: all build test smoke perf-smoke chaos-smoke drift-smoke yield-smoke sketch-smoke recover-smoke lint analyze tsan-smoke bench doc clean

all: build

build:
	dune build

test:
	dune runtest

# Fast CI gate: the robustness-layer test suites plus one faulted
# end-to-end selection on the committed demo circuit (see ./dune).
# Includes @lint via tools/lint's smoke alias.
smoke:
	dune build @smoke

# Project static analysis: tools/lint/pathsel-lint over lib/, bin/ and
# bench/. Non-zero exit on any unsuppressed error-severity diagnostic.
# Also attached to `dune runtest`, so tier-1 enforces it. @lint now
# includes @analyze, so `make lint` runs both engines.
lint:
	dune build @lint

# Whole-program typedtree analysis: tools/lint/pathsel-analyze over the
# .cmt files of lib/ (interprocedural race/atomics discipline, blocking
# reachability, fd-leak tracking). Needs a built tree for the .cmts;
# the driver skips with a message when they are missing.
analyze:
	dune build @analyze

# Run the parallel test suite under ThreadSanitizer where the
# toolchain supports it (OCaml >= 5.2 configured with --enable-tsan);
# elsewhere this is a documented no-op so CI recipes stay portable.
tsan-smoke:
	@if ocamlopt -config 2>/dev/null | grep -q '^tsan:.*true'; then \
	  echo "tsan-smoke: running parallel suites under ThreadSanitizer"; \
	  PATHSEL_CHECKS=1 dune exec --profile tsan test/test_main.exe -- test par; \
	else \
	  echo "tsan-smoke: this OCaml toolchain was built without ThreadSanitizer"; \
	  echo "            support (needs >= 5.2 with --enable-tsan); skipping."; \
	fi

bench:
	dune exec bench/main.exe

# One experiment, e.g. `make bench-e16`; E14-E20 write BENCH_eNN.json in
# the repo root. `bench/main.exe` lists the experiments.
bench-%:
	dune exec bench/main.exe -- $*

# Short CI gates, each one experiment's `--smoke` row in bench/main.ml
# (exit 0 or 1 on its verdict); README's gate table says what each checks.
perf-smoke:
	dune exec bench/main.exe -- e15 --smoke
chaos-smoke:
	dune exec bench/main.exe -- e16 --smoke
drift-smoke:
	dune exec bench/main.exe -- e17 --smoke
yield-smoke:
	dune exec bench/main.exe -- e18 --smoke
sketch-smoke:
	dune exec bench/main.exe -- e19 --smoke
recover-smoke:
	dune exec bench/main.exe -- e20 --smoke

doc:
	dune build @doc

clean:
	dune clean
