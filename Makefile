# Convenience wrappers over dune; `make smoke` is the CI fast path.

.PHONY: all build test smoke perf-smoke chaos-smoke drift-smoke yield-smoke sketch-smoke recover-smoke lint tsan-smoke bench doc clean

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

# Project static analysis: one tools/lint/pathsel-lint run does the
# syntactic pass over lib/, bin/ and bench/ and the whole-program
# typedtree pass over lib/'s .cmt files (race/atomics discipline,
# blocking reachability, fd-leak tracking). Non-zero exit on any
# unsuppressed error-severity diagnostic. Also attached to
# `dune runtest`, so tier-1 enforces it.
lint:
	dune build @lint

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
