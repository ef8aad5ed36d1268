.PHONY: all build check test bench bench-json bench-compare serve-bench serve-trace-demo crash-demo trace-demo observer-parity fuzz-smoke fuzz prove-smoke prove loc clean

all: build

build:
	dune build

check: build
	dune runtest

test: check

# Full experiment suite (figures + tables + Bechamel wall-clock).
bench:
	dune exec bench/main.exe

# Emulator/rewriter/verifier throughput snapshot for perf tracking.
# Compare against BENCH_baseline.json (pre-overhaul emulator).
bench-json:
	dune exec bench/main.exe -- --quick --json BENCH_emulator.json

# Regression gate: rerun the emulator samples and compare insns/s
# against the committed baseline; exits nonzero on a >10% slowdown.
bench-compare:
	dune exec bench/main.exe -- --quick --compare BENCH_emulator.json

# Library-serving benchmark: replay a seeded request stream through a
# pool of warm sandboxed-library instances and commit the lfi-serve/v3
# report plus the lfi-snap/v2 snapshot stream; --suite appends the
# multi-tenant scale runs (open + closed loop at 256 slots / 4
# tenants, the knee sweep, the measured yield_to handoff cost) and
# writes the knee-sweep artifact. The stream and every number in all
# three files are a pure function of the seed, so they are
# byte-stable; CI re-runs this and diffs them.
serve-bench:
	dune exec bin/lfi_serve.exe -- --workload xzbox --requests 1000 \
	  --pool 4 --seed 1 --json BENCH_serve.json \
	  --snapshot=BENCH_serve_snap.jsonl --snapshot-every 250 \
	  --suite --knee-json BENCH_serve_knee.json

# Serving observability demo: serve the slowbox workload (whose rare
# `grind` export deliberately blows its latency SLO), writing a
# Perfetto trace with one track per pool slot and one slice per
# request phase, plus a snapshot stream for lfi_top.
serve-trace-demo:
	dune exec bin/lfi_serve.exe -- --workload slowbox --requests 400 \
	  --pool 4 --seed 7 --trace serve_trace.json \
	  --snapshot=serve_snap.jsonl --snapshot-every 50 --json /dev/null
	@echo "wrote serve_trace.json (open in https://ui.perfetto.dev)"
	@echo "view the run: dune exec bin/lfi_top.exe -- serve_snap.jsonl --replay"

# Deliberately crash the `crashy` workload (wild read into the guard
# region) and emit the postmortem crash report: text on stderr, JSON
# in postmortem_crash.json. The kill is the point, so tolerate it.
crash-demo:
	dune exec bin/lfi_run.exe -- --workload crashy \
	  --postmortem=postmortem_crash.json || true
	@echo "wrote postmortem_crash.json"

# Perfetto-loadable Chrome trace of a coremark run (plus a metrics
# snapshot). Coremark exits with its checksum, so tolerate exit != 0.
trace-demo:
	dune exec bin/lfi_run.exe -- --workload coremark \
	  --trace trace_coremark.json --metrics metrics_coremark.json || true
	@echo "wrote trace_coremark.json (open in https://ui.perfetto.dev)"

# Observers must not depend on the dispatch mode: write the per-site
# overhead report of mcf (runs to exit) and of crashy (faults mid-block)
# with superblock dispatch off and on, and require byte-identical
# files.  Both workloads exit nonzero by design, so only a missing or
# differing report fails the target.
observer-parity:
	dune build bin/lfi_run.exe
	mkdir -p observer_parity
	for w in mcf crashy; do \
	  for b in 0 1; do \
	    LFI_SUPERBLOCKS=$$b dune exec bin/lfi_run.exe -- --workload $$w \
	      --overhead=observer_parity/$$w.superblocks$$b.json > /dev/null || true; \
	  done; \
	  cmp observer_parity/$$w.superblocks0.json \
	    observer_parity/$$w.superblocks1.json || exit 1; \
	done
	@echo "overhead reports identical across dispatch modes"

# Fixed-seed differential fuzzing smoke: all three engines, >=500
# cases each, deterministic, plus the weakened-verifier oracle demo.
# Zero failures expected; finishes in well under a minute.
fuzz-smoke:
	dune exec bin/lfi_fuzz.exe -- all --seed 0 --count 500 --minic 40
	dune exec bin/lfi_fuzz.exe -- --demo-weakened

# Symbolic soundness gate: every instruction the verifier accepts
# (smoke strata) must carry a symbolic proof that it preserves the
# sandbox invariant — zero holes expected — and every deliberate
# verifier weakening must surface a hole the escape oracle confirms.
# Deterministic and fast; runs on every push.
prove-smoke:
	dune exec bin/lfi_prove.exe
	dune exec bin/lfi_prove.exe -- --demo-weakened

# Full per-instruction enumeration (nightly): ~5M candidate encodings
# across all strata, still zero holes expected; writes the byte-stable
# lfi-prove/v1 report.
prove:
	dune exec bin/lfi_prove.exe -- --full --json PROVE_full.json

# Long fuzzing run (nightly): a different seed per day, large counts.
# Minimized repros for any failure land in test/corpus/repro_*.s and
# replay under `dune runtest` from then on.
FUZZ_SEED ?= $(shell date +%Y%m%d)
fuzz:
	dune exec bin/lfi_fuzz.exe -- all --seed $(FUZZ_SEED) --count 20000 --minic 400

# Lines of OCaml in lib/, bin/ and bench/ (tracked files): the count
# that simplicity changes cite.
loc:
	@cat $$(git ls-files 'lib/*.ml' 'bin/*.ml' 'bench/*.ml') | wc -l

clean:
	dune clean
