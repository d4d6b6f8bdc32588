GO ?= go

.PHONY: check vet build test race bench bench-snapshot audit trace-smoke migrate-smoke cluster-smoke tier-smoke obs-smoke spec-smoke

# The full pre-commit gate: everything CI runs.
check: vet build test race migrate-smoke cluster-smoke tier-smoke obs-smoke spec-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The concurrency-sensitive packages: the lock-free allocator, the
# parallel experiment runner, and the fleet coordinator, whose host
# groups write EPT state (populated bitmaps included) between barriers
# while the coordinator's scorer reads it at barriers.
race:
	$(GO) test -race ./internal/llfree ./internal/runner ./internal/ept ./internal/cluster

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# Benchmark trajectory: capture the hot-path microbenchmarks (EPT range
# ops, scheduler steady state, LLFree churn, batched charging) plus the
# Fig. 4 matrix throughput, write the snapshot to BENCH_OUT, and gate the
# dimensionless metrics (range-vs-per-frame speedups, allocs/op) against
# the latest checked-in BENCH_<n>.json — >10% regression fails. CI runs
# the short form and uploads BENCH_OUT as an artifact; to check in a new
# trajectory point, run with BENCH_OUT=BENCH_<n+1>.json on a quiet
# machine and commit the file. BENCH_FLAGS=-strict additionally gates
# absolute ns/op and runs/s (same-machine comparisons only).
BENCH_OUT ?= bench-snapshot.json
BENCH_FLAGS ?=
bench-snapshot:
	$(GO) run ./cmd/benchsnap $(BENCH_FLAGS) -compare -out $(BENCH_OUT)

# The live-migration smoke test: the three-strategy matrix at reduced
# scale with the two-host conservation auditor on, emitting both the
# result JSON and a Perfetto trace of the copy-all arm, then structurally
# validating the trace. CI uploads both files as artifacts. MIGRATE_JSON
# and MIGRATE_TRACE override the output paths.
MIGRATE_JSON ?= migrate-results.json
MIGRATE_TRACE ?= migrate-trace.json
migrate-smoke:
	$(GO) run ./cmd/migrate -churners 4 -cycles 4 -start 8 -audit \
		-json $(MIGRATE_JSON) -trace $(MIGRATE_TRACE)
	$(GO) run ./cmd/tracecheck $(MIGRATE_TRACE)

# The fleet smoke test: the 3-scenario x 2-scorer cluster matrix at one
# simulated day with the N-pool conservation auditor on, emitting the
# result JSON and a Perfetto trace of the first arm, then structurally
# validating the trace. CI uploads both files as artifacts. CLUSTER_JSON
# and CLUSTER_TRACE override the output paths.
CLUSTER_JSON ?= cluster-results.json
CLUSTER_TRACE ?= cluster-trace.json
cluster-smoke:
	$(GO) run ./cmd/cluster -run 60 -audit \
		-json $(CLUSTER_JSON) -trace $(CLUSTER_TRACE)
	$(GO) run ./cmd/tracecheck $(CLUSTER_TRACE)

# The tiered-swapping smoke test: the tier-choice matrix (inflate vs
# swap-per-backend, plus the two-host evacuation arms) with the
# cross-layer auditor on, emitting the result JSON. CI uploads it as an
# artifact. TIER_JSON overrides the output path.
TIER_JSON ?= tier-results.json
tier-smoke:
	$(GO) run ./cmd/broker -tiering -audit -json $(TIER_JSON)

# The observability smoke test: a 128-host x 8-VM cascading-evacuation
# fleet run with the obs pipeline attached, emitting the Prometheus text
# snapshot and the self-contained HTML dashboard, then structurally
# validating both (sorted parseable samples; single-file HTML with
# inline SVG only — no scripts, stylesheets, or external references).
# CI uploads the dashboard as an artifact — download OBS_PREFIX.html and
# open it in any browser. OBS_PREFIX overrides the output paths.
OBS_PREFIX ?= obs-report
obs-smoke:
	$(GO) run ./cmd/cluster -cascade -hosts 128 -vms-per-host 8 \
		-host-gib 3 -report $(OBS_PREFIX) -json $(OBS_PREFIX).json
	$(GO) run ./cmd/obscheck $(OBS_PREFIX).prom $(OBS_PREFIX).html

# The tracing smoke test: capture the quickstart walkthrough as a
# Chrome/Perfetto trace and structurally validate it (balanced nested
# spans, monotonic timestamps per track, known phases only). CI uploads
# the resulting trace.json as an artifact — download it and open at
# https://ui.perfetto.dev. TRACE_OUT overrides the output path.
TRACE_OUT ?= trace.json
trace-smoke:
	$(GO) run ./examples/quickstart -trace $(TRACE_OUT) -trace-summary
	$(GO) run ./cmd/tracecheck $(TRACE_OUT)

# The declarative-spec smoke test: validate every checked-in spec file
# through typed admission (and print the failure-ID catalogue), run the
# demo scenario with a mid-run checkpoint, restore from that checkpoint,
# and assert the two result JSONs are byte-identical — the
# checkpoint/restore guarantee, exercised end to end through the CLI.
# The saved checkpoint is itself re-validated (full in-memory restore +
# cross-layer audit) and uploaded by CI as an artifact. SPEC_PREFIX
# overrides the output paths.
SPEC_PREFIX ?= spec-smoke
spec-smoke:
	$(GO) run ./cmd/speccheck $(filter-out specs/fleet.json,$(wildcard specs/*.json))
	$(GO) run ./cmd/speccheck -hosts 12 specs/fleet.json
	$(GO) run ./cmd/speccheck -ids
	$(GO) run ./cmd/broker -spec specs/demo.json \
		-checkpoint $(SPEC_PREFIX).ckpt -checkpoint-at 4.075 \
		-json $(SPEC_PREFIX)-full.json
	$(GO) run ./cmd/speccheck -checkpoint $(SPEC_PREFIX).ckpt
	$(GO) run ./cmd/broker -restore $(SPEC_PREFIX).ckpt \
		-json $(SPEC_PREFIX)-restored.json
	cmp $(SPEC_PREFIX)-full.json $(SPEC_PREFIX)-restored.json
	$(GO) run ./cmd/cluster -spec specs/demo.json \
		-checkpoint $(SPEC_PREFIX)-fleet.ckpt -checkpoint-epoch 3
	$(GO) run ./cmd/cluster -restore $(SPEC_PREFIX)-fleet.ckpt -run 5

# The deep invariant gate: long state-machine fuzz runs against all the
# reference models, plus the paper-scale experiment drivers with the
# cross-layer auditor enabled. `make check` already runs the short
# versions; this scales them up (tune with AUDIT_FUZZ_OPS/AUDIT_FUZZ_SEEDS).
AUDIT_FUZZ_OPS ?= 3000
AUDIT_FUZZ_SEEDS ?= 8
audit:
	AUDIT_FUZZ_OPS=$(AUDIT_FUZZ_OPS) AUDIT_FUZZ_SEEDS=$(AUDIT_FUZZ_SEEDS) \
		$(GO) test -count=1 -timeout 60m ./internal/audit
	AUDIT_FULL=1 $(GO) test -count=1 -timeout 60m -run UnderAudit ./internal/workload
