GO ?= go

.PHONY: build test vet race verify ci fmt-check race-smoke alloc-pins postmortem-smoke admission-smoke federation-smoke bench-smoke mutex-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-check the concurrent subsystems: observability fan-out, the live
# (RPC) job tracker, the parallel/cached planner (whose served plans are
# shared read-only across simulators, admission and trackers), the workflow
# model (one compiled form built at a racing first use), the scenario
# runner, the pooled arena simulator (its equivalence sweep crosses pool
# handoff), the queue backends (the randomized op-sequence property test), the admission
# front door (a locked pipeline shared across tracker shards), and the
# federation layer (single-threaded by design, but its equivalence sweeps
# cross the cluster pool-handoff paths). The live tracker runs at one CPU and
# at four, so its default shard count is raced at both widths.
race:
	$(GO) test -race ./internal/obs/... ./internal/planner/... ./internal/workflow/... ./internal/runner/... ./internal/cluster/... ./internal/dsl/... ./internal/admission/... ./internal/federation/...
	$(GO) test -race -cpu 1,4 ./internal/live/...

# Tier-1 gate plus static analysis and race checks — run before every PR.
verify: build test vet race

# Fails when any tracked Go file is not gofmt-clean, printing the diff.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; gofmt -d $$out; exit 1; fi

# Quick race pass over the hottest concurrent paths: shared-planner
# coalescing, runner streaming, and the deadline-health tracker fed by
# concurrent heartbeats on the referee and the sharded tracker (plus the introspection
# server and the heartbeat zero-alloc pin that guards the disabled path).
race-smoke:
	$(GO) test -race -count=1 -run 'TestCoalescing|TestCoalesced|TestPlanCache|TestServedPlans|TestSharedPlans|TestLeaderPanic|TestRunEach|TestDelivery|TestFirstError' \
		./internal/planner/ ./internal/runner/
	$(GO) test -race -count=1 -run 'TestHealth|TestIntrospection|TestHeartbeatBareAllocs' \
		./internal/obs/ ./internal/live/

# Allocation-budget pins: the arena simulator's steady-state scenario
# budget (≤3 allocs end to end across both dispatch modes), the obs
# heartbeat zero-alloc contract, the queue-op pin (Best/Scheduled/
# Unscheduled at 0 allocs/op on a warm queue for the DSL and BST backends),
# the event queue's FIFO lane (PushOrdered + drain at 0 allocs once the
# ring is warm), the plan kernel's (a bound kernel answers a probe with 0
# allocations), and the planner's two (a cold capped typed plan averages at
# most 11 over the planner corpus; a warm cache hit allocates 0). Run
# without -race — the race runtime randomizes sync.Pool reuse and inflates
# allocation counts, so the pins skip themselves.
alloc-pins:
	$(GO) test -count=1 -run 'TestScenarioAllocs|TestHeartbeatBareAllocs' \
		./internal/cluster/ ./internal/obs/
	$(GO) test -count=1 -run 'TestQueueOpAllocs' ./internal/dsl/
	$(GO) test -count=1 -run 'TestAlwaysAdmitAllocs' ./internal/admission/
	$(GO) test -count=1 -run 'TestQueueOrderedAllocs' ./internal/simtime/
	$(GO) test -count=1 -run 'TestKernelProbeAllocs' ./internal/plan/
	$(GO) test -count=1 -run 'TestColdPlanAllocs|TestCacheHitAllocs' ./internal/planner/

# The CI gate: formatting, static analysis, the tier-1 suite, the
# concurrency race smoke, and the allocation pins.
ci: fmt-check vet test race-smoke alloc-pins

# Seeded forced-miss scenario through the full attribution pipeline: two
# feasible workflows contend for one map slot, at least one misses, and the
# test asserts the postmortem JSON is non-empty and schema-valid — naming the
# missed workflow, its first unmet F_i, and the critical-path stage.
postmortem-smoke:
	$(GO) test -count=1 -v -run 'TestPostmortemSmoke' ./cmd/wohasim/

# Seeded overload through the feasibility front door: four identical
# workflows swamp a 4-map/2-reduce cluster, so at least one is rejected, and
# the test asserts every refusal names its stage and counter-offers an
# achievable deadline while every admitted workflow still meets its own.
admission-smoke:
	$(GO) test -count=1 -v -run 'TestAdmissionSmoke' ./cmd/wohasim/

# Seeded federation determinism smoke: three member clusters under every
# router policy, run twice each, asserting byte-identical routing decisions
# and miss vectors — plus the single-member staleness-0 equivalence against a
# plain cluster.Sim run of the same workload.
federation-smoke:
	$(GO) test -count=1 -v -run 'TestFederationDeterminism|TestSingleClusterEquivalence' ./internal/federation/

# One-iteration pass over every benchmark: proves they still run without
# paying for stable timings.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Mutex-profile smoke over the live control plane: runs the sharded tests
# with contention profiling on, proving the profile path works and leaving
# live-mutex.prof for inspection (go tool pprof live.test live-mutex.prof).
mutex-smoke:
	$(GO) test -mutexprofile live-mutex.prof -run 'TestSharded' ./internal/live/
	@ls -l live-mutex.prof
