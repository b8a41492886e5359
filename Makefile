GO ?= go

.PHONY: build test vet race verify ci fmt-check race-smoke alloc-pins fuzz-smoke postmortem-smoke admission-smoke federation-smoke bench-smoke mutex-smoke examples-smoke cli-smoke

build:
	$(GO) build ./...

# The whole suite takes about 9 s of wall time on a 2-core host and its
# slowest package about 3 s, so a test binary still running after a minute
# is looping: it fails the gate then, not at go test's default 10 minutes.
test:
	$(GO) test -timeout 1m ./...

vet:
	$(GO) vet ./...

# Race-check the concurrent subsystems: observability fan-out, the live
# (RPC) job tracker, the shared planner (one plan table locked by many
# clients; its served plans are shared read-only across simulators,
# admission and trackers), the plan generator (pooled kernels, drawn by
# PlanAll's workers and admission at once), the workflow model (one
# compiled form built at a racing first use), the scenario
# runner, the pooled arena simulator (its equivalence sweep crosses pool
# handoff), the queue backends (the randomized op-sequence property test), the admission
# front door (a locked pipeline shared by concurrent callers), and the
# federation layer (single-threaded by design, but its equivalence sweeps
# cross the cluster pool-handoff paths). The live tracker runs at one CPU and
# at four, so its combining pipeline is raced with one P and with several.
race:
	$(GO) test -race ./internal/obs/... ./internal/plan/... ./internal/planner/... ./internal/workflow/... ./internal/runner/... ./internal/cluster/... ./internal/dsl/... ./internal/admission/... ./internal/federation/...
	$(GO) test -race -cpu 1,4 ./internal/live/...

# Tier-1 gate plus static analysis, race checks, a short fuzzing pass, a
# run of every example and of every wohasim path — run before every merge.
verify: build test vet race fuzz-smoke examples-smoke cli-smoke

# Each of the nine fuzz targets, fuzzed for FUZZTIME beyond its seed corpus
# (which the tier-1 suite already runs): the event queue against a sorting
# reference, the DSL queue's op programs, the plan kernel against the
# queue-based referee, the capped cap search against its oracle, the plan and
# workflow decoders, workflow compilation, the live tracker's heartbeat
# reports, and the raw bytes of its net/rpc connection. go test fuzzes one target of one package at a time. A failing
# input is written under the package's testdata/fuzz, where it becomes part
# of the seed corpus.
FUZZTIME ?= 3s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzQueueOrder$$' -fuzztime $(FUZZTIME) ./internal/simtime/
	$(GO) test -run '^$$' -fuzz '^FuzzQueueOps$$' -fuzztime $(FUZZTIME) ./internal/dsl/
	$(GO) test -run '^$$' -fuzz '^FuzzKernelMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/plan/
	$(GO) test -run '^$$' -fuzz '^FuzzCappedSearch$$' -fuzztime $(FUZZTIME) ./internal/plan/
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/plan/
	$(GO) test -run '^$$' -fuzz '^FuzzCompile$$' -fuzztime $(FUZZTIME) ./internal/workflow/
	$(GO) test -run '^$$' -fuzz '^FuzzParseXML$$' -fuzztime $(FUZZTIME) ./internal/workflow/
	$(GO) test -run '^$$' -fuzz '^FuzzHeartbeatReports$$' -fuzztime $(FUZZTIME) ./internal/live/
	$(GO) test -run '^$$' -fuzz '^FuzzFrameDecode$$' -fuzztime $(FUZZTIME) ./internal/live/

# Fails when any tracked Go file is not gofmt-clean, printing the diff.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; gofmt -d $$out; exit 1; fi

# Quick race pass over the hottest concurrent paths: shared-planner
# coalescing, runner streaming, and the deadline-health tracker fed by
# concurrent heartbeats on the referee and the master (plus the introspection
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
# the event queue's (PushLane + drain at 0 allocs once the rings are warm,
# on one owner and on eight interleaved owners; Push + drain at scattered
# instants at 0 allocs once the buckets are warm), the plan
# kernel's (a bound kernel answers a probe with 0 allocations), and the
# planner's two (a cold capped typed plan averages at
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

# Runs every program under examples/ at full size, discarding its output;
# the first non-zero exit fails the target. Each takes 1-3 s, compile
# included, on a 2-core host.
examples-smoke:
	@for d in examples/*/; do \
		echo "go run ./$$d"; \
		$(GO) run ./$$d > /dev/null || exit 1; \
	done

# Runs the built wohasim on fig7, instrumented, down each CLI path: plain,
# -replicas 2, -live (time-compressed), -clusters 2, -admission feasible and
# -postmortem. A non-zero exit fails the target, and so does a final scrape
# without a woha_queue_inserts_total sample; -clusters 2 -live must be
# refused. About 5 s, compile included, on a 2-core host.
cli-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/wohasim" ./cmd/wohasim && \
	for flags in "" "-replicas 2" "-live -time-scale 0.00005" "-clusters 2" "-admission feasible" "-postmortem $$tmp/pm.json"; do \
		echo "wohasim -workload fig7 -metrics-addr 127.0.0.1:0 $$flags"; \
		"$$tmp/wohasim" -workload fig7 -metrics-addr 127.0.0.1:0 $$flags > "$$tmp/out" || { cat "$$tmp/out"; exit 1; }; \
		grep -q '^woha_queue_inserts_total{' "$$tmp/out" || { echo "scrape lacks woha_queue_inserts_total"; exit 1; }; \
	done && \
	if "$$tmp/wohasim" -workload fig7 -clusters 2 -live > /dev/null 2>&1; then \
		echo "-clusters 2 -live was not refused"; exit 1; fi

# Mutex-profile smoke over the live control plane: runs the master's
# TestSharded* tests with contention profiling on, proving the profile path
# works and leaving live-mutex.prof for inspection (go tool pprof live.test
# live-mutex.prof).
mutex-smoke:
	$(GO) test -mutexprofile live-mutex.prof -run 'TestSharded' ./internal/live/
	@ls -l live-mutex.prof
