# Build/test entry points. `make ci` is the gate: vet and gofmt + the dlvet domain
# analyzers + full tests + the race-detector pass over the concurrent
# packages (the parallel explorer, the scheduler and the swarm worker
# pool), plus the swarm, fuzz, observability, checkpoint/resume,
# reduction A/B and serving smoke runs, the benchmark harness's tests and
# a one-iteration pass over every Go benchmark.

GO ?= go

.PHONY: build test vet lint lint-json lint-sarif race swarm-smoke fuzz-smoke obs-smoke checkpoint-smoke reduction-smoke serve-smoke admin-smoke bench-test bench-smoke ci bench

build:
	$(GO) build ./...

# The default run covers GOMAXPROCS = nproc; the -cpu 1,4 pass re-runs
# the concurrent packages fully interleaved on one P and oversubscribed
# on four, so worker-count determinism is exercised whatever the host's
# core count.
test:
	$(GO) test ./...
	$(GO) test -cpu 1,4 ./internal/explore/... ./internal/swarm/... ./internal/transport/...

# gofmt covers every Go file in the tree, the nested dlbench module and
# the analyzers' testdata included.
vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l cmd internal examples dlbench *.go)"

# Domain-specific static analysis: the eight dlvet analyzers enforce the
# paper's structural constraints (message-independence, the crashing
# property) and the engines' soundness invariants (fingerprint
# completeness, engine determinism, zero-cost disabled observability,
# Snapshot/Restore coverage, exact/canonical fingerprint parity, strict
# wire decoding), plus the stale-suppression audit (a rotted lint:ignore
# or fp:ignore line fails the run with bit 1024 — so `make ci` fails on
# stale suppressions). Exit status is the OR of the failing analyzers'
# bits, folded to a POSIX byte; see cmd/dlvet.
lint:
	$(GO) run ./cmd/dlvet

lint-json:
	$(GO) run ./cmd/dlvet -json

# SARIF 2.1.0 log for code-scanning consumers.
lint-sarif:
	$(GO) run ./cmd/dlvet -sarif dlvet.sarif

# The explorer's level workers and sharded seen-set, sim's schedulers,
# and the obs instruments (shared by all worker pools) are the concurrent
# code; their tests are written to be meaningful under the race detector
# (multi-worker searches, concurrent seen-set adds, parallel increments).
race:
	$(GO) test -race ./internal/explore/... ./internal/sim/... ./internal/swarm/... ./internal/obs/... ./internal/transport/...

# A fixed-seed conformance sweep (~5s): every registered protocol over its
# claimed channels and tolerated faults must produce zero violations, and
# the known-bad abp-stuck target must be caught, shrunk and replayable.
# Fixed seeds keep the run byte-reproducible; exit 1 from the abp-stuck
# invocation is the expected "bug found" status, so it is inverted.
swarm-smoke:
	$(GO) run ./cmd/swarm -seeds 40 -steps 200 -workers 8 > /dev/null
	! $(GO) run ./cmd/swarm -protocols abp-stuck -faults loss -seeds 10 -steps 150 -workers 8 > /dev/null 2>&1

# Short fuzz runs of the fuzz targets: catches panics and containment
# breaks introduced by spec/channel changes, and decoder panics or
# silent mis-resumes from corrupt checkpoint files, without a dedicated
# fuzz job.
fuzz-smoke:
	$(GO) test -run FuzzCheckersContainment -fuzz FuzzCheckersContainment -fuzztime 10s ./internal/spec/
	$(GO) test -run FuzzChannelInvariants -fuzz FuzzChannelInvariants -fuzztime 10s ./internal/channel/
	$(GO) test -run FuzzCheckpointDecode -fuzz FuzzCheckpointDecode -fuzztime 10s ./internal/explore/
	$(GO) test -run FuzzFrameDecode -fuzz FuzzFrameDecode -fuzztime 10s ./internal/transport/

# End-to-end observability smoke: run both instrumented binaries with
# -trace/-metrics on short workloads, then obsreport must validate and
# summarise each trace (it exits non-zero on any malformed JSONL line).
obs-smoke:
	$(GO) run ./cmd/explore -protocol abp -crash r -msgs 1 -depth 20 -workers 2 \
		-trace /tmp/obs-smoke-explore.jsonl -metrics /tmp/obs-smoke-explore-metrics.json > /dev/null || test $$? -eq 1
	$(GO) run ./cmd/swarm -protocols abp -faults loss -seeds 5 -steps 100 -workers 2 \
		-trace /tmp/obs-smoke-swarm.jsonl -metrics /tmp/obs-smoke-swarm-metrics.json > /dev/null
	$(GO) run ./cmd/obsreport -msc /tmp/obs-smoke-explore.jsonl > /dev/null
	$(GO) run ./cmd/obsreport /tmp/obs-smoke-swarm.jsonl > /dev/null
	rm -f /tmp/obs-smoke-explore.jsonl /tmp/obs-smoke-explore-metrics.json \
		/tmp/obs-smoke-swarm.jsonl /tmp/obs-smoke-swarm-metrics.json

# Kill/resume smoke, end to end through the real binary and real
# signals: run an exhaustive search with -checkpoint, SIGINT it
# mid-search (the distinct exit status 3 confirms the graceful stop and
# final checkpoint write), resume from the checkpoint file, and require
# the timing-free summary figures — state count, deepest path,
# exhausted flag and the certificate line — to match an uninterrupted
# baseline run exactly.
checkpoint-smoke:
	$(GO) build -o /tmp/ckpt-smoke-explore ./cmd/explore
	/tmp/ckpt-smoke-explore -protocol stenning -fifo=false -msgs 3 -depth 24 -workers 1 \
		> /tmp/ckpt-smoke-baseline.txt 2> /dev/null
	( /tmp/ckpt-smoke-explore -protocol stenning -fifo=false -msgs 3 -depth 24 -workers 1 \
		-checkpoint /tmp/ckpt-smoke.ckpt > /tmp/ckpt-smoke-interrupted.txt 2> /dev/null & \
	  pid=$$!; sleep 0.4; kill -INT $$pid; wait $$pid; test $$? -eq 3 )
	grep -q "interrupted at a level barrier — checkpoint written" /tmp/ckpt-smoke-interrupted.txt
	/tmp/ckpt-smoke-explore -protocol stenning -fifo=false -msgs 3 -depth 24 -workers 1 \
		-resume /tmp/ckpt-smoke.ckpt > /tmp/ckpt-smoke-resumed.txt 2> /dev/null
	grep -o "explored [0-9]* states" /tmp/ckpt-smoke-baseline.txt > /tmp/ckpt-smoke-want.txt
	grep -o "deepest path [0-9]*, exhausted=[a-z]*" /tmp/ckpt-smoke-baseline.txt >> /tmp/ckpt-smoke-want.txt
	tail -n 1 /tmp/ckpt-smoke-baseline.txt >> /tmp/ckpt-smoke-want.txt
	grep -o "explored [0-9]* states" /tmp/ckpt-smoke-resumed.txt > /tmp/ckpt-smoke-got.txt
	grep -o "deepest path [0-9]*, exhausted=[a-z]*" /tmp/ckpt-smoke-resumed.txt >> /tmp/ckpt-smoke-got.txt
	tail -n 1 /tmp/ckpt-smoke-resumed.txt >> /tmp/ckpt-smoke-got.txt
	cmp /tmp/ckpt-smoke-want.txt /tmp/ckpt-smoke-got.txt
	rm -f /tmp/ckpt-smoke-explore /tmp/ckpt-smoke.ckpt /tmp/ckpt-smoke-baseline.txt \
		/tmp/ckpt-smoke-interrupted.txt /tmp/ckpt-smoke-resumed.txt \
		/tmp/ckpt-smoke-want.txt /tmp/ckpt-smoke-got.txt

# Reduction A/B smoke through the real binary: the Stenning-over-C̄
# depth-24 workload with and without -symmetry must agree on everything
# the search certifies — deepest path, exhausted flag and the verdict
# line — while the reduced run explores strictly fewer states. This is
# the end-to-end twin of the soundness matrix in internal/explore, which
# also checks that partial-order reduction (always on) changes no state
# count.
reduction-smoke:
	$(GO) build -o /tmp/red-smoke-explore ./cmd/explore
	/tmp/red-smoke-explore -protocol stenning -fifo=false -msgs 3 -depth 24 -workers 1 \
		> /tmp/red-smoke-base.txt 2> /dev/null
	/tmp/red-smoke-explore -protocol stenning -fifo=false -msgs 3 -depth 24 -workers 1 \
		-symmetry > /tmp/red-smoke-reduced.txt 2> /dev/null
	grep -o "deepest path [0-9]*, exhausted=[a-z]*" /tmp/red-smoke-base.txt > /tmp/red-smoke-want.txt
	tail -n 1 /tmp/red-smoke-base.txt >> /tmp/red-smoke-want.txt
	grep -o "deepest path [0-9]*, exhausted=[a-z]*" /tmp/red-smoke-reduced.txt > /tmp/red-smoke-got.txt
	tail -n 1 /tmp/red-smoke-reduced.txt >> /tmp/red-smoke-got.txt
	cmp /tmp/red-smoke-want.txt /tmp/red-smoke-got.txt
	base=$$(grep -o "explored [0-9]* states" /tmp/red-smoke-base.txt | grep -o "[0-9]*"); \
	red=$$(grep -o "explored [0-9]* states" /tmp/red-smoke-reduced.txt | grep -o "[0-9]*"); \
	echo "reduction-smoke: $$base -> $$red states"; test "$$red" -lt "$$base"
	rm -f /tmp/red-smoke-explore /tmp/red-smoke-base.txt /tmp/red-smoke-reduced.txt \
		/tmp/red-smoke-want.txt /tmp/red-smoke-got.txt

# Live-traffic smoke through the real binaries: a 100k-message loopback
# run must come back with a clean verdict, a TCP session through dlserve
# (address discovered via -addr-file, same idiom as checkpoint-smoke)
# must leave both sides clean, and a run whose faults exceed the
# protocol's envelope must exit with the distinct monitor-violation
# status 4 — the online monitors catching a real bug is itself a tested
# code path.
serve-smoke:
	$(GO) build -o /tmp/serve-smoke-dlserve ./cmd/dlserve
	$(GO) build -o /tmp/serve-smoke-loadgen ./cmd/loadgen
	/tmp/serve-smoke-loadgen -mode loopback -protocol gbn -msgs 100000 > /dev/null
	rm -f /tmp/serve-smoke-addr
	( /tmp/serve-smoke-dlserve -addr 127.0.0.1:0 -addr-file /tmp/serve-smoke-addr -sessions 1 \
		> /tmp/serve-smoke-server.txt 2>&1 & \
	  pid=$$!; \
	  for i in $$(seq 1 100); do test -s /tmp/serve-smoke-addr && break; sleep 0.1; done; \
	  /tmp/serve-smoke-loadgen -mode tcp -addr "$$(cat /tmp/serve-smoke-addr)" \
		-protocol gbn -msgs 2000 > /dev/null; \
	  wait $$pid )
	grep -q "DL^{t,r}: OK" /tmp/serve-smoke-server.txt
	( /tmp/serve-smoke-loadgen -mode loopback -protocol gbn -n 2 -w 1 -fifo=false \
		-msgs 30 -window 6 -faults reorder,loss -rate 0.3 -seed 1 > /dev/null 2>&1; \
	  test $$? -eq 4 )
	rm -f /tmp/serve-smoke-dlserve /tmp/serve-smoke-loadgen /tmp/serve-smoke-addr \
		/tmp/serve-smoke-server.txt

# Telemetry-plane smoke through the real binaries: dlserve runs with the
# admin endpoint, snapshot streaming and a server-side trace; loadgen
# drives a session while also tracing its side; mid-run /metrics and
# /healthz must answer (with the delivered counter visible and status
# ok); a SIGINT stops the server gracefully (exit 3, same contract as
# checkpoint-smoke); and obsreport -merge must join the two traces into
# one clean timeline.
admin-smoke:
	$(GO) build -o /tmp/admin-smoke-dlserve ./cmd/dlserve
	$(GO) build -o /tmp/admin-smoke-loadgen ./cmd/loadgen
	$(GO) build -o /tmp/admin-smoke-obsreport ./cmd/obsreport
	rm -f /tmp/admin-smoke-addr /tmp/admin-smoke-admin
	( /tmp/admin-smoke-dlserve -addr 127.0.0.1:0 -addr-file /tmp/admin-smoke-addr \
		-admin 127.0.0.1:0 -admin-file /tmp/admin-smoke-admin \
		-trace /tmp/admin-smoke-server.jsonl -snapshot-every 50ms \
		> /tmp/admin-smoke-server.txt 2>&1 & \
	  pid=$$!; \
	  for i in $$(seq 1 100); do test -s /tmp/admin-smoke-addr && test -s /tmp/admin-smoke-admin && break; sleep 0.1; done; \
	  /tmp/admin-smoke-loadgen -mode tcp -addr "$$(cat /tmp/admin-smoke-addr)" \
		-protocol gbn -msgs 2000 -trace /tmp/admin-smoke-client.jsonl > /tmp/admin-smoke-client.txt; \
	  curl -sf "http://$$(cat /tmp/admin-smoke-admin)/metrics" | grep -q "transport.msgs_delivered 2000"; \
	  curl -sf "http://$$(cat /tmp/admin-smoke-admin)/healthz" | grep -q '"status":"ok"'; \
	  kill -INT $$pid; wait $$pid; test $$? -eq 3 )
	grep -q "latency: p50=" /tmp/admin-smoke-client.txt
	/tmp/admin-smoke-obsreport -merge /tmp/admin-smoke-client.jsonl /tmp/admin-smoke-server.jsonl \
		> /tmp/admin-smoke-merge.txt
	grep -q "merged events" /tmp/admin-smoke-merge.txt
	! grep -q "violation at event" /tmp/admin-smoke-merge.txt
	rm -f /tmp/admin-smoke-dlserve /tmp/admin-smoke-loadgen /tmp/admin-smoke-obsreport \
		/tmp/admin-smoke-addr /tmp/admin-smoke-admin /tmp/admin-smoke-server.txt \
		/tmp/admin-smoke-client.txt /tmp/admin-smoke-server.jsonl \
		/tmp/admin-smoke-client.jsonl /tmp/admin-smoke-merge.txt

# The benchmark harness's own tests (dlbench is a nested module, so
# `go test ./...` does not reach it): its metric names must match
# BENCHMARK.json, and instrumenting a search must leave its result and
# checkpoint unchanged — checked against the explorer it measures.
bench-test:
	$(GO) -C dlbench test .

# Every Go benchmark, one iteration each (~10s): a benchmark that no
# longer builds or fails its own checks breaks the gate, not the next
# ledger run.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

ci: vet lint test race swarm-smoke fuzz-smoke obs-smoke checkpoint-smoke reduction-smoke serve-smoke admin-smoke bench-test bench-smoke

bench:
	$(GO) test -bench=. -benchmem -benchtime 1x ./...
