GO ?= go

.PHONY: all build test vet race check alloc-check soak fuzz-short golden-check perf-check examples fmt fmt-check lint experiments loc

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The simulator is single-threaded by design (one virtual clock, one event
# heap; virtclock bans the go statement outside package main), so the race
# run guards only the goroutines a test itself spawns.
race:
	$(GO) test -race -timeout 30m -skip 'OffloadEquivalenceSoak' ./...

check: vet lint fmt-check race soak alloc-check fuzz-short golden-check perf-check examples

# The invariant linter: the analyzers in internal/analysis (virtclock,
# statsreg, wiremut, hotalloc) enforce the DESIGN.md contracts
# mechanically; telemetry checks its own (nil-safe hooks, names, counter
# struct shape) in its tests and at registration. It passes with zero
# findings, and a finding cannot be silenced, only fixed. Exit status: 0
# clean, 1 findings, 2 load or type-check failure. See DESIGN.md
# "Invariants as analyzers".
lint:
	$(GO) run ./cmd/simlint ./...

# The randomized offload-equivalence soak: 20 seeded loss+reorder+ECN+MTU-flap
# schedules, offloaded vs software plaintext compared byte for byte, under the
# race detector. Split out of `race` so it isn't run twice per check.
soak:
	$(GO) test -race -count=1 -timeout 30m -run 'OffloadEquivalence' ./internal/experiments/

# A few seconds of coverage-guided fuzzing per target: TCP reassembly, the
# SACK option codec and scoreboard, the TCP send ring (retention floor and
# read-back included) against a model of the written stream, the RxEngine
# header parser/search path, the event queue with a faulty link's frames in
# flight against its reference model, gcm.Stream against crypto/cipher's
# GCM, the L5P message assembler under the ktls and nvmetcp header
# parsers, the NVMe-TCP target against a model of the commands it may
# serve, the NVMe-TCP host against response streams it must survive (no
# panic, a failed association on bytes that do not frame, no read
# completed with bytes whose digest failed), the two word-at-a-time byte
# loops — the SSD model's block pattern and the internet checksum — against their
# byte-wise references (the checksum also in chained pieces), wire.Parse,
# whose accepted packets
# must survive Marshal and Parse again and which ParseInto must match, and
# the appsim server and client, in both formats, against a model of what
# they must write and count for the whole byte stream however it is
# chunked (no panic, a request or header longer than its bound closes the
# connection, a response counted only when well framed and every body
# byte is the object's).
# `go test -fuzz` takes one target per invocation, hence the separate lines.
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzEventQueue$$' -fuzztime 5s ./internal/netsim/
	$(GO) test -run '^$$' -fuzz '^FuzzReassembly$$' -fuzztime 5s ./internal/tcpip/
	$(GO) test -run '^$$' -fuzz '^FuzzScoreboard$$' -fuzztime 5s ./internal/tcpip/
	$(GO) test -run '^$$' -fuzz '^FuzzSendRing$$' -fuzztime 5s ./internal/tcpip/
	$(GO) test -run '^$$' -fuzz '^FuzzSackOption$$' -fuzztime 5s ./internal/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzChecksum$$' -fuzztime 5s ./internal/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzRxEngine$$' -fuzztime 5s ./internal/offload/
	$(GO) test -run '^$$' -fuzz '^FuzzRxSearchGarbage$$' -fuzztime 5s ./internal/offload/
	$(GO) test -run '^$$' -fuzz '^FuzzStreamVsAEAD$$' -fuzztime 5s ./internal/gcm/
	$(GO) test -run '^$$' -fuzz '^FuzzAssembler$$' -fuzztime 5s ./internal/l5p/
	$(GO) test -run '^$$' -fuzz '^FuzzController$$' -fuzztime 5s ./internal/nvmetcp/
	$(GO) test -run '^$$' -fuzz '^FuzzHost$$' -fuzztime 5s ./internal/nvmetcp/
	$(GO) test -run '^$$' -fuzz '^FuzzPattern$$' -fuzztime 5s ./internal/blockdev/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s ./internal/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzServer$$' -fuzztime 5s ./internal/appsim/
	$(GO) test -run '^$$' -fuzz '^FuzzClient$$' -fuzztime 5s ./internal/appsim/

# Deterministic-seed rerun of the goldens: the full event sequence of a
# seeded run (the Chrome trace), what cmd/experiments prints for fig2,
# tab1, fig3, fig4, fig10, fig11, sec61, sec62, abl-recovery, abl-magic,
# fig12, fig14, fig15, tab4 and churn, every counter the chaos, ecn,
# mtuflap and recovery tables print (on short runs), and every counter,
# histogram and sampled series a telemetry-on pair world (offloaded iperf)
# and NVMe-over-TLS storage world (offloaded HTTP) register must stay
# byte-identical.
golden-check:
	$(GO) test -count=1 -run 'GoldenChromeTrace|TablesGolden|ChaosGolden|WorldMetricsGolden' ./internal/experiments/

# The race detector instruments allocations, so the zero-alloc guarantees
# (disabled telemetry and lifecycle spans must not allocate on the
# per-packet path, nor Stats()/Sample() at steady state, nor a poll or
# doorbell (received frames parse into one reused packet), nor parsing a
# frame into a packet, nor re-arming and running a timer (through a target
# its owner already is, too: TestTimerTargetNoAlloc), nor a frame
# crossing a link, nor writing, reading and trimming a TCP send ring at its
# working size, nor a new TLS connection's first records (built in a
# recycled send ring), nor an offload engine's Process in sequence or
# searching, nor gcm.Stream.Update or Tag at any piece length (GHASH's
# scratch run comes from a sync.Pool), nor an L5P cutting messages out of its
# chunk queue or walking a message's byte ranges, or retaining a sent
# message, dropping an acknowledged one and reading one back, nor the NVMe-TCP target serving
# a read — command, device request, response capsule, digest offloaded or
# not; starting a GCM record, resuming one after a Skip and checking its
# tag allocate nothing in either direction — nor a SACK-bearing ACK (built in the stack's arrays), nor a socket
# handing a received segment to a reader that consumes it in OnReadable,
# nor one filling a hole behind which it kept segments in its arena,
# nor the stack building a segment or ACK (one reused packet), nor software
# TLS opening a record in place, nor a whole two-machine plain-TCP world
# streaming verified bytes, nor the NVMe-TCP host issuing and completing a
# read) are asserted in a separate non-race run, together with the pinned
# per-connection cost: the objects one offloaded TLS connection allocates
# from SYN to detach (TestConnLifecycleAllocs, each remaining site listed
# there, and the same 4 with a segment of each connection lost:
# TestConnLossyLifecycleAllocs), the one Socket per end a plain TCP
# connection allocates (TestSocketLifecycleAllocs), and every
# per-connection object within its size class, the runtime's 8-byte malloc
# header included (the SizeClass tests: Socket 640 bytes, ktls Conn 704,
# the ktls and nvmetcp receive contexts 768 and 704).
alloc-check:
	$(GO) test -count=1 -run 'ZeroAlloc|NoAlloc|LifecycleAllocs|SizeClass' ./internal/telemetry/... ./internal/nic/ ./internal/netsim/ ./internal/tcpip/ ./internal/wire/ ./internal/offload/ ./internal/gcm/ ./internal/l5p/ ./internal/blockdev/ ./internal/nvmetcp/ ./internal/ktls/ ./internal/experiments/

# The gate on everything modeled: each BENCHMARK.json workload on seeds 1
# and 2, one repetition (--seconds 0), checked bit for bit against
# benchmark/expected.json. Any drift exits non-zero and prints the rows that
# moved; re-pin expected.json (benchmark/README.md) only for an intended
# change to the model. The wall-clock lines each run prints are this host's,
# for one repetition, and gate nothing (the dropped stdout repeats them as
# JSON). Whether the simulator itself got faster is a separate question,
# answered by paired `benchmark -out` / `-compare` runs.
perf-check:
	@fail=0; for w in iperf_tls_offload iperf_tcp_unbatched fio_nvme_read churn_tls_lossy; do \
		for s in 1 2; do \
			bash benchmark/run.sh --workload $$w --seed $$s --seconds 0 > /dev/null || fail=1; \
		done; \
	done; \
	if [ $$fail = 0 ]; then echo "perf-check: all workloads reproduce benchmark/expected.json on seeds 1 and 2"; \
	else echo "perf-check: FAILED, see the rows above"; exit 1; fi

# Run every example end to end. Each checks the bytes it moved and exits
# non-zero (log.Fatal) on a corrupted or short transfer.
examples:
	@for d in examples/*/; do \
		echo "== $$d"; $(GO) run ./$$d > /dev/null || exit 1; \
	done

fmt:
	gofmt -l .

# fmt that fails: `gofmt -l` always exits 0, so check runs use this form.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

experiments:
	$(GO) run ./cmd/experiments

# Non-test Go lines per package directory and in total (testdata fixtures
# excluded): the number ROADMAP's size acceptance lines quote.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.bench_build/*' \
		-exec wc -l {} + | awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%6d %s\n", n[d], d; printf "%6d total\n", t }' | sort -k2
