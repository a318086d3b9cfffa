// This file documents the simulator's modeling assumptions in one place.
//
// # What is modeled
//
// The machine is the paper's Table II configuration: a tiled multicore on
// an electrical 2-D mesh. Each tile has a private L1-D tag array (32 KB,
// 4-way, true LRU), a slice of the shared inclusive NUCA L2 (256 KB,
// 8-way), and a router. Cache lines interleave across L2 home slices by
// line address; the directory (MESI with ACKWise-4 limited sharer
// pointers) lives with the home slice. Eight memory controllers sit at
// evenly spaced tiles, each with 5 GB/s of bandwidth and 100 ns latency.
//
// Every annotated data reference walks this model: L1 lookup; on a miss,
// a request packet to the home tile (XY-routed, link contention charged),
// per-line home serialization (L2Home-Waiting), the L2 access, an
// off-chip fill on an L2 miss (L2Home-OffChip), invalidation or
// write-back round trips to private sharers (L2Home-Sharers), and the
// data reply. The paper's completion-time components fall directly out
// of this walk.
//
// # Direct execution and lax synchronization
//
// Like Graphite, this is a direct-execution simulator: the benchmark's
// real Go code computes the real answer while its annotations drive the
// timing model, and cycle accuracy is deliberately relaxed. Each
// simulated thread owns a private virtual clock. Three rules keep the
// relaxation sound:
//
//  1. Shared hardware (links, controllers, hot lines, locks, the sync
//     manager) charges queueing from utilization statistics
//     (rho/(1-rho) * service/2, capped) rather than from a reservation
//     calendar. Reservation calendars are only correct when requests
//     arrive in nondecreasing time order, which lax clocks do not
//     guarantee; with one, a virtual-time front-runner blocks laggards
//     arriving "in its past" and the whole machine serializes.
//  2. Deterministic synchronization points reconcile clocks exactly: a
//     barrier releases every party at max(arrival) plus a cost linear in
//     the party count (a centralized barrier serializes one counter RMW
//     per arrival).
//  3. One simulated thread runs at a time (exec.Sched under its
//     LowestClock rule; the race checker runs on the same scheduler).
//     The baton passes to the runnable thread with the lowest virtual
//     clock (ties to the lower tid) when the holder runs more than
//     Config.WindowCycles past the lowest clock of the other runnable
//     threads, blocks on a held lock or an incomplete barrier, or ends.
//     Races for dynamically distributed work (vertex capture, shared
//     stacks) are therefore decided in virtual-time order within one
//     window, never by the host's goroutine scheduler, and a run's
//     result depends on its inputs alone.
//
// # Synchronization cost model
//
// Graphite routes every pthread mutex and barrier operation as a network
// message to a centralized sync manager ("MCP") on tile 0, which
// services them serially. This simulator reproduces that: each
// Lock/Unlock is a round trip to tile 0 plus a serialized service slot
// (Config.MCPServiceCycles), with a backlog term when aggregate demand
// exceeds capacity. This serialization — not cache misses — is what caps
// the paper's lock-per-edge kernels (PageRank 5.37x, SSSP_DIJK 4.45x)
// while lock-free kernels (APSP 204x) scale; the reproduction inherits
// exactly that separation. Locks additionally perform an atomic RMW on
// their futex word's cache line, producing the coherence ping-pong and
// sharing misses of contended "atomic locks".
//
// # Out-of-order cores
//
// The OOO model hides a configurable fraction of L1Cache-L2Home and
// off-chip stall time (memory-level parallelism within the 168-entry
// ROB) and none of the home serialization, sharer invalidation or
// synchronization time — encoding the paper's Section V-G conclusion
// that OOO cores cannot hide on-chip communication.
//
// # Host cost of a reference
//
// What a simulated reference costs the host is arithmetic: with one
// writer at a time, the model's state is plain fields, so an L1 hit is
// one window compare and one tag lookup, with no lock or atomic. A miss
// adds two mesh traversals (noc.Traverse: one noc.QueueDelay per hop,
// most of them answered by its integer pre-test) and per-line state kept
// in two dense tables indexed by line number (tables.go): a core's 2-bit
// miss dispositions in 4,096-line pages and a home's lineStat slots in
// 64-entry chunks at the slice-local index the L2 tag array uses. Both,
// like the L1 and L2 tag arrays, allocate on first touch and read as
// zero (or Invalid) until then, so building a machine costs its page
// directories and a warm hit or miss allocates nothing
// (TestWarmAccessDoesNotAllocate). A Lock/Unlock pair is four traversals
// to and from tile 0 over the most loaded links plus two futex-line
// accesses, and counts two instructions, one per exec.Thread call (the
// model counts none), which is why lock-per-edge PageRank costs several
// times more host time per simulated instruction than the other kernels.
// Passing the baton is a channel hand-off between two goroutines; it
// happens at blocking points and once per window, not per reference.
// DESIGN.md section 4 has the measured shares.
//
// # Known simplifications
//
//   - The L1-I cache is not simulated structurally; instruction fetches
//     are charged energy per instruction and assumed to hit (the kernels'
//     code footprints are a few hundred bytes).
//   - Store visibility is modeled at line granularity with no write
//     buffers or memory-consistency stalls beyond home serialization.
//   - Timing under lax synchronization is approximate: within a window
//     a thread's references reach shared state (LRU order, utilization
//     statistics, directory state) ahead of references that other
//     threads issue earlier in virtual time. The order is the
//     scheduler's, not the host's, so every run, single- or
//     multi-threaded, is bit-deterministic; a different window or thread
//     count moves the timing by the lax-synchronization drift.
//   - The SMT/context-switch behavior of the paper's real machine
//     (Figure 9 at 16 threads on 8 hardware threads) is not modeled.
package sim
