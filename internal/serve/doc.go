// Package serve is the resilient query-serving layer: an HTTP server
// over frozen graph snapshots and the crawled store that stays up when
// the store misbehaves, load spikes, or a snapshot rebuild fails
// mid-flight.
//
// Four mechanisms compose into the robustness stack:
//
//   - Admission control. A bounded-concurrency gate with a
//     deadline-aware wait queue fronts every /api route. When all
//     execution slots are busy a request waits in a bounded queue for
//     its context's deadline; when the queue itself is full the request
//     is shed immediately with 429 and a Retry-After header (the same
//     wire convention the simulated apiserver's rate limiter uses)
//     instead of queueing unboundedly.
//
//   - Deadline propagation. Each admitted request carries a per-route
//     timeout as a context that flows through query execution (the
//     query pass and core.QuerySource's reader each check it before
//     the first record and then every 64), the core frozen-snapshot loader
//     (core.QuerySource.Frozen) and the store's record scans
//     (store.ScanContext), so a slow scan is cut off mid-stream rather
//     than holding a slot past its deadline.
//
//   - Circuit breaking. Store and snapshot reads run through a
//     rolling-window circuit breaker that trips open when the recent
//     error-or-slow rate crosses a threshold, fails fast while open,
//     and half-opens a single probe after a cooldown. A statement that
//     names a namespace, snapshot or table the store does not hold
//     (404) or cannot execute (400) is the client's error and does not
//     count against the breaker. All breaker time
//     comes from an injected apiserver.Clock, so every transition is
//     deterministic under test.
//
//   - Graceful degradation. The server keeps the last successfully
//     loaded frozen snapshot in an atomically swapped cache, hot
//     reloading when a newer frozen/snap-N artifact lands in the store.
//     When a live reload or blob read fails, snapshot routes serve the
//     last-good data marked with the X-CrowdScope-Stale header instead
//     of erroring; once the fault clears and the breaker closes,
//     responses are byte-identical to a fault-free run.
//
// The package is registered in crowdlint's deterministic set: it never
// reads the wall clock, the environment, or the global random stream.
// Package main (crowdscope serve) wires in time.Now, signal-driven drain
// and the listen socket.
package serve
