// Package engine is the concurrent experiment runtime: a bounded worker
// pool that executes heterogeneous jobs (paper artifacts, simulator runs)
// with per-job context cancellation, a two-level config-hash result cache,
// and deterministic output ordering.
//
// The engine is deliberately independent of the model and workload
// packages so that any layer — cmd/mergescale submitting whole
// experiments, internal/workload sharding simulator runs per core count —
// can fan out through the same pool. Work cheaper than a job's bookkeeping
// (the analytic model in internal/core) stays a plain function call.
//
// # Concurrency model
//
// Run schedules by pull: the calling goroutine and the helpers it
// recruits into free worker slots each claim the next unclaimed job from
// a shared counter. The Run caller counts as one of the Config.Workers
// workers and always works its own list, so nested submission is safe
// (e.g. simulator runs sharded from inside an experiment job): a job
// waiting for its own sub-jobs can never deadlock the pool, even when no
// slot is free. Workers: 1 is exactly serial execution on the calling
// goroutine. A caller that has drained its list gives its slot back while
// its helpers finish, and takes it back without blocking. Keep the
// caller-is-a-worker invariant when extending the engine.
//
// # Caching
//
// Level one is an in-process singleflight map: jobs sharing a Key are
// computed once, with later submitters waiting for and sharing the first
// submitter's result. Level two is an optional persistent Store
// (Config.Store, usually a diskcache.Store) consulted on memory misses and
// filled after successful computations, which is what makes a repeated
// run of the full experiment suite near-instant across processes.
// Errored and cancelled computations are never cached at either level.
//
// Cache keys come from Key, which hashes the %#v rendering of its parts
// with FNV-1a. Key parts must render deterministically: structs of
// scalars, strings and slices — never pointers or maps. Anything that
// affects a job's output must be in its key; anything that only affects
// scheduling (like which engine runs the job) must stay out.
//
// # Determinism contract
//
// Run returns results in submission order no matter which worker finishes
// first, and the cache returns the identical value computed by the first
// submitter of a key. A parallel run therefore yields a byte-identical
// result set to a serial run of the same jobs, provided the job functions
// themselves are deterministic.
package engine
