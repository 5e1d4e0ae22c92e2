// Package repo implements MaJIC's code repository (paper §2): a
// database of compiled code keyed by type signatures. The function
// locator retrieves, for a given invocation, a semantically safe entry
// (every actual type a subtype of the assumed type) that is optimal
// performance-wise, ranking safe candidates by a Manhattan-like
// distance between signatures. Misses trigger JIT compilation; the
// repository also hosts speculatively compiled entries and the
// better-optimized recompilations that tiered promotion publishes beside
// them.
//
// Concurrency contract: the repository is safe for concurrent use. An
// *Entry is immutable once published except for its hit counter, which
// is maintained atomically, so entries handed out by Lookup/Entries can
// be read (and their code executed) from any goroutine. Tier-ups never
// mutate a published entry's code in place — they publish a new entry.
// Each function name carries a generation counter,
// bumped by Invalidate; asynchronous compile jobs capture the
// generation at enqueue time and publish through InsertAt, which drops
// the result if the generation moved (a stale job must not resurrect
// code for a source file that changed while it was compiling).
package repo

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
	"repro/internal/types"
	"repro/internal/vm"
)

// Quality grades how optimized an entry is; the locator prefers closer
// signatures first and higher quality second, so a higher-quality
// recompilation of a signature takes over from the entry it improves on.
type Quality uint8

const (
	// QualityInterp marks a "compiled" entry that actually falls back
	// to interpretation (unsupported constructs).
	QualityInterp Quality = iota
	// QualityJIT is fast naive code from the JIT code generator.
	QualityJIT
	// QualityOpt is backend-optimized code (the speculative/batch path).
	QualityOpt
)

func (q Quality) String() string {
	return [...]string{"interp", "jit", "opt"}[q]
}

// Entry is one compiled version of a function. Sig, Code, Quality and
// Speculative are immutable after the entry is published to a
// repository; the hit counter is atomic.
type Entry struct {
	Sig     types.Signature
	Code    *vm.Compiled // nil for QualityInterp
	Quality Quality
	// Speculative marks entries produced ahead of time by the
	// speculator (for the harness's hit/miss statistics).
	Speculative bool
	// Replicated marks entries applied from a cluster peer rather than
	// compiled locally. A local compile publishing the same exact
	// signature replaces a replicated entry in place (local code wins),
	// so replication racing a local JIT keeps exactly one winner.
	Replicated bool
	hits       int64 // atomic
}

// Hits returns the number of Lookup hits this entry has served.
func (e *Entry) Hits() int64 { return atomic.LoadInt64(&e.hits) }

func (e *Entry) addHit() { atomic.AddInt64(&e.hits, 1) }

// Stats counts repository traffic.
type Stats struct {
	Lookups      int `json:"lookups"`
	Hits         int `json:"hits"`
	Misses       int `json:"misses"`
	Inserts      int `json:"inserts"`
	SpecHits     int `json:"spec_hits"` // hits on speculative entries
	Invalidation int `json:"invalidations"`
	StaleDrops   int `json:"stale_drops"` // async publishes dropped by a generation mismatch
	Evictions    int `json:"evictions"`   // entries evicted by the per-function cap
	Loaded       int `json:"loaded"`      // entries restored from a warm-start snapshot (not Inserts)
	// Replicated counts entries applied from cluster peers — code this
	// node serves but never compiled, distinct from both Inserts (local
	// compiles) and Loaded (warm-start restores). ReplicatedDrops counts
	// replicated applies discarded by the duplicate or generation guard.
	Replicated      int `json:"replicated"`
	ReplicatedDrops int `json:"replicated_drops"`
	Functions       int `json:"functions"` // functions with at least one live entry (snapshot)
	Entries         int `json:"entries"`   // live compiled entries across all functions (snapshot)
}

// Repository is the signature-keyed code database.
type Repository struct {
	mu    sync.Mutex
	funcs map[string][]*Entry
	gens  map[string]uint64
	stats Stats
	// maxPerFunc caps the live entries per function name; 0 means
	// unbounded (the single-session default). A long-lived daemon sets
	// a cap so pathological signature churn (one compiled version per
	// distinct constant argument, before widening kicks in) cannot grow
	// the repository without bound.
	maxPerFunc int
	// onChange callbacks are invoked (outside the repository lock) after
	// every mutation that changes what a snapshot of the repository
	// would contain: inserts and invalidations. The
	// persistence layer hooks its write-behind snapshotter here; the
	// cluster replicator hooks its push loop.
	onChange []func()
	// journal, when set, receives one eviction event per capacity
	// eviction (nil-safe; evictions are already a slow path).
	journal *telemetry.Journal
}

// New returns an empty, unbounded repository.
func New() *Repository {
	return &Repository{funcs: map[string][]*Entry{}, gens: map[string]uint64{}}
}

// NewBounded returns a repository that keeps at most maxPerFunc entries
// per function, evicting the least-hit (oldest on ties) entry when an
// insert would exceed the cap. maxPerFunc <= 0 means unbounded.
func NewBounded(maxPerFunc int) *Repository {
	r := New()
	r.maxPerFunc = maxPerFunc
	return r
}

// MaxEntriesPerFunction returns the per-function entry cap (0 =
// unbounded).
func (r *Repository) MaxEntriesPerFunction() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.maxPerFunc
}

// Lookup returns the best safe entry for an invocation signature, or
// nil. Best = minimal Manhattan distance, ties broken by quality.
func (r *Repository) Lookup(name string, q types.Signature) *Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.Lookups++
	var best *Entry
	bestDist := 0
	for _, e := range r.funcs[name] {
		if !e.Sig.Safe(q) {
			continue
		}
		d := e.Sig.Distance(q)
		if best == nil || d < bestDist || (d == bestDist && e.Quality > best.Quality) {
			best, bestDist = e, d
		}
	}
	if best != nil {
		r.stats.Hits++
		best.addHit()
		if best.Speculative {
			r.stats.SpecHits++
		}
	} else {
		r.stats.Misses++
	}
	return best
}

// Covered reports whether some entry already safely serves signature q
// (without touching the lookup statistics). Asynchronous compile jobs
// use it to skip publishing a duplicate when an equivalent entry landed
// between the miss and the job's execution.
func (r *Repository) Covered(name string, q types.Signature) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.funcs[name] {
		if e.Sig.Safe(q) {
			return true
		}
	}
	return false
}

// Entries returns the compiled versions of a function (for majicc -dump
// and tests).
func (r *Repository) Entries(name string) []*Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Entry(nil), r.funcs[name]...)
}

// SetOnChange registers the snapshot-dirtying callback, invoked after
// every insert and invalidation (outside the repository
// lock, so the callback may call Entries/Stats/FunctionNames),
// replacing any callbacks registered so far. Set it before the
// repository sees concurrent traffic — the warm-start sequence
// installs it right after loading, before the daemon listens.
func (r *Repository) SetOnChange(fn func()) {
	r.mu.Lock()
	r.onChange = []func(){fn}
	r.mu.Unlock()
}

// AddOnChange appends a mutation callback without displacing the ones
// already registered — the persistence snapshotter and the cluster
// replicator both observe the same repository this way. Like
// SetOnChange, register before concurrent traffic starts.
func (r *Repository) AddOnChange(fn func()) {
	r.mu.Lock()
	r.onChange = append(r.onChange, fn)
	r.mu.Unlock()
}

// notify runs the registered onChange callbacks; call it only outside
// the repository lock, with the slice captured under it.
func notify(fns []func()) {
	for _, fn := range fns {
		fn()
	}
}

// SetJournal attaches the tiering event journal; capacity evictions are
// recorded with the victim's signature and hit count. Set it before the
// repository sees concurrent traffic, like SetOnChange.
func (r *Repository) SetJournal(j *telemetry.Journal) {
	r.mu.Lock()
	r.journal = j
	r.mu.Unlock()
}

// FunctionNames returns every function name with at least one live
// entry (snapshot export order is the caller's concern).
func (r *Repository) FunctionNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.funcs))
	for name := range r.funcs {
		out = append(out, name)
	}
	return out
}

// Generation returns the current generation of a function name. The
// counter advances on every Invalidate; an asynchronous compile job
// captures it before compiling and passes it back to InsertAt.
func (r *Repository) Generation(name string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gens[name]
}

// Insert adds an entry at the current generation.
func (r *Repository) Insert(name string, e *Entry) {
	r.mu.Lock()
	r.insertLocked(name, e)
	onChange := r.onChange
	r.mu.Unlock()
	notify(onChange)
}

// InsertAt adds an entry if the function's generation still equals gen.
// It returns false — and drops the entry — when an Invalidate happened
// after the compile job was enqueued, so stale code never resurrects.
func (r *Repository) InsertAt(name string, e *Entry, gen uint64) bool {
	r.mu.Lock()
	if r.gens[name] != gen {
		r.stats.StaleDrops++
		r.mu.Unlock()
		return false
	}
	r.insertLocked(name, e)
	onChange := r.onChange
	r.mu.Unlock()
	notify(onChange)
	return true
}

// Restored builds an entry recovered from a warm-start snapshot,
// carrying the persisted hit count over so least-hit eviction keeps
// ranking the working set correctly across restarts.
func Restored(sig types.Signature, code *vm.Compiled, q Quality, speculative bool, hits int64) *Entry {
	return &Entry{Sig: sig, Code: code, Quality: q, Speculative: speculative, hits: hits}
}

// InsertLoaded publishes a warm-start entry. It counts under
// stats.Loaded instead of stats.Inserts, so "inserts" keeps meaning
// "compiles published this lifetime" — the warm-start CI gate asserts
// a snapshot replay performs zero of those. Loading happens before the
// write-behind snapshotter attaches, so no onChange fires (a loaded
// entry is by definition already in the snapshot).
func (r *Repository) InsertLoaded(name string, e *Entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.Loaded++
	r.funcs[name] = append(r.funcs[name], e)
	if r.maxPerFunc > 0 && len(r.funcs[name]) > r.maxPerFunc {
		r.evictLocked(name, e)
	}
}

func (r *Repository) insertLocked(name string, e *Entry) {
	r.stats.Inserts++
	// A local compile for a signature already served by a replicated
	// entry replaces it in place instead of appending a duplicate: the
	// locally compiled code wins (it is at least as fresh), and exactly
	// one entry per exact signature survives the replication-vs-JIT
	// race in either arrival order.
	for i, old := range r.funcs[name] {
		if old.Replicated && old.Sig.Key() == e.Sig.Key() {
			atomic.StoreInt64(&e.hits, old.Hits())
			r.funcs[name][i] = e
			return
		}
	}
	r.funcs[name] = append(r.funcs[name], e)
	if r.maxPerFunc > 0 && len(r.funcs[name]) > r.maxPerFunc {
		r.evictLocked(name, e)
	}
}

// InsertReplicated publishes an entry received from a cluster peer, at
// generation gen (captured when the record's source text was validated
// against the live registration). It returns false — counting a
// ReplicatedDrop — when the generation moved (a local redefinition
// landed meanwhile; replicated code must not resurrect it) or when an
// entry with the identical exact signature already exists at equal or
// better quality (the local JIT or an earlier replica won the race). A
// strictly better-quality replica upgrades the duplicate in place.
// Applied entries count under stats.Replicated, never Inserts or
// Loaded, and are journaled under telemetry.EventReplication.
func (r *Repository) InsertReplicated(name string, e *Entry, gen uint64, origin string) bool {
	e.Replicated = true
	r.mu.Lock()
	if r.gens[name] != gen {
		r.stats.ReplicatedDrops++
		r.mu.Unlock()
		return false
	}
	for i, old := range r.funcs[name] {
		if old.Sig.Key() != e.Sig.Key() {
			continue
		}
		if e.Quality <= old.Quality {
			r.stats.ReplicatedDrops++
			r.mu.Unlock()
			return false
		}
		atomic.StoreInt64(&e.hits, old.Hits())
		r.funcs[name][i] = e
		r.replicatedLocked(name, e, origin)
		onChange := r.onChange
		r.mu.Unlock()
		notify(onChange)
		return true
	}
	r.funcs[name] = append(r.funcs[name], e)
	if r.maxPerFunc > 0 && len(r.funcs[name]) > r.maxPerFunc {
		r.evictLocked(name, e)
	}
	r.replicatedLocked(name, e, origin)
	onChange := r.onChange
	r.mu.Unlock()
	notify(onChange)
	return true
}

func (r *Repository) replicatedLocked(name string, e *Entry, origin string) {
	r.stats.Replicated++
	r.journal.Record(telemetry.Event{
		Kind:   telemetry.EventReplication,
		Func:   name,
		Sig:    e.Sig.Key(),
		Cause:  "peer-apply",
		Gen:    r.gens[name],
		Detail: fmt.Sprintf("origin=%s quality=%s", origin, e.Quality),
	})
}

// evictLocked drops the least-hit entry for name, sparing the
// just-inserted entry keep — a fresh entry always has zero hits, so
// without the exemption every insert at the cap would evict itself and
// the repository could never turn over its working set. At equal hit
// counts, lower-quality entries go first (an interpret-only marker is
// just a cached decision; compiled code cost a JIT or optimizing
// compile), and the oldest entry wins a full tie.
func (r *Repository) evictLocked(name string, keep *Entry) {
	entries := r.funcs[name]
	victim := -1
	var victimHits int64
	for i, e := range entries {
		if e == keep {
			continue
		}
		h := e.Hits()
		if victim == -1 || h < victimHits ||
			(h == victimHits && e.Quality < entries[victim].Quality) {
			victim, victimHits = i, h
		}
	}
	if victim == -1 {
		return
	}
	v := entries[victim]
	r.funcs[name] = append(entries[:victim], entries[victim+1:]...)
	r.stats.Evictions++
	r.journal.Record(telemetry.Event{
		Kind:   telemetry.EventEviction,
		Func:   name,
		Sig:    v.Sig.Key(),
		Cause:  "capacity",
		Gen:    r.gens[name],
		Detail: fmt.Sprintf("quality=%s hits=%d", v.Quality, v.Hits()),
	})
}

// Invalidate drops all entries for a function (source change detected
// by the snooper) and advances its generation so in-flight compile jobs
// for the old source publish into the void.
func (r *Repository) Invalidate(name string) {
	r.mu.Lock()
	r.gens[name]++
	if _, ok := r.funcs[name]; ok {
		delete(r.funcs, name)
		r.stats.Invalidation++
	}
	onChange := r.onChange
	r.mu.Unlock()
	// Notify even when no entries existed: the library publishes the new
	// source before invalidating, so the snapshot's source text for this
	// function is stale either way.
	notify(onChange)
}

// SameKindsDifferentDetail reports whether an existing entry matches
// the requested signature's intrinsic kinds and arity but not its
// ranges/shapes — the trigger for the widening policy that prevents
// compiling one version per distinct constant argument (recursive
// calls like fibonacci(n-1) would otherwise recompile for every n).
func (r *Repository) SameKindsDifferentDetail(name string, q types.Signature) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.funcs[name] {
		if len(e.Sig) != len(q) {
			continue
		}
		same := true
		for i := range q {
			if e.Sig[i].I != q[i].I {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}

// Stats returns a copy of the counters plus a snapshot of the live
// function and entry counts (the daemon's /metrics surface).
func (r *Repository) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.stats
	s.Functions = len(r.funcs)
	for _, es := range r.funcs {
		s.Entries += len(es)
	}
	return s
}

// ResetStats clears the counters.
func (r *Repository) ResetStats() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats = Stats{}
}
