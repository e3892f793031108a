package pool

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"
)

// Range is a half-open iteration interval [Lo, Hi).
type Range struct {
	Lo, Hi int64
	// From is the owner core type of the shard the range was claimed from —
	// the chunk's provenance, which the simulator's tiered locality model
	// prices by topology distance. Ranges that do not originate from a
	// sharded pool leave it 0.
	From int32
}

// N returns the number of iterations in the range.
func (r Range) N() int64 { return r.Hi - r.Lo }

// HandoffBatch is the multiplier applied to a steal request when it has to
// be served from a foreign shard: the thief claims up to HandoffBatch times
// the requested size in one atomic operation and keeps the surplus in a
// thread-local stash (see TryStealBatchFrom). Amortizing foreign-shard
// accesses this way keeps cross-core-type cache-line traffic bounded even
// after a shard drains.
const HandoffBatch = 4

// shard is one sub-pool: a contiguous iteration range with a single claim
// counter. The two mutable fields live on separate cache lines, each alone:
// next is fetch-and-added by the shard's home threads on every chunk, and
// dead is written once by whichever thread observes the shard drained —
// sharing a line between them (or with the read-only bounds) would let that
// one store invalidate the line every home thread is spinning on, exactly
// the cross-core traffic the sharded pool exists to avoid. The immutable
// fields (base, end, owner) share a third line that stays in every cache in
// shared mode.
type shard struct {
	_    [64]byte
	next atomic.Int64 // first unclaimed iteration; may overshoot end
	_    [56]byte
	// dead is set once the shard has been observed drained; it lets the
	// hot path skip a doomed fetch-and-add (next never decreases, so a
	// drained shard stays drained).
	dead atomic.Bool
	_    [60]byte
	base int64
	end  int64
	// owner is the core type whose threads call this shard home. Foreign
	// steals exclude shards by owner, not index, because a re-weighted
	// generation may hold several shards per type.
	owner int32
	_     [44]byte
}

// remaining returns the shard's unclaimed iteration count (never negative).
func (s *shard) remaining() int64 {
	r := s.end - s.next.Load()
	if r < 0 {
		return 0
	}
	return r
}

// claim fetch-and-adds n iterations out of shard s and clips against the
// shard end. ok=false when the shard was already drained.
func (s *shard) claim(n int64) (lo, hi int64, ok bool) {
	lo = s.next.Add(n) - n
	if lo >= s.end {
		return 0, 0, false
	}
	hi = lo + n
	if hi > s.end {
		hi = s.end
	}
	return lo, hi, true
}

// generation is one immutable partition of the (remaining) iteration space:
// a set of contiguous shards, each owned by a core type, plus the per-type
// index lists home claims walk. A generation's shard bounds never change
// after publication; Reweight replaces the whole generation instead
// (see ShardedWorkShare).
type generation struct {
	shards []shard
	// byType[t] lists the indexes of the shards owned by core type t, in
	// iteration order. Every type has at least one (possibly empty) shard.
	byType [][]int32
	ntypes int
}

// clampType maps a home core type onto the generation's type range: indexes
// beyond the type count clamp to the last type, preserving NewSharded's
// contract for pools built with fewer shards than the platform has types.
func (g *generation) clampType(home int) int {
	if home >= g.ntypes {
		return g.ntypes - 1
	}
	return home
}

// remaining sums the unclaimed iterations of every shard.
func (g *generation) remaining() int64 {
	var r int64
	for i := range g.shards {
		r += g.shards[i].remaining()
	}
	return r
}

// ShardedWorkShare is the per-loop iteration pool, a sharded form of
// libgomp's single fetch-and-add counter: the iteration space is
// partitioned into one contiguous sub-pool per core type, sized
// proportionally to the number of threads of that type. Threads remove
// chunks from their home shard with a single fetch-and-add — the same lock
// free hot path as the single counter, minus the cross-core-type
// contention — and
// fall over to the richest foreign shard when their home shard drains.
//
// The partition is replaceable mid-loop: Reweight drains the current
// generation of shards and re-cuts the leftover iterations under new
// per-type weights (the SF-aware re-partitioning of the AID schedulers once
// their speedup-factor estimate stabilizes). Claims and re-partitioning
// synchronize via a generation pointer plus a seqlock: claim successes are
// serialized by the per-shard atomics alone, and only a "pool drained"
// conclusion must re-check the sequence word — a thief that finds every
// shard of a superseded generation empty retries on the new one, so
// exactly-once coverage holds across re-partitions.
//
// All methods are safe for concurrent use (Reweight additionally requires
// external serialization of re-weighters; the AID transition window provides
// it). PoolAccess accounting counts atomic read-modify-write operations
// (fetch-and-add / CAS); read-only probes of a drained shard are not
// charged, matching the cost asymmetry of a shared-mode cache-line read
// versus an exclusive-mode RMW.
type ShardedWorkShare struct {
	ni  int64
	gen atomic.Pointer[generation]
	// seq is the re-partition seqlock: odd while Reweight is moving work
	// between generations, bumped to even when the new generation is
	// published. Claim paths validate "drained" conclusions against it.
	seq atomic.Uint64
	_   [48]byte
	// foreign counts successful foreign-shard claims (handoff traffic), the
	// signal Reweight exists to reduce. Padded so the metric's line is not
	// the seq/gen line the hot path reads.
	foreign atomic.Int64
	_       [56]byte
	// dist is the optional topology distance matrix installed by
	// SetTopology; nil means richest-only victim selection. Written once
	// before the pool is shared, read-only afterwards.
	dist [][]int
	// reweights counts published re-partitions (Reweight calls) — the
	// observability layer's "how often did the pool re-cut" signal. It is
	// written only by the externally-serialized re-weighter, on the cold
	// re-partition path, so it needs no cache-line isolation of its own.
	reweights atomic.Int64
}

// SetTopology installs a topology distance matrix for victim selection:
// dist[a][b] is the distance between the clusters of core types a and b
// (0 = same cluster, larger = farther; amp.Platform.TypeDist produces it).
// With a topology installed, claims that fall over to a foreign shard pick
// the topologically nearest victim first — richest only within the nearest
// distance tier — and DrainAll visits foreign shards nearest-tier-first.
// With no topology (nil), selection is richest-only, the pre-topology
// behavior.
//
// SetTopology must be called before the pool is shared with other threads;
// it is not synchronized with the claim paths.
func (ws *ShardedWorkShare) SetTopology(dist [][]int) {
	if dist != nil && len(dist) < ws.gen.Load().ntypes {
		panic(fmt.Sprintf("pool: topology matrix covers %d types, pool has %d", len(dist), ws.gen.Load().ntypes))
	}
	ws.dist = dist
}

// distOf returns the topology distance between core types a and b; with no
// matrix installed every foreign type is equidistant.
func (ws *ShardedWorkShare) distOf(a, b int) int {
	if ws.dist == nil {
		if a == b {
			return 0
		}
		return 1
	}
	return ws.dist[a][b]
}

// victimForeign picks the foreign shard a fallen-over claim steals from:
// the topologically nearest non-drained victim, richest within the nearest
// distance tier. -1 when every foreign shard is drained.
func (ws *ShardedWorkShare) victimForeign(g *generation, home int) int {
	victim, best, bestD := -1, int64(0), int(^uint(0)>>1)
	for i := range g.shards {
		o := int(g.shards[i].owner)
		if o == home {
			continue
		}
		r := g.shards[i].remaining()
		if r <= 0 {
			continue
		}
		if d := ws.distOf(home, o); d < bestD || (d == bestD && r > best) {
			victim, best, bestD = i, r, d
		}
	}
	return victim
}

// victimOther is victimForeign with exclusion by shard index instead of
// owner — the victim-selection rule of the span path, which walks shards
// individually and may legitimately revisit other home-owned shards.
// Distance is measured from core type home to each shard's owner, so
// same-type leftovers rank before any foreign tier.
func (ws *ShardedWorkShare) victimOther(g *generation, home, exclude int) int {
	victim, best, bestD := -1, int64(0), int(^uint(0)>>1)
	for i := range g.shards {
		if i == exclude {
			continue
		}
		r := g.shards[i].remaining()
		if r <= 0 {
			continue
		}
		if d := ws.distOf(home, int(g.shards[i].owner)); d < bestD || (d == bestD && r > best) {
			victim, best, bestD = i, r, d
		}
	}
	return victim
}

// propCut returns ni*cum/total without intermediate overflow: the 128-bit
// product keeps the cumulative proportional bound exact even when
// ni*cum exceeds int64 (the overflow the old int64 multiply hit for large
// trip counts x weight sums). Requires 0 <= cum <= total, which bounds the
// 128-bit quotient below 2^63.
func propCut(ni int64, cum, total int64) int64 {
	hi, lo := bits.Mul64(uint64(ni), uint64(cum))
	q, _ := bits.Div64(hi, lo, uint64(total))
	return int64(q)
}

// checkWeights validates a shard-weight slice and returns its sum.
func checkWeights(weights []int) int64 {
	if len(weights) == 0 {
		panic("pool: no shard weights")
	}
	total := int64(0)
	for i, w := range weights {
		if w < 0 {
			panic(fmt.Sprintf("pool: negative shard weight %d at %d", w, i))
		}
		total += int64(w)
	}
	if total <= 0 {
		panic("pool: shard weights sum to zero")
	}
	if total >= 1<<31 {
		panic(fmt.Sprintf("pool: shard weight sum %d too large", total))
	}
	return total
}

// NewSharded partitions [0, ni) into one shard per entry of weights, with
// shard sizes proportional to the weights (typically the per-core-type
// thread counts). A zero weight yields an empty shard; the weight sum must
// be positive. ni may be 0; negative values panic.
//
// A pool may be built with fewer shards than the platform has core types
// (a single shard preserves the unsharded global consumption order, which
// AID-auto's cost-variation classifier depends on); home indexes beyond
// the shard count clamp to the last shard.
func NewSharded(ni int64, weights []int) *ShardedWorkShare {
	if ni < 0 {
		panic(fmt.Sprintf("pool: negative iteration count %d", ni))
	}
	total := checkWeights(weights)
	ws := &ShardedWorkShare{ni: ni}
	g := &generation{
		shards: make([]shard, len(weights)),
		byType: make([][]int32, len(weights)),
		ntypes: len(weights),
	}
	// Cumulative proportional bounds: monotone and exactly covering [0, ni).
	cum, lo := int64(0), int64(0)
	for i, w := range weights {
		cum += int64(w)
		hi := propCut(ni, cum, total)
		s := &g.shards[i]
		s.base, s.end = lo, hi
		s.owner = int32(i)
		s.next.Store(lo)
		g.byType[i] = []int32{int32(i)}
		lo = hi
	}
	ws.gen.Store(g)
	return ws
}

// NI returns the total trip count of the pool.
func (ws *ShardedWorkShare) NI() int64 { return ws.ni }

// NumShards returns the number of sub-pools of the current generation (one
// per type at construction; a re-weighted generation may hold more).
func (ws *ShardedWorkShare) NumShards() int { return len(ws.gen.Load().shards) }

// NumTypes returns the number of core types the pool partitions for.
func (ws *ShardedWorkShare) NumTypes() int { return ws.gen.Load().ntypes }

// ForeignClaims returns the number of successful foreign-shard claims so
// far — the cross-core-type handoff traffic SF-aware re-weighting reduces.
func (ws *ShardedWorkShare) ForeignClaims() int64 { return ws.foreign.Load() }

// Remaining returns the total number of unclaimed iterations across all
// shards. Iterations claimed but not yet executed (e.g. a thread-local
// handoff stash) do not count — they are spoken for.
func (ws *ShardedWorkShare) Remaining() int64 { return ws.gen.Load().remaining() }

// Reweight re-partitions the pool's remaining iterations under new per-type
// weights: the current generation's shards are drained, the leftovers are
// re-cut at proportional boundaries (one or more contiguous shards per
// type), and the new generation is published. Iterations already claimed —
// including thread-local stashes — are untouched; only unclaimed work
// moves. len(weights) must equal NumTypes.
//
// Reweight may run concurrently with every claim path, but re-weighters
// must be externally serialized (the AID schedulers call it from their
// single-threaded phase-transition window).
func (ws *ShardedWorkShare) Reweight(weights []int) {
	total := checkWeights(weights)
	g := ws.gen.Load()
	if len(weights) != g.ntypes {
		panic(fmt.Sprintf("pool: reweight with %d weights, pool has %d types", len(weights), g.ntypes))
	}
	ws.seq.Add(1) // odd: re-partition in progress
	// Drain the current generation, collecting the leftover ranges in
	// iteration order. Concurrent claims serialize against the CAS: work a
	// thief wins before the drain stays with the thief.
	var rs []Range
	var left int64
	for i := range g.shards {
		s := &g.shards[i]
		for {
			cur := s.next.Load()
			if cur >= s.end {
				break
			}
			if s.next.CompareAndSwap(cur, s.end) {
				rs = append(rs, Range{Lo: cur, Hi: s.end})
				left += s.end - cur
				break
			}
		}
		s.dead.Store(true)
	}
	ws.gen.Store(buildGeneration(rs, left, weights, total))
	ws.seq.Add(1) // even: new generation published
	ws.reweights.Add(1)
}

// Reweights returns how many re-partitions have been published.
func (ws *ShardedWorkShare) Reweights() int64 { return ws.reweights.Load() }

// buildGeneration cuts the collected leftover ranges at overflow-safe
// proportional boundaries into owner-tagged shards. A type whose share
// lands entirely inside one leftover range gets one shard; shares spanning
// range gaps get one shard per covered piece. Types left with no work get
// an empty shard so they always have a home.
func buildGeneration(rs []Range, left int64, weights []int, total int64) *generation {
	ng := &generation{byType: make([][]int32, len(weights)), ntypes: len(weights)}
	ri, pos := 0, int64(0) // current range and work consumed so far
	curLo := int64(0)
	if ri < len(rs) {
		curLo = rs[ri].Lo
	}
	cum := int64(0)
	for t, w := range weights {
		cum += int64(w)
		cut := propCut(left, cum, total)
		for pos < cut {
			take := cut - pos
			if rem := rs[ri].Hi - curLo; take > rem {
				take = rem
			}
			idx := int32(len(ng.shards))
			ng.shards = append(ng.shards, shard{})
			s := &ng.shards[idx]
			s.base, s.end = curLo, curLo+take
			s.owner = int32(t)
			ng.byType[t] = append(ng.byType[t], idx)
			pos += take
			curLo += take
			if curLo == rs[ri].Hi {
				ri++
				if ri < len(rs) {
					curLo = rs[ri].Lo
				}
			}
		}
		if len(ng.byType[t]) == 0 {
			idx := int32(len(ng.shards))
			ng.shards = append(ng.shards, shard{owner: int32(t)})
			ng.byType[t] = append(ng.byType[t], idx)
		}
	}
	for i := range ng.shards {
		ng.shards[i].next.Store(ng.shards[i].base)
	}
	return ng
}

// drainedValid reports whether a "pool drained" conclusion reached while
// the sequence word read seq is trustworthy: no re-partition was in flight
// or completed meanwhile. On false the caller must reload the generation
// and retry — the work it failed to find may have moved.
func (ws *ShardedWorkShare) drainedValid(seq uint64) bool {
	return seq&1 == 0 && ws.seq.Load() == seq
}

// badSteal reports an invalid steal request; out of line so the hot-path
// callers only pay a branch for it.
func badSteal(home int, chunk int64) {
	panic(fmt.Sprintf("pool: bad steal request (home %d, chunk %d)", home, chunk))
}

// TryStealBatchFrom removes a chunk, preferring the caller's home shard
// and falling over to the richest foreign shard when it drains. A claim
// served by the caller's home shard returns at most chunk iterations; a
// claim that had to fall over to a foreign shard returns up to batch
// iterations in one RMW (batched handoff), and the caller keeps the surplus
// in thread-local state, amortizing the contended foreign access. batch
// must be >= chunk; batch == chunk is the strict (unbatched) removal path
// the conventional schedules use, where every call claims at most chunk
// iterations, exactly like gomp_iter_dynamic_next. from is the owner core
// type of the shard the range came from (the caller's own clamped type on
// the home fast path), which the cost model prices by topology distance;
// foreign victims are picked nearest-first (see SetTopology). accesses
// reports the RMW operations performed (minimum 1, the drained-pool
// observation the caller is charged for). The hot path is one flag load
// plus one fetch-and-add on the home shard's private cache line.
func (ws *ShardedWorkShare) TryStealBatchFrom(home int, chunk, batch int64) (lo, hi int64, from, accesses int, ok bool) {
	if chunk <= 0 || home < 0 || batch < chunk {
		badSteal(home, chunk)
	}
	for {
		seq := ws.seq.Load()
		g := ws.gen.Load()
		ht := g.clampType(home)
		for _, si := range g.byType[ht] {
			s := &g.shards[si]
			if s.dead.Load() {
				continue
			}
			if lo = s.next.Add(chunk) - chunk; lo < s.end {
				if hi = lo + chunk; hi > s.end {
					hi = s.end
				}
				return lo, hi, ht, accesses + 1, true
			}
			s.dead.Store(true)
			accesses++
		}
		for {
			v := ws.victimForeign(g, ht)
			if v < 0 {
				break
			}
			accesses++
			if lo, hi, ok = g.shards[v].claim(batch); ok {
				ws.foreign.Add(1)
				return lo, hi, int(g.shards[v].owner), accesses, true
			}
			g.shards[v].dead.Store(true)
		}
		if ws.drainedValid(seq) {
			if accesses == 0 {
				accesses = 1 // the drained-pool observation
			}
			return 0, 0, ht, accesses, false
		}
		runtime.Gosched() // re-partition in flight: retry on the new generation
	}
}

// TryStealFuncFrom removes a chunk whose size depends on the total number
// of remaining iterations, as the guided schedule requires. sizeOf receives
// the global remaining count (always > 0) and must return a positive size;
// the claim is CAS-based on a single shard (home preferred) and clipped at
// the shard boundary. from is the owner core type of the shard the range
// was cut from; foreign victims are picked nearest-first when a topology is
// installed. accesses reports RMW attempts including CAS retries.
func (ws *ShardedWorkShare) TryStealFuncFrom(home int, sizeOf func(remaining int64) int64) (lo, hi int64, from, accesses int, ok bool) {
	if home < 0 {
		panic(fmt.Sprintf("pool: home shard %d out of range", home))
	}
	for {
		seq := ws.seq.Load()
		g := ws.gen.Load()
		ht := g.clampType(home)
		var s *shard
		for _, si := range g.byType[ht] {
			if g.shards[si].remaining() > 0 {
				s = &g.shards[si]
				break
			}
		}
		if s == nil {
			v := ws.victimForeign(g, ht)
			if v < 0 {
				if ws.drainedValid(seq) {
					if accesses == 0 {
						accesses = 1
					}
					return 0, 0, ht, accesses, false
				}
				runtime.Gosched()
				continue
			}
			s = &g.shards[v]
		}
		cur := s.next.Load()
		if cur >= s.end {
			continue // raced to empty; re-select
		}
		rem := g.remaining()
		if rem <= 0 {
			continue
		}
		size := sizeOf(rem)
		if size <= 0 {
			panic(fmt.Sprintf("pool: sizeOf returned non-positive size %d", size))
		}
		hi = cur + size
		if hi > s.end {
			hi = s.end
		}
		accesses++
		if s.next.CompareAndSwap(cur, hi) {
			return cur, hi, int(s.owner), accesses, true
		}
	}
}

// StealSpan claims up to want iterations across shards (home shards first,
// then nearest-first foreign shards) and returns them as contiguous,
// provenance-tagged ranges. The AID final assignment uses it so an
// allotment that exceeds the home shard is not silently truncated. An empty
// slice means the pool is drained.
func (ws *ShardedWorkShare) StealSpan(home int, want int64) (rs []Range, accesses int) {
	if want <= 0 {
		panic(fmt.Sprintf("pool: non-positive span want %d", want))
	}
	for {
		seq := ws.seq.Load()
		g := ws.gen.Load()
		ht := g.clampType(home)
		got := int64(0)
		pick := int(g.byType[ht][0])
		hi := 0 // next home shard to fall over to
		for got < want {
			s := &g.shards[pick]
			if s.remaining() > 0 {
				accesses++
				if lo, shi, ok := s.claim(want - got); ok {
					rs = append(rs, Range{Lo: lo, Hi: shi, From: s.owner})
					got += shi - lo
					continue
				}
			}
			if hi++; hi < len(g.byType[ht]) {
				pick = int(g.byType[ht][hi])
				continue
			}
			next := ws.victimOther(g, ht, pick)
			if next < 0 || next == pick {
				break
			}
			pick = next
		}
		if len(rs) > 0 || got >= want {
			return rs, accesses
		}
		if ws.drainedValid(seq) {
			if accesses == 0 {
				accesses = 1 // drained-pool observation
			}
			return nil, accesses
		}
		runtime.Gosched()
	}
}

// DrainAll claims every remaining iteration, home shards first and foreign
// shards in nearest-tier order, as a list of contiguous, provenance-tagged
// ranges. It is the sharded analog of TryStealRest, used by the AID-static
// last-thread assignment so SF rounding never orphans work.
func (ws *ShardedWorkShare) DrainAll(home int) (rs []Range, accesses int) {
	for {
		seq := ws.seq.Load()
		g := ws.gen.Load()
		ht := g.clampType(home)
		order := make([]int, 0, len(g.shards))
		for _, si := range g.byType[ht] {
			order = append(order, int(si))
		}
		maxD := 0
		for i := range g.shards {
			if d := ws.distOf(ht, int(g.shards[i].owner)); d > maxD {
				maxD = d
			}
		}
		for d := 0; d <= maxD; d++ {
			for i := range g.shards {
				if o := int(g.shards[i].owner); o != ht && ws.distOf(ht, o) == d {
					order = append(order, i)
				}
			}
		}
		for _, i := range order {
			s := &g.shards[i]
			for {
				cur := s.next.Load()
				if cur >= s.end {
					break
				}
				accesses++
				if s.next.CompareAndSwap(cur, s.end) {
					rs = append(rs, Range{Lo: cur, Hi: s.end, From: s.owner})
					break
				}
			}
		}
		if len(rs) > 0 {
			return rs, accesses
		}
		if ws.drainedValid(seq) {
			if accesses == 0 {
				accesses = 1
			}
			return nil, accesses
		}
		runtime.Gosched()
	}
}
