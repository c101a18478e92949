package events

// ChunkSize is the number of events a Batch stages before publishing
// them to its log under one lock acquisition. It bounds the staging
// memory of an open batch (ChunkSize events, about 90 KB) however
// long the run.
const ChunkSize = 512

// Batch is one producer's staging buffer in front of a shared Log.
// A simulation run emits and resolves thousands of events; through
// the Log directly each would take the log's mutex, and concurrent
// runs would contend on it per event. A Batch instead stages events
// in a fixed-size chunk, resolves them in place while they are still
// staged, and publishes each full chunk to the ring under a single
// lock. Commit publishes the rest and returns the chunk to the log
// for reuse, so a warm Begin/Commit cycle allocates nothing.
//
// Seqs returned by Batch.Emit are local to the batch (1, 2, ...) and
// key Batch.Resolve only. Publishing assigns the events their global
// Log seqs in order, so for producers that run one after another the
// log's contents (Events, seqs, Len, Dropped) are exactly those of
// per-event Log.Emit/Resolve, at any ring capacity. Concurrent batches
// interleave in the log per published chunk rather than per event,
// and staged events are not visible to log readers until published.
//
// A Batch is for one goroutine. A nil *Batch (from a nil Log) is
// inert, like a nil Log. A Batch must not be used after Commit.
type Batch struct {
	log    *Log
	staged []Event // the open chunk, capacity ChunkSize
	seq    uint64  // last local seq assigned
	// deltas[k] maps the k-th published chunk's local seqs to global
	// ones: global = local + deltas[k]. Chunks publish whole, so one
	// offset per chunk suffices.
	deltas []uint64
}

// Begin opens a staging batch on l. A nil log returns a nil batch.
func (l *Log) Begin() *Batch {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	var b *Batch
	if n := len(l.free); n > 0 {
		b = l.free[n-1]
		l.free = l.free[:n-1]
	}
	l.mu.Unlock()
	if b == nil {
		b = &Batch{staged: make([]Event, 0, ChunkSize)}
	}
	b.log = l
	return b
}

// Emit stages ev and returns its batch-local seq, which keys a later
// Batch.Resolve. A full chunk is published to the log first. A nil
// batch returns 0.
func (b *Batch) Emit(ev Event) uint64 {
	if b == nil {
		return 0
	}
	if len(b.staged) == ChunkSize {
		b.log.mu.Lock()
		b.publishLocked()
		b.log.mu.Unlock()
	}
	b.staged = append(b.staged, ev)
	b.seq++
	return b.seq
}

// Resolve fills in the outcome of the decision event with the given
// batch-local seq: in place while it is staged, through Log.Resolve
// once published (a no-op if the ring has since evicted it). Seq 0
// and a nil batch are no-ops.
func (b *Batch) Resolve(seq uint64, out Outcome) {
	if b == nil || seq == 0 {
		return
	}
	published := uint64(len(b.deltas)) * ChunkSize
	if seq > published {
		out.apply(&b.staged[seq-published-1])
		return
	}
	b.log.Resolve(seq+b.deltas[(seq-1)/ChunkSize], out)
}

// Commit publishes every staged event and returns the batch to its
// log for reuse. Committing a nil batch is a no-op.
func (b *Batch) Commit() {
	if b == nil {
		return
	}
	l := b.log
	l.mu.Lock()
	b.publishLocked()
	b.log, b.seq, b.deltas = nil, 0, b.deltas[:0]
	// The free list never holds more batches than were open at once,
	// so its size is bounded by the producers' concurrency.
	l.free = append(l.free, b)
	l.mu.Unlock()
}

// publishLocked appends the staged chunk to the ring, assigning its
// global seqs. The caller holds b.log.mu.
func (b *Batch) publishLocked() {
	if len(b.staged) == 0 {
		return
	}
	l := b.log
	// The chunk's first local seq follows every previously published
	// one, and its first global seq is l.seq+1.
	b.deltas = append(b.deltas, l.seq-uint64(len(b.deltas))*ChunkSize)
	for i := range b.staged {
		l.put(&b.staged[i])
	}
	b.staged = b.staged[:0]
}
