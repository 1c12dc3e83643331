package core

import (
	"sync"
	"time"

	"repro/internal/store"
	"repro/internal/timeseries"
)

// Ingester implements the ingest front of the paper's workflow (§IV-C):
// "AdaEdge ingests data points generated by remote sensor clients, caches
// them into fixed-size arrays, assigns a timestamp to each segment, and
// then pushes it into the uncompressed buffer." When the uncompressed
// buffer overflows — the ingestion rate exceeding the compression speed —
// segments are flushed (counted as disk spill, paper: "the data is flushed
// to the disk").
type Ingester struct {
	mu sync.Mutex

	signal   string
	segLen   int
	interval time.Duration
	start    time.Time

	pending []float64
	label   int
	nextID  uint64

	buffer *store.Buffer

	// Spilled counts segments that did not fit the uncompressed buffer
	// and were flushed to disk instead of being handed to a compressor.
	spilled int
}

// IngesterConfig parameterizes an Ingester.
type IngesterConfig struct {
	// Signal names the source stream.
	Signal string
	// SegmentLength is the fixed segment size (default 128).
	SegmentLength int
	// Interval is the uniform sampling interval (default 1ms).
	Interval time.Duration
	// Start is the timestamp of the first point.
	Start time.Time
	// BufferSegments bounds the uncompressed buffer (default 1024).
	BufferSegments int
}

// NewIngester builds an ingester.
func NewIngester(cfg IngesterConfig) *Ingester {
	if cfg.SegmentLength <= 0 {
		cfg.SegmentLength = 128
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Millisecond
	}
	if cfg.Signal == "" {
		cfg.Signal = "signal"
	}
	return &Ingester{
		signal:   cfg.Signal,
		segLen:   cfg.SegmentLength,
		interval: cfg.Interval,
		start:    cfg.Start,
		buffer:   store.NewBuffer(cfg.BufferSegments),
	}
}

// Push appends one data point. When a segment fills, it is moved to the
// uncompressed buffer (or counted as spilled if the buffer is full).
func (c *Ingester) Push(v float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pending = append(c.pending, v)
	if len(c.pending) >= c.segLen {
		c.sealLocked()
	}
}

// PushBatch appends many points at once.
func (c *Ingester) PushBatch(vs []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, v := range vs {
		c.pending = append(c.pending, v)
		if len(c.pending) >= c.segLen {
			c.sealLocked()
		}
	}
}

// SetLabel sets the class label stamped on subsequently sealed segments.
func (c *Ingester) SetLabel(label int) {
	c.mu.Lock()
	c.label = label
	c.mu.Unlock()
}

// Flush seals any partial segment (e.g. at stream end).
func (c *Ingester) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.pending) > 0 {
		c.sealLocked()
	}
}

// sealLocked moves the pending points into a timestamped segment.
func (c *Ingester) sealLocked() {
	seg := timeseries.NewSegment(c.nextID, c.signal, c.start, c.interval, c.pending)
	seg.Label = c.label
	c.start = c.start.Add(time.Duration(len(c.pending)) * c.interval)
	c.nextID++
	c.pending = c.pending[:0]
	if !c.buffer.Push(seg) {
		c.spilled++
	}
}

// Next pops the oldest buffered segment for a compression thread.
func (c *Ingester) Next() (*timeseries.Segment, bool) {
	return c.buffer.Pop()
}

// Buffered returns the number of segments waiting for compression.
func (c *Ingester) Buffered() int { return c.buffer.Len() }

// Spilled returns the number of segments flushed to disk because the
// uncompressed buffer was full.
func (c *Ingester) Spilled() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spilled
}
