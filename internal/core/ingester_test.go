package core

import (
	"testing"
	"time"
)

func TestCollectorSealsFixedSegments(t *testing.T) {
	c := NewIngester(IngesterConfig{SegmentLength: 4, Interval: time.Second})
	for i := 0; i < 10; i++ {
		c.Push(float64(i))
	}
	if got := c.Buffered(); got != 2 {
		t.Fatalf("buffered = %d, want 2 full segments", got)
	}
	seg, ok := c.Next()
	if !ok {
		t.Fatal("no segment")
	}
	if seg.Len() != 4 || seg.Values[0] != 0 || seg.Values[3] != 3 {
		t.Fatalf("segment 0 = %v", seg.Values)
	}
	seg2, _ := c.Next()
	if seg2.Values[0] != 4 {
		t.Fatalf("segment 1 starts at %v", seg2.Values[0])
	}
	// Timestamps advance by segLen × interval.
	if !seg2.Start.Equal(seg.Start.Add(4 * time.Second)) {
		t.Fatalf("timestamps: %v then %v", seg.Start, seg2.Start)
	}
}

func TestCollectorFlushPartial(t *testing.T) {
	c := NewIngester(IngesterConfig{SegmentLength: 8})
	c.PushBatch([]float64{1, 2, 3})
	if c.Buffered() != 0 {
		t.Fatal("partial segment sealed early")
	}
	c.Flush()
	seg, ok := c.Next()
	if !ok || seg.Len() != 3 {
		t.Fatalf("flush produced %v", seg)
	}
	c.Flush() // idempotent on empty pending
	if c.Buffered() != 0 {
		t.Fatal("empty flush produced a segment")
	}
}

func TestCollectorLabels(t *testing.T) {
	c := NewIngester(IngesterConfig{SegmentLength: 2})
	c.SetLabel(7)
	c.PushBatch([]float64{1, 2})
	seg, _ := c.Next()
	if seg.Label != 7 {
		t.Fatalf("label = %d", seg.Label)
	}
}

func TestCollectorSpillsWhenBufferFull(t *testing.T) {
	c := NewIngester(IngesterConfig{SegmentLength: 2, BufferSegments: 2})
	c.PushBatch([]float64{1, 2, 3, 4, 5, 6, 7, 8}) // 4 segments into a 2-slot buffer
	if got := c.Spilled(); got != 2 {
		t.Fatalf("spilled = %d, want 2", got)
	}
	if c.Buffered() != 2 {
		t.Fatalf("buffered = %d", c.Buffered())
	}
}

func TestCollectorSegmentIDsMonotone(t *testing.T) {
	c := NewIngester(IngesterConfig{SegmentLength: 1})
	c.PushBatch([]float64{1, 2, 3})
	var prev uint64
	for i := 0; i < 3; i++ {
		seg, ok := c.Next()
		if !ok {
			t.Fatal("missing segment")
		}
		if i > 0 && seg.ID != prev+1 {
			t.Fatalf("ids not monotone: %d after %d", seg.ID, prev)
		}
		prev = seg.ID
	}
}

func TestCollectorFeedsOnlineEngine(t *testing.T) {
	// End-to-end: point stream → ingester → online engine.
	eng, err := NewOnlineEngine(Config{
		TargetRatioOverride: 0.5,
		Objective:           SingleTarget(TargetRatio),
		Seed:                1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := NewIngester(IngesterConfig{SegmentLength: 128})
	for i := 0; i < 128*5; i++ {
		c.Push(float64(i%50) / 7)
	}
	processed := 0
	for {
		seg, ok := c.Next()
		if !ok {
			break
		}
		if _, _, err := eng.Process(seg.Values, seg.Label); err != nil {
			t.Fatal(err)
		}
		processed++
	}
	if processed != 5 {
		t.Fatalf("processed %d segments, want 5", processed)
	}
}
